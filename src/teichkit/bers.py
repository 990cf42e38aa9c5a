"""Schwarzian derivatives, the Bers embedding, and its sections.

The Bers image of a disk coefficient mu is the Schwarzian derivative of the
plane solution restricted to the exterior disk:

    Phi(mu) = S_{f_mu | D*},   S_f = f'''/f' - (3/2) (f''/f')^2.

Off the support of h = dbar f_mu, f_mu = z + sum_n c_n z^(-n-1) with the
moments c_n = (1/pi) int h w^n dA, and S_f ignores f's affine
normalization, so Phi(mu) is read from the moments of h on its support box
(solver._box_solve) without assembling f on the grid.  Two Teichmueller
classes agree exactly when their Bers images agree; the numerical test
compares images in the sup metric on the circles |z| in {1.5, 2, 3}.

The Ahlfors-Weill section sigma(phi)(u) = -(1/2) (z u)^2 (1-|z|^2)^2 phi(z)
at u = 1/conj(z) collapses, in terms of the inverted representation
psi(w) = w^-4 phi(1/w), to

    sigma(phi)(u) = -(1/2) (1 - |u|^2)^2 psi(conj u),

which makes sup |sigma| = ainf(phi)/2 manifest.  Phi(sigma(phi)) = phi holds
exactly for ainf(phi) < 2, and that roundtrip is the section contract tested
here.  The bi-Lipschitz representative algorithm walks mu in sup-norm steps
small enough that each increment lies in the Ahlfors-Weill regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import (
    BeltramiCoefficient,
    DomainTag,
    HolomorphicFunction,
    NormReport,
    _circle_coefficients,
    ainf_norm,
    ap_norm,
    hyperbolic_density,
)
from .solver import (
    Normalization,
    QuasiconformalMap,
    SolverError,
    _box_solve,
    chain_rule,
    compose,
    dilatation,
    solve_disk,
)

__all__ = [
    "NonHolomorphicError",
    "BersConsistencyError",
    "TeichmullerPoint",
    "laurent_coefficients",
    "schwarzian",
    "bers_map",
    "ahlfors_weill",
    "equivalent",
    "hyperbolic_distortion",
    "bilipschitz_representative",
    "local_section",
    "DEFAULT_CIRCLES",
]

DEFAULT_CIRCLES = (1.5, 2.0, 3.0)


class NonHolomorphicError(ValueError):
    """Input fails the conformality check on the sampling circle."""


class BersConsistencyError(RuntimeError):
    """The moment series of f disagrees with the direct Cauchy sum of h
    beyond tolerance: the series was cut too early."""


def laurent_coefficients(f, radius, orders,
                         check_tol=1e-8) -> HolomorphicFunction:
    """Laurent coefficients about 0 of f on the circle |z| = radius.

    Fourier analysis of 1024 circle samples; coefficients below 1e-12 of
    the largest are zeroed.  The series is validated against 1024 held-out
    samples at intermediate angles (resampling residual, must stay below
    check_tol relative to the scale of all 2048 samples).  QuasiconformalMap
    inputs are first checked for conformality on the circle: |dbar f| / |df|
    above 1e-2 raises NonHolomorphicError.
    """
    if isinstance(f, QuasiconformalMap):
        th = 2.0 * np.pi * np.arange(64) / 64
        zc = radius * np.exp(1j * th)
        dz, dbar = f.partials_at(zc)
        defect = float(np.max(np.abs(dbar)) / np.max(np.abs(dz)))
        if defect > 1e-2:
            raise NonHolomorphicError(
                f"|dbar f|/|df| = {defect:.2e} on |z| = {radius}")

    m = 2048
    th = 2.0 * np.pi * np.arange(m) / m
    zc = radius * np.exp(1j * th)
    vals = np.asarray(f(zc), dtype=complex)
    orders, coeffs = _circle_coefficients(vals[0::2], radius, orders, 1e-12)
    series = HolomorphicFunction(orders, coeffs, DomainTag.EXTERIOR_DISK,
                                 anchor_radius=radius)
    held_out = vals[1::2]
    resid = float(np.max(np.abs(series.eval(zc[1::2]) - held_out)))
    scale = max(float(np.max(np.abs(vals))), 1e-30)
    series.resample_residual = resid / scale
    if check_tol is not None and series.resample_residual > check_tol:
        raise NonHolomorphicError(
            f"resampling residual {series.resample_residual:.2e} exceeds "
            f"{check_tol:.2e} on |z| = {radius}")
    return series


def schwarzian(f: HolomorphicFunction, out_orders=None,
               sample_radius=None) -> HolomorphicFunction:
    """Schwarzian derivative S_f = f'''/f' - 1.5 (f''/f')^2 of a series.

    Derivatives come from the coefficient representation; the quotient is
    resampled at 512 points of |z| = sample_radius, by default the series'
    anchor circle, back into a series.  Raises when f' vanishes there.
    """
    if sample_radius is None:
        sample_radius = f.anchor_radius
    if sample_radius is None:
        raise ValueError("schwarzian needs sample_radius or a series with "
                         "an anchor_radius")
    if out_orders is None:
        if f.domain is DomainTag.EXTERIOR_DISK and f.growth_order() <= 1:
            out_orders = range(-28, -3)  # normalized tails decay like z^-4
        else:
            out_orders = range(0, 24)

    def quotient(zc):
        f1 = f.eval(zc, der=1)
        if np.min(np.abs(f1)) < 1e-9 * np.max(np.abs(f1)):
            raise ValueError("f' vanishes on the sampling circle")
        f2 = f.eval(zc, der=2)
        f3 = f.eval(zc, der=3)
        return f3 / f1 - 1.5 * (f2 / f1) ** 2

    return HolomorphicFunction.from_callable_on_circle(
        quotient, sample_radius, out_orders, n_samples=512, noise_rel=1e-12,
        domain=f.domain)


# ---------------------------------------------------------------------------
# Bers map


@dataclass
class TeichmullerPoint:
    """Bers image Phi(mu) with its weighted-norm reports.

    The norm reports are computed on first read: distances and roundtrips
    use the image alone.
    """

    bers_image: HolomorphicFunction
    p: float
    circles_checked = DEFAULT_CIRCLES

    @cached_property
    def ap_norm_report(self) -> NormReport:
        return ap_norm(self.bers_image, self.p)

    @cached_property
    def ainf_report(self) -> NormReport:
        return ainf_norm(self.bers_image)

    def distance_to(self, other, circles=DEFAULT_CIRCLES, n=128):
        th = 2.0 * np.pi * np.arange(n) / n
        worst = 0.0
        for rho in circles:
            z = rho * np.exp(1j * th)
            worst = max(worst, float(np.max(np.abs(
                self.bers_image.eval(z) - other.bers_image.eval(z)))))
        return worst

    def to_json_dict(self):
        return {
            "p": self.p,
            "laurent": [[int(n), c.real, c.imag] for n, c in
                        zip(self.bers_image.orders, self.bers_image.coeffs)],
            "ainf": self.ainf_report.value,
            "ap": self.ap_norm_report.to_json_dict(),
            "circles_checked": list(self.circles_checked),
        }


# the moment series of f is cut where (reach / anchor)^n <= MOMENT_TAIL
MOMENT_TAIL = 1e-13

# points of a test circle per block of the direct Cauchy sum
_SUM_BLOCK = 8


def _moment_count(reach):
    """Number of moments c_0 .. c_{n-1} whose series is exact to MOMENT_TAIL
    on the smallest test circle, for h supported in |w| <= reach."""
    anchor = DEFAULT_CIRCLES[0]
    if reach == 0.0:
        return 0
    if reach >= anchor:
        raise BersConsistencyError(
            f"support reach {reach:.3f} is not inside |z| = {anchor}")
    return math.ceil(math.log(MOMENT_TAIL) / math.log(reach / anchor))


def _cauchy_sum(z, w, hdA):
    """z + (1/pi) sum h dA / (z - w) directly, a block of points at a time."""
    out = z.copy()
    for i in range(0, z.size, _SUM_BLOCK):
        d = z[i:i + _SUM_BLOCK, None] - w
        out[i:i + _SUM_BLOCK] += np.reciprocal(d, out=d) @ hdA / np.pi
    return out


def bers_map(mu: BeltramiCoefficient, p=2.0, grid_n=1024) -> TeichmullerPoint:
    """Bers Schwarzian derivative map Phi(mu) = S_{f_mu | D*}.

    Solves for h with mu extended by zero off D, on the support box of its
    samples, and forms the moments c_n = (1/pi) sum h w^n dA of the nonzero
    h; their number follows from the reach of h (_moment_count).  The series
    z + sum c_n z^(-n-1), anchored on the smallest test circle, gives Phi
    through schwarzian.  It is checked against the direct Cauchy sum
    z + (1/pi) sum h dA / (z - w) on the other test circles: a sup
    discrepancy beyond 1e-3 raises BersConsistencyError with the measured
    discrepancy.  Both sides sum the same discrete h, so the check guards
    the cut of the series alone; errors of h itself, or of the grid solve
    (torus images, far field), do not show in it.
    """
    if mu.domain is not DomainTag.UNIT_DISK:
        raise ValueError("bers_map expects a unit-disk coefficient")
    sol = _box_solve(mu, grid_n, False)
    nz = sol.h != 0
    w = sol.kit.nodes(sol.box)[nz]
    hdA = sol.h[nz] * sol.kit.spacing ** 2
    reach = float(np.max(np.abs(w), initial=0.0))
    moments = np.empty(_moment_count(reach), dtype=complex)
    term = hdA / np.pi
    for n in range(moments.size):
        moments[n] = term.sum()
        term = term * w
    first, *others = DEFAULT_CIRCLES
    series = HolomorphicFunction(
        np.r_[1, -1 - np.arange(moments.size)], np.r_[1.0, moments],
        DomainTag.EXTERIOR_DISK, anchor_radius=first)
    th = 2.0 * np.pi * np.arange(256) / 256
    for rho in others:
        zc = rho * np.exp(1j * th)
        disc = float(np.max(np.abs(series.eval(zc) - _cauchy_sum(zc, w, hdA)))
                     / rho)
        if disc > 1e-3:
            raise BersConsistencyError(
                f"moment series anchored on |z|={first} disagrees with the "
                f"Cauchy sum on |z|={rho}: discrepancy {disc:.2e}")
    phi = schwarzian(series)
    return TeichmullerPoint(bers_image=phi, p=float(p))


def equivalent(mu1: BeltramiCoefficient, mu2: BeltramiCoefficient,
               tol=1e-2, grid_n=512):
    """Teichmueller equivalence test: Phi(mu1) = Phi(mu2) up to tol.

    Returns (verdict, distance) with distance the sup discrepancy of the
    Bers images over the test circles.
    """
    t1 = bers_map(mu1, grid_n=grid_n)
    t2 = bers_map(mu2, grid_n=grid_n)
    dist = t1.distance_to(t2)
    return dist <= tol, dist


# ---------------------------------------------------------------------------
# Ahlfors-Weill section


def ahlfors_weill(phi: HolomorphicFunction) -> BeltramiCoefficient:
    """Ahlfors-Weill section: coefficient on D with Phi(sigma(phi)) = phi.

    Defined for ainf(phi) < 2 (the classical smallness regime); in the
    inverted representation, sigma(phi)(u) = -(1/2)(1-|u|^2)^2 psi(conj u)
    with sup-norm ainf(phi)/2.
    """
    rep = ainf_norm(phi)
    if rep.divergent or not rep.value < 2.0:
        raise ValueError(
            f"Ahlfors-Weill section needs ainf < 2, got {rep.value}")
    psi = phi.inverted_disk_rep()

    def func(u):
        u = np.asarray(u, dtype=complex)
        return -0.5 * (1.0 - np.abs(u) ** 2) ** 2 * psi.eval(np.conj(u))

    return BeltramiCoefficient(DomainTag.UNIT_DISK, func, 1.0,
                               min(rep.value / 2.0 + 1e-12, 0.9999),
                               meta={"kind": "ahlfors_weill",
                                     "ainf": rep.value})


# ---------------------------------------------------------------------------
# Hyperbolic distortion


def hyperbolic_distortion(f: QuasiconformalMap):
    """Hyperbolic bi-Lipschitz range of a disk self-map.

    Samples rho(f(z)) |D_alpha f(z)| / rho(z) over the grid nodes with
    |z| <= 0.98 and |f(z)| < 0.995, in 16 directions; returns
    (L_min, L_max).
    """
    if f.normalization is not Normalization.FIX_THREE_BOUNDARY_POINTS:
        raise ValueError("hyperbolic distortion expects a disk self-map")
    Z = f.grid.nodes()
    keep = np.abs(Z) <= 0.98
    dz, dbar = f.partial_grids(order=4)
    vals = f.grid.values
    keep &= np.abs(vals) < 0.995
    z = Z[keep]
    fz = vals[keep]
    rho_ratio = hyperbolic_density(DomainTag.UNIT_DISK, fz) / \
        hyperbolic_density(DomainTag.UNIT_DISK, z)
    alphas = np.pi * np.arange(16) / 16
    lo, hi = math.inf, 0.0
    for a in alphas:
        deriv = np.abs(dz[keep] + dbar[keep] * np.exp(-2j * a))
        vals_a = rho_ratio * deriv
        lo = min(lo, float(vals_a.min()))
        hi = max(hi, float(vals_a.max()))
    return lo, hi


# ---------------------------------------------------------------------------
# Bi-Lipschitz representative (stepwise Ahlfors-Weill walk)


def bilipschitz_representative(mu: BeltramiCoefficient, delta=0.3,
                               grid_n=512):
    """Representative nu of [mu] whose disk map is hyperbolically bi-Lipschitz.

    Below sup-norm 1/3 a single Ahlfors-Weill section suffices; otherwise
    mu is walked in n equal sup-norm increments, each increment pulled back
    through the accumulated map by the chain rule and corrected with an
    Ahlfors-Weill step:

        nu_{k+1} = dilatation( f^{sigma(Phi(mu_{k+1} * nu_k^-1))} o f^{nu_k} ).

    The returned coefficient carries meta['steps']; meta['final_map'] holds
    the accumulated disk self-map for distortion checks.
    """
    if not 0 < delta <= 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3]")
    if mu.domain is not DomainTag.UNIT_DISK:
        raise ValueError("expected a unit-disk coefficient")
    sup = mu.sup_norm
    if sup < 1.0 / 3.0:
        point = bers_map(mu, grid_n=grid_n)
        nu = ahlfors_weill(point.bers_image)
        nu.meta.update(steps=1, single_step=True)
        nu.meta["final_map"] = solve_disk(nu, grid_n=grid_n)
        return nu

    n = max(2, math.ceil(sup / (delta * (1.0 - sup * sup))))
    if n > 1000:
        raise SolverError(f"step count {n} exceeds the cap 1000")
    nu_k = None
    f_k = None
    for k in range(1, n + 1):
        target = mu.scaled(k / n)
        if nu_k is None:
            increment = target
        else:
            increment = chain_rule(target, nu_k, f_k)
        point = bers_map(increment, grid_n=grid_n)
        beta = ahlfors_weill(point.bers_image)
        g = solve_disk(beta, grid_n=grid_n)
        f_k = g if f_k is None else compose(g, f_k)
        nu_k = dilatation(f_k)
        nu_k.meta.update(steps=k, single_step=False)
    nu_k.meta["final_map"] = f_k
    return nu_k


# ---------------------------------------------------------------------------
# Local section of the Bers map


def local_section(base_nu: BeltramiCoefficient, base_psi: HolomorphicFunction,
                  phi: HolomorphicFunction, epsilon=0.5, grid_n=512,
                  base_map: QuasiconformalMap | None = None):
    """Right-translated Ahlfors-Weill section around a bi-Lipschitz base.

    Returns nu_phi = dilatation(f^{sigma(phi)} o f^{nu}), the continuous
    local right inverse of Phi near psi = Phi(nu): Phi(nu_phi) tracks
    psi + phi for small phi, exactly at phi = 0.
    """
    norm = ainf_norm(phi)
    if norm.divergent or norm.value >= epsilon:
        raise ValueError(
            f"phi too large for the local section: ainf = {norm.value}")
    if not np.any(phi.coeffs) or norm.value == 0.0:
        return base_nu
    f_nu = base_map if base_map is not None else solve_disk(base_nu,
                                                            grid_n=grid_n)
    g = solve_disk(ahlfors_weill(phi), grid_n=grid_n)
    return dilatation(compose(g, f_nu))
