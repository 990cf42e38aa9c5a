"""Schwarzian derivatives, the Bers embedding, and its sections.

The Bers image of a disk coefficient mu is the Schwarzian derivative of the
plane solution restricted to the exterior disk, extracted through Laurent
analysis on circles in the conformal region:

    Phi(mu) = S_{f_mu | D*},   S_f = f'''/f' - (3/2) (f''/f')^2.

Two Teichmueller classes agree exactly when their Bers images agree; the
numerical test compares images in the sup metric on the circles
|z| in {1.5, 2, 3}.

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
    chain_rule,
    compose,
    dilatation,
    solve_disk,
    solve_plane,
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
    """Laurent data from different circles disagree beyond tolerance."""


def laurent_coefficients(f, center, radius, orders,
                         check_tol=1e-8) -> HolomorphicFunction:
    """Laurent coefficients of f on the circle |z - center| = radius.

    Fourier analysis of 1024 circle samples; coefficients below 1e-12 of
    the largest are zeroed.  The series is validated against held-out
    samples at intermediate angles (resampling residual, must stay below
    check_tol relative to the sample scale).  QuasiconformalMap inputs are
    first checked for conformality on the circle: |dbar f| / |df| above
    1e-2 raises NonHolomorphicError.
    """
    if isinstance(f, QuasiconformalMap):
        th = 2.0 * np.pi * np.arange(64) / 64
        zc = center + radius * np.exp(1j * th)
        dz, dbar = f.partials_at(zc)
        defect = float(np.max(np.abs(dbar)) / np.max(np.abs(dz)))
        if defect > 1e-2:
            raise NonHolomorphicError(
                f"|dbar f|/|df| = {defect:.2e} on |z - {center}| = {radius}")

    m = 2048
    th = 2.0 * np.pi * np.arange(m) / m
    zc = center + radius * np.exp(1j * th)
    vals = np.asarray(f(zc), dtype=complex)
    orders, coeffs = _circle_coefficients(vals[0::2], radius, orders, 1e-12)
    series = HolomorphicFunction(orders, coeffs, center=center,
                                 r_inner=radius * 0.999, r_outer=math.inf,
                                 domain=DomainTag.EXTERIOR_DISK,
                                 anchor_radius=radius)
    held_out = vals[1::2]
    resid = float(np.max(np.abs(series.eval(zc[1::2]) - held_out)))
    scale = max(float(np.max(np.abs(vals))), 1e-30)
    series.resample_residual = resid / scale
    if check_tol is not None and series.resample_residual > check_tol:
        raise NonHolomorphicError(
            f"resampling residual {series.resample_residual:.2e} exceeds "
            f"{check_tol:.2e} on |z - {center}| = {radius}")
    return series


def schwarzian(f: HolomorphicFunction, out_orders=None,
               sample_radius=None) -> HolomorphicFunction:
    """Schwarzian derivative S_f = f'''/f' - 1.5 (f''/f')^2 of a series.

    Derivatives come from the coefficient representation; the quotient is
    resampled at 512 points of a circle back into a series.  Raises when
    f' vanishes on the sampling annulus.
    """
    if sample_radius is None:
        if f.anchor_radius is not None:
            sample_radius = f.anchor_radius
        elif math.isinf(f.r_outer):
            sample_radius = max(1.5 * max(f.r_inner, 0.1), 1.5)
        else:
            sample_radius = math.sqrt(max(f.r_inner, 1e-6) * f.r_outer)
    if out_orders is None:
        if f.domain is DomainTag.EXTERIOR_DISK and f.growth_order() <= 1:
            out_orders = range(-28, -3)  # normalized tails decay like z^-4
        else:
            out_orders = range(0, 24)
    th = 2.0 * np.pi * np.arange(512) / 512
    zc = f.center + sample_radius * np.exp(1j * th)
    f1 = f.eval(zc, der=1)
    if np.min(np.abs(f1)) < 1e-9 * np.max(np.abs(f1)):
        raise ValueError("f' vanishes on the sampling circle")
    f2 = f.eval(zc, der=2)
    f3 = f.eval(zc, der=3)
    svals = f3 / f1 - 1.5 * (f2 / f1) ** 2
    orders, coeffs = _circle_coefficients(svals, sample_radius, out_orders,
                                          1e-12)
    return HolomorphicFunction(orders, coeffs, center=f.center,
                               r_inner=f.r_inner, r_outer=f.r_outer,
                               domain=f.domain, anchor_radius=sample_radius)


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


def bers_map(mu: BeltramiCoefficient, p=2.0, grid_n=1024) -> TeichmullerPoint:
    """Bers Schwarzian derivative map Phi(mu) = S_{f_mu | D*}.

    Solves the plane equation with mu extended by zero off D, reads Laurent
    data on the smallest test circle, and validates it against the other
    circles (mutual sup discrepancy beyond 1e-3 raises BersConsistencyError
    with the measured discrepancy).
    """
    if mu.domain is not DomainTag.UNIT_DISK:
        raise ValueError("bers_map expects a unit-disk coefficient")
    f = solve_plane(mu, grid_n=grid_n)
    first, *others = DEFAULT_CIRCLES
    series = laurent_coefficients(f, 0.0, first, range(-20, 2),
                                  check_tol=1e-5)
    th = 2.0 * np.pi * np.arange(256) / 256
    for rho in others:
        zc = rho * np.exp(1j * th)
        disc = float(np.max(np.abs(series.eval(zc) - f(zc))) / rho)
        if disc > 1e-3:
            raise BersConsistencyError(
                f"Laurent data from |z|={first} disagrees with samples "
                f"on |z|={rho}: discrepancy {disc:.2e}")
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
