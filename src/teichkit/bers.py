"""Schwarzian derivatives, the Bers embedding, and its sections.

The Bers image of a disk coefficient mu is the Schwarzian derivative of the
plane solution restricted to the exterior disk:

    Phi(mu) = S_{f_mu | D*},   S_f = f'''/f' - (3/2) (f''/f')^2.

Off the support of h = dbar f_mu, f_mu = z + sum_n c_n z^(-n-1) with the
moments c_n = (1/pi) int h w^n dA, and S_f ignores f's affine
normalization, so Phi(mu) is read from the moments of h on its support box
(solver._box_solve) without assembling f on the grid; S_f then follows
by series arithmetic, with no sampling circle.  Two Teichmueller
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
    ainf_norm,
    ap_norm,
)
from .solver import (
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
# relative held-out residual above which laurent_coefficients raises
LAURENT_CHECK_TOL = 1e-8


class NonHolomorphicError(ValueError):
    """A Laurent fit on a circle misses its input on held-out points."""


class BersConsistencyError(RuntimeError):
    """The bound on the cut tail of the moment series of f exceeds the
    tolerance: the series may disagree with the Cauchy integral of h."""


def laurent_coefficients(f, radius, orders) -> HolomorphicFunction:
    """Laurent coefficients about 0 of f on the circle |z| = radius.

    The fit is HolomorphicFunction.from_callable_on_circle at 1024 samples,
    with coefficients below 1e-12 of the largest zeroed.  Its held-out
    residual relative to its sample scale must stay below LAURENT_CHECK_TOL
    (NonHolomorphicError otherwise): the orders then do not carry f on the
    circle.
    """
    series = HolomorphicFunction.from_callable_on_circle(
        f, radius, orders, noise_rel=1e-12, domain=DomainTag.EXTERIOR_DISK)
    resid = series.heldout_residual / max(series.sample_scale, 1e-30)
    if resid > LAURENT_CHECK_TOL:
        raise NonHolomorphicError(
            f"held-out residual {resid:.2e} exceeds "
            f"{LAURENT_CHECK_TOL:.2e} on |z| = {radius}")
    return series


def schwarzian(f: HolomorphicFunction) -> HolomorphicFunction:
    """S_f = f'''/f' - 1.5 (f''/f')^2 of an exterior series about 0, by
    truncated power-series arithmetic in w = 1/z.

    With f' = z^t b(w), f'' = z^(t-1) a2(w) and f''' = z^(t-2) a3(w),
    S_f = z^-2 (q3 - 1.5 q2^2) for q = a / b, by the division recurrence
    q_j = (a_j - sum_{i<j} q_i b_{j-i}) / b_0.  f down to z^-K fixes S_f
    down to z^-(t+K+3), and no further.  Where f is locally univalent at
    infinity (t = 0 or -2) S_f = O(z^-4), so z + sum_{n<K} c_n z^(-n-1)
    gives the orders z^-4 .. z^-(K+3) (none for K = 0).
    """
    if f.domain is not DomainTag.EXTERIOR_DISK:
        raise ValueError(f"schwarzian expects an exterior series about 0, got "
                         f"a {f.domain.value} series")
    d1 = f.orders * f.coeffs
    nz = d1 != 0
    if not nz.any():
        raise ValueError("f' vanishes identically: f is constant")
    n, d1 = f.orders[nz], d1[nz]
    t = n.max() - 1
    size = t + 2 - f.orders.min()
    # f^(d)'s term of order n - d sits at w^(t + 1 - n), for each d
    a = np.zeros((3, size), dtype=complex)
    np.add.at(a, (slice(None), t + 1 - n),
              [d1, (n - 1) * d1, (n - 1) * (n - 2) * d1])
    b, q = a[0], np.zeros((2, size), dtype=complex)
    for i in range(size):
        q[:, i] = (a[1:, i] - q[:, :i] @ b[i:0:-1]) / b[0]
    s = q[1] - 1.5 * np.convolve(q[0], q[0])[:size]
    lead = 2 if t in (0, -2) else 0
    return HolomorphicFunction(-2 - np.arange(lead, size), s[lead:],
                               DomainTag.EXTERIOR_DISK)


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


def _tail_bound(mass, reach, count):
    """Bound on |f - series| / |z| over |z| >= DEFAULT_CIRCLES[0] when the
    moment series of f is cut after count moments.

    With mass = (1/pi) sum |h dA| and h supported in |w| <= reach,
    |c_n| <= mass reach^n, so on |z| = rho > reach the cut tail is at most
    mass (reach / rho)^count / (rho - reach); divided by rho, that falls
    with rho, so its value on the smallest test circle bounds it.
    """
    rho = DEFAULT_CIRCLES[0]
    return mass * (reach / rho) ** count / (rho - reach) / rho


def bers_map(mu: BeltramiCoefficient, p=2.0, grid_n=1024) -> TeichmullerPoint:
    """Bers Schwarzian derivative map Phi(mu) = S_{f_mu | D*}.

    Solves for h with mu extended by zero off D, on the support box of its
    samples, and forms the moments c_n = (1/pi) sum h w^n dA of the nonzero
    h; their number K follows from the reach of h (_moment_count).  The
    series z + sum c_n z^(-n-1) gives Phi through schwarzian, on the orders
    z^-4 .. z^-(K+3) that K moments determine.  Its cut is certified
    against the Cauchy integral z + (1/pi) sum h dA / (z - w) of the same
    discrete h in closed form (_tail_bound): a bound on the discrepancy / |z|
    over |z| >= 1.5 that is not below 1e-3 (or is NaN) raises
    BersConsistencyError.  The bound guards the cut of the series alone;
    errors of h itself, or of the grid solve (torus images, far field), do
    not show in it.
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
    bound = _tail_bound(float(np.abs(hdA).sum()) / np.pi, reach, moments.size)
    if not bound <= 1e-3:
        raise BersConsistencyError(
            f"moment series cut after {moments.size} moments: the Cauchy "
            f"integral on |z| >= {DEFAULT_CIRCLES[0]} may differ by a "
            f"discrepancy up to {bound:.2e}")
    f = HolomorphicFunction(np.r_[1, -1 - np.arange(moments.size)],
                            np.r_[1.0, moments], DomainTag.EXTERIOR_DISK)
    return TeichmullerPoint(bers_image=schwarzian(f), p=float(p))


def equivalent(mu1: BeltramiCoefficient, mu2: BeltramiCoefficient, tol,
               grid_n=512):
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

    Ranges rho(f(z)) |D_alpha f(z)| / rho(z) over the grid nodes with
    |z| <= 0.98 and |f(z)| < 0.995 and over all directions alpha; since
    D_alpha f = f_z + f_zbar e^(-2i alpha), its modulus runs exactly over
    [||f_z| - |f_zbar||, |f_z| + |f_zbar|].  Returns (L_min, L_max).
    """
    if f.domain is not DomainTag.UNIT_DISK:
        raise ValueError("hyperbolic distortion expects a disk self-map")
    Z = f.grid.nodes()
    keep = np.abs(Z) <= 0.98
    dz, dbar = f.partial_grids(order=4)
    vals = f.grid.values
    keep &= np.abs(vals) < 0.995
    z = Z[keep]
    fz = vals[keep]
    # the disk density 2 / (1 - |z|^2) at f(z) over its value at z
    rho_ratio = (2.0 / (1.0 - np.abs(fz) ** 2)) / \
        (2.0 / (1.0 - np.abs(z) ** 2))
    a, b = np.abs(dz[keep]), np.abs(dbar[keep])
    return float((rho_ratio * np.abs(a - b)).min()), \
        float((rho_ratio * (a + b)).max())


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


def local_section(base_nu: BeltramiCoefficient, phi: HolomorphicFunction,
                  epsilon=0.5, grid_n=512,
                  base_map: QuasiconformalMap | None = None):
    """Right-translated Ahlfors-Weill section around a bi-Lipschitz base.

    Returns nu_phi = dilatation(f^{sigma(phi)} o f^{nu}), the continuous
    local right inverse of Phi near psi = Phi(nu): Phi(nu_phi) tracks
    psi + phi for small phi, exactly at phi = 0.  psi is fixed by the base,
    which enters through nu alone, or through its disk map base_map when
    one is passed.
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
