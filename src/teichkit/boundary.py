"""Boundary traces, conformal welding, Besov seminorms, and extensions.

A coefficient mu on the upper half-plane determines three maps: the plane
solution f_mu (conformal on the lower half-plane), the self-map f^mu of U,
and the welding factor g conformal on U whose coefficient on L is the
dilatation of the reflected inverse self-map.  On the real line they tie
together as

    f^mu|_R = g^-1 o f_mu|_R,
    log (g|_R)' o f^mu|_R + log (f^mu|_R)' = log (f_mu|_R)'.

Boundary traces and the welding identity read these maps, and series, on
the boundary itself: the solved grids cover R, and a series is a finite
sum.

The p-Besov seminorm is the double integral of |u(x1) - u(x2)|^p /
|x1 - x2|^2 over uniform samples on the circle, summed one index offset
at a time with the offsets of the diagonal band left out whole; the band's
midpoint width shrinks with the spacing and is Richardson-extrapolated
away (exponent p - 1).  The measure dx1 dx2 / |x1 - x2|^2 is Moebius-
invariant, so line data are read at x = -cot(theta/2) and go through the
same circle rule, with no truncation.

The heat-kernel extension F = phi_t * h + i t (phi_t * h') evaluates its
convolutions on demand, so norm ladders can probe t -> 0 and |x| -> inf
honestly; affine h yields mu = 0 identically.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (
    BeltramiCoefficient,
    DomainError,
    DomainTag,
    HolomorphicFunction,
    NormReport,
    _check_count,
    analytic_besov_norm,
    cayley,
    mp_norm,
)
from .solver import (
    FAR_FIELD_FIT,
    NEWTON_TOL,
    QuasiconformalMap,
    SolverError,
    _support_box,
    invert,
    margin_checked_samples,
    solve_halfplane,
    solve_plane,
)

__all__ = [
    "BoundaryFunction",
    "BoundaryHomeomorphism",
    "WeldingResult",
    "boundary_trace",
    "besov_seminorm",
    "welding",
    "log_derivative",
    "welding_identity_check",
    "ba_extend",
    "besov_characterization_check",
]


class BoundaryFunction:
    """Sampled function on the circle or a truncated line.

    Circle parameters are angles covering [0, 2pi), and circle data close
    over one turn; line parameters are strictly increasing reals, and the
    line's truncation is the last of them.  Evaluation is piecewise linear;
    an optional exact callable extends evaluation of line data beyond the
    sampled range, and without one a point beyond it raises ValueError.
    Boundary data stay on their side: cayley does not transport them."""

    normalization = None  # the label the CSV sidecar records

    def __init__(self, params, values, domain="line", extension=None):
        self.params = np.asarray(params, dtype=float)
        self.values = np.asarray(values)
        if self.params.ndim != 1 or self.params.shape != self.values.shape:
            raise ValueError("params and values must be aligned 1-d arrays")
        for name, arr in (("params", self.params), ("values", self.values)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"boundary data {name} must be finite")
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("parameters must be strictly increasing")
        if domain not in ("circle", "line"):
            raise ValueError(f"boundary data live on 'circle' or 'line', "
                             f"not {domain!r}")
        self.domain = domain
        if domain == "circle":
            if self.params[0] < 0 or self.params[-1] >= 2 * np.pi:
                raise ValueError("circle parameters must cover [0, 2pi)")
        self.extension = extension

    @property
    def truncation(self):
        """End of the sampled window on the line; None on the circle."""
        return None if self.domain == "circle" else float(self.params[-1])

    @property
    def is_complex(self):
        return np.iscomplexobj(self.values)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        xp, fp = self.params, self.values
        if self.domain == "circle":  # closed over one turn from xp[0]
            t = xp[0] + np.mod(t - xp[0], 2 * np.pi)
            xp = np.append(xp, xp[0] + 2 * np.pi)
            fp = np.append(fp, fp[0])
        out = np.interp(t, xp, fp.real)
        if self.is_complex:
            out = out + 1j * np.interp(t, xp, fp.imag)
        outside = ~((t >= xp[0]) & (t <= xp[-1]))
        if self.domain == "line" and np.any(outside):
            if self.extension is None:
                raise ValueError(f"line data sampled on [{xp[0]:g}, "
                                 f"{xp[-1]:g}] has no extension beyond it")
            out = np.asarray(out)  # writable, also for a scalar t
            out[outside] = self.extension(t[outside])
        return out[()]

    __call__ = eval

    def to_csv(self, path):
        """Write (parameter, value) rows; complex values as literals.

        Domain, truncation and normalization go to the sidecar path.json.
        """
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            w.writerow(["parameter", "value"])
            for t, v in zip(self.params, self.values):
                w.writerow([repr(float(t)), repr(complex(v))
                            if self.is_complex else repr(float(v))])
        side = {
            "domain": self.domain,
            "truncation": self.truncation,
            "normalization": self.normalization,
        }
        with open(str(path) + ".json", "w") as fh:
            json.dump(side, fh, indent=1, sort_keys=True)


class BoundaryHomeomorphism(BoundaryFunction):
    """Line data with real, strictly increasing values: a homeomorphism of
    R fixing 0, 1 and infinity (through the truncation), the normalization
    its CSV sidecar records.  fix_tol, when given, bounds how far 0 and 1
    move (welding and trace outputs pass it)."""

    normalization = "fix 0, 1, infinity"

    def __init__(self, params, values, extension=None, fix_tol=None):
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(values) <= 0):
            raise ValueError("homeomorphism values must be strictly increasing")
        super().__init__(params, values, "line", extension)
        defect = max(abs(float(self.eval(q)) - q) for q in (0.0, 1.0))
        if fix_tol is not None and defect > fix_tol:
            raise ValueError(
                f"normalization points move by {defect:.2e} (> {fix_tol:.0e})")


# ---------------------------------------------------------------------------
# Boundary traces


def boundary_trace(f, n_samples=1024):
    """Boundary values of a series, as circle data read at e^(i theta) on
    n_samples angles, or of a half-plane self-map, as a line homeomorphism
    read through its spline on n_samples points of [-T, T], T = 0.85
    half-width of its grid, and through its far field beyond T.  The
    trace's extension holds the map's far field, not the map, so a trace
    keeps no chart or spline alive.  A disk self-map or a plane map raises
    DomainError; n_samples below 2 raises ValueError."""
    _check_count("boundary_trace n_samples", n_samples, 2)
    if isinstance(f, HolomorphicFunction):
        th = 2 * np.pi * np.arange(n_samples) / n_samples
        return BoundaryFunction(th, f.eval(np.exp(1j * th)), "circle")
    if not isinstance(f, QuasiconformalMap):
        raise TypeError("boundary_trace expects a map or holomorphic function")
    if f.symmetry_defect is None:  # set by half-plane solves alone
        raise DomainError("boundary_trace reads half-plane self-maps, not a "
                          f"{'disk self-' if f.halfplane_map else 'plane '}map")
    T = 0.85 * f.grid.half_width
    x = np.linspace(-T, T, n_samples)
    far_field = f.far_field

    def far(t):
        return far_field.eval(t.astype(complex)).real

    return BoundaryHomeomorphism(x, f(x.astype(complex)).real,
                                 extension=far, fix_tol=1e-4)


# ---------------------------------------------------------------------------
# Besov seminorm on S and R


def _band_extrapolate(ints, bands, p):
    """Richardson in the band width with exponent p-1 (Lipschitz model)."""
    q = p - 1.0
    (d1, d2), (i1, i2) = bands, ints
    return (i2 * d1 ** q - i1 * d2 ** q) / (d1 ** q - d2 ** q)


def _offset_sums(vals, p, dth):
    """For each index offset d = 1 .. n-1, sum_i |v_{i+d} - v_i|^p over the
    samples v at n uniform angles of spacing dth, divided by the offset's
    squared chord (2 sin(d dth / 2))^2.

    Offsets d and n - d share a chord, and together they hold every pair
    of angular separation min(d, n - d) once.
    """
    offsets = np.arange(1, vals.size)
    num = [np.sum(np.abs(vals[d:] - vals[:-d]) ** p) for d in offsets]
    return np.array(num) / (2 * np.sin(offsets * dth / 2)) ** 2


def besov_seminorm(u: BoundaryFunction, p, levels=3, base_n=512) -> NormReport:
    """p-Besov seminorm (iint |u(x1)-u(x2)|^p / |x1-x2|^2)^{1/p}.

    Each level sums the pairs of n uniform angles one index offset at a
    time, each divided by its squared chord, leaving out those at most k
    samples apart (k = 2, 1): the band |theta1 - theta2| < (k + 1/2) dtheta
    of the midpoint rule, which Richardson in the band width removes.
    Circle data are read at the angles 2 pi j / n, and n doubles per level.
    Line data are read at x = -cot(theta/2) on the half-shifted angles
    2 pi (j + 1/2) / n, which keep theta = 0 (x = infinity) off the grid;
    there dx1 dx2 / |x1 - x2|^2 is dtheta1 dtheta2 over the squared chord,
    so no truncation enters.  Their n quadruples per level: on a doubling
    ladder the growth of a jump's divergence per level stays under
    LADDER_GROWTH.
    """
    p = float(p)
    if not 1.0 < p < math.inf:  # also rejects NaN
        raise ValueError(f"Besov seminorms require 1 < p < inf, got p = {p}")
    _check_count("besov_seminorm levels", levels)
    resolutions, values = [], []
    for lev in range(levels):
        if u.domain == "circle":
            n = base_n * 2 ** lev
            vals = u.eval(2 * np.pi * np.arange(n) / n)
        else:
            n = base_n * 4 ** lev
            vals = u.eval(-1.0 / np.tan(np.pi * (np.arange(n) + 0.5) / n))
        dth = 2 * np.pi / n
        sums = _offset_sums(vals, p, dth)
        # offsets d >= n - k are also within k samples
        ints = [2 * dth * dth * sums[k:n - 1 - k].sum() for k in (2, 1)]
        I = _band_extrapolate(ints, [(k + 0.5) * dth for k in (2, 1)], p)
        resolutions.append(n)
        values.append(max(I, 0.0) ** (1 / p))
    return NormReport.from_ladder(resolutions, values, power=p)


def _douglas_z():
    """Besov 2-seminorm of the trace of z on 512 angles (2 pi by Douglas'
    formula), and its ratio to the analytic Besov norm of z (2 sqrt(pi))."""
    z = HolomorphicFunction([1], [1.0])
    trace = besov_seminorm(boundary_trace(z, 512), 2).value
    return trace, trace / analytic_besov_norm(z, 2).value


# ---------------------------------------------------------------------------
# Conformal welding


@dataclass
class WeldingResult:
    """The welding map h on R with its two checks, and the conformal maps
    f_mu and g it welds (h = g^-1 o f_mu)."""
    h: BoundaryHomeomorphism
    consistency_sup: float
    imag_defect: float
    f_map: QuasiconformalMap = field(repr=False)
    g_map: QuasiconformalMap = field(repr=False)


def _to_halfplane(mu: BeltramiCoefficient) -> BeltramiCoefficient:
    """mu carried to U; cayley names any domain but D and U."""
    return mu if mu.domain is DomainTag.UPPER_HALF_PLANE else cayley(mu)


# h is sampled at N_BOUNDARY parameters of [-T_BOUNDARY, T_BOUNDARY] and
# its far-field series is fitted on |z| = T_BOUNDARY; `teichkit weld --out`
# writes f_mu on h's parameters and g on N_BOUNDARY of [-1.5 T_BOUNDARY,
# 1.5 T_BOUNDARY]
N_BOUNDARY = 2049
T_BOUNDARY = 40.0

# nodes by which the rectangle of the self-map's nonzero samples on L is
# grown before g's coefficient is read there: one for np.gradient's
# stencil, one for partials_at's linear interpolation, and one spare
SUPPORT_GROWTH = 3


def _in_rect(z, lo, hi):
    """z inside the closed rectangle with corners lo and hi."""
    return (z.real >= lo.real) & (z.real <= hi.real) & \
        (z.imag >= lo.imag) & (z.imag <= hi.imag)


def _solved_support(selfmap):
    """Corners (lo, hi) of the rectangle S of the self-map's chart nodes that
    holds its nonzero samples on L, grown by SUPPORT_GROWTH nodes, and of
    the bounding box of its image, grown by two spacings; None when the
    samples vanish there.

    The self-map is a homeomorphism, so it carries S into the box that
    bounds its image of S's edges, read at the nodes along them.
    """
    grid = selfmap.grid
    lower = selfmap.mu_samples[:, :grid.n // 2 - selfmap.support[1].start]
    if not lower.any():
        return None
    g = SUPPORT_GROWTH
    x, y = (axis[max(0, s.start - g):s.stop + g] for axis, s in
            zip(grid.axes(), _support_box(lower, selfmap.support)))
    edges = np.concatenate([x + 1j * y[0], x + 1j * y[-1],
                            x[0] + 1j * y, x[-1] + 1j * y])
    image = selfmap(edges)
    pad = 2.0 * grid.spacing * (1 + 1j)
    return ((complex(x[0], y[0]), complex(x[-1], y[-1])),
            (complex(image.real.min(), image.imag.min()) - pad,
             complex(image.real.max(), image.imag.max()) + pad))


def _inverse_coefficient(selfmap, sup_norm):
    """g's coefficient nu on L: the dilatation of the reflected inverse
    self-map, by the chain rule at the self-map's own dilatation.

    nu is read by Newton inversion through the self-map, and only on the
    image of the solved support: nu(zeta) is the finite-difference
    dilatation of the self-map's grid spline at v = f^mu^-1(zeta) where v
    lies in the rectangle S of its nonzero samples on L (grown by
    SUPPORT_GROWTH nodes), and 0 elsewhere, where the exact dilatation is
    0.  Only the zeta inside the bounding box of f^mu(S) are inverted, and
    that box sets nu's support radius; mu = 0 gives nu = 0 with no
    inversion.
    nu is evaluated once: g's solve samples it on one node square
    (sample_coefficient; nu declares no jump circle, so no cell is
    supersampled).  That evaluation takes the self-map and its inverse out
    of the one slot that holds them, so the self-map is freed once nu is
    sampled, before g's Neumann iteration starts; a later evaluation raises
    SolverError.  (With mu = 0 on L nu's support radius is 0, so it is never
    evaluated and holds the self-map until it is dropped.)
    """
    rect, image = _solved_support(selfmap) or (None, None)
    held = [(selfmap, invert(selfmap))]

    def mu_bar_inv(zeta):
        if not held:
            raise SolverError(
                "g's coefficient is evaluated once, on the node square its "
                "solve samples, and has dropped the self-map since")
        qc, inv_self = held.pop()
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        out = np.zeros(zeta.shape, dtype=complex)
        inside = _in_rect(zeta, *image) if image else False
        if not np.any(inside):
            return out
        v = inv_self(zeta[inside])
        in_s = _in_rect(v, *rect)
        nu = np.zeros(v.shape, dtype=complex)
        if in_s.any():
            dz, dbar = qc.partials_at(v[in_s])
            dz = np.where(np.abs(dz) < 1e-14, 1.0, dz)
            nu_c = dbar / dz
            nu[in_s] = -nu_c * (dz / np.conj(dz))
        out[inside] = nu
        return out

    # support: the disk about 0 through the image box's farthest corner
    reach = max(abs(complex(a.real, b.imag)) for a in image for b in image) \
        if image else 0.0
    return BeltramiCoefficient(
        DomainTag.LOWER_HALF_PLANE, mu_bar_inv, reach, sup_norm)


def welding(mu: BeltramiCoefficient, grid_n=512) -> WeldingResult:
    """Conformal welding h = g^-1 o f_mu on R of a half-plane coefficient.

    f_mu is conformal on L with dilatation mu on U; g is conformal on U with
    the dilatation nu of the reflected inverse self-map on L
    (_inverse_coefficient); h is compared against the boundary trace of the
    self-map f^mu, read on R through its spline (consistency_sup).  The
    result carries f_mu and g, which the welding identity check
    differentiates along R.
    mu must have bounded support on U (a disk coefficient that reaches the
    unit circle does not).  When its declared support radius on U is
    infinite, as that of a disk grid spanning the disk is, f_mu's margin
    check is run on its samples before any solve, and a coefficient that
    reaches the margin raises SolverError there.
    The maps are solved in the order self-map, g, f_mu.  The self-map's
    boundary trace is read first (it holds the self-map's far field, not
    the map), then nu, which holds the self-map until g's solve samples it:
    the self-map is freed there, so g's Neumann iteration and P run with no
    other solved map alive, and f_mu's solve with g alone.  No solve
    computes a residual, and the welding reads none.
    On [-T_BOUNDARY, T_BOUNDARY] h is sampled by Newton inversion through g.
    Beyond it h is analytic, h(z) = z + c0 + c1/z + ..., and is evaluated
    from a Laurent series fitted once on |z| = T_BOUNDARY (FAR_FIELD_FIT);
    SolverError when its held-out residual, the miss against g^-1 o f_mu
    on the midpoints between the fit points, exceeds NEWTON_TOL.
    Nothing is kept once the result is returned: a repeat solves again.
    """
    mu_u = _to_halfplane(mu)
    if not math.isfinite(mu_u.support_radius):
        # the self-map truncates unbounded support and f_mu, solved last,
        # does not: run f_mu's margin check on its samples first
        try:
            margin_checked_samples(mu_u, grid_n)
        except SolverError as err:
            raise SolverError(
                "welding needs a coefficient with bounded support on U, and "
                f"this one's is not: {err} (a disk coefficient's support is "
                "unbounded on U when it reaches the unit circle)") from None
    selfmap = solve_halfplane(mu_u, grid_n=grid_n)
    trace = boundary_trace(selfmap, n_samples=1025)
    nu = _inverse_coefficient(selfmap, mu_u.sup_norm)
    del selfmap  # nu holds it until g's solve samples nu
    g = solve_plane(nu, grid_n=grid_n)
    del nu
    f_mu = solve_plane(mu_u, grid_n=grid_n)

    # h = g^-1 (f_mu) on R, resolved by Newton through g
    x = _welding_param_grid(N_BOUNDARY, T_BOUNDARY)
    fx = f_mu(x.astype(complex))
    g_inverse = invert(g)
    hx = g_inverse(fx)
    imag_defect = float(np.max(np.abs(hx.imag)))
    hx = hx.real.copy()
    if np.any(np.diff(hx) <= 0):
        raise SolverError("welding produced a non-monotone boundary map")

    consistency = float(np.max(np.abs(hx - trace.eval(x))))

    far = HolomorphicFunction.from_callable_on_circle(
        lambda z: g_inverse(f_mu(z)), T_BOUNDARY, **FAR_FIELD_FIT)
    if not far.heldout_residual <= NEWTON_TOL:
        raise SolverError(
            f"far-field Laurent fit misses on held-out points of "
            f"|z| = {T_BOUNDARY:g} (residual {far.heldout_residual:.2e} "
            f"> {NEWTON_TOL:.0e})")
    x.flags.writeable = hx.flags.writeable = False
    far.orders.flags.writeable = far.coeffs.flags.writeable = False

    def h_far(t):
        return far.eval(t).real

    h = BoundaryHomeomorphism(x, hx, extension=h_far, fix_tol=1e-4)
    return WeldingResult(h=h, consistency_sup=consistency,
                         imag_defect=imag_defect, f_map=f_mu, g_map=g)


def _welding_param_grid(n, T):
    # uniform core with geometrically stretched tails, denser near 0
    n_core = int(0.8 * n) | 1
    core = np.linspace(-T / 4, T / 4, n_core)
    n_tail = (n - n_core) // 2
    tail = np.geomspace(T / 4, T, n_tail + 1)[1:]
    return np.unique(np.concatenate([-tail[::-1], core, tail]))


# ---------------------------------------------------------------------------
# Logarithmic derivative and the welding identity


def log_derivative(h: BoundaryHomeomorphism) -> BoundaryFunction:
    """log of symmetric difference quotients at parameter midpoints.

    Beyond the midpoints it is the log of one centred difference quotient
    of h.eval, with step 1e-4 max(1, |t|), so it reads h's own extension.
    Raises on non-positive quotients.
    """
    t = h.params
    quot = np.diff(h.values) / np.diff(t)
    if np.any(quot <= 0):
        raise ValueError("non-positive difference quotient; "
                         "monotonicity fails at sample scale")

    def beyond(s):
        step = 1e-4 * np.maximum(1.0, np.abs(s))
        q = (h.eval(s + step) - h.eval(s - step)) / (2 * step)
        if np.any(q <= 0):
            raise ValueError("non-positive difference quotient of h's "
                             "extension")
        return np.log(q)

    return BoundaryFunction(0.5 * (t[1:] + t[:-1]), np.log(quot),
                            extension=beyond)


def welding_identity_check(weld: WeldingResult):
    """Check log(g|_R)' o h + log h' = log(f_mu|_R)' on 801 points of
    [-8, 8].

    f_mu and g are read from the maps the welding solved (weld.f_map and
    weld.g_map), h from its samples; all three logarithmic derivatives are
    formed from difference quotients along R, at the midpoints.  log g' is
    read on 801 points about h([-8, 8]) and interpolated linearly at h.
    """
    x = np.linspace(-8.0, 8.0, 801)
    hx = weld.h.eval(x)
    log_fp = _log_quotients(x, weld.f_map(x.astype(complex)))
    y = np.linspace(min(hx[0], -8.0) - 0.5, max(hx[-1], 8.0) + 0.5, 801)
    log_gp_y = _log_quotients(y, weld.g_map(y.astype(complex)))
    ym = 0.5 * (y[1:] + y[:-1])
    hxm = weld.h.eval(0.5 * (x[1:] + x[:-1]))
    log_gp_at_h = np.interp(hxm, ym, log_gp_y.real) + \
        1j * np.interp(hxm, ym, log_gp_y.imag)

    resid = np.abs(log_gp_at_h + _log_quotients(x, hx) - log_fp)
    return {"sup_discrepancy": float(resid.max())}


def _log_quotients(x, v):
    """log of the difference quotients of the values v at x, with unwrapped
    phase; real v increasing in x gives phase 0."""
    q = np.diff(v) / np.diff(x)
    return np.log(np.abs(q)) + 1j * np.unwrap(np.angle(q))


# ---------------------------------------------------------------------------
# Heat-kernel extension (the map Lambda)


_GAUSS_NODES = 96
_GAUSS_CUTOFF = 7.0
# points per block of the extension's dilatation: each block holds a few
# (block x (nodes + 1)) arrays, so memory stays bounded on any ladder level.
# At 2^14 points one block's arrays reached 41 MB above live memory and set
# the peak RSS of a characterization; at 2^10 a block holds about 2.5 MB.
_EXTEND_BLOCK = 2 ** 10
# |mu| of the extension at which its dilatation raises
_EXTEND_SUP_GUARD = 0.995


def ba_extend(h: BoundaryHomeomorphism) -> BeltramiCoefficient:
    """Quasiconformal extension of h to U with on-demand dilatation.

    F(x + it) = (phi_t * h)(x) + i t (phi_t * h')(x) with phi_t the
    unit-mass Gaussian of width t.  Affine h gives F affine, hence mu = 0
    exactly.

    F = sum_j c_j h(x + t v_j) is a sum over uniform nodes v_j, the
    midpoints of the cells [e_j, e_j+1], so F_z and F_zbar are the sums of
    c_j (1 -+ i v_j) h'(x + t v_j) / 2.
    The returned coefficient takes h' at node j as its exact average over
    the node's cell, a difference of h at the two cell edges: one read of
    h per edge, and no feature of h falls between nodes.  For increasing
    h the kernel keeps |mu| <= 1, up to its second moment's truncation
    defect (7e-11): |sum w (1 + iv)^2 s| <= sum w (1 + v^2) s for cell
    slopes s >= 0.
    Norm ladders can probe arbitrarily small heights; |mu| reaching
    _EXTEND_SUP_GUARD raises (not quasiconformal at this resolution).
    Points are evaluated in blocks of _EXTEND_BLOCK, which bounds memory
    without changing any value.  Kernel edges beyond h's sampled window
    read h's extension; for a welding map that is its certified far-field
    Laurent series, so large heights and |x| cost no Newton inversion.
    Circle data raise DomainError before any evaluation.
    """
    if h.domain != "line":
        raise DomainError(f"ba_extend extends line data, not {h.domain} data")
    dv = 2 * _GAUSS_CUTOFF / (_GAUSS_NODES - 1)
    edges = np.linspace(-_GAUSS_CUTOFF - dv / 2, _GAUSS_CUTOFF + dv / 2,
                        _GAUSS_NODES + 1)
    v = 0.5 * (edges[1:] + edges[:-1])
    w = np.exp(-0.5 * v * v)
    w /= w.sum()
    # t (phi_t * h')(x) = sum v w h(x + t v) / sum v^2 w by parts; the
    # second moment normalizes it so affine maps are reproduced exactly
    c = w + 1j * v * w / (v * v * w).sum()
    zbar_w, z_w = c * (1 + 1j * v), c * (1 - 1j * v)
    weights = np.stack([zbar_w.real, zbar_w.imag, z_w.real, z_w.imag], axis=1)

    def mu_block(z):
        x, t = z.real, z.imag
        # one row of edges per point: each row increases, so np.interp
        # mostly finds its cell where the row's last read left it; the reads
        # go back to (edges, points) for the einsum
        args = x[:, None] + t[:, None] * edges
        hv = np.ascontiguousarray(h.eval(args.ravel()).reshape(args.shape).T)
        # einsum reduces each point on its own, so the block size changes no
        # value (a BLAS product may not)
        s = np.einsum("kp,kj->jp", hv[1:] - hv[:-1], weights)
        fzb = s[0] + 1j * s[1]
        fz = s[2] + 1j * s[3]
        fz = np.where(np.abs(fz) < 1e-300, 1e-300, fz)
        return fzb / fz

    def mu_func(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        flat = z.ravel()
        out = np.empty_like(flat)
        for start in range(0, flat.size, _EXTEND_BLOCK):
            sl = slice(start, start + _EXTEND_BLOCK)
            out[sl] = mu_block(flat[sl])
        out = out.reshape(z.shape)
        if np.any(np.abs(out) >= _EXTEND_SUP_GUARD):
            raise SolverError(
                "extension not quasiconformal at this resolution "
                f"(|mu| reaches {np.abs(out).max():.3f})")
        return out

    # probe the sampled window for the sup-norm estimate; each column is
    # probed again half a cell over, since a jump-like feature of h on a
    # cell edge splits between two cells and under-reads |mu|
    xs = np.linspace(h.params[0] * 0.9, h.params[-1] * 0.9, 41)
    ts = np.geomspace(1e-3, 0.25 * (h.params[-1] - h.params[0]), 25)
    half_cell = 0.5 * (edges[1] - edges[0]) * ts
    probe = np.concatenate([xs[:, None] + 1j * ts,
                            xs[:, None] + half_cell + 1j * ts]).ravel()
    sup = float(np.abs(mu_func(probe)).max())
    return BeltramiCoefficient(
        DomainTag.UPPER_HALF_PLANE, mu_func, math.inf,
        min(sup + 1e-6, 0.9995),
        meta={"kind": "ba_extend/gaussian"})


# ---------------------------------------------------------------------------
# Characterization pipeline


def _stage_failure(exc):
    """Report entry of a failed stage: its message, exception type and, for
    a SolverError, the iteration trace."""
    out = {"error": str(exc), "type": type(exc).__name__}
    if isinstance(exc, SolverError):
        out["trace"] = exc.trace
    return out


def besov_characterization_check(mu: BeltramiCoefficient, p,
                                 boundary_map: BoundaryHomeomorphism = None,
                                 grid_n=512, extension_norm=True):
    """End-to-end coherence report for the Besov boundary characterization.

    Stages: M_p norm of mu; welding (or the supplied boundary map when mu
    is not compactly supported, e.g. the constant-modulus power class);
    Besov seminorm of log h' on h as sampled; heat-kernel extension and its
    M_p norm; Bers roundtrip distance between mu and the extension.
    Verdicts must agree: all finite or all divergent.  The roundtrip runs
    only when every verdict reads finite and the extension was built.
    With extension_norm False the extension is still built for the
    roundtrip, but its M_p ladder is skipped: there is no extension_finite
    verdict, and mp_norm_extension is written only if the extension fails.
    """
    report = {"p": float(p), "stages": {}, "verdicts": {}}
    stages = report["stages"]

    try:
        mu_u = _to_halfplane(mu)
        rep = mp_norm(mu_u, p, levels=3)
        stages["mp_norm_mu"] = rep.to_json_dict()
        report["verdicts"]["mu_finite"] = not rep.divergent
    except Exception as exc:  # noqa: BLE001 - reported per stage
        stages["mp_norm_mu"] = _stage_failure(exc)

    h = boundary_map
    if h is None:
        try:
            weld = welding(mu, grid_n=grid_n)
            h = weld.h
            stages["welding"] = {"consistency_sup": weld.consistency_sup,
                                 "imag_defect": weld.imag_defect}
            del weld  # later stages read h alone: free f_mu and g
        except Exception as exc:  # noqa: BLE001
            stages["welding"] = _stage_failure(exc)
            report["verdicts"]["coherent"] = False
            return report
    else:
        stages["welding"] = {"skipped": "boundary map supplied directly"}

    try:
        rep = besov_seminorm(log_derivative(h), p)
        stages["besov_log_derivative"] = rep.to_json_dict()
        report["verdicts"]["besov_finite"] = not rep.divergent
    except Exception as exc:  # noqa: BLE001
        stages["besov_log_derivative"] = _stage_failure(exc)

    try:
        ext = ba_extend(h)
        if extension_norm:
            rep = mp_norm(ext, p, levels=3)
            stages["mp_norm_extension"] = rep.to_json_dict()
            report["verdicts"]["extension_finite"] = not rep.divergent
    except Exception as exc:  # noqa: BLE001
        ext = None
        stages["mp_norm_extension"] = _stage_failure(exc)

    flags = [v for k, v in report["verdicts"].items()]
    report["verdicts"]["coherent"] = len(set(flags)) <= 1

    if ext is not None and all(flags):
        try:
            dist = roundtrip_phi_distance(mu, ext, grid_n=grid_n)
            stages["roundtrip"] = {"phi_distance": dist}
        except Exception as exc:  # noqa: BLE001
            stages["roundtrip"] = _stage_failure(exc)
    else:
        stages["roundtrip"] = {"skipped": "divergent or failed stage upstream"}
    return report


# ---------------------------------------------------------------------------
# The roundtrip distance


def roundtrip_phi_distance(mu: BeltramiCoefficient, extension_mu,
                           grid_n=512):
    """Bers-image distance between mu and its heat-kernel re-extension.

    Both coefficients are transported to the disk and compared through the
    Bers map on |z| = 2 (sup over 32 points, TeichmullerPoint.distance_to);
    in exact arithmetic the two Teichmueller classes coincide.
    """
    from .bers import bers_map

    mu_d = mu if mu.domain is DomainTag.UNIT_DISK else cayley(mu)
    ext_d = cayley(extension_mu)
    t1 = bers_map(mu_d, grid_n=grid_n)
    t2 = bers_map(ext_d, grid_n=grid_n)
    return t1.distance_to(t2, circles=(2.0,), n=32)
