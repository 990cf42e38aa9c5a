"""Boundary traces, conformal welding, Besov seminorms, and extensions.

A coefficient mu on the upper half-plane determines three maps: the plane
solution f_mu (conformal on the lower half-plane), the self-map f^mu of U,
and the welding factor g conformal on U whose coefficient on L is the
dilatation of the reflected inverse self-map.  On the real line they tie
together as

    f^mu|_R = g^-1 o f_mu|_R,
    log (g|_R)' o f^mu|_R + log (f^mu|_R)' = log (f_mu|_R)'.

The p-Besov seminorm on the circle or line is the double integral of
|u(x1) - u(x2)|^p / |x1 - x2|^2 with a shrinking excluded diagonal band
(Richardson-extrapolated in the band width, exponent p - 1) and, on the
line, truncation to [-T, T] with T on the refinement ladder {8, 16, 32}.

The heat-kernel extension F = phi_t * h + i t (phi_t * h') evaluates its
convolutions on demand, so norm ladders can probe t -> 0 and |x| -> inf
honestly; affine h yields mu = 0 identically.  The classical one-sided
Beurling-Ahlfors average ("box") is kept as a comparison kernel only: it
sends the identity to a shear with mu = 1/3.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (
    BeltramiCoefficient,
    DomainTag,
    HolomorphicFunction,
    NormReport,
    cayley,
    CayleyDirection,
    mp_norm,
)
from .solver import (
    FAR_FIELD_SAMPLES,
    NEWTON_TOL,
    Normalization,
    QuasiconformalMap,
    SolverError,
    _far_field_series,
    invert,
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

    Circle parameters are angles covering [0, 2pi); line parameters are
    strictly increasing reals.  Evaluation is piecewise linear; an optional
    exact callable extends evaluation beyond the sampled range.
    """

    def __init__(self, params, values, domain="line", truncation=None,
                 extension=None, meta=None):
        self.params = np.asarray(params, dtype=float)
        self.values = np.asarray(values)
        if self.params.ndim != 1 or self.params.shape != self.values.shape:
            raise ValueError("params and values must be aligned 1-d arrays")
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("parameters must be strictly increasing")
        self.domain = domain
        if domain == "circle":
            if self.params[0] < 0 or self.params[-1] >= 2 * np.pi:
                raise ValueError("circle parameters must cover [0, 2pi)")
            self.truncation = None
        else:
            self.truncation = float(truncation) if truncation is not None \
                else float(self.params[-1])
        self.extension = extension
        self.meta = dict(meta or {})

    @property
    def is_complex(self):
        return np.iscomplexobj(self.values)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.domain == "circle":
            t = np.mod(t, 2 * np.pi)
            xp = np.concatenate([self.params, [self.params[0] + 2 * np.pi]])
            fp = np.concatenate([self.values, [self.values[0]]])
            if self.is_complex:
                return np.interp(t, xp, fp.real) + 1j * np.interp(t, xp, fp.imag)
            return np.interp(t, xp, fp)
        inside = (t >= self.params[0]) & (t <= self.params[-1])
        if self.is_complex:
            out = (np.interp(t, self.params, self.values.real)
                   + 1j * np.interp(t, self.params, self.values.imag)).astype(complex)
        else:
            out = np.interp(t, self.params, self.values).astype(float)
        if not np.all(inside):
            if self.extension is None:
                # linear continuation with the edge slopes
                lo_s = (self.values[1] - self.values[0]) / \
                    (self.params[1] - self.params[0])
                hi_s = (self.values[-1] - self.values[-2]) / \
                    (self.params[-1] - self.params[-2])
                low = t < self.params[0]
                high = t > self.params[-1]
                out[low] = self.values[0] + lo_s * (t[low] - self.params[0])
                out[high] = self.values[-1] + hi_s * (t[high] - self.params[-1])
            else:
                out[~inside] = self.extension(t[~inside])
        return out

    __call__ = eval

    def resample(self, n):
        if self.domain == "circle":
            t = 2 * np.pi * np.arange(n) / n
        else:
            t = np.linspace(self.params[0], self.params[-1], n)
        return type(self)(t, self.eval(t), self.domain, self.truncation,
                          self.extension, self.meta)

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
            "normalization": self.meta.get("normalization"),
        }
        with open(str(path) + ".json", "w") as fh:
            json.dump(side, fh, indent=1, sort_keys=True)

    @classmethod
    def from_csv(cls, path):
        with open(str(path) + ".json") as fh:
            side = json.load(fh)
        params, values = [], []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            next(rd)
            for row in rd:
                params.append(float(row[0]))
                values.append(complex(row[1]))
        values = np.asarray(values)
        if np.all(values.imag == 0):
            values = values.real
        return cls(params, values, side["domain"], side.get("truncation"))


class BoundaryHomeomorphism(BoundaryFunction):
    """Boundary function with real, strictly increasing values.

    Circle homeomorphisms are carried as the lifted angle map (values
    increase by 2pi over one turn, with normalization points 0, pi, 3pi/2);
    line ones fix 0 and 1, with infinity through the truncation.  The
    displacement of the normalization points is recorded; passing fix_tol
    makes it a hard contract (welding and trace outputs do).
    """

    def __init__(self, params, values, domain="line", truncation=None,
                 extension=None, meta=None, fix_tol=None):
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(values) <= 0):
            raise ValueError("homeomorphism values must be strictly increasing")
        super().__init__(params, values, domain, truncation, extension, meta)
        self.fixes = (0.0, math.pi, 1.5 * math.pi) if domain == "circle" \
            else (0.0, 1.0)
        defect = max(abs(float(self.eval(q)) - q) for q in self.fixes)
        self.normalization_defect = defect
        if fix_tol is not None and defect > fix_tol:
            raise ValueError(
                f"normalization points move by {defect:.2e} (> {fix_tol:.0e})")


# ---------------------------------------------------------------------------
# Boundary traces


def boundary_trace(f, n_samples=1024):
    """Boundary values by radial (disk) or vertical (half-plane) extrapolation.

    Samples f at distances 2^-m from the boundary, m = 3..8, extrapolates
    linearly in the distance, and flags parameters whose level sequence is
    not Cauchy; more than 1% of them flagged is an error.
    """
    ms = range(3, 9)
    if isinstance(f, HolomorphicFunction):
        th = 2 * np.pi * np.arange(n_samples) / n_samples
        seq = [f.eval((1 - 2.0 ** -m) * np.exp(1j * th)) for m in ms]
        vals, flags = _extrapolate_levels(seq)
        if flags.mean() > 0.01:
            raise ValueError("radial limits unreliable for the given function")
        return BoundaryFunction(th, vals, "circle")
    if not isinstance(f, QuasiconformalMap):
        raise TypeError("boundary_trace expects a map or holomorphic function")
    if f.normalization is Normalization.FIX_THREE_BOUNDARY_POINTS:
        th = 2 * np.pi * np.arange(n_samples) / n_samples
        seq = [f((1 - 2.0 ** -m) * np.exp(1j * th)) for m in ms]
        vals, flags = _extrapolate_levels(seq)
        if flags.mean() > 0.01:
            raise ValueError("boundary trace unreliable (radial limits not Cauchy)")
        ang = np.unwrap(np.angle(vals))
        ang -= 2 * np.pi * np.round(ang[0] / (2 * np.pi))
        return BoundaryHomeomorphism(th, ang, "circle", fix_tol=None)
    # half-plane self-map: trace along heights above R
    T = 0.85 * f.grid.half_width
    x = np.linspace(-T, T, n_samples)
    seq = [f(x + 1j * 2.0 ** -m) for m in ms]
    vals, flags = _extrapolate_levels(seq)
    if flags.mean() > 0.01:
        raise ValueError("boundary trace unreliable (vertical limits not Cauchy)")

    def far(t):
        return f.far_field.eval(t.astype(complex)).real

    return BoundaryHomeomorphism(x, vals.real, "line", truncation=T,
                                 extension=far, fix_tol=1e-4)


def _extrapolate_levels(seq):
    gaps = [np.abs(b - a) for a, b in zip(seq, seq[1:])]
    flags = gaps[-1] > 1.05 * gaps[-2] + 1e-12
    vals = 2 * seq[-1] - seq[-2]
    return vals, flags


# ---------------------------------------------------------------------------
# Besov seminorm on S and R


def _band_extrapolate(ints, bands, p):
    """Richardson in the band width with exponent p-1 (Lipschitz model)."""
    q = p - 1.0
    (d1, i1), (d2, i2) = (bands[-2], ints[-2]), (bands[-1], ints[-1])
    return (i2 * d1 ** q - i1 * d2 ** q) / (d1 ** q - d2 ** q)


def _banded_pair_sums(params, vals, p, kernel_den, bands):
    """Sum of |v_i - v_j|^p / den_ij over ordered pairs i != j outside each
    band.

    Each term is symmetric in i and j, so the pairs are visited once per
    index offset d = j - i >= 1 and the sum is doubled.
    """
    totals = np.zeros(len(bands))
    for d in range(1, params.size):
        dist, den = kernel_den(params[d:], params[:-d])
        ratio = np.abs(vals[d:] - vals[:-d]) ** p / den
        for b, width in enumerate(bands):
            totals[b] += ratio[dist > width].sum()
    return 2.0 * totals


# elementwise pair distances (compared with the band widths) and
# |x1 - x2|^2, the squared chord on the circle; parameters are strictly
# increasing, so distinct pairs have nonzero distance
def _circle_kernel(t1, t2):
    ang = np.abs(t1 - t2)
    ang = np.minimum(ang, 2 * np.pi - ang)
    return ang, (2 * np.sin(ang / 2)) ** 2


def _line_kernel(t1, t2):
    dist = np.abs(t1 - t2)
    return dist, dist ** 2


def besov_seminorm(u: BoundaryFunction, p, levels=3, base_n=512) -> NormReport:
    """p-Besov seminorm (iint |u(x1)-u(x2)|^p / |x1-x2|^2)^{1/p}.

    Circle: refinement doubles the sample count.  Line: each level grows
    the truncation T (8, 16, then 32 from the third level on) and
    quadruples the sample count, so the spacing (and
    with it the excluded diagonal band) shrinks while the tail extends;
    divergences at the diagonal and at infinity both register as ladder
    growth.
    """
    p = float(p)
    if p <= 1.0:
        raise ValueError("boundary Besov seminorms require p > 1")
    circle = u.domain == "circle"
    kernel = _circle_kernel if circle else _line_kernel
    resolutions, values = [], []
    for lev in range(levels):
        if circle:
            n = base_n * 2 ** lev
            x = 2 * np.pi * np.arange(n) / n
        else:
            T = (8.0, 16.0, 32.0)[min(lev, 2)]
            n = base_n * 4 ** lev + 1
            x = np.linspace(-T, T, n)
        dx = x[1] - x[0]
        bands = [k * dx for k in (4, 2, 1)]
        ints = _banded_pair_sums(x, u.eval(x), p, kernel, bands) * dx * dx
        I = _band_extrapolate(list(ints), bands, p)
        resolutions.append(n)
        values.append(max(I, 0.0) ** (1 / p))
    return NormReport.from_ladder(resolutions, values, power=p)


# ---------------------------------------------------------------------------
# Conformal welding


@dataclass
class WeldingResult:
    h: BoundaryHomeomorphism
    f_trace: BoundaryFunction
    g_trace: BoundaryFunction
    consistency_sup: float
    imag_defect: float
    f_map: QuasiconformalMap = field(repr=False, default=None)
    g_map: QuasiconformalMap = field(repr=False, default=None)


def _to_halfplane(mu: BeltramiCoefficient) -> BeltramiCoefficient:
    if mu.domain is DomainTag.UPPER_HALF_PLANE:
        return mu
    if mu.domain is DomainTag.UNIT_DISK:
        return cayley(mu, CayleyDirection.DISK_TO_HALF_PLANE)
    raise ValueError("welding expects a coefficient on D or U")


# h is sampled at N_BOUNDARY parameters of [-T_BOUNDARY, T_BOUNDARY]; its
# far-field series is fitted on |z| = T_BOUNDARY, and the g trace covers
# 1.5 T_BOUNDARY
N_BOUNDARY = 2049
T_BOUNDARY = 40.0


def welding(mu: BeltramiCoefficient, grid_n=512) -> WeldingResult:
    """Conformal welding h = g^-1 o f_mu on R of a half-plane coefficient.

    f_mu is conformal on L with dilatation mu on U; g is conformal on U with
    the dilatation of the reflected inverse self-map on L; h is compared
    against the direct boundary trace of the self-map f^mu (consistency_sup).
    On [-T_BOUNDARY, T_BOUNDARY] h is sampled by Newton inversion through g.
    Beyond it h is analytic, h(z) = z + c0 + c1/z + ..., and is evaluated
    from a Laurent series fitted once on |z| = T_BOUNDARY and certified on
    held-out points of that circle (SolverError when the fit misses
    g^-1 o f_mu there by more than the Newton tolerance).
    """
    mu_u = _to_halfplane(mu)
    f_mu = solve_plane(mu_u, grid_n=grid_n)
    selfmap = solve_halfplane(mu_u, grid_n=grid_n)

    # reflected-inverse coefficient on L via the chain rule at nu = dil(selfmap)
    inv_self = invert(selfmap)

    def mu_bar_inv(zeta):
        zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
        v = inv_self(zeta)
        dz, dbar = selfmap.partials_at(v)
        dz = np.where(np.abs(dz) < 1e-14, 1.0, dz)
        nu_c = dbar / dz
        return -nu_c * (dz / np.conj(dz))

    # support: image of the reflected support disk
    rad = mu_u.support_radius
    th = np.linspace(0, 2 * np.pi, 65)[:-1]
    probe = rad * np.exp(1j * th)
    probe = probe[probe.imag < -1e-3]
    reach = float(np.max(np.abs(selfmap(probe)))) * 1.15 if probe.size else rad
    nu_inv = BeltramiCoefficient(
        DomainTag.LOWER_HALF_PLANE, mu_bar_inv, reach, mu_u.sup_norm)
    g = solve_plane(nu_inv, grid_n=grid_n)

    # h = g^-1 (f_mu) on R, resolved by Newton through g
    x = _welding_param_grid(N_BOUNDARY, T_BOUNDARY)
    fx = f_mu(x.astype(complex))
    g_inverse = invert(g)
    hx = g_inverse(fx)
    imag_defect = float(np.max(np.abs(hx.imag)))
    hx = hx.real
    if np.any(np.diff(hx) <= 0):
        raise SolverError("welding produced a non-monotone boundary map")

    trace = boundary_trace(selfmap, n_samples=1025)
    consistency = float(np.max(np.abs(hx - trace.eval(x))))

    far = _certified_far_field(lambda z: g_inverse(f_mu(z)), T_BOUNDARY)

    def h_far(t):
        return far.eval(t).real

    h = BoundaryHomeomorphism(x, hx, "line", truncation=T_BOUNDARY,
                              extension=h_far, fix_tol=1e-4,
                              meta={"normalization": "fix 0, 1, infinity"})
    f_trace = BoundaryFunction(x, fx, "line", T_BOUNDARY,
                               extension=lambda t: f_mu(t.astype(complex)))
    xg = _welding_param_grid(N_BOUNDARY, T_BOUNDARY * 1.5)
    g_trace = BoundaryFunction(xg, g(xg.astype(complex)), "line",
                               T_BOUNDARY * 1.5,
                               extension=lambda t: g(t.astype(complex)))
    return WeldingResult(h=h, f_trace=f_trace, g_trace=g_trace,
                         consistency_sup=consistency,
                         imag_defect=imag_defect, f_map=f_mu, g_map=g)


def _certified_far_field(fn, radius):
    """Laurent series of fn on |z| >= radius, checked off its fit samples.

    The series is fitted on FAR_FIELD_SAMPLES points of |z| = radius and
    compared with fn on the FAR_FIELD_SAMPLES points halfway between them;
    a held-out residual above NEWTON_TOL raises SolverError.
    """
    series = _far_field_series(fn, radius)
    n = FAR_FIELD_SAMPLES
    z = radius * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    resid = float(np.max(np.abs(series.eval(z) - fn(z))))
    if not resid <= NEWTON_TOL:
        raise SolverError(
            f"far-field Laurent fit misses on held-out points of "
            f"|z| = {radius:g} (residual {resid:.2e} > {NEWTON_TOL:.0e})")
    return series


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

    Raises on non-positive quotients.
    """
    t = h.params
    quot = np.diff(h.values) / np.diff(t)
    if np.any(quot <= 0):
        raise ValueError("non-positive difference quotient; "
                         "monotonicity fails at sample scale")
    return BoundaryFunction(0.5 * (t[1:] + t[:-1]), np.log(quot), h.domain,
                            h.truncation)


def welding_identity_check(weld: WeldingResult):
    """Check log(g|_R)' o h + log h' = log(f_mu|_R)' on 801 points of
    [-8, 8].

    All three logarithmic derivatives are formed from difference quotients
    along R (complex for the conformal traces, with unwrapped phases).
    """
    x = np.linspace(-8.0, 8.0, 801)
    hx = weld.h.eval(x)
    dh = _midpoint_log_deriv_real(weld.h, x)

    xm = 0.5 * (x[1:] + x[:-1])
    log_fp = _log_deriv_complex(weld.f_trace, x)
    y = np.linspace(min(hx[0], -8.0) - 0.5, max(hx[-1], 8.0) + 0.5, 801)
    log_gp_y = _log_deriv_complex(weld.g_trace, y)
    ym = 0.5 * (y[1:] + y[:-1])
    hxm = weld.h.eval(xm)
    log_gp_at_h = np.interp(hxm, ym, log_gp_y.real) + \
        1j * np.interp(hxm, ym, log_gp_y.imag)

    resid = np.abs(log_gp_at_h + dh - log_fp)
    return {"sup_discrepancy": float(resid.max())}


def _midpoint_log_deriv_real(u, x):
    v = u.eval(x)
    return np.log(np.diff(v) / np.diff(x))


def _log_deriv_complex(u, x):
    v = u.eval(x)
    q = np.diff(v) / np.diff(x)
    return np.log(np.abs(q)) + 1j * np.unwrap(np.angle(q))


# ---------------------------------------------------------------------------
# Heat-kernel extension (the map Lambda)


_GAUSS_NODES = 96
_GAUSS_CUTOFF = 7.0
# points per block of the extension's dilatation: each block holds a few
# (block x (nodes + 1)) arrays, so memory stays bounded on any ladder level
_EXTEND_BLOCK = 2 ** 14


def _kernel_table(kernel):
    """Cell edges e and weights c of F(x + it) = sum_j c_j h(x + t v_j).

    The nodes v_j are the midpoints of the uniform cells [e_j, e_j+1].
    """
    if kernel == "gaussian":
        dv = 2 * _GAUSS_CUTOFF / (_GAUSS_NODES - 1)
        edges = np.linspace(-_GAUSS_CUTOFF - dv / 2, _GAUSS_CUTOFF + dv / 2,
                            _GAUSS_NODES + 1)
        v = 0.5 * (edges[1:] + edges[:-1])
        w = np.exp(-0.5 * v * v)
        w /= w.sum()
        # t (phi_t * h')(x) = sum v w h(x + t v) / sum v^2 w by parts; the
        # second moment normalizes it so affine maps are reproduced exactly
        c = w + 1j * v * w / (v * v * w).sum()
    else:
        # one-sided averages over (0, t) on either side of x
        edges = np.arange(-_GAUSS_NODES, _GAUSS_NODES + 1) / _GAUSS_NODES
        v = 0.5 * (edges[1:] + edges[:-1])
        c = np.where(v > 0, 1 + 1j, 1 - 1j) / (2 * _GAUSS_NODES)
    return edges, c


def ba_extend(h: BoundaryHomeomorphism, kernel="gaussian",
              sup_guard=0.995) -> BeltramiCoefficient:
    """Quasiconformal extension of h to U with on-demand dilatation.

    gaussian (default): F(x + it) = (phi_t * h)(x) + i t (phi_t * h')(x)
    with phi_t the unit-mass Gaussian of width t.  Affine h gives F affine,
    hence mu = 0 exactly.  box: the classical one-sided average variant,
    provided for comparison only (it shears the identity to mu = 1/3).

    Both kernels are a sum F = sum_j c_j h(x + t v_j) over uniform nodes,
    so F_z and F_zbar are the sums of c_j (1 -+ i v_j) h'(x + t v_j) / 2.
    The returned coefficient takes h' at node j as its exact average over
    the node's cell, a difference of h at the two cell edges: one read of
    h per edge, and no feature of h falls between nodes.  For increasing
    h the gaussian kernel keeps |mu| <= 1, up to its second moment's
    truncation defect (7e-11): |sum w (1 + iv)^2 s| <= sum w (1 + v^2) s
    for cell slopes s >= 0.
    Norm ladders can probe arbitrarily small heights; |mu| >= sup_guard
    anywhere raises (extension not quasiconformal at this resolution).
    Points are evaluated in blocks of _EXTEND_BLOCK, which bounds memory
    without changing any value.  Kernel edges beyond h's sampled window
    read h's extension; for a welding map that is its certified far-field
    Laurent series, so large heights and |x| cost no Newton inversion.
    """
    if h.domain != "line":
        raise ValueError("ba_extend expects a line homeomorphism")
    if kernel not in ("gaussian", "box"):
        raise ValueError(f"unknown kernel {kernel!r}")

    edges, c = _kernel_table(kernel)
    v = 0.5 * (edges[1:] + edges[:-1])
    zbar_w, z_w = c * (1 + 1j * v), c * (1 - 1j * v)
    weights = np.stack([zbar_w.real, zbar_w.imag, z_w.real, z_w.imag], axis=1)

    def mu_block(z):
        x, t = z.real, z.imag
        args = x[:, None] + t[:, None] * edges
        hv = h.eval(args.ravel()).reshape(args.shape)
        # einsum reduces each row on its own, so the block size changes no
        # value (a BLAS product may not)
        s = np.einsum("pk,kj->pj", np.diff(hv, axis=1), weights)
        fzb = s[:, 0] + 1j * s[:, 1]
        fz = s[:, 2] + 1j * s[:, 3]
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
        if np.any(np.abs(out) >= sup_guard):
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
        meta={"kind": f"ba_extend/{kernel}"})


# ---------------------------------------------------------------------------
# Characterization pipeline


def _log_derivative_besov(h: BoundaryHomeomorphism, p) -> NormReport:
    """Besov seminorm of log h', with h resampled to 4097 points when it is
    sampled more coarsely."""
    if h.params.size < 4097:
        h = h.resample(4097)
    return besov_seminorm(log_derivative(h), p)


def _extension_mp_norm(h: BoundaryHomeomorphism, p, kernel="gaussian"):
    """Heat-kernel extension of h and its 3-level M_p ladder report."""
    ext = ba_extend(h, kernel=kernel)
    return ext, mp_norm(ext, p, levels=3)


def _stage_failure(exc):
    """Report entry of a failed stage: its message, exception type and, for
    a SolverError, the iteration trace."""
    out = {"error": str(exc), "type": type(exc).__name__}
    if isinstance(exc, SolverError):
        out["trace"] = exc.trace
    return out


def besov_characterization_check(mu: BeltramiCoefficient, p,
                                 boundary_map: BoundaryHomeomorphism = None,
                                 grid_n=512):
    """End-to-end coherence report for the Besov boundary characterization.

    Stages: M_p norm of mu; welding (or the supplied boundary map when mu
    is not compactly supported, e.g. the constant-modulus power class);
    log-derivative Besov seminorm; heat-kernel extension and its M_p norm.
    Verdicts must agree: all finite or all divergent.
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
        except Exception as exc:  # noqa: BLE001
            stages["welding"] = _stage_failure(exc)
            report["verdicts"]["coherent"] = False
            return report
    else:
        stages["welding"] = {"skipped": "boundary map supplied directly"}

    try:
        rep = _log_derivative_besov(h, p)
        stages["besov_log_derivative"] = rep.to_json_dict()
        report["verdicts"]["besov_finite"] = not rep.divergent
    except Exception as exc:  # noqa: BLE001
        stages["besov_log_derivative"] = _stage_failure(exc)

    ext = None
    try:
        ext, rep = _extension_mp_norm(h, p)
        stages["mp_norm_extension"] = rep.to_json_dict()
        report["verdicts"]["extension_finite"] = not rep.divergent
    except Exception as exc:  # noqa: BLE001
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
# Cayley transport of boundary data and the roundtrip distance


@cayley.register(BoundaryFunction)
def _cayley_boundary(obj: BoundaryFunction, direction):
    """Reparameterize S <-> R via x = -cot(theta/2) (theta = 0 <-> infinity)."""
    direction = CayleyDirection(direction)
    if direction is CayleyDirection.DISK_TO_HALF_PLANE:
        if obj.domain != "circle":
            raise ValueError("expected circle data")
        th = obj.params
        keep = th > 1e-9
        x = -1.0 / np.tan(th[keep] / 2)
        order = np.argsort(x)
        vals = obj.values[keep][order]
        if isinstance(obj, BoundaryHomeomorphism):
            vals = -1.0 / np.tan(vals / 2)
        return type(obj)(x[order], vals, "line", float(np.abs(x).max()))
    if obj.domain != "line":
        raise ValueError("expected line data")
    th = 2.0 * np.arctan2(1.0, -obj.params)
    order = np.argsort(th)
    vals = obj.values[order]
    if isinstance(obj, BoundaryHomeomorphism):
        vals = 2.0 * np.arctan2(1.0, -vals)
    return type(obj)(th[order], vals, "circle")


def roundtrip_phi_distance(mu: BeltramiCoefficient, extension_mu,
                           grid_n=512):
    """Bers-image distance between mu and its heat-kernel re-extension.

    Both coefficients are transported to the disk and compared through the
    Bers map on |z| = 2 (sup over 32 points, TeichmullerPoint.distance_to);
    in exact arithmetic the two Teichmueller classes coincide.
    """
    from .bers import bers_map

    mu_d = mu if mu.domain is DomainTag.UNIT_DISK else \
        cayley(mu, CayleyDirection.HALF_PLANE_TO_DISK)
    ext_d = cayley(extension_mu, CayleyDirection.HALF_PLANE_TO_DISK)
    t1 = bers_map(mu_d, grid_n=grid_n)
    t2 = bers_map(ext_d, grid_n=grid_n)
    return t1.distance_to(t2, circles=(2.0,), n=32)
