"""Beltrami equation solvers on the plane, half-plane, and disk.

The normalized plane solution of dbar f = mu df for compactly supported mu
is built from the Neumann iteration

    h <- mu * (1 + T[h]),        f = z + P[h],

where T is the Beurling transform (Fourier multiplier conj(W)/W) and P the
solid Cauchy transform (multiplier -2i/W), both defined on a 2x zero-padded
torus.  h vanishes off the support of mu, so the iteration runs only on the
smallest square of nodes holding that support (nb nodes a side): the
kernel of T is cut to the offsets of a torus of about 2 nb nodes, which
applies the padded torus's T exactly there at two (2 nb)^2 FFTs per step.
P is applied once, on the full padded torus.  Relative to the free-plane
kernel 1/(pi u), the periodic P kernel carries a background term
-conj(u)/A and a cubic Weierstrass-series term (Eisenstein constant G4);
both are restored from moments of h, after which the closed-form test maps
are reproduced to a few 1e-4.

Disk self-maps f^mu are obtained by transporting the coefficient to the
upper half-plane, extending it by the reflection conj(mu(conj z)) across R
(which preserves compact support, unlike the disk reflection z -> 1/conj z),
solving on the plane, renormalizing by a real affine map fixing 0, 1, inf,
and conjugating back.  Symmetry forces |f| = 1 on the unit circle, and
fixing 0, 1, inf on R corresponds to fixing -1, -i, 1 on S.

solve_plane and solve_halfplane share one body, _solve: chart choice
(auto_half_width), the in-process memo keyed by _solve_key, and the plane
or half-plane normalization all live there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import RectBivariateSpline, RegularGridInterpolator

from .domains import (
    BeltramiCoefficient,
    ComplexGrid,
    DomainTag,
    HolomorphicFunction,
    cayley,
    cayley_inverse,
    cayley_map,
    CayleyDirection,
)

__all__ = [
    "SolverError",
    "QuasiconformalMap",
    "Normalization",
    "cauchy_transform",
    "beurling_transform",
    "solve_plane",
    "solve_halfplane",
    "solve_disk",
    "identity_map",
    "dilatation",
    "compose",
    "invert",
    "chain_rule",
    "auto_half_width",
]

# Eisenstein sum over nonzero Gaussian integers of w^-4 (unit square
# lattice); scales as G4 / a^4 for period a.
G4_SQUARE = 3.1512120021539

MARGIN_FRACTION = 0.9

# residual |f(f^-1(w)) - w| that invert converges to
NEWTON_TOL = 1e-9

# Neumann iteration: stop once the sup step falls below NEUMANN_TOL, fail
# after NEUMANN_MAX_ITER steps
NEUMANN_TOL = 1e-11
NEUMANN_MAX_ITER = 400


class SolverError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])


class Normalization(str, enum.Enum):
    FIX_ZERO_ONE_INFINITY = "FixZeroOneInfinity"
    FIX_THREE_BOUNDARY_POINTS = "FixThreeBoundaryPoints"


def _beurling_symbol(W):
    """The Beurling multiplier conj(W)/W, set to 0 at W = 0."""
    mult = np.conj(W)
    with np.errstate(divide="ignore", invalid="ignore"):
        mult /= W
    mult[W == 0] = 0.0
    return mult


class _SpectralKit:
    """Multipliers for one (n, half_width, pad) configuration, each built on
    first use: most kits serve only their nodes Z and the Cauchy transform."""

    def __init__(self, n, half_width, pad=2):
        self.n = n
        self.half_width = float(half_width)
        self.pad = pad
        self.spacing = 2.0 * self.half_width / n
        self.torus_area = (pad * n * self.spacing) ** 2
        off = -self.half_width + self.spacing * np.arange(n)
        self.Z = off[:, None] + 1j * off[None, :]

    def _wavenumbers(self, rows=slice(None)):
        """W = wx + i wy on the padded torus, for the given rows of wx."""
        w = 2.0 * np.pi * sfft.fftfreq(self.pad * self.n, d=self.spacing)
        return w[rows, None] + 1j * w[None, :]

    @cached_property
    def mult_T(self):
        return _beurling_symbol(self._wavenumbers())

    @cached_property
    def mult_P(self):
        W = self._wavenumbers()
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = np.divide(-2j, W, out=W)
        mult[0, 0] = 0.0
        return mult

    @staticmethod
    def apply(h, mult):
        """Multiplier mult on the torus of its shape, h zero-padded to it."""
        m, n = mult.shape[0], h.shape[0]
        return sfft.ifft2(mult * sfft.fft2(h, s=(m, m)),
                          overwrite_x=True)[:n, :n]

    def beurling(self, h):
        return self.apply(h, self.mult_T)

    def cauchy(self, h):
        """Padded-spectral P plus the lattice moment corrections."""
        out = self.apply(h, self.mult_P)
        if self.pad == 1:
            return out
        cell = self.spacing ** 2
        Z = self.Z
        m0 = h.sum() * cell
        m1 = (Z * h).sum() * cell
        m2 = (Z * Z * h).sum() * cell
        m3 = (Z * Z * Z * h).sum() * cell
        mc = (np.conj(Z) * h).sum() * cell
        out = out + (m0 * np.conj(Z) - mc) / self.torus_area
        c4 = G4_SQUARE / (np.pi * self.torus_area ** 2)
        out = out + c4 * (m0 * Z ** 3 - 3 * m1 * Z ** 2 + 3 * m2 * Z - m3)
        return out


@lru_cache(maxsize=8)
def _kit(n, half_width, pad=2):
    return _SpectralKit(n, half_width, pad)


# rows of the padded torus's Beurling multiplier transformed at once
_BOX_ROWS = 128


def _box_multiplier(kit, nb):
    """T of the kit's padded torus between the nodes of an nb x nb square, as
    a multiplier on the torus of next_fast_len(2 nb) nodes.

    The kernel of T is cut to the node offsets of that smaller torus, which
    holds every offset between two nodes of the square once, so for data on
    the square the small torus applies exactly the kit's T.  The kernel is
    transformed back from the multiplier _BOX_ROWS rows at a time and kept
    only at those offsets, so no (2N)^2 array is built.
    """
    m = sfft.next_fast_len(2 * nb)
    side = kit.pad * kit.n
    idx = np.arange(m)
    idx[nb:] += side - m  # offsets -(m - nb) .. -1
    cols = np.empty((side, m), dtype=complex)
    for r0 in range(0, side, _BOX_ROWS):
        rows = slice(r0, r0 + _BOX_ROWS)
        cols[rows] = sfft.ifft(_beurling_symbol(kit._wavenumbers(rows)),
                               axis=1, overwrite_x=True)[:, idx]
    kernel = sfft.ifft(cols, axis=0, overwrite_x=True)[idx]
    return sfft.fft2(kernel, overwrite_x=True)


def _support_box(mu_s):
    """Slices of the smallest square of nodes holding the nonzero mu_s (one
    node when mu_s is zero)."""
    nz = mu_s != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    if rows.size == 0:
        return slice(0, 1), slice(0, 1)
    nb = max(rows[-1] - rows[0], cols[-1] - cols[0]) + 1
    i0, j0 = (min(lo, mu_s.shape[0] - nb) for lo in (rows[0], cols[0]))
    return slice(i0, i0 + nb), slice(j0, j0 + nb)


def auto_half_width(reach):
    """Smallest grid half-width (4, 8, or 16) fitting the support margin.

    Powers of two keep 0 and 1 exactly on grid nodes for every N.  Infinite
    reach (full-disk data transported to the half-plane) takes the widest
    chart so the margin truncation sits far out.
    """
    if not np.isfinite(reach):
        return 16.0
    if reach <= 3.5:
        return 4.0
    if reach <= 7.0:
        return 8.0
    if reach <= 14.0:
        return 16.0
    raise SolverError(f"coefficient support reach {reach:.2f} exceeds grid limits")


def _check_margin(grid: ComplexGrid, what="support"):
    vals = np.abs(grid.values)
    if vals.max() == 0.0:
        return
    mask = vals > 1e-6 * vals.max()
    if not mask.any():
        return
    Z = grid.nodes() - grid.center
    reach = max(np.abs(Z.real[mask]).max(), np.abs(Z.imag[mask]).max())
    if reach > MARGIN_FRACTION * grid.half_width:
        raise SolverError(
            f"{what} touches the outer 10% margin of the grid "
            f"(reach {reach:.3f} of half-width {grid.half_width:.3f})")


def cauchy_transform(grid: ComplexGrid, pad=2) -> ComplexGrid:
    """Solid Cauchy transform P[h](z) = -(1/pi) iint h(w)/(w - z) dA(w).

    Satisfies dbar P[h] = h; equals +conj(z) inside and +1/z outside for
    h the unit-disk indicator.
    """
    if grid.center != 0:
        raise SolverError("spectral transforms expect a grid centered at 0")
    _check_margin(grid)
    kit = _kit(grid.n, grid.half_width, pad)
    return ComplexGrid(grid.center, grid.half_width, kit.cauchy(grid.values))


def beurling_transform(grid: ComplexGrid, pad=2) -> ComplexGrid:
    """Principal-value Beurling transform as the multiplier conj(W)/W.

    T[dbar phi] = d phi; |multiplier| = 1 makes T an exact discrete L2
    isometry on its torus (state it with pad=1).
    """
    if grid.center != 0:
        raise SolverError("spectral transforms expect a grid centered at 0")
    if pad > 1:
        _check_margin(grid)  # torus-native pad=1 has no aliasing margin
    kit = _kit(grid.n, grid.half_width, pad)
    return ComplexGrid(grid.center, grid.half_width, kit.beurling(grid.values))


# ---------------------------------------------------------------------------
# Coefficient sampling


def _binomial_blur(a):
    out = 0.25 * np.roll(a, 1, 0) + 0.5 * a + 0.25 * np.roll(a, -1, 0)
    return 0.25 * np.roll(out, 1, 1) + 0.5 * out + 0.25 * np.roll(out, -1, 1)


def sample_coefficient(mu: BeltramiCoefficient, n, half_width, reflect=False):
    """Sample mu on the solver grid.

    Cells cut by a declared jump circle are supersampled to their cell
    average.  reflect=True extends a half-plane coefficient by
    conj(mu(conj z)) across R; if its support is unbounded, it is first
    truncated to |z| <= 0.85 half_width, inside the grid margin.
    """
    kit = _kit(n, half_width, 2)
    Z = kit.Z
    d = kit.spacing
    truncation = math.inf
    if reflect and not np.isfinite(mu.support_radius):
        truncation = 0.85 * half_width
    vals = mu.eval(Z)
    vals[np.abs(Z) > truncation] = 0.0
    for c, r in mu.jump_circles:
        near = np.abs(np.abs(Z - c) - r) < 1.5 * d
        if not near.any():
            continue
        sub = 8
        off = (np.arange(sub) + 0.5) / sub - 0.5
        OX, OY = np.meshgrid(off, off, indexing="ij")
        patch = (OX + 1j * OY).ravel() * d
        zs = Z[near][:, None] + patch[None, :]
        sv = mu.eval(zs)
        sv[np.abs(zs) > truncation] = 0.0
        vals[near] = sv.mean(axis=1)
    if reflect:
        vals[Z.imag <= 0] = 0.0
        flipped = np.conj(vals[:, ::-1])
        ref = np.zeros_like(vals)
        ref[:, 1:] = flipped[:, :-1]  # y-node j reflects to node n - j
        vals = vals + np.where(Z.imag < 0, ref, 0.0)
    return vals


# ---------------------------------------------------------------------------
# Quasiconformal maps


@dataclass
class QuasiconformalMap:
    """Grid-sampled normalized solution of a Beltrami equation.

    Evaluation uses bicubic interpolation inside the grid; outside it falls
    back to the Laurent far field (conformal tail) or an explicit outer
    evaluator when one exists.
    """

    normalization: Normalization
    grid: ComplexGrid
    conformal_region: tuple | None = None
    mu_samples: np.ndarray | None = None
    residual: float | None = None
    convergence_ratio: float | None = None
    iteration_trace: list = field(default_factory=list, repr=False)
    far_field: HolomorphicFunction | None = None
    outer_eval: object = None
    symmetry_defect: float | None = None
    halfplane_map: QuasiconformalMap | None = field(default=None, repr=False)
    _interp: object = field(default=None, repr=False)
    _partials: object = field(default=None, repr=False)

    def _interpolators(self):
        if self._interp is None:
            x, y = self.grid.axes()
            self._interp = (
                RectBivariateSpline(x, y, self.grid.values.real, kx=3, ky=3),
                RectBivariateSpline(x, y, self.grid.values.imag, kx=3, ky=3),
            )
        return self._interp

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z).ravel()
        out = np.empty_like(zz)
        lim = MARGIN_FRACTION * self.grid.half_width
        inside = (np.abs(zz.real - self.grid.center.real) <= lim) & \
                 (np.abs(zz.imag - self.grid.center.imag) <= lim)
        if inside.any():
            ire, iim = self._interpolators()
            xs, ys = zz[inside].real, zz[inside].imag
            out[inside] = ire.ev(xs, ys) + 1j * iim.ev(xs, ys)
        if (~inside).any():
            if self.far_field is not None:
                out[~inside] = self.far_field.eval(zz[~inside])
            elif self.outer_eval is not None:
                out[~inside] = self.outer_eval(zz[~inside])
            else:
                raise SolverError("evaluation outside the sampled grid "
                                  "without a conformal far field")
        return complex(out[0]) if scalar else out.reshape(z.shape)

    def partial_grids(self, order=2):
        """Centered-difference (df, dbar f) sampled on the grid.

        order=4 uses the five-point stencil in the interior (two cells of
        second-order fallback at the edges).
        """
        if self._partials is None:
            self._partials = {}
        if order not in self._partials:
            d = self.grid.spacing
            f = self.grid.values
            fx = np.gradient(f, d, axis=0)
            fy = np.gradient(f, d, axis=1)
            if order == 4:
                fx4 = (-f[4:, :] + 8 * f[3:-1, :] - 8 * f[1:-3, :]
                       + f[:-4, :]) / (12 * d)
                fy4 = (-f[:, 4:] + 8 * f[:, 3:-1] - 8 * f[:, 1:-3]
                       + f[:, :-4]) / (12 * d)
                fx[2:-2, :] = fx4
                fy[:, 2:-2] = fy4
            self._partials[order] = ((fx - 1j * fy) / 2.0,
                                     (fx + 1j * fy) / 2.0)
        return self._partials[order]

    def partials_at(self, z):
        dz, dbar = self.partial_grids()
        axes = self.grid.axes()
        gd = RegularGridInterpolator(axes, dz, method="linear",
                                     bounds_error=False, fill_value=1.0)
        gb = RegularGridInterpolator(axes, dbar, method="linear",
                                     bounds_error=False, fill_value=0.0)
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        pts = np.stack([z.real, z.imag], axis=-1)
        return gd(pts), gb(pts)

    def to_json_dict(self):
        return {
            "normalization": self.normalization.value,
            "grid": self.grid.to_json_dict(self.normalization.value),
            "conformal_region": list(self.conformal_region)
            if self.conformal_region else None,
            "residual": self.residual,
        }


# samples on the circle a far-field Laurent series is fitted from
FAR_FIELD_SAMPLES = 512


def _far_field_series(fn, rho):
    return HolomorphicFunction.from_callable_on_circle(
        fn, 0.0, rho, range(-12, 2), n_samples=FAR_FIELD_SAMPLES,
        noise_rel=1e-12,
        r_inner=rho, r_outer=math.inf, domain=DomainTag.EXTERIOR_DISK)


def identity_map(n=64):
    kit = _kit(n, 4.0, 2)
    grid = ComplexGrid(0.0, 4.0, kit.Z.copy())
    ff = _far_field_series(lambda z: z, 3.2)
    return QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid,
        conformal_region=(0.0, math.inf), mu_samples=np.zeros((n, n)),
        residual=0.0, far_field=ff)


# ---------------------------------------------------------------------------
# Core solve


def _solve_key(mu, grid_n, reflect):
    """Memo key of one raw solve; None when mu carries no cache token.

    A raw solve's output is fixed by mu, grid_n and reflect: the chart and
    the truncation are derived from mu, everything else is a constant.
    """
    if mu.cache_token is None:
        return None
    return mu.cache_token, grid_n, reflect


# Solve memo, oldest entry first; entries are evicted in that order while
# their arrays (f and mu_s) hold more than _MEMO_BYTES.
_MEMO = {}
_MEMO_BYTES = 256 * 2 ** 20


def _neumann(kit, mu_s):
    """h = mu_s (1 + T[h]) by fixed-point iteration; returns (h, trace of
    sup steps, contraction ratio).

    h vanishes wherever mu_s does, so the iteration runs on the support box
    of mu_s alone (_support_box), with the kit's T restricted to it
    (_box_multiplier), and h is scattered back onto the kit's grid.
    """
    box = _support_box(mu_s)
    mu_b = mu_s[box]
    mult = _box_multiplier(kit, mu_b.shape[0])
    h = mu_b.copy()
    trace = []
    grow = 0
    for _ in range(NEUMANN_MAX_ITER):
        hn = mu_b * (1.0 + kit.apply(h, mult))
        delta = float(np.max(np.abs(hn - h)))
        h = hn
        trace.append(delta)
        if delta < NEUMANN_TOL:
            break
        if len(trace) > 2 and trace[-1] > trace[-2] > trace[-3]:
            grow += 1
            if grow >= 3:
                raise SolverError(
                    "Neumann iteration diverges (grid Beurling norm times "
                    "sup|mu| >= 1)", trace)
        else:
            grow = 0
    else:
        raise SolverError("Neumann iteration did not converge", trace)
    ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 1e4 * NEUMANN_TOL]
    ratio = max(ratios[1:]) if len(ratios) > 2 else (ratios[-1] if ratios else 0.0)
    out = np.zeros_like(mu_s)
    out[box] = h
    return out, trace, ratio


def _fd_residual(qc, mu_s, jump_circles):
    """Beltrami defect |dbar f - mu_s df| / max|df| on the grid nodes inside
    the margin and more than 3 cells off every jump circle."""
    dz, dbar = qc.partial_grids()
    res = np.abs(dbar - mu_s * dz)
    kit = _kit(qc.grid.n, qc.grid.half_width, 2)
    Z = kit.Z
    mask = (np.abs(Z.real) < MARGIN_FRACTION * kit.half_width) & \
           (np.abs(Z.imag) < MARGIN_FRACTION * kit.half_width)
    for c, r in jump_circles:
        mask &= np.abs(np.abs(Z - c) - r) > 3 * kit.spacing
    return float(res[mask].max() / np.abs(dz).max())


def _solve(mu, grid_n, reflect):
    """Body of solve_plane (reflect=False) and solve_halfplane (reflect=True).

    The raw solution z + P[h] on the chart of mu comes from the memo (which
    holds read-only arrays, at most _MEMO_BYTES of them) or the Neumann
    iteration, which runs on the support box of the samples of mu (see
    sample_coefficient and _neumann) while P stays on the full padded
    torus.  The samples are given one mass-preserving
    binomial blur that keeps closed-form agreement at O(spacing^2) while
    suppressing the spectral ringing of sharp interfaces.  A complex affine
    map (plane) or real affine map (half-plane, whose reflection symmetry
    is checked on R) pins the grid nodes 0 and 1.  The far field is fitted
    through the map's own spline on a circle of radius 0.855 half_width;
    the residual is the Beltrami defect against the samples off the jumps.
    """
    half_width = auto_half_width(mu.support_radius)
    if mu.sup_norm >= 0.9:
        raise SolverError("sup_norm >= 0.9 is outside the Neumann regime")
    kit = _kit(grid_n, half_width, 2)
    key = _solve_key(mu, grid_n, reflect)
    raw = _MEMO.get(key)
    if raw is None:
        mu_s = _binomial_blur(
            sample_coefficient(mu, grid_n, half_width, reflect))
        _check_margin(ComplexGrid(0.0, half_width, mu_s),
                      "coefficient support")
        h, trace, ratio = _neumann(kit, mu_s)
        raw = kit.Z + kit.cauchy(h), mu_s, trace, ratio
        raw[0].flags.writeable = raw[1].flags.writeable = False
        if key is not None:
            _MEMO[key] = raw
            while sum(r[0].nbytes + r[1].nbytes
                      for r in _MEMO.values()) > _MEMO_BYTES:
                _MEMO.pop(next(iter(_MEMO)))
    f, mu_s, trace, ratio = raw

    j0 = round(half_width / kit.spacing)
    i0, i1 = (round((x + half_width) / kit.spacing) for x in (0.0, 1.0))
    for i, x in ((i0, 0.0), (i1, 1.0)):
        if abs(kit.Z[i, j0] - x) > 1e-9:
            raise SolverError(f"normalization point {x} is not a grid node")
    a, b = f[i0, j0], f[i1, j0]
    if reflect:
        a, b = a.real, b.real
    f = (f - a) / (b - a)
    qc = QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY,
        grid=ComplexGrid(0.0, half_width, f), mu_samples=mu_s,
        convergence_ratio=ratio, iteration_trace=list(trace))
    jumps = list(mu.jump_circles)
    if reflect:
        qc.symmetry_defect = float(np.max(np.abs(f[:, j0].imag)))
        if qc.symmetry_defect > 1e-6:
            raise SolverError("reflection symmetry defect "
                              f"{qc.symmetry_defect:.2e} on R", trace)
        jumps += [(np.conj(c), r) for c, r in mu.jump_circles]
    else:
        supp = mu.support_radius if np.isfinite(mu.support_radius) \
            else half_width
        qc.conformal_region = (supp + 3 * kit.spacing, math.inf)
    qc.far_field = _far_field_series(qc, MARGIN_FRACTION * half_width * 0.95)
    qc.residual = _fd_residual(qc, mu_s, jumps)
    return qc


def solve_plane(mu: BeltramiCoefficient, grid_n=1024) -> QuasiconformalMap:
    """Normalized plane solution f with dilatation mu, fixing 0, 1, infinity.

    mu must be compactly supported inside the 90% margin of the grid whose
    half-width auto_half_width picks from its support.  The raw solution
    z + P[h] already fixes infinity (f(z) - z -> 0); an affine output
    correction pins f(0) = 0 and f(1) = 1.

    Raises SolverError with the iteration trace on non-convergence, and on
    support reaching the outer margin (aliasing guard).
    """
    return _solve(mu, grid_n, reflect=False)


def solve_halfplane(mu: BeltramiCoefficient,
                    grid_n=1024) -> QuasiconformalMap:
    """Self-map of U with dilatation mu, fixing 0, 1, infinity on R.

    The coefficient is extended to the lower half-plane by the reflection
    conj(mu(conj z)), which makes the plane solution commute with z -> conj z
    and hence preserve R; a real affine correction pins 0 and 1.  The grid
    half-width is auto_half_width(mu.support_radius); a coefficient with
    unbounded support is truncated at 0.85 of it.
    """
    if mu.domain is not DomainTag.UPPER_HALF_PLANE:
        raise SolverError("solve_halfplane expects an upper half-plane coefficient")
    return _solve(mu, grid_n, reflect=True)


def solve_disk(mu: BeltramiCoefficient, grid_n=1024) -> QuasiconformalMap:
    """Self-map f^mu of the unit disk fixing the boundary points 1, -1, -i.

    Cayley conjugate of solve_halfplane on the transported coefficient.
    Coefficients supported on all of D transport to an unbounded region of
    U, which solve_halfplane truncates inside its grid margin: the
    transported modulus of Ahlfors-Weill data decays like |w|^-2, and the
    truncation perturbs the map only at higher order after renormalization.
    The disk map is resampled on a grid of min(grid_n, 512) nodes over
    [-1.25, 1.25]^2.
    """
    if mu.domain is not DomainTag.UNIT_DISK:
        raise SolverError("solve_disk expects a unit-disk coefficient")
    mu_u = cayley(mu, CayleyDirection.DISK_TO_HALF_PLANE)
    fu = solve_halfplane(mu_u, grid_n)

    def outer(z):
        z = np.asarray(z, dtype=complex)
        w = cayley_map(np.where(np.abs(z - 1.0) < 1e-12, 1.0 + 1e-12, z))
        return cayley_inverse(fu(w))

    grid = ComplexGrid(0.0, 1.25, outer(_kit(min(grid_n, 512), 1.25, 2).Z))
    qc = QuasiconformalMap(
        normalization=Normalization.FIX_THREE_BOUNDARY_POINTS, grid=grid,
        conformal_region=None, mu_samples=None,
        convergence_ratio=fu.convergence_ratio,
        iteration_trace=fu.iteration_trace, outer_eval=outer,
        residual=fu.residual, halfplane_map=fu)
    return qc


# ---------------------------------------------------------------------------
# Dilatation, composition, inversion, chain rule


def dilatation(f: QuasiconformalMap) -> BeltramiCoefficient:
    """Centered finite-difference complex dilatation dbar f / df.

    Raises when the discrete Jacobian is non-positive at an interior node,
    naming the node.  Disk self-maps are differentiated on their full
    resampled grid (the symmetric extension is quasiconformal across S);
    the Jacobian contract is enforced on nodes of D.  Nodes outside that
    region where |dbar f / df| >= 1 are set to 0; meta["zeroed_nodes"] is
    their count.
    """
    dz, dbar = f.partial_grids(order=4)
    jac = np.abs(dz) ** 2 - np.abs(dbar) ** 2
    interior = np.zeros_like(jac, dtype=bool)
    interior[2:-2, 2:-2] = True
    check = interior.copy()
    if f.normalization is Normalization.FIX_THREE_BOUNDARY_POINTS:
        check &= np.abs(f.grid.nodes()) < 1.0
    bad = check & (jac <= 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SolverError(
            f"nonpositive Jacobian at grid node {f.grid.nodes()[i, j]:.4f}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(dz) > 0, dbar / np.where(dz == 0, 1, dz), 0.0)
    ratio[~interior] = 0.0
    zeroed = np.abs(ratio) >= 1.0
    ratio[zeroed] = 0.0
    interp = RegularGridInterpolator(f.grid.axes(), ratio, method="linear",
                                     bounds_error=False, fill_value=0.0)

    def func(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return interp(np.stack([z.real, z.imag], axis=-1))

    disk = f.normalization is Normalization.FIX_THREE_BOUNDARY_POINTS
    domain = DomainTag.UNIT_DISK if disk else DomainTag.PLANE
    sup_region = check if disk else interior
    sup = min(float(np.abs(ratio[sup_region]).max()), 0.999) \
        if sup_region.any() else 0.0
    radius = 1.0 if disk else MARGIN_FRACTION * f.grid.half_width
    return BeltramiCoefficient(domain, func, radius, sup,
                               meta={"zeroed_nodes": int(zeroed.sum())})


def invert(f: QuasiconformalMap):
    """Pointwise inverse by Newton iteration seeded at the target point.

    Returns a vectorized callable that takes at most 50 Newton steps toward
    a residual |f(f^-1(w)) - w| below NEWTON_TOL; raises SolverError when
    the iteration stalls (e.g. targets outside the sampled image).
    """

    def inverse(w):
        w = np.asarray(w, dtype=complex)
        scalar = w.ndim == 0
        ww = np.atleast_1d(w).ravel()
        z = ww.copy()
        for _ in range(50):
            fz = f(z)
            err = fz - ww
            if np.nanmax(np.abs(err)) < NEWTON_TOL:
                break
            dz, dbar = f.partials_at(z)
            # real-linear Newton step for df dz + dbarf conj(dz) = -err
            denom = np.abs(dz) ** 2 - np.abs(dbar) ** 2
            denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
            step = (np.conj(dz) * err - dbar * np.conj(err)) / denom
            step_mag = np.abs(step)
            cap = 0.25 * max(1.0, float(np.nanmax(np.abs(ww))))
            scale = np.where(step_mag > cap, cap / np.maximum(step_mag, 1e-300), 1.0)
            z = z - step * scale
        resid = float(np.nanmax(np.abs(f(z) - ww)))
        if not np.isfinite(resid) or resid > 100 * NEWTON_TOL:
            raise SolverError(f"Newton inversion stalled (residual {resid:.2e})")
        return complex(z[0]) if scalar else z.reshape(w.shape)

    return inverse


def compose(f: QuasiconformalMap, g: QuasiconformalMap) -> QuasiconformalMap:
    """Sampled composition f o g on g's grid."""
    vals = f(g.grid.values)
    grid = ComplexGrid(g.grid.center, g.grid.half_width, vals)
    qc = QuasiconformalMap(normalization=g.normalization, grid=grid)
    if f.far_field is not None and g.far_field is not None:
        qc.far_field = _far_field_series(
            lambda z: f(g(z)), MARGIN_FRACTION * g.grid.half_width * 0.95)
    elif g.outer_eval is not None or g.far_field is not None:
        def outer(z):
            return f(g(z))
        qc.outer_eval = outer
    return qc


def chain_rule(mu: BeltramiCoefficient, nu: BeltramiCoefficient,
               f_nu: QuasiconformalMap) -> BeltramiCoefficient:
    """Coefficient of f^mu o (f^nu)^-1 sampled on the image of f^nu.

    At w = f^nu(z):  (mu - nu)/(1 - conj(nu) mu) * (df^nu / conj(df^nu)).
    """
    inverse = invert(f_nu)

    def func(w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        z = inverse(w)
        m = mu.eval(z)
        n = nu.eval(z)
        dz, _ = f_nu.partials_at(z)
        dz = np.where(np.abs(dz) < 1e-14, 1.0, dz)
        return (m - n) / (1.0 - np.conj(n) * m) * (dz / np.conj(dz))

    sup = min((mu.sup_norm + nu.sup_norm) /
              (1.0 + mu.sup_norm * nu.sup_norm) + 1e-9, 0.999)
    domain = mu.domain
    radius = 1.0 if domain is DomainTag.UNIT_DISK else \
        1.3 * max(mu.support_radius, nu.support_radius, 1.0)
    return BeltramiCoefficient(domain, func, radius, sup)
