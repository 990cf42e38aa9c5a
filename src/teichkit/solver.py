"""Beltrami equation solvers on the plane, half-plane, and disk.

The normalized plane solution of dbar f = mu df for compactly supported mu
is built from the Neumann iteration

    h <- mu * (1 + T[h]),        f = z + P[h],

where T is the Beurling transform (Fourier multiplier conj(W)/W) and P the
solid Cauchy transform (multiplier -2i/W), both defined on a 2x zero-padded
torus.  h vanishes off the support of mu, so mu is sampled only on a node
square about 0 that holds its support, and the iteration runs only on the
smallest square of nodes holding the samples (nb nodes a side): the
kernel of T is cut to the offsets of a torus of about 2 nb nodes, which
applies the padded torus's T exactly there at two (2 nb)^2 FFTs per step.
That kernel is built from a quarter of the padded torus's frequencies with
real DCT-I and DST-I transforms (_box_multiplier), so a box solve builds no
array of the whole chart or the padded torus.
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

A solve has two parts.  The box-level part (_box_solve) picks the chart
(auto_half_width), samples mu and runs the Neumann iteration; it returns h
and the samples on their support box, which is all the Bers map reads (the
moments of h).  The grid-level part (_solve, the body of solve_plane and
solve_halfplane) scatters both onto the chart, applies P on the full torus
and normalizes; its raw solution is memoized in the process, keyed by
_solve_key.
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
    first use: a box solve reads none of them, nor the nodes Z."""

    def __init__(self, n, half_width, pad=2):
        self.n = n
        self.half_width = float(half_width)
        self.pad = pad
        self.spacing = 2.0 * self.half_width / n
        self.torus_area = (pad * n * self.spacing) ** 2

    def nodes(self, box):
        """Grid nodes at box, a pair of (row, column) slices of the chart."""
        off = -self.half_width + self.spacing * np.arange(self.n)
        return off[box[0], None] + 1j * off[None, box[1]]

    @cached_property
    def Z(self):
        return self.nodes((slice(None), slice(None)))

    def _wavenumbers(self):
        """W = wx + i wy on the padded torus."""
        w = 2.0 * np.pi * sfft.fftfreq(self.pad * self.n, d=self.spacing)
        return w[:, None] + 1j * w[None, :]

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

    def moments(self, h):
        """Moments of h dA against 1, z, z^2, z^3 and conj(z), summed over
        the support box of h (h vanishes off it)."""
        box = _support_box(h)
        Z, hb = self.Z[box], h[box] * self.spacing ** 2
        return (hb.sum(), (Z * hb).sum(), (Z * Z * hb).sum(),
                (Z * Z * Z * hb).sum(), (np.conj(Z) * hb).sum())

    def cauchy(self, h):
        """Padded-spectral P plus the lattice moment corrections."""
        out = self.apply(h, self.mult_P)
        if self.pad == 1:
            return out
        Z = self.Z
        m0, m1, m2, m3, mc = self.moments(h)
        out = out + (m0 * np.conj(Z) - mc) / self.torus_area
        c4 = G4_SQUARE / (np.pi * self.torus_area ** 2)
        out = out + c4 * (m0 * Z ** 3 - 3 * m1 * Z ** 2 + 3 * m2 * Z - m3)
        return out


@lru_cache(maxsize=8)
def _kit(n, half_width, pad=2):
    return _SpectralKit(n, half_width, pad)


def _box_multiplier(kit, nb):
    """T of the kit's padded torus between the nodes of an nb x nb square, as
    a multiplier on the torus of m = next_fast_len(2 nb) nodes.

    The kernel of T is cut to the node offsets of that smaller torus, which
    holds every offset between two nodes of the square once, so for data on
    the square the small torus applies exactly the kit's T.

    The kernel is built from a quarter of the padded torus (M = 2N nodes a
    side, M even).  The symbol conj(W)/W = (j - ik)^2 / (j^2 + k^2) depends
    only on the integer frequencies (j, k) in [-M/2, M/2), so with
    K(a, b) = M^-2 sum S(j, k) exp(2 pi i (j a + k b) / M):

    - Re S is even in j and in k, and j = -M/2 aliases +M/2, so its part of
      K is C(|a|, |b|) / M^2, C the DCT-I of Re S on [0, M/2]^2 along both
      axes;
    - Im S = -2jk / (j^2 + k^2) is odd in j and in k on [1 - M/2, M/2 - 1]^2,
      so its part there is -i sign(a) sign(b) D(|a|, |b|) / M^2, D the DST-I
      of Im S on [1, M/2 - 1]^2 along both axes;
    - the Nyquist row j = -M/2 has no mirror.  It adds
      (i/M) (-1)^a ifft(Im S(-M/2, .))[b]
      = -(-1)^a sign(b) R(|b|) / M - i (-1)^(a+b) / M^2,
      R the DST-I of k / (k^2 + M^2/4) on [1, M/2 - 1].  The Nyquist column
      k = -M/2 adds the same with a and b swapped, and their shared corner,
      Im S = -1, is added back once: + i (-1)^(a+b) / M^2.

    Only the first transform pass runs over the whole quarter; the second
    runs over the offsets |a| <= m - nb that the small torus needs, and the
    kernel is gathered from its values there for each of the four sign
    pairs of (a, b).  No array of the whole padded torus is built.
    """
    m = sfft.next_fast_len(2 * nb)
    M = kit.pad * kit.n
    half = M // 2
    off = np.r_[0:nb, nb - m:0]  # the small torus's offsets, on the M-torus
    off = (off + half) % M - half
    a = np.abs(off)
    rows = a.max() + 1
    j = np.arange(half + 1, dtype=float)
    j2 = j * j
    r2 = j2[:, None] + j2[None, :]
    r2[0, 0] = 1.0  # S(0, 0) = 0
    re = j2[:, None] - j2[None, :]
    re /= r2
    odd = np.multiply.outer(-2.0 * j[1:half], j[1:half])
    odd /= r2[1:half, 1:half]
    del r2
    re = sfft.dct(sfft.dct(re, type=1, axis=0, overwrite_x=True)[:rows],
                  type=1, axis=1, overwrite_x=True)[:, :rows] / M ** 2
    w = min(rows, half) - 1  # offsets 1 .. w where the DST-I terms live
    im = np.zeros((rows, rows))
    odd = sfft.dst(odd, type=1, axis=0, overwrite_x=True)[:w]
    im[1:1 + w, 1:1 + w] = sfft.dst(odd, type=1, axis=1,
                                    overwrite_x=True)[:, :w] / -M ** 2
    del odd
    r = np.zeros(rows)
    r[1:1 + w] = sfft.dst(j[1:half] / (half ** 2 + j2[1:half]), type=1)[:w]
    alt = 1.0 - 2.0 * (np.arange(rows) & 1)  # (-1)^|a|
    nyq = np.multiply.outer(alt, r / -M)
    corner = np.multiply.outer(alt, alt / -M ** 2)
    # K on the offsets |a|, |b| < rows with signs (sa, sb) of a and b
    quads = np.empty((2, rows, 2, rows), dtype=complex)
    for p, sa in enumerate((1.0, -1.0)):
        for q, sb in enumerate((1.0, -1.0)):
            quads[p, :, q].real = re + sb * nyq + sa * nyq.T
            quads[p, :, q].imag = (sa * sb) * im + corner
    del re, im, nyq, corner
    at = a + rows * (off < 0)
    kernel = quads.reshape(2 * rows, 2 * rows)[np.ix_(at, at)]
    del quads
    return sfft.fft2(kernel, overwrite_x=True)


def _support_box(mu_s, n=None, at=0):
    """Slices of the smallest square of chart nodes holding the nonzero mu_s,
    kept inside the chart of n nodes a side (one node when mu_s is zero).
    mu_s holds the chart nodes from (at, at) on; by default it is the whole
    chart."""
    n = mu_s.shape[0] if n is None else n
    nz = mu_s != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    if rows.size == 0:
        return slice(at, at + 1), slice(at, at + 1)
    nb = max(rows[-1] - rows[0], cols[-1] - cols[0]) + 1
    i0, j0 = (min(lo + at, n - nb) for lo in (rows[0], cols[0]))
    return slice(i0, i0 + nb), slice(j0, j0 + nb)


def _take(a, a_box, box):
    """a, given on the chart nodes a_box, on the chart nodes box (zero off
    a_box); the boxes overlap."""
    out = np.zeros(tuple(t.stop - t.start for t in box), dtype=a.dtype)
    src, dst = [], []
    for s, t in zip(a_box, box):
        lo, hi = max(s.start, t.start), min(s.stop, t.stop)
        src.append(slice(lo - s.start, hi - s.start))
        dst.append(slice(lo - t.start, hi - t.start))
    out[tuple(dst)] = a[tuple(src)]
    return out


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


def _check_margin(values, Z, half_width, what="support"):
    """Raise when values above 1e-6 of their largest modulus sit at nodes Z
    (relative to the chart's center) in the outer 10% of the chart."""
    vals = np.abs(values)
    if vals.max() == 0.0:
        return
    mask = vals > 1e-6 * vals.max()
    if not mask.any():
        return
    reach = max(np.abs(Z.real[mask]).max(), np.abs(Z.imag[mask]).max())
    if reach > MARGIN_FRACTION * half_width:
        raise SolverError(
            f"{what} touches the outer 10% margin of the grid "
            f"(reach {reach:.3f} of half-width {half_width:.3f})")


def cauchy_transform(grid: ComplexGrid, pad=2) -> ComplexGrid:
    """Solid Cauchy transform P[h](z) = -(1/pi) iint h(w)/(w - z) dA(w).

    Satisfies dbar P[h] = h; equals +conj(z) inside and +1/z outside for
    h the unit-disk indicator.
    """
    if grid.center != 0:
        raise SolverError("spectral transforms expect a grid centered at 0")
    _check_margin(grid.values, grid.nodes(), grid.half_width)
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
        # torus-native pad=1 has no aliasing margin
        _check_margin(grid.values, grid.nodes(), grid.half_width)
    kit = _kit(grid.n, grid.half_width, pad)
    return ComplexGrid(grid.center, grid.half_width, kit.beurling(grid.values))


# ---------------------------------------------------------------------------
# Coefficient sampling


def _binomial_blur(a):
    out = 0.25 * np.roll(a, 1, 0) + 0.5 * a + 0.25 * np.roll(a, -1, 0)
    return 0.25 * np.roll(out, 1, 1) + 0.5 * out + 0.25 * np.roll(out, -1, 1)


def sample_coefficient(mu: BeltramiCoefficient, n, half_width, reflect=False):
    """Sample mu on the node square of the solver grid that holds its
    support; returns (box, samples), box being the square's (row, column)
    slices of the n x n chart.

    mu vanishes off |z| <= R, R its support radius; reflect=True extends a
    half-plane coefficient by conj(mu(conj z)) across R, and if its support
    is unbounded, it is first truncated to R = 0.85 half_width, inside the
    grid margin.  The square is centred on node 0 and holds |z| <= R grown
    by three nodes.  The samples reach at most one node past |z| = R (a
    supersampled cell that a jump circle cuts) and _binomial_blur spreads
    them by one more, so the square's outer ring stays zero and the blur's
    wrap-around at its edge reads zeros: blurred on the square, the samples
    equal those of the whole chart.  The square is symmetric about y = 0,
    so the reflection maps it onto itself.  With R not finite, or a square
    that would not fit inside rows and columns 1 .. n - 1, it is the whole
    chart.

    Cells cut by a declared jump circle are supersampled to their cell
    average.
    """
    kit = _kit(n, half_width, 2)
    d = kit.spacing
    truncation = math.inf
    if reflect and not np.isfinite(mu.support_radius):
        truncation = 0.85 * half_width
    reach = min(mu.support_radius, truncation)
    box = slice(0, n)
    if math.isfinite(reach):
        mid, k = n // 2, math.ceil(reach / d) + 3  # node 0 is (mid, mid)
        if k < mid:
            box = slice(mid - k, mid + k + 1)
    box = box, box
    Z = kit.nodes(box)
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
        cols = np.arange(n)[box[1]]
        src = n - cols - cols[0]  # y-node j reflects to node n - j
        ok = (src >= 0) & (src < cols.size)
        ref = np.zeros_like(vals)
        ref[:, ok] = np.conj(vals[:, src[ok]])
        vals = vals + np.where(Z.imag < 0, ref, 0.0)
    return box, vals


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
        fn, rho, range(-12, 2), n_samples=FAR_FIELD_SAMPLES,
        noise_rel=1e-12, domain=DomainTag.EXTERIOR_DISK)


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


@dataclass(frozen=True)
class _BoxSolve:
    """h of one solve and the samples mu_s it solved for, on the support box
    of mu_s: the nb x nb nodes of the kit's grid at box (row and column
    slices).  Both vanish off the box."""

    kit: _SpectralKit
    box: tuple
    h: np.ndarray
    mu_s: np.ndarray
    trace: list
    ratio: float


def _neumann(kit, mu_b):
    """h = mu_b (1 + T[h]) by fixed-point iteration; returns (h, trace of
    sup steps, contraction ratio).

    mu_b is a square of grid nodes holding the support of the samples
    (_support_box): h vanishes wherever they do, so the iteration runs on
    that square alone, with the kit's T restricted to it (_box_multiplier).
    """
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
    return h, trace, ratio


def _box_solve(mu, grid_n, reflect):
    """Box-level part of a solve: h on the support box of the samples of
    mu, with no grid-level P and no memo.

    mu is sampled on the node square of its chart (auto_half_width) that
    holds its support (sample_coefficient), and given one mass-preserving
    binomial blur that keeps closed-form agreement at O(spacing^2) while
    suppressing the spectral ringing of sharp interfaces; after the margin
    guard, the Neumann iteration runs on the support box of the samples.
    No array of the whole chart is built.
    """
    half_width = auto_half_width(mu.support_radius)
    if mu.sup_norm >= 0.9:
        raise SolverError("sup_norm >= 0.9 is outside the Neumann regime")
    kit = _kit(grid_n, half_width, 2)
    box, mu_s = sample_coefficient(mu, grid_n, half_width, reflect)
    mu_s = _binomial_blur(mu_s)
    _check_margin(mu_s, kit.nodes(box), half_width, "coefficient support")
    support = _support_box(mu_s, grid_n, box[0].start)
    mu_s = _take(mu_s, box, support)
    h, trace, ratio = _neumann(kit, mu_s)
    return _BoxSolve(kit, support, h, mu_s, trace, ratio)


def _on_chart(kit, sol):
    """h and the samples mu_s of a box solve scattered onto the kit's grid,
    with its trace and ratio.  The box arrays are dropped on return, so they
    are not held through the grid-level part."""
    chart = (slice(0, kit.n),) * 2
    return (_take(sol.h, sol.box, chart), _take(sol.mu_s, sol.box, chart),
            sol.trace, sol.ratio)


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
    holds read-only arrays, at most _MEMO_BYTES of them) or from the
    box-level part (_box_solve), whose h is scattered onto the chart and
    given P on the full padded torus.  A complex affine
    map (plane) or real affine map (half-plane, whose reflection symmetry
    is checked on R) pins the grid nodes 0 and 1.  The far field is fitted
    through the map's own spline on a circle of radius 0.855 half_width;
    the residual is the Beltrami defect against the samples off the jumps.
    """
    half_width = auto_half_width(mu.support_radius)
    kit = _kit(grid_n, half_width, 2)
    key = _solve_key(mu, grid_n, reflect)
    raw = _MEMO.get(key)
    if raw is None:
        h, mu_s, trace, ratio = _on_chart(kit, _box_solve(mu, grid_n,
                                                          reflect))
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
