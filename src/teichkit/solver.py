"""Beltrami equation solvers on the plane, half-plane, and disk.

The normalized plane solution of dbar f = mu df for compactly supported mu
is built from the Neumann iteration

    h <- mu * (1 + T[h]),        f = z + P[h],

where T is the Beurling transform (Fourier multiplier conj(W)/W) and P the
solid Cauchy transform (multiplier -2i/W), both defined on a 2x zero-padded
torus.  h vanishes off the support of mu, so mu is sampled only on a node
square about 0 that holds its support, and the iteration runs only on the
smallest rectangle of nodes holding the samples (nb_a x nb_b nodes): the
kernel of T is cut to the offsets of a torus of about 2 nb_a x 2 nb_b
nodes, which applies the padded torus's T exactly there.  Each step is
one forward and one inverse FFT of that torus, pruned to the lines that
carry data: the forward transform runs its first axis over the box's
columns only and the inverse its second axis over the box's rows only,
bit-exact to the full fft2 and ifft2.
That kernel is built from a quarter of the padded torus's frequencies with
real DCT-I and DST-I transforms, a block of rows at a time
(_box_multiplier), so a box solve builds no array of the whole chart, the
padded torus or the quarter.
P is applied once, on the full padded torus, with the same pruned
transforms, to h on its support box: the forward transform places the
box's nonzero columns on the torus itself, so no array of the chart holds
h.  Its symbol is built a block of rows at a time and the torus freed
before the result is corrected, so no array of the torus outlives the
call.  Relative to the free-plane
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
solve_halfplane) applies P to h on its support box, which the transform
places on the full padded torus, and normalizes; the samples stay on the
support box.  Every
call solves afresh: a solve keeps nothing once its map is dropped.  A
solve computes no Beltrami residual; a map computes its own the first time
it is read (QuasiconformalMap.residual).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy import ndimage

from .domains import (
    BeltramiCoefficient,
    ComplexGrid,
    DomainTag,
    HolomorphicFunction,
    _check_count,
    cayley,
    cayley_inverse,
    cayley_map,
)

__all__ = [
    "SolverError",
    "QuasiconformalMap",
    "Normalization",
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

# nodes of odd reflection around a map's grid before its cubic spline
# filter: the filter's mirror end condition errs at the padded edge, and
# the error decays like 0.268^k over k nodes, so past the pad only rounding
# is left; the odd reflection continues affine maps exactly
SPLINE_PAD = 32

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


# rows built at a time of the padded torus's multiplier (_SpectralKit.spectral)
# and of the Beurling quarter (_box_multiplier): 64 rows of a 2048-node torus
# hold 2 MB
SYMBOL_ROWS = 64


def _beurling_symbol(W):
    """The Beurling multiplier conj(W)/W, set to 0 at W = 0."""
    mult = np.conj(W)
    with np.errstate(divide="ignore", invalid="ignore"):
        mult /= W
    mult[W == 0] = 0.0
    return mult


def _cauchy_symbol(W):
    """The Cauchy multiplier -2i/W, set to 0 at W = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = -2j / W
    mult[W == 0] = 0.0
    return mult


def _fft2_padded(h, shape, at=(0, 0)):
    """fft2 of h placed on the torus of shape with its first node at node
    at (row, column) and zeros elsewhere: axis 0 over the torus columns
    that hold the columns of h from its first to its last one holding a
    nonzero value (the others transform to zero), then axis 1 over every
    row of the torus.  Those columns are zero-padded to the torus in one
    array that the axis-0 pass overwrites, as fft(x, n) pads x itself."""
    spec = np.zeros(shape, dtype=complex)
    cols = np.flatnonzero(h.any(axis=0))
    if cols.size:
        (a, b), cols = at, slice(cols[0], cols[-1] + 1)
        lines = np.zeros((shape[0], cols.stop - cols.start), dtype=h.dtype)
        lines[a:a + h.shape[0]] = h[:, cols]
        spec[:, b + cols.start:b + cols.stop] = sfft.fft(lines, axis=0,
                                                         overwrite_x=True)
    return sfft.fft(spec, axis=1, overwrite_x=True)


def _ifft2_cropped(spec, na, nb):
    """ifft2(spec)[:na, :nb], overwriting spec: axis 0 unscaled over every
    column, the first na rows scaled by 1/(m_a m_b) as ifft2's first pass
    scales each line (real and imaginary parts alike), then axis 1 over
    those rows alone."""
    ma, mb = spec.shape
    rows = sfft.ifft(spec, axis=0, norm="forward", overwrite_x=True)[:na]
    rows.view(float)[...] *= 1.0 / (ma * mb)
    return sfft.ifft(rows, axis=1, norm="forward", overwrite_x=True)[:, :nb]


class _SpectralKit:
    """Grid and torus geometry of one (n, half_width, pad) configuration.

    It holds no array: spectral builds the symbol of T or P afresh on each
    call, a block of SYMBOL_ROWS rows at a time, and each read of the chart
    nodes Z builds them anew; a box solve never reads them."""

    def __init__(self, n, half_width, pad=2):
        self.n = n
        self.half_width = float(half_width)
        self.pad = pad
        self.spacing = 2.0 * self.half_width / n
        self.torus_area = (pad * n * self.spacing) ** 2

    def nodes(self, box):
        """Grid nodes at box, a pair of (row, column) slices or index
        lists of the chart."""
        off = -self.half_width + self.spacing * np.arange(self.n)
        return off[box[0], None] + 1j * off[None, box[1]]

    @property
    def Z(self):
        return self.nodes((slice(None), slice(None)))

    @staticmethod
    def apply(h, mult):
        """Multiplier mult on the torus of its shape, h zero-padded to it;
        the result is cropped to h's shape.

        fft2 and ifft2 run their axis 0 first and axis 1 second, one line at
        a time, and ifft2 scales each line by 1/(m_a m_b) in its first pass.
        _fft2_padded and _ifft2_cropped run the same lines in the same order
        and skip only lines that are zero on input (forward, axis 0) or
        dropped on output (inverse, axis 1), so they are bit-exact; the
        spectrum is multiplied in place, spec *= mult, the order numpy's
        temporary elision gives mult * fft2(h) on a torus of 256 KB or more.
        """
        spec = _fft2_padded(h, mult.shape)
        spec *= mult
        return _ifft2_cropped(spec, *h.shape)

    def spectral(self, h, symbol, box=None):
        """symbol(W) on the padded torus, W = wx + i wy its wavenumbers, of
        h given on the chart nodes at box (row and column slices; by
        default the whole chart) and zero off them, placed on the torus
        here; the result is cropped to the chart and copied out, so the
        torus is freed on return (by astype: a copy keeps the dtype
        instance of scipy.fft's in-place output, which
        np.asarray(x, dtype=complex) wraps in a view).  It transforms the lines apply does,
        bit-exact to fft2 and ifft2 of h on the chart for the same reason:
        only the torus columns that hold a nonzero column of h go through
        the forward axis-0 pass, and only the chart's rows through the
        inverse axis-1 pass."""
        m = self.pad * self.n
        w = 2.0 * np.pi * sfft.fftfreq(m, d=self.spacing)
        at = (0, 0) if box is None else (box[0].start, box[1].start)
        spec = _fft2_padded(h, (m, m), at)
        for start in range(0, m, SYMBOL_ROWS):
            rows = slice(start, start + SYMBOL_ROWS)
            # spec first (numpy's elision order); a * b and b * a round apart
            spec[rows] *= symbol(w[rows, None] + 1j * w[None, :])
        return _ifft2_cropped(spec, self.n, self.n).astype(complex)

    def beurling(self, h):
        return self.spectral(h, _beurling_symbol)

    def moments(self, box, h_box):
        """Moments of h dA against 1, z, z^2, z^3 and conj(z), for h given
        as h_box on the grid nodes at box and vanishing off them."""
        Z, hb = self.nodes(box), h_box * self.spacing ** 2
        return (hb.sum(), (Z * hb).sum(), (Z * Z * hb).sum(),
                (Z * Z * Z * hb).sum(), (np.conj(Z) * hb).sum())

    def cauchy(self, h, box):
        """Padded-spectral P, on the whole chart, of h given on the grid
        nodes at box and vanishing off them, plus the lattice moment
        corrections, added in place.  No array of the chart holds h."""
        out = self.spectral(h, _cauchy_symbol, box)
        Z = self.Z
        m0, m1, m2, m3, mc = self.moments(box, h)
        out += (m0 * np.conj(Z) - mc) / self.torus_area
        c4 = G4_SQUARE / (np.pi * self.torus_area ** 2)
        out += c4 * (m0 * Z ** 3 - 3 * m1 * Z ** 2 + 3 * m2 * Z - m3)
        return out


def _box_multiplier(kit, shape):
    """T of the kit's padded torus between the nodes of an nb_a x nb_b
    rectangle (shape), as a multiplier on the torus of m_a x m_b nodes,
    m = next_fast_len(2 nb) along each axis.

    The kernel of T is cut to the node offsets of that smaller torus, which
    holds every offset between two nodes of the rectangle once, so for data
    on the rectangle the small torus applies exactly the kit's T.

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

    The quarter is transformed along its rows first, SYMBOL_ROWS rows at a
    time, and each row keeps only the offsets |a| <= m_a - nb_a that the
    small torus needs along its first axis; the second pass runs over those
    columns alone.  For integer j, k below 2^53, Re S is exactly
    antisymmetric and Im S exactly symmetric in (j, k) in floating point, so
    these rows-first transforms are the columns-first C and D transposed
    (C also negated), bit for bit.  The kernel is gathered from C and D for
    each of the four sign pairs of (a, b), rows and columns by their own
    offsets.  No array of the quarter or the padded torus is built: the
    memory follows the kept offsets, the time the quarter's rows.
    """
    M = kit.pad * kit.n
    half = M // 2
    offs = []  # each axis's small-torus offsets, on the M-torus
    for nb in shape:
        m = sfft.next_fast_len(2 * nb)
        off = np.r_[0:nb, nb - m:0]
        offs.append((off + half) % M - half)
    ra, rb = (np.abs(off).max() + 1 for off in offs)
    j = np.arange(half + 1, dtype=float)
    j2 = j * j
    # offsets 1 .. w where the DST-I terms live, along each axis
    wa, wb = min(ra, half) - 1, min(rb, half) - 1
    # first pass, along the rows of Re S^T = -Re S and Im S^T = Im S
    re = np.empty((half + 1, ra))
    odd = np.empty((half + 1, wa))  # rows 1 .. M/2 - 1 are read
    for start in range(0, half + 1, SYMBOL_ROWS):
        rows = slice(start, start + SYMBOL_ROWS)
        r2 = j2[rows, None] + j2[None, :]
        if start == 0:
            r2[0, 0] = 1.0  # S(0, 0) = 0
        blk = j2[rows, None] - j2[None, :]
        blk /= r2
        re[rows] = sfft.dct(blk, type=1, axis=1, overwrite_x=True)[:, :ra]
        blk = np.multiply.outer(-2.0 * j[rows], j[1:half])
        blk /= r2[:, 1:half]
        odd[rows] = sfft.dst(blk, type=1, axis=1, overwrite_x=True)[:, :wa]
    del r2, blk
    # second pass, along the columns, kept at the second axis's offsets
    re = sfft.dct(re, type=1, axis=0, overwrite_x=True)[:rb].T / -M ** 2
    im = np.zeros((ra, rb))
    im[1:1 + wa, 1:1 + wb] = sfft.dst(odd[1:half], type=1, axis=0,
                                      overwrite_x=True)[:wb].T / -M ** 2
    del odd
    w = max(wa, wb)
    r = np.zeros(max(ra, rb))
    r[1:1 + w] = sfft.dst(j[1:half] / (half ** 2 + j2[1:half]), type=1)[:w]
    alt = 1.0 - 2.0 * (np.arange(r.size) & 1)  # (-1)^|a|
    nyq_a = np.multiply.outer(alt[:ra], r[:rb] / -M)  # the Nyquist row
    nyq_b = np.multiply.outer(r[:ra] / -M, alt[:rb])  # the Nyquist column
    corner = np.multiply.outer(alt[:ra], alt[:rb] / -M ** 2)
    # K on the offsets |a| < ra, |b| < rb with signs (sa, sb) of a and b
    quads = np.empty((2, ra, 2, rb), dtype=complex)
    for p, sa in enumerate((1.0, -1.0)):
        for q, sb in enumerate((1.0, -1.0)):
            quads[p, :, q].real = re + sb * nyq_a + sa * nyq_b
            quads[p, :, q].imag = (sa * sb) * im + corner
    del re, im, nyq_a, nyq_b, corner
    at = [np.abs(off) + n * (off < 0) for off, n in zip(offs, (ra, rb))]
    kernel = quads.reshape(2 * ra, 2 * rb)[np.ix_(*at)]
    del quads
    return sfft.fft2(kernel, overwrite_x=True)


def _support_box(mu_s, at=None):
    """Slices of the smallest rectangle of chart nodes holding the nonzero
    mu_s (one node when mu_s is zero).  mu_s holds the chart nodes from the
    first node of the box at (row and column slices) on; by default it is
    the whole chart."""
    starts = (0, 0) if at is None else (s.start for s in at)
    nz = mu_s != 0
    idx = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    if idx[0].size == 0:
        return tuple(slice(a, a + 1) for a in starts)
    return tuple(slice(a + i[0], a + i[-1] + 1) for a, i in zip(starts, idx))


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
    kit = _SpectralKit(grid.n, grid.half_width, pad)
    return ComplexGrid(grid.center, grid.half_width, kit.beurling(grid.values))


# ---------------------------------------------------------------------------
# Coefficient sampling


# cells cut by a jump circle that sample_coefficient supersamples at a time:
# 4096 cells of 8 x 8 points hold a few 4 MB arrays
SUPERSAMPLE_NODES = 4096


def _binomial_blur(a):
    out = 0.25 * np.roll(a, 1, 0) + 0.5 * a + 0.25 * np.roll(a, -1, 0)
    return 0.25 * np.roll(out, 1, 1) + 0.5 * out + 0.25 * np.roll(out, -1, 1)


def _cell_means(mu, zn, patch, truncation):
    """Mean of mu (0 beyond |z| = truncation) over the patch about each
    point of zn, SUPERSAMPLE_NODES points at a time; the blocks die with
    the call, before the caller allocates anything more."""
    means = np.empty(zn.size, dtype=complex)
    for start in range(0, zn.size, SUPERSAMPLE_NODES):
        zs = zn[start:start + SUPERSAMPLE_NODES, None] + patch[None, :]
        sv = mu.eval(zs)
        sv[np.abs(zs) > truncation] = 0.0
        means[start:start + SUPERSAMPLE_NODES] = sv.mean(axis=1)
    return means


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
    average on 8 x 8 points, SUPERSAMPLE_NODES cells at a time; each
    cell's mean reads only its own points, so the blocks give the samples
    of one whole evaluation when mu is evaluated pointwise, as every
    coefficient that declares jump circles is.
    """
    kit = _SpectralKit(n, half_width)
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
    if reflect:  # mu is read on the nodes with y > 0 only
        up, down = Z[0].imag > 0, Z[0].imag < 0
        shape, Z = Z.shape, Z[:, up]
    vals = mu.eval(Z)
    vals[np.abs(Z) > truncation] = 0.0
    sub = 8
    off = (np.arange(sub) + 0.5) / sub - 0.5
    OX, OY = np.meshgrid(off, off, indexing="ij")
    patch = (OX + 1j * OY).ravel() * d
    for c, r in mu.jump_circles:
        near = np.abs(np.abs(Z - c) - r) < 1.5 * d
        vals[near] = _cell_means(mu, Z[near], patch, truncation)
    if reflect:
        cols = np.arange(n)[box[1]]
        src = n - cols - cols[0]  # y-node j reflects to node n - j
        ok = down & (src >= 0) & (src < cols.size)
        full = np.zeros(shape, dtype=vals.dtype)
        full[:, up] += vals
        vals = full
        vals[:, ok] += np.conj(vals[:, src[ok]])
    return box, vals


# ---------------------------------------------------------------------------
# Quasiconformal maps


@dataclass
class QuasiconformalMap:
    """Grid-sampled normalized solution of a Beltrami equation.

    Inside MARGIN_FRACTION of the grid's half-width, evaluation reads one
    complex cubic B-spline interpolating the grid values: its coefficients
    are prefiltered once, on the grid padded by SPLINE_PAD nodes of odd
    reflection, and each call is one scipy.ndimage.map_coordinates read.
    Outside, it falls back to the Laurent far field (conformal tail) or an
    explicit outer evaluator when one exists.  A plane or half-plane solve
    keeps the coefficient samples it solved for as mu_samples, on the
    rectangle of grid nodes at support (row and column slices) that holds
    their nonzero values; they vanish off it.  It keeps the jump circles
    its residual skips as jump_circles, not the residual itself: residual
    is computed the first time it is read, and kept.
    """

    normalization: Normalization
    grid: ComplexGrid
    conformal_region: tuple | None = None
    mu_samples: np.ndarray | None = None
    support: tuple | None = None
    jump_circles: tuple | None = None
    convergence_ratio: float | None = None
    iteration_trace: list = field(default_factory=list, repr=False)
    far_field: HolomorphicFunction | None = None
    outer_eval: object = None
    symmetry_defect: float | None = None
    halfplane_map: QuasiconformalMap | None = field(default=None, repr=False)
    _residual: float | None = field(default=None, repr=False)
    _spline: object = field(default=None, repr=False)
    _partials: object = field(default=None, repr=False)

    @property
    def residual(self):
        """Beltrami defect of a solved map (_fd_residual against its samples,
        off its jump_circles), computed on the first read and kept; a disk
        self-map reads its half-plane map's.  None for a map that has no
        samples to measure against."""
        if self._residual is None:
            if self.halfplane_map is not None:
                return self.halfplane_map.residual
            if self.jump_circles is not None:
                self._residual = _fd_residual(self, self.jump_circles)
        return self._residual

    def _coefficients(self):
        """Cubic B-spline coefficients of the grid values, on the grid
        padded by SPLINE_PAD nodes."""
        if self._spline is None:
            padded = np.pad(self.grid.values, SPLINE_PAD, mode="reflect",
                            reflect_type="odd")
            self._spline = ndimage.spline_filter(padded, order=3,
                                                 mode="mirror", output=complex)
        return self._spline

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z).ravel()
        out = np.empty_like(zz)
        lim = MARGIN_FRACTION * self.grid.half_width
        inside = (np.abs(zz.real - self.grid.center.real) <= lim) & \
                 (np.abs(zz.imag - self.grid.center.imag) <= lim)
        if inside.any():
            out[inside] = ndimage.map_coordinates(
                self._coefficients(),
                self.grid.coordinates(zz[inside]) + SPLINE_PAD, order=3,
                mode="mirror", prefilter=False)
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
        """Centered-difference (df, dbar f) sampled on the grid, built afresh
        on each call; the map keeps none of them.

        order=4 uses the five-point stencil in the interior (two cells of
        second-order fallback at the edges).  i fy is formed once, fy is
        dropped, and i fy is turned into dbar f in place, so no more than
        three grids are alive at once.
        """
        d = self.grid.spacing
        f = self.grid.values
        fx = np.gradient(f, d, axis=0)
        fy = np.gradient(f, d, axis=1)
        if order == 4:
            fx[2:-2, :] = (-f[4:, :] + 8 * f[3:-1, :] - 8 * f[1:-3, :]
                           + f[:-4, :]) / (12 * d)
            fy[:, 2:-2] = (-f[:, 4:] + 8 * f[:, 3:-1] - 8 * f[:, 1:-3]
                           + f[:, :-4]) / (12 * d)
        ify = 1j * fy
        del fy
        dz = fx - ify
        dz /= 2.0
        ify += fx
        ify /= 2.0
        return dz, ify

    def partials_at(self, z):
        """(df, dbar f) at z, read linearly from the order-2 partial_grids;
        off the grid they read (1, 0).  The first call builds the pair and
        the map keeps it for the next: Newton inversion reads it at every
        step."""
        if self._partials is None:
            self._partials = self.partial_grids()
        dz, dbar = self._partials
        return (self.grid.interpolate_linear(dz, z, 1.0),
                self.grid.interpolate_linear(dbar, z, 0.0))

    def to_json_dict(self):
        return {
            "normalization": self.normalization.value,
            "grid": self.grid.to_json_dict(self.normalization.value),
            "conformal_region": list(self.conformal_region)
            if self.conformal_region else None,
            "residual": self.residual,
        }


# the circle fit of every far field: orders -12 .. 1 from 512 samples,
# terms below 1e-12 of the largest zeroed
FAR_FIELD_FIT = {"orders": range(-12, 2), "n_samples": 512,
                 "noise_rel": 1e-12, "domain": DomainTag.EXTERIOR_DISK}


def identity_map(n=64):
    grid = ComplexGrid(0.0, 4.0, _SpectralKit(n, 4.0).Z)
    ff = HolomorphicFunction([1], [1.0], DomainTag.EXTERIOR_DISK)
    return QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid,
        conformal_region=(0.0, math.inf), mu_samples=np.zeros((n, n)),
        support=(slice(0, n), slice(0, n)), far_field=ff, _residual=0.0)


# ---------------------------------------------------------------------------
# Core solve


@dataclass(frozen=True)
class _BoxSolve:
    """h of one solve and the samples mu_s it solved for, on the support box
    of mu_s: the rectangle of the kit's grid nodes at box (row and column
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

    mu_b is the smallest rectangle of grid nodes holding the support of the
    samples (_support_box): h vanishes wherever they do, so the iteration
    runs on that rectangle alone, with the kit's T restricted to it
    (_box_multiplier).
    """
    mult = _box_multiplier(kit, mu_b.shape)
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
    # steps below 1e-4 x the first one carry rounding, not the contraction
    ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 1e-4 * trace[0]]
    ratio = max(ratios[1:]) if len(ratios) > 2 else (ratios[-1] if ratios else 0.0)
    return h, trace, ratio


def margin_checked_samples(mu, grid_n, reflect=False):
    """(kit, box, samples) of mu as a solve reads them: sampled on the
    node square of its chart (auto_half_width) that holds its support
    (sample_coefficient), given one binomial blur, and checked against the
    chart's outer 10% margin (SolverError when they reach it).  A grid_n
    that is not an integer of at least 1, or not a power of two, raises
    ValueError naming it before anything is sampled."""
    _check_count("grid_n", grid_n)
    if grid_n & (grid_n - 1):
        raise ValueError(f"grid_n must be a power of two, got {grid_n}")
    half_width = auto_half_width(mu.support_radius)
    kit = _SpectralKit(grid_n, half_width)
    box, mu_s = sample_coefficient(mu, grid_n, half_width, reflect)
    mu_s = _binomial_blur(mu_s)
    _check_margin(mu_s, kit.nodes(box), half_width, "coefficient support")
    return kit, box, mu_s


def _box_solve(mu, grid_n, reflect):
    """Box-level part of a solve: h on the support box of the samples of
    mu, with no grid-level P.

    mu is sampled on the node square of its chart (auto_half_width) that
    holds its support (sample_coefficient), and given one mass-preserving
    binomial blur that keeps closed-form agreement at O(spacing^2) while
    suppressing the spectral ringing of sharp interfaces; after the margin
    guard, the Neumann iteration runs on the support box of the samples.
    No array of the whole chart is built.
    """
    if mu.sup_norm >= 0.9:
        raise SolverError("sup_norm >= 0.9 is outside the Neumann regime")
    kit, box, mu_s = margin_checked_samples(mu, grid_n, reflect)
    support = _support_box(mu_s, box)
    # a copy, so that a map keeps no larger base array alive
    mu_s = mu_s[tuple(slice(s.start - b.start, s.stop - b.start)
                      for s, b in zip(support, box))].copy()
    h, trace, ratio = _neumann(kit, mu_s)
    return _BoxSolve(kit, support, h, mu_s, trace, ratio)


def _fd_residual(qc, jump_circles):
    """Beltrami defect |dbar f - mu df| / max|df|, mu the map's samples, on
    the grid nodes inside the margin and more than 3 cells off every jump
    circle.  No solve calls it: QuasiconformalMap.residual does, the first
    time a map's residual is read.  It reads its own order-2 partial grids
    and drops them, so a map that is never inverted keeps none."""
    dz, dbar = qc.partial_grids()
    res = np.abs(dbar)  # mu vanishes off its support box
    box = qc.support
    res[box] = np.abs(dbar[box] - qc.mu_samples * dz[box])
    grid = qc.grid
    Z = grid.nodes()
    lim = MARGIN_FRACTION * grid.half_width
    mask = (np.abs(Z.real) < lim) & (np.abs(Z.imag) < lim)
    for c, r in jump_circles:
        mask &= np.abs(np.abs(Z - c) - r) > 3 * grid.spacing
    return float(res[mask].max() / np.abs(dz).max())


def _solve(mu, grid_n, reflect):
    """Body of solve_plane (reflect=False) and solve_halfplane (reflect=True).

    P is applied to h (_box_solve) on its support box, which
    _SpectralKit.cauchy places on the full padded torus, so no array of the
    chart holds h; z + P[h] is normalized in place by a complex affine map
    (plane) or a real affine map (half-plane, whose reflection symmetry is
    checked on R) pinning the nodes 0 and 1.  The far field is fitted
    (FAR_FIELD_FIT) through the map's own spline on the circle of radius
    0.855 half_width (its held-out residual is recorded, not checked).  The
    solve computes no residual: the map keeps the jump circles the residual
    skips (mu's, and for a half-plane solve their mirror images), and its
    Beltrami defect against the samples off them is computed the first
    time QuasiconformalMap.residual is read.
    The map's chart f, its samples on their support box and its far field's
    arrays are read-only: the map keeps the spline, residual and partial
    grids it derives from them, which a later write would leave stale.
    A grid_n off the powers of two raises ValueError before any sampling
    (margin_checked_samples).
    """
    sol = _box_solve(mu, grid_n, reflect)
    kit = sol.kit
    n, j0 = kit.n, round(kit.half_width / kit.spacing)  # node 0: (j0, j0)
    f = kit.cauchy(sol.h, sol.box)
    f += kit.Z
    i0, i1 = (round((x + kit.half_width) / kit.spacing) for x in (0.0, 1.0))
    if np.abs(kit.nodes(([i0, i1], [j0]))[:, 0] - (0.0, 1.0)).max() > 1e-9:
        raise SolverError("normalization points 0 and 1 are not grid nodes")
    a, b = f[i0, j0], f[i1, j0]
    if reflect:
        a, b = a.real, b.real
    f -= a
    f /= b - a
    defect = None
    jumps = mu.jump_circles
    if reflect:
        defect = float(np.max(np.abs(f[:, j0].imag)))
        if defect > 1e-6:
            cut = "" if math.isfinite(mu.support_radius) else (
                "; the coefficient's support is unbounded and truncated at "
                "0.85 half-width")
            raise SolverError(f"reflection symmetry defect {defect:.2e} on R "
                              f"at N = {n}{cut}", sol.trace)
        jumps += tuple((np.conj(c), r) for c, r in mu.jump_circles)
    f.flags.writeable = sol.mu_s.flags.writeable = False
    qc = QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY,
        grid=ComplexGrid(0.0, kit.half_width, f), mu_samples=sol.mu_s,
        support=sol.box, jump_circles=jumps, convergence_ratio=sol.ratio,
        iteration_trace=sol.trace, symmetry_defect=defect)
    del sol  # free the box h before the far field
    if not reflect:  # a finite support radius is below the half-width
        qc.conformal_region = (min(mu.support_radius, kit.half_width)
                               + 3 * kit.spacing, math.inf)
    far = qc.far_field = HolomorphicFunction.from_callable_on_circle(
        qc, MARGIN_FRACTION * kit.half_width * 0.95, **FAR_FIELD_FIT)
    far.orders.flags.writeable = far.coeffs.flags.writeable = False
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
    [-1.25, 1.25]^2; its residual is its half-plane map's, computed when
    first read.
    """
    if mu.domain is not DomainTag.UNIT_DISK:
        raise SolverError("solve_disk expects a unit-disk coefficient")
    mu_u = cayley(mu)
    fu = solve_halfplane(mu_u, grid_n)

    def outer(z):
        z = np.asarray(z, dtype=complex)
        w = cayley_map(np.where(np.abs(z - 1.0) < 1e-12, 1.0 + 1e-12, z))
        return cayley_inverse(fu(w))

    grid = ComplexGrid(0.0, 1.25,
                       outer(_SpectralKit(min(grid_n, 512), 1.25).Z))
    qc = QuasiconformalMap(
        normalization=Normalization.FIX_THREE_BOUNDARY_POINTS, grid=grid,
        conformal_region=None, mu_samples=None,
        convergence_ratio=fu.convergence_ratio,
        iteration_trace=fu.iteration_trace, outer_eval=outer,
        halfplane_map=fu)
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

    def func(z):
        return f.grid.interpolate_linear(ratio, z, 0.0)

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
    """Sampled composition f o g on g's grid; off the chart it evaluates
    f(g(z)) when g can be evaluated there."""
    vals = f(g.grid.values)
    grid = ComplexGrid(g.grid.center, g.grid.half_width, vals)
    qc = QuasiconformalMap(normalization=g.normalization, grid=grid)
    if g.outer_eval is not None or g.far_field is not None:
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
