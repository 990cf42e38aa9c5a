import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy import ndimage
from scipy.interpolate import RegularGridInterpolator

from teichkit import (
    BeltramiCoefficient,
    DomainTag,
    QuasiconformalMap,
    SolverError,
    beurling_transform,
    chain_rule,
    compose,
    dilatation,
    identity_map,
    invert,
    solve_disk,
    solve_halfplane,
    solve_plane,
)
from teichkit import solver
from teichkit.boundary import welding
from teichkit.domains import ComplexGrid, HolomorphicFunction, cayley
from teichkit.solver import _SpectralKit, _binomial_blur, sample_coefficient

from conftest import TEST_GRID_N


def grid_of(fn, n=512, L=4.0):
    kit = _SpectralKit(n, L)
    return ComplexGrid(0.0, L, fn(kit.Z))


def chart_samples(mu, n, L, reflect=False):
    """sample_coefficient's samples scattered onto the whole n x n chart."""
    box, vals = sample_coefficient(mu, n, L, reflect)
    out = np.zeros((n, n), dtype=vals.dtype)
    out[box] = vals
    return out


def full_chart_samples(mu, n, half_width, reflect=False):
    """Reference: mu sampled on every node of the chart (sample_coefficient
    samples only the square that holds mu's support)."""
    kit = _SpectralKit(n, half_width, 2)
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


def indicator_disk_samples(n=512, L=4.0, r=1.0):
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    return ComplexGrid(0.0, L, chart_samples(ind, n, L))


# ---------------------------------------------------------------------------
# Cauchy transform


def cauchy(h, n, L):
    """P[h] on the chart of n nodes and half-width L, as a solve applies
    it."""
    box = solver._support_box(h)
    return _SpectralKit(n, L).cauchy(h[box], box)


def test_cauchy_zero():
    assert np.abs(cauchy(np.zeros((64, 64), complex), 64, 4.0)).max() == 0.0


def test_cauchy_dbar_identity_on_bump():
    n, L = 1024, 4.0
    kit = _SpectralKit(n, L)
    Z = kit.Z
    h = np.exp(-2 * np.abs(Z) ** 2) * (Z - 0.3)
    P = cauchy(h, n, L)
    d = kit.spacing
    dbar = (np.gradient(P, d, axis=0) + 1j * np.gradient(P, d, axis=1)) / 2
    m = (np.abs(Z.real) < 3.2) & (np.abs(Z.imag) < 3.2)
    assert np.abs(dbar - h)[m].max() / np.abs(h).max() < 1e-4


def test_cauchy_disk_indicator_closed_form():
    # P[chi_D] = conj(z) inside, 1/z outside (sign fixed by dbar P = h)
    n, L = 512, 4.0
    kit = _SpectralKit(n, L)
    Z = kit.Z
    P = cauchy(indicator_disk_samples(n, L).values, n, L)
    exact = np.where(np.abs(Z) < 1, np.conj(Z), 1 / np.where(Z == 0, 1, Z))
    m = (np.abs(np.abs(Z) - 1) > 3 * kit.spacing) & \
        (np.abs(Z.real) < 3.5) & (np.abs(Z.imag) < 3.5)
    assert np.abs(P - exact)[m].max() < 1e-3


def test_cauchy_moments_on_the_box_match_full_grid_sums():
    n, L = 256, 4.0
    kit = _SpectralKit(n, L)
    Z = kit.Z
    h = _bump(Z)
    box = solver._support_box(h)
    assert h[box].shape[0] == 64
    full = [(w * h).sum() * kit.spacing ** 2
            for w in (1.0, Z, Z * Z, Z * Z * Z, np.conj(Z))]
    for got, want in zip(kit.moments(box, h[box]), full):
        assert abs(got - want) <= 1e-14 * abs(want)


def _chart_array_cauchy(kit, h, box):
    """Reference: P as the solver applied it to the chart array h, zero off
    the nodes at box: the forward pass over h's columns from its first to
    its last nonzero one, each zero-padded to the torus."""
    m = kit.pad * kit.n
    w = 2.0 * np.pi * scipy.fft.fftfreq(m, d=kit.spacing)
    spec = np.zeros((m, m), dtype=complex)
    cols = np.flatnonzero(h.any(axis=0))
    if cols.size:
        cols = slice(cols[0], cols[-1] + 1)
        spec[:, cols] = scipy.fft.fft(h[:, cols], n=m, axis=0)
    spec = scipy.fft.fft(spec, axis=1, overwrite_x=True)
    for start in range(0, m, solver.SYMBOL_ROWS):
        rows = slice(start, start + solver.SYMBOL_ROWS)
        spec[rows] *= solver._cauchy_symbol(w[rows, None] + 1j * w[None, :])
    out = solver._ifft2_cropped(spec, *h.shape).copy()
    Z = kit.Z
    m0, m1, m2, m3, mc = kit.moments(box, h[box])
    out = out + (m0 * np.conj(Z) - mc) / kit.torus_area
    c4 = solver.G4_SQUARE / (np.pi * kit.torus_area ** 2)
    out = out + c4 * (m0 * Z ** 3 - 3 * m1 * Z ** 2 + 3 * m2 * Z - m3)
    return out


@pytest.mark.parametrize("n", [64, 96])
def test_cauchy_of_box_data_is_the_chart_array_path(rng, n):
    # h handed over on its box and placed on the torus by the transform:
    # zero data, odd and rectangular boxes (one with zero edge columns),
    # boxes at each edge of the chart, and the whole chart
    kit = _SpectralKit(n, 4.0)
    boxes = [((slice(5, 6), slice(9, 10)), 0.0),
             ((slice(11, 28), slice(20, 37)), 1.0),
             ((slice(3, 12), slice(30, 61)), 1.0),
             ((slice(14, 45), slice(8, 17)), 1.0),
             ((slice(0, 9), slice(n - 13, n)), 1.0),
             ((slice(n - 7, n), slice(0, 21)), 1.0),
             ((slice(0, n), slice(0, n)), 1.0)]
    for box, scale in boxes:
        shape = tuple(s.stop - s.start for s in box)
        h_box = scale * (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
        if shape[1] > 8:
            h_box[:, :2] = h_box[:, -3:] = 0.0
        h = np.zeros((n, n), dtype=complex)
        h[box] = h_box
        got = kit.cauchy(h_box, box)
        assert got.shape == (n, n)
        assert np.array_equal(got, _chart_array_cauchy(kit, h, box))


# ---------------------------------------------------------------------------
# Beurling transform


def test_beurling_zero():
    g = grid_of(lambda Z: np.zeros_like(Z), n=64)
    assert np.abs(beurling_transform(g).values).max() == 0.0


def test_beurling_derivative_identity_gaussian():
    # T[dbar phi] = d phi for phi = exp(-|z|^2), both sides analytic
    n, L = 256, 5.0
    kit = _SpectralKit(n, L)
    Z = kit.Z
    phi = np.exp(-np.abs(Z) ** 2)
    T = beurling_transform(ComplexGrid(0.0, L, -Z * phi)).values
    exact = -np.conj(Z) * phi
    assert np.abs(T - exact).max() / np.abs(exact).max() < 1e-6


def test_beurling_isometry(rng):
    h = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h -= h.mean()
    T = beurling_transform(ComplexGrid(0.0, 4.0, h), pad=1).values
    assert abs(np.linalg.norm(T) / np.linalg.norm(h) - 1) < 1e-10


def test_beurling_indicator_closed_form():
    # T[chi_{rD}] = 0 inside, -r^2/z^2 outside; T is singular (not
    # smoothing), so the comparison uses the solver's mollified samples
    n, L, r = 512, 4.0, 0.5
    kit = _SpectralKit(n, L)
    Z = kit.Z
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    samples = ComplexGrid(0.0, L, _binomial_blur(chart_samples(ind, n, L)))
    T = beurling_transform(samples).values
    exact = np.where(np.abs(Z) < r, 0.0,
                     -(r * r) / np.where(Z == 0, 1, Z * Z))
    m = (np.abs(np.abs(Z) - r) > 3 * kit.spacing) & \
        (np.abs(Z.real) < 3.2) & (np.abs(Z.imag) < 3.2)
    assert np.abs(T - exact)[m].max() < 5e-3


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("mult", ["mult_T", "mult_P"])
def test_spectral_apply_matches_hand_padded_reference(rng, monkeypatch, n,
                                                       pad, mult):
    # the kit builds the symbol a block of rows at a time (here blocks of 24
    # rows, the last one short); the reference builds it whole and
    # multiplies it into the transform in the same order, in place: symbol
    # * spectrum may round differently.  h fills the chart, and then only a
    # box off column 0, so the forward pass skips columns on both sides
    symbol = {"mult_T": solver._beurling_symbol,
              "mult_P": solver._cauchy_symbol}[mult]
    monkeypatch.setattr(solver, "SYMBOL_ROWS", 24)
    kit = solver._SpectralKit(n, 4.0, pad)
    full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    box = np.zeros((n, n), dtype=bool)
    box[n // 8:n // 2 + 3, n // 4 + 1:n // 2 + 7] = True
    m = pad * n
    w = 2.0 * np.pi * scipy.fft.fftfreq(m, d=kit.spacing)
    for h in (full, np.where(box, full, 0.0)):
        hp = np.zeros((m, m), dtype=complex)
        hp[:n, :n] = h
        spec = scipy.fft.fft2(hp)
        spec *= symbol(w[:, None] + 1j * w[None, :])
        ref = scipy.fft.ifft2(spec)[:n, :n]
        assert np.array_equal(kit.spectral(h, symbol), ref)
        if mult == "mult_T":
            assert np.array_equal(kit.beurling(h), ref)


def test_spectral_kit_keeps_no_torus_array(rng):
    # no result holds an array of the (2n)^2 torus, and the kit is geometry
    # only: after transforms, a read of its nodes and a solve it holds no
    # array of any size
    n = 64
    kit = solver._SpectralKit(n, 4.0, 2)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    box = solver._support_box(h)
    for out in (kit.cauchy(h[box], box), kit.beurling(h)):
        assert out.base is None
    assert kit.Z.shape == (n, n)
    solve_disk(BeltramiCoefficient.constant_disk(0.3, 0.5), n)
    assert not [k for k, v in vars(kit).items() if isinstance(v, np.ndarray)]


def _bump(Z):
    """Smooth bump supported in |z - 0.2 + 0.1i| < 1."""
    r2 = np.abs(Z - 0.2 + 0.1j) ** 2
    return np.where(r2 < 1, np.exp(-1 / np.maximum(1 - r2, 1e-300)), 0) \
        * (1 + Z)


@pytest.mark.parametrize("data", [_bump, lambda Z: np.exp(-np.abs(Z) ** 2)])
def test_box_beurling_matches_full_grid(data):
    # the bump's box is 64 of 256 nodes a side; the Gaussian's is the chart
    n, L = 256, 4.0
    kit = _SpectralKit(n, L)
    h = data(kit.Z)
    box = solver._support_box(h)
    assert h[box].shape == ((64, 64) if data is _bump else (n, n))
    got = kit.apply(h[box], solver._box_multiplier(kit, h[box].shape))
    full = kit.beurling(h)[box]  # what beurling_transform applies
    assert np.abs(got - full).max() / np.abs(full).max() < 1e-12


def test_box_beurling_indicator_closed_form():
    # as test_beurling_indicator_closed_form, on the indicator's support box
    n, L, r = 512, 4.0, 0.5
    kit = _SpectralKit(n, L)
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    samples = _binomial_blur(chart_samples(ind, n, L))
    box = solver._support_box(samples)
    T = kit.apply(samples[box], solver._box_multiplier(kit,
                                                      samples[box].shape))
    Z = kit.Z[box]
    exact = np.where(np.abs(Z) < r, 0.0, -(r * r) / np.where(Z == 0, 1, Z * Z))
    m = np.abs(np.abs(Z) - r) > 3 * kit.spacing
    assert m.sum() > 0.5 * m.size
    assert np.abs(T - exact)[m].max() < 5e-3


def _full_torus_neumann(kit, mu_s):
    """Reference: the Neumann iteration with T on the whole padded torus."""
    h = mu_s.copy()
    trace = []
    for _ in range(solver.NEUMANN_MAX_ITER):
        hn = mu_s * (1.0 + kit.beurling(h))
        trace.append(float(np.max(np.abs(hn - h))))
        h = hn
        if trace[-1] < solver.NEUMANN_TOL:
            return h, trace
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("reflect", [False, True])
def test_box_neumann_matches_full_torus(reflect):
    n = 256
    mu = BeltramiCoefficient.constant_disk(0.7, 0.45)
    if reflect:  # welding's half-plane coefficient, reach 3 of half-width 4
        mu = cayley(BeltramiCoefficient.constant_disk(0.3, 0.5))
    kit = _SpectralKit(n, 4.0)
    mu_s = _binomial_blur(chart_samples(mu, n, 4.0, reflect=reflect))
    box = solver._support_box(mu_s)
    # the reflected support is two disks stacked along y
    assert mu_s[box].shape == ((89, 195) if reflect else (31, 31))
    h, trace, _ = solver._neumann(kit, mu_s[box])
    ref, ref_trace = _full_torus_neumann(kit, mu_s)
    assert len(trace) == len(ref_trace)
    assert np.abs(h - ref[box]).max() < 1e-12
    ref[box] = 0.0
    assert not ref.any()  # h vanishes off the box


def test_support_box_of_zero_and_edge_data():
    mu_s = np.zeros((64, 64), dtype=complex)
    assert solver._support_box(mu_s) == (slice(0, 1), slice(0, 1))
    mu_s[60:64, 10:12] = 0.3  # 4 x 2 nodes at the grid edge
    rows, cols = solver._support_box(mu_s)
    assert (rows.start, rows.stop, cols.start, cols.stop) == (60, 64, 10, 12)
    h, trace, _ = solver._neumann(_SpectralKit(64, 4.0), np.zeros((64, 64), complex))
    assert not h.any() and trace == [0.0]


def _row_block_box_multiplier(kit, shape, rows=128):
    """Reference: the multiplier of an nb_a x nb_b box (shape) from the full
    (2N)^2 Beurling symbol, transformed back to the kernel `rows` rows at a
    time."""
    side = kit.pad * kit.n
    idx = []
    for nb in shape:
        m = scipy.fft.next_fast_len(2 * nb)
        i = np.arange(m)
        i[nb:] += side - m  # offsets -(m - nb) .. -1
        idx.append(i)
    w = 2.0 * np.pi * scipy.fft.fftfreq(side, d=kit.spacing)
    cols = np.empty((side, idx[1].size), dtype=complex)
    for r0 in range(0, side, rows):
        W = w[r0:r0 + rows, None] + 1j * w[None, :]
        cols[r0:r0 + rows] = scipy.fft.ifft(solver._beurling_symbol(W),
                                            axis=1)[:, idx[1]]
    kernel = scipy.fft.ifft(cols, axis=0)[idx[0]]
    return scipy.fft.fft2(kernel)


@pytest.mark.parametrize("n", [64, 256, 512])
def test_box_multiplier_matches_row_block_reference(n):
    # nb = 1; an nb whose torus m = next_fast_len(2 nb) has m - nb > nb;
    # and nb = N, whose torus is the whole padded one
    kit = _SpectralKit(n, 4.0)
    for nb in (1, 31, n):
        if nb == 31:
            assert scipy.fft.next_fast_len(2 * nb) - nb > nb
        got = solver._box_multiplier(kit, (nb, nb))
        want = _row_block_box_multiplier(kit, (nb, nb))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("n", [64, 256, 512])
def test_box_multiplier_of_a_rectangle_matches_row_block_reference(n):
    # rectangles of the square cases' sides, each axis gathered by its own
    # offsets, in both orientations
    kit = _SpectralKit(n, 4.0)
    for shape in ((1, 31), (31, n), (n, 1), (n // 2 + 3, 31)):
        got = solver._box_multiplier(kit, shape)
        want = _row_block_box_multiplier(kit, shape)
        assert got.shape == want.shape == tuple(
            scipy.fft.next_fast_len(2 * nb) for nb in shape)
        assert np.abs(got - want).max() <= 2.5e-15


def _columns_first_box_multiplier(kit, shape):
    """Reference: _box_multiplier with the whole (N + 1)^2 quarter built at
    once and transformed along its columns first."""
    M = kit.pad * kit.n
    half = M // 2
    offs = []
    for nb in shape:
        m = scipy.fft.next_fast_len(2 * nb)
        off = np.r_[0:nb, nb - m:0]
        offs.append((off + half) % M - half)
    ra, rb = (np.abs(off).max() + 1 for off in offs)
    j = np.arange(half + 1, dtype=float)
    j2 = j * j
    r2 = j2[:, None] + j2[None, :]
    r2[0, 0] = 1.0
    re = j2[:, None] - j2[None, :]
    re /= r2
    odd = np.multiply.outer(-2.0 * j[1:half], j[1:half])
    odd /= r2[1:half, 1:half]
    re = scipy.fft.dct(scipy.fft.dct(re, type=1, axis=0)[:ra], type=1,
                       axis=1)[:, :rb] / M ** 2
    wa, wb = min(ra, half) - 1, min(rb, half) - 1
    im = np.zeros((ra, rb))
    odd = scipy.fft.dst(odd, type=1, axis=0)[:wa]
    im[1:1 + wa, 1:1 + wb] = scipy.fft.dst(odd, type=1,
                                           axis=1)[:, :wb] / -M ** 2
    w = max(wa, wb)
    r = np.zeros(max(ra, rb))
    r[1:1 + w] = scipy.fft.dst(j[1:half] / (half ** 2 + j2[1:half]),
                               type=1)[:w]
    alt = 1.0 - 2.0 * (np.arange(r.size) & 1)
    nyq_a = np.multiply.outer(alt[:ra], r[:rb] / -M)
    nyq_b = np.multiply.outer(r[:ra] / -M, alt[:rb])
    corner = np.multiply.outer(alt[:ra], alt[:rb] / -M ** 2)
    quads = np.empty((2, ra, 2, rb), dtype=complex)
    for p, sa in enumerate((1.0, -1.0)):
        for q, sb in enumerate((1.0, -1.0)):
            quads[p, :, q].real = re + sb * nyq_a + sa * nyq_b
            quads[p, :, q].imag = (sa * sb) * im + corner
    at = [np.abs(off) + n * (off < 0) for off, n in zip(offs, (ra, rb))]
    return scipy.fft.fft2(quads.reshape(2 * ra, 2 * rb)[np.ix_(*at)])


@pytest.mark.parametrize("rows", [None, 24])
@pytest.mark.parametrize("n", [64, 256, 512])
def test_box_multiplier_is_the_columns_first_build(monkeypatch, n, rows):
    # the quarter is transformed rows first, a block of SYMBOL_ROWS rows at
    # a time (24: blocks that do not divide N + 1); Re S is exactly
    # antisymmetric and Im S exactly symmetric, so it is the columns-first
    # build bit for bit, on every shape of the two reference tests above
    if rows:
        monkeypatch.setattr(solver, "SYMBOL_ROWS", rows)
    kit = _SpectralKit(n, 4.0)
    for shape in ((1, 1), (31, 31), (n, n), (1, 31), (31, n), (n, 1),
                  (n // 2 + 3, 31)):
        got = solver._box_multiplier(kit, shape)
        assert np.array_equal(got, _columns_first_box_multiplier(kit, shape))


def test_box_multiplier_holds_no_quarter_array():
    # a 513^2 float64 quarter holds 2.1 MB; the columns-first build held
    # three at once (6.15 MB)
    kit = _SpectralKit(512, 4.0)
    solver._box_multiplier(kit, (40, 40))
    tracemalloc.start()
    try:
        solver._box_multiplier(kit, (40, 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 513 ** 2 * 8


@pytest.mark.parametrize("shape", [(65, 65), (67, 97), (129, 35),
                                   (33, 131)])
def test_apply_matches_fft2_on_boxes_with_zero_edge_columns(rng, shape):
    # odd and rectangular boxes whose first and last two columns are zero:
    # the forward pass skips them and the inverse the rows past the box,
    # and the spectrum is multiplied in place.  Each torus holds 256 KB or
    # more, where numpy's temporary elision gave mult * fft2(h) the same
    # order; on smaller tori that product rounded the other way
    kit = _SpectralKit(256, 4.0)
    mult = solver._box_multiplier(kit, shape)
    h = np.zeros(shape, dtype=complex)
    core = (shape[0], max(shape[1] - 3, 0))
    h[:, 1:1 + core[1]] = rng.standard_normal(core) + \
        1j * rng.standard_normal(core)
    spec = scipy.fft.fft2(h, s=mult.shape)
    spec *= mult
    ref = scipy.fft.ifft2(spec)[:shape[0], :shape[1]]
    got = kit.apply(h, mult)
    assert got.shape == shape
    assert np.array_equal(got, ref)


def _coefficient_cases():
    gauss = BeltramiCoefficient(  # unbounded support: the whole chart
        DomainTag.PLANE, lambda z: 0.3 * np.exp(-np.abs(z) ** 2), math.inf,
        0.3)
    tail = BeltramiCoefficient(  # truncated at 0.85 of half-width 16
        DomainTag.UPPER_HALF_PLANE, lambda z: 0.4j / (1 + np.abs(z) ** 2),
        math.inf, 0.4)
    weld = cayley(BeltramiCoefficient.constant_disk(0.3, 0.5))
    return {
        "constant_disk": (BeltramiCoefficient.constant_disk(0.7, 0.45),
                          False),
        "welding": (weld, True),
        "unbounded_halfplane": (tail, True),
        "unbounded_plane": (gauss, False),
    }


@pytest.mark.parametrize("case", list(_coefficient_cases()))
def test_box_sampling_matches_full_chart(case):
    mu, reflect = _coefficient_cases()[case]
    n = 128
    L = solver.auto_half_width(mu.support_radius)
    ref = _binomial_blur(full_chart_samples(mu, n, L, reflect))
    box = solver._support_box(ref)
    h, trace, _ = solver._neumann(_SpectralKit(n, L), ref[box])
    sol = solver._box_solve(mu, n, reflect)
    assert sol.box == box and sol.trace == trace
    assert np.array_equal(sol.h, h)
    assert np.array_equal(sol.mu_s, ref[box])
    qc = solver._solve(mu, n, reflect)
    assert qc.support == box
    assert np.array_equal(qc.mu_samples, ref[box])
    ref[box] = 0.0
    assert not ref.any()  # the samples vanish off their support box


@pytest.mark.parametrize("reflect", [False, True])
def test_supersampling_in_blocks_matches_one_evaluation(monkeypatch,
                                                        reflect):
    # welding's half-plane coefficient cuts about 800 cells with its jump
    # circle at n = 256; in blocks of 100 cells (the last one short) the
    # samples equal those of the whole chart evaluated at once
    mu, _ = _coefficient_cases()["welding"]
    monkeypatch.setattr(solver, "SUPERSAMPLE_NODES", 100)
    n, L = 256, 4.0
    Z = _SpectralKit(n, L).Z
    c, r = mu.jump_circles[0]
    assert (np.abs(np.abs(Z - c) - r) < 1.5 * 2 * L / n).sum() > 700
    got = chart_samples(mu, n, L, reflect)
    assert np.array_equal(got, full_chart_samples(mu, n, L, reflect))


def test_supersampling_blocks_die_before_the_mirror_step():
    # welding's coefficient at N = 1024: the traced peak is the supersampled
    # evaluation's 31.9 MiB; while the last block (zs and its values, 3.3 MB
    # each) outlived the loop, the mirror step's peak was 34.2 MiB
    mu, _ = _coefficient_cases()["welding"]
    L = solver.auto_half_width(mu.support_radius)
    solver.sample_coefficient(mu, 1024, L, reflect=True)
    tracemalloc.start()
    try:
        solver.sample_coefficient(mu, 1024, L, reflect=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 33 * 2 ** 20


@pytest.mark.parametrize("case", ["welding", "unbounded_halfplane"])
def test_reflected_solve_reads_mu_above_the_real_axis_only(monkeypatch,
                                                           case):
    # the reflection gives the samples at y < 0, and those at y = 0 are 0
    mu, _ = _coefficient_cases()[case]
    lowest, read = [], mu.eval
    monkeypatch.setattr(mu, "eval", lambda z: lowest.append(
        np.asarray(z).imag.min()) or read(z))
    solve_halfplane(mu, 128)
    assert lowest and min(lowest) > 0


@pytest.mark.parametrize("n, r", [(64, 3.5), (64, 7.0)])
def test_box_sampling_margin_guard(n, r):
    # support radius 7/8 of the half-width, on a node: the samples' blur
    # reaches past 0.9 of it, and the guard on the box says what the full
    # chart's says
    mu = BeltramiCoefficient.constant_disk(0.2, r, DomainTag.PLANE)
    L = solver.auto_half_width(r)
    assert r == 0.875 * L
    ref = _binomial_blur(full_chart_samples(mu, n, L))
    with pytest.raises(SolverError) as want:
        solver._check_margin(ref, _SpectralKit(n, L).Z, L, "coefficient support")
    with pytest.raises(SolverError, match="outer 10% margin") as got:
        solver._box_solve(mu, n, False)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("k", [0.3, 0.6])
def test_neumann_ratio_does_not_read_rounding(k):
    # the contraction ratio comes from steps well above rounding, so a
    # change of mu by one part in 2^50 leaves it in place
    sol = solver._box_solve(BeltramiCoefficient.constant_disk(k, 0.5), 256,
                            False)
    for scale in (1 + 2.0 ** -50, 1 - 2.0 ** -50):
        _, _, ratio = solver._neumann(sol.kit, sol.mu_s * scale)
        assert abs(ratio - sol.ratio) < 1e-10 * sol.ratio


# ---------------------------------------------------------------------------
# solve_plane


def test_solve_plane_zero_is_identity():
    f = solve_plane(BeltramiCoefficient.zero(), grid_n=256)
    z = np.array([0.3 + 0.2j, -1.5j, 2.0 + 1.0j])
    assert np.abs(f(z) - z).max() < 1e-10


def test_solve_plane_closed_form(plane_03_05):
    # exact: (z + 0.3 conj z)/1.075 inside |z|=0.5, (z + 0.075/z)/1.075 outside
    f = plane_03_05
    assert abs(f(2.0 + 0j) - 2.0375 / 1.075) < 1e-3
    assert abs(f(2.0 + 0j) - 1.89535) < 1e-3
    z_in = 0.2 + 0.1j
    assert abs(f(z_in) - (z_in + 0.3 * np.conj(z_in)) / 1.075) < 1e-3
    # normalization
    assert abs(f(0j)) < 1e-12 and abs(f(1.0 + 0j) - 1) < 1e-12
    # far field through the Laurent tail
    assert abs(f(5.0 + 0j) - (5 + 0.075 / 5) / 1.075) < 2e-3


def test_solve_plane_full_disk_support():
    f = solve_plane(BeltramiCoefficient.constant_disk(0.3, 1.0),
                    grid_n=TEST_GRID_N)
    assert abs(f(1j) - 0.7j / 1.3) < 5e-3


def test_solve_plane_residual_contract(plane_03_05):
    assert plane_03_05.residual < 1e-3
    assert plane_03_05.convergence_ratio <= 0.3 + 0.1


def test_residual_is_computed_once_on_first_read(monkeypatch):
    # a solve computes no residual; the first read computes it from the
    # kept jump circles and keeps it, and a disk self-map reads its
    # half-plane map's
    calls, fd = [], solver._fd_residual
    monkeypatch.setattr(solver, "_fd_residual",
                        lambda *a: calls.append(1) or fd(*a))
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    f = solve_plane(mu, grid_n=128)
    assert calls == [] and f.jump_circles == mu.jump_circles
    assert f.residual == f.residual == fd(f, mu.jump_circles)
    assert len(calls) == 1
    disk = solve_disk(mu, grid_n=128)
    assert len(calls) == 1 and disk.jump_circles is None
    fu = disk.halfplane_map
    assert fu.jump_circles == (*cayley(mu).jump_circles,
                               *((np.conj(c), r)
                                 for c, r in cayley(mu).jump_circles))
    assert disk.residual == fu.residual == disk.residual
    assert len(calls) == 2
    assert identity_map().residual == 0.0 and len(calls) == 2


def test_solve_plane_rejects_large_sup_norm():
    mu = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, 0.95), 0.5, 0.95)
    with pytest.raises(SolverError):
        solve_plane(mu, grid_n=64)


@pytest.mark.parametrize("grid_n", [0, -4, 2.5, True])
@pytest.mark.parametrize("solve", ["plane", "halfplane", "disk"])
def test_solves_reject_a_bad_grid_size(solve, grid_n):
    # they used to fail deep in numpy: ZeroDivisionError at 0, a reduction
    # over an empty array at -4 and a TypeError about slices at 2.5
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    solve, mu = {"plane": (solve_plane, mu),
                 "halfplane": (solve_halfplane, cayley(mu)),
                 "disk": (solve_disk, mu)}[solve]
    with pytest.raises(ValueError, match="grid_n must be an integer >= 1"):
        solve(mu, grid_n=grid_n)


@pytest.mark.parametrize("grid_n", [100, 768, 1536])
@pytest.mark.parametrize("solve", ["plane", "halfplane", "disk", "welding",
                                   "welding unbounded"])
def test_solves_reject_a_grid_size_off_the_powers_of_two(monkeypatch, solve,
                                                         grid_n):
    # they used to fail only once the whole solve was done: at the chart
    # ("power of two") or at the normalization ("not grid nodes"); a
    # welding of a coefficient unbounded on U ran its margin check on the
    # whole chart first
    def fail(*args, **kwargs):
        raise AssertionError("sampled or solved before the grid_n check")

    monkeypatch.setattr(solver, "sample_coefficient", fail)
    monkeypatch.setattr(solver, "_neumann", fail)
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    solve, mu = {"plane": (solve_plane, mu),
                 "halfplane": (solve_halfplane, cayley(mu)),
                 "disk": (solve_disk, mu),
                 "welding": (welding, mu),
                 "welding unbounded": (
                     welding, BeltramiCoefficient.constant_disk(0.3, 1.0))}[
                         solve]
    with pytest.raises(ValueError,
                       match=f"grid_n must be a power of two, got {grid_n}"):
        solve(mu, grid_n=grid_n)


def test_solve_plane_support_margin():
    # support without bound fills the widest chart up to its edge
    mu = BeltramiCoefficient(DomainTag.PLANE, lambda z: np.full_like(z, 0.2),
                             math.inf, 0.2)
    with pytest.raises(SolverError, match="margin"):
        solve_plane(mu, grid_n=128)


def test_solve_plane_bounded_support_reaching_margin():
    # reach 3.5 sits on a node at N = 64; the blur carries it one cell on,
    # past 0.9 of half-width 4, so the margin guard fires before any box
    mu = BeltramiCoefficient.constant_disk(0.2, 3.5, DomainTag.PLANE)
    with pytest.raises(SolverError, match="outer 10% margin"):
        solve_plane(mu, grid_n=64)


# ---------------------------------------------------------------------------
# repeated solves


def test_repeated_plane_solve_normalizes_its_chart_again(monkeypatch):
    # a solve keeps nothing: a repeat applies P and normalizes once more,
    # into a chart of its own that equals the first bit for bit
    calls = []
    cauchy = solver._SpectralKit.cauchy
    monkeypatch.setattr(solver._SpectralKit, "cauchy",
                        lambda kit, h, box: calls.append(1)
                        or cauchy(kit, h, box))
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    first = solve_plane(mu, 128)
    again = solve_plane(mu, 128)
    assert len(calls) == 2
    assert again.grid.values is not first.grid.values
    assert np.array_equal(first.grid.values, again.grid.values)
    assert again.iteration_trace == first.iteration_trace
    assert np.array_equal(again.far_field.coeffs, first.far_field.coeffs)


def test_solved_map_hands_out_no_shared_state():
    # what a caller does to one solved map reaches no later solve: the
    # samples and far-field coefficients are read-only, and a repeat
    # builds its trace and far field anew
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    first = solve_plane(mu, 128)
    with pytest.raises(ValueError, match="read-only"):
        first.mu_samples[0, 0] = 1.0
    trace = list(first.iteration_trace)
    first.iteration_trace.append(-1.0)
    far = first.far_field
    coeffs, held = far.coeffs.copy(), far.heldout_residual
    with pytest.raises(ValueError, match="read-only"):
        far.coeffs[0] = 1.0
    far.heldout_residual = -1.0
    first.far_field = HolomorphicFunction([0], [0.0])
    again = solve_plane(mu, 128)
    assert again.iteration_trace == trace
    ref = _binomial_blur(full_chart_samples(mu, 128, 4.0))
    assert again.support == first.support
    assert np.array_equal(again.mu_samples, ref[again.support])
    assert again.far_field is not far
    assert np.array_equal(again.far_field.coeffs, coeffs)
    assert again.far_field.heldout_residual == held


def test_solve_writes_no_files(monkeypatch, tmp_path):
    # solves keep nothing on disk, whatever the environment
    monkeypatch.setenv("TEICHKIT_CACHE_DIR", str(tmp_path))
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    solve_plane(mu, 128)
    solve_halfplane(cayley(mu), 128)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("reflect", [False, True])
def test_solved_map_arrays_are_read_only(reflect):
    # welding hands out maps over the chart, samples and far field of the
    # maps it keeps, so a solve makes them read-only.  The plane and
    # half-plane solves of one half-plane coefficient (as welding runs
    # them) sample it each on its support box: extended by zero, or
    # reflected across R
    mu = cayley(BeltramiCoefficient.constant_disk(0.3, 0.5))
    qc = solver._solve(mu, 128, reflect)
    f = qc.grid.values
    assert f.shape == (128, 128) and f.base is None
    assert f[64, 64].real == 0 and f[80, 64].real == 1  # nodes 0 and 1
    assert (qc.symmetry_defect is None) is not reflect
    ref = _binomial_blur(full_chart_samples(mu, 128, 4.0, reflect))
    assert np.array_equal(qc.mu_samples, ref[qc.support])
    assert qc.mu_samples.base is None  # no sampled square kept alive
    ref[qc.support] = 0.0
    assert not ref.any()
    far = qc.far_field
    for arr in (f, qc.mu_samples, far.orders, far.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_map_keeps_partial_grids_only_once_read():
    # the residual and the dilatation build their partial grids and drop
    # them; partials_at, the Newton reader, keeps its order-2 pair
    f = solve_plane(BeltramiCoefficient.constant_disk(0.3, 0.5), 128)
    assert f._partials is None
    dilatation(f)
    assert f._partials is None
    f.partials_at(0.2 + 0.1j)
    for kept, built in zip(f._partials, f.partial_grids()):
        assert np.array_equal(kept, built)


def test_qcmap_declares_solver_attributes(mu_03_05):
    names = {f.name for f in dataclasses.fields(QuasiconformalMap)}
    assert {"symmetry_defect", "halfplane_map"} <= names
    ident = identity_map(64)
    assert ident.symmetry_defect is None and ident.halfplane_map is None
    f = solve_disk(mu_03_05, grid_n=128)
    assert f.halfplane_map.domain is DomainTag.UPPER_HALF_PLANE
    assert f.halfplane_map.symmetry_defect < 1e-8


def test_solved_maps_say_their_side(mu_03_05):
    # each solve names its side, a composition takes its inner map's, and
    # dilatation reads a disk map's on D and every other map's on the plane
    mu_u = cayley(mu_03_05)
    plane = solve_plane(mu_03_05, grid_n=64)
    half = solve_halfplane(mu_u, grid_n=64)
    disk = solve_disk(mu_03_05, grid_n=64)
    ident = identity_map(64)
    assert plane.domain is ident.domain is DomainTag.PLANE
    assert half.domain is DomainTag.UPPER_HALF_PLANE
    assert disk.domain is DomainTag.UNIT_DISK
    assert disk.halfplane_map.domain is DomainTag.UPPER_HALF_PLANE
    for f, g in ((plane, ident), (ident, half), (disk, disk), (half, plane)):
        assert compose(f, g).domain is g.domain
    for f, side in ((plane, DomainTag.PLANE), (half, DomainTag.PLANE),
                    (disk, DomainTag.UNIT_DISK)):
        assert dilatation(f).domain is side
    # the report names a disk map's three boundary points, and 0, 1,
    # infinity for the rest
    for f, name in ((plane, "FixZeroOneInfinity"),
                    (half, "FixZeroOneInfinity"),
                    (disk, "FixThreeBoundaryPoints")):
        rep = f.to_json_dict()
        assert rep["normalization"] == rep["grid"]["normalization"] == name


def test_jacobian_positive(plane_03_05):
    dz, dbar = plane_03_05.partial_grids()
    jac = np.abs(dz) ** 2 - np.abs(dbar) ** 2
    assert jac[2:-2, 2:-2].min() > 0


# ---------------------------------------------------------------------------
# solve_disk / solve_halfplane


def test_solve_disk_identity():
    f = solve_disk(BeltramiCoefficient.zero(), grid_n=256)
    z = np.array([0.3 + 0.2j, -0.5j, 0.9])
    assert np.abs(f(z) - z).max() < 1e-6


def test_solve_disk_normalization(disk_03_05):
    f = disk_03_05
    assert abs(f(1.0 + 0j) - 1.0) < 1e-6
    assert abs(f(-1.0 + 0j) + 1.0) < 1e-6
    assert abs(f(-1j) + 1j) < 1e-6


def test_solve_disk_boundary_circle(disk_03_05):
    th = np.linspace(0, 2 * np.pi, 181)[:-1]
    vals = disk_03_05(np.exp(1j * th))
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-4


def test_solve_disk_wrong_domain():
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5,
                                           DomainTag.UPPER_HALF_PLANE)
    with pytest.raises(SolverError):
        solve_disk(mu, grid_n=128)


def test_solve_halfplane_fixes_real_line(mu_03_05):
    mu_u = cayley(mu_03_05)
    f = solve_halfplane(mu_u, grid_n=TEST_GRID_N)
    x = np.linspace(-3, 3, 41)
    vals = f(x.astype(complex))
    assert np.abs(vals.imag).max() < 1e-8
    assert np.all(np.diff(vals.real) > 0)
    assert f.symmetry_defect < 1e-8


def test_symmetry_defect_error_names_the_truncated_support():
    # the self-map coefficient of 0.3 chi_D reaches R: its half-plane image
    # is unbounded, and the 0.85 half-width cut leaves a defect above 1e-6
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.3, 1.0))
    with pytest.raises(SolverError, match=r"^reflection symmetry defect "
                       r"4\.81e-06 on R at N = 128; the coefficient's "
                       r"support is unbounded and truncated at 0\.85 "
                       r"half-width$"):
        solve_halfplane(mu_u, grid_n=128)


# ---------------------------------------------------------------------------
# dilatation


def test_dilatation_identity():
    assert np.abs(dilatation(identity_map(128)).eval(
        np.array([0.5 + 0.5j, -1.0j]))).max() < 1e-12


def test_dilatation_synthetic_affine():
    kit = _SpectralKit(128, 4.0)
    grid = ComplexGrid(0.0, 4.0, kit.Z + 0.3 * np.conj(kit.Z))
    f = QuasiconformalMap(domain=DomainTag.PLANE, grid=grid)
    mu = dilatation(f)
    assert np.abs(mu.eval(np.array([0.5, 1.0j, -2.0 + 1.0j])) - 0.3).max() < 1e-12


def test_dilatation_roundtrip(plane_03_05, mu_03_05):
    mu = dilatation(plane_03_05)
    z = np.array([0.2 + 0.1j, 0.3j, 0.40 + 0.05j, 0.7 + 0.2j, 1.5 + 0.5j])
    assert np.abs(mu.eval(z) - mu_03_05.eval(z)).max() < 5e-3


def test_dilatation_rejects_folded_grid():
    kit = _SpectralKit(64, 4.0)
    grid = ComplexGrid(0.0, 4.0, np.conj(kit.Z))  # orientation-reversing
    f = QuasiconformalMap(domain=DomainTag.PLANE, grid=grid)
    with pytest.raises(SolverError):
        dilatation(f)


def test_dilatation_counts_zeroed_nodes():
    # f = z + c conj(z)^2 / 2 has mu = c conj(z): |mu| < 1 on D, and the
    # map folds where |z| >= 1/c, outside D
    c = 1 / 1.1037
    kit = _SpectralKit(64, 1.25)
    grid = ComplexGrid(0.0, 1.25, kit.Z + 0.5 * c * np.conj(kit.Z) ** 2)
    f = QuasiconformalMap(domain=DomainTag.UNIT_DISK, grid=grid)
    folded = c * np.abs(kit.Z[2:-2, 2:-2]) >= 1.0
    assert folded.sum() > 0
    assert dilatation(f).meta["zeroed_nodes"] == folded.sum()


def test_dilatation_of_disk_map_zeroes_nothing(disk_03_05):
    assert dilatation(disk_03_05).meta["zeroed_nodes"] == 0


def _split_interpolation(grid, values, fill, z):
    """Reference: real and imaginary parts read apart by the same order-1
    map_coordinates call."""
    crd = grid.coordinates(z)
    re, im = (ndimage.map_coordinates(part, crd, order=1, mode="constant",
                                      cval=cval)
              for part, cval in ((values.real, fill.real),
                                 (values.imag, fill.imag)))
    return re + 1j * im


def _grid_interpolator(grid, values, fill, z):
    """Cross-check: scipy.interpolate's linear grid interpolator."""
    interp = RegularGridInterpolator(grid.axes(), values, method="linear",
                                     bounds_error=False, fill_value=fill)
    return interp(np.stack([z.real, z.imag], axis=-1))


# grid nodes, points between nodes, and points off the grid (fill values)
INTERP_POINTS = np.array([0.0, 1.0, 0.2 + 0.1j, 0.37 - 0.41j, 1.5 + 0.5j,
                          -3.9 + 3.7j, 5.0 + 1.0j, -4.5j])


def test_partials_at_matches_split_interpolators(plane_03_05):
    grid = plane_03_05.grid
    got = plane_03_05.partials_at(INTERP_POINTS)
    for got_p, part, fill in zip(got, plane_03_05.partial_grids(),
                                 (1.0 + 0.0j, 0.0j)):
        assert np.array_equal(got_p, _split_interpolation(
            grid, part, fill, INTERP_POINTS))
        ref = _grid_interpolator(grid, part, fill, INTERP_POINTS)
        assert np.abs(got_p - ref).max() <= 1e-15 * np.abs(part).max()


def test_dilatation_matches_split_interpolators(plane_03_05):
    dz, dbar = plane_03_05.partial_grids(order=4)
    ratio = dbar / dz
    edge = np.ones(ratio.shape, dtype=bool)
    edge[2:-2, 2:-2] = False
    ratio[edge | (np.abs(ratio) >= 1.0)] = 0.0
    grid = plane_03_05.grid
    # _func is the interpolator, before the support mask of eval
    got = dilatation(plane_03_05)._func(INTERP_POINTS)
    assert np.array_equal(got, _split_interpolation(grid, ratio, 0.0j,
                                                    INTERP_POINTS))
    ref = _grid_interpolator(grid, ratio, 0.0j, INTERP_POINTS)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ratio).max()


def test_far_field_fitted_through_the_maps_spline(mu_03_05):
    maps = (solve_plane(mu_03_05, grid_n=256),
            solve_halfplane(cayley(mu_03_05), grid_n=256))
    for f in maps:
        pad = solver.SPLINE_PAD
        coeffs = ndimage.spline_filter(
            np.pad(f.grid.values, pad, mode="reflect", reflect_type="odd"),
            order=3, mode="mirror", output=complex)
        ref = HolomorphicFunction.from_callable_on_circle(
            lambda z: ndimage.map_coordinates(
                coeffs, f.grid.coordinates(z) + pad, order=3, mode="mirror",
                prefilter=False),
            solver.MARGIN_FRACTION * f.grid.half_width * 0.95,
            **solver.FAR_FIELD_FIT)
        assert np.array_equal(f.far_field.orders, ref.orders)
        assert np.array_equal(f.far_field.coeffs, ref.coeffs)
        assert f.far_field.heldout_residual == ref.heldout_residual


@pytest.mark.parametrize("n", [64, 128, 512])
def test_affine_grids_are_read_exactly(n):
    # the spline's edge condition must continue an affine map exactly up
    # to the 0.9-margin square; a filter of the unpadded grid misses it
    # by 7e-4 at N = 64
    a, b, c = 1.3 - 0.4j, 0.2 + 0.1j, 0.25 + 0.05j
    kit = _SpectralKit(n, 8.0)
    affine = QuasiconformalMap(
        domain=DomainTag.PLANE,
        grid=ComplexGrid(0.0, 8.0, a * kit.Z + b + c * np.conj(kit.Z)))
    for f, exact in ((identity_map(n), lambda z: z),
                     (affine, lambda z: a * z + b + c * np.conj(z))):
        lim = solver.MARGIN_FRACTION * f.grid.half_width
        s = np.linspace(-lim, lim, 181)
        edges = np.concatenate([s + 1j * lim, s - 1j * lim,
                                lim + 1j * s, -lim + 1j * s])
        interior = (s[:, None] + 1j * s[None, :]).ravel()
        for z in (edges, interior):
            assert np.abs(f(z) - exact(z)).max() < 1e-13


# ---------------------------------------------------------------------------
# compose / invert


def test_invert_identity():
    inv = invert(identity_map(128))
    w = np.array([0.5 + 0.5j, -1.0 + 2.0j])
    assert np.abs(inv(w) - w).max() < 1e-12


def test_compose_with_inverse_is_identity(plane_03_05):
    grid = plane_03_05.grid
    inv_map = QuasiconformalMap(
        domain=plane_03_05.domain,
        grid=ComplexGrid(grid.center, grid.half_width,
                         invert(plane_03_05)(grid.nodes())))
    ident = compose(plane_03_05, inv_map)
    z = np.array([0.3 + 0.2j, 1.0 + 1.0j, -0.5 - 0.5j])
    assert np.abs(ident(z) - z).max() < 1e-6


def test_compose_evaluates_off_the_chart_through_both_maps(plane_03_05):
    # identity_map carries the exact far field z, so off its chart the
    # composition is plane_03_05 itself
    comp = compose(plane_03_05, identity_map(128))
    assert comp.far_field is None
    z = np.array([5.0 + 0j, -4.0 + 3.9j, 0.5 - 6.0j])
    assert np.array_equal(comp(z), plane_03_05(z))


def test_invert_residual(plane_03_05):
    inv = invert(plane_03_05)
    w = np.array([0.5 + 0.3j, 1.2 - 0.4j, 2.0 + 0j])
    assert np.abs(plane_03_05(inv(w)) - w).max() < 1e-8


def test_compose_closed_form_affine_pair():
    # constant-coefficient maps are affine inside the support disk; their
    # composition is the affine composition
    k1, k2 = 0.2, 0.1
    kit = _SpectralKit(256, 4.0)

    def affine_map(k):
        grid = ComplexGrid(0.0, 4.0, kit.Z + k * np.conj(kit.Z))
        return QuasiconformalMap(
            domain=DomainTag.PLANE, grid=grid,
            outer_eval=lambda z: z + k * np.conj(z))

    comp = compose(affine_map(k1), affine_map(k2))
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    expected = (z + k2 * np.conj(z)) + k1 * np.conj(z + k2 * np.conj(z))
    assert np.abs(comp(z) - expected).max() < 1e-9


# ---------------------------------------------------------------------------
# chain rule


def test_chain_rule_same_coefficient_vanishes(mu_03_05, disk_03_05):
    cr = chain_rule(mu_03_05, mu_03_05, disk_03_05)
    w = disk_03_05(0.6 * np.exp(1j * np.linspace(0.1, 6.0, 9)))
    assert np.abs(cr.eval(w)).max() == 0.0


def test_chain_rule_zero_nu_returns_mu(mu_03_05):
    cr = chain_rule(mu_03_05, BeltramiCoefficient.zero(), identity_map(128))
    z = np.array([0.2 + 0.1j, 0.45j, 0.3 - 0.3j])
    assert np.abs(cr.eval(z) - mu_03_05.eval(z)).max() == 0.0


def test_chain_rule_affine_constant_case():
    k1, k2 = 0.4, 0.2
    kit = _SpectralKit(256, 4.0)
    grid = ComplexGrid(0.0, 4.0, kit.Z + k2 * np.conj(kit.Z))
    f = QuasiconformalMap(domain=DomainTag.PLANE, grid=grid)
    c1 = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, k1), math.inf, k1)
    c2 = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, k2), math.inf, k2)
    cr = chain_rule(c1, c2, f)
    pts = np.array([0.1 + 0.2j, 0.3 - 0.1j, 0.5j])
    assert np.abs(cr.eval(pts) - (k1 - k2) / (1 - k2 * k1)).max() < 1e-10
