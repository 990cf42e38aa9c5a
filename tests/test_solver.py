import dataclasses
import math

import numpy as np
import pytest
import scipy.fft
from scipy.interpolate import RectBivariateSpline, RegularGridInterpolator

from teichkit import (
    BeltramiCoefficient,
    DomainTag,
    Normalization,
    QuasiconformalMap,
    SolverError,
    beurling_transform,
    cauchy_transform,
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
from teichkit.domains import ComplexGrid, cayley
from teichkit.solver import _binomial_blur, _kit, sample_coefficient

from conftest import TEST_GRID_N


def grid_of(fn, n=512, L=4.0):
    kit = _kit(n, L)
    return ComplexGrid(0.0, L, fn(kit.Z))


def indicator_disk_samples(n=512, L=4.0, r=1.0):
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    return ComplexGrid(0.0, L, sample_coefficient(ind, n, L))


# ---------------------------------------------------------------------------
# Cauchy transform


def test_cauchy_zero():
    g = grid_of(lambda Z: np.zeros_like(Z), n=64)
    assert np.abs(cauchy_transform(g).values).max() == 0.0


def test_cauchy_dbar_identity_on_bump():
    n, L = 1024, 4.0
    kit = _kit(n, L)
    Z = kit.Z
    h = np.exp(-2 * np.abs(Z) ** 2) * (Z - 0.3)
    P = cauchy_transform(ComplexGrid(0.0, L, h)).values
    d = kit.spacing
    dbar = (np.gradient(P, d, axis=0) + 1j * np.gradient(P, d, axis=1)) / 2
    m = (np.abs(Z.real) < 3.2) & (np.abs(Z.imag) < 3.2)
    assert np.abs(dbar - h)[m].max() / np.abs(h).max() < 1e-4


def test_cauchy_disk_indicator_closed_form():
    # P[chi_D] = conj(z) inside, 1/z outside (sign fixed by dbar P = h)
    n, L = 512, 4.0
    kit = _kit(n, L)
    Z = kit.Z
    P = cauchy_transform(indicator_disk_samples(n, L)).values
    exact = np.where(np.abs(Z) < 1, np.conj(Z), 1 / np.where(Z == 0, 1, Z))
    m = (np.abs(np.abs(Z) - 1) > 3 * kit.spacing) & \
        (np.abs(Z.real) < 3.5) & (np.abs(Z.imag) < 3.5)
    assert np.abs(P - exact)[m].max() < 1e-3


def test_cauchy_margin_guard():
    g = grid_of(lambda Z: np.ones_like(Z), n=64)
    with pytest.raises(SolverError):
        cauchy_transform(g)


# ---------------------------------------------------------------------------
# Beurling transform


def test_beurling_zero():
    g = grid_of(lambda Z: np.zeros_like(Z), n=64)
    assert np.abs(beurling_transform(g).values).max() == 0.0


def test_beurling_derivative_identity_gaussian():
    # T[dbar phi] = d phi for phi = exp(-|z|^2), both sides analytic
    n, L = 256, 5.0
    kit = _kit(n, L)
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
    kit = _kit(n, L)
    Z = kit.Z
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    samples = ComplexGrid(0.0, L, _binomial_blur(sample_coefficient(ind, n, L)))
    T = beurling_transform(samples).values
    exact = np.where(np.abs(Z) < r, 0.0,
                     -(r * r) / np.where(Z == 0, 1, Z * Z))
    m = (np.abs(np.abs(Z) - r) > 3 * kit.spacing) & \
        (np.abs(Z.real) < 3.2) & (np.abs(Z.imag) < 3.2)
    assert np.abs(T - exact)[m].max() < 5e-3


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("mult", ["mult_T", "mult_P"])
def test_spectral_apply_matches_hand_padded_reference(rng, n, pad, mult):
    kit = solver._SpectralKit(n, 4.0, pad)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = pad * n
    hp = np.zeros((m, m), dtype=complex)
    hp[:n, :n] = h
    ref = scipy.fft.ifft2(getattr(kit, mult) * scipy.fft.fft2(hp))[:n, :n]
    assert np.array_equal(kit.apply(h, getattr(kit, mult)), ref)


def _bump(Z):
    """Smooth bump supported in |z - 0.2 + 0.1i| < 1."""
    r2 = np.abs(Z - 0.2 + 0.1j) ** 2
    return np.where(r2 < 1, np.exp(-1 / np.maximum(1 - r2, 1e-300)), 0) \
        * (1 + Z)


@pytest.mark.parametrize("data", [_bump, lambda Z: np.exp(-np.abs(Z) ** 2)])
def test_box_beurling_matches_full_grid(data):
    # the bump's box is 64 of 256 nodes a side; the Gaussian's is the chart
    n, L = 256, 4.0
    kit = _kit(n, L)
    h = data(kit.Z)
    box = solver._support_box(h)
    nb = h[box].shape[0]
    assert nb == (64 if data is _bump else n)
    got = kit.apply(h[box], solver._box_multiplier(kit, nb))
    full = kit.beurling(h)[box]  # what beurling_transform applies
    assert np.abs(got - full).max() / np.abs(full).max() < 1e-12


def test_box_beurling_indicator_closed_form():
    # as test_beurling_indicator_closed_form, on the indicator's support box
    n, L, r = 512, 4.0, 0.5
    kit = _kit(n, L)
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    samples = _binomial_blur(sample_coefficient(ind, n, L))
    box = solver._support_box(samples)
    nb = samples[box].shape[0]
    T = kit.apply(samples[box], solver._box_multiplier(kit, nb))
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
        mu = cayley(BeltramiCoefficient.constant_disk(0.3, 0.5),
                    "DiskToHalfPlane")
    kit = _kit(n, 4.0)
    mu_s = _binomial_blur(sample_coefficient(mu, n, 4.0, reflect=reflect))
    nb = mu_s[solver._support_box(mu_s)].shape[0]
    assert nb == (195 if reflect else 31)
    h, trace, _ = solver._neumann(kit, mu_s)
    ref, ref_trace = _full_torus_neumann(kit, mu_s)
    assert len(trace) == len(ref_trace)
    assert np.abs(h - ref).max() < 1e-12


def test_support_box_of_zero_and_edge_data():
    mu_s = np.zeros((64, 64), dtype=complex)
    assert solver._support_box(mu_s) == (slice(0, 1), slice(0, 1))
    mu_s[60:64, 10:12] = 0.3  # 4 x 2 nodes at the grid edge
    rows, cols = solver._support_box(mu_s)
    assert (rows.start, rows.stop, cols.start, cols.stop) == (60, 64, 10, 14)
    h, trace, _ = solver._neumann(_kit(64, 4.0), np.zeros((64, 64), complex))
    assert not h.any() and trace == [0.0]


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


def test_solve_plane_rejects_large_sup_norm():
    mu = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, 0.95), 0.5, 0.95)
    with pytest.raises(SolverError):
        solve_plane(mu, grid_n=64)


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
# solve cache


@pytest.fixture
def fresh_cache(monkeypatch):
    """Empty solve memo for one test."""
    monkeypatch.setattr(solver, "_MEMO", {})


# memo only: a solve never goes through a file
@pytest.mark.parametrize("through_disk", [False])
def test_solve_cache_keys_on_plane_or_halfplane(fresh_cache, through_disk):
    # welding solves the same half-plane coefficient on the plane (mu
    # extended by zero) and as a self-map of U (mu reflected across R)
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.3, 0.5),
                  "DiskToHalfPlane")
    plane = solve_plane(mu_u, 128)
    half = solve_halfplane(mu_u, 128)
    assert list(solver._MEMO) == [(mu_u.cache_token, 128, False),
                                  (mu_u.cache_token, 128, True)]
    assert np.array_equal(plane.mu_samples,
                          _binomial_blur(sample_coefficient(mu_u, 128, 4.0)))
    assert np.array_equal(
        half.mu_samples,
        _binomial_blur(sample_coefficient(mu_u, 128, 4.0, reflect=True)))


def test_solve_memo_evicts_oldest_by_bytes(fresh_cache, monkeypatch):
    entry = 2 * 64 * 64 * 16  # f and mu_s, complex, at N = 64
    monkeypatch.setattr(solver, "_MEMO_BYTES", 2 * entry + entry // 2)
    mus = [BeltramiCoefficient.constant_disk(0.3, r) for r in (0.3, 0.4, 0.5)]
    keys = [solver._solve_key(mu, 64, False) for mu in mus]
    for mu in mus[:2]:
        solve_plane(mu, 64)
    assert list(solver._MEMO) == keys[:2]
    solve_plane(mus[2], 64)
    assert list(solver._MEMO) == keys[1:]
    assert sum(r[0].nbytes + r[1].nbytes
               for r in solver._MEMO.values()) == 2 * entry
    monkeypatch.setattr(solver, "_MEMO_BYTES", entry - 1)
    solve_plane(mus[0], 64)  # larger than the cap alone: kept nowhere
    assert solver._MEMO == {}


def test_solve_writes_no_files(fresh_cache, monkeypatch, tmp_path):
    # solves are memoized in the process only, whatever the environment
    monkeypatch.setenv("TEICHKIT_CACHE_DIR", str(tmp_path))
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    solve_plane(mu, 128)
    solve_halfplane(cayley(mu, "DiskToHalfPlane"), 128)
    assert list(tmp_path.iterdir()) == []


# memo only: a solve is never read back from a file
@pytest.mark.parametrize("from_disk", [False])
def test_solve_memo_hands_out_no_shared_state(fresh_cache, from_disk):
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    first = solve_plane(mu, 128)
    with pytest.raises(ValueError, match="read-only"):
        first.mu_samples[0, 0] = 1.0
    trace = list(first.iteration_trace)
    first.iteration_trace.append(-1.0)
    again = solve_plane(mu, 128)
    assert again.iteration_trace == trace
    assert np.array_equal(again.mu_samples,
                          _binomial_blur(sample_coefficient(mu, 128, 4.0)))


def test_qcmap_declares_solver_attributes(mu_03_05):
    names = {f.name for f in dataclasses.fields(QuasiconformalMap)}
    assert {"symmetry_defect", "halfplane_map"} <= names
    ident = identity_map(64)
    assert ident.symmetry_defect is None and ident.halfplane_map is None
    f = solve_disk(mu_03_05, grid_n=128)
    assert f.halfplane_map.normalization is Normalization.FIX_ZERO_ONE_INFINITY
    assert f.halfplane_map.symmetry_defect < 1e-8


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
    mu_u = cayley(mu_03_05, "DiskToHalfPlane")
    f = solve_halfplane(mu_u, grid_n=TEST_GRID_N)
    x = np.linspace(-3, 3, 41)
    vals = f(x.astype(complex))
    assert np.abs(vals.imag).max() < 1e-8
    assert np.all(np.diff(vals.real) > 0)
    assert f.symmetry_defect < 1e-8


# ---------------------------------------------------------------------------
# dilatation


def test_dilatation_identity():
    assert np.abs(dilatation(identity_map(128)).eval(
        np.array([0.5 + 0.5j, -1.0j]))).max() < 1e-12


def test_dilatation_synthetic_affine():
    kit = _kit(128, 4.0)
    grid = ComplexGrid(0.0, 4.0, kit.Z + 0.3 * np.conj(kit.Z))
    f = QuasiconformalMap(normalization=Normalization.FIX_ZERO_ONE_INFINITY,
                          grid=grid)
    mu = dilatation(f)
    assert np.abs(mu.eval(np.array([0.5, 1.0j, -2.0 + 1.0j])) - 0.3).max() < 1e-12


def test_dilatation_roundtrip(plane_03_05, mu_03_05):
    mu = dilatation(plane_03_05)
    z = np.array([0.2 + 0.1j, 0.3j, 0.40 + 0.05j, 0.7 + 0.2j, 1.5 + 0.5j])
    assert np.abs(mu.eval(z) - mu_03_05.eval(z)).max() < 5e-3


def test_dilatation_rejects_folded_grid():
    kit = _kit(64, 4.0)
    grid = ComplexGrid(0.0, 4.0, np.conj(kit.Z))  # orientation-reversing
    f = QuasiconformalMap(normalization=Normalization.FIX_ZERO_ONE_INFINITY,
                          grid=grid)
    with pytest.raises(SolverError):
        dilatation(f)


def test_dilatation_counts_zeroed_nodes():
    # f = z + c conj(z)^2 / 2 has mu = c conj(z): |mu| < 1 on D, and the
    # map folds where |z| >= 1/c, outside D
    c = 1 / 1.1037
    kit = _kit(64, 1.25)
    grid = ComplexGrid(0.0, 1.25, kit.Z + 0.5 * c * np.conj(kit.Z) ** 2)
    f = QuasiconformalMap(
        normalization=Normalization.FIX_THREE_BOUNDARY_POINTS, grid=grid)
    folded = c * np.abs(kit.Z[2:-2, 2:-2]) >= 1.0
    assert folded.sum() > 0
    assert dilatation(f).meta["zeroed_nodes"] == folded.sum()


def test_dilatation_of_disk_map_zeroes_nothing(disk_03_05):
    assert dilatation(disk_03_05).meta["zeroed_nodes"] == 0


def _split_interpolation(axes, values, fill, z):
    """Reference: real and imaginary parts interpolated apart."""
    pts = np.stack([z.real, z.imag], axis=-1)
    re = RegularGridInterpolator(axes, values.real, method="linear",
                                 bounds_error=False, fill_value=fill.real)
    im = RegularGridInterpolator(axes, values.imag, method="linear",
                                 bounds_error=False, fill_value=fill.imag)
    return re(pts) + 1j * im(pts)


# grid nodes, points between nodes, and points off the grid (fill values)
INTERP_POINTS = np.array([0.0, 1.0, 0.2 + 0.1j, 0.37 - 0.41j, 1.5 + 0.5j,
                          -3.9 + 3.7j, 5.0 + 1.0j, -4.5j])


def test_partials_at_matches_split_interpolators(plane_03_05):
    dz, dbar = plane_03_05.partial_grids()
    axes = plane_03_05.grid.axes()
    got_dz, got_dbar = plane_03_05.partials_at(INTERP_POINTS)
    assert np.array_equal(got_dz, _split_interpolation(
        axes, dz, 1.0 + 0.0j, INTERP_POINTS))
    assert np.array_equal(got_dbar, _split_interpolation(
        axes, dbar, 0.0j, INTERP_POINTS))


def test_dilatation_matches_split_interpolators(plane_03_05):
    dz, dbar = plane_03_05.partial_grids(order=4)
    ratio = dbar / dz
    edge = np.ones(ratio.shape, dtype=bool)
    edge[2:-2, 2:-2] = False
    ratio[edge | (np.abs(ratio) >= 1.0)] = 0.0
    ref = _split_interpolation(plane_03_05.grid.axes(), ratio, 0.0j,
                               INTERP_POINTS)
    # _func is the interpolator, before the support mask of eval
    assert np.array_equal(dilatation(plane_03_05)._func(INTERP_POINTS), ref)


def test_far_field_fitted_through_the_maps_spline(mu_03_05):
    maps = (solve_plane(mu_03_05, grid_n=256),
            solve_halfplane(cayley(mu_03_05, "DiskToHalfPlane"), grid_n=256))
    for f in maps:
        x, y = f.grid.axes()
        ire = RectBivariateSpline(x, y, f.grid.values.real, kx=3, ky=3)
        iim = RectBivariateSpline(x, y, f.grid.values.imag, kx=3, ky=3)
        ref = solver._far_field_series(
            lambda z: ire.ev(z.real, z.imag) + 1j * iim.ev(z.real, z.imag),
            solver.MARGIN_FRACTION * f.grid.half_width * 0.95)
        assert np.array_equal(f.far_field.orders, ref.orders)
        assert np.array_equal(f.far_field.coeffs, ref.coeffs)


# ---------------------------------------------------------------------------
# compose / invert


def test_invert_identity():
    inv = invert(identity_map(128))
    w = np.array([0.5 + 0.5j, -1.0 + 2.0j])
    assert np.abs(inv(w) - w).max() < 1e-12


def test_compose_with_inverse_is_identity(plane_03_05):
    grid = plane_03_05.grid
    inv_map = QuasiconformalMap(
        normalization=plane_03_05.normalization,
        grid=ComplexGrid(grid.center, grid.half_width,
                         invert(plane_03_05)(grid.nodes())))
    ident = compose(plane_03_05, inv_map)
    z = np.array([0.3 + 0.2j, 1.0 + 1.0j, -0.5 - 0.5j])
    assert np.abs(ident(z) - z).max() < 1e-6


def test_invert_residual(plane_03_05):
    inv = invert(plane_03_05)
    w = np.array([0.5 + 0.3j, 1.2 - 0.4j, 2.0 + 0j])
    assert np.abs(plane_03_05(inv(w)) - w).max() < 1e-8


def test_compose_closed_form_affine_pair():
    # constant-coefficient maps are affine inside the support disk; their
    # composition is the affine composition
    k1, k2 = 0.2, 0.1
    kit = _kit(256, 4.0)

    def affine_map(k):
        grid = ComplexGrid(0.0, 4.0, kit.Z + k * np.conj(kit.Z))
        return QuasiconformalMap(
            normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid,
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
    kit = _kit(256, 4.0)
    grid = ComplexGrid(0.0, 4.0, kit.Z + k2 * np.conj(kit.Z))
    f = QuasiconformalMap(normalization=Normalization.FIX_ZERO_ONE_INFINITY,
                          grid=grid)
    c1 = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, k1), math.inf, k1)
    c2 = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, k2), math.inf, k2)
    cr = chain_rule(c1, c2, f)
    pts = np.array([0.1 + 0.2j, 0.3 - 0.1j, 0.5j])
    assert np.abs(cr.eval(pts) - (k1 - k2) / (1 - k2 * k1)).max() < 1e-10
