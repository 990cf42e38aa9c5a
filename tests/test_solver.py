import dataclasses
import math

import numpy as np
import pytest

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
from teichkit.solver import _kit, invert_map, sample_coefficient

from conftest import TEST_GRID_N


def grid_of(fn, n=512, L=4.0):
    kit = _kit(n, L)
    return ComplexGrid(0.0, L, fn(kit.Z))


def indicator_disk_samples(n=512, L=4.0, r=1.0):
    ind = BeltramiCoefficient(DomainTag.PLANE,
                              lambda z: np.where(np.abs(z) < r, 1.0, 0.0),
                              r, 0.5, jump_circles=((0.0, r),))
    return ComplexGrid(0.0, L, sample_coefficient(ind, n, L, mollify=False))


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
    samples = ComplexGrid(0.0, L, sample_coefficient(ind, n, L, mollify=True))
    T = beurling_transform(samples).values
    exact = np.where(np.abs(Z) < r, 0.0,
                     -(r * r) / np.where(Z == 0, 1, Z * Z))
    m = (np.abs(np.abs(Z) - r) > 3 * kit.spacing) & \
        (np.abs(Z.real) < 3.2) & (np.abs(Z.imag) < 3.2)
    assert np.abs(T - exact)[m].max() < 5e-3


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
    mu = BeltramiCoefficient(DomainTag.PLANE,
                             lambda z: np.where(np.abs(z) < 3.9, 0.2, 0.0),
                             3.9, 0.2)
    with pytest.raises(SolverError):
        solve_plane(mu, grid_n=128, half_width=4.0)


# ---------------------------------------------------------------------------
# solve cache


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Empty memo and an empty disk cache directory for one test."""
    monkeypatch.setattr(solver, "_MEMO", {})
    monkeypatch.setenv("TEICHKIT_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("through_disk", [False, True])
def test_solve_cache_keys_on_tolerance(fresh_cache, through_disk):
    mu = BeltramiCoefficient.constant_disk(0.5, 0.5)
    loose = solve_plane(mu, 256, tol=1e-2)
    if through_disk:
        solver._MEMO.clear()
    tight = solve_plane(mu, 256, tol=1e-11)
    assert loose.iteration_trace[-1] >= 1e-11
    assert tight.iteration_trace[-1] < 1e-11
    assert len(tight.iteration_trace) > len(loose.iteration_trace)


@pytest.mark.parametrize("through_disk", [False, True])
def test_solve_cache_keys_on_mollify(fresh_cache, through_disk):
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    solve_plane(mu, 128, mollify=True)
    if through_disk:
        solver._MEMO.clear()
    raw = solve_plane(mu, 128, mollify=False)
    assert np.array_equal(raw.mu_samples,
                          sample_coefficient(mu, 128, 4.0, mollify=False))


def test_solve_cache_leaves_one_file(fresh_cache):
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    first = solve_plane(mu, 128)
    (name,) = [p.name for p in fresh_cache.iterdir()]  # no temp file left
    assert name.startswith("solve_") and name.endswith(".npz")
    solver._MEMO.clear()
    again = solve_plane(mu, 128)  # read back from the file
    assert np.array_equal(again.grid.values, first.grid.values)
    assert again.iteration_trace == first.iteration_trace


def test_solve_cache_failed_write_leaves_no_file(fresh_cache, monkeypatch):
    def torn_write(file, **arrays):
        if isinstance(file, str):
            with open(file, "wb") as fh:
                fh.write(b"PK partial")
        else:
            file.write(b"PK partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", torn_write)
    with pytest.raises(OSError, match="disk full"):
        solve_plane(BeltramiCoefficient.constant_disk(0.3, 0.5), 128)
    assert list(fresh_cache.iterdir()) == []


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


# ---------------------------------------------------------------------------
# compose / invert


def test_invert_identity():
    inv = invert(identity_map(128))
    w = np.array([0.5 + 0.5j, -1.0 + 2.0j])
    assert np.abs(inv(w) - w).max() < 1e-12


def test_compose_with_inverse_is_identity(plane_03_05):
    inv_map = invert_map(plane_03_05)
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
