import csv
import json
import math

import numpy as np
import pytest

from teichkit import BeltramiCoefficient, DomainTag, cayley, mp_norm
from teichkit.boundary import (
    BoundaryFunction,
    BoundaryHomeomorphism,
    ba_extend,
    besov_characterization_check,
    besov_seminorm,
    boundary_trace,
    log_derivative,
    roundtrip_phi_distance,
    welding,
    welding_identity_check,
    _certified_far_field,
)
from teichkit.domains import HolomorphicFunction, analytic_besov_norm
from teichkit.solver import SolverError, invert

from conftest import TEST_GRID_N, coefficient


def line_homeo(fn, T=40.0, n=1201):
    x = np.sort(np.unique(np.concatenate(
        [-np.geomspace(1e-4, T, n), [0.0, 1.0, -1.0], np.geomspace(1e-4, T, n)])))
    return BoundaryHomeomorphism(x, fn(x), "line", T, extension=fn)


def power_map(alpha):
    return lambda x: np.sign(x) * np.abs(x) ** alpha


@pytest.fixture(scope="module")
def weld_02():
    return welding(BeltramiCoefficient.constant_disk(0.2, 0.5),
                   grid_n=TEST_GRID_N)


# ---------------------------------------------------------------------------
# carriers


def test_boundary_function_requires_monotone_params():
    with pytest.raises(ValueError):
        BoundaryFunction([0.0, 0.0, 1.0], [1, 2, 3])


def test_homeomorphism_requires_increasing_values():
    with pytest.raises(ValueError):
        BoundaryHomeomorphism([0, 1, 2], [0.0, 0.5, 0.4])


def test_csv_roundtrip(tmp_path):
    x = np.linspace(-3, 3, 31)
    u = BoundaryFunction(x, np.exp(1j * x), "line", 3.0)
    path = tmp_path / "u.csv"
    u.to_csv(path)
    with open(str(path) + ".json") as fh:
        side = json.load(fh)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["parameter", "value"]
    params = np.array([float(t) for t, _ in rows])
    values = np.array([complex(v) for _, v in rows])
    assert side["domain"] == "line" and side["truncation"] == 3.0
    assert np.allclose(values, u.values)
    assert np.allclose(params, u.params)


# ---------------------------------------------------------------------------
# boundary traces


def test_trace_identity_disk():
    from teichkit import solve_disk

    f = solve_disk(BeltramiCoefficient.zero(), grid_n=256)
    tr = boundary_trace(f, n_samples=256)
    assert np.abs(tr.values - tr.params).max() < 1e-8


def test_trace_holomorphic_z():
    tr = boundary_trace(HolomorphicFunction([1], [1.0]), n_samples=256)
    assert np.abs(tr.values - np.exp(1j * tr.params)).max() < 1e-12


def test_trace_disk_solution_is_circle_homeo(disk_03_05):
    tr = boundary_trace(disk_03_05, n_samples=512)
    assert isinstance(tr, BoundaryHomeomorphism)
    assert tr.normalization_defect < 1e-6
    assert np.all(np.diff(tr.values) > 0)


# ---------------------------------------------------------------------------
# Besov seminorms


def test_besov_constant_zero():
    th = 2 * np.pi * np.arange(256) / 256
    u = BoundaryFunction(th, np.full(256, 2.0 + 1.0j), "circle")
    assert besov_seminorm(u, 2).value == 0.0


def test_besov_circle_identity_douglas():
    th = 2 * np.pi * np.arange(512) / 512
    u = BoundaryFunction(th, np.exp(1j * th), "circle")
    rep = besov_seminorm(u, 2)
    assert rep.value == pytest.approx(2 * math.pi, rel=1e-2)
    # Douglas: boundary norm equals 2 sqrt(pi) times the analytic norm
    ana = analytic_besov_norm(HolomorphicFunction([1], [1.0]), 2)
    assert rep.value == pytest.approx(2 * math.sqrt(math.pi) * ana.value,
                                      rel=1e-2)


def test_besov_step_divergent():
    x = np.linspace(-8, 8, 2001)
    u = BoundaryFunction(x, np.where(x > 0, 1.0, 0.0), "line", 8.0,
                         extension=lambda t: np.where(t > 0, 1.0, 0.0))
    assert besov_seminorm(u, 2).divergent


def test_besov_rejects_small_p():
    th = 2 * np.pi * np.arange(64) / 64
    u = BoundaryFunction(th, np.exp(1j * th), "circle")
    with pytest.raises(ValueError):
        besov_seminorm(u, 1.0)


def _dense_pair_sums(x, v, p, circle, bands):
    """Reference: every ordered pair i != j as one n x n matrix."""
    dist = np.abs(x[:, None] - x[None, :])
    if circle:
        dist = np.minimum(dist, 2 * np.pi - dist)
        den = (2 * np.sin(dist / 2)) ** 2
    else:
        den = dist ** 2
    num = np.abs(v[:, None] - v[None, :]) ** p
    off = ~np.eye(x.size, dtype=bool)
    return np.array([np.sum(num[off & (dist > w)] / den[off & (dist > w)])
                     for w in bands])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_banded_pair_sums_match_dense_reference(p):
    from teichkit.boundary import _banded_pair_sums, _circle_kernel, \
        _line_kernel

    rng = np.random.default_rng(3)
    th = 2 * np.pi * np.arange(256) / 256
    xl = np.linspace(-8, 8, 257)
    xn = np.sort(rng.uniform(-5.0, 5.0, 300))
    cases = [(th, np.exp(1j * th) + 0.3 * np.cos(3 * th), True),
             (xl, np.tanh(xl) + 0.1 * xl, False),
             (xn, np.sin(xn) + 0.05 * xn ** 2, False)]
    for x, v, circle in cases:
        dx = x[1] - x[0]
        bands = [k * dx for k in (4, 2, 1)]
        got = _banded_pair_sums(x, v, p, _circle_kernel if circle
                                else _line_kernel, bands)
        ref = _dense_pair_sums(x, v, p, circle, bands)
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_besov_cayley_invariance():
    # u vanishes to second order at z = 1, so the transported function
    # decays like 1/x^2 and the line truncation converges quickly
    th = 2 * np.pi * np.arange(1024) / 1024
    z = np.exp(1j * th)
    u = BoundaryFunction(th, (z - 1.0) ** 2 / (z - 2.0), "circle")
    u_line = cayley(u, "DiskToHalfPlane")
    a = besov_seminorm(u, 2).value
    b = besov_seminorm(u_line, 2).value
    assert b == pytest.approx(a, rel=5e-2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lemma6_comparability(p):
    fams = {
        "z": HolomorphicFunction([1], [1.0]),
        "z2": HolomorphicFunction([2], [1.0]),
        "z3": HolomorphicFunction([3], [1.0]),
        "inv": HolomorphicFunction.from_callable_on_circle(
            lambda z: 1 / (z - 2.0), 0.7, range(0, 48)),
    }
    ratios = []
    for phi in fams.values():
        tr = boundary_trace(phi, n_samples=1024)
        ratios.append(besov_seminorm(tr, p).value
                      / analytic_besov_norm(phi, p).value)
    C_p = max(max(ratios), 1.0 / min(ratios))
    assert C_p < 10.0
    assert max(ratios) / min(ratios) < 1.25
    if p == 2.0:
        # Douglas equality across the whole family
        for r in ratios:
            assert r == pytest.approx(2 * math.sqrt(math.pi), rel=1e-2)


# ---------------------------------------------------------------------------
# welding


def test_welding_zero_identity():
    w = welding(BeltramiCoefficient.zero(), grid_n=256)
    x = np.linspace(-3, 3, 21)
    assert np.abs(w.h.eval(x) - x).max() < 1e-9
    assert w.consistency_sup < 1e-9


def test_welding_consistency(weld_02):
    # two independent computations of the same quasisymmetric map
    assert weld_02.consistency_sup <= 1e-2
    assert weld_02.imag_defect < 5e-2
    assert np.all(np.diff(weld_02.h.values) > 0)


def test_welding_far_field_matches_newton(weld_02):
    # beyond the sampled window h is a fitted Laurent series; it must agree
    # with the Newton inverse g^-1 o f_mu it replaces, and join the samples
    h = weld_02.h
    T = h.truncation
    t = np.geomspace(T, 1e4, 60)
    t = np.concatenate([-t[::-1], t])
    newton = invert(weld_02.g_map)(weld_02.f_map(t.astype(complex))).real
    assert np.all(np.abs(h.extension(t) - newton)
                  <= 1e-9 * np.maximum(1.0, np.abs(t)))
    ends = h.extension(np.array([h.params[0], h.params[-1]]))
    assert h.params[0] == -T and h.params[-1] == T
    assert np.abs(ends - h.values[[0, -1]]).max() <= 1e-9


def test_far_field_fit_certification_rejects_bad_fit():
    ok = _certified_far_field(lambda z: z + 0.5 + 2.0 / z, 40.0)
    assert coefficient(ok, -1) == pytest.approx(2.0, abs=1e-12)
    # a pole at 30 inside |z| = 40 needs far more than the fitted orders
    with pytest.raises(SolverError, match="held-out"):
        _certified_far_field(lambda z: z + 1.0 / (z - 30.0), 40.0)


def test_welding_identity_eq4(weld_02):
    chk = welding_identity_check(weld_02)
    assert chk["sup_discrepancy"] <= 5e-2


def test_welding_affine_first_term_smoke(weld_02):
    # replacing g by an affine map makes the first term a constant shift
    x = np.linspace(-4, 4, 401)
    y = np.linspace(-20, 20, 4001)
    g_affine = BoundaryFunction(y, 2.0 * y + 1.0, "line", 20.0,
                                extension=lambda t: 2.0 * t + 1.0)
    q = np.diff(g_affine.eval(x)) / np.diff(x)
    term = np.log(np.abs(q))
    assert np.abs(term - math.log(2.0)).max() < 1e-12


# ---------------------------------------------------------------------------
# log_derivative


def test_log_derivative_identity_and_affine():
    x = np.linspace(-5, 5, 501)
    ident = BoundaryHomeomorphism(x, x.copy(), "line", 5.0)
    assert np.abs(log_derivative(ident).values).max() < 1e-12
    aff = BoundaryHomeomorphism(x, 3.0 * x, "line", 5.0, fix_tol=None)
    assert np.abs(log_derivative(aff).values - math.log(3.0)).max() < 1e-12


def test_log_derivative_rejects_flat():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    h = BoundaryFunction(x, np.array([0.0, 1.0, 1.0, 2.0]), "line", 3.0)
    with pytest.raises(ValueError):
        log_derivative(h)


def test_log_derivative_of_welding_besov_stable(weld_02):
    ld = log_derivative(weld_02.h.resample(4097))
    rep = besov_seminorm(ld, 2)
    assert not rep.divergent
    vals = [v for _, v in rep.refinements]
    assert abs(vals[-1] - vals[-2]) <= 0.05 * vals[-1]


# ---------------------------------------------------------------------------
# ba_extend


def test_ba_extend_fixes_identity_and_affine():
    probe = (np.linspace(-5, 5, 11)[:, None]
             + 1j * np.geomspace(0.01, 3, 7)[None, :]).ravel()
    ident = line_homeo(lambda x: x)
    assert np.abs(ba_extend(ident).eval(probe)).max() < 1e-10
    aff = line_homeo(lambda x: 2.0 * x + 0.5)
    assert np.abs(ba_extend(aff).eval(probe)).max() < 1e-10


def test_ba_extend_box_kernel_shear():
    probe = (np.linspace(-5, 5, 11)[:, None]
             + 1j * np.geomspace(0.01, 3, 7)[None, :]).ravel()
    ident = line_homeo(lambda x: x)
    ext = ba_extend(ident, kernel="box")
    assert np.abs(np.abs(ext.eval(probe)) - 1.0 / 3.0).max() < 1e-10


def test_ba_extend_power_map_ladder_diverges():
    h = line_homeo(power_map(1.6))
    ext = ba_extend(h)
    assert ext.sup_norm < 1
    assert mp_norm(ext, 2, levels=3).divergent


def test_ba_extend_rejects_degenerate():
    # a near-jump (extreme quasisymmetry modulus) drives |mu| to 1 at the
    # jump scale
    from teichkit import SolverError

    h = line_homeo(lambda x: x + 500.0 * np.tanh(x / 1e-4))
    with pytest.raises(SolverError):
        ba_extend(h)


def test_ba_extend_matches_continuous_gaussian_extension():
    # mu of the exact extension: int phi (1+iv)^2 h' / int phi (1+v^2) h'
    # with h' taken at x + tv
    h = line_homeo(lambda x: x + 0.5 * np.tanh(x))
    z = (np.linspace(-3, 3, 25)[:, None]
         + 1j * np.geomspace(0.05, 2, 15)[None, :]).ravel()
    got = ba_extend(h).eval(z)
    v = np.linspace(-12, 12, 24001)
    phi = np.exp(-0.5 * v * v)
    dh = 1 + 0.5 / np.cosh(z.real[:, None] + z.imag[:, None] * v) ** 2
    want = (dh * phi * (1 + 1j * v) ** 2).sum(axis=1) / \
        (dh * phi * (1 + v * v)).sum(axis=1)
    assert np.abs(got - want).max() <= 5e-4


def test_ba_extend_near_jump_stays_below_one():
    h = line_homeo(lambda x: x + 500.0 * np.tanh(x / 1e-4))
    ext = ba_extend(h, sup_guard=1.0)
    z = (np.linspace(-2e-3, 2e-3, 201)[:, None]
         + 1j * np.geomspace(1e-5, 1e-1, 60)[None, :]).ravel()
    assert np.abs(ext.eval(z)).max() < 1


@pytest.mark.parametrize("kernel", ["gaussian", "box"])
def test_ba_extend_block_size_changes_no_value(monkeypatch, kernel):
    from teichkit import boundary

    ext = ba_extend(line_homeo(lambda x: x + 0.5 * np.tanh(x)), kernel=kernel)
    z = (np.linspace(-30, 30, 60)[:, None]
         + 1j * np.geomspace(1e-3, 20, 50)[None, :]).ravel()
    whole = ext.eval(z)
    monkeypatch.setattr(boundary, "_EXTEND_BLOCK", 777)
    assert np.array_equal(ext.eval(z), whole)


# ---------------------------------------------------------------------------
# characterization coherence


def test_characterization_finite_case():
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    rep = besov_characterization_check(mu, 2, grid_n=TEST_GRID_N)
    v = rep["verdicts"]
    assert v["mu_finite"] and v["besov_finite"] and v["extension_finite"]
    assert v["coherent"]
    assert rep["stages"]["roundtrip"]["phi_distance"] <= 0.1


def test_characterization_divergent_power_class():
    alpha = 1.6
    k = (alpha - 1) / (alpha + 1)
    mu = BeltramiCoefficient(DomainTag.UPPER_HALF_PLANE,
                             lambda z: k * z / np.conj(z), math.inf, k)
    h = line_homeo(power_map(alpha))
    rep = besov_characterization_check(mu, 2, boundary_map=h)
    v = rep["verdicts"]
    assert not v["mu_finite"] and not v["besov_finite"]
    assert not v["extension_finite"]
    assert v["coherent"]
    assert "skipped" in rep["stages"]["roundtrip"]


def test_roundtrip_phi_distance(weld_02):
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    mu_u = cayley(mu, "DiskToHalfPlane")
    ext = ba_extend(weld_02.h)
    assert roundtrip_phi_distance(mu_u, ext, grid_n=TEST_GRID_N) <= 0.1


def test_roundtrip_reads_no_bers_norms(monkeypatch):
    from teichkit import bers

    def unused(*args, **kwargs):
        raise AssertionError("roundtrip computed a Bers-image norm")

    monkeypatch.setattr(bers, "ap_norm", unused)
    monkeypatch.setattr(bers, "ainf_norm", unused)
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    ext = ba_extend(line_homeo(lambda x: x + 0.5 * np.tanh(x)))
    assert np.isfinite(roundtrip_phi_distance(mu, ext, grid_n=128))
