import csv
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import integrate

from teichkit import BeltramiCoefficient, DomainError, DomainTag, cayley, \
    mp_norm
from teichkit import boundary, exact, solver
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
)
from teichkit.domains import ComplexGrid, HolomorphicFunction, \
    analytic_besov_norm, cayley_inverse
from teichkit.solver import FAR_FIELD_FIT, NEWTON_TOL, SolverError, \
    _support_box, invert, solve_disk, solve_halfplane, solve_plane

from conftest import TEST_GRID_N, coefficient


def line_homeo(fn, T=40.0, n=1201):
    x = np.sort(np.unique(np.concatenate(
        [-np.geomspace(1e-4, T, n), [0.0, 1.0, -1.0], np.geomspace(1e-4, T, n)])))
    return BoundaryHomeomorphism(x, fn(x), extension=fn)


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


@pytest.mark.parametrize("params, values, name", [
    ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0], "params"),
    ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0], "params"),
    ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0], "values"),
    ([0.0, 1.0, 2.0], [0.0, complex(1.0, math.inf), 2.0], "values"),
], ids=["nan_param", "inf_param", "nan_value", "inf_complex_value"])
def test_boundary_function_rejects_non_finite_data(params, values, name):
    # a NaN parameter passed the monotonicity check, whose comparisons are
    # False on NaN, and eval(0.5) read nan
    with pytest.raises(ValueError, match=f"boundary data {name} must be "
                                         "finite"):
        BoundaryFunction(params, values)


@pytest.mark.parametrize("domain", ["Line", "disk", None])
def test_boundary_function_rejects_an_unknown_domain(domain):
    # an unknown domain neither wrapped nor raised, and np.interp clamped:
    # 'Line' data read 1.0 at 5.0
    with pytest.raises(ValueError, match="'circle' or 'line'"):
        BoundaryFunction([0.0, 1.0], [0.0, 1.0], domain)


def test_homeomorphism_requires_increasing_values():
    with pytest.raises(ValueError):
        BoundaryHomeomorphism([0, 1, 2], [0.0, 0.5, 0.4])


def test_csv_roundtrip(tmp_path):
    x = np.linspace(-3, 3, 31)
    u = BoundaryFunction(x, np.exp(1j * x), "line")
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


def test_truncation_and_normalization_are_read_off_the_data():
    # the line's truncation is its last parameter, the circle has none;
    # only a line homeomorphism carries the normalization 0, 1, infinity
    x = np.linspace(-3.0, 2.5, 12)
    th = 2 * np.pi * np.arange(16) / 16
    line = BoundaryFunction(x, np.exp(1j * x))
    homeo = BoundaryHomeomorphism(x, 2.0 * x, fix_tol=None)
    circle = BoundaryFunction(th, np.cos(th), "circle")
    assert line.truncation == homeo.truncation == x[-1] == 2.5
    assert circle.truncation is None
    assert homeo.domain == "line"
    assert homeo.normalization == "fix 0, 1, infinity"
    assert line.normalization is circle.normalization is None


def test_circle_data_starting_above_zero_wrap_over_the_closing_segment():
    # angles below the first parameter lie on the closing segment, from the
    # last parameter to the first one a turn on
    th = 0.1 + (2 * np.pi - 0.2) * np.arange(64) / 63
    u = BoundaryFunction(th, np.sin(th), "circle")
    t = np.array([0.05, -0.05, 2 * np.pi - 0.05, 2 * np.pi + 0.05])
    assert np.abs(u.eval(t) - np.sin(t)).max() < 2e-3
    assert u.eval(0.0) == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(u.eval(th), u.values)
    assert np.abs(u.eval(th + 2 * np.pi) - u.values).max() < 1e-12


# ---------------------------------------------------------------------------
# boundary traces


def test_trace_of_a_disk_or_plane_map_raises():
    # only a half-plane self-map has a trace on R: a disk self-map read as
    # one would give a line trace without an error
    disk = solve_disk(BeltramiCoefficient.zero(), grid_n=256)
    with pytest.raises(DomainError, match="not a disk self-map"):
        boundary_trace(disk, n_samples=256)
    plane = solve_plane(BeltramiCoefficient.constant_disk(0.2, 0.5), 256)
    with pytest.raises(DomainError, match="not a plane map"):
        boundary_trace(plane, n_samples=256)


def test_trace_holomorphic_z():
    tr = boundary_trace(HolomorphicFunction([1], [1.0]), n_samples=256)
    assert np.abs(tr.values - np.exp(1j * tr.params)).max() < 1e-12


def test_trace_of_a_series_is_its_values_on_the_circle():
    phi = HolomorphicFunction(np.arange(48), -0.5 ** np.arange(1.0, 49.0))
    tr = boundary_trace(phi, n_samples=256)
    th = 2 * np.pi * np.arange(256) / 256
    assert np.array_equal(tr.params, th)
    assert np.array_equal(tr.values, phi.eval(np.exp(1j * th)))


def test_trace_of_a_halfplane_map_reads_its_spline_on_the_line():
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.2, 0.5))
    selfmap = solve_halfplane(mu_u, grid_n=256)
    tr = boundary_trace(selfmap, n_samples=257)
    T = 0.85 * selfmap.grid.half_width
    assert tr.truncation == T and tr.params[0] == -T and tr.params[-1] == T
    assert np.array_equal(tr.values, selfmap(tr.params.astype(complex)).real)
    # beyond T the trace is the self-map's far field
    t = np.array([-3 * T, -1.5 * T, 1.5 * T, 3 * T])
    assert np.array_equal(tr.eval(t),
                          selfmap.far_field.eval(t.astype(complex)).real)


def test_trace_of_a_halfplane_map_holds_no_reference_to_it():
    # the trace's extension holds the far field, so dropping the map frees
    # its chart and spline while the trace still reads beyond T
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.2, 0.5))
    selfmap = solve_halfplane(mu_u, grid_n=128)
    t = np.array([-40.0, 40.0])
    far = selfmap.far_field.eval(t.astype(complex)).real
    tr = boundary_trace(selfmap, n_samples=129)
    ref = weakref.ref(selfmap)
    del selfmap
    assert ref() is None
    assert np.array_equal(tr.eval(t), far)


@pytest.mark.parametrize("n_samples", [0, 1, 2.5])
def test_boundary_trace_rejects_too_few_samples(n_samples):
    # n_samples = 0 raised IndexError deep in the homeomorphism's checks
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.2, 0.5))
    selfmap = solve_halfplane(mu_u, grid_n=64)
    for f in (selfmap, HolomorphicFunction([1], [1.0])):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            boundary_trace(f, n_samples=n_samples)


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
    assert rep.value == pytest.approx(exact.DOUGLAS_TRACE_Z, rel=1e-2)
    # Douglas: boundary norm equals 2 sqrt(pi) times the analytic norm
    ana = analytic_besov_norm(HolomorphicFunction([1], [1.0]), 2)
    assert rep.value == pytest.approx(exact.DOUGLAS_RATIO * ana.value,
                                      rel=1e-2)


def test_besov_step_divergent():
    x = np.linspace(-8, 8, 2001)
    u = BoundaryFunction(x, np.where(x > 0, 1.0, 0.0), "line",
                         extension=lambda t: np.where(t > 0, 1.0, 0.0))
    assert besov_seminorm(u, 2).divergent


def test_besov_rejects_small_p():
    th = 2 * np.pi * np.arange(64) / 64
    u = BoundaryFunction(th, np.exp(1j * th), "circle")
    with pytest.raises(ValueError):
        besov_seminorm(u, 1.0)


@pytest.mark.parametrize("levels", [0, -2, 1.5])
def test_besov_rejects_a_ladder_without_levels(levels):
    # levels = 0 raised IndexError from the empty ladder
    th = 2 * np.pi * np.arange(64) / 64
    u = BoundaryFunction(th, np.exp(1j * th), "circle")
    with pytest.raises(ValueError, match="besov_seminorm levels must be"):
        besov_seminorm(u, 2, levels=levels)


def _dense_pair_sums(th, v, p, k):
    """Reference: every ordered pair more than k samples apart, as one
    n x n matrix of the sample chords."""
    n = th.size
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    sep = np.minimum(sep, n - sep)
    dist = np.abs(th[:, None] - th[None, :])
    dist = 2 * np.sin(np.minimum(dist, 2 * np.pi - dist) / 2)
    keep = sep > k
    num = np.abs(v[:, None] - v[None, :]) ** p
    return np.sum(num[keep] / dist[keep] ** 2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_banded_pair_sums_match_dense_reference(p):
    n = 256
    th = 2 * np.pi * np.arange(n) / n
    v = np.exp(1j * th) + 0.3 * np.cos(3 * th)
    sums = boundary._offset_sums(v, p, th[1] - th[0])
    d = np.arange(1, n)
    sep = np.minimum(d, n - d)
    for k in (2, 1):
        # each offset holds the pairs i < j once
        got = 2 * sums[sep > k].sum()
        ref = _dense_pair_sums(th, v, p, k)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def _monomial_besov(n, p):
    """Exact p-Besov seminorm of e^(i n theta) on the circle:
    (2 pi int_0^2pi |2 sin(n s / 2)|^p (2 sin(s / 2))^-2 ds)^(1/p)."""
    val, _ = integrate.quad(
        lambda s: abs(2 * math.sin(n * s / 2)) ** p
        / (2 * math.sin(s / 2)) ** 2, 0.0, 2 * math.pi,
        points=[2 * math.pi * j / n for j in range(1, n)], limit=200)
    return (2 * math.pi * val) ** (1 / p)


@pytest.mark.parametrize("p, rel", [(1.25, 5e-3), (1.5, 1e-3), (2.0, 1e-4),
                                    (3.0, 1e-4)])
def test_besov_monomial_traces_closed_form(p, rel):
    # the line input is the Cayley image of z^n, with the same formula
    # beyond its samples
    x = np.linspace(-40, 40, 4097)
    line_rel = 5e-3 if p < 1.5 else 1e-3
    for n in (1, 2, 3):
        exact = _monomial_besov(n, p)
        tr = boundary_trace(HolomorphicFunction([n], [1.0]), 1024)
        assert besov_seminorm(tr, p).value == pytest.approx(exact, rel=rel)

        def cay(t, n=n):
            return ((t - 1j) / (t + 1j)) ** n

        line = BoundaryFunction(x, cay(x), "line", extension=cay)
        assert besov_seminorm(line, p).value == pytest.approx(exact,
                                                              rel=line_rel)


def test_besov_cayley_invariance():
    th = 2 * np.pi * np.arange(1024) / 1024
    z = np.exp(1j * th)
    u = BoundaryFunction(th, (z - 1.0) ** 2 / (z - 2.0), "circle")

    def on_line(x):  # u at the circle point cayley_inverse(x)
        w = cayley_inverse(x)
        return (w - 1.0) ** 2 / (w - 2.0)

    # a window about 0 that holds none of the points the rule reads, so
    # every read is the closed form
    x = np.array([-1e-3, 1e-3])
    u_line = BoundaryFunction(x, on_line(x), "line", extension=on_line)
    a = besov_seminorm(u, 2).value
    b = besov_seminorm(u_line, 2).value
    assert b == pytest.approx(a, rel=1e-5)


def test_line_data_without_extension_do_not_extrapolate():
    # beyond the window line data read their extension; with none they
    # raise, naming the window, where they once continued the edge slopes
    x = np.linspace(-2.0, 3.0, 11)
    u = BoundaryFunction(x, x ** 2, "line")
    assert np.array_equal(u.eval(x), x ** 2)
    for t in (-2.5, 3.5, [0.0, 4.0]):
        with pytest.raises(ValueError, match=r"sampled on \[-2, 3\]"):
            u.eval(t)
    # with an extension, also for a scalar read
    u = BoundaryFunction(x, x ** 2, "line", extension=np.square)
    far = np.array([-50.0, 1e3])
    assert np.array_equal(u.eval(far), far ** 2)
    assert u.eval(50.0) == 2500.0


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
            assert r == pytest.approx(exact.DOUGLAS_RATIO, rel=1e-2)


# ---------------------------------------------------------------------------
# welding


@pytest.mark.parametrize("domain", [DomainTag.PLANE,
                                    DomainTag.LOWER_HALF_PLANE])
def test_welding_names_a_domain_off_the_cayley_map(domain):
    # the coefficient goes to U through cayley, whose error names its domain
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5, domain)
    with pytest.raises(DomainError, match=rf"not on {domain.value}$"):
        welding(mu, grid_n=64)


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


def test_welding_matches_the_closed_form(weld_02):
    # teichkit.exact's welding of 0.2 chi_{0.5D}: 4.4e-3 off at N = 512
    x = np.linspace(-40.0, 40.0, 8001)
    h = exact.welding(0.2, 0.5, x)[0]
    assert np.abs(weld_02.h.eval(x) - h).max() <= 1e-2


def _dilate(mask):
    """mask grown by one node along each axis and diagonal."""
    out = mask.copy()
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            out |= np.roll(mask, (i, j), axis=(0, 1))
    return out


def _on_chart(qc):
    """A solve's samples on its whole chart, zero off their support box."""
    out = np.zeros((qc.grid.n,) * 2, dtype=complex)
    out[qc.support] = qc.mu_samples
    return out


def test_welding_g_coefficient_vanishes_off_the_solved_support(weld_02):
    # g's coefficient is read only where the self-map's inverse lands in the
    # rectangle S of its nonzero samples on L, grown by 3 nodes; g's samples
    # are that coefficient blurred over one node
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.2, 0.5))
    selfmap = solve_halfplane(mu_u, grid_n=TEST_GRID_N)
    n = selfmap.grid.n
    lower = _on_chart(selfmap)[:, :n // 2] != 0
    rows = np.flatnonzero(lower.any(axis=1))
    cols = np.flatnonzero(lower.any(axis=0))
    x, y = selfmap.grid.axes()
    g = weld_02.g_map
    nz = _on_chart(g) != 0
    near = _dilate(nz)
    v = invert(selfmap)(g.grid.nodes()[near])
    in_s = np.zeros_like(nz)
    in_s[near] = (v.real >= x[rows[0] - 3]) & (v.real <= x[rows[-1] + 3]) & \
        (v.imag >= y[cols[0] - 3]) & (v.imag <= y[cols[-1] + 3])
    assert nz.any() and not (nz & ~_dilate(in_s)).any()
    # g's Neumann iteration runs on the rectangle of its nonzero samples
    assert g.support == _support_box(nz)
    assert max(s.stop - s.start for s in g.support) <= 140


def _count_solves(monkeypatch):
    """A list that gets one entry per plane or half-plane solve."""
    solves, solve = [], solver._solve
    monkeypatch.setattr(solver, "_solve", lambda *a, **kw: solves.append(1)
                        or solve(*a, **kw))
    return solves


def test_welding_keeps_partial_grids_only_on_inverted_maps():
    # g is inverted for h; f_mu is only evaluated, so it keeps no grids
    weld = welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=256)
    assert weld.f_map._partials is None
    assert weld.g_map._partials is not None


def test_welding_solves_fits_and_inverts_a_counted_number_of_times(
        monkeypatch):
    # three solves, no residual, g inverted for h and again for the far
    # field's fit, three splines and four circle fits
    fit = HolomorphicFunction.from_callable_on_circle.__func__
    calls = {name: [] for name in ("fit", "residual", "invert", "spline")}

    def count(name, fn):
        return lambda *a, **kw: calls[name].append(1) or fn(*a, **kw)

    calls["solve"] = _count_solves(monkeypatch)
    monkeypatch.setattr(HolomorphicFunction, "from_callable_on_circle",
                        classmethod(count("fit", fit)))
    monkeypatch.setattr(solver, "_fd_residual",
                        count("residual", solver._fd_residual))
    monkeypatch.setattr(boundary, "invert", count("invert", invert))
    monkeypatch.setattr(solver.ndimage, "spline_filter",
                        count("spline", solver.ndimage.spline_filter))
    welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=512)
    assert {k: len(v) for k, v in calls.items()} == {
        "solve": 3, "fit": 4, "residual": 0, "invert": 2, "spline": 3}


def test_repeated_welding_solves_its_three_maps_again(monkeypatch):
    # welding keeps nothing: a repeat solves all three maps again, and
    # yields the same h
    solves = _count_solves(monkeypatch)
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    first = welding(mu, grid_n=64)
    assert len(solves) == 3
    again = welding(mu, grid_n=64)
    assert len(solves) == 6
    assert np.array_equal(again.h.values, first.h.values)


def test_welding_keeps_no_map_once_its_result_is_dropped():
    weld = welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=64)
    chart = weakref.ref(weld.f_map.grid.values)
    del weld
    assert chart() is None


def test_welding_computes_no_residual(monkeypatch):
    # a welded map computes its residual only when it is read
    calls, fd = [], solver._fd_residual
    monkeypatch.setattr(solver, "_fd_residual",
                        lambda *a: calls.append(1) or fd(*a))
    weld = welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=128)
    assert calls == []
    assert weld.g_map.residual == fd(weld.g_map, ())
    assert len(calls) == 1


def test_welding_drops_the_selfmap_before_f_mu_is_solved(monkeypatch):
    # self-map, g, f_mu: the self-map is freed once g is solved, so at
    # most two solved maps are alive during any solve
    selfmaps, dead, order = [], [], []

    def halfplane(mu, grid_n):
        order.append("self-map")
        out = solve_halfplane(mu, grid_n)
        selfmaps.append(weakref.ref(out))
        return out

    def plane(mu, grid_n):
        lower = mu.domain is DomainTag.LOWER_HALF_PLANE
        order.append("g" if lower else "f_mu")
        if not lower:
            dead.append(selfmaps[0]() is None)
        return solve_plane(mu, grid_n)

    monkeypatch.setattr(boundary, "solve_halfplane", halfplane)
    monkeypatch.setattr(boundary, "solve_plane", plane)
    welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=128)
    assert order == ["self-map", "g", "f_mu"] and dead == [True]


def test_welding_traced_peak():
    # the self-map is dropped before f_mu's solve and no residual is
    # computed: one N = 256 welding traced 14.7 MiB when f_mu was solved
    # first and every solve took its residual
    mu = BeltramiCoefficient.constant_disk(0.15, 0.4)
    tracemalloc.start()
    try:
        welding(mu, grid_n=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5 * 2 ** 20


def test_welding_frees_the_selfmap_once_g_has_sampled_nu(monkeypatch):
    # nu's one evaluation drops the self-map: it is dead when g's Neumann
    # iteration starts, and so when f_mu's does
    selfmaps, alive, neumann = [], [], solver._neumann

    def halfplane(mu, grid_n):
        out = solve_halfplane(mu, grid_n)
        selfmaps.append(weakref.ref(out))
        return out

    def iterate(kit, mu_b):
        if selfmaps:
            alive.append(selfmaps[0]() is not None)
        return neumann(kit, mu_b)

    monkeypatch.setattr(boundary, "solve_halfplane", halfplane)
    monkeypatch.setattr(solver, "_neumann", iterate)
    welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=128)
    assert alive == [False, False]


def test_inverse_coefficient_is_evaluated_once():
    # a second evaluation has no self-map to read and says so
    selfmap = solve_halfplane(
        cayley(BeltramiCoefficient.constant_disk(0.2, 0.5)), 128)
    nu = boundary._inverse_coefficient(selfmap, 0.2)
    zeta = np.array([-1j, 0.3 - 1j, 3.0 - 3.0j])
    first = nu.eval(zeta)
    assert first[0] != 0.0 and first[2] == 0.0
    with pytest.raises(SolverError, match="evaluated once"):
        nu.eval(zeta)


def test_welding_traced_peak_with_the_selfmap_freed_at_sampling():
    # the self-map is freed once g's solve has sampled nu, and P reads h on
    # its box: one N = 256 welding at (0.15, 0.4) traced 10.99 MiB when the
    # self-map lived through g's solve and P read h as a chart array
    mu = BeltramiCoefficient.constant_disk(0.15, 0.4)
    tracemalloc.start()
    try:
        welding(mu, grid_n=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * 2 ** 20


@pytest.mark.parametrize("grid_n", [0, -4, 2.5])
def test_welding_rejects_a_bad_grid_size(grid_n):
    with pytest.raises(ValueError, match="grid_n must be an integer >= 1"):
        welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=grid_n)


def test_welding_rejects_unbounded_support_before_any_solve(
        monkeypatch):
    # chi_D carried to U fills the half-plane: it used to fail in f_mu's
    # margin check, and solving the self-map first would fail later
    solves = _count_solves(monkeypatch)
    with pytest.raises(SolverError, match="bounded support on U, and this "
                                          "one's is not: coefficient support "
                                          "touches the outer 10% margin"):
        welding(BeltramiCoefficient.constant_disk(0.3, 1.0), grid_n=256)
    assert solves == []


def _disk_grid_coefficient():
    """mu = 0.25 on |w| < 0.5, as a grid spec on D of half-width 4: its
    declared support radius, 4 sqrt 2, is infinite on U."""
    n = 64
    d = 8.0 / n
    off = -4.0 + d * np.arange(n)
    Z = off[:, None] + 1j * off[None, :]
    vals = np.where(np.abs(Z) < 0.5, 0.25, 0.0)
    return BeltramiCoefficient.from_grid(ComplexGrid(0.0, 4.0, vals),
                                         DomainTag.UNIT_DISK)


def test_welding_a_disk_grid_whose_samples_stay_off_the_margin(
        monkeypatch):
    # the declared radius is unbounded on U, but the samples vanish near
    # the chart's edge: f_mu's margin check passes, and all three maps solve
    mu = _disk_grid_coefficient()
    assert cayley(mu).support_radius == math.inf
    solves = _count_solves(monkeypatch)
    weld = welding(mu, grid_n=128)
    assert len(solves) == 3
    assert np.all(np.diff(weld.h.values) > 0)
    # coarse: a node of the half-width-16 chart is 0.25 wide at N = 128
    assert weld.consistency_sup < 0.15


def test_disk_coefficient_and_its_cayley_image_weld_to_one_h():
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    first = welding(mu, grid_n=64)
    again = welding(cayley(mu), grid_n=64)
    assert np.array_equal(again.h.params, first.h.params)
    assert np.array_equal(again.h.values, first.h.values)


def test_welding_hands_out_read_only_samples_of_h():
    weld = welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=64)
    for arr in (weld.h.values, weld.h.params):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


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


def test_far_field_fit_certification_rejects_bad_fit(monkeypatch):
    fit = HolomorphicFunction.from_callable_on_circle.__func__
    ok = fit(HolomorphicFunction, lambda z: z + 0.5 + 2.0 / z, 40.0,
             **FAR_FIELD_FIT)
    assert coefficient(ok, -1) == pytest.approx(2.0, abs=1e-12)
    assert ok.heldout_residual <= NEWTON_TOL

    # a pole at 30 inside |z| = 40 needs far more than the fitted orders:
    # welding's fit of h there misses on the held-out points
    def with_pole(cls, fn, radius, *args, **kwargs):
        if radius != boundary.T_BOUNDARY:
            return fit(cls, fn, radius, *args, **kwargs)
        return fit(cls, lambda z: fn(z) + 1.0 / (z - 30.0), radius, *args,
                   **kwargs)

    monkeypatch.setattr(HolomorphicFunction, "from_callable_on_circle",
                        classmethod(with_pole))
    with pytest.raises(SolverError, match="held-out"):
        welding(BeltramiCoefficient.zero(), grid_n=256)


def test_welding_identity_eq4(weld_02):
    chk = welding_identity_check(weld_02)
    assert chk["sup_discrepancy"] <= 5e-2


def test_welding_identity_differentiates_the_welded_maps(weld_02):
    # log f' and log g' are read off f_mu and g themselves, not off
    # piecewise-linear copies of them sampled along R
    assert welding_identity_check(weld_02)["sup_discrepancy"] <= 6.0e-4


def test_welding_affine_first_term_smoke():
    # the identity's log-derivatives come from _log_quotients: an affine
    # map reads its constant log-slope, phase included
    y = np.linspace(-20, 20, 4001)
    real = boundary._log_quotients(y, 2.0 * y + 1.0)
    assert np.abs(real - math.log(2.0)).max() < 1e-12
    rot = boundary._log_quotients(y, (1 + 1j) * y)
    assert np.abs(rot - (math.log(math.sqrt(2.0)) + 1j * math.pi / 4)).max() \
        < 1e-12


# ---------------------------------------------------------------------------
# log_derivative


def test_log_derivative_identity_and_affine():
    x = np.linspace(-5, 5, 501)
    ident = BoundaryHomeomorphism(x, x.copy())
    assert np.abs(log_derivative(ident).values).max() < 1e-12
    aff = BoundaryHomeomorphism(x, 3.0 * x, fix_tol=None,
                                extension=lambda t: 3.0 * t)
    ld = log_derivative(aff)
    assert np.abs(ld.values - math.log(3.0)).max() < 1e-12
    # beyond the window it reads the extension's slope
    far = np.array([-1e3, -100.0, 100.0, 1e3])
    assert np.abs(ld.eval(far) - math.log(3.0)).max() < 1e-9
    ld = log_derivative(line_homeo(power_map(1.6)))
    want = math.log(1.6) + 0.6 * np.log(np.abs(far))
    assert np.abs(ld.eval(far) - want).max() < 1e-7


def test_log_derivative_rejects_flat():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    h = BoundaryFunction(x, np.array([0.0, 1.0, 1.0, 2.0]), "line")
    with pytest.raises(ValueError):
        log_derivative(h)
    # and beyond the samples, on the extension
    h = BoundaryFunction(x, x.copy(), "line", extension=np.zeros_like)
    with pytest.raises(ValueError, match="extension"):
        log_derivative(h).eval(10.0)


def test_log_derivative_of_welding_besov_stable(weld_02):
    ld = log_derivative(weld_02.h)
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


def test_ba_extend_rejects_circle_data_before_any_evaluation():
    # it used to evaluate the circle data on the line and report |mu|
    # reaching 1.465 as a failure of quasiconformality
    trace = boundary_trace(HolomorphicFunction([1], [1.0]))
    reads = []
    trace.eval = lambda t: reads.append(1) or BoundaryFunction.eval(trace, t)
    with pytest.raises(DomainError, match="line data, not circle data"):
        ba_extend(trace)
    assert reads == []


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


def test_ba_extend_near_jump_stays_below_one(monkeypatch):
    monkeypatch.setattr(boundary, "_EXTEND_SUP_GUARD", 1.0)
    h = line_homeo(lambda x: x + 500.0 * np.tanh(x / 1e-4))
    ext = ba_extend(h)
    z = (np.linspace(-2e-3, 2e-3, 201)[:, None]
         + 1j * np.geomspace(1e-5, 1e-1, 60)[None, :]).ravel()
    assert np.abs(ext.eval(z)).max() < 1


def test_ba_extend_block_size_changes_no_value(monkeypatch):
    from teichkit import boundary

    ext = ba_extend(line_homeo(lambda x: x + 0.5 * np.tanh(x)))
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


def test_characterization_frees_the_welded_maps(monkeypatch):
    # the extension stage reads h alone: the maps handed out are gone by
    # then, and the kept welding holds copies of them with no spline or
    # partials
    welded, seen = [], []

    def weld_and_watch(*args, **kwargs):
        out = welding(*args, **kwargs)
        welded.append(weakref.ref(out.f_map))
        return out

    def stop(h):
        seen.append(welded[0]() is None)
        raise RuntimeError("stop before the extension")

    monkeypatch.setattr(boundary, "welding", weld_and_watch)
    monkeypatch.setattr(boundary, "ba_extend", stop)
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    rep = besov_characterization_check(mu, 2, grid_n=256)
    assert rep["stages"]["mp_norm_extension"]["type"] == "RuntimeError"
    assert seen == [True]


def test_characterization_reads_besov_of_welded_h(monkeypatch):
    # the Besov stage reads h as welded, not a copy on a coarser grid
    welded = []

    def weld_and_keep(*args, **kwargs):
        out = welding(*args, **kwargs)
        welded.append(out.h)
        return out

    def stop(h):
        raise RuntimeError("stop before the extension")

    monkeypatch.setattr(boundary, "welding", weld_and_keep)
    monkeypatch.setattr(boundary, "ba_extend", stop)
    mu = BeltramiCoefficient.constant_disk(0.15, 0.4)
    rep = besov_characterization_check(mu, 2, grid_n=TEST_GRID_N)
    got = rep["stages"]["besov_log_derivative"]
    assert got == besov_seminorm(log_derivative(welded[0]), 2).to_json_dict()
    # h on 8193 and 32769 welded samples reads 0.526971 and 0.526992
    assert got["value"] == pytest.approx(0.526925, abs=2e-6)


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
    # check 8's class: the Besov ladder grows by at least 15 % per step on
    # the power scale, clear of LADDER_GROWTH's 10 %
    ladder = [val for _, val in
              rep["stages"]["besov_log_derivative"]["ladder"]]
    assert all((b / a) ** 2 >= 1.15 for a, b in zip(ladder, ladder[1:]))


def test_roundtrip_phi_distance(weld_02):
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    mu_u = cayley(mu)
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
