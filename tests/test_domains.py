import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from teichkit import (
    BeltramiCoefficient,
    DomainError,
    DomainTag,
    HolomorphicFunction,
    ainf_norm,
    analytic_besov_norm,
    ap_norm,
    cayley,
    hyperbolic_density,
    mp_norm,
)
from teichkit import domains
from teichkit.domains import (
    ComplexGrid,
    _circle_coefficients,
    cayley_inverse,
    cayley_map,
)

from conftest import coefficient


def closed_form_phi(k, r):
    """Bers image of k chi_{rD}: -6 k r^2 / (z^2 - k r^2)^2 on the exterior."""
    a = k * r * r

    def phi(z):
        return -6.0 * a / (z * z - a) ** 2

    return phi


def exterior_series(fn, rho=2.0, orders=range(-24, 1)):
    return HolomorphicFunction.from_callable_on_circle(
        fn, rho, orders, domain=DomainTag.EXTERIOR_DISK)


# ---------------------------------------------------------------------------
# hyperbolic density


def test_density_values():
    assert hyperbolic_density(DomainTag.UNIT_DISK, 0j) == pytest.approx(2.0)
    assert hyperbolic_density(DomainTag.UPPER_HALF_PLANE, 1j) == pytest.approx(1.0)
    assert hyperbolic_density(DomainTag.UNIT_DISK, 0.9) == pytest.approx(2 / 0.19)
    assert hyperbolic_density(DomainTag.EXTERIOR_DISK, 2.0) == pytest.approx(2 / 3)


def test_density_rejects_bad_points():
    with pytest.raises(DomainError):
        hyperbolic_density(DomainTag.UNIT_DISK, 1.0 + 0j)
    with pytest.raises(DomainError):
        hyperbolic_density(DomainTag.UPPER_HALF_PLANE, -1j)
    with pytest.raises(DomainError):
        hyperbolic_density(DomainTag.PLANE, 0j)


def test_density_cayley_compatibility():
    # rho_U(H(z)) |H'(z)| = rho_D(z)
    z = 0.3 + 0.4j
    lhs = hyperbolic_density(DomainTag.UPPER_HALF_PLANE, cayley_map(z)) * \
        abs(2j / (z - 1) ** 2)
    assert lhs == pytest.approx(hyperbolic_density(DomainTag.UNIT_DISK, z))


# ---------------------------------------------------------------------------
# mp_norm


def test_mp_norm_zero():
    rep = mp_norm(BeltramiCoefficient.zero(), 2)
    assert rep.value == 0.0
    assert not rep.divergent


def test_mp_norm_closed_form():
    # |k| (pi r^2/(1-r^2))^{1/p}, cross-checked against direct quadrature
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    rep = mp_norm(mu, 2)
    exact = 0.3 * math.sqrt(math.pi * 0.25 / 0.75)
    assert exact == pytest.approx(0.30700, abs=5e-6)
    assert rep.value == pytest.approx(exact, abs=1e-3)
    oracle, _ = integrate.quad(
        lambda s: 0.3 ** 2 * 2 * math.pi * s / (1 - s * s) ** 2, 0.0, 0.5)
    assert rep.value == pytest.approx(oracle ** 0.5, abs=1e-3)


@pytest.mark.parametrize("k,r,p", [(0.3, 0.3, 1.0), (0.2, 0.7, 2.0),
                                   (0.1, 0.45, 3.0)])
def test_mp_norm_family(k, r, p):
    rep = mp_norm(BeltramiCoefficient.constant_disk(k, r), p)
    exact = k * (math.pi * r * r / (1 - r * r)) ** (1 / p)
    assert rep.value == pytest.approx(exact, abs=1e-3)
    assert rep.error_estimate >= abs(rep.refinements[-1][1] - rep.refinements[-2][1])


def test_mp_norm_constant_divergent():
    mu = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda z: np.full_like(z, 0.3), math.inf, 0.3)
    rep = mp_norm(mu, 2)
    assert rep.divergent
    assert len(rep.refinements) <= 3
    vals = [v for _, v in rep.refinements]
    assert vals[1] > 1.1 * vals[0] and vals[2] > 1.1 * vals[1]


def test_mp_norm_rejects():
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            mp_norm(BeltramiCoefficient.zero(), p)
    with pytest.raises(DomainError):
        mp_norm(BeltramiCoefficient.zero(DomainTag.PLANE), 2)


@pytest.mark.parametrize("r", [math.nan, -0.5, math.inf])
def test_constant_disk_rejects_bad_radius(r):
    with pytest.raises(ValueError, match="r must be finite"):
        BeltramiCoefficient.constant_disk(0.3, r)


def test_constant_disk_accepts_zero_radius():
    mu = BeltramiCoefficient.constant_disk(0.3, 0.0)
    assert mu.eval(np.array([0j, 0.5])).tolist() == [0j, 0j]


@pytest.mark.parametrize("radius", [-1.0, math.nan])
def test_coefficient_rejects_bad_support_radius(radius):
    # a radius of -1 used to solve to the identity map with all-zero
    # samples, and NaN used to mean unbounded support
    with pytest.raises(ValueError, match="support_radius"):
        BeltramiCoefficient(DomainTag.PLANE, lambda z: np.full_like(z, 0.2),
                            radius, 0.2)


def test_mp_norm_halfplane_matches_disk_transport():
    mu = BeltramiCoefficient.constant_disk(0.25, 0.5)
    mu_u = cayley(mu, "DiskToHalfPlane")
    a = mp_norm(mu, 2).value
    b = mp_norm(mu_u, 2).value
    assert b == pytest.approx(a, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=0.95))
def test_mp_norm_scaling(c):
    mu = BeltramiCoefficient.constant_disk(0.4, 0.5)
    base = mp_norm(mu, 2).value
    assert mp_norm(mu.scaled(c), 2).value == pytest.approx(c * base, rel=1e-9)


# ---------------------------------------------------------------------------
# A_inf / A_p on the exterior disk


def test_ainf_zero_and_constant():
    zero = HolomorphicFunction.zero(DomainTag.EXTERIOR_DISK)
    assert ainf_norm(zero).value == 0.0
    const = HolomorphicFunction([0], [1.0], domain=DomainTag.EXTERIOR_DISK)
    assert ainf_norm(const).divergent


def test_ainf_rejects_growth():
    lin = HolomorphicFunction([1], [1.0], domain=DomainTag.EXTERIOR_DISK)
    with pytest.raises(ValueError):
        ainf_norm(lin)


def test_ainf_closed_form_family():
    phi = exterior_series(closed_form_phi(0.3, 0.5))
    rep = ainf_norm(phi)
    # dense two-resolution sampling oracle
    fn = closed_form_phi(0.3, 0.5)
    best = 0.0
    for s in np.concatenate([1 + np.geomspace(1e-6, 9, 2000),
                             np.geomspace(10, 3000, 400)]):
        th = np.linspace(0, np.pi / 2, 361)
        z = s * np.exp(1j * th)
        best = max(best, ((s * s - 1) ** 2 * np.abs(fn(z))).max())
    assert not rep.divergent
    assert rep.value == pytest.approx(best, rel=1e-2)


def test_ap_norm_against_quadrature_oracle():
    fn = closed_form_phi(0.3, 0.5)
    phi = exterior_series(fn)

    def oracle(p):
        def ring(s):
            th = np.linspace(0, 2 * np.pi, 2049)[:-1]
            z = s * np.exp(1j * th)
            vals = np.abs(fn(z)) ** p * (s * s - 1) ** (2 * p - 2) * s
            return vals.mean() * 2 * np.pi

        val, _ = integrate.quad(ring, 1.0, 400.0, limit=400)
        return val ** (1 / p)

    for p in (1.0, 2.0):
        rep = ap_norm(phi, p)
        assert not rep.divergent
        assert rep.value == pytest.approx(oracle(p), rel=1e-3)


def test_ap_zero_and_range():
    zero = HolomorphicFunction.zero(DomainTag.EXTERIOR_DISK)
    assert ap_norm(zero, 2).value == 0.0
    for p in (0.9, math.nan):
        with pytest.raises(ValueError):
            ap_norm(zero, p)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the A_p ladder reads poles of psi at 0 as finite; "
    "the verdict should come from psi's lowest order"))
@pytest.mark.parametrize("order,p", [
    *((n, p) for n in (-1, -2) for p in (1.0, 1.5, 2.0)),
    (-3, 2.0),
])
def test_ap_norm_flags_pole_divergence(order, p):
    # psi = w^(-order-4) is not integrable against (1 - |w|^2)^(2p-2) dA
    # once (-order - 4) p <= -2
    phi = HolomorphicFunction([order], [1.0], DomainTag.EXTERIOR_DISK)
    assert ap_norm(phi, p).divergent


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_ladders_match_pointwise_series_eval(monkeypatch, p):
    # the A_p and A_inf ladders evaluate psi as one matrix product on their
    # polar mesh; the reference evaluates it point by point on the same mesh
    slow = HolomorphicFunction([-2, -4], [1.0, 1.0],
                               DomainTag.EXTERIOR_DISK)  # psi ~ w^-2
    const = HolomorphicFunction([0], [1.0],
                                DomainTag.EXTERIOR_DISK)  # psi = w^-4
    phis = (exterior_series(closed_form_phi(0.3, 0.5)), slow, const)
    fast = [(ap_norm(phi, p), ainf_norm(phi)) for phi in phis]
    monkeypatch.setattr(domains, "_polar_series", lambda f, s, th:
                        f.eval(domains._polar_nodes(s, th)))
    ref = [(ap_norm(phi, p), ainf_norm(phi)) for phi in phis]
    for got, want in zip(sum(fast, ()), sum(ref, ())):
        assert got.divergent == want.divergent
        assert [n for n, _ in got.refinements] == \
            [n for n, _ in want.refinements]
        for (_, a), (_, b) in zip(got.refinements, want.refinements):
            assert abs(a - b) <= 1e-13 * abs(b)
    (ap_closed, ainf_closed), (_, ainf_slow), (ap_const, ainf_const) = fast
    assert not ap_closed.divergent and not ainf_closed.divergent
    assert ainf_slow.divergent and ainf_const.divergent
    assert ap_const.divergent == (p == 2.0)


def test_ainf_ap_embedding_ratio_bounded():
    # sup-norm/A_p ratio stays bounded over the (k, r) family
    ratios = []
    for k in (0.1, 0.2, 0.3):
        for r in (0.3, 0.5, 0.7):
            phi = exterior_series(closed_form_phi(k, r))
            ai = ainf_norm(phi)
            a2 = ap_norm(phi, 2)
            assert not ai.divergent and not a2.divergent
            ratios.append(ai.value / a2.value)
    assert max(ratios) < 50.0


# ---------------------------------------------------------------------------
# analytic Besov


def test_besov_linear_and_quadratic():
    phi1 = HolomorphicFunction([1], [1.0])
    phi2 = HolomorphicFunction([2], [1.0])
    assert analytic_besov_norm(phi1, 2).value == pytest.approx(
        math.sqrt(math.pi), abs=5e-4)
    assert analytic_besov_norm(phi2, 2).value == pytest.approx(
        math.sqrt(2 * math.pi), abs=1e-3)


def test_besov_constant_and_range():
    const = HolomorphicFunction([0], [5.0])
    assert analytic_besov_norm(const, 2).value == 0.0
    with pytest.raises(ValueError):
        analytic_besov_norm(const, 1.0)


def test_besov_p_variants_against_quadrature():
    phi = HolomorphicFunction([1], [1.0])
    for p in (1.5, 3.0):
        val, _ = integrate.quad(
            lambda s: 2 * math.pi * s * (1 - s * s) ** (p - 2), 0.0, 1.0)
        assert analytic_besov_norm(phi, p).value == pytest.approx(
            val ** (1 / p), rel=2e-3)


def test_besov_cayley_invariance():
    phi = HolomorphicFunction([1], [1.0])
    phi_u = cayley(phi, "DiskToHalfPlane")
    a = analytic_besov_norm(phi, 2).value
    b = analytic_besov_norm(phi_u, 2).value
    assert b == pytest.approx(a, rel=1e-2)


# ---------------------------------------------------------------------------
# Cayley transform


def test_cayley_points():
    assert cayley(0j, "DiskToHalfPlane") == pytest.approx(1j)
    assert cayley(complex(-1), "DiskToHalfPlane") == pytest.approx(0j)
    assert cayley(-1j, "DiskToHalfPlane") == pytest.approx(1.0 + 0j)
    with pytest.raises(DomainError):
        cayley(1.0 + 0j, "DiskToHalfPlane")


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-0.7, 0.7), y=st.floats(-0.7, 0.7))
def test_cayley_involution(x, y):
    z = complex(x, y)
    if abs(z) >= 0.999:
        return
    assert abs(cayley_inverse(cayley_map(z)) - z) < 1e-12


def test_cayley_beltrami_preserves_modulus():
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    mu_u = cayley(mu, "DiskToHalfPlane")
    w = cayley_map(np.array([0.1 + 0.2j, 0.4j, -0.3 + 0.1j]))
    assert np.abs(np.abs(mu_u.eval(w)) - 0.3).max() < 1e-12
    back = cayley(mu_u, "HalfPlaneToDisk")
    z = np.array([0.2 + 0.1j, 0.3j])
    assert np.abs(back.eval(z) - mu.eval(z)).max() < 1e-12


# ---------------------------------------------------------------------------
# HolomorphicFunction basics


def test_series_derivative_matches_finite_difference():
    phi = HolomorphicFunction([-3, -1, 0, 2], [0.2j, 1.0, 0.5, 0.1])
    z = np.array([1.0 + 0.5j, 2.0 - 1.0j])
    h = 1e-5
    fd = (phi.eval(z + h) - phi.eval(z - h)) / (2 * h)
    assert np.abs(phi.eval(z, der=1) - fd).max() / np.abs(fd).max() < 1e-6


def _term_by_term(self, w, der=0):
    """Reference series evaluation: one power of u per term."""
    u = np.asarray(w, dtype=complex)
    out = np.zeros_like(u)
    for n, c in zip(self.orders, self.coeffs):
        fac = 1.0
        for q in range(der):
            fac *= n - q
        if c != 0 and fac != 0.0:
            out = out + c * fac * u ** (n - der)
    return out


@pytest.mark.parametrize("premap", [None, "cayley_inverse"])
@pytest.mark.parametrize("orders,center", [
    ([-7, -4, -1, 0, 2, 5], 0.0),
    ([-12, -11, -3, 1], 0.3 - 0.2j),
    ([1, 3, 4], -0.5j),
    ([-5, -2], 0.25),
])
def test_series_horner_matches_term_by_term(monkeypatch, premap, orders,
                                            center):
    rng = np.random.default_rng(len(orders))
    coeffs = rng.normal(size=len(orders)) + 1j * rng.normal(size=len(orders))
    f = HolomorphicFunction(orders, coeffs, premap=premap)
    # points whose pulled-back w lies in 0.5 <= |w - center| <= 2
    u = (0.5 + 1.5 * rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    w = center + u
    inverse = {None: lambda v: v, "cayley_inverse": cayley_map}
    z = inverse[premap](w)
    got = [f.eval(z, der) for der in range(4)]
    monkeypatch.setattr(HolomorphicFunction, "_series_eval", _term_by_term)
    for der in range(4):
        ref = f.eval(z, der)
        assert np.max(np.abs(got[der] - ref) / np.abs(ref)) < 1e-13


def test_series_taylor_finite_at_center():
    # order 0 drops out of the derivatives and the zero order -2 term is
    # skipped, so no 1/z is formed at the center 0
    f = HolomorphicFunction([-2, 0, 1, 2], [0.0, 1.0, 2.0, 3.0])
    vals = [f.eval(0.0, der) for der in range(4)]
    assert np.array_equal(vals, [1.0, 2.0, 6.0, 0.0])


def _circle_coefficients_loop(vals, radius, orders, noise_rel):
    """Reference extraction: one fftfreq lookup per order."""
    n = vals.size
    c = np.fft.fft(vals) / n
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    orders = np.asarray(sorted(orders), dtype=int)
    coeffs = np.zeros(orders.shape, dtype=complex)
    floor = np.max(np.abs(c)) * noise_rel
    for i, k in enumerate(orders):
        j = np.nonzero(ks == k)[0]
        if j.size:
            ck = c[j[0]]
            coeffs[i] = 0.0 if abs(ck) < floor else ck / radius ** k
    return orders, coeffs


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("radius", [1.0, 1.7, 0.3])
def test_circle_coefficients_match_per_order_loop(n, radius):
    z = radius * np.exp(2j * np.pi * np.arange(n) / n)
    vals = 2.0 + 1.0 / (z - 0.1) + z ** 3 + 1e-9 * z ** 5
    # unsorted, and reaching beyond the sampled band on both sides
    orders = list(range(40, -41, -1))
    for noise_rel in (1e-13, 1e-6):
        ref = _circle_coefficients_loop(vals, radius, orders, noise_rel)
        got = _circle_coefficients(vals, radius, orders, noise_rel)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        # the z^5 term sits below the 1e-6 floor only
        assert (got[1][got[0] == 5][0] == 0) == (noise_rel == 1e-6)


def test_series_identity_roundtrip():
    f = HolomorphicFunction.from_callable_on_circle(
        lambda z: z + 0.075 / z, 2.0, range(-8, 3))
    assert coefficient(f, 1) == pytest.approx(1.0, abs=1e-10)
    assert coefficient(f, -1) == pytest.approx(0.075, abs=1e-10)
    assert abs(coefficient(f, 0)) < 1e-12


def test_grid_serialization_roundtrip():
    vals = (np.arange(16, dtype=float).reshape(4, 4)
            + 1j * np.arange(16, dtype=float).reshape(4, 4) ** 2)
    g = ComplexGrid(0.5 + 0.25j, 2.0, vals)
    d = g.to_json_dict()
    g2 = ComplexGrid.from_json_dict(d)
    assert g2.center == g.center and g2.half_width == g.half_width
    assert np.array_equal(g2.values, g.values)


def test_grid_validation():
    with pytest.raises(ValueError):
        ComplexGrid(0.0, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ComplexGrid(0.0, 1.0, np.full((4, 4), np.nan))


_TABLE_PTS = [[0.0, 0.0], [0.1, 0.0]]


@pytest.mark.parametrize("points, values, field", [
    (_TABLE_PTS, [0.1], "values"),  # fewer values than points
    ([], [], "points"),
    ([0.0, 0.1], [0.1, 0.1], "points"),  # 1-D points
    (_TABLE_PTS, [[0.1, 0.0], [0.1, 0.0]], "values"),  # [re, im] pairs
    ([[0.0, math.nan], [0.1, 0.0]], [0.1, 0.1], "points"),
], ids=["short_values", "empty", "flat_points", "pair_values", "nan_point"])
def test_from_table_rejects_malformed_input(points, values, field):
    with pytest.raises(ValueError, match=f"table {field}"):
        BeltramiCoefficient.from_table(points, values, DomainTag.UNIT_DISK)


def _grid_dict():
    return ComplexGrid(0.0, 1.0, np.zeros((32, 32))).to_json_dict()


@pytest.mark.parametrize("grid, match", [
    (dict(_grid_dict(), n=64), "grid data holds 1024 values, n = 64"),
    ({k: v for k, v in _grid_dict().items() if k != "data"},
     "grid lacks 'data'"),
    (dict(_grid_dict(), n=0), "grid n must be"),
    (dict(_grid_dict(), data="not base64!"), "grid data is not base64"),
    (3, "grid must be a JSON object"),
    (dict(_grid_dict(), half_width=-1.0), "grid half_width must be"),
    (dict(_grid_dict(), half_width="1"), "grid half_width must be"),
    (dict(_grid_dict(), center=0.0), "grid center must be"),
], ids=["n_mismatch", "no_data", "zero_n", "bad_base64", "not_object",
        "negative_half_width", "text_half_width", "scalar_center"])
def test_grid_from_json_rejects_malformed_input(grid, match):
    with pytest.raises(ValueError, match=match):
        ComplexGrid.from_json_dict(grid)


def test_from_table_matches_dense_nearest_point(rng):
    pts = rng.uniform(-0.8, 0.8, size=(60, 2))
    vals = 0.5 * (rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60))
    mu = BeltramiCoefficient.from_table(pts, vals, DomainTag.UNIT_DISK)
    z = (rng.uniform(-1.5, 1.5, (40, 30))
         + 1j * rng.uniform(-1.5, 1.5, (40, 30)))
    # reference: the dense (points x table) distance matrix
    d2 = (z.real[..., None] - pts[:, 0]) ** 2 + \
        (z.imag[..., None] - pts[:, 1]) ** 2
    cell = max(float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) / 60 ** 0.5,
               1e-3)
    want = np.where(np.sqrt(d2.min(axis=-1)) < 4 * cell,
                    vals[d2.argmin(axis=-1)], 0.0)
    got = mu._func(z)
    assert got.shape == z.shape
    assert np.array_equal(got, want)
    assert np.any(got == 0) and np.any(got != 0)


def test_from_table_solver_grid_against_large_table(rng):
    # a dense distance matrix here would be 512^2 x 1000 doubles (2 GB)
    pts = rng.uniform(-0.9, 0.9, size=(1000, 2))
    vals = 0.3 * np.exp(2j * np.pi * rng.uniform(size=1000))
    mu = BeltramiCoefficient.from_table(pts, vals, DomainTag.UNIT_DISK)
    x = np.linspace(-1.2, 1.2, 512)
    out = mu.eval(x[:, None] + 1j * x[None, :])
    assert out.shape == (512, 512)
    assert np.abs(out).max() == pytest.approx(0.3)
