import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.interpolate import RegularGridInterpolator

from teichkit import (
    BeltramiCoefficient,
    DomainError,
    DomainTag,
    HolomorphicFunction,
    ainf_norm,
    analytic_besov_norm,
    ap_norm,
    cayley,
    mp_norm,
)
from teichkit import domains, exact
from teichkit.bers import bers_map
from teichkit.boundary import BoundaryFunction, besov_seminorm
from teichkit.domains import (
    ComplexGrid,
    _circle_coefficients,
    cayley_inverse,
    cayley_map,
    mobius_circle_image,
)

from conftest import coefficient


# ---------------------------------------------------------------------------
# mp_norm


def test_mp_norm_zero():
    rep = mp_norm(BeltramiCoefficient.zero(), 2)
    assert rep.value == 0.0
    assert not rep.divergent


def test_mp_norm_closed_form():
    # the closed form of teichkit.exact, cross-checked against quadrature
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    rep = mp_norm(mu, 2)
    want = exact.mp_norm(0.3, 0.5, 2)
    assert want == pytest.approx(0.30700, abs=5e-6)
    assert rep.value == pytest.approx(want, abs=1e-3)
    oracle, _ = integrate.quad(
        lambda s: 0.3 ** 2 * 2 * math.pi * s / (1 - s * s) ** 2, 0.0, 0.5)
    assert rep.value == pytest.approx(oracle ** 0.5, abs=1e-3)


@pytest.mark.parametrize("k,r,p", [(0.3, 0.3, 1.0), (0.2, 0.7, 2.0),
                                   (0.1, 0.45, 3.0)])
def test_mp_norm_family(k, r, p):
    rep = mp_norm(BeltramiCoefficient.constant_disk(k, r), p)
    assert rep.value == pytest.approx(exact.mp_norm(k, r, p), abs=1e-3)
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


@pytest.mark.parametrize("levels", [0, -1, 2.0, True])
def test_mp_norm_rejects_a_ladder_without_levels(levels):
    # levels = 0 raised UnboundLocalError: no level set the report
    with pytest.raises(ValueError, match="mp_norm levels must be an integer"):
        mp_norm(BeltramiCoefficient.constant_disk(0.3, 0.5), 2, levels=levels)


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
    mu_u = cayley(mu)
    a = mp_norm(mu, 2).value
    b = mp_norm(mu_u, 2).value
    assert b == pytest.approx(a, rel=1e-6)


def _whole_level_mp(mu, p, levels):
    """mp_norm's ladder values with each level sampled at once."""
    values = []
    for lev in range(levels):
        nper, nth = 48 * 2 ** lev, 64 * 2 ** lev
        s, ws = domains._graded_radial_mesh(
            6 + lev, nper, (0.5 + lev * domains._JITTER) % 1.0)
        th = 2.0 * np.pi * (np.arange(nth) + 0.5) / nth
        F = np.abs(mu.eval(domains._polar_nodes(s, th))) ** p * \
            ((1.0 - s ** 2) ** -2)[:, None]
        integral = float(np.sum(F * (s * ws)[:, None]) * (2.0 * np.pi / nth))
        values.append(max(integral, 0.0) ** (1.0 / p))
    return values


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_mp_norm_by_shells_matches_whole_levels(p):
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    rep = mp_norm(mu, p)
    assert [v for _, v in rep.refinements] == _whole_level_mp(mu, p, 4)


def test_mp_norm_memory_is_bounded():
    # the finest level sampled whole (3840 radii x 512 angles) peaked at
    # 72 MiB; a shell at a time it holds the summed array and one shell's
    # temporaries
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    mp_norm(mu, 2)
    tracemalloc.start()
    try:
        mp_norm(mu, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


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
    phi = exact.bers_image(0.3, 0.5)
    rep = ainf_norm(phi)
    # dense two-resolution sampling oracle
    fn = phi.eval
    best = 0.0
    for s in np.concatenate([1 + np.geomspace(1e-6, 9, 2000),
                             np.geomspace(10, 3000, 400)]):
        th = np.linspace(0, np.pi / 2, 361)
        z = s * np.exp(1j * th)
        best = max(best, ((s * s - 1) ** 2 * np.abs(fn(z))).max())
    assert not rep.divergent
    assert rep.value == pytest.approx(best, rel=1e-2)


SIX_A_CASES = [(0.3, 0.5), (0.7, 0.45), (-0.4, 0.6), (0.5, 0.9)]


@pytest.mark.parametrize("k, r", SIX_A_CASES)
def test_ainf_closed_form_is_six_a(k, r):
    # psi(w) = -6a / (1 - a w^2)^2 with a = k r^2, and (1 - |w|^2)^2 |psi|
    # <= 6|a| (1 - |w|^2)^2 / (1 - |a| |w|^2)^2 <= 6|a|: the sup is at w = 0
    a = k * r * r
    assert ainf_norm(exact.bers_image(k, r)).value == \
        pytest.approx(6 * abs(a), rel=1e-6)


def _whole_level_ainf(phi):
    """Reference: the A_inf ladder values with each level's polar series
    evaluated on all of its radii in one matrix product."""
    psi = phi.inverted_disk_rep()
    keep = psi.coeffs != 0
    n, a = psi.orders[keep], psi.coeffs[keep]
    values = []
    for lev in range(4):
        m, nth = 64 * 2 ** lev, 128 * 2 ** lev
        r = np.concatenate([
            np.geomspace(2.0 ** -(6 + 2 * lev), 0.5, m // 2),
            1.0 - np.geomspace(0.5, 2.0 ** -(6 + 2 * lev), m // 2),
        ])
        th = 2.0 * np.pi * np.arange(nth) / nth
        series = (r[:, None] ** n * a) @ np.exp(1j * n[:, None] * th)
        values.append(float(
            (((1.0 - r ** 2) ** 2)[:, None] * np.abs(series)).max()))
    return values


@pytest.mark.parametrize("radii", [None, 24])
def test_ainf_blocks_of_radii_match_whole_levels(monkeypatch, radii):
    # each level runs AINF_RADII radii at a time (24: blocks that do not
    # divide a level's radii); the ladder is the whole-level one bit for
    # bit, on the closed-form images and on a solved one
    if radii:
        monkeypatch.setattr(domains, "AINF_RADII", radii)
    phis = [exact.bers_image(k, r) for k, r in SIX_A_CASES]
    phis.append(bers_map(BeltramiCoefficient.constant_disk(0.624, 0.49),
                         grid_n=512).bers_image)
    for phi in phis:
        rep = ainf_norm(phi)
        assert [v for _, v in rep.refinements] == _whole_level_ainf(phi)


def test_ainf_norm_memory_is_bounded():
    # the whole finest level (512 radii x 1024 angles) held 13 MB at once
    phi = bers_map(BeltramiCoefficient.constant_disk(0.3, 0.5),
                   grid_n=1024).bers_image
    ainf_norm(phi)
    tracemalloc.start()
    try:
        ainf_norm(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_ap_norm_against_quadrature_oracle():
    phi = exact.bers_image(0.3, 0.5)
    fn = phi.eval

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
    # polar mesh (A_inf a block of radii at a time); the reference evaluates
    # it point by point on the same mesh
    slow = HolomorphicFunction([-2, -4], [1.0, 1.0],
                               DomainTag.EXTERIOR_DISK)  # psi ~ w^-2
    const = HolomorphicFunction([0], [1.0],
                                DomainTag.EXTERIOR_DISK)  # psi = w^-4
    phis = (exact.bers_image(0.3, 0.5), slow, const)
    fast = [(ap_norm(phi, p), ainf_norm(phi)) for phi in phis]
    monkeypatch.setattr(domains, "_polar_series",
                        lambda f, s, th, terms=None:
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
    assert ap_const.divergent


@pytest.mark.parametrize("k,p", [
    *((k, p) for k in (4, 6) for p in (1.0, 1.5, 2.0, 3.0)),
    (3, 1.0), (3, 1.5),
])
def test_ap_norm_of_a_power_matches_beta_closed_form(k, p):
    # psi = w^(k-4): int_D |w|^((k-4)p) (1-|w|^2)^(2p-2) dA
    # = pi B((k-4)p/2 + 1, 2p - 1); z^-3 is finite below p = 2 (2 pi at 1)
    rep = ap_norm(HolomorphicFunction([-k], [1.0], DomainTag.EXTERIOR_DISK), p)
    exact = (math.pi * special.beta((k - 4) * p / 2 + 1, 2 * p - 1)) ** (1 / p)
    assert not rep.divergent
    assert abs(rep.value - exact) <= 1e-12 * exact
    assert rep.error_estimate <= 1e-12 * rep.value


def test_ap_norm_reports_its_cap():
    # psi = w - 0.5 vanishes inside D, so |psi| has a cone there and the
    # rule converges only algebraically: it stops at its largest order and
    # reports the last gap, which must bound the error
    phi = HolomorphicFunction([-5, -4], [1.0, -0.5], DomainTag.EXTERIOR_DISK)
    rep = ap_norm(phi, 1.0)

    def ring(s):
        val, _ = integrate.quad(lambda th: abs(s * np.exp(1j * th) - 0.5),
                                0.0, math.pi, epsabs=1e-13, epsrel=1e-13,
                                limit=500)
        return 2.0 * s * val

    ref, _ = integrate.quad(ring, 0.0, 1.0, points=[0.5], epsabs=1e-13,
                            epsrel=1e-13, limit=500)
    assert not rep.divergent
    assert rep.error_estimate > 1e-12 * rep.value
    assert abs(rep.value - ref) <= 10 * rep.error_estimate


def test_ainf_ap_embedding_ratio_bounded():
    # sup-norm/A_p ratio stays bounded over the (k, r) family
    ratios = []
    for k in (0.1, 0.2, 0.3):
        for r in (0.3, 0.5, 0.7):
            phi = exact.bers_image(k, r)
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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_besov_of_a_power_matches_beta_closed_form(n, p):
    # int_D n^p |z|^((n-1)p) (1-|z|^2)^(p-2) dA = pi n^p B((n-1)p/2 + 1, p-1)
    phi = HolomorphicFunction([n], [1.0])
    exact = (math.pi * n ** p * special.beta((n - 1) * p / 2 + 1, p - 1)) \
        ** (1 / p)
    rep = analytic_besov_norm(phi, p)
    assert abs(rep.value - exact) <= 1e-12 * exact
    # the U integrand of the Cayley push-forward is the D integrand
    rep_u = analytic_besov_norm(cayley(phi), p)
    assert abs(rep_u.value - rep.value) <= 1e-12 * rep.value


def test_besov_on_the_half_plane_needs_a_cayley_push_forward():
    plain = HolomorphicFunction([1], [1.0], DomainTag.UPPER_HALF_PLANE)
    with pytest.raises(DomainError):
        analytic_besov_norm(plain, 2)


@pytest.mark.parametrize("p", [math.nan, math.inf])
@pytest.mark.parametrize("norm", ["mp_norm", "ap_norm",
                                  "analytic_besov_norm", "besov_seminorm"])
def test_norms_reject_non_finite_p(norm, p):
    th = 2 * np.pi * np.arange(64) / 64
    call = {
        "mp_norm": lambda: mp_norm(BeltramiCoefficient.constant_disk(0.3, 0.5),
                                   p),
        "ap_norm": lambda: ap_norm(HolomorphicFunction(
            [-4], [1.0], DomainTag.EXTERIOR_DISK), p),
        "analytic_besov_norm": lambda: analytic_besov_norm(
            HolomorphicFunction([1], [1.0]), p),
        "besov_seminorm": lambda: besov_seminorm(
            BoundaryFunction(th, np.exp(1j * th), "circle"), p),
    }[norm]
    with pytest.raises(ValueError, match=f"p = {p}"):
        call()


def test_besov_cayley_invariance():
    phi = HolomorphicFunction([1], [1.0])
    phi_u = cayley(phi)
    a = analytic_besov_norm(phi, 2).value
    b = analytic_besov_norm(phi_u, 2).value
    assert b == pytest.approx(a, rel=1e-2)


# ---------------------------------------------------------------------------
# Cayley transform


def test_cayley_points():
    assert cayley_map(0j) == pytest.approx(1j)
    assert cayley_map(complex(-1)) == pytest.approx(0j)
    assert cayley_map(-1j) == pytest.approx(1.0 + 0j)


def _disk_side(kind):
    if kind == "coefficient":
        return BeltramiCoefficient(DomainTag.UNIT_DISK,
                                   lambda z: 0.3 * z ** 2 + 0.1j, 1.0, 0.4)
    return HolomorphicFunction([0, 1, 3], [1.0, 0.5, 0.2j])


@pytest.mark.parametrize("kind", ["coefficient", "series"])
def test_cayley_carries_each_kind_across_and_back(kind):
    # each object says which side it is on: cayley takes it to the other
    obj = _disk_side(kind)
    across = cayley(obj)
    z = np.array([0.2 + 0.1j, -0.3j, 0.5 + 0.4j, -0.6 + 0.2j])
    w = cayley_map(z)
    assert across.domain is DomainTag.UPPER_HALF_PLANE
    back = cayley(across)
    assert back.domain is DomainTag.UNIT_DISK
    if kind == "coefficient":  # conjugation keeps the modulus
        assert np.abs(np.abs(across.eval(w)) - np.abs(obj.eval(z))).max() \
            < 1e-12
    else:
        assert back.premap is None
        assert np.abs(across.eval(w) - obj.eval(z)).max() < 1e-12
    assert np.abs(back.eval(z) - obj.eval(z)).max() < 1e-12


@pytest.mark.parametrize("obj, domain", [
    (BeltramiCoefficient.constant_disk(0.3, 0.5, DomainTag.PLANE), "Plane"),
    (BeltramiCoefficient.constant_disk(0.3, 0.5, DomainTag.LOWER_HALF_PLANE),
     "LowerHalfPlane"),
    (HolomorphicFunction([-4], [1.0], DomainTag.EXTERIOR_DISK),
     "ExteriorDisk"),
], ids=["plane", "L", "D* series"])
def test_cayley_names_the_domain_it_cannot_leave(obj, domain):
    with pytest.raises(DomainError, match=rf"\b{domain}$"):
        cayley(obj)


@pytest.mark.parametrize("obj", [
    BoundaryFunction(2 * np.pi * np.arange(64) / 64, np.zeros(64), "circle"),
    BoundaryFunction(np.linspace(-2.0, 2.0, 9), np.zeros(9)),
], ids=["circle data", "line data"])
def test_cayley_does_not_transport_boundary_data(obj):
    # boundary data stay on their side, on the circle or on the line
    with pytest.raises(TypeError, match="BoundaryFunction"):
        cayley(obj)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-0.7, 0.7), y=st.floats(-0.7, 0.7))
def test_cayley_involution(x, y):
    z = complex(x, y)
    if abs(z) >= 0.999:
        return
    assert abs(cayley_inverse(cayley_map(z)) - z) < 1e-12


def test_cayley_beltrami_preserves_modulus():
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    mu_u = cayley(mu)
    w = cayley_map(np.array([0.1 + 0.2j, 0.4j, -0.3 + 0.1j]))
    assert np.abs(np.abs(mu_u.eval(w)) - 0.3).max() < 1e-12
    back = cayley(mu_u)
    z = np.array([0.2 + 0.1j, 0.3j])
    assert np.abs(back.eval(z) - mu.eval(z)).max() < 1e-12


@pytest.mark.parametrize("center, radius", [(0.5, 0.5), (0.0, 1.0)])
def test_mobius_circle_image_through_the_pole_raises(center, radius):
    # cayley_map sends 1 to infinity, so the image is a line, not a circle
    # of NaN center and radius
    with pytest.raises(DomainError, match="line"):
        mobius_circle_image(cayley_map, center, radius)


def test_cayley_leaves_out_the_unit_circle_jump():
    # |z| = 1 bounds D and its image R bounds U: no interior jump lies there
    mu_u = cayley(BeltramiCoefficient.constant_disk(0.3, 1.0))
    assert mu_u.jump_circles == ()
    (c, r), = cayley(BeltramiCoefficient.constant_disk(0.3, 0.5)).jump_circles
    # through cayley_map(-0.5) = i/3 and cayley_map(0.5) = 3i
    assert c == pytest.approx(5j / 3) and r == pytest.approx(4 / 3)


# ---------------------------------------------------------------------------
# HolomorphicFunction basics


def test_series_orders_must_be_integers():
    with pytest.raises(ValueError, match=r"integers, got \[0.5\]"):
        HolomorphicFunction([0.5], [1.0])
    with pytest.raises(ValueError, match=r"got \[-1.5, 2.25\]"):
        HolomorphicFunction([-1.5, 0.0, 2.25], [1.0, 1.0, 1.0])
    # integral floats are orders
    f = HolomorphicFunction(np.arange(48.0), np.ones(48))
    assert f.orders.dtype.kind == "i"
    assert np.array_equal(f.orders, np.arange(48))


def _term_by_term(self, u):
    """Reference series evaluation: one power of u per term."""
    out = np.zeros_like(u)
    for n, c in zip(self.orders, self.coeffs):
        if c != 0:
            out = out + c * u ** n
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
    got = f.eval(z)
    monkeypatch.setattr(HolomorphicFunction, "_series_eval", _term_by_term)
    ref = f.eval(z)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_series_taylor_finite_at_center():
    # the zero order -2 term is skipped, so no 1/z is formed at the
    # center 0
    f = HolomorphicFunction([-2, 0, 1, 2], [0.0, 1.0, 2.0, 3.0])
    assert f.eval(0.0) == 1.0


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
    assert f.heldout_residual < 1e-14
    assert f.sample_scale == pytest.approx(2.0375, rel=1e-12)
    assert HolomorphicFunction([1], [1.0]).heldout_residual is None


def test_circle_fit_holds_out_the_midpoints():
    # fitted on 8 points, z^8 aliases to z^0 and is missed by its full
    # size on the midpoints, where the two differ by 2 r^8
    calls = []

    def fn(z):
        calls.append(z)
        return z ** 8

    f = HolomorphicFunction.from_callable_on_circle(fn, 0.9, range(-3, 4),
                                                    n_samples=8)
    assert [c.size for c in calls] == [8, 8]
    mid = 0.9 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    assert np.abs(calls[1] - mid).max() < 1e-15
    assert f.heldout_residual == pytest.approx(2 * 0.9 ** 8, rel=1e-12)
    assert f.sample_scale == pytest.approx(0.9 ** 8, rel=1e-12)


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


def _grid_spec(vals):
    """A grid coefficient through its wire spec, on solve_disk's chart
    (half-width 1.25, so the node spacing is dyadic) moved off 0."""
    grid = ComplexGrid(0.25 - 0.5j, 1.25, vals)
    mu = BeltramiCoefficient.from_spec(
        {"kind": "grid", "grid": grid.to_json_dict(), "domain": "UnitDisk"})
    return grid, mu


def _linear_reference(grid, z):
    """Cross-check: scipy.interpolate's linear grid interpolator."""
    interp = RegularGridInterpolator(grid.axes(), grid.values,
                                     method="linear")
    return interp(np.stack([z.real, z.imag], axis=-1))


def test_grid_spec_reads_nodes_exactly_and_zero_off_the_grid(rng):
    vals = 0.5 * (rng.uniform(-1, 1, (32, 32))
                  + 1j * rng.uniform(-1, 1, (32, 32)))
    grid, mu = _grid_spec(vals)
    assert np.array_equal(mu._func(grid.nodes()), vals)
    x, y = grid.axes()
    # past the last node, short of the square's edge; just below the first
    # node; far off
    off = np.array([x[-1] + 0.5 * grid.spacing + 1j * y[3],
                    x[2] + 1j * (y[0] - 1e-9), -5.0 + 5.0j])
    assert np.array_equal(mu._func(off), np.zeros(3))


def test_grid_spec_reads_every_node_of_a_non_dyadic_grid(rng):
    # nodes of a grid whose spacing is not dyadic have fractional indices
    # off by a few ulp; the first and last rows and columns must still
    # read their values, not the fill
    n = 32
    vals = 0.5 * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
    grid = ComplexGrid(0.1 + 0.3j, 1.3, vals)
    mu = BeltramiCoefficient.from_grid(grid, DomainTag.UNIT_DISK)
    assert np.abs(mu._func(grid.nodes()) - vals).max() <= \
        2 * n * np.finfo(float).eps * np.abs(vals).max()


def test_grid_spec_interpolates_linearly_between_nodes(rng):
    n = 32
    Z = ComplexGrid(0.25 - 0.5j, 1.25, np.zeros((n, n))).nodes()
    x, y = Z.real[:, 0], Z.imag[0]
    between = (rng.uniform(x[0], x[-1], (40, 30))
               + 1j * rng.uniform(y[0], y[-1], (40, 30)))
    # samples of a smooth coefficient agree with the reference to rounding
    grid, mu = _grid_spec(0.4 * Z * np.exp(-np.abs(Z - 0.25 + 0.5j) ** 2))
    got = mu._func(between)
    assert got.shape == between.shape
    assert np.abs(got - _linear_reference(grid, between)).max() <= \
        1e-15 * np.abs(grid.values).max()
    # rough samples: map_coordinates holds a point as an absolute fractional
    # node index, exact to n ulp, so the two reads differ by up to n ulp of
    # the largest jump between neighbouring nodes, at most 2 max|v|
    grid, mu = _grid_spec(0.5 * (rng.uniform(-1, 1, (n, n))
                                 + 1j * rng.uniform(-1, 1, (n, n))))
    assert np.abs(mu._func(between) - _linear_reference(grid, between)).max() \
        <= 2 * n * np.finfo(float).eps * np.abs(grid.values).max()


_TABLE_PTS = [[0.0, 0.0], [0.1, 0.0]]


@pytest.mark.parametrize("points, values, field", [
    (_TABLE_PTS, [0.1], "values"),  # fewer values than points
    ([], [], "points"),
    ([0.0, 0.1], [0.1, 0.1], "points"),  # 1-D points
    (_TABLE_PTS, [[0.1, 0.0], [0.1, 0.0]], "values"),  # [re, im] pairs
    ([[0.0, math.nan], [0.1, 0.0]], [0.1, 0.1], "points"),
    ([[True, 0.0], [0.1, 0.0]], [0.1, 0.1], "points"),  # read as 1 before
    (_TABLE_PTS, [0.1, False], "values"),
], ids=["short_values", "empty", "flat_points", "pair_values", "nan_point",
        "bool_point", "bool_value"])
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
    # json.load reads Infinity and NaN: an infinite centre gave M_p = 0, a
    # NaN one failed on the support radius
    (dict(_grid_dict(), center=[math.inf, 0]),
     "grid center must be an .x, y. pair of finite numbers"),
    (dict(_grid_dict(), center=[0, math.nan]),
     "grid center must be an .x, y. pair of finite numbers"),
    # a bool is no number: these read as 1 (or failed inside numpy) before
    (dict(_grid_dict(), n=True), "grid n must hold numbers, not bools"),
    (dict(_grid_dict(), half_width=True),
     "grid half_width must hold numbers, not bools"),
    (dict(_grid_dict(), center=[True, 0]),
     "grid center must hold numbers, not bools"),
], ids=["n_mismatch", "no_data", "zero_n", "bad_base64", "not_object",
        "negative_half_width", "text_half_width", "scalar_center",
        "infinite_center", "nan_center", "bool_n", "bool_half_width",
        "bool_center"])
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
