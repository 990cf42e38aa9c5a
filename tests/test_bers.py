
import numpy as np
import pytest

from teichkit import (
    BeltramiCoefficient,
    DomainTag,
    ainf_norm,
    ap_norm,
    bers,
    exact,
    identity_map,
    solve_halfplane,
    solve_plane,
    solver,
)
from teichkit.bers import (
    BersConsistencyError,
    NonHolomorphicError,
    ahlfors_weill,
    bers_map,
    bilipschitz_representative,
    equivalent,
    hyperbolic_distortion,
    laurent_coefficients,
    local_section,
    schwarzian,
)
from teichkit.domains import ComplexGrid, HolomorphicFunction
from teichkit.solver import QuasiconformalMap, _SpectralKit

from conftest import TEST_GRID_N, coefficient

Z32 = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)


def synthetic_disk_map(fn, n=256):
    kit = _SpectralKit(n, 1.25)
    return QuasiconformalMap(domain=DomainTag.UNIT_DISK,
                             grid=ComplexGrid(0.0, 1.25, fn(kit.Z)),
                             outer_eval=fn)


# ---------------------------------------------------------------------------
# laurent_coefficients


def test_laurent_identity():
    f = laurent_coefficients(lambda z: z, 2.0, range(-4, 3))
    assert coefficient(f, 1) == pytest.approx(1.0, abs=1e-12)
    assert all(abs(coefficient(f, n)) < 1e-12 for n in (-2, -1, 0, 2))


def test_laurent_pole_pair_exact():
    f = laurent_coefficients(lambda z: z + 0.075 / z, 2.0, range(-8, 3))
    assert coefficient(f, 1) == pytest.approx(1.0, abs=1e-10)
    assert coefficient(f, -1) == pytest.approx(0.075, abs=1e-10)
    assert f.heldout_residual < 1e-10 * f.sample_scale


def test_laurent_coefficient_decay_geometric():
    # Schwarzian tail coefficients of the closed-form family decay
    # geometrically in the order
    phi = laurent_coefficients(exact.bers_image(0.3, 0.5).eval, 1.5,
                               range(-24, 1))
    f = HolomorphicFunction(np.append(phi.orders, 1),
                            np.append(phi.coeffs, 1.0),
                            DomainTag.EXTERIOR_DISK)  # phi + z
    S = schwarzian(f)
    mags = {int(n): abs(c) for n, c in zip(S.orders, S.coeffs) if abs(c) > 0}
    # use the even orders where the family lives
    seq = [mags[n] for n in (-4, -6, -8, -10) if n in mags]
    ratios = [b / a for a, b in zip(seq, seq[1:])]
    assert all(r < 0.5 for r in ratios)


def test_laurent_rejects_nonholomorphic(plane_03_05):
    with pytest.raises(NonHolomorphicError):
        laurent_coefficients(plane_03_05, 0.4, range(-8, 3))


# ---------------------------------------------------------------------------
# schwarzian


def mobius(w):
    """A Moebius map with its pole at 0.1, inside the images tested here."""
    return (2 * w + 0.3) / (w - 0.1)


def exterior_map(a):
    """z + a/z as an exterior series with zeros down to the order bers_map
    would carry for reach sqrt(a)."""
    K = bers._moment_count(np.sqrt(a))
    return HolomorphicFunction(np.r_[1, -1 - np.arange(K)],
                               np.r_[1.0, a, np.zeros(K - 1)],
                               DomainTag.EXTERIOR_DISK)


def test_schwarzian_mobius_annihilation():
    # mobius(z) = 2 + sum_n 0.5 * 0.1^n z^(-n-1)
    M = HolomorphicFunction(np.r_[0, -1 - np.arange(40)],
                            np.r_[2.0, 0.5 * 0.1 ** np.arange(40)],
                            DomainTag.EXTERIOR_DISK)
    S = schwarzian(M)
    zt = 2.5 * np.exp(1j * np.linspace(0, 6, 9))
    assert np.abs(S.eval(zt)).max() < 1e-9


def test_schwarzian_closed_form():
    S = schwarzian(exterior_map(0.3))
    phi = exact.bers_image(0.3, 1.0)  # a = 0.3
    assert S.eval(2.0 + 0j) == pytest.approx(phi.eval(2.0 + 0j), abs=1e-9)
    assert S.eval(2.5 + 0j) == pytest.approx(phi.eval(2.5 + 0j), abs=1e-9)
    zt = 2.5 * np.exp(1j * np.linspace(0, 6, 9))
    assert np.abs(S.eval(zt) - phi.eval(zt)).max() < 1e-9


@pytest.mark.parametrize("a", [0.075, 0.5415])
def test_schwarzian_of_z_plus_a_over_z_is_the_closed_form_series(a):
    # S(z + a/z) is the series of teichkit.exact on the orders
    # z^-4 .. z^-(K+3) that K carried orders of f determine
    f = exterior_map(a)
    S = schwarzian(f)
    K = f.orders.size - 1
    assert list(S.orders) == list(range(-4, -K - 4, -1))
    even = S.orders % 2 == 0
    phi = exact.bers_image(a, 1.0)
    want = [coefficient(phi, n) for n in S.orders[even]]
    assert np.abs(S.coeffs[even] - want).max() <= 1e-12
    assert np.all(S.coeffs[~even] == 0)


def test_schwarzian_cocycle():
    # S(M o f) = S(f) for a Moebius M; M o f is one-sided on |z| > 0.55
    S = schwarzian(exterior_map(0.3))
    Mf = laurent_coefficients(lambda z: mobius(z + 0.3 / z), 2.0,
                              range(-40, 1))
    SMf = schwarzian(Mf)
    zt = 2.0 * np.exp(1j * np.linspace(0.2, 6, 7))
    assert np.abs(SMf.eval(zt) - S.eval(zt)).max() < 1e-8


def test_schwarzian_rejects_what_is_not_an_exterior_series():
    with pytest.raises(ValueError, match="exterior series .* UnitDisk"):
        schwarzian(HolomorphicFunction([1, 2], [1.0, 0.3]))
    with pytest.raises(ValueError, match="f' vanishes identically"):
        schwarzian(HolomorphicFunction([0, -1], [2.0, 0.0],
                                       DomainTag.EXTERIOR_DISK))


# ---------------------------------------------------------------------------
# bers_map


def test_bers_map_zero():
    pt = bers_map(BeltramiCoefficient.zero(), grid_n=256)
    assert np.abs(pt.bers_image.eval(Z32)).max() == 0.0


@pytest.mark.parametrize("grid_n", [0, -4, 2.5])
def test_bers_map_rejects_a_bad_grid_size(mu_03_05, grid_n):
    with pytest.raises(ValueError, match="grid_n must be an integer >= 1"):
        bers_map(mu_03_05, grid_n=grid_n)


def test_bers_map_closed_form(mu_03_05):
    pt = bers_map(mu_03_05, grid_n=TEST_GRID_N)
    want = exact.bers_image(0.3, 0.5).eval(Z32)
    got = pt.bers_image.eval(Z32)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-2
    assert pt.bers_image.eval(2.0 + 0j) == pytest.approx(-0.0292101, abs=3e-4)
    assert not pt.ainf_report.divergent
    assert not pt.ap_norm_report.divergent


def test_bers_map_norms_lazy_json_unchanged(mu_03_05):
    import json

    pt = bers_map(mu_03_05, grid_n=TEST_GRID_N)
    assert "ap_norm_report" not in vars(pt)
    assert "ainf_report" not in vars(pt)
    phi = pt.bers_image
    eager = {
        "p": pt.p,
        "laurent": [[int(n), c.real, c.imag]
                    for n, c in zip(phi.orders, phi.coeffs)],
        "ainf": ainf_norm(phi).value,
        "ap": ap_norm(phi, pt.p).to_json_dict(),
        "circles_checked": list(pt.circles_checked),
    }
    assert json.dumps(pt.to_json_dict()) == json.dumps(eager)


def test_ap_norm_of_a_bers_image_is_the_weil_petersson_sum(mu_03_05):
    # at p = 2, pi sum |a_n|^2 2/((n+1)(n+2)(n+3)) over psi's coefficients
    phi = bers_map(mu_03_05, grid_n=256).bers_image
    psi = phi.inverted_disk_rep()
    n = psi.orders
    want = np.sqrt(np.pi * np.sum(
        np.abs(psi.coeffs) ** 2 * 2.0 / ((n + 1) * (n + 2) * (n + 3))))
    assert abs(ap_norm(phi, 2).value - want) <= 1e-12 * want


def test_bers_map_builds_no_grid_transform(monkeypatch):
    # the image comes from the moments of h on its support box: no nodes of
    # the whole chart, no padded-torus transform, spline or far field
    def unread(kit, *args):
        raise AssertionError("bers_map read the whole chart or torus")

    monkeypatch.setattr(solver._SpectralKit, "Z", property(unread))
    monkeypatch.setattr(solver._SpectralKit, "spectral", unread)
    bers_map(BeltramiCoefficient.constant_disk(0.3, 0.5), grid_n=128)


def test_bers_images_sample_no_circle(monkeypatch):
    # bers_map and the constants table take their images from series
    # arithmetic: no circle is sampled and fitted on the way
    from teichkit.cli import estimate_constants

    def refuse(*args, **kwargs):
        raise AssertionError("a Bers image was fitted on a circle")

    monkeypatch.setattr(HolomorphicFunction, "from_callable_on_circle",
                        classmethod(refuse))
    phi = bers_map(BeltramiCoefficient.constant_disk(0.3, 0.5),
                   grid_n=128).bers_image
    want = exact.bers_image(0.3, 0.5).eval(Z32)
    # the grid error at N = 128 is about 2%
    assert np.abs(phi.eval(Z32) - want).max() < 5e-2 * np.abs(want).max()
    rows = estimate_constants(family_spec=[(0.6, 0.95)], p_list=(1.0, 2.0))
    assert all(np.isfinite(row["ap_phi"]) for row in rows)


def _ring(z):
    """0.5 (conj z / |z|)^3 on 0.7 < |z| < 0.95: h carries a large c_3."""
    return np.where(np.abs(z) > 0.7,
                    0.5 * (np.conj(z) / np.maximum(np.abs(z), 0.7)) ** 3, 0.0)


def test_bers_map_checks_the_moment_tail(monkeypatch):
    mu = BeltramiCoefficient(DomainTag.UNIT_DISK, _ring, 0.95, 0.5,
                             jump_circles=((0.0, 0.7), (0.0, 0.95)))
    bers_map(mu, grid_n=128)  # enough moments: consistent
    monkeypatch.setattr(bers, "_moment_count", lambda reach: 3)
    with pytest.raises(BersConsistencyError, match="discrepancy"):
        bers_map(mu, grid_n=128)


def test_bers_moment_cut_certificate_is_sound(monkeypatch):
    # the closed-form tail bound holds against the direct Cauchy sum of the
    # same h on |z| in {1.5, 2, 3}, for short cuts and for the chosen one,
    # and bers_map raises exactly when it exceeds the tolerance
    mu = BeltramiCoefficient(DomainTag.UNIT_DISK, _ring, 0.95, 0.5,
                             jump_circles=((0.0, 0.7), (0.0, 0.95)))
    sol = solver._box_solve(mu, 128, False)
    nz = sol.h != 0
    w = sol.kit.nodes(sol.box)[nz]
    hdA = sol.h[nz] * sol.kit.spacing ** 2
    reach = float(np.abs(w).max())
    mass = float(np.abs(hdA).sum()) / np.pi
    th = 2.0 * np.pi * np.arange(256) / 256
    raised = []
    for count in (3, 6, 12, bers._moment_count(reach)):
        moments = [(hdA * w ** n).sum() / np.pi for n in range(count)]
        worst = 0.0
        for rho in (1.5, 2.0, 3.0):
            z = rho * np.exp(1j * th)
            direct = z + (hdA / (z[:, None] - w)).sum(axis=1) / np.pi
            series = z + sum(c * z ** (-n - 1) for n, c in enumerate(moments))
            worst = max(worst, np.abs(series - direct).max() / rho)
        bound = bers._tail_bound(mass, reach, count)
        assert worst <= bound
        monkeypatch.setattr(bers, "_moment_count", lambda reach: count)
        try:
            bers_map(mu, grid_n=128)
            raised.append(False)
        except BersConsistencyError as exc:
            assert "discrepancy" in str(exc)
            raised.append(True)
        assert raised[-1] == (bound > 1e-3)
    assert raised[0] and not raised[-1]


@pytest.mark.parametrize("k", [0.3, 0.6])
def test_bers_map_matches_the_spline_path(k, monkeypatch):
    # the moment series against Laurent analysis of the assembled plane
    # solution on |z| = 1.5, the image's former source
    monkeypatch.setattr(bers, "LAURENT_CHECK_TOL", 1e-5)
    mu = BeltramiCoefficient.constant_disk(k, 0.5)
    spline = schwarzian(laurent_coefficients(
        solve_plane(mu, 512), 1.5, range(-20, 2)))
    got = bers_map(mu, grid_n=512).bers_image.eval(Z32)
    want = spline.eval(Z32)
    assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


def test_bers_map_mobius_invariance(plane_03_05, monkeypatch):
    # the pole of mobius lies in the image of |z| < 1.5, so
    # mobius o f is one-sided on |z| >= 1.5
    monkeypatch.setattr(bers, "LAURENT_CHECK_TOL", 1e-5)
    z = Z32
    s1 = laurent_coefficients(plane_03_05, 1.5, range(-20, 2))
    s2 = laurent_coefficients(lambda t: mobius(plane_03_05(t)), 1.5,
                              range(-40, 1))
    S1 = schwarzian(s1)
    S2 = schwarzian(s2)
    assert np.abs(S1.eval(z) - S2.eval(z)).max() < 1e-6


def test_lemma2_ratio_bounded_over_family():
    # ||Phi(mu)||_{A_p} <= C ||mu||_p with one empirical C over the family
    from teichkit import mp_norm

    ratios = []
    for k in (0.1, 0.2, 0.3):
        for r in (0.3, 0.5, 0.7):
            phi = exact.bers_image(k, r)
            num = ap_norm(phi, 2).value
            den = mp_norm(BeltramiCoefficient.constant_disk(k, r), 2).value
            ratios.append(num / den)
    assert max(ratios) < 20.0
    assert max(ratios) / min(ratios) < 10.0


def test_norm_ordering_ainf_vs_ap():
    ratios = []
    for k in (0.1, 0.3):
        for r in (0.3, 0.7):
            phi = exact.bers_image(k, r)
            ratios.append(ainf_norm(phi).value / ap_norm(phi, 2).value)
    assert max(ratios) < 50.0


def test_lemma1_two_sided_comparability():
    # ||mu * nu^-1||_p comparable to ||mu - nu||_p for a bi-Lipschitz nu,
    # with one empirical constant across the test family
    from teichkit import chain_rule, mp_norm, solve_disk

    nu = bilipschitz_representative(
        BeltramiCoefficient.constant_disk(0.15, 0.5), grid_n=TEST_GRID_N)
    f_nu = nu.meta["final_map"]
    ratios = []
    for mu in (BeltramiCoefficient.constant_disk(0.1, 0.5),
               BeltramiCoefficient.constant_disk(0.25, 0.3)):
        combined = chain_rule(mu, nu, f_nu)
        lhs = mp_norm(combined, 2, levels=3).value

        def diff_eval(z, m=mu, n=nu):
            return m.eval(z) - n.eval(z)

        diff = BeltramiCoefficient(
            DomainTag.UNIT_DISK, diff_eval, 1.0,
            min(mu.sup_norm + nu.sup_norm, 0.99))
        rhs = mp_norm(diff, 2, levels=3).value
        ratios.append(lhs / rhs)
    C = max(max(ratios), 1.0 / min(ratios))
    assert C < 10.0
    assert all(1.0 / C <= r <= C for r in ratios)


# ---------------------------------------------------------------------------
# Ahlfors-Weill section


def test_aw_zero():
    sig = ahlfors_weill(
        HolomorphicFunction([0], [0.0], DomainTag.EXTERIOR_DISK))
    assert np.abs(sig.eval(np.array([0j, 0.5 + 0.2j]))).max() == 0.0


def test_aw_pointwise_modulus():
    # |sigma(phi)(z*)| = (1/2)(|z|^2-1)^2 |phi(z)| at z = 1/conj(z*),
    # since |z z*| = 1
    phi = exact.bers_image(0.2, 0.5)
    sig = ahlfors_weill(phi)
    u = np.array([0.3 + 0.2j, 0.5j, -0.7 + 0.1j])
    z = 1.0 / np.conj(u)
    expected = 0.5 * (np.abs(z) ** 2 - 1) ** 2 * np.abs(phi.eval(z))
    assert np.abs(np.abs(sig.eval(u)) - expected).max() < 1e-12


def test_aw_sup_norm_is_half_ainf():
    phi = exact.bers_image(0.2, 0.5)
    assert ahlfors_weill(phi).sup_norm == pytest.approx(
        ainf_norm(phi).value / 2, abs=1e-6)


def test_aw_rejects_large_phi():
    big = HolomorphicFunction([-4], [30.0], DomainTag.EXTERIOR_DISK)
    with pytest.raises(ValueError):
        ahlfors_weill(big)


def test_aw_section_roundtrip_family():
    # Phi(sigma(phi)) = phi is the Ahlfors-Weill theorem; family of five
    for k in (0.02, 0.05, 0.08, 0.1, 0.12):
        phi = exact.bers_image(k, 0.5)
        assert ainf_norm(phi).value < 0.5
        sig = ahlfors_weill(phi)
        got = bers_map(sig, grid_n=TEST_GRID_N).bers_image
        err = np.abs(got.eval(Z32) - phi.eval(Z32)).max()
        assert err < 5e-3, (k, err)


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_reflexive(mu_03_05):
    eq, dist = equivalent(mu_03_05, mu_03_05, tol=1e-2)
    assert eq and dist < 1e-12


def test_equivalent_section_representative():
    mu = BeltramiCoefficient.constant_disk(0.1, 0.5)
    nu = ahlfors_weill(bers_map(mu, grid_n=TEST_GRID_N).bers_image)
    eq, dist = equivalent(mu, nu, tol=1e-2, grid_n=TEST_GRID_N)
    assert eq, dist


def test_not_equivalent_distinct_k():
    mu1 = BeltramiCoefficient.constant_disk(0.1, 0.5)
    mu2 = BeltramiCoefficient.constant_disk(0.2, 0.5)
    eq, dist = equivalent(mu1, mu2, tol=1e-2, grid_n=TEST_GRID_N)
    assert not eq
    # injectivity witness: distance at least the closed-form gap at z=2
    gap = abs(exact.bers_image(0.1, 0.5).eval(2.0)
              - exact.bers_image(0.2, 0.5).eval(2.0))
    assert dist >= 0.9 * gap


# ---------------------------------------------------------------------------
# hyperbolic distortion


def test_distortion_identity():
    lo, hi = hyperbolic_distortion(synthetic_disk_map(lambda z: z))
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_distortion_mobius_isometry():
    a = 0.3 + 0.2j

    def mob(z):
        return (z - a) / (1 - np.conj(a) * z)

    lo, hi = hyperbolic_distortion(synthetic_disk_map(mob))
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)


def test_distortion_rejects_a_map_that_is_not_a_disk_self_map():
    mu_u = BeltramiCoefficient.constant_disk(0.2, 0.5,
                                             DomainTag.UPPER_HALF_PLANE)
    for f in (identity_map(64), solve_halfplane(mu_u, grid_n=64)):
        with pytest.raises(ValueError,
                           match="^hyperbolic distortion expects a disk "
                                 "self-map$"):
            hyperbolic_distortion(f)


def test_distortion_aw_map_small():
    phi = exact.bers_image(0.1, 0.5)
    from teichkit import solve_disk

    f = solve_disk(ahlfors_weill(phi), grid_n=TEST_GRID_N)
    lo, hi = hyperbolic_distortion(f)
    assert hi / lo <= 2.0
    assert lo > 0


# ---------------------------------------------------------------------------
# bi-Lipschitz representative


def test_bilip_zero():
    nu = bilipschitz_representative(BeltramiCoefficient.zero(), grid_n=256)
    assert nu.meta["steps"] == 1
    assert np.abs(nu.eval(np.array([0.2 + 0.1j, 0.5j]))).max() < 1e-10


def test_bilip_single_step_branch():
    mu = BeltramiCoefficient.constant_disk(0.1, 0.5)
    nu = bilipschitz_representative(mu, delta=0.3, grid_n=TEST_GRID_N)
    assert nu.meta["steps"] == 1 and nu.meta["single_step"]
    eq, dist = equivalent(nu, mu, tol=1e-2, grid_n=TEST_GRID_N)
    assert eq, dist


def test_bilip_rejects_bad_delta():
    with pytest.raises(ValueError):
        bilipschitz_representative(BeltramiCoefficient.zero(), delta=0.5)


# ---------------------------------------------------------------------------
# local section


def scaled_image(eps):
    """eps Phi(0.1 chi_{0.5D})."""
    phi = exact.bers_image(0.1, 0.5)
    return HolomorphicFunction(phi.orders, eps * phi.coeffs,
                               DomainTag.EXTERIOR_DISK)


def test_local_section_basepoint(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=TEST_GRID_N)
    out = local_section(base, HolomorphicFunction(
        [0], [0.0], DomainTag.EXTERIOR_DISK), grid_n=256)
    assert out is base


def test_local_section_at_zero_base_is_aw():
    phi = exact.bers_image(0.05, 0.5)
    zero = BeltramiCoefficient.zero()
    from teichkit import identity_map

    nu = local_section(zero, phi, grid_n=TEST_GRID_N,
                       base_map=None)
    sig = ahlfors_weill(phi)
    z = np.array([0.2 + 0.1j, 0.4j, -0.5 + 0.3j])
    assert np.abs(nu.eval(z) - sig.eval(z)).max() < 5e-4


def test_local_section_tracks_target(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=TEST_GRID_N)
    base_map = base.meta["final_map"]
    psi = bers_map(base, grid_n=TEST_GRID_N).bers_image
    phi = scaled_image(0.1)
    nu = local_section(base, phi, grid_n=TEST_GRID_N, base_map=base_map)
    got = bers_map(nu, grid_n=TEST_GRID_N).bers_image
    target = psi.eval(Z32) + phi.eval(Z32)
    assert np.abs(got.eval(Z32) - target).max() < 1e-2


def test_local_section_continuity(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=TEST_GRID_N)
    base_map = base.meta["final_map"]
    z = 0.5 * np.exp(1j * np.linspace(0, 6, 13))
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        phi = scaled_image(eps)
        nu = local_section(base, phi, grid_n=256, base_map=base_map)
        gaps.append(np.abs(nu.eval(z) - base.eval(z)).max())
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.05


def test_local_section_rejects_large_phi(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=256)
    big = HolomorphicFunction([-4], [10.0], DomainTag.EXTERIOR_DISK)
    with pytest.raises(ValueError):
        local_section(base, big, epsilon=0.5, grid_n=256)
