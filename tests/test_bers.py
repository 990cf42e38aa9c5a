from functools import lru_cache

import numpy as np
import pytest

from teichkit import (
    BeltramiCoefficient,
    DomainTag,
    ainf_norm,
    ap_norm,
    bers,
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
from teichkit.solver import Normalization, QuasiconformalMap, _kit

from conftest import TEST_GRID_N, coefficient

Z32 = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)


def phi_closed_form(k, r):
    a = k * r * r
    return lambda z: -6.0 * a / (z * z - a) ** 2


def phi_series(k, r, rho=1.5):
    return laurent_coefficients(phi_closed_form(k, r), rho, range(-24, 1))


def synthetic_disk_map(fn, n=256):
    kit = _kit(n, 1.25)
    return QuasiconformalMap(
        normalization=Normalization.FIX_THREE_BOUNDARY_POINTS,
        grid=ComplexGrid(0.0, 1.25, fn(kit.Z)), outer_eval=fn)


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
    assert f.resample_residual < 1e-10


def test_laurent_coefficient_decay_geometric():
    # Schwarzian tail coefficients of the closed-form family decay
    # geometrically in the order
    phi = phi_series(0.3, 0.5)  # orders -24 .. 0
    f = HolomorphicFunction(np.append(phi.orders, 1),
                            np.append(phi.coeffs, 1.0),
                            DomainTag.EXTERIOR_DISK,
                            anchor_radius=phi.anchor_radius)  # phi + z
    S = schwarzian(f, out_orders=range(-20, 2))
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


def test_schwarzian_mobius_annihilation():
    M = laurent_coefficients(lambda z: (2 * z + 0.3) / (0.02 * z + 1),
                             2.0, range(0, 40))
    S = schwarzian(M)
    zt = 2.5 * np.exp(1j * np.linspace(0, 6, 9))
    assert np.abs(S.eval(zt)).max() < 1e-9


def test_schwarzian_closed_form():
    f = laurent_coefficients(lambda z: z + 0.3 / z, 2.0, range(-12, 2))
    S = schwarzian(f)
    assert S.eval(2.0 + 0j) == pytest.approx(-6 * 0.3 / 3.7 ** 2, abs=1e-9)
    zt = 2.5 * np.exp(1j * np.linspace(0, 6, 9))
    exact = -6 * 0.3 / (zt ** 2 - 0.3) ** 2
    assert np.abs(S.eval(zt) - exact).max() < 1e-9


def test_schwarzian_cocycle():
    f = laurent_coefficients(lambda z: z + 0.3 / z, 2.0, range(-12, 2))
    S = schwarzian(f)
    Mf = laurent_coefficients(
        lambda z: (2 * (z + 0.3 / z) + 0.3) / (0.02 * (z + 0.3 / z) + 1),
        2.0, range(-24, 40))
    SMf = schwarzian(Mf, out_orders=range(-28, -3))
    zt = 2.0 * np.exp(1j * np.linspace(0.2, 6, 7))
    assert np.abs(SMf.eval(zt) - S.eval(zt)).max() < 1e-8


def test_schwarzian_rejects_vanishing_derivative():
    # f(z) = z + 4/z has f'(+-2) = 0 on the sampling circle
    f = laurent_coefficients(lambda z: z + 4.0 / z, 2.0, range(-8, 3))
    with pytest.raises(ValueError):
        schwarzian(f, sample_radius=2.0)


def test_schwarzian_needs_a_sampling_circle():
    f = HolomorphicFunction([1, -1], [1.0, 0.3], DomainTag.EXTERIOR_DISK)
    with pytest.raises(ValueError, match="sample_radius or .* anchor_radius"):
        schwarzian(f)
    S = schwarzian(f, sample_radius=2.0)
    assert S.anchor_radius == 2.0
    assert S.eval(2.5 + 0j) == pytest.approx(-6 * 0.3 / 5.95 ** 2, abs=1e-9)


# ---------------------------------------------------------------------------
# bers_map


def test_bers_map_zero():
    pt = bers_map(BeltramiCoefficient.zero(), grid_n=256)
    assert np.abs(pt.bers_image.eval(Z32)).max() == 0.0


def test_bers_map_closed_form(mu_03_05):
    pt = bers_map(mu_03_05, grid_n=TEST_GRID_N)
    exact = phi_closed_form(0.3, 0.5)(Z32)
    got = pt.bers_image.eval(Z32)
    assert np.abs(got - exact).max() / np.abs(exact).max() < 1e-2
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


def test_bers_map_builds_no_grid_transform(monkeypatch):
    # the image comes from the moments of h on its support box: no nodes of
    # the whole chart, no padded-torus multiplier, spline or far field, and
    # no memo entry
    monkeypatch.setattr(solver, "_MEMO", {})
    monkeypatch.setattr(solver, "_kit", lru_cache(maxsize=8)(
        solver._SpectralKit))
    bers_map(BeltramiCoefficient.constant_disk(0.3, 0.5), grid_n=128)
    assert not {"Z", "mult_T", "mult_P"} & set(vars(solver._kit(128, 4.0, 2)))
    assert solver._MEMO == {}


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


@pytest.mark.parametrize("k", [0.3, 0.6])
def test_bers_map_matches_the_spline_path(k):
    # the moment series against Laurent analysis of the assembled plane
    # solution on |z| = 1.5, the image's former source
    mu = BeltramiCoefficient.constant_disk(k, 0.5)
    spline = schwarzian(laurent_coefficients(
        solve_plane(mu, 512), 1.5, range(-20, 2), check_tol=1e-5))
    got = bers_map(mu, grid_n=512).bers_image.eval(Z32)
    want = spline.eval(Z32)
    assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


def test_bers_map_mobius_invariance(plane_03_05):
    z = Z32

    def M(w):
        return (2 * w + 0.3) / (0.02 * w + 1)

    s1 = laurent_coefficients(plane_03_05, 1.5, range(-20, 2),
                              check_tol=1e-5)
    s2 = laurent_coefficients(lambda t: M(plane_03_05(t)), 1.5,
                              range(-20, 40), check_tol=1e-5)
    S1 = schwarzian(s1)
    S2 = schwarzian(s2, out_orders=range(-28, -3))
    assert np.abs(S1.eval(z) - S2.eval(z)).max() < 1e-6


def test_lemma2_ratio_bounded_over_family():
    # ||Phi(mu)||_{A_p} <= C ||mu||_p with one empirical C over the family
    from teichkit import mp_norm

    ratios = []
    for k in (0.1, 0.2, 0.3):
        for r in (0.3, 0.5, 0.7):
            phi = phi_series(k, r)
            num = ap_norm(phi, 2).value
            den = mp_norm(BeltramiCoefficient.constant_disk(k, r), 2).value
            ratios.append(num / den)
    assert max(ratios) < 20.0
    assert max(ratios) / min(ratios) < 10.0


def test_norm_ordering_ainf_vs_ap():
    ratios = []
    for k in (0.1, 0.3):
        for r in (0.3, 0.7):
            phi = phi_series(k, r)
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
    sig = ahlfors_weill(HolomorphicFunction.zero(DomainTag.EXTERIOR_DISK))
    assert np.abs(sig.eval(np.array([0j, 0.5 + 0.2j]))).max() == 0.0


def test_aw_pointwise_modulus():
    # |sigma(phi)(z*)| = (1/2)(|z|^2-1)^2 |phi(z)| at z = 1/conj(z*),
    # since |z z*| = 1
    phi = phi_series(0.2, 0.5)
    sig = ahlfors_weill(phi)
    u = np.array([0.3 + 0.2j, 0.5j, -0.7 + 0.1j])
    z = 1.0 / np.conj(u)
    expected = 0.5 * (np.abs(z) ** 2 - 1) ** 2 * np.abs(phi.eval(z))
    assert np.abs(np.abs(sig.eval(u)) - expected).max() < 1e-12


def test_aw_sup_norm_is_half_ainf():
    phi = phi_series(0.2, 0.5)
    assert ahlfors_weill(phi).sup_norm == pytest.approx(
        ainf_norm(phi).value / 2, abs=1e-6)


def test_aw_rejects_large_phi():
    big = HolomorphicFunction([-4], [30.0], DomainTag.EXTERIOR_DISK)
    with pytest.raises(ValueError):
        ahlfors_weill(big)


def test_aw_section_roundtrip_family():
    # Phi(sigma(phi)) = phi is the Ahlfors-Weill theorem; family of five
    for k in (0.02, 0.05, 0.08, 0.1, 0.12):
        phi = phi_series(k, 0.5)
        assert ainf_norm(phi).value < 0.5
        sig = ahlfors_weill(phi)
        got = bers_map(sig, grid_n=TEST_GRID_N).bers_image
        err = np.abs(got.eval(Z32) - phi.eval(Z32)).max()
        assert err < 5e-3, (k, err)


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_reflexive(mu_03_05):
    eq, dist = equivalent(mu_03_05, mu_03_05)
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
    gap = abs(phi_closed_form(0.1, 0.5)(2.0) - phi_closed_form(0.2, 0.5)(2.0))
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


def test_distortion_aw_map_small():
    phi = phi_series(0.1, 0.5)
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


def test_local_section_basepoint(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=TEST_GRID_N)
    psi = bers_map(base, grid_n=TEST_GRID_N).bers_image
    out = local_section(base, psi, HolomorphicFunction.zero(
        DomainTag.EXTERIOR_DISK), grid_n=256)
    assert out is base


def test_local_section_at_zero_base_is_aw():
    phi = phi_series(0.05, 0.5)
    zero = BeltramiCoefficient.zero()
    psi0 = HolomorphicFunction.zero(DomainTag.EXTERIOR_DISK)
    from teichkit import identity_map

    nu = local_section(zero, psi0, phi, grid_n=TEST_GRID_N,
                       base_map=None)
    sig = ahlfors_weill(phi)
    z = np.array([0.2 + 0.1j, 0.4j, -0.5 + 0.3j])
    assert np.abs(nu.eval(z) - sig.eval(z)).max() < 5e-4


def test_local_section_tracks_target(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=TEST_GRID_N)
    base_map = base.meta["final_map"]
    psi = bers_map(base, grid_n=TEST_GRID_N).bers_image
    phi = laurent_coefficients(
        lambda z: 0.1 * phi_closed_form(0.1, 0.5)(z), 1.5, range(-24, 1))
    nu = local_section(base, psi, phi, grid_n=TEST_GRID_N, base_map=base_map)
    got = bers_map(nu, grid_n=TEST_GRID_N).bers_image
    target = psi.eval(Z32) + phi.eval(Z32)
    assert np.abs(got.eval(Z32) - target).max() < 1e-2


def test_local_section_continuity(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=TEST_GRID_N)
    base_map = base.meta["final_map"]
    psi = bers_map(base, grid_n=TEST_GRID_N).bers_image
    z = 0.5 * np.exp(1j * np.linspace(0, 6, 13))
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        phi = laurent_coefficients(
            lambda t: eps * phi_closed_form(0.1, 0.5)(t), 1.5, range(-24, 1))
        nu = local_section(base, psi, phi, grid_n=256, base_map=base_map)
        gaps.append(np.abs(nu.eval(z) - base.eval(z)).max())
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.05


def test_local_section_rejects_large_phi(mu_03_05):
    base = bilipschitz_representative(mu_03_05, grid_n=256)
    psi = bers_map(base, grid_n=256).bers_image
    big = HolomorphicFunction([-4], [10.0], DomainTag.EXTERIOR_DISK)
    with pytest.raises(ValueError):
        local_section(base, psi, big, epsilon=0.5, grid_n=256)
