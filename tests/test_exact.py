import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ellipj, ellipk, ellipkm1

from teichkit import ap_norm, exact
from teichkit.boundary import besov_seminorm


def log_derivative(k, r):
    """log h' of the closed-form welding, as line data read pointwise."""
    return SimpleNamespace(domain="line",
                           eval=lambda x: np.log(exact.welding(k, r, x)[1]))


def sn_welding(a, theta):
    """Reference h_D = m^(1/4) sn(K (1 - 2 theta / pi) + i K'/2; m) of nome
    a^2: m from theta constants, the complex sn from scipy's real ellipj by
    Abramowitz & Stegun 16.21.2; and pi K' / K, which must be -log a^2."""
    k = np.arange(-30, 31)
    t2, t3, t4 = (np.sum(s * a ** (2.0 * (k + h) ** 2)) for s, h in
                  ((1, 0.5), (1, 0.0), ((-1.0) ** k, 0.0)))
    m, m1 = (t2 / t3) ** 4, (t4 / t3) ** 4
    K, Kp = ellipk(m), ellipkm1(m)
    s, c, d, _ = ellipj(K * (1 - 2 * theta / math.pi), m)
    s1, c1, d1, _ = ellipj(Kp / 2, m1)
    sn = (s * d1 + 1j * c * d * s1 * c1) / (c1 * c1 + m * (s * s1) ** 2)
    return t2 / t3 * sn, math.pi * Kp / K


@pytest.mark.parametrize("a", [0.02, 0.075, 0.147, 0.54])
def test_disk_welding_is_the_sn_circle_map(a):
    th = np.linspace(-np.pi, np.pi, 2000)
    hd, dhd = exact.disk_welding(a, th)
    ref, nome = sn_welding(a, th)
    assert nome == pytest.approx(-2 * math.log(a), rel=1e-13)
    assert np.abs(hd - ref).max() <= 1e-13
    assert np.abs(np.abs(hd) - 1).max() <= 1e-15
    # h_D fixes -1 and 1 and commutes with conjugation
    assert abs(hd[0] + 1) <= 1e-15 and abs(hd[-1] + 1) <= 1e-15
    assert abs(exact.disk_welding(a, 0.0)[0] - 1) <= 1e-15
    assert np.abs(exact.disk_welding(a, -th)[0] - np.conj(hd)).max() <= 1e-15
    step = 1e-6
    fd = (exact.disk_welding(a, th + step)[0]
          - exact.disk_welding(a, th - step)[0]) / (2 * step)
    assert np.abs(fd - dhd).max() <= 1e-8


def test_welding_is_normalized_and_its_derivative_matches():
    h, dh = exact.welding(0.2, 0.5, np.array([0.0, 1.0]))
    assert list(h) == [0.0, 1.0]
    x = np.linspace(-8.0, 8.0, 801)
    h, dh = exact.welding(0.2, 0.5, x)
    assert np.all(np.diff(h) > 0) and np.all(dh > 0)
    step = 1e-5
    fd = (exact.welding(0.2, 0.5, x + step)[0]
          - exact.welding(0.2, 0.5, x - step)[0]) / (2 * step)
    assert np.abs(fd / dh - 1).max() <= 1e-9


def test_welding_tends_to_the_identity_to_first_order():
    # h = x + a v(x) + O(a^2): (h - x) / a settles as a -> 0
    x = np.linspace(-5.0, 5.0, 101)
    v = [(exact.welding(a, 1.0, x)[0] - x) / a for a in (1e-6, 1e-8, 1e-10)]
    assert np.abs(v[0]).max() < 20.0
    assert np.abs(v[0] - v[1]).max() <= 1e-5 * np.abs(v[1]).max()
    assert np.abs(v[1] - v[2]).max() <= 1e-5 * np.abs(v[1]).max()


@pytest.mark.parametrize("k, r, value", [(0.15, 0.4, 0.5270143),
                                         (0.3, 0.5, 1.6874348)])
def test_besov_norm_of_the_closed_form_log_derivative(k, r, value):
    rep = besov_seminorm(log_derivative(k, r), 2)
    assert abs(rep.value - value) <= 1e-6


def test_ap2_norm_is_the_weil_petersson_sum_of_the_series():
    for k, r in ((0.6, 0.95), (0.3, 0.5), (-0.4, 0.6)):
        want = exact.ap2_norm(k, r)
        assert abs(ap_norm(exact.bers_image(k, r), 2).value - want) \
            <= 1e-13 * want


def test_first_order_identity_of_the_two_sides_is_douglas():
    # ||log h'||_{B_2} = 2 sqrt(pi) ||Phi(mu)||_{A_2} + O(k^2) on k chi_{rD}:
    # the ratio's linear limit from k and 2k
    ratio = [besov_seminorm(log_derivative(k, 0.5), 2).value
             / ap_norm(exact.bers_image(k, 0.5), 2).value
             for k in (0.00625, 0.0125)]
    assert ratio == pytest.approx([3.546766, 3.548646], abs=1e-6)
    limit = 2 * ratio[0] - ratio[1]
    assert abs(limit - exact.DOUGLAS_RATIO) <= 2e-5 * exact.DOUGLAS_RATIO
