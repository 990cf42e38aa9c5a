"""Closed forms the kit is checked against, for the disk family
mu = k chi_{rD} with a = k r^2: mu's plane solution is z + a/z on |z| > r.
Its Bers image, A_2 and M_p norms and welding, and the Douglas values of
the trace of z, are written here and nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import DomainTag, HolomorphicFunction

__all__ = ["DOUGLAS_TRACE_Z", "DOUGLAS_RATIO", "bers_image", "ap2_norm",
           "mp_norm", "disk_welding", "welding"]

# Douglas: the Besov 2-seminorm of the trace of z, and its ratio to the
# analytic Besov 2-norm of z
DOUGLAS_TRACE_Z = 2.0 * math.pi
DOUGLAS_RATIO = 2.0 * math.sqrt(math.pi)

SERIES_TAIL = 1e-16  # bound on bers_image's cut tail, relative, on |z| >= 1


def bers_image(k, r) -> HolomorphicFunction:
    """Phi(k chi_{rD}) = S(z + a/z) = -6a/(z^2 - a)^2, |a| < 1, as its series
    sum_n -6(n+1) a^(n+1) z^(-4-2n), cut at the least N with (N+1) |a|^N
    <= SERIES_TAIL (1 - |a|)^2.  On |z| >= 1 the tail sum_{n>=N} (n+1) |a|^n
    <= (N+1) |a|^N / (1 - |a|)^2 is then below SERIES_TAIL of the leading
    6|a|: 20 terms at a = 0.147, 69 at a = 0.54."""
    a = k * r * r
    if not abs(a) < 1:
        raise ValueError(f"k r^2 must lie in the unit disk, got {a!r}")
    n = 1
    while (n + 1) * abs(a) ** n > SERIES_TAIL * (1 - abs(a)) ** 2:
        n += 1
    n = np.arange(n)
    return HolomorphicFunction(-4 - 2 * n, -6.0 * (n + 1) * a ** (n + 1),
                               DomainTag.EXTERIOR_DISK)


def ap2_norm(k, r):
    """A_2(Phi(k chi_{rD})) = 3 (pi ((|a| + 1/|a|) artanh|a| - 1))^(1/2), the
    Weil-Petersson sum of bers_image's series by partial fractions.  The
    difference loses about log10(1/|a|^2) digits: 1e-11 at |a| = 1.6e-3."""
    a = abs(k * r * r)
    return 3.0 * math.sqrt(math.pi * ((a + 1 / a) * math.atanh(a) - 1))


def mp_norm(k, r, p):
    """M_p(k chi_{rD}) = |k| (pi r^2 / (1 - r^2))^(1/p), for 0 <= r < 1;
    at r = 1, inf unless k = 0, as the hyperbolic area of D is infinite."""
    if r == 1:
        return math.inf if k else 0.0
    return abs(k) * (math.pi * r * r / (1 - r * r)) ** (1 / p)


def disk_welding(a, theta):
    """(h_D, dh_D/dtheta) at e^(i theta): the welding of the disk family.

    For real 0 < a < 1, f = z + a/z maps S^1 onto the ellipse with semi-axes
    1 +- a and foci +-2 sqrt(a), and the Riemann map of its interior fixing
    0 and the real axis has the inverse (Nehari, Conformal Mapping, ch. VI)

        g^-1(w) = m^(1/4) sn((2K/pi) arcsin(w / (2 sqrt a)); m)

    of nome q = a^2.  h_D = g^-1 o f on S^1, where w / (2 sqrt a) =
    cos(theta - i tau) with tau = -log(a) / 2: the arcsin is pi/2 - theta +
    i tau (either side of its cut at theta = 0 and pi gives the same sn).
    As sn(K - v) = cd(v) and m^(1/4) cd(2Kz/pi) = theta_2(z) / theta_3(z),
    h_D = theta_2(theta - i tau) / theta_3(theta - i tau).  Summed directly
    over k in Z, with zeta = e^(i theta), these are

        h_D(zeta) = sum_k a^(k(2k+1)) zeta^(2k+1) / D,
        D(zeta) = sum_k a^(k(2k-1)) zeta^(2k),

    and on |zeta| = 1 the numerator is zeta conj(D), so |h_D| = 1 by
    construction, and no elliptic parameter near 1 enters for small a.  The
    terms fall like a^(2k^2); only those below e^-40 are dropped.
    """
    if not 0 < a < 1:
        raise ValueError(f"the closed-form welding needs 0 < a < 1, got {a!r}")
    n = math.ceil(math.sqrt(20.0 / -math.log(a))) + 1
    k = np.arange(-n, n + 1)
    c = a ** (k * (2 * k - 1))
    theta = np.asarray(theta, dtype=float)
    e = np.exp(2j * np.multiply.outer(theta, k))
    d, dd = e @ c, e @ (2j * k * c)
    hd = np.exp(1j * theta) * np.conj(d) / d
    return hd, 1j * hd * (1 - 2 * (dd / d).imag)


def welding(k, r, x):
    """(h(x), h'(x)) of the kit's welding of k chi_{rD} on R, a = k r^2 real
    in (0, 1).

    h = A o C o h_D o C^-1 with C the Cayley map (teichkit.domains.
    cayley_map), which sends e^(i theta) to x = -cot(theta/2), and A the
    real Moebius map fixing 0, 1 and infinity.  h_D fixes -1 and 1 and
    commutes with conjugation, so C o h_D o C^-1 is odd and A is the scaling
    x -> x / (C o h_D o C^-1)(1).  h is read at -|x|, where theta =
    2 atan(1/|x|) lies in (0, pi], and h(x) = -h(-x).  With h_D(e^(i theta))
    = e^(i phi), h' = A' sin^2(theta/2) phi'(theta) / sin^2(phi/2), where
    sin^2(theta/2) = 1 / (1 + x^2).
    """
    a = k * r * r

    def at_minus(t):  # (-h(-t), h'(-t)) up to A, for t >= 0
        hd, dhd = disk_welding(a, 2.0 * np.arctan2(1.0, t))
        half = np.angle(hd) / 2
        dphi = (dhd / hd).imag
        return 1.0 / np.tan(half), dphi / ((1 + t * t) * np.sin(half) ** 2)

    x = np.asarray(x, dtype=float)
    scale = at_minus(1.0)[0]
    hx, dhx = at_minus(np.abs(x))
    return np.sign(x) * hx / scale, dhx / scale
