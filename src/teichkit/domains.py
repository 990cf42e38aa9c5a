"""Domain geometry, weighted norms, and the Cayley transform.

Carries the ambient domains (unit disk D, exterior disk D*, upper/lower
half-planes U/L, plane), uniform complex grids, Beltrami coefficients,
coefficient-series holomorphic functions, and the weighted integral norms

    M_p:   ( int_D |mu|^p (1-|z|^2)^{-2} dA )^{1/p}
    A_inf: sup_{D*} (|z|^2-1)^2 |phi(z)|
    A_p:   ( int_{D*} |phi|^p (|z|^2-1)^{2p-2} dA )^{1/p}
    B_p:   ( int_D |phi'|^p (1-|z|^2)^{p-2} dA )^{1/p}

Exterior-disk integrals are evaluated in the inverted variable w = 1/z
(Jacobian |w|^-4), which turns them into disk integrals of
psi(w) = w^-4 phi(1/w) and removes any truncation tail.

Every norm runs on a refinement ladder of polar grids whose radial nodes
cluster geometrically toward the weight singularity; divergence is declared
when three successive ladder values each grow by more than 10%.
"""

from __future__ import annotations

import base64
import enum
import math
from dataclasses import dataclass, field
from functools import singledispatch

import numpy as np

__all__ = [
    "DomainTag",
    "CayleyDirection",
    "ComplexGrid",
    "BeltramiCoefficient",
    "HolomorphicFunction",
    "NormReport",
    "DomainError",
    "hyperbolic_density",
    "cayley",
    "cayley_map",
    "cayley_inverse",
    "mp_norm",
    "ainf_norm",
    "ap_norm",
    "analytic_besov_norm",
]


class DomainError(ValueError):
    """Point or operation incompatible with the tagged domain."""


class DomainTag(str, enum.Enum):
    UNIT_DISK = "UnitDisk"
    EXTERIOR_DISK = "ExteriorDisk"
    UPPER_HALF_PLANE = "UpperHalfPlane"
    LOWER_HALF_PLANE = "LowerHalfPlane"
    PLANE = "Plane"


class CayleyDirection(str, enum.Enum):
    DISK_TO_HALF_PLANE = "DiskToHalfPlane"
    HALF_PLANE_TO_DISK = "HalfPlaneToDisk"


def hyperbolic_density(domain, z):
    """Density of the curvature -1 hyperbolic metric at interior points.

    2/(1-|z|^2) on D, 2/(|z|^2-1) on D*, 1/Im z on U, 1/|Im z| on L.
    """
    domain = DomainTag(domain)
    z = np.asarray(z, dtype=complex)
    if domain is DomainTag.PLANE:
        raise DomainError("the plane carries no hyperbolic density")
    if domain is DomainTag.UNIT_DISK:
        s = 1.0 - np.abs(z) ** 2
        if np.any(s <= 0):
            raise DomainError("point not interior to the unit disk")
        out = 2.0 / s
    elif domain is DomainTag.EXTERIOR_DISK:
        s = np.abs(z) ** 2 - 1.0
        if np.any(s <= 0):
            raise DomainError("point not interior to the exterior disk")
        out = 2.0 / s
    elif domain is DomainTag.UPPER_HALF_PLANE:
        s = z.imag
        if np.any(s <= 0):
            raise DomainError("point not in the upper half-plane")
        out = 1.0 / s
    else:
        s = -z.imag
        if np.any(s <= 0):
            raise DomainError("point not in the lower half-plane")
        out = 1.0 / s
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Cayley transform H(z) = -i(z+1)/(z-1), D -> U, with inverse (w-i)/(w+i).

def cayley_map(z):
    z = np.asarray(z, dtype=complex)
    return -1j * (z + 1.0) / (z - 1.0)


def cayley_inverse(w):
    w = np.asarray(w, dtype=complex)
    return (w - 1j) / (w + 1j)


def cayley_map_deriv(z):
    z = np.asarray(z, dtype=complex)
    return 2j / (z - 1.0) ** 2


def cayley_inverse_deriv(w, order=1):
    w = np.asarray(w, dtype=complex)
    if order == 1:
        return 2j / (w + 1j) ** 2
    if order == 2:
        return -4j / (w + 1j) ** 3
    if order == 3:
        return 12j / (w + 1j) ** 4
    raise ValueError("derivative order up to 3")


# ---------------------------------------------------------------------------
# Grids

def _b64_encode_complex(values):
    flat = np.ascontiguousarray(values, dtype=complex)
    pairs = np.empty(flat.size * 2, dtype="<f8")
    pairs[0::2] = flat.real.ravel()
    pairs[1::2] = flat.imag.ravel()
    return base64.b64encode(pairs.tobytes()).decode("ascii")


@dataclass
class ComplexGrid:
    """Uniform N x N complex samples on a square of half-width L.

    Nodes are x_j = center + (-L + j*2L/N) + i*(-L + k*2L/N); N is a power
    of two so spectral operators can pad without resampling.
    """

    center: complex
    half_width: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise ValueError("grid values must be square")
        if n & (n - 1):
            raise ValueError("grid resolution must be a power of two")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.n

    def axes(self):
        off = -self.half_width + self.spacing * np.arange(self.n)
        return self.center.real + off, self.center.imag + off

    def nodes(self):
        x, y = self.axes()
        X, Y = np.meshgrid(x, y, indexing="ij")
        return X + 1j * Y

    def to_json_dict(self, normalization=None):
        head = {
            "schema": 1,
            "center": [self.center.real, self.center.imag],
            "half_width": self.half_width,
            "n": self.n,
            "encoding": "base64/float64-le/(re,im)/row-major",
            "data": _b64_encode_complex(self.values),
        }
        if normalization is not None:
            head["normalization"] = normalization
        return head

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(
                f"grid must be a JSON object, got {type(d).__name__}")
        for key in ("n", "data", "center", "half_width"):
            if key not in d:
                raise ValueError(f"grid lacks {key!r}")
        n = d["n"]
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"grid n must be a positive int, got {n!r}")
        try:
            pairs = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"grid data is not base64 float64: {exc}") from None
        if pairs.size != 2 * n * n:
            raise ValueError(f"grid data holds {pairs.size // 2} values, "
                             f"n = {n} needs {n * n}")
        hw, center = d["half_width"], d["center"]
        if not isinstance(hw, (int, float)) or not 0 < hw < math.inf:
            raise ValueError(
                f"grid half_width must be a positive number, got {hw!r}")
        if not isinstance(center, (list, tuple)) or len(center) != 2 \
                or not all(isinstance(c, (int, float)) for c in center):
            raise ValueError(f"grid center must be an [x, y] pair, "
                             f"got {center!r}")
        return cls(center=center[0] + 1j * center[1], half_width=hw,
                   values=(pairs[0::2] + 1j * pairs[1::2]).reshape(n, n))


# ---------------------------------------------------------------------------
# Beltrami coefficients

class BeltramiCoefficient:
    """Measurable coefficient mu with ||mu||_inf < 1 on a tagged domain.

    eval returns 0 outside the declared support radius, and outside D for
    disk-domain coefficients; the wrapped callable is only invoked on points
    that survive the mask.  jump_circles lists circles (center, radius)
    where the coefficient is discontinuous; the solver antialiases its
    samples there and excludes them from residual measurements.
    """

    def __init__(self, domain, func, support_radius, sup_norm, jump_circles=(),
                 cache_token=None, meta=None):
        self.domain = DomainTag(domain)
        self._func = func
        self.support_radius = float(support_radius)
        self.sup_norm = float(sup_norm)
        self.jump_circles = tuple((complex(c), float(r)) for c, r in jump_circles)
        self.cache_token = cache_token
        self.meta = dict(meta or {})
        if not self.sup_norm < 1.0:
            raise ValueError(f"sup_norm must be < 1, got {self.sup_norm}")
        if not self.support_radius >= 0.0:
            raise ValueError("support_radius must be >= 0 (math.inf for "
                             f"unbounded support), got {self.support_radius}")

    def _mask(self, z):
        keep = np.ones(z.shape, dtype=bool)
        if np.isfinite(self.support_radius):
            keep &= np.abs(z) <= self.support_radius
        if self.domain is DomainTag.UNIT_DISK:
            keep &= np.abs(z) < 1.0
        elif self.domain is DomainTag.UPPER_HALF_PLANE:
            keep &= z.imag > 0.0
        elif self.domain is DomainTag.LOWER_HALF_PLANE:
            keep &= z.imag < 0.0
        return keep

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z)
        keep = self._mask(zz)
        out = np.zeros(zz.shape, dtype=complex)
        if keep.any():
            vals = np.asarray(self._func(zz[keep]), dtype=complex)
            out[keep] = np.broadcast_to(vals, zz[keep].shape)
        return complex(out[0]) if scalar else out.reshape(z.shape)

    __call__ = eval

    @classmethod
    def zero(cls, domain=DomainTag.UNIT_DISK):
        return cls(domain, lambda z: np.zeros_like(z), 0.0, 0.0,
                   cache_token="zero")

    @classmethod
    def constant_disk(cls, k, r, domain=DomainTag.UNIT_DISK):
        """k * indicator(|z| < r), the workhorse closed-form family."""
        k = complex(k)
        if not abs(k) < 1:
            raise ValueError("|k| must be < 1")
        r = float(r)
        if not (math.isfinite(r) and r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {r!r}")

        def f(z):
            return np.where(np.abs(z) < r, k, 0.0)

        return cls(domain, f, r, abs(k), jump_circles=((0.0, r),),
                   cache_token=f"constant_disk:{k!r}:{r!r}:{DomainTag(domain).value}",
                   meta={"kind": "constant_disk", "k": k, "r": r})

    @classmethod
    def from_grid(cls, grid: ComplexGrid, domain):
        from scipy.interpolate import RegularGridInterpolator

        x, y = grid.axes()
        interp = RegularGridInterpolator(
            (x, y), grid.values, method="linear", bounds_error=False,
            fill_value=0.0)

        def f(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            pts = np.stack([z.real, z.imag], axis=-1)
            return interp(pts)

        rad = grid.half_width * math.sqrt(2.0) + abs(grid.center)
        return cls(domain, f, rad, float(np.max(np.abs(grid.values))))

    @classmethod
    def from_table(cls, points, values, domain):
        """Tabulated coefficient: nearest-point evaluation, zero off-table.

        points is a non-empty list of [x, y] pairs and values holds one
        complex number per point.
        """
        from scipy.spatial import cKDTree

        try:
            pts = np.asarray(points, dtype=float)
            vals = np.asarray(values, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"table points and values must be numbers: "
                             f"{exc}") from None
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ValueError("table points must be a non-empty list of "
                             f"[x, y] pairs, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("table points must be finite")
        if vals.shape != (len(pts),):
            raise ValueError(f"table values must hold one number per point "
                             f"({len(pts)}), got shape {vals.shape}")
        tree = cKDTree(pts)
        rad = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
        cell = max(rad / len(vals) ** 0.5, 1e-3)

        def f(z):
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            dist, idx = tree.query(np.stack([z.real, z.imag], axis=-1))
            # nearest-neighbour lookup only within the sampled cloud
            return np.where(dist < 4 * cell, vals[idx], 0.0)

        return cls(domain, f, rad, float(np.max(np.abs(vals))))

    def scaled(self, c):
        if not abs(c) * self.sup_norm < 1:
            raise ValueError("scaling would push sup_norm to 1")
        return BeltramiCoefficient(
            self.domain, lambda z, s=c: s * self._func(z), self.support_radius,
            abs(c) * self.sup_norm, self.jump_circles,
            cache_token=None if self.cache_token is None
            else f"scaled:{c!r}:{self.cache_token}")

    @classmethod
    def from_spec(cls, spec):
        """Parse the JSON coefficient specs accepted on the wire."""
        kind = spec.get("kind")
        if kind == "constant_disk":
            domain = spec.get("domain", DomainTag.UNIT_DISK.value)
            return cls.constant_disk(spec["k"], spec["r"], domain)
        if kind == "grid":
            grid = ComplexGrid.from_json_dict(spec["grid"])
            return cls.from_grid(grid, spec["domain"])
        if kind == "table":
            return cls.from_table(spec["points"], spec["values"], spec["domain"])
        if kind == "zero":
            return cls.zero(spec.get("domain", DomainTag.UNIT_DISK.value))
        raise ValueError(f"unknown coefficient spec kind: {kind!r}")


# ---------------------------------------------------------------------------
# Holomorphic functions as coefficient series


def _circle_coefficients(vals, radius, orders, noise_rel):
    """Sorted orders and series coefficients from samples on a circle.

    vals[j] is the function at radius exp(2 pi i j / n).  The FFT
    term of order k sits at index k mod n; orders outside the sampled band
    [-(n // 2), (n - 1) // 2] and terms below noise_rel times the largest
    FFT term are zero.
    """
    vals = np.asarray(vals, dtype=complex)
    n = vals.size
    c = np.fft.fft(vals) / n
    orders = np.asarray(sorted(orders), dtype=int)
    cn = c[orders % n]
    # "not below the floor" rather than ">=": a NaN term stays visible
    keep =(orders >= -(n // 2)) & (orders <= (n - 1) // 2) & \
        ~(np.abs(cn) < np.max(np.abs(c)) * noise_rel)
    coeffs = np.zeros(orders.shape, dtype=complex)
    coeffs[keep] = cn[keep] / radius ** orders[keep]
    return orders, coeffs


class HolomorphicFunction:
    """Taylor/Laurent series about 0 with derivatives to order 3.

    orders[i] is the power of z carried by coeffs[i]; negative orders make
    a Laurent series, as for the Bers image on D*.  premap is None or
    "cayley_inverse"; the latter precomposes with H^{-1}, which carries
    Cayley push-forwards phi_* = phi o H^{-1} without resampling.
    """

    def __init__(self, orders, coeffs, domain=DomainTag.UNIT_DISK,
                 premap=None, anchor_radius=None):
        self.orders = np.asarray(orders, dtype=int)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.orders.shape != self.coeffs.shape:
            raise ValueError("orders and coeffs must align")
        self.domain = DomainTag(domain)
        self.premap = premap
        # circle the coefficients were analysed on; evaluation noise is
        # smallest there and grows like (r/anchor)^n away from it
        self.anchor_radius = anchor_radius

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain=DomainTag.UNIT_DISK):
        return cls([0], [0.0], domain=domain)

    @classmethod
    def from_callable_on_circle(cls, fn, radius, orders, n_samples=1024,
                                noise_rel=1e-13, **kw):
        """Fourier-analyse samples on |z| = radius into series coefficients."""
        th = 2.0 * np.pi * np.arange(n_samples) / n_samples
        zc = radius * np.exp(1j * th)
        orders, coeffs = _circle_coefficients(fn(zc), radius, orders,
                                              noise_rel)
        kw.setdefault("anchor_radius", radius)
        return cls(orders, coeffs, **kw)

    # -- evaluation --------------------------------------------------------

    def _pullback(self, z, order):
        """Return (w, derivatives 1..order of the premap at z)."""
        if self.premap != "cayley_inverse":
            raise ValueError(f"unknown premap {self.premap!r}")
        ders = [cayley_inverse_deriv(z, k) for k in range(1, order + 1)]
        return cayley_inverse(z), ders

    def _series_eval(self, w, der=0):
        """der-th derivative of the series at w by Horner's rule.

        The derivative's terms a_m u^m are laid out densely over
        m = lo..hi with lo <= 0 <= hi (gaps as zeros); the powers m >= 0
        are summed by Horner in u and the powers m < 0 by Horner in 1/u.
        """
        u = np.asarray(w, dtype=complex)
        fac = np.ones(self.orders.shape)
        for q in range(der):
            fac *= self.orders - q
        # vanishing terms are dropped, so 1/u is formed only for a true
        # negative power and a Taylor series stays finite at u = 0
        keep = (self.coeffs != 0) & (fac != 0)
        exps = self.orders[keep] - der
        lo, hi = exps.min(initial=0), exps.max(initial=0)
        a = np.zeros(hi - lo + 1, dtype=complex)
        np.add.at(a, exps - lo, self.coeffs[keep] * fac[keep])
        out = np.zeros_like(u)
        for c in a[-lo:][::-1]:  # orders hi .. 0
            out = out * u + c
        if lo < 0:
            v = 1.0 / u
            tail = np.zeros_like(u)
            for c in a[:-lo]:  # orders lo .. -1
                tail = tail * v + c
            out = out + tail * v
        return out

    def eval(self, z, der=0):
        """Evaluate the function or its derivative (der <= 3) at z."""
        if der > 3:
            raise ValueError("derivatives supported up to order 3")
        z = np.asarray(z, dtype=complex)
        if self.premap is None:
            return self._series_eval(z, der)
        w, ders = self._pullback(z, der)
        if der == 0:
            return self._series_eval(w)
        g1 = self._series_eval(w, 1)
        m1 = ders[0]
        if der == 1:
            return g1 * m1
        g2 = self._series_eval(w, 2)
        m2 = ders[1]
        if der == 2:
            return g2 * m1 ** 2 + g1 * m2
        g3 = self._series_eval(w, 3)
        m3 = ders[2]
        return g3 * m1 ** 3 + 3.0 * g2 * m1 * m2 + g1 * m3

    __call__ = eval

    # -- structure ---------------------------------------------------------

    def inverted_disk_rep(self):
        """psi(w) = w^-4 phi(1/w) for an exterior-disk series about 0.

        Requires a plain Laurent representation.  psi is a series in w whose
        negative orders flag decay slower than |z|^-4 at infinity.
        """
        if self.premap is not None:
            raise ValueError("inversion needs a plain series")
        orders = [-n - 4 for n in self.orders]
        return HolomorphicFunction(orders[::-1], self.coeffs[::-1],
                                   DomainTag.UNIT_DISK)

    def growth_order(self):
        """Largest order carrying a coefficient above 1e-10 of the largest."""
        mags = np.abs(self.coeffs)
        if not mags.size or mags.max() == 0.0:
            return -np.inf
        keep = mags > 1e-10 * mags.max()
        return int(self.orders[keep].max())


# ---------------------------------------------------------------------------
# Norm reports and refinement ladders

LADDER_GROWTH = 1.10
LADDER_GROWTH_STEPS = 2  # two consecutive >10% steps = three growing values


@dataclass
class NormReport:
    value: float
    refinements: list = field(default_factory=list)
    divergent: bool = False
    error_estimate: float = 0.0

    @classmethod
    def from_ladder(cls, resolutions, values, power=1.0):
        """Ladder report; divergent when three successive values each grow
        by more than 10% measured on the power-scale (values^power)."""
        values = [float(v) for v in values]
        threshold = LADDER_GROWTH ** (1.0 / power)
        growth = 0
        divergent = False
        for a, b in zip(values, values[1:]):
            if b > threshold * max(a, 1e-300):
                growth += 1
                if growth >= LADDER_GROWTH_STEPS:
                    divergent = True
            else:
                growth = 0
        if divergent:
            return cls(value=math.inf,
                       refinements=list(zip(resolutions, values)),
                       divergent=True, error_estimate=math.inf)
        gap = abs(values[-1] - values[-2]) if len(values) > 1 else abs(values[-1])
        return cls(value=values[-1],
                   refinements=list(zip(resolutions, values)),
                   divergent=False, error_estimate=max(gap, 1e-15))

    def to_json_dict(self):
        return {
            "value": self.value,
            "divergent": self.divergent,
            "error_estimate": self.error_estimate,
            "ladder": [[int(n), float(v)] for n, v in self.refinements],
        }


_JITTER = 0.3819660112501051  # golden-section offset decorrelates ladder levels


def _graded_radial_mesh(n_shells, nodes_per_shell, offset=0.5):
    """Midpoint-type nodes/weights on [0,1) with dyadic shells toward 1.

    Shell j < n_shells is [1-2^-j, 1-2^-(j+1)); a closure shell covers the
    remaining sliver up to 1.  Equal node counts per shell give a mesh
    geometrically refined toward the singular boundary; `offset` shifts the
    in-cell node so successive ladder levels are not nested (a nested ladder
    can alias the error of integrand jumps to zero).
    """
    nodes, weights = [], []
    bounds = [1.0 - 2.0 ** (-j) for j in range(n_shells + 1)] + [1.0]
    last = len(bounds) - 2
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        h = (b - a) / nodes_per_shell
        # closure shell keeps centered nodes: a jittered node arbitrarily
        # close to the singularity would make divergent ladders non-monotone
        off = 0.5 if i == last else offset
        s = a + (np.arange(nodes_per_shell) + off) * h
        nodes.append(s)
        weights.append(np.full(nodes_per_shell, h))
    return np.concatenate(nodes), np.concatenate(weights)


def _polar_nodes(s, th):
    """Nodes s e^{i th} of the polar mesh, radii along axis 0."""
    return s[:, None] * np.exp(1j * th[None, :])


def _polar_series(f, s, th):
    """A plain series about 0 on the polar mesh s x th, as one matrix
    product (s^n a_n) @ e^{i n th} over its nonzero terms a_n z^n."""
    keep = f.coeffs != 0
    n = f.orders[keep]
    return (s[:, None] ** n * f.coeffs[keep]) @ np.exp(1j * n[:, None] * th)


def _disk_ladder(integrand, levels=4, power=1.0):
    """Refinement ladder for int_D F dA in polar coordinates.

    integrand(s, th) gets the radii s and angles th of the mesh and returns
    F on it (radii along axis 0), weight included; the ladder value at each
    level is (integral)^(1/power).  Level lev has 6 + lev dyadic shells of
    48 * 2^lev nodes and 64 * 2^lev angles.
    """
    resolutions, values = [], []
    for lev in range(levels):
        shells = 6 + lev
        nper = 48 * 2 ** lev
        nth = 64 * 2 ** lev
        off = (0.5 + lev * _JITTER) % 1.0
        s, ws = _graded_radial_mesh(shells, nper, off)
        th = 2.0 * np.pi * (np.arange(nth) + 0.5) / nth
        F = integrand(s, th)
        integral = float(np.sum(F.real * (s * ws)[:, None]) * (2.0 * np.pi / nth))
        resolutions.append(nper * nth)
        values.append(max(integral, 0.0) ** (1.0 / power))
        if len(values) >= 3:
            probe = NormReport.from_ladder(resolutions, values, power)
            if probe.divergent:
                return probe
    return NormReport.from_ladder(resolutions, values, power)


def mp_norm(mu: BeltramiCoefficient, p, levels=4):
    """Weighted p-norm of a Beltrami coefficient on D or U.

    Disk: ( int_D |mu|^p (1-|z|^2)^{-2} dA )^{1/p}.  The half-plane case
    pulls back through the Cayley transform, under which the weight
    (2 Im zeta)^{-2} dA becomes exactly the disk weight.
    """
    p = float(p)
    if not p >= 1.0:  # also rejects NaN
        raise ValueError("mp_norm requires p >= 1")
    if mu.domain is DomainTag.PLANE:
        raise DomainError("no hyperbolic weight on the plane")
    if mu.domain is DomainTag.UNIT_DISK:
        sample = mu.eval
    elif mu.domain is DomainTag.UPPER_HALF_PLANE:
        def sample(z):
            return mu.eval(cayley_map(z))
    else:
        raise DomainError(f"mp_norm not defined on {mu.domain.value}")

    def integrand(s, th):
        w = ((1.0 - s ** 2) ** -2)[:, None]
        return np.abs(sample(_polar_nodes(s, th))) ** p * w

    return _disk_ladder(integrand, levels=levels, power=p)


def _require_exterior_series(phi: HolomorphicFunction):
    if phi.domain is not DomainTag.EXTERIOR_DISK:
        raise DomainError("operation expects a function on the exterior disk")
    if phi.growth_order() > 0:
        raise ValueError(
            "series grows at infinity; weighted sup/integral cannot be finite")


def ainf_norm(phi: HolomorphicFunction):
    """sup over D* of (|z|^2-1)^2 |phi(z)|, via psi(w) = w^-4 phi(1/w)."""
    if not np.any(phi.coeffs):
        return NormReport(0.0, [(1, 0.0)], False, 0.0)
    _require_exterior_series(phi)
    psi = phi.inverted_disk_rep()
    resolutions, values = [], []
    for lev in range(4):
        m = 64 * 2 ** lev
        nth = 128 * 2 ** lev
        # radii clustered toward both 0 (decay test) and 1 (weight zero)
        r = np.concatenate([
            np.geomspace(2.0 ** -(6 + 2 * lev), 0.5, m // 2),
            1.0 - np.geomspace(0.5, 2.0 ** -(6 + 2 * lev), m // 2),
        ])
        th = 2.0 * np.pi * np.arange(nth) / nth
        vals = ((1.0 - r ** 2) ** 2)[:, None] * \
            np.abs(_polar_series(psi, r, th))
        resolutions.append(m * nth)
        values.append(float(vals.max()))
    return NormReport.from_ladder(resolutions, values)


def ap_norm(phi: HolomorphicFunction, p):
    """A_p integral norm on D*, computed exactly on the inverted disk.

    int_{D*} |phi|^p (|z|^2-1)^{2p-2} dA  ==  int_D |psi|^p (1-|w|^2)^{2p-2} dA
    with psi(w) = w^-4 phi(1/w); slower-than-quartic decay of phi shows up as
    a pole of psi and is caught by the divergence ladder.
    """
    p = float(p)
    if not p >= 1.0:  # also rejects NaN
        raise ValueError("ap_norm requires p >= 1")
    if not np.any(phi.coeffs):
        return NormReport(0.0, [(1, 0.0)], False, 0.0)
    _require_exterior_series(phi)
    psi = phi.inverted_disk_rep()

    def integrand(s, th):
        return np.abs(_polar_series(psi, s, th)) ** p * \
            ((1.0 - s ** 2) ** (2 * p - 2))[:, None]

    return _disk_ladder(integrand, power=p)


def analytic_besov_norm(phi: HolomorphicFunction, p):
    """Analytic Besov seminorm ( int |phi'|^p (1-|z|^2)^{p-2} dA )^{1/p}.

    Defined on D; on U the integrand |phi_*'|^p (2 Im zeta)^{p-2} is evaluated
    in half-plane variables on the Cayley image of the disk mesh.
    """
    p = float(p)
    if p <= 1.0:
        raise ValueError("analytic Besov norms require p > 1")
    if phi.domain is DomainTag.UNIT_DISK:
        def integrand(s, th):
            z = _polar_nodes(s, th)
            return np.abs(phi.eval(z, der=1)) ** p * \
                (1.0 - np.abs(z) ** 2) ** (p - 2.0)
    elif phi.domain is DomainTag.UPPER_HALF_PLANE:
        def integrand(s, th):
            z = _polar_nodes(s, th)
            zeta = cayley_map(z)
            jac = np.abs(cayley_map_deriv(z)) ** 2
            return np.abs(phi.eval(zeta, der=1)) ** p * \
                (2.0 * zeta.imag) ** (p - 2.0) * jac
    else:
        raise DomainError("analytic Besov norm defined on D or U")
    return _disk_ladder(integrand, power=p)


# ---------------------------------------------------------------------------
# Cayley dispatch over object kinds

@singledispatch
def cayley(obj, direction):
    """Transport an object between D and U; singledispatch by type."""
    raise TypeError(f"cayley cannot transport {type(obj).__name__}")


@cayley.register
def _cayley_complex(obj: complex, direction):
    direction = CayleyDirection(direction)
    if direction is CayleyDirection.DISK_TO_HALF_PLANE:
        if obj == 1.0:
            raise DomainError("z = 1 maps to infinity under the Cayley transform")
        return complex(cayley_map(obj))
    if obj == -1j:
        raise DomainError("w = -i maps to infinity under the inverse Cayley transform")
    return complex(cayley_inverse(obj))


@cayley.register
def _cayley_array(obj: np.ndarray, direction):
    direction = CayleyDirection(direction)
    if direction is CayleyDirection.DISK_TO_HALF_PLANE:
        return cayley_map(obj)
    return cayley_inverse(obj)


def mobius_circle_image(mapping, center, radius):
    """Image circle of |z - center| = radius under a Moebius map.

    Moebius maps send circles to circles (or lines); three image points
    determine the circumcircle.  Raises if the image degenerates to a line.
    """
    pts = [mapping(center + radius * w) for w in (1.0, -1.0, 1j)]
    a, b, c = (complex(p) for p in pts)
    # circumcenter from the two perpendicular-bisector conditions
    A = np.array([[ (b - a).real, (b - a).imag],
                  [ (c - a).real, (c - a).imag]])
    rhs = 0.5 * np.array([abs(b) ** 2 - abs(a) ** 2, abs(c) ** 2 - abs(a) ** 2])
    rhs -= A @ np.array([a.real, a.imag])
    det = np.linalg.det(A)
    if abs(det) < 1e-12 * max(abs(a - b), 1.0) ** 2:
        raise DomainError("circle maps to a line under this transport")
    xy = np.linalg.solve(A, rhs) + np.array([a.real, a.imag])
    ctr = complex(xy[0], xy[1])
    return ctr, abs(a - ctr)


@cayley.register
def _cayley_beltrami(obj: BeltramiCoefficient, direction):
    """Conjugation transport: mu_hat = (mu o M) * conj(M') / M'.

    The modulus is preserved pointwise, so sup_norm carries over.
    """
    direction = CayleyDirection(direction)
    if direction is CayleyDirection.HALF_PLANE_TO_DISK:
        if obj.domain is not DomainTag.UPPER_HALF_PLANE:
            raise DomainError("expected an upper half-plane coefficient")
        M, dM = cayley_map, cayley_map_deriv
        image = cayley_inverse
        new_domain = DomainTag.UNIT_DISK
        new_radius = 1.0
    else:
        if obj.domain is not DomainTag.UNIT_DISK:
            raise DomainError("expected a unit-disk coefficient")
        M, dM = cayley_inverse, cayley_inverse_deriv
        image = cayley_map
        new_domain = DomainTag.UPPER_HALF_PLANE
        r = min(obj.support_radius, 1.0)
        new_radius = (1.0 + r) / (1.0 - r) if r < 1.0 else math.inf

    jumps = [mobius_circle_image(image, c, r) for c, r in obj.jump_circles]

    def f(z):
        w = M(z)
        d = dM(z)
        return obj.eval(w) * np.conj(d) / d

    tok = None if obj.cache_token is None else f"cayley:{direction.value}:{obj.cache_token}"
    return BeltramiCoefficient(new_domain, f, new_radius, obj.sup_norm,
                               jump_circles=jumps, cache_token=tok, meta=obj.meta)


@cayley.register
def _cayley_holomorphic(obj: HolomorphicFunction, direction):
    """Push-forward phi_* = phi o H^{-1} (or back), norm-preserving."""
    direction = CayleyDirection(direction)
    if direction is CayleyDirection.DISK_TO_HALF_PLANE:
        if obj.domain is not DomainTag.UNIT_DISK or obj.premap is not None:
            raise DomainError("expected a plain disk-series function")
        return HolomorphicFunction(obj.orders, obj.coeffs,
                                   DomainTag.UPPER_HALF_PLANE,
                                   premap="cayley_inverse")
    if obj.premap != "cayley_inverse":
        raise DomainError("expected a Cayley push-forward to transport back")
    return HolomorphicFunction(obj.orders, obj.coeffs, DomainTag.UNIT_DISK)
