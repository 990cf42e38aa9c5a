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

A norm of a series takes its verdict from the series' orders (coefficients
at or below 1e-10 of the largest count as zero) and its value from Gauss-
Jacobi quadrature.  M_p (mu may jump) and the A_inf sup run on ladders of
polar grids; M_p diverges when three values in a row each grow by >10%.
"""

from __future__ import annotations

import base64
import enum
import math
from dataclasses import dataclass, field
from functools import singledispatch

import numpy as np
# roots_jacobi imports scipy.linalg on its first call: load it with the
# package, so that the first norm does not pay for the import
import scipy.linalg  # noqa: F401
from scipy import ndimage
from scipy.special import roots_jacobi

__all__ = [
    "DomainTag",
    "ComplexGrid",
    "BeltramiCoefficient",
    "HolomorphicFunction",
    "NormReport",
    "DomainError",
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


# ---------------------------------------------------------------------------
# Grids

def _holds_bool(val):
    """Whether val or a list nested in it holds a bool, which is no number."""
    if isinstance(val, (list, tuple)):
        return any(_holds_bool(v) for v in val)
    return np.asarray(val).dtype == bool


def _check_count(name, val, least=1):
    """Raise ValueError naming the argument unless val is an integer (not a
    bool) of at least least."""
    if isinstance(val, bool) or not isinstance(val, (int, np.integer)) \
            or val < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {val!r}")


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

    def coordinates(self, z):
        """Fractional (row, column) node indices of the points z, stacked
        on a first axis as scipy.ndimage.map_coordinates reads them."""
        x, y = (a[0] for a in self.axes())
        return np.stack([(z.real - x) / self.spacing,
                         (z.imag - y) / self.spacing])

    def interpolate_linear(self, values, z, fill):
        """values, given on the grid nodes, read at the points z by linear
        interpolation; fill at points off the square of nodes.  Whether a
        point is on it is decided against the axes, so that rounding in
        its fractional index cannot put a node on the edge off the grid."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        x, y = self.axes()
        on = (z.real >= x[0]) & (z.real <= x[-1]) & \
             (z.imag >= y[0]) & (z.imag <= y[-1])
        crd = np.where(on, np.clip(self.coordinates(z), 0, self.n - 1), -1.0)
        return ndimage.map_coordinates(values, crd, order=1, mode="constant",
                                       cval=fill)

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
        for key in ("n", "half_width", "center"):
            if _holds_bool(d[key]):
                raise ValueError(f"grid {key} must hold numbers, not bools")
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
                or not all(isinstance(c, (int, float)) and math.isfinite(c)
                           for c in center):
            raise ValueError(f"grid center must be an [x, y] pair of finite "
                             f"numbers, got {center!r}")
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

    cache_token = None  # read only by perfbench's tracer

    def __init__(self, domain, func, support_radius, sup_norm, jump_circles=(),
                 meta=None):
        self.domain = DomainTag(domain)
        self._func = func
        self.support_radius = float(support_radius)
        self.sup_norm = float(sup_norm)
        self.jump_circles = tuple((complex(c), float(r)) for c, r in jump_circles)
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
        return cls(domain, lambda z: np.zeros_like(z), 0.0, 0.0)

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
                   meta={"kind": "constant_disk", "k": k, "r": r})

    @classmethod
    def from_grid(cls, grid: ComplexGrid, domain):
        """Coefficient read linearly from the grid values; 0 off the grid."""

        def f(z):
            return grid.interpolate_linear(grid.values, z, 0.0)

        rad = grid.half_width * math.sqrt(2.0) + abs(grid.center)
        return cls(domain, f, rad, float(np.max(np.abs(grid.values))))

    @classmethod
    def from_table(cls, points, values, domain):
        """Tabulated coefficient: nearest-point evaluation, zero off-table.

        points is a non-empty list of [x, y] pairs and values holds one
        complex number per point.
        """
        from scipy.spatial import cKDTree

        for name, val in (("points", points), ("values", values)):
            if _holds_bool(val):
                raise ValueError(f"table {name} must hold numbers, not bools")
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
            abs(c) * self.sup_norm, self.jump_circles)

    # fields each coefficient spec kind must carry, and those it may carry
    # besides
    _SPEC_FIELDS = {"constant_disk": (("k", "r"), ("domain",)),
                    "grid": (("grid", "domain"), ()),
                    "table": (("points", "values", "domain"), ()),
                    "zero": ((), ("domain",))}

    @classmethod
    def check_spec(cls, spec, name):
        """Raise ValueError, naming the spec as name, unless spec is an
        object of a known kind carrying the fields its kind must carry and
        no field its kind does not read, with no bool for k or r."""
        if not isinstance(spec, dict):
            raise ValueError(f"{name} must be a JSON object, got {spec!r}")
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in cls._SPEC_FIELDS:
            raise ValueError(f"{name} kind {kind!r} is unknown")
        need, may = cls._SPEC_FIELDS[kind]
        for key in need:
            if key not in spec:
                raise ValueError(f"{name} of kind {kind!r} lacks {key!r}")
        for key in spec:
            if key not in ("kind", *need, *may):
                raise ValueError(
                    f"{name} key {key!r} is not read by kind {kind!r}")
        for key in ("k", "r"):
            if isinstance(spec.get(key), bool):
                raise ValueError(f"{name} {key} must be a number, not a bool")

    @classmethod
    def from_spec(cls, spec):
        """Parse the JSON coefficient specs accepted on the wire."""
        cls.check_spec(spec, "coefficient spec")
        kind = spec["kind"]
        if kind == "constant_disk":
            domain = spec.get("domain", DomainTag.UNIT_DISK.value)
            return cls.constant_disk(spec["k"], spec["r"], domain)
        if kind == "grid":
            grid = ComplexGrid.from_json_dict(spec["grid"])
            return cls.from_grid(grid, spec["domain"])
        if kind == "table":
            return cls.from_table(spec["points"], spec["values"], spec["domain"])
        return cls.zero(spec.get("domain", DomainTag.UNIT_DISK.value))


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
    """Taylor/Laurent series about 0.

    orders[i] is the integer power of z carried by coeffs[i]; negative
    orders make a Laurent series, as for the Bers image on D*.  premap is
    None or "cayley_inverse"; the latter precomposes with H^{-1}, which
    carries Cayley push-forwards phi_* = phi o H^{-1} without resampling.
    A series fitted on a circle (from_callable_on_circle) records its
    held-out residual and sample scale; other series carry None there.
    """

    def __init__(self, orders, coeffs, domain=DomainTag.UNIT_DISK,
                 premap=None):
        given = np.asarray(orders)
        self.orders = given.astype(int)
        if np.any(self.orders != given):
            raise ValueError(f"series orders must be integers, got "
                             f"{given[self.orders != given].tolist()}")
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.orders.shape != self.coeffs.shape:
            raise ValueError("orders and coeffs must align")
        if premap not in (None, "cayley_inverse"):
            raise ValueError(f"unknown premap {premap!r}")
        self.domain = DomainTag(domain)
        self.premap = premap
        self.heldout_residual = None
        self.sample_scale = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain=DomainTag.UNIT_DISK):
        return cls([0], [0.0], domain=domain)

    @classmethod
    def from_callable_on_circle(cls, fn, radius, orders, n_samples=1024,
                                noise_rel=1e-13, **kw):
        """Fourier-analyse samples on |z| = radius into series coefficients.

        fn is fitted on the n_samples points radius e^{2 pi i j / n} and
        called again on the n_samples midpoints between them: the series
        records max |series - fn| there as heldout_residual, and max |fn|
        over both point sets as sample_scale.
        """
        th = 2.0 * np.pi * np.arange(n_samples) / n_samples
        vals = np.asarray(fn(radius * np.exp(1j * th)), dtype=complex)
        orders, coeffs = _circle_coefficients(vals, radius, orders,
                                              noise_rel)
        series = cls(orders, coeffs, **kw)
        th = 2.0 * np.pi * (np.arange(n_samples) + 0.5) / n_samples
        zm = radius * np.exp(1j * th)
        held = np.asarray(fn(zm), dtype=complex)
        series.heldout_residual = float(np.max(np.abs(series.eval(zm)
                                                      - held)))
        series.sample_scale = float(max(np.max(np.abs(vals)),
                                        np.max(np.abs(held))))
        return series

    # -- evaluation --------------------------------------------------------

    def _series_eval(self, u):
        """The series at u by Horner's rule.

        Its terms a_m u^m are laid out densely over m = lo..hi with
        lo <= 0 <= hi (gaps as zeros); the powers m >= 0 are summed by
        Horner in u and the powers m < 0 by Horner in 1/u.
        """
        # vanishing terms are dropped, so 1/u is formed only for a true
        # negative power and a Taylor series stays finite at u = 0
        keep = self.coeffs != 0
        exps = self.orders[keep]
        lo, hi = exps.min(initial=0), exps.max(initial=0)
        a = np.zeros(hi - lo + 1, dtype=complex)
        np.add.at(a, exps - lo, self.coeffs[keep])
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

    def eval(self, z):
        """Evaluate the function at z."""
        z = np.asarray(z, dtype=complex)
        return self._series_eval(z if self.premap is None
                                 else cayley_inverse(z))

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


def _polar_terms(f, th):
    """(orders n, coefficients a_n, angular factor e^{i n th}) of the
    nonzero terms a_n z^n of a plain series about 0."""
    keep = f.coeffs != 0
    n = f.orders[keep]
    return n, f.coeffs[keep], np.exp(1j * n[:, None] * th)


def _polar_series(f, s, th, terms=None):
    """A plain series about 0 on the polar mesh s x th, as one matrix
    product (s^n a_n) @ e^{i n th} over its nonzero terms a_n z^n; terms,
    when given, is _polar_terms(f, th), built once for several blocks of
    radii."""
    n, a, e = _polar_terms(f, th) if terms is None else terms
    return (s[:, None] ** n * a) @ e


def mp_norm(mu: BeltramiCoefficient, p, levels=4):
    """Weighted p-norm of a Beltrami coefficient on D or U.

    Disk: ( int_D |mu|^p (1-|z|^2)^{-2} dA )^{1/p}.  The half-plane case
    pulls back through the Cayley transform, under which the weight
    (2 Im zeta)^{-2} dA becomes exactly the disk weight.

    Each ladder level samples mu one dyadic shell of its radial mesh (nper
    radii) at a time into the one array of weighted terms that is summed,
    so no level holds more than a shell's temporaries beside it; the sum is
    bit-exact to one whole-level evaluation, since each term reads only its
    own node.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:  # also rejects NaN
        raise ValueError(f"mp_norm requires 1 <= p < inf, got p = {p}")
    _check_count("mp_norm levels", levels)
    if mu.domain is DomainTag.PLANE:
        raise DomainError("no hyperbolic weight on the plane")
    if mu.domain is DomainTag.UNIT_DISK:
        sample = mu.eval
    elif mu.domain is DomainTag.UPPER_HALF_PLANE:
        def sample(z):
            return mu.eval(cayley_map(z))
    else:
        raise DomainError(f"mp_norm not defined on {mu.domain.value}")
    resolutions, values = [], []
    for lev in range(levels):
        nper, nth = 48 * 2 ** lev, 64 * 2 ** lev
        s, ws = _graded_radial_mesh(6 + lev, nper, (0.5 + lev * _JITTER) % 1.0)
        th = 2.0 * np.pi * (np.arange(nth) + 0.5) / nth
        F = np.empty((s.size, nth))
        for start in range(0, s.size, nper):
            r = slice(start, start + nper)
            F[r] = np.abs(sample(_polar_nodes(s[r], th))) ** p * \
                ((1.0 - s[r] ** 2) ** -2)[:, None]
            F[r] *= (s[r] * ws[r])[:, None]
        integral = float(np.sum(F) * (2.0 * np.pi / nth))
        resolutions.append(nper * nth)
        values.append(max(integral, 0.0) ** (1.0 / p))
        rep = NormReport.from_ladder(resolutions, values, power=p)
        if rep.divergent:
            break
    return rep


def _divergent(m, p):
    """|w^m|^p is integrable at 0 iff m p > -2; w^m is bounded iff m >= 0."""
    return m < 0 if p == math.inf else m * p <= -2


def _series_rule(f, p, alpha):
    """( int_D |f|^p (1-|w|^2)^alpha dA )^{1/p} of a plain series f.

    With m f's lowest order and t = |w|^2 it is (1/2) int int |w^-m f|^p
    t^{mp/2} (1-t)^alpha dt dth: Gauss-Jacobi in t, the trapezoid rule in th
    on nr x 4 nr nodes, nr doubling from 32 until two orders agree to 1e-12
    relative or nr reaches 512; the last gap is the error estimate.
    """
    if not np.any(f.coeffs):
        return NormReport(0.0, [(1, 0.0)], False, 0.0)
    # lowest order above growth_order's floor (inversion sends n to -n - 4)
    m = -f.inverted_disk_rep().growth_order() - 4
    if _divergent(m, p):
        return NormReport(math.inf, [], True, math.inf)
    g = HolomorphicFunction(f.orders - m, f.coeffs)
    refinements = []
    for nr in (32, 64, 128, 256, 512):
        x, wx = roots_jacobi(nr, alpha, m * p / 2.0)
        th = 2.0 * np.pi * np.arange(4 * nr) / (4 * nr)
        vals = np.abs(_polar_series(g, np.sqrt((1.0 + x) / 2.0), th)) ** p
        integral = float(wx @ vals.sum(axis=1)) * np.pi / (4 * nr) / \
            2.0 ** (alpha + m * p / 2.0 + 1.0)
        value = integral ** (1.0 / p)
        gap = abs(value - refinements[-1][1]) if refinements else math.inf
        refinements.append((4 * nr * nr, value))
        if gap <= 1e-12 * value:
            break
    return NormReport(value, refinements, False, gap)


def _require_exterior_series(phi: HolomorphicFunction):
    if phi.domain is not DomainTag.EXTERIOR_DISK:
        raise DomainError("operation expects a function on the exterior disk")
    if phi.growth_order() > 0:
        raise ValueError(
            "series grows at infinity; weighted sup/integral cannot be finite")


# radii of an A_inf ladder level evaluated at a time: 64 radii of its finest
# level (1024 angles) hold a 1 MB block
AINF_RADII = 64


def ainf_norm(phi: HolomorphicFunction):
    """sup over D* of (|z|^2-1)^2 |phi(z)|, via psi(w) = w^-4 phi(1/w).

    Divergent exactly when psi has a pole: phi.growth_order() > -4, with
    coefficients at or below 1e-10 of the largest counted as zero.

    Each ladder level evaluates psi AINF_RADII radii at a time against one
    angular factor and keeps the running max, so memory stays bounded on
    every level; the value is bit-exact to one whole-level evaluation,
    since each row of the matrix product reads only its own radius and a
    max of block maxima is the max.
    """
    if not np.any(phi.coeffs):
        return NormReport(0.0, [(1, 0.0)], False, 0.0)
    _require_exterior_series(phi)
    if _divergent(-phi.growth_order() - 4, math.inf):
        return NormReport(math.inf, [], True, math.inf)
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
        terms = _polar_terms(psi, th)
        top = 0.0
        for start in range(0, m, AINF_RADII):
            rb = r[start:start + AINF_RADII]
            vals = ((1.0 - rb ** 2) ** 2)[:, None] * \
                np.abs(_polar_series(psi, rb, th, terms))
            top = np.maximum(top, vals.max())
        resolutions.append(m * nth)
        values.append(float(top))
    return NormReport.from_ladder(resolutions, values)


def ap_norm(phi: HolomorphicFunction, p):
    """A_p integral norm on D*, computed exactly on the inverted disk.

    int_{D*} |phi|^p (|z|^2-1)^{2p-2} dA  ==  int_D |psi|^p (1-|w|^2)^{2p-2} dA
    with psi(w) = w^-4 phi(1/w), by _series_rule.  Divergent exactly when
    m p <= -2 for psi's lowest order m = -phi.growth_order() - 4
    (coefficients at or below 1e-10 of the largest count as zero).
    """
    p = float(p)
    if not 1.0 <= p < math.inf:  # also rejects NaN
        raise ValueError(f"ap_norm requires 1 <= p < inf, got p = {p}")
    _require_exterior_series(phi)
    return _series_rule(phi.inverted_disk_rep(), p, 2.0 * p - 2.0)


def analytic_besov_norm(phi: HolomorphicFunction, p):
    """Analytic Besov seminorm ( int |phi'|^p (1-|z|^2)^{p-2} dA )^{1/p}.

    On D, _series_rule on phi' (divergent exactly when m p <= -2 for its
    lowest order m, coefficients at or below 1e-10 of the largest counting
    as zero).  On U, phi = phi_D o H^{-1}: with z = H^{-1}(zeta),
    2 Im zeta = |H'(z)| (1-|z|^2), so the U integrand is phi_D's D integrand.
    """
    p = float(p)
    if not 1.0 < p < math.inf:  # also rejects NaN
        raise ValueError(f"Besov norms require 1 < p < inf, got p = {p}")
    if phi.domain is DomainTag.UPPER_HALF_PLANE:
        phi = cayley(phi)
    elif phi.domain is not DomainTag.UNIT_DISK:
        raise DomainError("analytic Besov norm defined on D or U")
    dphi = HolomorphicFunction(phi.orders - 1, phi.orders * phi.coeffs)
    return _series_rule(dphi, p, p - 2.0)


# ---------------------------------------------------------------------------
# Cayley dispatch over object kinds

@singledispatch
def cayley(obj):
    """Carry an object to the side of the Cayley map it is not on.

    A unit-disk coefficient or a plain disk series goes to U; an upper
    half-plane coefficient or a Cayley push-forward series goes to D.
    Objects on any other domain raise DomainError naming it.  Dispatches on
    the object's type: other types, boundary data among them, raise
    TypeError.
    """
    raise TypeError(f"cayley cannot transport {type(obj).__name__}")


def mobius_circle_image(mapping, center, radius):
    """Image circle of |z - center| = radius under a Moebius map.

    Moebius maps send circles to circles (or lines); three image points
    determine the circumcircle.  Raises if the image degenerates to a line,
    also when an image point is not finite (the circle meets the pole).
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # at the pole
        pts = [mapping(center + radius * w) for w in (1.0, -1.0, 1j)]
    a, b, c = (complex(p) for p in pts)
    if not np.isfinite([a, b, c]).all():
        raise DomainError("circle maps to a line under this transport")
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
def _cayley_beltrami(obj: BeltramiCoefficient):
    """Conjugation transport: mu_hat = (mu o M) * conj(M') / M', from U to D
    or from D to U.

    The modulus is preserved pointwise, so sup_norm carries over.
    """
    if obj.domain is DomainTag.UPPER_HALF_PLANE:
        M, dM = cayley_map, cayley_map_deriv
        image = cayley_inverse
        new_domain = DomainTag.UNIT_DISK
        new_radius = 1.0
    elif obj.domain is DomainTag.UNIT_DISK:
        M, dM = cayley_inverse, lambda w: 2j / (w + 1j) ** 2
        image = cayley_map
        new_domain = DomainTag.UPPER_HALF_PLANE
        r = min(obj.support_radius, 1.0)
        new_radius = (1.0 + r) / (1.0 - r) if r < 1.0 else math.inf
    else:
        raise DomainError(f"cayley carries coefficients on D or U, not on "
                          f"{obj.domain.value}")

    # the unit circle bounds D and its image R bounds U: no interior jump
    jumps = [mobius_circle_image(image, c, r) for c, r in obj.jump_circles
             if new_domain is DomainTag.UNIT_DISK or (c, r) != (0, 1)]

    def f(z):
        w = M(z)
        d = dM(z)
        return obj.eval(w) * np.conj(d) / d

    return BeltramiCoefficient(new_domain, f, new_radius, obj.sup_norm,
                               jump_circles=jumps, meta=obj.meta)


@cayley.register
def _cayley_holomorphic(obj: HolomorphicFunction):
    """Push-forward phi_* = phi o H^{-1} of a plain disk series, or the
    series back from its push-forward; norm-preserving."""
    if obj.premap == "cayley_inverse":
        return HolomorphicFunction(obj.orders, obj.coeffs, DomainTag.UNIT_DISK)
    if obj.domain is not DomainTag.UNIT_DISK:
        raise DomainError(f"cayley carries plain series on D or their "
                          f"push-forwards, not a series on {obj.domain.value}")
    return HolomorphicFunction(obj.orders, obj.coeffs,
                               DomainTag.UPPER_HALF_PLANE,
                               premap="cayley_inverse")
