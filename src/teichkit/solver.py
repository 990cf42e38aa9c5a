"""Beltrami equation solvers on the plane, half-plane, and disk.

The normalized plane solution of dbar f = mu df for compactly supported mu
is built from the Neumann iteration

    h <- mu * (1 + T[h]),        f = z + P[h],

where T is the Beurling transform (Fourier multiplier conj(W)/W) and P the
solid Cauchy transform (multiplier -2i/W), both applied on a 2x zero-padded
torus.  Relative to the free-plane kernel 1/(pi u), the periodic P kernel
carries a background term -conj(u)/A and a cubic Weierstrass-series term
(Eisenstein constant G4); both are restored from moments of h, after which
the closed-form test maps are reproduced to a few 1e-4.

Disk self-maps f^mu are obtained by transporting the coefficient to the
upper half-plane, extending it by the reflection conj(mu(conj z)) across R
(which preserves compact support, unlike the disk reflection z -> 1/conj z),
solving on the plane, renormalizing by a real affine map fixing 0, 1, inf,
and conjugating back.  Symmetry forces |f| = 1 on the unit circle, and
fixing 0, 1, inf on R corresponds to fixing -1, -i, 1 on S.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import RectBivariateSpline, RegularGridInterpolator

from .domains import (
    BeltramiCoefficient,
    ComplexGrid,
    DomainTag,
    HolomorphicFunction,
    cayley,
    cayley_inverse,
    cayley_map,
    CayleyDirection,
)

__all__ = [
    "SolverError",
    "QuasiconformalMap",
    "Normalization",
    "cauchy_transform",
    "beurling_transform",
    "solve_plane",
    "solve_halfplane",
    "solve_disk",
    "identity_map",
    "dilatation",
    "compose",
    "invert",
    "invert_map",
    "chain_rule",
    "auto_half_width",
]

# Eisenstein sum over nonzero Gaussian integers of w^-4 (unit square
# lattice); scales as G4 / a^4 for period a.
G4_SQUARE = 3.1512120021539

MARGIN_FRACTION = 0.9

# residual |f(f^-1(w)) - w| that invert converges to
NEWTON_TOL = 1e-9


class SolverError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])


class Normalization(str, enum.Enum):
    FIX_ZERO_ONE_INFINITY = "FixZeroOneInfinity"
    FIX_THREE_BOUNDARY_POINTS = "FixThreeBoundaryPoints"


class _SpectralKit:
    """Multiplier arrays for one (n, half_width, pad) configuration."""

    def __init__(self, n, half_width, pad=2):
        self.n = n
        self.half_width = float(half_width)
        self.pad = pad
        self.spacing = 2.0 * self.half_width / n
        m = pad * n
        w = 2.0 * np.pi * sfft.fftfreq(m, d=self.spacing)
        W = w[:, None] + 1j * w[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.mult_T = np.conj(W) / W
            self.mult_P = -2j / W
        self.mult_T[0, 0] = 0.0
        self.mult_P[0, 0] = 0.0
        self.torus_area = (m * self.spacing) ** 2
        off = -self.half_width + self.spacing * np.arange(n)
        self.Z = off[:, None] + 1j * off[None, :]

    def apply(self, h, mult):
        if self.pad == 1:
            return sfft.ifft2(mult * sfft.fft2(h))
        m = self.pad * self.n
        hp = np.zeros((m, m), dtype=complex)
        hp[: self.n, : self.n] = h
        return sfft.ifft2(mult * sfft.fft2(hp))[: self.n, : self.n]

    def beurling(self, h):
        return self.apply(h, self.mult_T)

    def cauchy(self, h):
        """Padded-spectral P plus the lattice moment corrections."""
        out = self.apply(h, self.mult_P)
        if self.pad == 1:
            return out
        cell = self.spacing ** 2
        Z = self.Z
        m0 = h.sum() * cell
        m1 = (Z * h).sum() * cell
        m2 = (Z * Z * h).sum() * cell
        m3 = (Z * Z * Z * h).sum() * cell
        mc = (np.conj(Z) * h).sum() * cell
        out = out + (m0 * np.conj(Z) - mc) / self.torus_area
        c4 = G4_SQUARE / (np.pi * self.torus_area ** 2)
        out = out + c4 * (m0 * Z ** 3 - 3 * m1 * Z ** 2 + 3 * m2 * Z - m3)
        return out


@lru_cache(maxsize=8)
def _kit(n, half_width, pad=2):
    return _SpectralKit(n, half_width, pad)


def auto_half_width(reach):
    """Smallest grid half-width (4, 8, or 16) fitting the support margin.

    Powers of two keep 0 and 1 exactly on grid nodes for every N.  Infinite
    reach (full-disk data transported to the half-plane) takes the widest
    chart so the margin truncation sits far out.
    """
    if not np.isfinite(reach):
        return 16.0
    if reach <= 3.5:
        return 4.0
    if reach <= 7.0:
        return 8.0
    if reach <= 14.0:
        return 16.0
    raise SolverError(f"coefficient support reach {reach:.2f} exceeds grid limits")


def _check_margin(grid: ComplexGrid, what="support"):
    vals = np.abs(grid.values)
    if vals.max() == 0.0:
        return
    mask = vals > 1e-6 * vals.max()
    if not mask.any():
        return
    Z = grid.nodes() - grid.center
    reach = max(np.abs(Z.real[mask]).max(), np.abs(Z.imag[mask]).max())
    if reach > MARGIN_FRACTION * grid.half_width:
        raise SolverError(
            f"{what} touches the outer 10% margin of the grid "
            f"(reach {reach:.3f} of half-width {grid.half_width:.3f})")


def cauchy_transform(grid: ComplexGrid, pad=2) -> ComplexGrid:
    """Solid Cauchy transform P[h](z) = -(1/pi) iint h(w)/(w - z) dA(w).

    Satisfies dbar P[h] = h; equals +conj(z) inside and +1/z outside for
    h the unit-disk indicator.
    """
    if grid.center != 0:
        raise SolverError("spectral transforms expect a grid centered at 0")
    _check_margin(grid)
    kit = _kit(grid.n, grid.half_width, pad)
    return ComplexGrid(grid.center, grid.half_width, kit.cauchy(grid.values))


def beurling_transform(grid: ComplexGrid, pad=2) -> ComplexGrid:
    """Principal-value Beurling transform as the multiplier conj(W)/W.

    T[dbar phi] = d phi; |multiplier| = 1 makes T an exact discrete L2
    isometry on its torus (state it with pad=1).
    """
    if grid.center != 0:
        raise SolverError("spectral transforms expect a grid centered at 0")
    if pad > 1:
        _check_margin(grid)  # torus-native pad=1 has no aliasing margin
    kit = _kit(grid.n, grid.half_width, pad)
    return ComplexGrid(grid.center, grid.half_width, kit.beurling(grid.values))


# ---------------------------------------------------------------------------
# Coefficient sampling


def _binomial_blur(a):
    out = 0.25 * np.roll(a, 1, 0) + 0.5 * a + 0.25 * np.roll(a, -1, 0)
    return 0.25 * np.roll(out, 1, 1) + 0.5 * out + 0.25 * np.roll(out, -1, 1)


def _reflected_jump_circles(mu, reflect):
    circles = list(mu.jump_circles)
    if reflect:
        circles += [(np.conj(c), r) for c, r in circles]
    return circles


def sample_coefficient(mu: BeltramiCoefficient, n, half_width, mollify=True,
                       reflect=False, truncation=None):
    """Sample mu on the solver grid.

    Cells cut by a declared jump circle are supersampled to their cell
    average, then one mass-preserving binomial blur is applied; both keep
    closed-form agreement at O(spacing^2) while suppressing the spectral
    ringing of sharp interfaces.  reflect=True extends a half-plane
    coefficient by conj(mu(conj z)) across R.
    """
    kit = _kit(n, half_width, 2)
    Z = kit.Z
    d = kit.spacing
    vals = mu.eval(Z)
    if truncation is not None:
        vals[np.abs(Z) > truncation] = 0.0
    for c, r in mu.jump_circles:
        near = np.abs(np.abs(Z - c) - r) < 1.5 * d
        if not near.any():
            continue
        sub = 8
        off = (np.arange(sub) + 0.5) / sub - 0.5
        OX, OY = np.meshgrid(off, off, indexing="ij")
        patch = (OX + 1j * OY).ravel() * d
        zs = Z[near][:, None] + patch[None, :]
        sv = mu.eval(zs)
        if truncation is not None:
            sv[np.abs(zs) > truncation] = 0.0
        vals[near] = sv.mean(axis=1)
    if reflect:
        vals[Z.imag <= 0] = 0.0
        flipped = np.conj(vals[:, ::-1])
        ref = np.zeros_like(vals)
        ref[:, 1:] = flipped[:, :-1]  # y-node j reflects to node n - j
        vals = vals + np.where(Z.imag < 0, ref, 0.0)
    if mollify:
        vals = _binomial_blur(vals)
    return vals


# ---------------------------------------------------------------------------
# Quasiconformal maps


@dataclass
class QuasiconformalMap:
    """Grid-sampled normalized solution of a Beltrami equation.

    Evaluation uses bicubic interpolation inside the grid; outside it falls
    back to the Laurent far field (conformal tail) or an explicit outer
    evaluator when one exists.
    """

    normalization: Normalization
    grid: ComplexGrid
    source_mu: BeltramiCoefficient | None = None
    conformal_region: tuple | None = None
    mu_samples: np.ndarray | None = None
    residual: float | None = None
    convergence_ratio: float | None = None
    iteration_trace: list = field(default_factory=list, repr=False)
    far_field: HolomorphicFunction | None = None
    outer_eval: object = None
    symmetry_defect: float | None = None
    halfplane_map: QuasiconformalMap | None = field(default=None, repr=False)
    _interp: object = field(default=None, repr=False)
    _partials: object = field(default=None, repr=False)

    def _interpolators(self):
        if self._interp is None:
            x, y = self.grid.axes()
            self._interp = (
                RectBivariateSpline(x, y, self.grid.values.real, kx=3, ky=3),
                RectBivariateSpline(x, y, self.grid.values.imag, kx=3, ky=3),
            )
        return self._interp

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z).ravel()
        out = np.empty_like(zz)
        lim = MARGIN_FRACTION * self.grid.half_width
        inside = (np.abs(zz.real - self.grid.center.real) <= lim) & \
                 (np.abs(zz.imag - self.grid.center.imag) <= lim)
        if inside.any():
            ire, iim = self._interpolators()
            xs, ys = zz[inside].real, zz[inside].imag
            out[inside] = ire.ev(xs, ys) + 1j * iim.ev(xs, ys)
        if (~inside).any():
            if self.far_field is not None:
                out[~inside] = self.far_field.eval(zz[~inside])
            elif self.outer_eval is not None:
                out[~inside] = self.outer_eval(zz[~inside])
            else:
                raise SolverError("evaluation outside the sampled grid "
                                  "without a conformal far field")
        return complex(out[0]) if scalar else out.reshape(z.shape)

    def partial_grids(self, order=2):
        """Centered-difference (df, dbar f) sampled on the grid.

        order=4 uses the five-point stencil in the interior (two cells of
        second-order fallback at the edges).
        """
        if self._partials is None:
            self._partials = {}
        if order not in self._partials:
            d = self.grid.spacing
            f = self.grid.values
            fx = np.gradient(f, d, axis=0)
            fy = np.gradient(f, d, axis=1)
            if order == 4:
                fx4 = (-f[4:, :] + 8 * f[3:-1, :] - 8 * f[1:-3, :]
                       + f[:-4, :]) / (12 * d)
                fy4 = (-f[:, 4:] + 8 * f[:, 3:-1] - 8 * f[:, 1:-3]
                       + f[:, :-4]) / (12 * d)
                fx[2:-2, :] = fx4
                fy[:, 2:-2] = fy4
            self._partials[order] = ((fx - 1j * fy) / 2.0,
                                     (fx + 1j * fy) / 2.0)
        return self._partials[order]

    def partials_at(self, z):
        dz, dbar = self.partial_grids()
        x, y = self.grid.axes()
        gd_r = RegularGridInterpolator((x, y), dz.real, method="linear",
                                       bounds_error=False, fill_value=1.0)
        gd_i = RegularGridInterpolator((x, y), dz.imag, method="linear",
                                       bounds_error=False, fill_value=0.0)
        gb_r = RegularGridInterpolator((x, y), dbar.real, method="linear",
                                       bounds_error=False, fill_value=0.0)
        gb_i = RegularGridInterpolator((x, y), dbar.imag, method="linear",
                                       bounds_error=False, fill_value=0.0)
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        pts = np.stack([z.real, z.imag], axis=-1)
        return gd_r(pts) + 1j * gd_i(pts), gb_r(pts) + 1j * gb_i(pts)

    def to_json_dict(self):
        return {
            "normalization": self.normalization.value,
            "grid": self.grid.to_json_dict(self.normalization.value),
            "conformal_region": list(self.conformal_region)
            if self.conformal_region else None,
            "residual": self.residual,
        }


# samples on the circle a far-field Laurent series is fitted from
FAR_FIELD_SAMPLES = 512


def _far_field_series(fn, rho, orders=range(-12, 2)):
    return HolomorphicFunction.from_callable_on_circle(
        fn, 0.0, rho, orders, n_samples=FAR_FIELD_SAMPLES, noise_rel=1e-12,
        r_inner=rho, r_outer=math.inf, domain=DomainTag.EXTERIOR_DISK)


def identity_map(n=64, half_width=4.0):
    kit = _kit(n, half_width, 2)
    grid = ComplexGrid(0.0, half_width, kit.Z.copy())
    ff = _far_field_series(lambda z: z, 0.8 * half_width)
    return QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid,
        source_mu=BeltramiCoefficient.zero(DomainTag.PLANE),
        conformal_region=(0.0, math.inf), mu_samples=np.zeros((n, n)),
        residual=0.0, far_field=ff)


# ---------------------------------------------------------------------------
# Core solve


# Bump when the stored arrays or the meaning of a solve input change, so
# that files written by an older layout are never read back.
_CACHE_SCHEMA = 2


def _solve_key(mu, grid_n, half_width, tol, max_iter, mollify, reflect,
               truncation):
    """Identity of one raw solve; None when mu carries no cache token.

    Every input that changes the solve's output is part of the key, which
    names both the in-memory memo entry and the disk cache file.
    """
    if mu.cache_token is None:
        return None
    ident = (f"{_CACHE_SCHEMA}|{mu.cache_token}|{grid_n}|"
             f"{float(half_width)!r}|{float(tol)!r}|{max_iter}|{mollify}|"
             f"{reflect}|{truncation!r}")
    return hashlib.sha256(ident.encode()).hexdigest()[:24]


def _cache_path(key):
    root = os.environ.get("TEICHKIT_CACHE_DIR")
    if not root or key is None:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, f"solve_{key}.npz")


def _write_cache(path, **arrays):
    """Write an npz file atomically: a temp file in the same directory is
    renamed over path, so a concurrent reader never sees a torn file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=".solve_tmp_", suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_MEMO = {}
_MEMO_CAP = 24


def _memo_get(key):
    return _MEMO.get(key)


def _memo_put(key, value):
    if key is not None:
        if len(_MEMO) >= _MEMO_CAP:
            _MEMO.pop(next(iter(_MEMO)))
        _MEMO[key] = value


def _neumann(kit, mu_s, tol, max_iter):
    h = mu_s.copy()
    trace = []
    grow = 0
    for _ in range(max_iter):
        hn = mu_s * (1.0 + kit.beurling(h))
        delta = float(np.max(np.abs(hn - h)))
        h = hn
        trace.append(delta)
        if delta < tol:
            break
        if len(trace) > 2 and trace[-1] > trace[-2] > trace[-3]:
            grow += 1
            if grow >= 3:
                raise SolverError(
                    "Neumann iteration diverges (grid Beurling norm times "
                    "sup|mu| >= 1)", trace)
        else:
            grow = 0
    else:
        raise SolverError("Neumann iteration did not converge", trace)
    ratios = [b / a for a, b in zip(trace, trace[1:]) if a > 1e4 * tol]
    ratio = max(ratios[1:]) if len(ratios) > 2 else (ratios[-1] if ratios else 0.0)
    return h, trace, ratio


def _fd_residual(kit, f, mu_s, jump_circles, band_cells=3):
    d = kit.spacing
    fx = np.gradient(f, d, axis=0)
    fy = np.gradient(f, d, axis=1)
    dz = (fx - 1j * fy) / 2.0
    dbar = (fx + 1j * fy) / 2.0
    res = np.abs(dbar - mu_s * dz)
    Z = kit.Z
    mask = (np.abs(Z.real) < MARGIN_FRACTION * kit.half_width) & \
           (np.abs(Z.imag) < MARGIN_FRACTION * kit.half_width)
    for c, r in jump_circles:
        mask &= np.abs(np.abs(Z - c) - r) > band_cells * d
    return float(res[mask].max() / np.abs(dz).max())


def _solve_raw(mu, grid_n, half_width, tol, max_iter, mollify, reflect,
               truncation=None):
    if mu.sup_norm >= 0.9:
        raise SolverError("sup_norm >= 0.9 is outside the Neumann regime")
    memo_key = _solve_key(mu, grid_n, half_width, tol, max_iter, mollify,
                          reflect, truncation)
    hit = _memo_get(memo_key)
    if hit is not None:
        return hit
    path = _cache_path(memo_key)
    if path and os.path.exists(path):
        with np.load(path) as z:
            out = z["f"], z["mu_s"], list(z["trace"]), float(z["ratio"])
        _memo_put(memo_key, out)
        return out
    kit = _kit(grid_n, half_width, 2)
    mu_s = sample_coefficient(mu, grid_n, half_width, mollify, reflect,
                              truncation)
    _check_margin(ComplexGrid(0.0, half_width, mu_s), "coefficient support")
    h, trace, ratio = _neumann(kit, mu_s, tol, max_iter)
    f = kit.Z + kit.cauchy(h)
    if path:
        _write_cache(path, f=f, mu_s=mu_s, trace=np.array(trace),
                     ratio=ratio)
    out = f, mu_s, trace, ratio
    _memo_put(memo_key, out)
    return out


def _node_index(kit, z):
    d = kit.spacing
    i = int(round((z.real + kit.half_width) / d))
    j = int(round((z.imag + kit.half_width) / d))
    node = kit.Z[i, j]
    if abs(node - z) > 1e-9:
        raise SolverError(f"normalization point {z} is not a grid node")
    return i, j


def _grid_evaluator(grid: ComplexGrid):
    x, y = grid.axes()
    ire = RectBivariateSpline(x, y, grid.values.real, kx=3, ky=3)
    iim = RectBivariateSpline(x, y, grid.values.imag, kx=3, ky=3)

    def ev(z):
        z = np.asarray(z)
        return ire.ev(z.real, z.imag) + 1j * iim.ev(z.real, z.imag)

    return ev


def solve_plane(mu: BeltramiCoefficient, grid_n=1024, half_width=None,
                tol=1e-11, max_iter=400, mollify=True) -> QuasiconformalMap:
    """Normalized plane solution f with dilatation mu, fixing 0, 1, infinity.

    mu must be compactly supported inside the 90% grid margin.  The raw
    solution z + P[h] already fixes infinity (f(z) - z -> 0); an affine
    output correction pins f(0) = 0 and f(1) = 1.

    Raises SolverError with the iteration trace on non-convergence, and on
    support reaching the outer margin (aliasing guard).
    """
    if half_width is None:
        half_width = auto_half_width(mu.support_radius)
    kit = _kit(grid_n, half_width, 2)
    f, mu_s, trace, ratio = _solve_raw(
        mu, grid_n, half_width, tol, max_iter, mollify, reflect=False)
    i0, j0 = _node_index(kit, 0.0 + 0.0j)
    i1, _ = _node_index(kit, 1.0 + 0.0j)
    f = (f - f[i0, j0]) / (f[i1, j0] - f[i0, j0])
    grid = ComplexGrid(0.0, half_width, f)
    supp = mu.support_radius if np.isfinite(mu.support_radius) else half_width
    far = _far_field_series(_grid_evaluator(grid),
                            MARGIN_FRACTION * half_width * 0.95)
    qc = QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid,
        source_mu=mu, conformal_region=(supp + 3 * kit.spacing, math.inf),
        mu_samples=mu_s, convergence_ratio=ratio, iteration_trace=trace,
        far_field=far)
    qc.residual = _fd_residual(kit, f, mu_s, mu.jump_circles)
    return qc


def solve_halfplane(mu: BeltramiCoefficient, grid_n=1024, half_width=None,
                    tol=1e-11, max_iter=400, mollify=True,
                    truncation=None) -> QuasiconformalMap:
    """Self-map of U with dilatation mu, fixing 0, 1, infinity on R.

    The coefficient is extended to the lower half-plane by the reflection
    conj(mu(conj z)), which makes the plane solution commute with z -> conj z
    and hence preserve R; a real affine correction pins 0 and 1.
    """
    if mu.domain is not DomainTag.UPPER_HALF_PLANE:
        raise SolverError("solve_halfplane expects an upper half-plane coefficient")
    if half_width is None:
        half_width = auto_half_width(mu.support_radius)
    if not np.isfinite(mu.support_radius) and truncation is None:
        truncation = 0.85 * half_width
    kit = _kit(grid_n, half_width, 2)
    f, mu_s, trace, ratio = _solve_raw(
        mu, grid_n, half_width, tol, max_iter, mollify, reflect=True,
        truncation=truncation)
    i0, j0 = _node_index(kit, 0.0 + 0.0j)
    i1, _ = _node_index(kit, 1.0 + 0.0j)
    a, b = f[i0, j0].real, f[i1, j0].real
    f = (f - a) / (b - a)
    defect = float(np.max(np.abs(f[:, j0].imag)))
    if defect > 1e-6:
        raise SolverError(f"reflection symmetry defect {defect:.2e} on R", trace)
    grid = ComplexGrid(0.0, half_width, f)
    far = _far_field_series(_grid_evaluator(grid),
                            MARGIN_FRACTION * half_width * 0.95)
    qc = QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid,
        source_mu=mu, conformal_region=None, mu_samples=mu_s,
        convergence_ratio=ratio, iteration_trace=trace, far_field=far,
        symmetry_defect=defect)
    qc.residual = _fd_residual(kit, f, mu_s,
                               _reflected_jump_circles(mu, True))
    return qc


def solve_disk(mu: BeltramiCoefficient, grid_n=1024, tol=1e-11, max_iter=400,
               disk_grid_n=None) -> QuasiconformalMap:
    """Self-map f^mu of the unit disk fixing the boundary points 1, -1, -i.

    Cayley conjugate of the symmetrized half-plane solve.  Coefficients
    supported on all of D transport to an unbounded region of U and are
    truncated at the grid margin: the transported modulus of Ahlfors-Weill
    data decays like |w|^-2, and the truncation perturbs the map only at
    higher order after renormalization.
    """
    if mu.domain is not DomainTag.UNIT_DISK:
        raise SolverError("solve_disk expects a unit-disk coefficient")
    mu_u = cayley(mu, CayleyDirection.DISK_TO_HALF_PLANE)
    half_width = auto_half_width(mu_u.support_radius)
    fu = solve_halfplane(mu_u, grid_n, half_width, tol, max_iter)

    nd = disk_grid_n or min(grid_n, 512)
    kit = _kit(nd, 1.25, 2)
    Zd = kit.Z
    W = cayley_map(np.where(np.abs(Zd - 1.0) < 1e-12, 1.0 + 1e-12, Zd))
    FW = np.empty_like(W)
    lim = MARGIN_FRACTION * half_width
    ok = (np.abs(W.real) <= lim) & (np.abs(W.imag) <= lim)
    FW[ok] = fu(W[ok])
    if (~ok).any():
        FW[~ok] = fu.far_field.eval(W[~ok])
    fd = cayley_inverse(FW)
    grid = ComplexGrid(0.0, 1.25, fd)

    def outer(z):
        z = np.asarray(z, dtype=complex)
        w = cayley_map(np.where(np.abs(z - 1.0) < 1e-12, 1.0 + 1e-12, z))
        out = np.empty_like(w)
        okk = (np.abs(w.real) <= lim) & (np.abs(w.imag) <= lim)
        out[okk] = fu(w[okk])
        out[~okk] = fu.far_field.eval(w[~okk])
        return cayley_inverse(out)

    qc = QuasiconformalMap(
        normalization=Normalization.FIX_THREE_BOUNDARY_POINTS, grid=grid,
        source_mu=mu, conformal_region=None, mu_samples=None,
        convergence_ratio=fu.convergence_ratio,
        iteration_trace=fu.iteration_trace, outer_eval=outer,
        residual=fu.residual, halfplane_map=fu)
    return qc


# ---------------------------------------------------------------------------
# Dilatation, composition, inversion, chain rule


def dilatation(f: QuasiconformalMap) -> BeltramiCoefficient:
    """Centered finite-difference complex dilatation dbar f / df.

    Raises when the discrete Jacobian is non-positive at an interior node,
    naming the node.  Disk self-maps are differentiated on their full
    resampled grid (the symmetric extension is quasiconformal across S);
    the Jacobian contract is enforced on nodes of D.
    """
    dz, dbar = f.partial_grids(order=4)
    jac = np.abs(dz) ** 2 - np.abs(dbar) ** 2
    interior = np.zeros_like(jac, dtype=bool)
    interior[2:-2, 2:-2] = True
    check = interior.copy()
    if f.normalization is Normalization.FIX_THREE_BOUNDARY_POINTS:
        check &= np.abs(f.grid.nodes()) < 1.0
    bad = check & (jac <= 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SolverError(
            f"nonpositive Jacobian at grid node {f.grid.nodes()[i, j]:.4f}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(dz) > 0, dbar / np.where(dz == 0, 1, dz), 0.0)
    ratio[~interior] = 0.0
    ratio[np.abs(ratio) >= 1.0] = 0.0  # defective nodes outside the domain mask
    x, y = f.grid.axes()
    re = RegularGridInterpolator((x, y), ratio.real, method="linear",
                                 bounds_error=False, fill_value=0.0)
    im = RegularGridInterpolator((x, y), ratio.imag, method="linear",
                                 bounds_error=False, fill_value=0.0)

    def func(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        pts = np.stack([z.real, z.imag], axis=-1)
        return re(pts) + 1j * im(pts)

    disk = f.normalization is Normalization.FIX_THREE_BOUNDARY_POINTS
    domain = DomainTag.UNIT_DISK if disk else DomainTag.PLANE
    sup_region = check if disk else interior
    sup = min(float(np.abs(ratio[sup_region]).max()), 0.999) \
        if sup_region.any() else 0.0
    radius = 1.0 if disk else MARGIN_FRACTION * f.grid.half_width
    return BeltramiCoefficient(domain, func, radius, sup)


def invert(f: QuasiconformalMap, newton_tol=NEWTON_TOL, max_newton=50):
    """Pointwise inverse by Newton iteration seeded at the target point.

    Returns a vectorized callable with residual |f(f^-1(w)) - w| below
    newton_tol; raises SolverError when the iteration stalls (e.g. targets
    outside the sampled image).
    """

    def inverse(w):
        w = np.asarray(w, dtype=complex)
        scalar = w.ndim == 0
        ww = np.atleast_1d(w).ravel()
        z = ww.copy()
        for _ in range(max_newton):
            fz = f(z)
            err = fz - ww
            if np.nanmax(np.abs(err)) < newton_tol:
                break
            dz, dbar = f.partials_at(z)
            # real-linear Newton step for df dz + dbarf conj(dz) = -err
            denom = np.abs(dz) ** 2 - np.abs(dbar) ** 2
            denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
            step = (np.conj(dz) * err - dbar * np.conj(err)) / denom
            step_mag = np.abs(step)
            cap = 0.25 * max(1.0, float(np.nanmax(np.abs(ww))))
            scale = np.where(step_mag > cap, cap / np.maximum(step_mag, 1e-300), 1.0)
            z = z - step * scale
        resid = float(np.nanmax(np.abs(f(z) - ww)))
        if not np.isfinite(resid) or resid > 100 * newton_tol:
            raise SolverError(f"Newton inversion stalled (residual {resid:.2e})")
        return complex(z[0]) if scalar else z.reshape(w.shape)

    return inverse


def compose(f: QuasiconformalMap, g: QuasiconformalMap) -> QuasiconformalMap:
    """Sampled composition f o g on g's grid."""
    vals = f(g.grid.values)
    grid = ComplexGrid(g.grid.center, g.grid.half_width, vals)
    qc = QuasiconformalMap(normalization=g.normalization, grid=grid)
    if f.far_field is not None and g.far_field is not None:
        qc.far_field = _far_field_series(
            lambda z: f(g(z)), MARGIN_FRACTION * g.grid.half_width * 0.95)
    elif g.outer_eval is not None or g.far_field is not None:
        def outer(z):
            return f(g(z))
        qc.outer_eval = outer
    return qc


def invert_map(f: QuasiconformalMap) -> QuasiconformalMap:
    """Grid-sampled inverse map over f's grid box (image side)."""
    inv = invert(f)
    vals = inv(f.grid.nodes())
    grid = ComplexGrid(f.grid.center, f.grid.half_width, vals)
    return QuasiconformalMap(normalization=f.normalization, grid=grid)


def chain_rule(mu: BeltramiCoefficient, nu: BeltramiCoefficient,
               f_nu: QuasiconformalMap) -> BeltramiCoefficient:
    """Coefficient of f^mu o (f^nu)^-1 sampled on the image of f^nu.

    At w = f^nu(z):  (mu - nu)/(1 - conj(nu) mu) * (df^nu / conj(df^nu)).
    """
    inverse = invert(f_nu)

    def func(w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        z = inverse(w)
        m = mu.eval(z)
        n = nu.eval(z)
        dz, _ = f_nu.partials_at(z)
        dz = np.where(np.abs(dz) < 1e-14, 1.0, dz)
        return (m - n) / (1.0 - np.conj(n) * m) * (dz / np.conj(dz))

    sup = min((mu.sup_norm + nu.sup_norm) /
              (1.0 + mu.sup_norm * nu.sup_norm) + 1e-9, 0.999)
    domain = mu.domain
    radius = 1.0 if domain is DomainTag.UNIT_DISK else \
        1.3 * max(mu.support_radius, nu.support_radius, 1.0)
    return BeltramiCoefficient(domain, func, radius, sup)
