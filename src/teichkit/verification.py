"""Acceptance checks: one callable per criterion, exit criteria for the kit.

Every check pins its tolerances here; `run_all` executes them in order and
the CLI's verify-all surfaces one pass/fail line per criterion.  The bounds
the CLI verdicts share with the criteria are in TOLERANCES.  The checks use
closed-form oracles (teichkit.exact) or independently computed ones only.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import exact
from .bers import (
    ahlfors_weill,
    bers_map,
    bilipschitz_representative,
    equivalent,
    hyperbolic_distortion,
    laurent_coefficients,
)
from .boundary import (
    BoundaryHomeomorphism,
    _douglas_z,
    ba_extend,
    besov_characterization_check,
    besov_seminorm,
    boundary_trace,
    welding,
    welding_identity_check,
)
from .domains import (
    BeltramiCoefficient,
    ComplexGrid,
    DomainTag,
    HolomorphicFunction,
    analytic_besov_norm,
    mp_norm,
)
from .solver import (
    Normalization,
    QuasiconformalMap,
    _SpectralKit,
    beurling_transform,
    chain_rule,
    identity_map,
    solve_plane,
)

__all__ = ["CheckResult", "run_all", "ALL_CRITERIA", "TOLERANCES"]

# bounds of criteria 4, 6, 7, 9 and 10 that the verdicts of the CLI's aw,
# solve, weld, roundtrip and bilip read as their default tolerances
TOLERANCES = {"residual": 1e-3, "section": 5e-3, "equivalence": 1e-2,
              "consistency": 1e-2, "identity": 5e-2, "roundtrip": 0.1}


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.criterion}: {self.name} "
                f"({self.elapsed:.1f}s)")


ALL_CRITERIA = []


def _criterion(number, name):
    """Register a check, defined in number order, in ALL_CRITERIA.  The
    check returns (passed, details); the registered function returns them
    as a CheckResult with the elapsed time."""
    def register(fn):
        @functools.wraps(fn)
        def check():
            t0 = time.time()
            passed, details = fn()
            return CheckResult(number, name, passed, details,
                               time.time() - t0)

        ALL_CRITERIA.append(check)
        return check

    return register


Z32 = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)


@_criterion(1, "closed-form Bers image (N=1024, 32 pts on |z|=2)")
def check_1_bers_closed_form():
    """Phi(0.3 chi_{0.5 D}) vs its closed form on |z|=2, rel <= 1e-2."""
    t0 = time.time()
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    pt = bers_map(mu, grid_n=1024)
    got = pt.bers_image.eval(Z32)
    want = exact.bers_image(0.3, 0.5).eval(Z32)
    rel = float(np.abs(got - want).max() / np.abs(want).max())
    runtime = time.time() - t0
    return (rel <= 1e-2 and runtime <= 60.0,
            {"rel_error": rel, "tolerance": 1e-2,
             "runtime_s": runtime, "runtime_cap_s": 60.0})


@_criterion(2, "closed-form p-norm and divergence flag")
def check_2_mp_norm():
    """mp_norm(0.3 chi_{0.5D}, 2) = 0.30700 +- 1e-3; constant mu divergent."""
    rep = mp_norm(BeltramiCoefficient.constant_disk(0.3, 0.5), 2)
    target = exact.mp_norm(0.3, 0.5, 2)
    err = abs(rep.value - target)
    const = BeltramiCoefficient(DomainTag.UNIT_DISK,
                                lambda z: np.full_like(z, 0.3), math.inf, 0.3)
    rep_c = mp_norm(const, 2)
    ok = (err <= 1e-3 and not rep.divergent and rep_c.divergent
          and len(rep_c.refinements) <= 3)
    return ok, {"value": rep.value, "target": round(target, 5),
                "abs_error": err, "tolerance": 1e-3,
                "constant_divergent": rep_c.divergent,
                "ladder_levels": len(rep_c.refinements)}


@_criterion(3, "Douglas equality and Lemma-6 comparability")
def check_3_douglas_lemma6():
    """Douglas equality at p=2 within 1%; Lemma-6 two-sided bounds per p."""
    trace_z, douglas = _douglas_z()
    ok = abs(trace_z - exact.DOUGLAS_TRACE_Z) <= 0.01 * exact.DOUGLAS_TRACE_Z
    ok &= abs(douglas - exact.DOUGLAS_RATIO) <= 0.01 * exact.DOUGLAS_RATIO
    family = {
        "z": HolomorphicFunction([1], [1.0]),
        "z2": HolomorphicFunction([2], [1.0]),
        "z3": HolomorphicFunction([3], [1.0]),
        "inv": HolomorphicFunction(np.arange(48),  # 1/(z - 2)
                                   -0.5 ** np.arange(1.0, 49.0)),
    }
    cps = {}
    for p in (1.5, 2.0, 3.0):
        ratios = [besov_seminorm(boundary_trace(phi, n_samples=1024), p).value
                  / analytic_besov_norm(phi, p).value
                  for phi in family.values()]
        cp = max(max(ratios), 1.0 / min(ratios))
        cps[p] = cp
        ok &= all(cp ** -1 <= r <= cp for r in ratios) and cp < 10.0
    return ok, {"besov_trace_z": trace_z,
                "two_pi": exact.DOUGLAS_TRACE_Z,
                "douglas_ratio": douglas,
                "two_sqrt_pi": exact.DOUGLAS_RATIO,
                "C_p": cps}


@_criterion(4, "Ahlfors-Weill section roundtrip")
def check_4_ahlfors_weill():
    """||Phi(sigma(phi)) - phi||_inf on |z|=2 <= "section", small family."""
    worst = 0.0
    for k in (0.02, 0.05, 0.08, 0.1, 0.12):
        phi = laurent_coefficients(exact.bers_image(k, 0.5).eval, 1.5,
                                   range(-24, 1))
        sig = ahlfors_weill(phi)
        got = bers_map(sig, grid_n=512).bers_image
        worst = max(worst, float(np.abs(got.eval(Z32) - phi.eval(Z32)).max()))
    tol = TOLERANCES["section"]
    return worst <= tol, {"sup_error": worst, "tolerance": tol}


@_criterion(5, "chain-rule identities")
def check_5_chain_rule():
    """Exact chain-rule identities and the affine synthetic case to 1e-10."""
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    from .solver import solve_disk

    f_mu = solve_disk(mu, grid_n=512)
    w = f_mu(0.6 * np.exp(1j * np.linspace(0.1, 6.0, 17)))
    same = float(np.abs(chain_rule(mu, mu, f_mu).eval(w)).max())
    z = np.array([0.2 + 0.1j, 0.45j, 0.3 - 0.3j])
    ident = identity_map(128)
    through_zero = float(np.abs(
        chain_rule(mu, BeltramiCoefficient.zero(), ident).eval(z)
        - mu.eval(z)).max())
    k1, k2 = 0.4, 0.2
    kit = _SpectralKit(256, 4.0)
    grid = ComplexGrid(0.0, 4.0, kit.Z + k2 * np.conj(kit.Z))
    f_aff = QuasiconformalMap(
        normalization=Normalization.FIX_ZERO_ONE_INFINITY, grid=grid)
    c1 = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda t: np.full_like(t, k1), math.inf, k1)
    c2 = BeltramiCoefficient(DomainTag.UNIT_DISK,
                             lambda t: np.full_like(t, k2), math.inf, k2)
    pts = np.array([0.1 + 0.2j, 0.3 - 0.1j, 0.5j])
    affine = float(np.abs(chain_rule(c1, c2, f_aff).eval(pts)
                          - (k1 - k2) / (1 - k2 * k1)).max())
    ok = same == 0.0 and through_zero == 0.0 and affine <= 1e-10
    return ok, {"mu_star_mu_inv": same, "mu_star_zero": through_zero,
                "affine_error": affine, "tolerance": 1e-10}


@_criterion(6, "solver residual and Neumann decay")
def check_6_solver_residual():
    """Residual <= "residual" ||df||; geometric Neumann decay on the family."""
    smooth = BeltramiCoefficient(
        DomainTag.PLANE, lambda z: 0.4 * np.exp(-np.abs(z) ** 2), 3.5, 0.4)
    cases = {
        "0.3 chi_{0.5D}": BeltramiCoefficient.constant_disk(0.3, 0.5),
        "0.3 chi_D": BeltramiCoefficient.constant_disk(0.3, 1.0),
        "0.6 chi_{0.5D}": BeltramiCoefficient.constant_disk(0.6, 0.5),
        "complex k": BeltramiCoefficient.constant_disk(0.2 + 0.2j, 0.5),
        "smooth bump": smooth,
    }
    details = {}
    ok = True
    for name, mu in cases.items():
        f = solve_plane(mu, grid_n=512)
        details[name] = {"residual": f.residual,
                         "ratio": f.convergence_ratio,
                         "ratio_cap": mu.sup_norm + 0.1}
        ok &= f.residual <= TOLERANCES["residual"]
        ok &= f.convergence_ratio <= mu.sup_norm + 0.1
    return ok, details


@functools.cache
def _welded_02():
    """(h, consistency_sup, identity sup_discrepancy) of the welding of
    0.2 chi_{0.5D} at N = 512, which criteria 7 and 9 share.  Only h is
    kept, so f_mu and g are freed once the identity check has read them."""
    weld = welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=512)
    chk = welding_identity_check(weld)
    return weld.h, weld.consistency_sup, chk["sup_discrepancy"]


@_criterion(7, "welding consistency and log-derivative identity")
def check_7_welding():
    """Consistency <= "consistency" and Eq.(4)-type identity <= "identity"."""
    _, consistency, identity = _welded_02()
    tol_c, tol_i = TOLERANCES["consistency"], TOLERANCES["identity"]
    ok = consistency <= tol_c and identity <= tol_i
    return ok, {"consistency_sup": consistency, "consistency_tol": tol_c,
                "identity_sup": identity, "identity_tol": tol_i}


@_criterion(8, "Besov characterization coherence")
def check_8_characterization():
    """Finiteness verdicts agree on finite and divergent examples; the
    extension fixes affine maps to 1e-10."""
    fin = besov_characterization_check(
        BeltramiCoefficient.constant_disk(0.2, 0.5), 2, grid_n=512)
    v = fin["verdicts"]
    ok = v["coherent"] and v["mu_finite"] and v["besov_finite"] and \
        v["extension_finite"]

    alpha = 1.6
    k = (alpha - 1) / (alpha + 1)
    mu_pow = BeltramiCoefficient(DomainTag.UPPER_HALF_PLANE,
                                 lambda z: k * z / np.conj(z), math.inf, k)

    def power(x):
        return np.sign(x) * np.abs(x) ** alpha

    xs = np.sort(np.unique(np.concatenate(
        [-np.geomspace(1e-4, 40, 1201), [0.0, 1.0, -1.0],
         np.geomspace(1e-4, 40, 1201)])))
    h_pow = BoundaryHomeomorphism(xs, power(xs), extension=power)
    div = besov_characterization_check(mu_pow, 2, boundary_map=h_pow)
    vd = div["verdicts"]
    ok &= vd["coherent"] and not vd["mu_finite"] and not vd["besov_finite"] \
        and not vd["extension_finite"]

    x = np.linspace(-40, 40, 1601)
    aff = BoundaryHomeomorphism(x, 2.0 * x + 0.5,
                                extension=lambda t: 2.0 * t + 0.5)
    probe = (np.linspace(-5, 5, 11)[:, None]
             + 1j * np.geomspace(0.01, 3.0, 7)[None, :]).ravel()
    affine_mu = float(np.abs(ba_extend(aff).eval(probe)).max())
    ok &= affine_mu <= 1e-10
    return ok, {"finite_verdicts": v, "divergent_verdicts": vd,
                "affine_extension_mu": affine_mu,
                "affine_tolerance": 1e-10}


@_criterion(9, "roundtrip through log-derivative and extension")
def check_9_roundtrip():
    """Phi-distance of the re-extended class <= "roundtrip" on |z| = 2."""
    from .boundary import roundtrip_phi_distance

    h = _welded_02()[0]
    dist = roundtrip_phi_distance(BeltramiCoefficient.constant_disk(0.2, 0.5),
                                  ba_extend(h), grid_n=512)
    tol = TOLERANCES["roundtrip"]
    return dist <= tol, {"phi_distance": dist, "tolerance": tol}


@_criterion(10, "bi-Lipschitz representative algorithm")
def check_10_bilipschitz():
    """Bi-Lipschitz representative up to sup-norm 0.6; single step iff < 1/3."""
    tol = TOLERANCES["equivalence"]
    details = {}
    ok = True
    small = BeltramiCoefficient.constant_disk(0.1, 0.5)
    nu_s = bilipschitz_representative(small, delta=0.3, grid_n=512)
    eq_s, d_s = equivalent(nu_s, small, tol=tol, grid_n=512)
    details["small"] = {"steps": nu_s.meta["steps"], "distance": d_s}
    ok &= nu_s.meta["steps"] == 1 and eq_s

    big = BeltramiCoefficient.constant_disk(0.6, 0.5)
    nu_b = bilipschitz_representative(big, delta=0.3, grid_n=512)
    eq_b, d_b = equivalent(nu_b, big, tol=tol, grid_n=512)
    lo, hi = hyperbolic_distortion(nu_b.meta["final_map"])
    details["large"] = {"steps": nu_b.meta["steps"], "distance": d_b,
                        "distortion": [lo, hi]}
    ok &= nu_b.meta["steps"] >= 2 and eq_b
    ok &= 0 < lo <= hi < math.inf
    return ok, details


@_criterion(11, "Beurling derivative identity and isometry")
def check_11_beurling():
    """T[dbar phi] = d phi to 1e-6 relative; discrete isometry to 1e-10."""
    n, L = 256, 5.0
    kit = _SpectralKit(n, L)
    Z = kit.Z
    phi = np.exp(-np.abs(Z) ** 2)
    T = beurling_transform(ComplexGrid(0.0, L, -Z * phi)).values
    want = -np.conj(Z) * phi
    rel = float(np.abs(T - want).max() / np.abs(want).max())
    rng = np.random.default_rng(7)
    h = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h -= h.mean()
    T1 = beurling_transform(ComplexGrid(0.0, 4.0, h), pad=1).values
    iso = float(abs(np.linalg.norm(T1) / np.linalg.norm(h) - 1))
    ok = rel <= 1e-6 and iso <= 1e-10
    return ok, {"identity_rel_error": rel, "identity_tol": 1e-6,
                "isometry_defect": iso, "isometry_tol": 1e-10}


def run_all():
    return [fn() for fn in ALL_CRITERIA]
