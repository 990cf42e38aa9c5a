"""Acceptance checks: one callable per criterion, exit criteria for the kit.

Every check pins its tolerances here; `run_all` executes them in order and
the CLI's verify-all surfaces one pass/fail line per criterion.  The checks
use closed-form or independently computed oracles only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bers import (
    ahlfors_weill,
    bers_map,
    bilipschitz_representative,
    equivalent,
    hyperbolic_distortion,
    laurent_coefficients,
)
from .boundary import (
    BoundaryFunction,
    BoundaryHomeomorphism,
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
    _kit,
    beurling_transform,
    chain_rule,
    identity_map,
    solve_plane,
)

__all__ = ["CheckResult", "run_all", "ALL_CRITERIA"]


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion}: {self.name}"


def _phi_exact(k, r):
    a = k * r * r
    return lambda z: -6.0 * a / (z * z - a) ** 2


Z32 = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)


def check_1_bers_closed_form():
    """Phi(0.3 chi_{0.5 D}) vs -0.45/(z^2-0.075)^2 on |z|=2, rel <= 1e-2."""
    t0 = time.time()
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    pt = bers_map(mu, grid_n=1024)
    got = pt.bers_image.eval(Z32)
    exact = _phi_exact(0.3, 0.5)(Z32)
    rel = float(np.abs(got - exact).max() / np.abs(exact).max())
    elapsed = time.time() - t0
    return CheckResult(1, "closed-form Bers image (N=1024, 32 pts on |z|=2)",
                       rel <= 1e-2 and elapsed <= 60.0,
                       {"rel_error": rel, "tolerance": 1e-2,
                        "runtime_s": elapsed, "runtime_cap_s": 60.0}, elapsed)


def check_2_mp_norm():
    """mp_norm(0.3 chi_{0.5D}, 2) = 0.30700 +- 1e-3; constant mu divergent."""
    t0 = time.time()
    rep = mp_norm(BeltramiCoefficient.constant_disk(0.3, 0.5), 2)
    target = 0.3 * math.sqrt(math.pi * 0.25 / 0.75)
    err = abs(rep.value - target)
    const = BeltramiCoefficient(DomainTag.UNIT_DISK,
                                lambda z: np.full_like(z, 0.3), math.inf, 0.3)
    rep_c = mp_norm(const, 2)
    ok = (err <= 1e-3 and not rep.divergent and rep_c.divergent
          and len(rep_c.refinements) <= 3)
    return CheckResult(2, "closed-form p-norm and divergence flag", ok,
                       {"value": rep.value, "target": round(target, 5),
                        "abs_error": err, "tolerance": 1e-3,
                        "constant_divergent": rep_c.divergent,
                        "ladder_levels": len(rep_c.refinements)},
                       time.time() - t0)


def check_3_douglas_lemma6():
    """Douglas equality at p=2 within 1%; Lemma-6 two-sided bounds per p."""
    t0 = time.time()
    th = 2 * np.pi * np.arange(512) / 512
    u = BoundaryFunction(th, np.exp(1j * th), "circle")
    bnd = besov_seminorm(u, 2)
    ana = analytic_besov_norm(HolomorphicFunction([1], [1.0]), 2)
    ok = abs(bnd.value - 2 * math.pi) <= 0.01 * 2 * math.pi
    douglas = bnd.value / ana.value
    ok &= abs(douglas - 2 * math.sqrt(math.pi)) <= 0.01 * 2 * math.sqrt(math.pi)
    family = {
        "z": HolomorphicFunction([1], [1.0]),
        "z2": HolomorphicFunction([2], [1.0]),
        "z3": HolomorphicFunction([3], [1.0]),
        "inv": HolomorphicFunction.from_callable_on_circle(
            lambda z: 1 / (z - 2.0), 0.7, range(0, 48)),
    }
    cps = {}
    for p in (1.5, 2.0, 3.0):
        ratios = [besov_seminorm(boundary_trace(phi, n_samples=1024), p).value
                  / analytic_besov_norm(phi, p).value
                  for phi in family.values()]
        cp = max(max(ratios), 1.0 / min(ratios))
        cps[p] = cp
        ok &= all(cp ** -1 <= r <= cp for r in ratios) and cp < 10.0
    return CheckResult(3, "Douglas equality and Lemma-6 comparability", ok,
                       {"besov_trace_z": bnd.value, "two_pi": 2 * math.pi,
                        "douglas_ratio": douglas,
                        "two_sqrt_pi": 2 * math.sqrt(math.pi),
                        "C_p": cps}, time.time() - t0)


def check_4_ahlfors_weill():
    """||Phi(sigma(phi)) - phi||_inf on |z|=2 <= 5e-3 over the small family."""
    t0 = time.time()
    worst = 0.0
    for k in (0.02, 0.05, 0.08, 0.1, 0.12):
        phi = laurent_coefficients(_phi_exact(k, 0.5), 1.5, range(-24, 1))
        sig = ahlfors_weill(phi)
        got = bers_map(sig, grid_n=512).bers_image
        worst = max(worst, float(np.abs(got.eval(Z32) - phi.eval(Z32)).max()))
    return CheckResult(4, "Ahlfors-Weill section roundtrip", worst <= 5e-3,
                       {"sup_error": worst, "tolerance": 5e-3},
                       time.time() - t0)


def check_5_chain_rule():
    """Exact chain-rule identities and the affine synthetic case to 1e-10."""
    t0 = time.time()
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
    kit = _kit(256, 4.0)
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
    return CheckResult(5, "chain-rule identities", ok,
                       {"mu_star_mu_inv": same, "mu_star_zero": through_zero,
                        "affine_error": affine, "tolerance": 1e-10},
                       time.time() - t0)


def check_6_solver_residual():
    """Residual <= 1e-3 ||df|| and geometric Neumann decay on the family."""
    t0 = time.time()
    smooth = BeltramiCoefficient(
        DomainTag.PLANE, lambda z: 0.4 * np.exp(-np.abs(z) ** 2), 3.5, 0.4,
        cache_token="smooth-gauss-0.4")
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
        ok &= f.residual <= 1e-3
        ok &= f.convergence_ratio <= mu.sup_norm + 0.1
    return CheckResult(6, "solver residual and Neumann decay", ok, details,
                       time.time() - t0)


def check_7_welding():
    """Welding consistency <= 1e-2 and Eq.(4)-type identity <= 5e-2."""
    t0 = time.time()
    weld = welding(BeltramiCoefficient.constant_disk(0.2, 0.5), grid_n=512)
    chk = welding_identity_check(weld)
    ok = weld.consistency_sup <= 1e-2 and chk["sup_discrepancy"] <= 5e-2
    return CheckResult(7, "welding consistency and log-derivative identity",
                       ok,
                       {"consistency_sup": weld.consistency_sup,
                        "consistency_tol": 1e-2,
                        "identity_sup": chk["sup_discrepancy"],
                        "identity_tol": 5e-2}, time.time() - t0)


def check_8_characterization():
    """Finiteness verdicts agree on finite and divergent examples; the
    extension fixes affine maps to 1e-10."""
    t0 = time.time()
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
    h_pow = BoundaryHomeomorphism(xs, power(xs), "line", 40.0,
                                  extension=power)
    div = besov_characterization_check(mu_pow, 2, boundary_map=h_pow)
    vd = div["verdicts"]
    ok &= vd["coherent"] and not vd["mu_finite"] and not vd["besov_finite"] \
        and not vd["extension_finite"]

    x = np.linspace(-40, 40, 1601)
    aff = BoundaryHomeomorphism(x, 2.0 * x + 0.5, "line", 40.0,
                                extension=lambda t: 2.0 * t + 0.5)
    probe = (np.linspace(-5, 5, 11)[:, None]
             + 1j * np.geomspace(0.01, 3.0, 7)[None, :]).ravel()
    affine_mu = float(np.abs(ba_extend(aff).eval(probe)).max())
    ok &= affine_mu <= 1e-10
    return CheckResult(8, "Besov characterization coherence", ok,
                       {"finite_verdicts": v, "divergent_verdicts": vd,
                        "affine_extension_mu": affine_mu,
                        "affine_tolerance": 1e-10}, time.time() - t0)


def check_9_roundtrip():
    """Phi-distance of the re-extended class <= 0.1 on |z| = 2."""
    from .boundary import roundtrip_phi_distance

    t0 = time.time()
    mu = BeltramiCoefficient.constant_disk(0.2, 0.5)
    weld = welding(mu, grid_n=512)
    ext = ba_extend(weld.h)
    dist = roundtrip_phi_distance(mu, ext, grid_n=512)
    return CheckResult(9, "roundtrip through log-derivative and extension",
                       dist <= 0.1,
                       {"phi_distance": dist, "tolerance": 0.1},
                       time.time() - t0)


def check_10_bilipschitz():
    """Bi-Lipschitz representative up to sup-norm 0.6; single step iff < 1/3."""
    t0 = time.time()
    details = {}
    ok = True
    small = BeltramiCoefficient.constant_disk(0.1, 0.5)
    nu_s = bilipschitz_representative(small, delta=0.3, grid_n=512)
    eq_s, d_s = equivalent(nu_s, small, tol=1e-2, grid_n=512)
    details["small"] = {"steps": nu_s.meta["steps"], "distance": d_s}
    ok &= nu_s.meta["steps"] == 1 and eq_s

    big = BeltramiCoefficient.constant_disk(0.6, 0.5)
    nu_b = bilipschitz_representative(big, delta=0.3, grid_n=512)
    eq_b, d_b = equivalent(nu_b, big, tol=1e-2, grid_n=512)
    lo, hi = hyperbolic_distortion(nu_b.meta["final_map"])
    details["large"] = {"steps": nu_b.meta["steps"], "distance": d_b,
                        "distortion": [lo, hi]}
    ok &= nu_b.meta["steps"] >= 2 and eq_b
    ok &= 0 < lo <= hi < math.inf
    return CheckResult(10, "bi-Lipschitz representative algorithm", ok,
                       details, time.time() - t0)


def check_11_beurling():
    """T[dbar phi] = d phi to 1e-6 relative; discrete isometry to 1e-10."""
    t0 = time.time()
    n, L = 256, 5.0
    kit = _kit(n, L)
    Z = kit.Z
    phi = np.exp(-np.abs(Z) ** 2)
    T = beurling_transform(ComplexGrid(0.0, L, -Z * phi)).values
    exact = -np.conj(Z) * phi
    rel = float(np.abs(T - exact).max() / np.abs(exact).max())
    rng = np.random.default_rng(7)
    h = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h -= h.mean()
    T1 = beurling_transform(ComplexGrid(0.0, 4.0, h), pad=1).values
    iso = float(abs(np.linalg.norm(T1) / np.linalg.norm(h) - 1))
    ok = rel <= 1e-6 and iso <= 1e-10
    return CheckResult(11, "Beurling derivative identity and isometry", ok,
                       {"identity_rel_error": rel, "identity_tol": 1e-6,
                        "isometry_defect": iso, "isometry_tol": 1e-10},
                       time.time() - t0)


ALL_CRITERIA = [
    check_1_bers_closed_form,
    check_2_mp_norm,
    check_3_douglas_lemma6,
    check_4_ahlfors_weill,
    check_5_chain_rule,
    check_6_solver_residual,
    check_7_welding,
    check_8_characterization,
    check_9_roundtrip,
    check_10_bilipschitz,
    check_11_beurling,
]


def run_all():
    return [fn() for fn in ALL_CRITERIA]
