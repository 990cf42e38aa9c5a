"""Per-op oracles, computed outside teichkit from what an op returned.

Each oracle takes the op input and the op's output data and returns
(ok, err_ratio, reason).  err_ratio is the worst oracle error divided by its
tolerance, so a value <= 1 passes.  Standard library only.
"""

from __future__ import annotations

import cmath
import math

BERS_TOL = 1e-2
MP_TOL = 1e-3
ROUNDTRIP_TOL = 0.1
CONSISTENCY_TOL = 1e-2

Z32 = [2.0 * cmath.exp(2j * math.pi * j / 32) for j in range(32)]

# (value key, tolerance key) pairs in the details of each gate criterion.
GATE_PAIRS = {
    2: [("abs_error", "tolerance")],
    4: [("sup_error", "tolerance")],
    5: [("affine_error", "tolerance")],
    7: [("consistency_sup", "consistency_tol"),
        ("identity_sup", "identity_tol")],
    9: [("phi_distance", "tolerance")],
    11: [("identity_rel_error", "identity_tol"),
         ("isometry_defect", "isometry_tol")],
}


def check(op: dict, data: dict | None):
    """Dispatch on the op kind; a missing output is a failure."""
    if data is None:
        return False, math.inf, "op raised"
    if op["kind"] == "criterion":
        return check_criterion(op, data)
    if op["command"] == "bers":
        return check_bers(op, data)
    return check_characterize(op, data)


def check_bers(op, data):
    """Laurent table of Phi(k chi_{rD}) against -6a/(z^2 - a)^2, a = k r^2."""
    reports = data["reports"]
    if "error" in reports:
        return False, math.inf, f"cli error: {reports['error']}"
    if not all(v is True for v in data["verdicts"].values()):
        return False, math.inf, f"verdicts {data['verdicts']}"
    table = reports["teichmuller_point"]["laurent"]
    a = op["k"] * op["r"] ** 2
    worst = scale = 0.0
    for z in Z32:
        got = sum(complex(re, im) * z ** n for n, re, im in table)
        exact = -6.0 * a / (z * z - a) ** 2
        worst = max(worst, abs(got - exact))
        scale = max(scale, abs(exact))
    ratio = (worst / scale) / BERS_TOL
    if not ratio <= 1.0:
        return False, ratio, f"relative error {worst / scale:.3e}"
    return True, ratio, ""


def check_characterize(op, data):
    """Coherent finite verdicts, closed-form M_p, roundtrip and welding."""
    reports = data["reports"]
    if "error" in reports:
        return False, math.inf, f"cli error: {reports['error']}"
    rep = reports["characterization"]
    verdicts = rep["verdicts"]
    want = ("coherent", "mu_finite", "besov_finite", "extension_finite")
    if not all(verdicts.get(v) is True for v in want):
        return False, math.inf, f"verdicts {verdicts}"
    st = rep["stages"]
    values = [st["mp_norm_mu"]["value"],
              st["besov_log_derivative"]["value"],
              st["mp_norm_extension"]["value"],
              st["roundtrip"]["phi_distance"],
              st["welding"]["consistency_sup"]]
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values):
        return False, math.inf, f"non-finite stage value in {values}"
    k, r, p = op["k"], op["r"], op["p"]
    target = k * (math.pi * r * r / (1.0 - r * r)) ** (1.0 / p)
    ratios = {"mp_norm": abs(values[0] - target) / MP_TOL,
              "roundtrip": values[3] / ROUNDTRIP_TOL,
              "consistency": values[4] / CONSISTENCY_TOL}
    worst = max(ratios, key=ratios.get)
    if not ratios[worst] <= 1.0:
        return False, ratios[worst], f"{worst} error ratio {ratios[worst]:.3g}"
    return True, ratios[worst], ""


def check_criterion(op, result):
    """The criterion passes and each (value, tolerance) pair holds."""
    details = result["details"]
    keys = GATE_PAIRS[op["criterion"]]
    if not all(v in details and t in details for v, t in keys):
        return False, math.inf, f"details lack {keys}"
    ratio = max(abs(float(details[v])) / float(details[t]) for v, t in keys)
    if not result["passed"]:
        return False, ratio, "criterion failed"
    if not ratio <= 1.0:
        return False, ratio, f"error ratio {ratio:.3g}"
    return True, ratio, ""

