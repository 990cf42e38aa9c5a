"""Command-line surface: experiment runners, JSON/CSV reports.

Subcommands mirror the toolkit pipelines:

    norm, solve, bers, aw, bilip, weld, besov, extend, characterize,
    roundtrip, constants, verify-all

characterize and roundtrip both run boundary.besov_characterization_check
and report it under reports["characterization"]; roundtrip skips the
extension's M_p ladder and adds the verdict within_tolerance, its
roundtrip distance against the "roundtrip" tolerance.

Each run emits a deterministic JSON report (sorted keys; between identical
runs only wall_time varies, and in verify-all each criterion's elapsed time
and criterion 1's runtime_s).  Coefficients arrive as JSON specs:
{"kind": "constant_disk", "k": ..., "r": ...}, {"kind": "grid", ...}, or
{"kind": "table", ...}; a config key the command does not read is rejected,
as is a spec field its kind does not read.  A failed run reports
the failing stage, the exception type and its message under
reports["error"].  Nothing is kept between runs: each run that welds
solves its own maps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, exact
from .bers import ahlfors_weill, bers_map, bilipschitz_representative, \
    equivalent, hyperbolic_distortion
from .boundary import (
    N_BOUNDARY,
    T_BOUNDARY,
    BoundaryFunction,
    _douglas_z,
    _welding_param_grid,
    ba_extend,
    besov_characterization_check,
    besov_seminorm,
    log_derivative,
    welding,
    welding_identity_check,
)
from .domains import BeltramiCoefficient, ainf_norm, ap_norm, mp_norm
from .solver import solve_disk, solve_plane
from .verification import TOLERANCES, CheckResult, run_all

__all__ = ["ExperimentConfig", "ExperimentResult", "run",
           "estimate_constants", "main"]

_FIELDS = ("command", "mu_spec", "p", "grid", "tolerances", "output_path")


def _check_number(name, val):
    """Raise unless val is a real number; a bool is not one."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ValueError(f"{name} must be a number, got {val!r}")


@dataclass
class ExperimentConfig:
    command: str
    mu_spec: dict = field(default_factory=lambda: {"kind": "constant_disk",
                                                   "k": 0.3, "r": 0.5})
    p: float = 2.0
    grid: dict = field(default_factory=lambda: {"n": 512})
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("mu_spec", "grid", "tolerances", "extra"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a JSON object, "
                                 f"got {getattr(self, name)!r}")
        command = _COMMANDS[self.command]
        for key in self.extra:
            if key not in command.extra:
                raise ValueError(
                    f"config key {key!r} is not read by {self.command}")
        BeltramiCoefficient.check_spec(self.mu_spec, "mu_spec")
        for key in ("k", "r"):
            if key in self.mu_spec:
                _check_number(f"mu_spec {key}", self.mu_spec[key])
        for key in self.grid:
            if key != "n":
                raise ValueError(f"grid key {key!r} is not read (only 'n')")
        n = self.grid_n
        if isinstance(n, bool) or not isinstance(n, int) or n < 2 \
                or n & (n - 1):
            raise ValueError(
                f"grid n must be an int power of two >= 2, got {n!r}")
        for name, val in self.tolerances.items():
            _check_number(f"tolerance {name!r}", val)
            if not val > 0:
                raise ValueError(
                    f"tolerance {name!r} must be a positive number, got {val!r}")
            if name not in command.tolerances:
                raise ValueError(
                    f"tolerance {name!r} is not read by {self.command}")
        if self.output_path is not None and (
                not isinstance(self.output_path, str) or not self.output_path):
            raise ValueError(f"output_path must be a non-empty string, "
                             f"got {self.output_path!r}")
        if not isinstance(self.extra.get("self_map", False), bool):
            raise ValueError(f"self_map must be true or false, "
                             f"got {self.extra['self_map']!r}")
        if "delta" in self.extra:
            delta = self.extra["delta"]
            _check_number("delta", delta)
            if not 0 < delta <= 1.0 / 3.0:
                raise ValueError(f"delta must lie in (0, 1/3], got {delta!r}")
        family = self.extra.get("family") or []
        for pair in family if isinstance(family, (list, tuple)) else [family]:
            is_pair = isinstance(pair, (list, tuple)) and len(pair) == 2
            for val in pair if is_pair else ():
                _check_number("family entry", val)
            if not (is_pair and abs(pair[0]) < 1 and 0 <= pair[1] <= 1):
                raise ValueError(f"family entry must be a pair [k, r] with "
                                 f"|k| < 1 and 0 <= r <= 1, got {pair!r}")
        for name, val in [("p", self.p)] + [
                ("p_list entry", q) for q in self.extra.get("p_list", ())]:
            _check_number(name, val)
            if not (math.isfinite(val) and val >= 1):
                raise ValueError(
                    f"{name} must be finite and >= 1, got {val!r}")
        if self.command in ("besov", "characterize", "roundtrip") \
                and not self.p > 1:
            raise ValueError(f"{self.command} requires p > 1")

    @property
    def grid_n(self):
        """Grid resolution N of the run's solves; 512 when grid has no n."""
        return self.grid.get("n", 512)

    @classmethod
    def from_dict(cls, d):
        """Config from a JSON object; extras may sit in an "extra" object."""
        known = {k: v for k, v in d.items() if k in _FIELDS}
        extra = {k: v for k, v in d.items() if k not in _FIELDS}
        nested = extra.pop("extra", {})
        if not isinstance(nested, dict):
            raise ValueError(f"extra must be a JSON object, got {nested!r}")
        return cls(**known, extra={**nested, **extra})


@dataclass
class ExperimentResult:
    config: dict
    reports: dict
    verdicts: dict
    wall_time: float
    versions: dict

    def to_json(self):
        payload = {
            "schema": 1,
            "command": self.config.get("command"),
            "config": self.config,
            "reports": self.reports,
            "verdicts": self.verdicts,
            "wall_time": self.wall_time,
            "versions": self.versions,
        }
        return json.dumps(payload, sort_keys=True, indent=1, default=_json_safe)


def _json_safe(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def _versions():
    return {"teichkit": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _mu(config: ExperimentConfig) -> BeltramiCoefficient:
    return BeltramiCoefficient.from_spec(config.mu_spec)


def _tol(config, name):
    return float(config.tolerances.get(name, TOLERANCES[name]))


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_norm(cfg):
    rep = mp_norm(_mu(cfg), cfg.p)
    return {"mp_norm": rep.to_json_dict()}, {"divergent": rep.divergent}


def _cmd_solve(cfg):
    mu = _mu(cfg)
    solver = solve_disk if cfg.extra.get("self_map") else solve_plane
    f = solver(mu, grid_n=cfg.grid_n)
    # a self-map's far field is its half-plane solve's
    far = (f.halfplane_map or f).far_field
    reports = {"map": f.to_json_dict(),
               "residual": f.residual,
               "convergence_ratio": f.convergence_ratio,
               "far_field_residual": far.heldout_residual}
    return reports, {"residual_ok": f.residual <= _tol(cfg, "residual")}


def _cmd_bers(cfg):
    pt = bers_map(_mu(cfg), p=cfg.p, grid_n=cfg.grid_n)
    return ({"teichmuller_point": pt.to_json_dict()},
            {"ainf_finite": not pt.ainf_report.divergent,
             "ap_finite": not pt.ap_norm_report.divergent})


def _cmd_aw(cfg):
    pt = bers_map(_mu(cfg), p=cfg.p, grid_n=cfg.grid_n)
    sig = ahlfors_weill(pt.bers_image)
    back = bers_map(sig, p=cfg.p, grid_n=cfg.grid_n)
    err = back.distance_to(pt, circles=(2.0,), n=32)
    tol = _tol(cfg, "section")
    return ({"sigma_sup_norm": sig.sup_norm, "section_sup_error": err},
            {"section_ok": err <= tol})


def _cmd_bilip(cfg):
    mu = _mu(cfg)
    nu = bilipschitz_representative(mu, delta=cfg.extra.get("delta", 0.3),
                                    grid_n=cfg.grid_n)
    eq, dist = equivalent(nu, mu, tol=_tol(cfg, "equivalence"),
                          grid_n=cfg.grid_n)
    lo, hi = hyperbolic_distortion(nu.meta["final_map"])
    return ({"steps": nu.meta["steps"], "phi_distance": dist,
             "distortion": [lo, hi]},
            {"equivalent": eq, "bilipschitz": bool(0 < lo <= hi < math.inf)})


def _cmd_weld(cfg):
    weld = welding(_mu(cfg), grid_n=cfg.grid_n)
    chk = welding_identity_check(weld)
    if cfg.output_path:
        # f_mu on h's parameters, g on a grid 1.5 times as wide
        weld.h.to_csv(cfg.output_path + ".h.csv")
        xg = _welding_param_grid(N_BOUNDARY, 1.5 * T_BOUNDARY)
        for name, fn, x in (("f", weld.f_map, weld.h.params),
                            ("g", weld.g_map, xg)):
            BoundaryFunction(x, fn(x.astype(complex)), "line").to_csv(
                cfg.output_path + f".{name}.csv")
    tol_c = _tol(cfg, "consistency")
    tol_i = _tol(cfg, "identity")
    return ({"consistency_sup": weld.consistency_sup,
             "imag_defect": weld.imag_defect,
             "identity_sup": chk["sup_discrepancy"]},
            {"consistent": weld.consistency_sup <= tol_c,
             "identity_ok": chk["sup_discrepancy"] <= tol_i})


def _cmd_besov(cfg):
    weld = welding(_mu(cfg), grid_n=cfg.grid_n)
    rep = besov_seminorm(log_derivative(weld.h), cfg.p)
    return ({"besov_log_derivative": rep.to_json_dict()},
            {"finite": not rep.divergent})


def _cmd_extend(cfg):
    ext = ba_extend(welding(_mu(cfg), grid_n=cfg.grid_n).h)
    rep = mp_norm(ext, cfg.p, levels=3)
    return ({"extension_sup_norm": ext.sup_norm,
             "mp_norm_extension": rep.to_json_dict()},
            {"quasiconformal": ext.sup_norm < 1,
             "finite": not rep.divergent})


def _cmd_characterize(cfg):
    rep = besov_characterization_check(_mu(cfg), cfg.p,
                                       grid_n=cfg.grid_n)
    return {"characterization": rep}, dict(rep["verdicts"])


def _cmd_roundtrip(cfg):
    rep = besov_characterization_check(_mu(cfg), cfg.p, grid_n=cfg.grid_n,
                                       extension_norm=False)
    # a failed welding writes no roundtrip stage
    dist = rep["stages"].get("roundtrip", {}).get("phi_distance")
    within = dist is not None and dist <= _tol(cfg, "roundtrip")
    return ({"characterization": rep},
            {**rep["verdicts"], "within_tolerance": within})


def _cmd_verify_all(cfg):
    results = run_all()
    reports = {f"criterion_{r.criterion}": {
        "name": r.name, "passed": r.passed, "details": r.details,
        "elapsed": r.elapsed} for r in results}
    verdicts = {f"criterion_{r.criterion}": r.passed for r in results}
    verdicts["all_passed"] = all(r.passed for r in results)
    return reports, verdicts


def _cmd_constants(cfg):
    rows = estimate_constants(family_spec=cfg.extra.get("family"),
                              p_list=cfg.extra.get("p_list", (2.0,)))
    if cfg.output_path:
        write_constants_csv(rows, cfg.output_path)
    return ({"rows": rows},
            {"rows_emitted": len(rows)})


# each command: its handler, the config keys beyond _FIELDS it reads
# (ExperimentConfig.extra), and the tolerances it reads, whose defaults are
# the acceptance criteria's (verification.TOLERANCES)
_Command = namedtuple("_Command", "handler extra tolerances")
_COMMANDS = {
    "norm": _Command(_cmd_norm, (), ()),
    "solve": _Command(_cmd_solve, ("self_map",), ("residual",)),
    "bers": _Command(_cmd_bers, (), ()),
    "aw": _Command(_cmd_aw, (), ("section",)),
    "bilip": _Command(_cmd_bilip, ("delta",), ("equivalence",)),
    "weld": _Command(_cmd_weld, (), ("consistency", "identity")),
    "besov": _Command(_cmd_besov, (), ()),
    "extend": _Command(_cmd_extend, (), ()),
    "characterize": _Command(_cmd_characterize, (), ()),
    "roundtrip": _Command(_cmd_roundtrip, (), ("roundtrip",)),
    "constants": _Command(_cmd_constants, ("family", "p_list"), ()),
    "verify-all": _Command(_cmd_verify_all, (), ()),
}
COMMANDS = tuple(_COMMANDS)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch a single experiment; stage failures surface with the stage."""
    t0 = time.time()
    try:
        reports, verdicts = _COMMANDS[config.command].handler(config)
    except Exception as exc:  # noqa: BLE001 - surfaced in the report
        reports = {"error": {"stage": config.command, "message": str(exc),
                             "type": type(exc).__name__}}
        verdicts = {"failed": True}
    result = ExperimentResult(
        config={"command": config.command, "mu_spec": config.mu_spec,
                "p": config.p, "grid": config.grid,
                "tolerances": config.tolerances,
                **({"extra": config.extra} if config.extra else {})},
        reports=reports, verdicts=verdicts, wall_time=time.time() - t0,
        versions=_versions())
    if config.output_path:
        # constants keeps its CSV table at output_path, the report beside it
        path = config.output_path + \
            (".json" if config.command == "constants" else "")
        with open(path, "w") as fh:
            fh.write(result.to_json())
    return result


# ---------------------------------------------------------------------------
# Constants table


DEFAULT_FAMILY = tuple((k, r) for r in (0.7, 0.5, 0.3) for k in (0.3, 0.2, 0.1))
# descending (r, k): the largest ratio comes first, so the running max
# stabilizes before the final row


def estimate_constants(family_spec=None, p_list=(2.0,)):
    """Empirical constants over the closed-form family k chi_{rD}.

    Emits one row per (k, r, p) with both sides of the norm comparison
    (M_p in closed form, A_p of the closed-form Bers image; teichkit.exact),
    the running-max ratio (the empirical constant), the sup-vs-A_p ratio,
    and at p = 2 the Douglas ratio of boundary to analytic Besov norms.
    """
    family = [tuple(q) for q in family_spec] if family_spec else \
        list(DEFAULT_FAMILY)
    douglas = None
    rows = []
    for p in p_list:
        if p == 2.0:
            douglas = _douglas_z()[1]
        running = 0.0
        for k, r in family:
            a = k * r * r  # mu = 0 a.e. when a = 0: a row of zeros and NA
            num = den = ai = 0.0
            if a != 0:
                phi = exact.bers_image(k, r)
                num = ap_norm(phi, p).value
                den = exact.mp_norm(k, r, p)
                ai = ainf_norm(phi).value
                running = max(running, num / den)
            rows.append({"k": k, "r": r, "p": p, "mp_norm": den,
                         "ap_phi": num, "ratio": num / den if a else "NA",
                         "running_max": running if a else "NA",
                         "ainf_phi": ai, "cp_ratio": ai / num if a else "NA",
                         "douglas_p2": douglas if p == 2.0 else ""})
    return rows


def write_constants_csv(rows, path):
    cols = ["k", "r", "p", "mp_norm", "ap_phi", "ratio", "running_max",
            "ainf_phi", "cp_ratio", "douglas_p2"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(cols)
        for row in rows:
            w.writerow([row[c] for c in cols])


# ---------------------------------------------------------------------------
# argparse surface


def _parse_tol(values):
    out = {}
    for item in values or ():
        name, _, val = item.partition("=")
        try:
            out[name] = float(val)
        except ValueError:
            raise SystemExit(f"--tol expects name=number, got {item!r}") \
                from None
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="teichkit",
        description="Numerical toolkit for p-integrable universal "
                    "Teichmueller spaces")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", help="JSON config (object or array of objects)")
    ap.add_argument("--out", help="output path for the JSON report")
    ap.add_argument("--jobs", type=int, default=1,
                    help="parallel workers for array configs")
    ap.add_argument("--grid-n", type=int, default=None)
    ap.add_argument("--p", type=float, default=None)
    ap.add_argument("--tol", action="append", metavar="NAME=VAL",
                    help="override a named tolerance")
    ap.add_argument("--k", type=float, default=0.3,
                    help="constant_disk coefficient magnitude")
    ap.add_argument("--r", type=float, default=0.5,
                    help="constant_disk support radius")
    return ap


def _over(base, top):
    """top laid over base; a base that is not a dict stays to be rejected."""
    return {**base, **top} if isinstance(base, dict) else base


def _with_flags(entry, args, tol, out):
    """Config dict of the flags laid over entry: --p, --grid-n, --tol and
    out win, the command and --k/--r fill only what entry leaves out."""
    d = {"command": args.command,
         "mu_spec": {"kind": "constant_disk", "k": args.k, "r": args.r},
         **entry}
    if out:
        d["output_path"] = out
    if args.p is not None:
        d["p"] = args.p
    if args.grid_n is not None:
        d["grid"] = _over(d.get("grid", {}), {"n": args.grid_n})
    if tol:
        d["tolerances"] = _over(d.get("tolerances", {}), tol)
    return d


def main(argv=None):
    args = build_parser().parse_args(argv)
    tol = _parse_tol(args.tol)
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    array = isinstance(raw, list)
    entries = raw if array else [raw]
    # --out is the report path of a single run, else the merged file
    out = args.out if len(entries) == 1 else None
    configs = []
    for i, entry in enumerate(entries):
        where = f"--config entry {i}" if array else \
            "--config" if args.config else "command line"
        if not isinstance(entry, dict):
            raise SystemExit(f"{where} must be a JSON object, got {entry!r}")
        try:
            configs.append(ExperimentConfig.from_dict(
                _with_flags(entry, args, tol, out)))
        except ValueError as exc:
            raise SystemExit(f"{where}: {exc}") from None

    if len(configs) > 1 and args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, configs))
    else:
        results = [run(c) for c in configs]

    exit_code = 0
    for cfg, res in zip(configs, results):
        if cfg.command == "verify-all" and not res.verdicts.get("failed"):
            for key, rep in res.reports.items():  # in criterion order
                print(CheckResult(int(key.removeprefix("criterion_")),
                                  **rep).line())
            if not res.verdicts["all_passed"]:
                exit_code = 1
        if res.verdicts.get("failed"):
            print(f"ERROR in {cfg.command}: "
                  f"{res.reports['error']['message']}", file=sys.stderr)
            exit_code = 1
        if not cfg.output_path and len(results) == 1 \
                and cfg.command != "verify-all":
            print(res.to_json())
    if args.out and len(results) > 1:
        with open(args.out, "w") as fh:
            fh.write("[" + ",\n".join(r.to_json() for r in results) + "]")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
