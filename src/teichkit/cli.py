"""Command-line surface: experiment runners, JSON/CSV reports.

Subcommands mirror the toolkit pipelines:

    norm, solve, bers, aw, bilip, weld, besov, extend, characterize,
    roundtrip, constants, verify-all

Each run emits a deterministic JSON report (sorted keys; wall_time is the
only field that varies between identical runs).  Coefficients arrive as
JSON specs: {"kind": "constant_disk", "k": ..., "r": ...}, {"kind": "grid",
...}, or {"kind": "table", ...}; a config key the command does not read is
rejected.  A failed run reports the failing stage, the exception type and
its message under reports["error"].  Solves are memoized in the process
only, so repeated stages of one run reuse them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .bers import bers_map, bilipschitz_representative, equivalent, \
    hyperbolic_distortion, ahlfors_weill
from .boundary import (
    _extension_mp_norm,
    _log_derivative_besov,
    ba_extend,
    besov_characterization_check,
    besov_seminorm,
    roundtrip_phi_distance,
    welding,
    welding_identity_check,
)
from .domains import (
    BeltramiCoefficient,
    DomainTag,
    HolomorphicFunction,
    ainf_norm,
    analytic_besov_norm,
    ap_norm,
    cayley,
    mp_norm,
)
from .solver import solve_disk, solve_plane

__all__ = ["ExperimentConfig", "ExperimentResult", "run",
           "estimate_constants", "roundtrip", "main"]

COMMANDS = ("norm", "solve", "bers", "aw", "bilip", "weld", "besov",
            "extend", "characterize", "roundtrip", "constants", "verify-all")


# fields each coefficient spec kind must carry (BeltramiCoefficient.from_spec)
_SPEC_FIELDS = {"constant_disk": ("k", "r"), "grid": ("grid", "domain"),
                "table": ("points", "values", "domain")}

_FIELDS = ("command", "mu_spec", "p", "grid", "tolerances", "output_path")
# config keys beyond _FIELDS that each command reads (ExperimentConfig.extra)
_EXTRA_KEYS = {"solve": ("self_map",), "bilip": ("delta",),
               "extend": ("kernel",), "constants": ("family", "p_list")}


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
        for key in self.extra:
            if key not in _EXTRA_KEYS.get(self.command, ()):
                raise ValueError(
                    f"config key {key!r} is not read by {self.command}")
        kind = self.mu_spec.get("kind")
        for key in _SPEC_FIELDS.get(kind, ()):
            if key not in self.mu_spec:
                raise ValueError(f"mu_spec of kind {kind!r} lacks {key!r}")
        n = self.grid.get("n", 512)
        if not isinstance(n, int) or n < 1 or n & (n - 1):
            raise ValueError(
                f"grid n must be a positive int power of two, got {n!r}")
        for name, val in self.tolerances.items():
            if not isinstance(val, (int, float)) or not val > 0:
                raise ValueError(
                    f"tolerance {name!r} must be a positive number, got {val!r}")
        if not isinstance(self.p, (int, float)) \
                or not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p!r}")
        if self.command in ("besov", "characterize", "roundtrip") \
                and not self.p > 1:
            raise ValueError(f"{self.command} requires p > 1")

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


def _tol(config, name, default):
    return float(config.tolerances.get(name, default))


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_norm(cfg):
    rep = mp_norm(_mu(cfg), cfg.p)
    return {"mp_norm": rep.to_json_dict()}, {"divergent": rep.divergent}


def _cmd_solve(cfg):
    mu = _mu(cfg)
    solver = solve_disk if cfg.extra.get("self_map") else solve_plane
    f = solver(mu, grid_n=cfg.grid.get("n", 512))
    reports = {"map": f.to_json_dict(),
               "residual": f.residual,
               "convergence_ratio": f.convergence_ratio}
    return reports, {"residual_ok": f.residual <= _tol(cfg, "residual", 1e-3)}


def _cmd_bers(cfg):
    pt = bers_map(_mu(cfg), p=cfg.p, grid_n=cfg.grid.get("n", 512))
    return ({"teichmuller_point": pt.to_json_dict()},
            {"ainf_finite": not pt.ainf_report.divergent,
             "ap_finite": not pt.ap_norm_report.divergent})


def _cmd_aw(cfg):
    pt = bers_map(_mu(cfg), p=cfg.p, grid_n=cfg.grid.get("n", 512))
    sig = ahlfors_weill(pt.bers_image)
    back = bers_map(sig, p=cfg.p, grid_n=cfg.grid.get("n", 512))
    err = back.distance_to(pt, circles=(2.0,), n=32)
    tol = _tol(cfg, "section", 5e-3)
    return ({"sigma_sup_norm": sig.sup_norm, "section_sup_error": err},
            {"section_ok": err <= tol})


def _cmd_bilip(cfg):
    mu = _mu(cfg)
    nu = bilipschitz_representative(mu, delta=cfg.extra.get("delta", 0.3),
                                    grid_n=cfg.grid.get("n", 512))
    eq, dist = equivalent(nu, mu, tol=_tol(cfg, "equivalence", 1e-2),
                          grid_n=cfg.grid.get("n", 512))
    lo, hi = hyperbolic_distortion(nu.meta["final_map"])
    return ({"steps": nu.meta["steps"], "phi_distance": dist,
             "distortion": [lo, hi]},
            {"equivalent": eq, "bilipschitz": bool(0 < lo <= hi < math.inf)})


def _cmd_weld(cfg):
    weld = welding(_mu(cfg), grid_n=cfg.grid.get("n", 512))
    chk = welding_identity_check(weld)
    if cfg.output_path:
        weld.h.to_csv(cfg.output_path + ".h.csv")
        weld.f_trace.to_csv(cfg.output_path + ".f.csv")
        weld.g_trace.to_csv(cfg.output_path + ".g.csv")
    tol_c = _tol(cfg, "consistency", 1e-2)
    tol_i = _tol(cfg, "identity", 5e-2)
    return ({"consistency_sup": weld.consistency_sup,
             "imag_defect": weld.imag_defect,
             "identity_sup": chk["sup_discrepancy"]},
            {"consistent": weld.consistency_sup <= tol_c,
             "identity_ok": chk["sup_discrepancy"] <= tol_i})


def _cmd_besov(cfg):
    weld = welding(_mu(cfg), grid_n=cfg.grid.get("n", 512))
    rep = _log_derivative_besov(weld.h, cfg.p)
    return ({"besov_log_derivative": rep.to_json_dict()},
            {"finite": not rep.divergent})


def _cmd_extend(cfg):
    weld = welding(_mu(cfg), grid_n=cfg.grid.get("n", 512))
    ext, rep = _extension_mp_norm(weld.h, cfg.p,
                                  cfg.extra.get("kernel", "gaussian"))
    return ({"extension_sup_norm": ext.sup_norm,
             "mp_norm_extension": rep.to_json_dict()},
            {"quasiconformal": ext.sup_norm < 1,
             "finite": not rep.divergent})


def _cmd_characterize(cfg):
    rep = besov_characterization_check(_mu(cfg), cfg.p,
                                       grid_n=cfg.grid.get("n", 512))
    return {"characterization": rep}, dict(rep["verdicts"])


def _cmd_roundtrip(cfg):
    rep = roundtrip(_mu(cfg), cfg.p, grid_n=cfg.grid.get("n", 512),
                    tolerance=_tol(cfg, "roundtrip", 0.1))
    verdict_keys = ("within_tolerance", "skipped")
    return ({"roundtrip": rep},
            {k: rep[k] for k in verdict_keys if k in rep})


def _cmd_verify_all(cfg):
    from .verification import run_all

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


_DISPATCH = {
    "norm": _cmd_norm,
    "solve": _cmd_solve,
    "bers": _cmd_bers,
    "aw": _cmd_aw,
    "bilip": _cmd_bilip,
    "weld": _cmd_weld,
    "besov": _cmd_besov,
    "extend": _cmd_extend,
    "characterize": _cmd_characterize,
    "roundtrip": _cmd_roundtrip,
    "constants": _cmd_constants,
    "verify-all": _cmd_verify_all,
}


def run(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch a single experiment; stage failures surface with the stage."""
    t0 = time.time()
    try:
        reports, verdicts = _DISPATCH[config.command](config)
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
        with open(config.output_path, "w") as fh:
            fh.write(result.to_json())
    return result


# ---------------------------------------------------------------------------
# Constants table and roundtrip


DEFAULT_FAMILY = tuple((k, r) for r in (0.7, 0.5, 0.3) for k in (0.3, 0.2, 0.1))
# descending (r, k): the largest ratio comes first, so the running max
# stabilizes before the final row


def estimate_constants(family_spec=None, p_list=(2.0,)):
    """Empirical constants over the closed-form family k chi_{rD}.

    Emits one row per (k, r, p) with both sides of the norm comparison,
    the running-max ratio (the empirical constant), the sup-vs-A_p ratio,
    and at p = 2 the Douglas ratio of boundary to analytic Besov norms.
    """
    family = [tuple(q) for q in family_spec] if family_spec else \
        list(DEFAULT_FAMILY)
    douglas = None
    rows = []
    for p in p_list:
        if p == 2.0:
            th = 2 * np.pi * np.arange(512) / 512
            from .boundary import BoundaryFunction

            u = BoundaryFunction(th, np.exp(1j * th), "circle")
            douglas = besov_seminorm(u, 2).value / \
                analytic_besov_norm(HolomorphicFunction([1], [1.0]), 2).value
        running = 0.0
        for k, r in family:
            if k == 0:
                rows.append({"k": k, "r": r, "p": p, "mp_norm": 0.0,
                             "ap_phi": 0.0, "ratio": "NA",
                             "running_max": "NA", "ainf_phi": 0.0,
                             "cp_ratio": "NA",
                             "douglas_p2": douglas if p == 2.0 else ""})
                continue
            a = k * r * r
            from .bers import laurent_coefficients

            phi = laurent_coefficients(
                lambda z: -6.0 * a / (z * z - a) ** 2, 1.5, range(-24, 1))
            num = ap_norm(phi, p).value
            den = mp_norm(BeltramiCoefficient.constant_disk(k, r), p).value
            ai = ainf_norm(phi).value
            ratio = num / den
            running = max(running, ratio)
            rows.append({"k": k, "r": r, "p": p, "mp_norm": den,
                         "ap_phi": num, "ratio": ratio,
                         "running_max": running, "ainf_phi": ai,
                         "cp_ratio": ai / num,
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


def roundtrip(mu: BeltramiCoefficient, p=2.0, grid_n=512, tolerance=0.1):
    """Phi-distance between mu and the extension of its log-derivative datum.

    Divergent inputs report the divergence and skip the distance, mirroring
    the characterization verdict structure.
    """
    mu_u = mu if mu.domain is DomainTag.UPPER_HALF_PLANE else \
        cayley(mu, "DiskToHalfPlane")
    norm_rep = mp_norm(mu_u, p, levels=3)
    if norm_rep.divergent:
        return {"skipped": True, "reason": "mp_norm divergent",
                "mp_norm": norm_rep.to_json_dict()}
    weld = welding(mu, grid_n=grid_n)
    besov_rep = _log_derivative_besov(weld.h, p)
    if besov_rep.divergent:
        return {"skipped": True, "reason": "Besov seminorm divergent",
                "besov": besov_rep.to_json_dict()}
    ext = ba_extend(weld.h)
    dist = roundtrip_phi_distance(mu, ext, grid_n=grid_n)
    return {"skipped": False, "phi_distance": dist,
            "within_tolerance": dist <= tolerance,
            "besov": besov_rep.to_json_dict()}


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
        if cfg.command == "verify-all":
            for key in sorted(res.verdicts):
                if key.startswith("criterion_") and not res.verdicts[key]:
                    print(f"FAIL {key}: "
                          f"{res.reports[key]['name']}", file=sys.stderr)
                    exit_code = 1
            for key in sorted(res.reports):
                if key.startswith("criterion_"):
                    rep = res.reports[key]
                    status = "PASS" if rep["passed"] else "FAIL"
                    print(f"[{status}] {key}: {rep['name']} "
                          f"({rep['elapsed']:.1f}s)")
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
