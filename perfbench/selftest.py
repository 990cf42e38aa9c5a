"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json lists exactly the metrics of metrics.py.
2. Every span a per-layer metric reads is wrapped and is called in at least
   one workload, so a rename in src/ fails here instead of reporting 0.
3. Each oracle accepts the real op outputs and rejects perturbed copies.

It runs each workload once, traced, with BENCHMARK.json's run_seconds
(about two minutes in total).  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_benchmark_json(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    check(spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END],
        "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    check(spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b, _ in PER_LAYER],
          "BENCHMARK.json per_layer matches metrics.PER_LAYER")
    return spec["run_seconds"]


def rejects(op, data, mutate, what):
    bad = copy.deepcopy(data)
    mutate(bad)
    ok, _, why = oracles.check(op, bad)
    check(not ok, f"oracle rejects {what} ({why})")


def check_oracles(workload, ops, out):
    for op, res in zip(ops, out["ops"]):
        check(res["error"] is None and oracles.check(op, res["data"])[0],
              f"{workload}: oracle accepts the real output of {op}")
    check(not oracles.check(ops[0], None)[0], f"{workload}: missing output")
    op, data = ops[0], out["ops"][0]["data"]
    if workload == "bers-sweep":
        def scale_peak(d):
            table = d["reports"]["teichmuller_point"]["laurent"]
            row = max(table, key=lambda t: abs(complex(t[1], t[2])))
            row[1] *= 1.05
            row[2] *= 1.05
        rejects(op, data, scale_peak, "a Laurent coefficient off by 5%")
        rejects(op, data, lambda d: d["verdicts"].update(ap_finite=False),
                "a false verdict")
    elif workload == "characterize":
        def stage(name, key, value):
            def mutate(d):
                d["reports"]["characterization"]["stages"][name][key] = value
            return mutate
        mp = data["reports"]["characterization"]["stages"]["mp_norm_mu"]
        rejects(op, data, stage("mp_norm_mu", "value", mp["value"] + 2e-3),
                "M_p off by 2e-3")
        rejects(op, data, stage("roundtrip", "phi_distance", 0.2),
                "roundtrip distance 0.2")
        rejects(op, data, stage("welding", "consistency_sup", 2e-2),
                "welding consistency 2e-2")
        rejects(op, data, stage("mp_norm_extension", "value", float("nan")),
                "a non-finite stage value")
        rejects(op, data, lambda d: d["reports"]["characterization"]
                ["verdicts"].update(coherent=False), "incoherent verdicts")
    else:
        for op, res in zip(ops, out["ops"]):
            rejects(op, res["data"], lambda d: d.update(passed=False),
                    f"criterion {op['criterion']} failing")
            for vkey, tkey in oracles.GATE_PAIRS[op["criterion"]]:
                def over(d, v=vkey, t=tkey):
                    d["details"][v] = 2.0 * d["details"][t]
                rejects(op, res["data"], over,
                        f"criterion {op['criterion']} {vkey} at 2x {tkey}")


def main():
    root = Path.cwd()
    seconds = check_benchmark_json(root)
    called, wrapped = set(), None
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=seconds,
                                  deadline=time.monotonic() + run.RUN_LIMIT_S)
        out = run.run_measured(root, args, "trace")
        called |= set(out["called"])
        wrapped = set(out["wrapped"])
        check_oracles(workload, build_ops(workload, 1, seconds), out)
    for span in sorted({row[3] for row in PER_LAYER} - {None}):
        check(span in wrapped and span in called,
              f"span {span} is wrapped and called")
    print("selftest passed")


if __name__ == "__main__":
    main()
