"""Run the benchmark on two trees in alternating pairs and compare their
end-to-end metrics.

    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --pairs N [--seed S]

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once from each root, with the Python that runs this script, T being
`run_seconds` of the change's BENCHMARK.json.  The parent runs first in
odd pairs and the change in even ones, so a drift of the machine's speed
falls on both sides alike.  Only the result line that perfbench prints
last is read; no file is written.

Each pair's values are printed as it finishes.  At the end, for each
end-to-end metric of BENCHMARK.json, one line gives each side's median and
quartiles over the pairs and the change's wins: the pairs in which the
change is better, in the metric's direction (a tie counts for neither
side).  `gain` says whether the change's median beats the parent's by
more than the distance between the parent's quartiles.  Quartiles are
statistics.quantiles(values, n=4, method="inclusive").
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def result_metrics(stdout):
    """{metric: value} of the JSON result line perfbench prints last."""
    last = stdout.strip().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(last)["metrics"].items()}


def run_once(root, workload, seed, seconds):
    """End-to-end metrics of one benchmark run from root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {root}:\n{proc.stderr}")
    return result_metrics(proc.stdout)


def _spread(values):
    """(median, lower quartile, upper quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(pairs, metrics):
    """One line per (name, better) of metrics over pairs, a list of
    (parent, change) metric dicts; better is "lower" or "higher"."""
    lines = [f"{'metric':16s} {'parent median [q1, q3]':30s} "
             f"{'change median [q1, q3]':30s} {'wins':7s} gain"]
    for name, better in metrics:
        sign = 1 if better == "lower" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (pm, p1, p3), (cm, c1, c3) = _spread(parent), _spread(change)
        gain = sign * (pm - cm) > p3 - p1
        lines.append(f"{name:16s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':30s} "
                     f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':30s} "
                     f"{f'{wins}/{len(pairs)}':7s} {'yes' if gain else 'no'}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((args.change_root / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    roots = {"parent": args.parent_root, "change": args.change_root}

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(roots[side], args.workload, args.seed,
                              bench["run_seconds"]) for side in order}
        pairs.append((got["parent"], got["change"]))
        for side in order:
            print(f"pair {i + 1} {side:6s} " + " ".join(
                f"{name}={got[side][name]:.4g}" for name, _ in metrics),
                flush=True)
    print(f"# {args.workload} seed={args.seed}: {args.pairs} pairs")
    print("\n".join(summarize(pairs, metrics)))


if __name__ == "__main__":
    main()
