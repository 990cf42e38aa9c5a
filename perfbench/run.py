"""teichkit benchmark: closed-loop workloads with oracles and per-layer traces.

    python3 perfbench/run.py --workload bers-sweep --seed 1 --seconds 30 \\
        --trace 0

Run it from the repository root; it imports teichkit from ./src.  Workloads
(see workloads.py): bers-sweep, characterize, gate.  One client runs the ops
of a run one after another (closed loop), in a fresh single-threaded worker
process, so the solve memo and the spectral-kit cache start empty as they do
for a CLI invocation.  An inherited TEICHKIT_CACHE_DIR is removed; gate gets
its own empty cache directory, deleted after its files are counted.

--trace 0 prints the end-to-end metrics:
    setup_s       worker start -> `import teichkit` and inputs built; the
                  median over SETUP_PROBES set-up-only workers and the
                  measured worker
    run_s         wall time of the op sequence
    op_p50_s      median wall time of one op (the op count is printed)
    peak_rss_mb   ru_maxrss of the measured worker
    pass_ratio    ops that passed their oracle / ops attempted
    err_ratio_max worst oracle error / its tolerance (<= 1 passes)
--trace 1 runs the same ops untraced and then traced, in two workers, and
prints the per-layer metrics of the traced worker (tracer.py) plus
trace.overhead = traced run_s / untraced run_s - 1.

The last stdout line is the JSON result; the lines before it are a table of
the metrics and a provenance block.  The run exits non-zero without a result
if teichkit cannot be found or a worker dies.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170  # all workers of one run together
ERR_CAP = 1e9  # err_ratio_max when an op raised; JSON has no infinity
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(root: Path, cache_dir: Path | None):
    env = {k: v for k, v in os.environ.items() if k != "TEICHKIT_CACHE_DIR"}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if cache_dir is not None:
        env["TEICHKIT_CACHE_DIR"] = str(cache_dir)
    return env


def run_worker(root, args, mode, cache_dir=None):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), mode, repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root, cache_dir),
                          capture_output=True, text=True,
                          timeout=max(1.0, args.deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_measured(root, args, mode):
    """One measuring worker; gate gets a fresh cache directory."""
    cache_dir = None
    if args.workload == "gate":
        cache_dir = root / ".perfbench_tmp" / f"cache-{os.getpid()}-{mode}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
    try:
        out = run_worker(root, args, mode, cache_dir)
        files = [Path(p) for p in glob.glob(str(cache_dir / "*"))] \
            if cache_dir else []
        out["cache_files"] = len(files)
        out["cache_bytes"] = sum(p.stat().st_size for p in files)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
            try:
                cache_dir.parent.rmdir()
            except OSError:
                pass
    return out


def judge(ops, out):
    """Oracle verdicts for one worker's ops: (failed, err_ratio_max, notes)."""
    failed, worst, notes = 0, 0.0, []
    for i, (op, res) in enumerate(zip(ops, out["ops"])):
        if res["error"]:
            ok, ratio, why = False, math.inf, res["error"].strip()
        else:
            ok, ratio, why = oracles.check(op, res["data"])
        worst = max(worst, ratio)
        if not ok:
            failed += 1
            notes.append(f"op {i} {op}: {why}")
    return failed, worst, notes


def provenance(args, root, versions):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read(f"{idx}/level"), read(f"{idx}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = read(f"{idx}/size")
    commit = "unknown"
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "platform": platform.platform(), "versions": versions,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "worker_thread_env": dict.fromkeys(THREAD_VARS, "1"),
            "git_commit": commit, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "wait_time": "omitted: one single-threaded process, no layer "
                         "waits on another"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "teichkit" / "__init__.py").is_file():
        print(f"teichkit sources not found under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    ops = build_ops(args.workload, args.seed, args.seconds)
    try:
        setups = [run_worker(root, args, "setup")["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        plain = run_measured(root, args, "run")
        traced = run_measured(root, args, "trace") if args.trace else None
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed, worst, notes = judge(ops, plain)
    attempted = len(ops)
    if traced is not None:
        t_failed, _, t_notes = judge(ops, traced)
        failed, attempted = failed + t_failed, attempted + len(ops)
        notes += [f"traced {n}" for n in t_notes]

    if traced is None:
        walls = [r["wall_s"] for r in plain["ops"]]
        values = {
            "setup_s": statistics.median(setups + [plain["setup_s"]]),
            "run_s": plain["run_s"],
            "op_p50_s": statistics.median(walls),
            "peak_rss_mb": plain["peak_rss_mb"],
            "pass_ratio": 1.0 - failed / attempted,
            "err_ratio_max": min(worst, ERR_CAP),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        print(f"# {args.workload} seed={args.seed}: {len(ops)} ops "
              f"(op_p50_s is the median of {len(walls)} op times; "
              f"setup_s the median of {len(setups) + 1} set-ups)")
    else:
        values = dict(traced["layers"])
        values["solver.cache_files_written"] = traced["cache_files"]
        values["solver.cache_bytes_written"] = traced["cache_bytes"]
        values["trace.overhead"] = traced["run_s"] / plain["run_s"] - 1.0
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        values = {name: values[name] for name in units}
        print(f"# {args.workload} seed={args.seed}: traced run_s "
              f"{traced['run_s']:.3f} s, untraced {plain['run_s']:.3f} s")
    for name, val in values.items():
        print(f"{name:42s} {val:16.6g} {units[name]}")
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    print("provenance: " + json.dumps(provenance(args, root,
                                                 plain["versions"])))
    metrics = {name: {"value": val, "unit": units[name]}
               for name, val in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
