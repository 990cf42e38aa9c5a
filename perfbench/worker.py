"""One benchmark worker: a fresh process that imports teichkit and runs ops.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode> <t_spawn>

mode is `setup` (import and build inputs, then exit), `run` or `trace`
(`run` with the tracer installed).  t_spawn is the runner's
time.monotonic() just before it started this process, so setup_s covers
interpreter start-up too (CLOCK_MONOTONIC is system-wide on Linux).  The
result is one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(argv):
    workload, seed, seconds, mode, t_spawn = argv
    seed, seconds, t_spawn = int(seed), float(seconds), float(t_spawn)

    import numpy
    import scipy
    import teichkit  # timed: the import is part of set-up
    from teichkit import cli, verification
    from workloads import build_ops, config_dict

    ops = build_ops(workload, seed, seconds)
    configs = [cli.ExperimentConfig.from_dict(config_dict(op))
               if op["kind"] == "cli" else None for op in ops]
    setup_s = time.monotonic() - t_spawn
    out = {"setup_s": setup_s}
    if mode == "setup":
        return out

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    criteria = {int(fn.__name__.split("_")[1]): fn
                for fn in verification.ALL_CRITERIA}

    results = []
    t_run = time.perf_counter()
    for op, cfg in zip(ops, configs):
        t0 = time.perf_counter()
        raw, error = None, None
        try:
            if cfg is not None:
                raw = cli.run(cfg).to_json()  # what `teichkit <cmd>` prints
            else:
                raw = criteria[op["criterion"]]()
        except Exception:  # noqa: BLE001 - counted as a failed op
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        results.append({"wall_s": wall, "data": _data(raw), "error": error})
    out["run_s"] = time.perf_counter() - t_run
    out["ops"] = results
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__,
                       "teichkit": teichkit.__version__}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["wrapped"] = sorted(tracer.wrapped)
        out["called"] = sorted({span[0] for span in tracer.spans})
    return out


def _data(raw):
    """The part of an op's output the oracles read, as plain JSON."""
    if raw is None:
        return None
    if isinstance(raw, str):
        payload = json.loads(raw)
        return {k: payload[k] for k in ("reports", "verdicts")}
    return {"passed": bool(raw.passed),
            "details": json.loads(json.dumps(raw.details, default=_plain))}


def _plain(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
