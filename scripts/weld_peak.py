"""Run one conformal welding and print one JSON line with its cost and a
digest of what it computed.

    python scripts/weld_peak.py SRC N [K R]

SRC is the `src` directory to import teichkit from, so one copy of this
script measures two trees: run it once per tree.  The welding is of
constant_disk(K, R) (by default K = 0.3, R = 0.5) at grid size N, and it is
the only one the process runs, so nothing is kept from an earlier welding.
Run each measurement as its own command: a fresh process.  The line holds

- `wall_s`: the welding's wall time;
- `ru_maxrss_mb`: the process's peak resident set after the welding,
  imports included (ru_maxrss / 1024, as perfbench's `peak_rss_mb`);
- `tracemalloc_peak_mib`: the traced peak of the welding alone, tracing
  started just before it;
- `nproc`, `numpy`, `scipy`: the machine's core count and the versions;
- `sha256`: one digest of h's parameters and values and of f's and g's
  chart values, in that order.

tracemalloc runs during the timed welding; on a 2-core x86 VM at N = 1024
it moved neither the wall time nor ru_maxrss by more than their spread
from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc


def welding_digest(weld):
    """sha256 of h's parameters and values and f's and g's chart values."""
    digest = hashlib.sha256()
    for arr in (weld.h.params, weld.h.values, weld.f_map.grid.values,
                weld.g_map.grid.values):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _import(src):
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import teichkit.boundary

    if not teichkit.__file__.startswith(src + os.sep):
        raise SystemExit(f"teichkit was imported from {teichkit.__file__}, "
                         f"not from {src}")
    return teichkit


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="directory holding the teichkit package")
    ap.add_argument("n", type=int, help="grid size N")
    ap.add_argument("k", type=float, nargs="?", default=0.3)
    ap.add_argument("r", type=float, nargs="?", default=0.5)
    args = ap.parse_args(argv)
    teichkit = _import(args.src)
    import numpy
    import scipy

    mu = teichkit.BeltramiCoefficient.constant_disk(args.k, args.r)
    tracemalloc.start()
    t0 = time.perf_counter()
    weld = teichkit.boundary.welding(mu, grid_n=args.n)
    wall = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "n": args.n, "k": args.k, "r": args.r, "wall_s": round(wall, 3),
        "ru_maxrss_mb": round(rss, 1),
        "tracemalloc_peak_mib": round(peak / 2 ** 20, 1),
        "nproc": os.cpu_count(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sha256": welding_digest(weld)}))


if __name__ == "__main__":
    main()
