"""Print one sha256 digest per teichkit report, to show that a change keeps
every number.

    python scripts/report_digests.py SRC

SRC is the `src` directory to import teichkit from, so one copy of this
script digests two trees: run it once per tree and diff the two outputs.
Each line is a digest followed by what it covers.  The digests cover:

- the JSON report of every command but `verify-all`, at (k, r) = (0.3, 0.5)
  with N = 256 and at (0.15, 0.4) with N = 512 (`solve` both as a plane
  solve and as a disk self-map);
- each file `weld --out` writes there: the CSVs of h, f and g and their
  JSON sidecars;
- the `details` of each acceptance criterion that `verify-all` runs.

Timing fields (`wall_time`, `elapsed`, `runtime_s`) are removed before a
report is digested, and a command whose report is an error is marked
FAILED.  A run takes about 35 s on a 2-core x86 VM.

The commands run in one process, in the order listed, and `verify-all`
runs last.  teichkit keeps the last welding in the process, so `besov`,
`extend`, `characterize` and `roundtrip` read the whole welding that
`weld` left at the same point (h, its checks, f_mu and g).  A diff across
two trees that keep different results therefore also compares one tree's
kept results with the other's fresh solves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

POINTS = ((0.3, 0.5, 256), (0.15, 0.4, 512))
COMMANDS = ("norm", "solve", "solve self_map", "bers", "aw", "bilip", "weld",
            "besov", "extend", "characterize", "roundtrip", "constants")
TIMING = ("wall_time", "elapsed", "runtime_s")
WELD_FILES = (".h.csv", ".h.csv.json", ".f.csv", ".f.csv.json", ".g.csv",
              ".g.csv.json")


def _strip(obj):
    """obj without the timing fields, at any depth."""
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in TIMING}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _digest(obj):
    text = json.dumps(_strip(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _import_teichkit(src):
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import teichkit.cli

    if not teichkit.__file__.startswith(src + os.sep):
        raise SystemExit(f"teichkit was imported from {teichkit.__file__}, "
                         f"not from {src}")
    return teichkit.cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="directory holding the teichkit package")
    args = ap.parse_args(argv)
    cli = _import_teichkit(args.src)

    with tempfile.TemporaryDirectory() as tmp:
        for k, r, n in POINTS:
            where = f"k={k} r={r} N={n}"
            for entry in COMMANDS:
                command, *flags = entry.split()
                out = os.path.join(tmp, "weld") if command == "weld" else None
                config = {"command": command, "grid": {"n": n},
                          "mu_spec": {"kind": "constant_disk", "k": k,
                                      "r": r},
                          **{flag: True for flag in flags}}
                if out is not None:  # the report's config omits the path
                    config["output_path"] = out
                res = cli.run(cli.ExperimentConfig.from_dict(config))
                mark = " FAILED" if res.verdicts.get("failed") else ""
                print(_digest(json.loads(res.to_json())), entry, where + mark,
                      flush=True)
                for suffix in WELD_FILES if out is not None else ():
                    with open(out + suffix, "rb") as fh:
                        print(hashlib.sha256(fh.read()).hexdigest(),
                              f"weld --out {suffix}", where, flush=True)
    res = cli.run(cli.ExperimentConfig.from_dict({"command": "verify-all"}))
    for key, rep in res.reports.items():
        print(_digest(rep.get("details", rep)), "verify-all", key, flush=True)


if __name__ == "__main__":
    main()
