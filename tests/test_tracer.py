"""Smoke test of the benchmark's tracer against the current teichkit.

The tracer (perfbench/tracer.py) wraps teichkit from the outside and reads
the signatures of the solves, transforms and Besov sums, and attributes of
their results; a change to any of them would otherwise show only in the
benchmark's own self-test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from tracer import Tracer

tracer = Tracer()
tracer.install()
from teichkit import cli, verification

errors = []
for command in ("bers", "solve", "weld", "characterize"):
    res = cli.run(cli.ExperimentConfig(command, grid={{"n": 64}}))
    res.to_json()
    if "error" in res.reports:
        errors.append([command, res.reports["error"]])
check_11 = next(fn for fn in verification.ALL_CRITERIA
                if fn.__name__.startswith("check_11_"))
check_11()
metrics = tracer.metrics()
print(json.dumps({{
    "errors": errors,
    "raised": sorted({{s[0] for s in tracer.spans if s[5] is not None}}),
    "called": sorted({{s[0] for s in tracer.spans}}),
    "metrics": metrics,
}}))
"""


def test_tracer_runs_cli_commands_and_a_criterion():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"),
                           src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["errors"] == []
    assert got["raised"] == []
    called = set(got["called"])
    assert {"solver.solve_plane", "solver.solve_halfplane", "cli.run",
            "verification.check_11"} <= called
    metrics = got["metrics"]
    assert metrics["solver.solve.calls"] > 0
    assert metrics["solver.neumann_iters"] > 0
    assert metrics["cli.errors"] == 0 and metrics["solver.errors"] == 0
