"""Smoke test of the benchmark's tracer against the current teichkit.

The tracer (perfbench/tracer.py) wraps teichkit from the outside and reads
the signatures of the solves, transforms and Besov sums, and attributes of
their results; a change to any of them would otherwise show only in the
benchmark's own self-test.  The benchmark's self-test also requires
every span a per-layer metric reads to be wrapped and called; REACHED names
the ones these ops reach, so a change that stops calling one (or renames
it) fails here in seconds rather than in the two-minute self-test.  A
characterize stage that raises is recorded in its report, not raised, so
the test also reads the report's stages: a hook that fails to bind a
renamed parameter would otherwise go unseen.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from metrics import PER_LAYER
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
# characterize records a failed stage in its report and carries on
stages = res.reports["characterization"]["stages"]
errors += [[name, st] for name, st in stages.items() if "error" in st]
# the criteria the benchmark's gate runs
for fn in verification.ALL_CRITERIA:
    if fn.__name__.split("_")[1] in ("2", "4", "5", "7", "9", "11"):
        fn()
metrics = tracer.metrics()
print(json.dumps({{
    "errors": errors,
    "raised": sorted({{s[0] for s in tracer.spans if s[5] is not None}}),
    "called": sorted({{s[0] for s in tracer.spans}}),
    "wrapped": sorted(tracer.wrapped),
    "per_layer": sorted({{row[3] for row in PER_LAYER}} - {{None}}),
    "metrics": metrics,
}}))
"""

# metrics.PER_LAYER spans that bers, solve, weld and characterize at N = 64
# and the gate's criteria 2, 4, 5, 7, 9 and 11 call
REACHED = {
    "solver.solve_plane", "solver.solve_halfplane", "solver.solve_disk",
    "solver.qcmap_eval", "solver.invert",
    "domains.series_eval", "domains.coef_eval", "domains.mp_norm",
    "domains.ap_norm", "domains.ainf_norm",
    "bers.bers_map", "bers.schwarzian", "bers.ahlfors_weill",
    "bers.laurent_coefficients",
    "boundary.welding", "boundary.eval", "boundary.besov_seminorm",
    "boundary.ba_extend", "boundary.extension_mu", "boundary.boundary_trace",
    "boundary.log_derivative", "boundary.welding_identity_check",
    "boundary.roundtrip_phi_distance",
    "verification.check_2", "verification.check_4", "verification.check_5",
    "verification.check_7", "verification.check_9", "verification.check_11",
    "cli.run", "cli.to_json",
}


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
    assert REACHED <= set(got["per_layer"])
    assert REACHED - called == set()
    assert REACHED - set(got["wrapped"]) == set()
    metrics = got["metrics"]
    assert metrics["solver.solve.calls"] > 0
    assert metrics["solver.neumann_iters"] > 0
    assert metrics["cli.errors"] == 0 and metrics["solver.errors"] == 0
    # characterize's one line Besov ladder: n = 512 * 4^lev + 1 squared
    assert metrics["boundary.besov_pairs_computed"] == \
        513 ** 2 + 2049 ** 2 + 8193 ** 2
