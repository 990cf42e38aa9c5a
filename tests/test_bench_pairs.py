"""scripts/bench_pairs.py's summary, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _stdout(op_p50_s, pass_ratio):
    """A benchmark run's stdout: table, provenance and the result line."""
    metrics = {"op_p50_s": {"value": op_p50_s, "unit": "s"},
               "pass_ratio": {"value": pass_ratio, "unit": "ratio"}}
    return (f"# gate seed=1: 6 ops\nop_p50_s {op_p50_s} s\n"
            f"pass_ratio {pass_ratio} ratio\nprovenance: {{}}\n"
            + json.dumps({"correct": True, "attempted": 6, "failed": 0,
                          "metrics": metrics}) + "\n")


def test_result_metrics_reads_the_last_line():
    assert bench_pairs.result_metrics(_stdout(0.2, 1.0)) == {
        "op_p50_s": 0.2, "pass_ratio": 1.0}


def test_summary_counts_wins_in_the_metrics_direction():
    parent = [0.18, 0.19, 0.20, 0.19, 0.17]
    change = [0.11, 0.12, 0.20, 0.10, 0.11]  # pair 3 ties
    pairs = [(bench_pairs.result_metrics(_stdout(p, 1.0)),
              bench_pairs.result_metrics(_stdout(c, 1.0 - (i == 0) / 6)))
             for i, (p, c) in enumerate(zip(parent, change))]
    head, op, ratio = bench_pairs.summarize(
        pairs, [("op_p50_s", "lower"), ("pass_ratio", "higher")])
    assert head.split()[0] == "metric"
    # medians 0.19 and 0.11, parent quartiles 0.18 and 0.19
    assert op.split() == ["op_p50_s", "0.19", "[0.18,", "0.19]", "0.11",
                          "[0.11,", "0.12]", "4/5", "yes"]
    # one loss, four ties: no win, no gain
    assert ratio.split()[-2:] == ["0/5", "no"]
