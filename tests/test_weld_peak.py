"""scripts/weld_peak.py on a small welding."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from teichkit import BeltramiCoefficient, boundary

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "scripts" / "weld_peak.py"
_SPEC = importlib.util.spec_from_file_location("weld_peak", _PATH)
weld_peak = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(weld_peak)


def test_weld_peak_prints_one_line_for_one_welding():
    proc = subprocess.run(
        [sys.executable, str(_PATH), str(_ROOT / "src"), "64", "0.2", "0.5"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"n", "k", "r", "wall_s", "ru_maxrss_mb",
                        "tracemalloc_peak_mib", "nproc", "numpy", "scipy",
                        "sha256"}
    assert (out["n"], out["k"], out["r"]) == (64, 0.2, 0.5)
    assert out["wall_s"] > 0 and out["nproc"] >= 1
    assert 0 < out["tracemalloc_peak_mib"] < out["ru_maxrss_mb"]
    # the digest is of the welding this process computes too
    weld = boundary.welding(BeltramiCoefficient.constant_disk(0.2, 0.5), 64)
    assert out["sha256"] == weld_peak.welding_digest(weld)
