import json
import math
import subprocess
import sys

import numpy as np
import pytest

from teichkit.cli import (
    ExperimentConfig,
    estimate_constants,
    main,
    roundtrip,
    run,
    write_constants_csv,
)
from teichkit import BeltramiCoefficient
from teichkit.boundary import besov_characterization_check

from conftest import TEST_GRID_N


def cfg(command, **kw):
    base = {"command": command, "grid": {"n": TEST_GRID_N}}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"command": "frobnicate"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"command": "norm", "grid": {"n": 300}})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"command": "norm",
                                    "tolerances": {"x": -1.0}})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"command": "besov", "p": 1.0})
    with pytest.raises(ValueError, match="tolerance 'residual'"):
        ExperimentConfig.from_dict({"command": "norm",
                                    "tolerances": {"residual": "1e-3"}})
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig.from_dict({"command": "norm", "grid": 512})
    for n in (0, 512.0):
        with pytest.raises(ValueError, match="grid n"):
            ExperimentConfig.from_dict({"command": "solve", "grid": {"n": n}})
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="p must"):
            ExperimentConfig.from_dict({"command": "norm", "p": p})
    with pytest.raises(ValueError, match="mu_spec must"):
        ExperimentConfig.from_dict({"command": "norm", "mu_spec": 3})
    with pytest.raises(ValueError, match="extra must"):
        ExperimentConfig("solve", extra=5)
    for key in ("k", "r"):
        spec = {"kind": "constant_disk", "k": 0.3, "r": 0.5}
        del spec[key]
        with pytest.raises(ValueError, match=f"lacks '{key}'"):
            ExperimentConfig.from_dict({"command": "norm", "mu_spec": spec})
    with pytest.raises(ValueError, match="kind 'table' lacks 'values'"):
        ExperimentConfig.from_dict({"command": "norm", "mu_spec": {
            "kind": "table", "points": [], "domain": "UnitDisk"}})


def test_norm_command_closed_form():
    res = run(cfg("norm", mu_spec={"kind": "constant_disk", "k": 0.3,
                                   "r": 0.5}, p=2.0))
    val = res.reports["mp_norm"]["value"]
    assert val == pytest.approx(0.30700, abs=1e-3)
    assert not res.verdicts["divergent"]


@pytest.mark.parametrize("command", ["norm", "bers"])
def test_command_rejects_nan_radius(command):
    res = run(cfg(command, mu_spec={"kind": "constant_disk", "k": 0.3,
                                    "r": math.nan}))
    assert res.verdicts == {"failed": True}
    assert "r must be finite" in res.reports["error"]["message"]


def test_bers_command_zero_coefficient():
    res = run(cfg("bers", mu_spec={"kind": "zero"}))
    table = res.reports["teichmuller_point"]["laurent"]
    assert all(abs(re) + abs(im) == 0 for _, re, im in table)


def test_mu_spec_grid_and_table_kinds():
    from teichkit.domains import ComplexGrid

    n = 64
    d = 8.0 / n
    off = -4.0 + d * np.arange(n)
    Z = off[:, None] + 1j * off[None, :]
    vals = np.where(np.abs(Z) < 0.5, 0.25, 0.0)
    grid_spec = {"kind": "grid", "domain": "UnitDisk",
                 "grid": ComplexGrid(0.0, 4.0, vals).to_json_dict()}
    mu_g = BeltramiCoefficient.from_spec(grid_spec)
    assert abs(mu_g.eval(0.1 + 0.1j) - 0.25) < 1e-12

    pts = [[0.1, 0.1], [-0.2, 0.0], [0.0, 0.3]]
    table_spec = {"kind": "table", "domain": "UnitDisk",
                  "points": pts, "values": [0.2, 0.2, 0.2]}
    mu_t = BeltramiCoefficient.from_spec(table_spec)
    assert abs(mu_t.eval(0.1 + 0.1j) - 0.2) < 1e-12


def test_config_rejects_unread_key():
    with pytest.raises(ValueError, match="'gird'"):
        ExperimentConfig.from_dict({"command": "norm", "gird": {"n": 64}})
    # each command reads its own extras only
    with pytest.raises(ValueError, match="'delta'"):
        ExperimentConfig.from_dict({"command": "solve", "delta": 0.3})
    with pytest.raises(ValueError, match="'kernel'"):
        ExperimentConfig.from_dict({"command": "norm",
                                    "extra": {"kernel": "box"}})
    with pytest.raises(ValueError, match="extra must"):
        ExperimentConfig.from_dict({"command": "solve", "extra": True})


def test_report_config_roundtrips():
    c = cfg("solve", self_map=True, grid={"n": 64})
    echoed = json.loads(run(c).to_json())["config"]
    assert echoed["extra"] == {"self_map": True}
    assert ExperimentConfig.from_dict(echoed) == c


def _cli_report(tmp_path, entry, *flags):
    opath = tmp_path / "out.json"
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({**entry, "output_path": str(opath)}))
    assert main(["norm", "--config", str(cpath), *flags]) == 0
    return json.loads(opath.read_text())["config"]


def test_cli_out_flag_writes_a_single_config_run(tmp_path):
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps([{"command": "norm", "grid": {"n": 64}}]))
    opath = tmp_path / "out.json"
    assert main(["norm", "--config", str(cpath), "--out", str(opath)]) == 0
    assert json.loads(opath.read_text())["command"] == "norm"


def test_cli_p_flag_wins_over_config(tmp_path):
    entry = {"command": "norm", "p": 3.0, "grid": {"n": 64}}
    assert _cli_report(tmp_path, entry)["p"] == 3.0
    assert _cli_report(tmp_path, entry, "--p", "2")["p"] == 2.0


def test_cli_k_r_fill_a_missing_mu_spec(tmp_path):
    entry = {"command": "norm", "grid": {"n": 64}}
    got = _cli_report(tmp_path, entry, "--k", "0.1", "--r", "0.4")
    assert got["mu_spec"] == {"kind": "constant_disk", "k": 0.1, "r": 0.4}
    entry["mu_spec"] = {"kind": "constant_disk", "k": 0.2, "r": 0.5}
    got = _cli_report(tmp_path, entry, "--k", "0.1", "--r", "0.4")
    assert got["mu_spec"] == entry["mu_spec"]


@pytest.mark.parametrize("raw,where", [
    ([{"command": "norm"}, 7], "--config entry 1 "),
    (7, "--config must"),
])
def test_cli_rejects_config_that_is_not_an_object(tmp_path, raw, where):
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(raw))
    with pytest.raises(SystemExit, match=where):
        main(["norm", "--config", str(cpath)])


def test_cli_rejects_tolerance_that_is_not_a_number():
    with pytest.raises(SystemExit, match="name=number, got 'residual=abc'"):
        main(["solve", "--tol", "residual=abc"])


def test_run_determinism():
    c = cfg("norm", p=2.0)
    j1 = json.loads(run(c).to_json())
    j2 = json.loads(run(c).to_json())
    j1.pop("wall_time")
    j2.pop("wall_time")
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


def test_error_surfaced_with_stage():
    # sup-norm 0.95 is outside the Neumann regime; the failure is reported
    # with its stage instead of raising
    res = run(cfg("solve", mu_spec={"kind": "constant_disk", "k": 0.95,
                                    "r": 0.5}, grid={"n": 128}))
    assert res.verdicts.get("failed")
    assert res.reports["error"]["stage"] == "solve"
    assert "Neumann" in res.reports["error"]["message"]
    assert res.reports["error"]["type"] == "SolverError"


def test_malformed_table_spec_names_field():
    res = run(cfg("norm", mu_spec={"kind": "table", "domain": "UnitDisk",
                                   "points": [[0.0, 0.0], [0.1, 0.0]],
                                   "values": [0.1]}, grid={"n": 64}))
    assert res.verdicts == {"failed": True}
    assert res.reports["error"]["type"] == "ValueError"
    assert "table values" in res.reports["error"]["message"]


def test_characterization_stage_failure_keeps_type_and_trace():
    # sup-norm 0.95 is outside the Neumann regime: welding fails, and its
    # stage record keeps the exception type and the (empty) trace
    rep = besov_characterization_check(
        BeltramiCoefficient.constant_disk(0.95, 0.5), 2, grid_n=64)
    weld = rep["stages"]["welding"]
    assert weld["type"] == "SolverError"
    assert "Neumann regime" in weld["error"]
    assert weld["trace"] == []
    assert rep["verdicts"]["coherent"] is False


def test_constants_rows_and_running_max(tmp_path):
    rows = estimate_constants(p_list=(2.0,))
    assert len(rows) == 9
    rm = [r["running_max"] for r in rows]
    assert rm[-1] == rm[-2]
    assert rows[0]["douglas_p2"] == pytest.approx(3.5449, rel=1e-2)
    path = tmp_path / "constants.csv"
    write_constants_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["k", "r", "p"]
    assert len(path.read_text().splitlines()) == 10


def test_constants_single_zero_row():
    rows = estimate_constants(family_spec=[(0.0, 0.5)], p_list=(2.0,))
    assert rows[0]["ratio"] == "NA"
    assert rows[0]["running_max"] == "NA"


def test_roundtrip_finite():
    rep = roundtrip(BeltramiCoefficient.constant_disk(0.2, 0.5), 2.0,
                    grid_n=TEST_GRID_N)
    assert not rep["skipped"]
    assert rep["phi_distance"] <= 0.1
    assert rep["within_tolerance"]


def test_roundtrip_matches_characterization_stage():
    # both pass mu on D as given to the welding and to the Bers roundtrip
    mu = BeltramiCoefficient.constant_disk(0.15, 0.4)
    rep = roundtrip(mu, 2.0, grid_n=256)
    char = besov_characterization_check(mu, 2.0, grid_n=256)
    assert rep["phi_distance"] == char["stages"]["roundtrip"]["phi_distance"]


def test_roundtrip_divergent_skips():
    mu = BeltramiCoefficient("UpperHalfPlane",
                             lambda z: 0.3 * z / np.conj(z), math.inf, 0.3)
    rep = roundtrip(mu, 2.0, grid_n=256)
    assert rep["skipped"]
    assert "divergent" in rep["reason"]


def test_cli_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "teichkit.cli", "norm", "--k", "0.1",
         "--r", "0.5", "--p", "2", "--grid-n", "256"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == 1
    assert payload["command"] == "norm"


def test_cli_config_array(tmp_path):
    configs = [
        {"command": "norm", "mu_spec": {"kind": "constant_disk", "k": 0.1,
                                        "r": 0.5}, "p": 2.0,
         "grid": {"n": 256}},
        {"command": "norm", "mu_spec": {"kind": "constant_disk", "k": 0.2,
                                        "r": 0.5}, "p": 2.0,
         "grid": {"n": 256}},
    ]
    cpath = tmp_path / "configs.json"
    cpath.write_text(json.dumps(configs))
    opath = tmp_path / "out.json"
    out = subprocess.run(
        [sys.executable, "-m", "teichkit.cli", "norm", "--config",
         str(cpath), "--out", str(opath), "--jobs", "2"],
        capture_output=True, text=True, timeout=900)
    assert out.returncode == 0
    merged = json.loads(opath.read_text())
    assert len(merged) == 2
    v1 = merged[0]["reports"]["mp_norm"]["value"]
    v2 = merged[1]["reports"]["mp_norm"]["value"]
    assert v2 == pytest.approx(2 * v1, rel=1e-6)
