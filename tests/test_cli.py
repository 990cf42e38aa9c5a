import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from teichkit.cli import (
    ExperimentConfig,
    _tol,
    estimate_constants,
    main,
    run,
    write_constants_csv,
)
from teichkit import BeltramiCoefficient, cayley, solve_halfplane, solve_plane
from teichkit import boundary, cli, exact, verification
from teichkit.boundary import besov_characterization_check, welding
from teichkit.solver import FAR_FIELD_FIT, MARGIN_FRACTION

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
    # grid carries only n, an int power of two >= 2
    with pytest.raises(ValueError, match="grid key 'N'"):
        ExperimentConfig.from_dict({"command": "norm", "grid": {"N": 64}})
    for n in (1, True):
        with pytest.raises(ValueError, match="grid n"):
            ExperimentConfig.from_dict({"command": "solve", "grid": {"n": n}})
    # mu_spec carries kind and only the fields its kind reads
    disk = {"kind": "constant_disk", "k": 0.3, "r": 0.5}
    for spec, field in (({**disk, "domian": "UpperHalfPlane"}, "domian"),
                        ({"kind": "zero", "k": 0.3}, "k"),
                        ({"kind": "grid", "grid": {}, "domain": "UnitDisk",
                          "values": []}, "values")):
        with pytest.raises(ValueError, match=f"mu_spec key '{field}'"):
            ExperimentConfig.from_dict({"command": "norm", "mu_spec": spec})
    with pytest.raises(ValueError, match="mu_spec kind 'disk'"):
        ExperimentConfig.from_dict({"command": "norm",
                                    "mu_spec": {"kind": "disk"}})
    # a bool is not a number
    for key in ("k", "r"):
        with pytest.raises(ValueError, match=f"mu_spec {key} must be"):
            ExperimentConfig.from_dict({"command": "norm",
                                        "mu_spec": {**disk, key: True}})
    with pytest.raises(ValueError, match="p must be a number"):
        ExperimentConfig.from_dict({"command": "norm", "p": True})
    with pytest.raises(ValueError, match="tolerance 'residual' must be"):
        ExperimentConfig.from_dict({"command": "solve",
                                    "tolerances": {"residual": True}})
    with pytest.raises(ValueError, match="delta must be"):
        ExperimentConfig.from_dict({"command": "bilip", "delta": True})
    with pytest.raises(ValueError, match="p_list entry must be"):
        ExperimentConfig.from_dict({"command": "constants",
                                    "p_list": [2.0, True]})
    with pytest.raises(ValueError, match="family entry must be"):
        ExperimentConfig.from_dict({"command": "constants",
                                    "family": [[0.1, True]]})
    # p_list entries obey p's rule, and delta lies in (0, 1/3]
    for p in (0.5, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="p_list entry must be finite"):
            ExperimentConfig.from_dict({"command": "constants",
                                        "p_list": [2.0, p]})
    for delta in (0.5, -1, 0.0, math.nan):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/3\]"):
            ExperimentConfig.from_dict({"command": "bilip", "delta": delta})
    ExperimentConfig.from_dict({"command": "bilip", "delta": 1.0 / 3.0})
    ExperimentConfig.from_dict({"command": "constants", "p_list": [1, 2.5]})
    # a family is a list of pairs [k, r] with |k| < 1 and 0 <= r <= 1:
    # -6 k r^2 / (z^2 - k r^2)^2 is the Bers image of k chi_{rD} only there
    for family in (0.3, [0.3], [[0.3]], [[0.3, 0.5, 0.1]], [[0.3, 1.5]],
                   [[1.0, 0.5]], [[-1.2, 0.5]], [[0.3, -0.1]],
                   [[math.nan, 0.5]], [[0.3, math.inf]]):
        with pytest.raises(ValueError, match="family"):
            ExperimentConfig.from_dict({"command": "constants",
                                        "family": family})
    ExperimentConfig.from_dict({"command": "constants",
                                "family": [[-0.9, 1.0], [0.0, 0.0]]})
    # every kind's full spec, and what perfbench sends, stay valid
    for spec in (disk, {**disk, "domain": "UpperHalfPlane"},
                 {"kind": "zero"}, {"kind": "zero", "domain": "UnitDisk"},
                 {"kind": "grid", "grid": {}, "domain": "UnitDisk"},
                 {"kind": "table", "points": [], "values": [],
                  "domain": "UnitDisk"}):
        ExperimentConfig.from_dict({"command": "norm", "mu_spec": spec,
                                    "grid": {"n": 2}})


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


def test_from_spec_enforces_the_spec_schema():
    with pytest.raises(ValueError, match="kind 'constant_disk' lacks 'r'"):
        BeltramiCoefficient.from_spec({"kind": "constant_disk", "k": 0.3})
    with pytest.raises(ValueError,
                       match="key 'R' is not read by kind 'constant_disk'"):
        BeltramiCoefficient.from_spec(
            {"kind": "constant_disk", "k": 0.3, "r": 0.5, "R": 1})
    with pytest.raises(ValueError, match="kind 'disk' is unknown"):
        BeltramiCoefficient.from_spec({"kind": "disk"})


@pytest.mark.parametrize("key", ["k", "r"])
def test_from_spec_rejects_a_bool_k_or_r(key):
    # r = True built r = 1.0; k = True failed as "|k| must be < 1"
    spec = {"kind": "constant_disk", "k": 0.3, "r": 0.5, key: True}
    with pytest.raises(ValueError,
                       match=f"coefficient spec {key} must be a number, "
                             "not a bool"):
        BeltramiCoefficient.from_spec(spec)


def test_config_rejects_unread_key():
    with pytest.raises(ValueError, match="'gird'"):
        ExperimentConfig.from_dict({"command": "norm", "gird": {"n": 64}})
    # each command reads its own extras only
    with pytest.raises(ValueError, match="'delta'"):
        ExperimentConfig.from_dict({"command": "solve", "delta": 0.3})
    with pytest.raises(ValueError, match="'kernel'"):
        ExperimentConfig.from_dict({"command": "norm",
                                    "extra": {"kernel": "box"}})
    # extend has one kernel, the Gaussian, and reads no kernel key
    with pytest.raises(ValueError, match="'kernel'"):
        ExperimentConfig.from_dict({"command": "extend", "kernel": "box"})
    with pytest.raises(ValueError, match="extra must"):
        ExperimentConfig.from_dict({"command": "solve", "extra": True})


def test_config_rejects_tolerance_its_command_does_not_read():
    # a misspelled name would otherwise run silently with the default
    with pytest.raises(ValueError, match="tolerance 'residul' is not read"):
        ExperimentConfig.from_dict({"command": "solve",
                                    "tolerances": {"residul": 1e-9}})
    with pytest.raises(ValueError, match="'residual' is not read by weld"):
        ExperimentConfig.from_dict({"command": "weld",
                                    "tolerances": {"residual": 1e-3}})
    c = ExperimentConfig.from_dict({
        "command": "weld", "tolerances": {"consistency": 1e-2,
                                          "identity": 5e-2}})
    assert c.tolerances == {"consistency": 1e-2, "identity": 5e-2}


def test_tolerance_defaults_apply_where_the_config_is_silent():
    c = ExperimentConfig.from_dict({"command": "weld",
                                    "tolerances": {"identity": 0.2}})
    assert (_tol(c, "consistency"), _tol(c, "identity")) == (1e-2, 0.2)
    c = ExperimentConfig.from_dict({"command": "roundtrip"})
    assert _tol(c, "roundtrip") == 0.1


@pytest.mark.parametrize("self_map", [False, True])
def test_solve_reports_the_far_field_residual(self_map):
    # the held-out residual of the far field on the midpoints between its
    # fit points; a self-map reports its half-plane solve's
    rep = run(cfg("solve", grid={"n": 256}, self_map=self_map)).reports
    mu = BeltramiCoefficient.constant_disk(0.3, 0.5)
    f = solve_halfplane(cayley(mu), 256) if self_map \
        else solve_plane(mu, 256)
    n = FAR_FIELD_FIT["n_samples"]
    zm = MARGIN_FRACTION * f.grid.half_width * 0.95 * \
        np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    want = float(np.abs(f.far_field.eval(zm) - f(zm)).max())
    assert rep["far_field_residual"] == want
    assert 0 < want < 1e-3


def test_solve_self_map_of_the_whole_disk_reports():
    # k chi_D declares its jump on |z| = 1, which the Cayley transport leaves
    # out; a NaN image circle would mask every node of the residual
    rep = run(cfg("solve", grid={"n": 512}, self_map=True, mu_spec={
        "kind": "constant_disk", "k": 0.3, "r": 1.0})).reports
    assert "error" not in rep
    assert 0 < rep["residual"] < 0.1


@pytest.mark.parametrize("path", [5, 0, "", ["out.json"], True])
def test_config_rejects_an_output_path_that_is_not_a_string(path):
    # rejected with the config, not after the run when the report is written
    with pytest.raises(ValueError, match="output_path must be a non-empty "
                                         "string"):
        ExperimentConfig.from_dict({"command": "norm", "output_path": path})
    ExperimentConfig.from_dict({"command": "norm", "output_path": None})


@pytest.mark.parametrize("flag", ["false", "true", [0], 0, 1, None, 1.0])
def test_config_rejects_a_self_map_that_is_not_a_bool(flag):
    # a truthy string or list must not select a disk self-map
    with pytest.raises(ValueError, match="self_map must be true or false"):
        ExperimentConfig.from_dict({"command": "solve", "self_map": flag})
    for ok in (True, False):
        ExperimentConfig.from_dict({"command": "solve", "self_map": ok})


def test_cli_rejects_tolerance_name_its_command_does_not_read():
    with pytest.raises(SystemExit, match="'residul' is not read by solve"):
        main(["solve", "--tol", "residul=1e-9"])


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


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["parameter", "value"]
    return (np.array([float(t) for t, _ in rows]),
            np.array([complex(v) for _, v in rows]))


def test_cli_weld_out_writes_h_and_the_welded_maps(tmp_path):
    out = str(tmp_path / "weld.json")
    assert main(["weld", "--grid-n", "64", "--out", out]) == 0
    weld = welding(BeltramiCoefficient.constant_disk(0.3, 0.5), grid_n=64)
    got = {}
    for name, T in (("h", 40.0), ("f", 40.0), ("g", 60.0)):
        t, v = _read_csv(f"{out}.{name}.csv")
        with open(f"{out}.{name}.csv.json") as fh:
            side = json.load(fh)
        assert t.size == 2049
        assert t[0] == -T and t[-1] == T
        assert side == {"domain": "line", "truncation": T,
                        "normalization": "fix 0, 1, infinity"
                        if name == "h" else None}
        got[name] = t, v
    t, v = got["h"]
    assert np.array_equal(t, weld.h.params)
    assert np.array_equal(v.real, weld.h.values)
    # f_mu on h's parameters, g on its own wider grid, read off the maps
    t, v = got["f"]
    assert np.array_equal(t, weld.h.params)
    assert np.array_equal(v, weld.f_map(t.astype(complex)))
    t, v = got["g"]
    assert np.array_equal(v, weld.g_map(t.astype(complex)))


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


@pytest.mark.parametrize("p_list", [2.0, "22", {"p": 2.0}, True])
def test_config_rejects_a_p_list_that_is_not_an_array(p_list):
    # a number is not iterable, and a string would be read a character at
    # a time
    with pytest.raises(ValueError, match="p_list must be a JSON array"):
        ExperimentConfig.from_dict({"command": "constants", "p_list": p_list})


def test_cli_rejects_a_p_list_that_is_not_an_array(tmp_path):
    # through main: a message naming p_list, not a TypeError's traceback
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"command": "constants", "p_list": 2.0}))
    with pytest.raises(SystemExit, match="--config: p_list must be a JSON "
                       r"array, got 2\.0") as exc:
        main(["constants", "--config", str(cpath)])
    assert isinstance(exc.value.code, str)  # exit status 1, no traceback


def test_cli_rejects_an_empty_config_array(tmp_path, capsys):
    cpath = tmp_path / "empty.json"
    cpath.write_text("[]")
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit, match="--config array is empty"):
        main(["norm", "--config", str(cpath), "--out", str(out)])
    assert not out.exists() and capsys.readouterr().out == ""


def test_cli_rejects_tolerance_that_is_not_a_number():
    with pytest.raises(SystemExit, match="name=number, got 'residual=abc'"):
        main(["solve", "--tol", "residual=abc"])


@pytest.mark.parametrize("val", [math.inf, 0.0])
def test_config_rejects_a_tolerance_that_is_not_finite_and_positive(val):
    # an infinite residual tolerance passed residual_ok for any residual
    with pytest.raises(ValueError, match="tolerance 'residual' must be a "
                                         "finite positive number"):
        ExperimentConfig.from_dict({"command": "solve",
                                    "tolerances": {"residual": val}})


def test_cli_rejects_an_infinite_tolerance():
    with pytest.raises(SystemExit, match="'residual' must be a finite "
                                         "positive number, got inf"):
        main(["solve", "--tol", "residual=inf"])


@pytest.mark.parametrize("text, reason", [
    (None, "No such file"),
    ('{"command": "norm", "p": ', "Expecting value"),
], ids=["missing", "truncated"])
def test_cli_names_a_config_file_it_cannot_read(tmp_path, capsys, text,
                                                reason):
    # a missing or malformed file ended in a traceback from open/json.load
    cpath = tmp_path / "config.json"
    if text is not None:
        cpath.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--config", str(cpath)])
    msg = str(exc.value.code)
    assert msg.startswith(f"--config {cpath}: ") and reason in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key", ["family", "p_list"])
def test_config_rejects_an_empty_family_or_p_list(key):
    # an empty family ran the default family, an empty p_list emitted no row
    with pytest.raises(ValueError, match=f"^{key} is an empty array"):
        ExperimentConfig.from_dict({"command": "constants", key: []})


def test_constants_p_flag_sets_the_rows_p():
    # --p 3 reported p = 3 but its rows were the default p_list's, p = 2;
    # an explicit p_list is kept
    res = run(cfg("constants", p=3.0, family=[[0.1, 0.3]]))
    assert [row["p"] for row in res.reports["rows"]] == [3.0]
    assert res.reports["rows"][0]["douglas_p2"] == ""
    res = run(cfg("constants", p=3.0, family=[[0.1, 0.3]], p_list=[1, 2]))
    assert [row["p"] for row in res.reports["rows"]] == [1, 2]


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


def test_error_keeps_the_trace_of_a_solver_error():
    # the self-map of 0.3 chi_D fails its reflection symmetry check at
    # N = 64 after the Neumann iteration ran: the report keeps its trace
    res = run(cfg("solve", mu_spec={"kind": "constant_disk", "k": 0.3,
                                    "r": 1.0}, grid={"n": 64}, self_map=True))
    err = res.reports["error"]
    assert res.verdicts == {"failed": True}
    assert err["type"] == "SolverError"
    assert "reflection symmetry defect" in err["message"]
    assert err["stage"] == "solve"
    assert len(err["trace"]) > 1
    assert all(0 < d < 1 for d in err["trace"])
    assert json.loads(res.to_json())["reports"]["error"]["trace"] == \
        err["trace"]


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
    assert rows[0]["douglas_p2"] == pytest.approx(exact.DOUGLAS_RATIO,
                                                  rel=1e-2)
    path = tmp_path / "constants.csv"
    write_constants_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["k", "r", "p"]
    assert len(path.read_text().splitlines()) == 10


def test_cli_constants_out_keeps_the_csv(tmp_path):
    # --out names the CSV table; the JSON report is written beside it
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"command": "constants",
                                 "family": [[0.1, 0.3]]}))
    opath = tmp_path / "c.csv"
    assert main(["constants", "--config", str(cpath), "--out",
                 str(opath)]) == 0
    with open(opath, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "r", "p", "mp_norm", "ap_phi", "ratio",
                      "running_max", "ainf_phi", "cp_ratio", "douglas_p2"]
    assert len(rows) == 1 and [float(v) for v in rows[0][:3]] == [0.1, 0.3,
                                                                  2.0]
    report = json.loads((tmp_path / "c.csv.json").read_text())
    assert report["command"] == "constants"
    assert report["reports"]["rows"][0]["k"] == 0.1


def test_constants_runs_with_poles_near_the_unit_circle():
    # k r^2 = 0.5415 puts the poles of Phi at |z| = 0.74
    res = run(ExperimentConfig.from_dict({
        "command": "constants", "family": [[0.6, 0.95]], "p_list": [1, 2]}))
    assert "error" not in res.reports
    rows = res.reports["rows"]
    assert [row["p"] for row in rows] == [1, 2]
    assert all(math.isfinite(row["ap_phi"]) and row["ap_phi"] > 0
               for row in rows)
    want = exact.ap2_norm(0.6, 0.95)
    assert abs(rows[1]["ap_phi"] - want) <= 1e-12 * want


def test_constants_single_zero_row():
    rows = estimate_constants(family_spec=[(0.0, 0.5)], p_list=(2.0,))
    assert rows[0]["ratio"] == "NA"
    assert rows[0]["running_max"] == "NA"


def test_constants_zero_radius_row():
    # r = 0 makes mu vanish a.e.: a zero row, not a division by zero
    rows = estimate_constants(family_spec=[(0.3, 0.0)], p_list=(1.0,))
    assert rows[0]["mp_norm"] == rows[0]["ap_phi"] == 0.0
    assert rows[0]["ratio"] == "NA"


def test_constants_divide_by_the_closed_form_mp_norm():
    # M_p(k chi_D) is infinite: that row's ratio reads 0
    family = list(cli.DEFAULT_FAMILY) + [(0.3, 1.0)]
    rows = estimate_constants(family_spec=family, p_list=(1.0, 2.0, 3.0))
    assert [row["mp_norm"] for row in rows] == [
        exact.mp_norm(k, r, p) for p in (1.0, 2.0, 3.0) for k, r in family]
    for row in rows:
        assert row["ratio"] == row["ap_phi"] / row["mp_norm"]
    edge = [row for row in rows if row["r"] == 1.0]
    assert len(edge) == 3
    assert all(row["mp_norm"] == math.inf and row["ratio"] == 0.0
               for row in edge)


def test_roundtrip_finite():
    res = run(cfg("roundtrip", mu_spec={"kind": "constant_disk", "k": 0.2,
                                        "r": 0.5}))
    stages = res.reports["characterization"]["stages"]
    assert stages["roundtrip"]["phi_distance"] <= 0.1
    assert "mp_norm_extension" not in stages
    assert res.verdicts == {"mu_finite": True, "besov_finite": True,
                            "coherent": True, "within_tolerance": True}


def test_roundtrip_reports_the_phi_distance_of_characterize():
    # both commands pass mu on D as given to the welding and to the Bers
    # roundtrip
    mu_spec = {"kind": "constant_disk", "k": 0.15, "r": 0.4}
    dist = [run(cfg(command, mu_spec=mu_spec, grid={"n": 256})).reports[
        "characterization"]["stages"]["roundtrip"]["phi_distance"]
        for command in ("roundtrip", "characterize")]
    assert dist[0] == dist[1]


@pytest.mark.parametrize("command, ladders", [("roundtrip", 1),
                                              ("characterize", 2)])
def test_roundtrip_runs_only_the_ladder_of_mu(monkeypatch, command, ladders):
    # the extension is built for the roundtrip, but only characterize
    # reads its M_p ladder
    seen, real = [], boundary.mp_norm

    def counted(mu, *args, **kwargs):
        seen.append(mu)
        return real(mu, *args, **kwargs)

    monkeypatch.setattr(boundary, "mp_norm", counted)
    monkeypatch.setattr(boundary, "roundtrip_phi_distance",
                        lambda *args, **kwargs: 0.0)
    res = run(cfg(command, mu_spec={"kind": "constant_disk", "k": 0.2,
                                    "r": 0.5}, grid={"n": 128}))
    assert "error" not in res.reports
    assert len(seen) == ladders
    assert seen[0].meta["kind"] == "constant_disk"


def test_roundtrip_divergent_skips(monkeypatch):
    # mu_finite reads False and no distance is taken; the run still ends in
    # a report, not an error
    mu = BeltramiCoefficient("UpperHalfPlane",
                             lambda z: 0.3 * z / np.conj(z), math.inf, 0.3)
    monkeypatch.setattr(cli, "_mu", lambda config: mu)
    res = run(cfg("roundtrip", grid={"n": 256}))
    assert res.verdicts["mu_finite"] is False
    assert res.verdicts["within_tolerance"] is False
    stages = res.reports["characterization"]["stages"]
    assert "phi_distance" not in stages.get("roundtrip", {})


def test_roundtrip_without_welding_is_not_within_tolerance():
    # sup-norm 0.95 fails the welding, which writes no roundtrip stage
    res = run(cfg("roundtrip", mu_spec={"kind": "constant_disk", "k": 0.95,
                                        "r": 0.5}, grid={"n": 64}))
    assert res.reports["characterization"]["stages"]["welding"]["type"] \
        == "SolverError"
    assert res.verdicts["within_tolerance"] is False


def test_cli_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "teichkit.cli", "norm", "--k", "0.1",
         "--r", "0.5", "--p", "2", "--grid-n", "256"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == 1
    assert payload["command"] == "norm"


def test_python_m_teichkit_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "teichkit", "norm", "--k", "0.3", "--r", "0.5",
         "--p", "2"], capture_output=True, text=True, timeout=600)
    assert out.returncode == 0
    assert "mp_norm" in json.loads(out.stdout)["reports"]


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


def test_a_shared_bound_moves_the_criterion_and_the_cli_default(
        monkeypatch):
    # the shared welding is stubbed, so the cached one is neither read nor
    # filled: only the bound's two readers are under test
    monkeypatch.setattr(verification, "_welded_02", lambda: (None, 0.0, 0.3))
    assert not verification.check_7_welding().passed
    monkeypatch.setitem(verification.TOLERANCES, "identity", 0.5)
    result = verification.check_7_welding()
    assert result.passed and result.details["identity_tol"] == 0.5
    assert _tol(ExperimentConfig("weld"), "identity") == 0.5
    assert _tol(ExperimentConfig("weld", tolerances={"identity": 0.2}),
                "identity") == 0.2


def test_verify_all_prints_the_criteria_in_number_order(monkeypatch,
                                                         capsys):
    monkeypatch.setattr(verification, "ALL_CRITERIA", [])
    for number in range(1, 12):
        verification._criterion(number, f"stub {number}")(
            lambda number=number: (number != 10, {}))
    assert main(["verify-all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[{'FAIL' if n == 10 else 'PASS'}] criterion {n}"
        for n in range(1, 12)]
    assert all(line.endswith("s)") for line in lines)
