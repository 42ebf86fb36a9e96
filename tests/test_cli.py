import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optoforce import cli


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- configuration -------------------------------------------------------


def test_defaults():
    cfg = cli.parse_config(["sweep"])
    assert cfg.model == "cavityless"
    assert cfg.format == "csv"
    assert cfg.points == 401
    assert cfg.params["theta_over_chi"] == 1.025
    assert cfg.params["omega_over_theta"] == 10.3
    assert cfg.params["g_alpha_over_omega"] == 0.2
    assert cfg.s == 0.0 and cfg.n_th == 0.0
    assert cfg.tmax_scaled == 2.0 * math.pi


def test_flag_overrides():
    cfg = cli.parse_config(
        ["sweep", "--model", "cavity", "--s", "1.5", "--points", "10",
         "--theta-over-chi", "1.1"]
    )
    assert cfg.model == "cavity"
    assert cfg.s == 1.5
    assert cfg.points == 10
    assert cfg.params["theta_over_chi"] == 1.1


def test_config_file_and_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# sweep setup\n"
        "model = cavity\n"
        "s = 2.0  # squeezing\n"
        "points = 7\n"
        "\n"
    )
    cfg = cli.parse_config(["--config", str(cfgfile), "sweep", "--s", "3.0"])
    assert cfg.model == "cavity"  # from file
    assert cfg.s == 3.0  # flag wins over file
    assert cfg.points == 7  # file wins over default


def test_config_file_errors():
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.parse_config_file("volume = 11\n")
    with pytest.raises(cli.ConfigError, match="key=value"):
        cli.parse_config_file("just some words\n")
    with pytest.raises(cli.ConfigError, match="malformed number"):
        cli.parse_config_file("s = loud\n")


def test_validation_messages_name_the_field():
    cases = [
        (["sweep", "--theta-over-chi", "0.9"], "theta_over_chi"),
        (["sweep", "--omega-over-theta", "-1"], "omega_over_theta"),
        (["sweep", "--n-th", "-1"], "n_th"),
        (["sweep", "--points", "1"], "points"),
        (["sweep", "--tmax-scaled", "0"], "tmax_scaled"),
        (["fig2", "--model", "cavityless", "--format", "csv",
          "--g-alpha-over-omega", "inf"], "g_alpha_over_omega"),
    ]
    for argv, field in cases:
        with pytest.raises(cli.ConfigError, match=field):
            cli.parse_config(argv)


def test_model_defaults_per_command():
    assert cli.parse_config(["fig2"]).model == "both"
    assert cli.parse_config(["power-scaling"]).model == "both"
    assert cli.parse_config(["sql"]).model == "cavityless"


def test_config_error_exit_code(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["sweep", "--points", "1"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "points" in err


BAD_INPUTS = [
    (["sweep", "--f", "0"], "f"),
    (["fig2", "--f", "0"], "f"),
    (["sql", "--f", "0"], "f"),
    (["sweep", "--f", "nan"], "f"),
    (["sweep", "--n-th", "nan"], "n_th"),
    (["sweep", "--model", "cavity", "--s", "400"], "noise"),
    (["sweep", "--model", "cavityless", "--s", "400"], "cov"),
    (["sweep", "-o", "DIR"], "out"),
    (["sql", "-o", "DIR"], "out"),
    (["validate", "-o", "DIR"], "out"),
    # numpy refuses a 6.94 EiB grid at once, so these allocate nothing
    (["sweep", "--points", "1000000000000000000"], "points"),
    (["fig2", "--points", "1000000000000000000"], "points"),
]


@pytest.mark.parametrize("argv, field", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_exits_2_naming_the_field(argv, field, tmp_path, monkeypatch, capsys):
    existing = tmp_path / "existing"
    existing.mkdir()
    argv = [str(existing) if a == "DIR" else a for a in argv]
    code, _, err = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert f"error: {field}: " in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["existing"]


# Inputs whose computation overflows or loses its precision, and an -o that
# names an existing file where a directory is expected.
WRITES_NOTHING = [
    (["fig2", "-o", "FILE"], "out: "),
    (["power-scaling", "-o", "FILE"], "out: "),
    (["sweep", "--model", "cavity", "--g-alpha-over-omega", "1e200"], "the inputs overflow"),
    (["sql", "--model", "cavity", "--g-alpha-over-omega", "1e200"], "the inputs overflow"),
    (["fig2", "--model", "cavity", "--g-alpha-over-omega", "1e200"], "the inputs overflow"),
    (["validate", "--g-alpha-over-omega", "1e200"], "the inputs overflow"),
    (["sweep", "--theta-over-chi", "1e200"], "the inputs overflow"),
    (["sweep", "--omega-over-theta", "1e300"], "the inputs overflow"),
    (["fig2", "--omega-over-theta", "1e300"], "the inputs overflow"),
    (["sql", "--model", "cavityless", "--omega-over-theta", "1e300"], "the inputs overflow"),
    (["power-scaling", "--model", "cavityless", "--omega-over-theta", "1e300"],
     "the inputs overflow"),
    (["sql", "--model", "cavity", "--g-alpha-over-omega", "1e150"], "noise: not finite"),
    (["sweep", "--model", "cavityless", "--s", "10", "--points", "41"], "noise: negative"),
    (["sweep", "--model", "cavity", "--s", "10", "--points", "41"], "noise: negative"),
    (["power-scaling", "--s", "400"], "cov: "),
    (["power-scaling", "--model", "cavity", "--s", "400"], "f_min: "),
    (["power-scaling", "--s", "400", "--format", "json"], "cov: "),
]


@pytest.mark.parametrize("argv, message", WRITES_NOTHING,
                         ids=[" ".join(argv) for argv, _ in WRITES_NOTHING])
def test_bad_result_exits_2_writing_nothing(argv, message, tmp_path, monkeypatch, capsys):
    existing = tmp_path / "existing"
    existing.write_text("keep")
    argv = [str(existing) if a == "FILE" else a for a in argv]
    code, _, err = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.count("error: ") == 1 and f"error: {message}" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["existing"]
    assert existing.read_text() == "keep"


OVERFLOWING = [["--g-alpha-over-omega", "1e200"], ["--omega-over-theta", "1e300"]]


@pytest.mark.parametrize("argv", OVERFLOWING, ids=[" ".join(a) for a in OVERFLOWING])
def test_validate_overflow_stops_before_any_rk4_step(argv, tmp_path, monkeypatch, capsys):
    calls = []
    for name in ("integrate_propagator", "integrate_moments"):
        monkeypatch.setattr(cli.analysis.oracle, name,
                            lambda *args, name=name: calls.append(name))
    code, _, err = run_cli(["validate", *argv], tmp_path, monkeypatch, capsys)
    assert code == 2 and "error: the inputs overflow" in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


# Time spans the RK4 oracle would need 1e8 steps or more to certify: a long
# grid, or a long disentangling time through a small Theta.
OVER_BUDGET = [
    ["sweep", "--model", "cavityless", "--tmax-scaled", "1e6"],
    ["sweep", "--model", "cavity", "--tmax-scaled", "1e6"],
    ["sweep", "--tmax-scaled", "1e300"],
    ["sweep", "--theta-over-chi", "1.000000000001"],
    ["sql", "--theta-over-chi", "1.000000000001"],
    ["validate", "--theta-over-chi", "1.000000000001"],
    # the cavity track is over budget: it stops before the cavityless one runs
    ["validate", "--g-alpha-over-omega", "1e4"],
]


@pytest.mark.parametrize("argv", OVER_BUDGET, ids=[" ".join(a) for a in OVER_BUDGET])
def test_step_budget_stops_before_any_rk4_step(argv, tmp_path, monkeypatch, capsys):
    calls = []
    for name in ("integrate_propagator", "integrate_moments"):
        monkeypatch.setattr(cli.analysis.oracle, name,
                            lambda *args, name=name: calls.append(name))
    code, _, err = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 2 and err.count("error: ") == 1
    assert re.search(r"error: rk4 steps: .* would take \d(\.\d+)?e\+\d+ RK4 steps, "
                     r"over the budget of 1e\+07 \(model=", err), err
    assert "Traceback" not in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", ["cavityless", "cavity"])
def test_sql_spot_check_catches_wrong_closed_form(model, tmp_path, monkeypatch, capsys):
    # sabotage the closed-form signal as in the sweep test: the RK4 spot
    # check of the sql value must abort the run before anything is written
    monkeypatch.setattr(cli.analysis.SCHEMES[model], "signal", lambda p, t: 0.123)
    code, _, err = run_cli(["sql", "--model", model], tmp_path, monkeypatch, capsys)
    assert code == 1 and "error: oracle spot-check failed" in err
    assert list(tmp_path.iterdir()) == []


STDERR_CASES = [
    (["sweep", "--model", "cavityless", "--s", "400"], 2, "error: cov: not finite"),
    (["sweep", "--omega-over-theta", "2", "--points", "41"], 0,
     "warning: omega^2/Theta^2 = 4 < 10.0: outside the validity regime"),
]


@pytest.mark.parametrize("argv, code, line", STDERR_CASES,
                         ids=[" ".join(case[0]) for case in STDERR_CASES])
def test_stderr_shows_only_the_cli_lines(argv, code, line, tmp_path):
    # in a subprocess: pytest captures warnings in-process, so only a real
    # run shows what numpy and the warnings module print to stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "optoforce.cli", *argv, "-o", str(tmp_path / "out.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line), proc.stderr


def test_missing_config_file_exit_code(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["--config", str(tmp_path / "nope.cfg"), "sweep"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert "config" in err


# --- serialization -------------------------------------------------------


def test_fmt17_round_trip():
    values = [0.0, 1.0 / 3.0, np.pi, 1e-300, -2.5e17, float("inf"),
              float("-inf")]
    for v in values:
        text = cli.fmt17(v)
        assert float(text) == v or (math.isnan(v) and math.isnan(float(text)))
    assert cli.fmt17(float("inf")) == "inf"
    assert cli.fmt17(float("-inf")) == "-inf"
    assert cli.fmt17(float("nan")) == "nan"


def test_csv_round_trip(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["sweep", "--model", "cavityless", "--points", "11"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    text = (tmp_path / "sweep_cavityless.csv").read_text()
    assert text.splitlines()[0] == cli.CSV_HEADER
    cols = cli.parse_curve_csv(text)
    assert len(cols["t_scaled"]) == 11
    assert cols["f_min"][0] == np.inf  # zero-signal sentinel round-trips
    # re-serializing the parsed values is bit-identical
    lines = [cli.CSV_HEADER]
    for i in range(11):
        lines.append(",".join(
            cli.fmt17(cols[k][i]) for k in cli.CSV_HEADER.split(",")
        ))
    assert "\n".join(lines) + "\n" == text


def test_json_output(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["sweep", "--model", "cavity", "--format", "json", "--points", "5",
         "--tmax-scaled", str(4 * math.pi)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "sweep_cavity.json").read_text())
    assert doc["metadata"]["model"] == "cavity"
    assert len(doc["records"]) == 5
    assert doc["records"][0]["f_min"] == "inf"  # non-finite as string in JSON
    assert isinstance(doc["records"][1]["f_min"], float)


# The columnar JSON emitter against json.dumps of per-row dicts, and the CSV
# emitter against one "%.17g" row per record.
EDGE_VALUES = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0]
EDGE_TABLE = {
    "t_scaled": np.linspace(0.0, 1.0, len(EDGE_VALUES)),
    "f_min": np.array(EDGE_VALUES),
    "in_regime": np.arange(len(EDGE_VALUES)) % 3 == 0,
    "noise": np.array(EDGE_VALUES[::-1]),
}
# keys that sort before ("metadata", "model") and after ("slope_*") "records"
EDGE_DOC = {"slope_small_power": -0.5, "slope_large_power": float("nan"), "model": "cavity",
            "metadata": {"s": 1.0, "params": {"f": -np.inf}, "model": "cavity"}}


def _reference_json(columns: dict, doc: dict) -> str:
    def cell(x):
        return cli.fmt17(x) if isinstance(x, float) and not math.isfinite(x) else x

    def jsonable(x):
        return {k: jsonable(v) for k, v in x.items()} if isinstance(x, dict) else cell(x)

    values = zip(*(np.asarray(column).tolist() for column in columns.values()))
    records = [{name: cell(x) for name, x in zip(columns, row)} for row in values]
    return json.dumps({**jsonable(doc), "records": records},
                      indent=2, sort_keys=True, allow_nan=False) + "\n"


def _reference_csv(columns: dict) -> str:
    values = zip(*(np.asarray(column).tolist() for column in columns.values()))
    rows = [",".join("%.17g" % x for x in row) for row in values]
    return "\n".join([",".join(columns), *rows]) + "\n"


def _two_row_curve():
    curve = cli.analysis.run_sweep(cli.analysis.SweepSpec("cavity", 0.0, 1.0, 2, s=1.0))
    return {name: getattr(curve, name) for name in cli.CSV_HEADER.split(",")}, curve.metadata


@pytest.mark.parametrize("table", ["edge values", "two-row curve"])
def test_emit_table_matches_json_dumps_and_csv_rows(table):
    if table == "edge values":
        columns, doc = EDGE_TABLE, EDGE_DOC
    else:
        columns, metadata = _two_row_curve()
        doc = {"metadata": metadata}
    text = cli._emit_table(columns, "json", doc)
    assert text == _reference_json(columns, doc)
    assert cli._emit_table(columns, "csv", doc) == _reference_csv(columns)
    json.loads(text, parse_constant=lambda token: pytest.fail(f"not strict JSON: {token}"))


def test_cli_import_loads_no_scipy():
    # in a subprocess: this test process has scipy loaded already
    code = ("import sys, optoforce.cli as c; c.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- commands ------------------------------------------------------------


def test_sweep_deterministic_bytes(tmp_path, monkeypatch, capsys):
    args = ["sweep", "--model", "cavityless", "--points", "21", "--s", "5",
            "--n-th", "300"]
    run_cli(args + ["-o", str(tmp_path / "a.csv")], tmp_path, monkeypatch, capsys)
    run_cli(args + ["-o", str(tmp_path / "b.csv")], tmp_path, monkeypatch, capsys)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fig2_files(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["fig2", "--points", "41"], tmp_path, monkeypatch,
                           capsys)
    assert code == 0
    expected = {
        f"{model}_{s}_{n}.csv"
        for model in ("cavityless", "cavity")
        for s, n in (("0", "0"), ("0", "300"), ("5", "300"))
    }
    assert expected <= {p.name for p in tmp_path.iterdir()}
    assert "wrote 6 curves" in out
    # no leftover temp files from the atomic writes
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_power_scaling_command(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["power-scaling", "--model", "cavity"],
                           tmp_path, monkeypatch, capsys)
    assert code == 0
    lines = (tmp_path / "power_cavity.csv").read_text().splitlines()
    assert lines[0] == "power_multiplier,f_min,in_regime"
    assert len(lines) == 42
    assert "small=-0.5" in out and "large=+0.5" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_power_scaling_formats(fmt, tmp_path, monkeypatch, capsys):
    power_scaling = cli.analysis.power_scaling

    def with_vanishing_signal(spec):
        table = power_scaling(spec)
        table["f_min"][0] = np.inf
        return table

    monkeypatch.setattr(cli.analysis, "power_scaling", with_vanishing_signal)
    code, _, _ = run_cli(["power-scaling", "--model", "cavityless", "--format", fmt],
                         tmp_path, monkeypatch, capsys)
    assert code == 0
    text = (tmp_path / f"power_cavityless.{fmt}").read_text()
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert rows[0][1] == "inf"
        assert {row[2] for row in rows} == {"0", "1"}
    else:
        records = json.loads(text)["records"]
        assert records[0]["f_min"] == "inf"
        assert {r["in_regime"] for r in records} == {True, False}
        assert '"in_regime": true' in text and '"in_regime": false' in text


def test_validate_writes_strict_json(tmp_path, monkeypatch, capsys):
    entry = {
        "formula": "a formula", "pass": False,
        "engine_vs_adopted_max_deviation": float("nan"),
        "engine_vs_literal_max_deviation": float("inf"),
    }
    report = {"healthy": False, "entries": [entry], "params": {}, "version": "0"}
    monkeypatch.setattr(cli.analysis, "validation_ledger", lambda params: report)
    code, out, _ = run_cli(["validate"], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "UNHEALTHY" in out and "adopted dev nan" in out

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    text = (tmp_path / "validation_ledger.json").read_text()
    doc = json.loads(text, parse_constant=reject)
    assert doc["entries"][0]["engine_vs_adopted_max_deviation"] == "nan"
    assert doc["entries"][0]["engine_vs_literal_max_deviation"] == "inf"


def test_validate_command(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["validate"], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "healthy" in out
    doc = json.loads((tmp_path / "validation_ledger.json").read_text())
    assert doc["healthy"]
    assert len(doc["entries"]) == 6


@pytest.mark.parametrize("omega_over_theta", ["100", "200"])
def test_validate_resolves_a_fast_drive(omega_over_theta, tmp_path, monkeypatch, capsys):
    # the ledger's RK4 step count follows Omega as well as ||A||: a drive
    # this fast must not turn the truncation error into a failed verdict
    argv = ["validate", "--theta-over-chi", "2", "--omega-over-theta", omega_over_theta]
    code, _, _ = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 0
    doc = json.loads((tmp_path / "validation_ledger.json").read_text())
    assert doc["healthy"] and all(e["pass"] for e in doc["entries"])


def test_validate_compares_displacements_per_unit_force(tmp_path, monkeypatch, capsys):
    # the force displacement grows with f; its RK4 deviation per unit f does not
    devs = {}
    for f in ("1", "1e6"):
        code, _, _ = run_cli(["validate", "--f", f, "-o", str(tmp_path / f"ledger_{f}.json")],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        doc = json.loads((tmp_path / f"ledger_{f}.json").read_text())
        devs[f] = [e["engine_vs_adopted_max_deviation"] for e in doc["entries"]]
    for dev_1, dev_f in zip(devs["1"], devs["1e6"]):
        assert dev_f / 2 <= dev_1 <= 2 * dev_f


# f_min at the disentangling time with vacuum meter and zero-temperature probe
SQL_FROZEN = {"cavityless": 0.5048645724184414, "cavity": 0.28209676949637014}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("model", ["cavityless", "cavity"])
def test_sql_frozen_values(model, fmt, tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(["sql", "--model", model, "--format", fmt], tmp_path, monkeypatch,
                         capsys)
    assert code == 0
    text = (tmp_path / f"sql_{model}.{fmt}").read_text()
    if fmt == "csv":
        header, row = text.splitlines()
        assert header == "model,t_scaled,f_min"
        name, t_scaled, f_min = row.split(",")
        doc = {"model": name, "t_scaled": float(t_scaled), "f_min": float(f_min)}
    else:
        doc = json.loads(text)
    assert doc["model"] == model
    assert doc["t_scaled"] == cli.analysis.SCHEMES[model].T_STAR  # Theta t = pi, Omega t = 2 pi
    assert_allclose(doc["f_min"], SQL_FROZEN[model], rtol=1e-13)


def test_sql_command(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["sql", "--model", "cavity"], tmp_path, monkeypatch,
                           capsys)
    assert code == 0
    lines = (tmp_path / "sql_cavity.csv").read_text().splitlines()
    assert lines[0] == "model,t_scaled,f_min"
    model, t_scaled, f_min = lines[1].split(",")
    assert model == "cavity"
    assert float(f_min) == 0.28209676949637014
    code, _, _ = run_cli(["sql"], tmp_path, monkeypatch, capsys)
    text = (tmp_path / "sql_cavityless.csv").read_text()
    assert "0.50486457241844" in text


def test_out_flag_beats_env(tmp_path, monkeypatch, capsys):
    target = tmp_path / "elsewhere" / "curve.csv"
    code, _, _ = run_cli(
        ["sweep", "--points", "5", "-o", str(target)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "sweep_cavityless.csv").exists()


def test_outdir_defaults_to_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["sql", "--model", "cavity"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "sql_cavity.csv").exists()
