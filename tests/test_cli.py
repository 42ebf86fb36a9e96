import argparse
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from optoforce import cavityless, cli, oracle


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
        cli.parse_config_file("volume = 11\n", "sweep")
    with pytest.raises(cli.ConfigError, match="key=value"):
        cli.parse_config_file("just some words\n", "sweep")
    with pytest.raises(cli.ConfigError, match="malformed number"):
        cli.parse_config_file("s = loud\n", "sweep")


RATIOS = {"--theta-over-chi", "--omega-over-theta", "--g-alpha-over-omega"}
MODEL = {"--model", "--format"}
FLAGS = {
    "sweep": MODEL | RATIOS | {"--s", "--n-th", "--tmin-scaled", "--tmax-scaled", "--points"},
    "fig2": MODEL | RATIOS | {"--points"},
    "power-scaling": MODEL | RATIOS | {"--s"},
    "validate": RATIOS,
    "sql": MODEL | RATIOS,
}


def test_each_command_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subparsers.choices.items():
        flags = {opt for a in sub._actions for opt in a.option_strings}
        assert flags - {"-h", "--help", "-o", "--out"} == FLAGS[name], name


# flags that a command does not read, the force strength no command reads, and
# a prefix of a flag
UNREAD_FLAGS = [
    ["sweep", "--f", "2"],
    ["sweep", "--form", "json"],
    ["fig2", "--s", "1"],
    ["fig2", "--n-th", "1"],
    ["sql", "--s", "1"],
    ["power-scaling", "--n-th", "1"],
    ["validate", "--format", "json"],
    ["validate", "--model", "cavity"],
    ["validate", "--s", "1"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=[" ".join(a) for a in UNREAD_FLAGS])
def test_unread_flag_exits_2_writing_nothing(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err
    assert list(tmp_path.iterdir()) == []


CONFIG_ERRORS = [
    ("sweep", "f = 2\n", "config line 1: unknown key 'f'"),
    ("fig2", "points = 41\ns = 2\n", "config line 2: fig2 does not take 's'"),
    ("validate", "model = cavity\n", "config line 1: validate does not take 'model'"),
    # values argparse refuses as flags: from a config file, parse_config refuses them
    ("sweep", "format = xml\n", "format: unknown format 'xml'"),
    ("sweep", "model = both\n", "model: 'both' not valid for sweep"),
    ("sql", "model = both\n", "model: 'both' not valid for sql"),
]


@pytest.mark.parametrize("command, text, message", CONFIG_ERRORS,
                         ids=[f"{c} {t.splitlines()[-1]}" for c, t, _ in CONFIG_ERRORS])
def test_config_key_the_command_does_not_take(command, text, message, tmp_path,
                                              monkeypatch, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    code, _, err = run_cli(["--config", str(cfgfile), command], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


THETA = "theta_over_chi: theta must exceed chi (theta/chi > 1 required)"
OMEGA = "omega_over_theta: must be positive"
NTH = "n_th: thermal occupation must be nonnegative"
POINTS = "points: time grid needs at least 2 points"
TIMES = "tmax_scaled: times must satisfy 0 <= tmin_scaled < tmax_scaled"

# Every input refused before any work, by its key: the scheme ratios by
# analysis.full_params, the sweep inputs when a command builds its spec
REFUSED_INPUTS = [
    *[(key, value, f"{key}: must be finite, got {value}")
      for key in ("theta_over_chi", "omega_over_theta", "g_alpha_over_omega", "s", "n_th",
                  "tmin_scaled", "tmax_scaled")
      for value in ("nan", "inf")],
    ("theta_over_chi", "1", THETA),
    ("theta_over_chi", "0.5", THETA),
    ("omega_over_theta", "0", OMEGA),
    ("omega_over_theta", "-2", OMEGA),
    ("n_th", "-1", NTH),
    ("points", "1", POINTS),
    ("tmin_scaled", "-1", TIMES),
    ("tmax_scaled", "0", TIMES),
    ("tmax_scaled", "-1", TIMES),
]

# theta and Omega past sqrt(float max), whose squares overflow: the cavityless
# params refuse them, naming the ratio (Omega = 1e300 Theta, Theta = 0.225)
THETA_1E200 = ("theta_over_chi: 1e+200 gives theta = 1e+200, whose square overflows; "
               "theta and Omega must be below 1.34e+154")
OMEGA_1E300 = ("omega_over_theta: 1e+300 gives Omega = 2.25e+299, whose square overflows; "
               "theta and Omega must be below 1.34e+154")
COV = "cov: not finite; the inputs overflow"
# a certificate whose tracks would take more RK4 steps than the budget
BUDGET = re.compile(r"error: rk4 steps: .* would take \d(\.\d+)?e\+\d+ RK4 steps, "
                    r"over the budget of 1e\+07 \(model=")


def refused(argv, text, as_input=True, warned=()):
    """A command line that exits 2 with one error line: "error: " + text for
    a case refused as input, before any scheme readout; its start for a case
    refused on a result; a match of text if it is a pattern.  warned are the
    starts of the warning lines before it."""
    return pytest.param(argv, text, as_input, warned, id=" ".join(argv))


# Every command line that exits 2, run in a directory that holds DIR, an
# existing directory, and FILE, an existing file
REFUSALS = [
    # each bad input on every command that takes it; then inputs refused before
    # an -o that names a directory where a file is written, or a file where a
    # directory is
    *[refused([command, "--" + key.replace("_", "-"), value], message)
      for key, value, message in REFUSED_INPUTS
      for command, spec in cli.COMMANDS.items() if key in spec.keys],
    refused(["sweep", "--points", "1", "-o", "DIR"], POINTS),
    refused(["sql", "--omega-over-theta", "0", "-o", "DIR"], OMEGA),
    refused(["validate", "--theta-over-chi", "0.5", "-o", "DIR"], THETA),
    refused(["fig2", "--theta-over-chi", "1", "-o", "FILE"], THETA),
    refused(["power-scaling", "--s", "nan", "-o", "FILE"], "s: must be finite, got nan"),
    # an -o that cannot be written
    *[refused([c, "-o", "DIR"], f"out: DIR is a directory; {c} writes one file")
      for c in ("sweep", "sql", "validate")],
    *[refused([c, "-o", "FILE"], f"out: FILE is a file; {c} writes into a directory")
      for c in ("fig2", "power-scaling")],
    # a path under FILE: the error names FILE's absolute path
    *[refused([c, "-o", f"FILE/{name}"],
              re.compile(rf"error: out: /.*/FILE is a file; {c} cannot write under it$"))
      for c, name in (("sweep", "sub.csv"), ("validate", "l.json"), ("fig2", "dir"))],
    # numpy refuses a 6.94 EiB grid at once, so these allocate nothing
    *[refused([c, "--points", "1000000000000000000"],
              re.compile(r"error: points: the time grid does not fit in memory \(.+\)$"))
      for c in ("sweep", "fig2")],
    refused(["sweep", "--theta-over-chi", "1e200"], THETA_1E200),
    refused(["validate", "--theta-over-chi", "1e200"], THETA_1E200),
    *[refused([*argv, "--omega-over-theta", "1e300"], OMEGA_1E300)
      for argv in (["sweep"], ["fig2"], ["sql", "--model", "cavityless"],
                   ["power-scaling", "--model", "cavityless"], ["validate"])],
    refused(["power-scaling", "--model", "cavityless", "--theta-over-chi", "1e307"],
            "theta_over_chi: 1e+307 gives theta = 1e+307, whose square overflows; "
            "theta and Omega must be below 1.34e+154"),
    # theta and Omega are below the bound, but the power-scaled theta sqrt(m)
    # reaches it from the row at m = 1.99526 up: that row is named
    refused(["power-scaling", "--model", "cavityless", "--theta-over-chi", "1e154",
             "--omega-over-theta", "1.2"],
            "theta_over_chi: 1e+154 gives theta sqrt(m) = 1.41254e+154, whose square "
            "overflows; theta and Omega must be below 1.34e+154 at power_multiplier=1.99526 "
            "(model=cavityless s=0.0)",
            warned=["omega^2/Theta^2 = 1.44 < 10.0: outside the validity"]),
    # g alpha = 1e308 sqrt(m) is inf from m = 3.98107 up: the params of that
    # row cannot be built, and the row is named
    refused(["power-scaling", "--model", "cavity", "--g-alpha-over-omega", "1e308"],
            "g_alpha must be finite at power_multiplier=3.98107 (model=cavity s=0.0)"),
    # Theta = Omega is refused when the params are built, after the regime warning
    refused(["validate", "--omega-over-theta", "1"],
            "Theta = Omega within tolerance; forced response is degenerate (the model "
            "assumes Omega^2 >> Theta^2 anyway)",
            warned=["omega^2/Theta^2 = 1 < 10.0: outside the validity"]),
    # validate plans both ledger tracks against the step budget before either
    # runs: at g alpha/Omega = 1e200 the cavity drift is finite, but its track
    # would take ~1e203 RK4 steps; at 1e4 it stops before the cavityless one runs
    refused(["validate", "--g-alpha-over-omega", "1e200"],
            "rk4 steps: the ledger's propagator track to t=12.5664 would take 2.51e+203 RK4 "
            "steps, over the budget of 1e+07 (model=cavity CavityParams(g_alpha=1e+200, "
            "omega=1.0)); the oracle cannot certify a time span this long at these "
            "parameters"),
    refused(["validate", "--g-alpha-over-omega", "1e4"], BUDGET),
    refused(["validate", "--theta-over-chi", "1.000000000001"], BUDGET),
    # results that overflow or lose their precision.  (2 g alpha/Omega)^2 is
    # inf, and inf * 0 is NaN at t = 0: the first grid point is named
    *[refused([c, "--model", "cavity", "--g-alpha-over-omega", "1e200"],
              "noise: not finite at t_scaled=0 ", False) for c in ("sweep", "sql", "fig2")],
    refused(["sql", "--model", "cavity", "--g-alpha-over-omega", "1e150"],
            "noise: not finite", False),
    # 2 n_th + 1 overflows: the thermal covariance is inf, and in the cavity
    # 0 * inf is NaN at t = 0
    refused(["sweep", "--model", "cavityless", "--n-th", "1e308"], COV, False),
    refused(["sweep", "--model", "cavity", "--n-th", "1e308"], "noise: not finite", False),
    refused(["sweep", "--model", "cavityless", "--s", "10", "--points", "41"],
            "noise: negative", False),
    # e^{-800} is 0, so the cavity rows are finite, but the spot-check's meter
    # state holds e^{800}
    *[refused(argv, COV, False)
      for argv in (["sweep", "--model", "cavity", "--s", "400"],
                   ["sweep", "--model", "cavityless", "--s", "400"],
                   ["power-scaling", "--s", "400"],
                   ["power-scaling", "--s", "400", "--format", "json"],
                   ["power-scaling", "--model", "cavity", "--s", "400"])],
    # a power-scaling row is named by its multiplier, the column the table
    # writes.  At 1e153, (2 g alpha/Omega)^2 is inf only from 50.1187 up, but
    # c^2 is inf from 0.01 up: the first bad row is named
    *[refused(["power-scaling", "--model", "cavity", "--g-alpha-over-omega", g],
              "noise: not finite at power_multiplier=0.01 ", False) for g in ("1e155", "1e153")],
    # time spans the RK4 oracle would need 1e8 steps or more to certify: a long
    # grid, or a long disentangling time through a small Theta
    *[refused(argv, BUDGET, False)
      for argv in (["sweep", "--model", "cavityless", "--tmax-scaled", "1e6"],
                   ["sweep", "--model", "cavity", "--tmax-scaled", "1e6"],
                   ["sweep", "--tmax-scaled", "1e300"],
                   ["sweep", "--theta-over-chi", "1.000000000001"],
                   ["sql", "--theta-over-chi", "1.000000000001"],
                   # a power-scaling table is one certificate: 41 checks of at
                   # most 2.5e6 steps each, 2.3e7 together
                   ["power-scaling", "--model", "cavity", "--g-alpha-over-omega", "200"])],
]


@pytest.mark.parametrize("argv, text, as_input, warned", REFUSALS)
def test_refusal_exits_2_before_any_rk4_step_writing_nothing(argv, text, as_input, warned,
                                                             tmp_path, monkeypatch, capsys):
    calls = []
    for scheme in cli.analysis.SCHEMES.values():
        monkeypatch.setattr(scheme, "readout", lambda *args, readout=scheme.readout:
                            calls.append("readout") or readout(*args))
    for name in ("integrate_propagator", "integrate_moments", "integrate_propagator_track"):
        monkeypatch.setattr(cli.analysis.oracle, name,
                            lambda *args, name=name: calls.append(name))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("keep")
    code, out, err = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, ""), err
    *warning_lines, error, end = err.split("\n")
    assert end == "" and len(warning_lines) == len(warned), err
    assert all(line.startswith(f"warning: {w}") for line, w in zip(warning_lines, warned)), err
    if isinstance(text, re.Pattern):
        assert text.match(error), err
    else:
        assert error == f"error: {text}" if as_input else error.startswith(f"error: {text}"), err
    assert "Traceback" not in err and "np.float64(" not in err
    assert set(calls) <= (set() if as_input else {"readout"}), calls
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["DIR", "FILE"]
    assert (tmp_path / "FILE").read_text() == "keep"


def test_model_defaults_per_command():
    assert cli.parse_config(["fig2"]).model == "both"
    assert cli.parse_config(["power-scaling"]).model == "both"
    assert cli.parse_config(["sql"]).model == "cavityless"


def test_python_float_overflow_exits_2(tmp_path, monkeypatch, capsys):
    # a Python float raises OverflowError where numpy gives inf (x**2,
    # math.exp); no input reaches one today, and cli.main still names it
    monkeypatch.setattr(cli.analysis.SCHEMES["cavity"], "readout",
                        lambda p, t, s, n_th: (math.exp(1000.0), 0.0))
    code, _, err = run_cli(["sql", "--model", "cavity"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err == "error: the inputs overflow the closed forms (math range error)\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_exits_2_naming_out(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, _, err = run_cli(["sql"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("error: out: [Errno 13] Permission denied")
    assert list(tmp_path.iterdir()) == []



# Each command that writes a sweep row, and the column that names its rows
SIGNAL_SABOTAGE = [
    (["sweep", "--points", "11", "--tmax-scaled", "3.141592653589793"], "t_scaled"),
    (["sql"], "t_scaled"),
    (["power-scaling"], "power_multiplier"),
]


@pytest.mark.parametrize("model", ["cavityless", "cavity"])
@pytest.mark.parametrize("argv, column", SIGNAL_SABOTAGE,
                         ids=[argv[0] for argv, _ in SIGNAL_SABOTAGE])
def test_spot_check_catches_a_constant_signal(argv, column, model, tmp_path, monkeypatch,
                                              capsys):
    # sabotage the closed-form signal on the module, after import: each command
    # looks it up at call time, and the RK4 spot-check must stop the run before
    # anything is written, naming the failed row by the column it writes
    monkeypatch.setattr(cli.analysis.SCHEMES[model], "signal", lambda p, t: 0.123)
    code, _, err = run_cli([*argv, "--model", model], tmp_path, monkeypatch, capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1, err
    assert re.match(rf"error: oracle spot-check failed: model={model} {column}=\S+ s=0\.0 ",
                    errors[0]), err
    assert list(tmp_path.iterdir()) == []



STDERR_CASES = [
    (["sweep", "--model", "cavityless", "--s", "400"], 2, "error: cov: not finite"),
    (["sweep", "--omega-over-theta", "2", "--points", "41"], 0,
     "warning: omega^2/Theta^2 = 4 < 10.0: outside the validity regime"),
    # the whole line: a power-scaled params repr shows Python floats, no numpy type
    (["power-scaling", "--model", "cavity", "--g-alpha-over-omega", "200"], 2,
     "error: rk4 steps: the spot-checks to t=6.28319 would take 2.29e+07 RK4 steps, "
     "over the budget of 1e+07 (model=cavity CavityParams(g_alpha=2000.0, omega=1.0)); "
     "the oracle cannot certify a time span this long at these parameters"),
    # 2 g alpha is inf in the cavity drift: it is refused before its SVD, whose
    # LAPACK routine would print to stderr, and the step budget names it
    (["validate", "--g-alpha-over-omega", "1e308"], 2,
     "error: rk4 steps: the ledger's propagator track to t=12.5664 would take inf RK4 "
     "steps, over the budget of 1e+07 (model=cavity CavityParams(g_alpha=1e+308, "
     "omega=1.0)); the oracle cannot certify"),
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
    cols = np.genfromtxt(tmp_path / "sweep_cavityless.csv", delimiter=",", names=True)
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


# row counts around the emitter's chunk boundaries, zero rows included
CHUNK = cli._CHUNK_ROWS
ROW_COUNTS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)


@pytest.mark.parametrize("table", ["edge values", "two-row curve",
                                   *(f"{rows} edge rows" for rows in ROW_COUNTS)])
def test_emit_table_matches_json_dumps_and_csv_rows(table):
    if table == "edge values":
        columns, doc = EDGE_TABLE, EDGE_DOC
    elif table == "two-row curve":
        columns, metadata = _two_row_curve()
        doc = {"metadata": metadata}
    else:  # EDGE_TABLE's rows repeated (or cut) to the row count
        rows = int(table.split()[0])
        columns = {name: np.resize(column, rows) for name, column in EDGE_TABLE.items()}
        doc = EDGE_DOC
    # line lists with their ends are equal exactly when the texts are; a failure
    # names the first differing line, where a diff of the texts takes minutes.
    # The emitter gives bytes: decoding them as ASCII also checks they are ASCII
    text = cli._emit_table(columns, "json", doc).decode("ascii")
    assert text.splitlines(True) == _reference_json(columns, doc).splitlines(True)
    csv = cli._emit_table(columns, "csv", doc).decode("ascii")
    assert csv.splitlines(True) == _reference_csv(columns).splitlines(True)
    json.loads(text, parse_constant=lambda token: pytest.fail(f"not strict JSON: {token}"))


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes above the
    traced memory before the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_export_holds_its_text_once(tmp_path):
    # a curve-sized table, 50k rows of floats from 1e-8 to 1e8: a ~10 MB JSON text.
    # The emitter holds its output (a bytearray, which over-allocates as it
    # grows) and one chunk's cells; the write makes no copy of what it writes
    rng = np.random.default_rng(0)
    rows = 50_000
    columns = {name: rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 9, rows)
               for name in cli.CSV_HEADER.split(",")}
    texts = {}
    for fmt in ("csv", "json"):
        texts[fmt], peak = _traced_peak(cli._emit_table, columns, fmt, {"metadata": {"s": 1.0}})
        assert peak <= 1.35 * len(texts[fmt]), (fmt, peak / len(texts[fmt]))
    assert len(texts["json"]) > 10_000_000
    _, peak = _traced_peak(cli._atomic_write, str(tmp_path / "table.json"), texts["json"])
    assert peak <= 64 * 1024
    assert (tmp_path / "table.json").read_bytes() == texts["json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask 022", "umask 077"])
@pytest.mark.parametrize("argv", [["sweep", "--points", "5"],
                                  ["fig2", "--model", "cavity", "--points", "5"],
                                  ["validate"],
                                  # a strong coupling and a squeezed cavity table:
                                  # the phi-minimized noise is exact there too
                                  ["validate", "--g-alpha-over-omega", "5"],
                                  ["power-scaling", "--model", "cavity",
                                   "--g-alpha-over-omega", "2", "--s", "5"]],
                         ids=["sweep", "fig2", "validate", "validate g-alpha 5",
                              "power-scaling cavity s 5"])
def test_outputs_get_the_mode_open_gives(argv, umask, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        code, _, _ = run_cli(argv, out, monkeypatch, capsys)
    finally:
        os.umask(previous)
    assert code == 0
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert mode == 0o666 & ~umask
    written = list(out.iterdir())
    assert written and {stat.S_IMODE(p.stat().st_mode) for p in written} == {mode}


def test_cli_import_loads_no_scipy():
    # in a subprocess: this test process has scipy loaded already
    code = ("import sys, optoforce.cli as c; c.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_command_loads_numpy_random(tmp_path):
    # numpy imports numpy.random on first use only: the spot-checked rows are
    # fixed grid indices, and no command draws a random number.  scipy is
    # blocked: the package depends on numpy alone, and every command runs so.
    # An EncodingWarning is an error: no file, written or read (a config with
    # a non-ASCII comment), goes through the locale's encoding
    config = tmp_path / "run.cfg"
    config.write_text("# \u03a9t grid, \u00e9t\u00e9\npoints = 5\n", encoding="utf-8")
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from optoforce import cli\n"
            "for argv in (['sweep', '--points', '5'], ['sweep', '--points', '5',\n"
            "             '--format', 'json'], ['fig2', '--points', '5'], ['sql'],\n"
            "             ['power-scaling'], ['validate'],\n"
            f"             ['--config', {str(config)!r}, 'sweep']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env[cli.OUTDIR_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_config_sweep_runs_with_encoding_warnings_as_errors(tmp_path):
    # the environment of CI's bare-install smoke runs: a text open anywhere in
    # src that leaves its encoding to the locale fails the command
    config = tmp_path / "run.cfg"
    config.write_text("# Ωt grid, été\ns = 1\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               PYTHONWARNDEFAULTENCODING="1", PYTHONWARNINGS="error::EncodingWarning")
    env.pop(cli.OUTDIR_ENV, None)
    proc = subprocess.run([sys.executable, "-m", "optoforce.cli", "--config", str(config),
                           "sweep", "--format", "json", "--points", "41"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    [written] = tmp_path.glob("*.json")
    data = json.loads(written.read_text(encoding="utf-8"))
    assert len(data["records"]) == 41 and data["metadata"]["s"] == 1.0


FOCK_CALLS = [("thermal_moments", (0.5,)), ("tmsv_moments", (0.5,)),
              ("squeezed_moments", (0.5, 0.4))]


def test_validate_and_the_fock_oracle_run_without_scipy(tmp_path, monkeypatch, capsys):
    # the package depends on numpy alone: with scipy blocked, in a subprocess,
    # the Fock oracle's three families and validate give what they give here
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from optoforce import cli, oracle\n"
            f"for name, args in {FOCK_CALLS!r}:\n"
            "    print(getattr(oracle, name)(*args)[1].tolist())\n"
            "sys.exit(cli.main(['validate']))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop(cli.OUTDIR_ENV, None)
    (tmp_path / "blocked").mkdir()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path / "blocked",
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

    (tmp_path / "normal").mkdir()
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path / "normal")
    moments = [f"{getattr(oracle, name)(*args)[1].tolist()}\n"
               for name, args in FOCK_CALLS]
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "validate: healthy" in out
    assert proc.stdout == "".join(moments) + out
    name = "validation_ledger.json"
    assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


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


ODD_OMEGA_OVER_THETA = [
    ["--omega-over-theta", "7"],
    ["--omega-over-theta", "9"],
    ["--theta-over-chi", "1.15", "--omega-over-theta", "7"],
]


@pytest.mark.parametrize("argv", ODD_OMEGA_OVER_THETA,
                         ids=[" ".join(a) for a in ODD_OMEGA_OVER_THETA])
def test_validate_is_healthy_at_an_odd_omega_over_theta(argv, tmp_path, monkeypatch, capsys):
    # the signal at Theta t = pi vanishes: engine and closed form agree on inf
    code, out, err = run_cli(["validate", *argv], tmp_path, monkeypatch, capsys)
    assert code == 0 and "validate: healthy" in out
    assert err == ""
    doc = json.loads((tmp_path / "validation_ledger.json").read_text())
    assert doc["healthy"] and all(e["pass"] for e in doc["entries"])


@pytest.mark.parametrize("omega_over_theta", ["100", "200"])
def test_validate_resolves_a_fast_drive(omega_over_theta, tmp_path, monkeypatch, capsys):
    # the ledger's RK4 step count follows Omega as well as ||A||: a drive
    # this fast must not turn the truncation error into a failed verdict
    argv = ["validate", "--theta-over-chi", "2", "--omega-over-theta", omega_over_theta]
    code, _, _ = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 0
    doc = json.loads((tmp_path / "validation_ledger.json").read_text())
    assert doc["healthy"] and all(e["pass"] for e in doc["entries"])


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


@pytest.mark.xfail(strict=True, reason="ROADMAP items 12 and 8: near theta/chi = 1 the "
                   "cavityless noise loses its precision, and no domain check refuses it")
def test_sql_near_theta_over_chi_1_is_the_law_or_refused(tmp_path, monkeypatch, capsys):
    # at theta/chi = 1 + 1e-6, sql writes an f_min 8.1e-6 relative off the
    # closed form at Theta t = pi.  Either fix holds here: the law to 1e-8, or
    # exit 2 naming theta_over_chi.  An exit 2 for "noise: negative" fails too
    ratio = 1.000001
    code, _, err = run_cli(["sql", "--theta-over-chi", str(ratio)], tmp_path, monkeypatch,
                           capsys)
    if code == 0:
        value = float((tmp_path / "sql_cavityless.csv").read_text().split(",")[-1])
        ratios = dict(cli.analysis.DEFAULT_PARAMS, theta_over_chi=ratio)
        law = cavityless.f_min_at_pi_closed(cavityless.params_from_ratios(ratios), 0.0)
        assert abs(value - law) <= 1e-8 * law, (value, law)
    else:
        assert code == 2 and "error: theta_over_chi" in err, err


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


EMPTY_OUT = [(["fig2", "--points", "3"], "flag"), (["power-scaling"], "flag"),
             (["fig2", "--points", "3"], "config")]


@pytest.mark.parametrize("argv, source", EMPTY_OUT,
                         ids=[f"{argv[0]} {source}" for argv, source in EMPTY_OUT])
def test_empty_out_means_the_env_dir(argv, source, tmp_path, monkeypatch, capsys):
    # an empty -o, from the flag or from "out =" in a config file, is no -o for
    # fig2 and power-scaling too: they write into $OPTOFORCE_OUTDIR, as the
    # single-file commands do, and never into the working directory
    cwd, env = tmp_path / "cwd", tmp_path / "env"
    cwd.mkdir()
    env.mkdir()
    monkeypatch.chdir(cwd)
    if source == "flag":
        argv = [*argv, "-o", ""]
    else:
        (tmp_path / "run.cfg").write_text("out =\n")
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    code, _, err = run_cli(argv, env, monkeypatch, capsys)
    assert code == 0, err
    assert list(cwd.iterdir()) == []
    assert list(env.iterdir())
