"""Command-line interface: sweeps, figure datasets, scaling and validation.

Commands: sweep, fig2, power-scaling, validate, sql, each taking as flags and
config keys only the inputs COMMANDS lists for it.  Precedence is CLI flag >
config file (key=value lines, # comments) > documented default.  Outputs are
per unit force (f = 1), CSV (default) or JSON, built once as ASCII bytes and
written atomically (temp file + rename); config files are read as UTF-8.  CSV
floats carry 17 significant digits and JSON floats are the shortest round-trip
``repr``, so parsing reproduces them bit-exactly; non-finite values appear as
lowercase "inf"/"nan", strings in JSON.  Every f_min the CLI writes (a sweep
or fig2 row, the sql value, a power-scaling row) is a sweep row: computed by
the scheme's readout, checked by the same finiteness test and RK4-spot-checked.
Each input is checked once, and named by its key: format and model here, the
numbers in analysis, by full_params (which parse_config calls) and by the spec
a command builds (sweep, sql and power-scaling before they resolve -o).
Exit codes: 0 success, 1 validation failure (an unhealthy ledger or a failed
spot-check), 2 invalid input or a result outside its domain (overflow, negative
variance, a time grid too large for memory or spot-checks too long for the RK4
oracle's step budget).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__, analysis

OUTDIR_ENV = "OPTOFORCE_OUTDIR"

CSV_HEADER = "t_scaled,signal_per_f,noise,snr_per_f,f_min"

# one name, one default and one check per input: the scheme ratios and the
# sweep inputs are analysis's, which refuses them when it builds a spec
DEFAULTS = {
    **analysis.DEFAULT_PARAMS,
    **{key: getattr(analysis.SweepSpec, key)
       for key in ("s", "n_th", "tmin_scaled", "tmax_scaled", "points")},
    "model": None,
    "format": "csv",
    "out": None,
}

_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _coerce(key: str, raw: str):
    kind = type(DEFAULTS[key])
    if kind not in (int, float):
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: malformed number {raw!r}") from None


def parse_config_file(text: str, command: str) -> dict:
    """key=value per line; '#' starts a comment; a key the command does not
    take is rejected."""
    spec = COMMANDS[command]
    inputs = {*(("model", "format") if spec.models else ()), "out", *spec.keys}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key not in inputs:
            raise ConfigError(f"config line {lineno}: {command} does not take {key!r}")
        out[key] = _coerce(key, raw)
    return out


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Merge CLI flags over config file over defaults: every DEFAULTS key, the
    command, and the scheme ratios again as ``params``, from full_params."""
    ns = build_parser().parse_args(argv)
    cfg = dict(DEFAULTS)
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                cfg.update(parse_config_file(fh.read(), ns.command))
        except OSError as exc:
            raise ConfigError(f"config: cannot read {ns.config}: {exc}") from None
    cfg.update((key, value) for key, value in vars(ns).items()
               if key in DEFAULTS and value is not None)
    params = analysis.full_params({key: cfg[key] for key in analysis.DEFAULT_PARAMS})
    if cfg["format"] not in _FORMATS:
        raise ConfigError(f"format: unknown format {cfg['format']!r}")
    spec = COMMANDS[ns.command]
    if cfg["model"] is None:
        cfg["model"] = spec.model
    elif cfg["model"] not in spec.models:
        raise ConfigError(f"model: {cfg['model']!r} not valid for {ns.command}")
    return argparse.Namespace(command=ns.command, params=params, **cfg)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, a flag per input; flags match by full
    name only, so a prefix (--f of --format) is an unrecognized argument."""
    parser = argparse.ArgumentParser(
        prog="optoforce",
        description="Quantum-limited optomechanical force-sensing curves",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help, allow_abbrev=False)
        if spec.models:
            p.add_argument("--model", choices=spec.models)
            p.add_argument("--format", choices=_FORMATS)
        p.add_argument("-o", "--out", help="output file or directory")
        for key in spec.keys:
            p.add_argument("--" + key.replace("_", "-"), type=type(DEFAULTS[key]))
    return parser


# ---------------------------------------------------------------------------
# serialization


def fmt17(x: float) -> str:
    """17-significant-digit float text; round-trips bit-exactly."""
    return "%.17g" % x


def _jsonable(x):
    """x with every non-finite float, at any depth, as its fmt17 text."""
    if isinstance(x, float):
        return x if math.isfinite(x) else fmt17(x)
    if isinstance(x, dict):
        return {key: _jsonable(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(value) for value in x]
    return x


def _json(doc: dict) -> str:
    """The text of every JSON output: sorted keys, two-space indent."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


# rows per piece of an emitted table: the cell texts of a table are made for
# this many rows at a time, so that only the output and one piece's cells are
# ever held, not per-cell copies of it all
_CHUNK_ROWS = 2048


def _json_cells(array: np.ndarray) -> list[str]:
    """The JSON text of each value of one column, as json.dumps writes it."""
    values = array.tolist()
    if array.dtype == bool:
        return ["true" if v else "false" for v in values]
    cells = list(map(repr, values))
    for i in np.flatnonzero(~np.isfinite(array)):
        cells[i] = '"%s"' % fmt17(values[i])
    return cells


def _emit_table(columns: dict, fmt: str, doc: dict) -> bytearray:
    """CSV under a header of the column names (bools as 0/1), or JSON as
    ``doc`` plus one record per row under "records", as ASCII bytes.

    The JSON is the text of ``json.dumps(..., indent=2, sort_keys=True)`` of
    per-row dicts, built column by column: one record template with the keys
    in sorted order, filled from one list of cell texts per column.  The cells
    are made in pieces of _CHUNK_ROWS rows; the output grows one row at a time.
    """
    names = list(columns)
    arrays = [np.asarray(column) for column in columns.values()]
    rows = min(map(len, arrays), default=0)
    chunks = range(0, rows, _CHUNK_ROWS)
    # row by row: a piece-sized text allocated just above the output while it
    # grows makes the output's reallocations copy it, which can double the
    # process's peak memory; a row's text, a few hundred bytes, comes from
    # Python's small-object allocator instead
    if fmt == "csv":
        row = b",".join([b"%.17g"] * len(names)) + b"\n"
        out = bytearray((",".join(names) + "\n").encode("ascii"))
        for start in chunks:
            values = [array[start:start + _CHUNK_ROWS].tolist() for array in arrays]
            for cells in zip(*values):
                out += row % cells
        return out
    order = sorted(range(len(names)), key=names.__getitem__)
    record = "{" + ",".join(f"\n      {json.dumps(names[i])}: %s" for i in order) + "\n    }"
    # at two spaces of indent after a newline, this can only be the top-level key
    head, _, tail = _json({**doc, "records": []}).partition('\n  "records": []')
    out = bytearray((head + '\n  "records": [').encode("ascii"))
    for start in chunks:
        cells = [_json_cells(arrays[i][start:start + _CHUNK_ROWS]) for i in order]
        for index, texts in enumerate(zip(*cells), start):
            out += ((",\n    " if index else "\n    ") + record % texts).encode("ascii")
    out += (("\n  ]" if rows else "]") + tail).encode("ascii")
    return out


def emit_curve(curve: analysis.SensitivityCurve, fmt: str) -> bytearray:
    """Serialize one curve as CSV (fixed header) or JSON (records + metadata)."""
    columns = {name: getattr(curve, name) for name in CSV_HEADER.split(",")}
    return _emit_table(columns, fmt, {"metadata": curve.metadata})


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to path in one call, through a new temp file and a rename.
    The temp file is created as open() creates a file (mode 0o666 less the
    umask), not with mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_parent(cfg: argparse.Namespace, path: str) -> None:
    """Raise ConfigError if the nearest existing ancestor of path is a file."""
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"out: {parent} is a file; {cfg.command} cannot write under it")


def _outdir(cfg: argparse.Namespace) -> str:
    """-o names the output directory of fig2 and power-scaling."""
    path = cfg.out or os.environ.get(OUTDIR_ENV, ".")
    if os.path.exists(path) and not os.path.isdir(path):
        raise ConfigError(f"out: {path} is a file; {cfg.command} writes into a directory")
    _check_parent(cfg, path)
    return path


def _out_file(cfg: argparse.Namespace, name: str) -> str:
    """-o names the output file of sweep, sql and validate."""
    path = cfg.out or os.path.join(os.environ.get(OUTDIR_ENV, "."), name)
    if os.path.isdir(path):
        raise ConfigError(f"out: {path} is a directory; {cfg.command} writes one file")
    _check_parent(cfg, path)
    return path


def _curve_summary(curve: analysis.SensitivityCurve) -> str:
    finite = np.isfinite(curve.f_min) & (curve.t_scaled > 0)
    if not np.any(finite):
        return "no finite f_min"
    i = int(np.argmin(np.where(finite, curve.f_min, np.inf)))
    return (
        f"{len(curve.t_scaled)} records, min f_min={fmt17(curve.f_min[i])} "
        f"at t_scaled={fmt17(curve.t_scaled[i])}"
    )


# ---------------------------------------------------------------------------
# command implementations


def _cmd_sweep(cfg: argparse.Namespace) -> int:
    spec = analysis.SweepSpec(
        cfg.model, cfg.tmin_scaled, cfg.tmax_scaled, cfg.points, cfg.s, cfg.n_th, cfg.params
    )
    out = _out_file(cfg, f"sweep_{cfg.model}.{cfg.format}")
    curve = analysis.run_sweep(spec)
    _atomic_write(out, emit_curve(curve, cfg.format))
    print(f"sweep {cfg.model}: {_curve_summary(curve)} -> {out}")
    return 0


def _cmd_fig2(cfg: argparse.Namespace) -> int:
    models = list(analysis.SCHEMES) if cfg.model == "both" else [cfg.model]
    outdir = _outdir(cfg)
    curves = analysis.fig2_curves(cfg.params, cfg.points, models)
    for c in curves:
        s, n_th = f"{c.s:g}", f"{c.n_th:g}"
        path = os.path.join(outdir, f"{c.model}_{s}_{n_th}.{cfg.format}")
        _atomic_write(path, emit_curve(c, cfg.format))
        print(f"fig2 {c.model} s={s} n_th={n_th}: {_curve_summary(c)} -> {path}")
    print(f"fig2: wrote {len(curves)} curves")
    return 0


def _cmd_power_scaling(cfg: argparse.Namespace) -> int:
    models = list(analysis.SCHEMES) if cfg.model == "both" else [cfg.model]
    multipliers = tuple(np.logspace(-2, 2, 41))
    specs = [analysis.PowerScalingSpec(model, multipliers, cfg.params, cfg.s) for model in models]
    outdir = _outdir(cfg)
    tables = [analysis.power_scaling(spec) for spec in specs]
    for table in tables:
        data = _emit_table(
            {"power_multiplier": table["multipliers"], "f_min": table["f_min"],
             "in_regime": table["in_regime"]},
            cfg.format,
            {key: table[key] for key in ("model", "slope_small_power", "slope_large_power")},
        )
        path = os.path.join(outdir, f"power_{table['model']}.{cfg.format}")
        _atomic_write(path, data)
        print(
            f"power-scaling {table['model']}: slopes "
            f"small={table['slope_small_power']:+.3f} "
            f"large={table['slope_large_power']:+.3f} -> {path}"
        )
    return 0


def _cmd_validate(cfg: argparse.Namespace) -> int:
    out = _out_file(cfg, "validation_ledger.json")
    report = analysis.validation_ledger(cfg.params)
    _atomic_write(out, _json(report).encode("ascii"))
    for entry in report["entries"]:
        status = "ok" if entry["pass"] else "FAIL"
        print(
            f"validate [{status}] {entry['formula']}: adopted dev "
            f"{entry['engine_vs_adopted_max_deviation']:.3g}, literal dev "
            f"{entry['engine_vs_literal_max_deviation']:.3g}"
        )
    print(f"validate: {'healthy' if report['healthy'] else 'UNHEALTHY'} -> {out}")
    return 0 if report["healthy"] else 1


def _cmd_sql(cfg: argparse.Namespace) -> int:
    # the last row of a two-point sweep to the disentangling time, with vacuum
    # meter and zero-temperature probe: checked and spot-checked like any row
    spec = analysis.SweepSpec(cfg.model, 0.0, analysis.SCHEMES[cfg.model].T_STAR, 2,
                              0.0, 0.0, cfg.params)
    out = _out_file(cfg, f"sql_{cfg.model}.{cfg.format}")
    curve = analysis.run_sweep(spec)
    t_scaled, value = float(curve.t_scaled[-1]), float(curve.f_min[-1])
    if cfg.format == "csv":
        text = f"model,t_scaled,f_min\n{cfg.model},{fmt17(t_scaled)},{fmt17(value)}\n"
    else:
        text = _json({"model": cfg.model, "t_scaled": t_scaled, "f_min": value})
    _atomic_write(out, text.encode("ascii"))
    print(f"sql {cfg.model}: f_min={fmt17(value)} at t_scaled={fmt17(t_scaled)} -> {out}")
    return 0


@dataclass(frozen=True)
class Command:
    """One CLI command: what runs it, its help line and the inputs it reads."""

    handler: Callable[[argparse.Namespace], int]
    help: str
    models: tuple[str, ...]  # the valid --model values; none: no --model, no --format
    model: str | None  # the default --model
    keys: tuple[str, ...]  # the numeric DEFAULTS keys it reads, in usage order


_ONE = tuple(analysis.SCHEMES)
_BOTH = (*_ONE, "both")
_RATIOS = tuple(analysis.DEFAULT_PARAMS)

COMMANDS = {
    "sweep": Command(_cmd_sweep, "time sweep for one model and (s, n_th)", _ONE, _ONE[0],
                     (*_RATIOS, "s", "n_th", "tmin_scaled", "tmax_scaled", "points")),
    "fig2": Command(_cmd_fig2, "the six figure curves (SQL, thermal, squeezed)",
                    _BOTH, "both", (*_RATIOS, "points")),
    "power-scaling": Command(_cmd_power_scaling, "f_min versus laser-power multiplier",
                             _BOTH, "both", (*_RATIOS, "s")),
    "validate": Command(_cmd_validate, "oracle validation ledger", (), None, _RATIOS),
    "sql": Command(_cmd_sql, "standard quantum limit at the disentangling time",
                   _ONE, _ONE[0], _RATIOS),
}


def main(argv: list[str] | None = None) -> int:
    # every result is checked for finiteness and ends in a named error, so
    # numpy's floating-point warnings are silenced; a model warning (a
    # UserWarning) prints once, as one "warning:" line
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always", UserWarning)
        try:
            cfg = parse_config(sys.argv[1:] if argv is None else argv)
            code, error = COMMANDS[cfg.command].handler(cfg), None
        except RuntimeError as exc:  # oracle spot-check abort
            code, error = 1, exc
        except (ValueError, ArithmeticError) as exc:  # input or result outside its domain
            if isinstance(exc, ArithmeticError):  # a Python float overflowed
                exc = f"the inputs overflow the closed forms ({exc})"
            code, error = 2, exc
        except MemoryError as exc:  # of the inputs only the time grid sets an array size
            code, error = 2, f"points: the time grid does not fit in memory ({exc})"
        except OSError as exc:  # parse_config names the config file's own: an output's
            code, error = 2, f"out: {exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
