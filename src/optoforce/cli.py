"""Command-line interface: sweeps, figure datasets, scaling and validation.

Commands: sweep, fig2, power-scaling, validate, sql.  Configuration
precedence is CLI flag > config file (key=value lines, # comments) >
documented default.  Outputs are CSV (default) or JSON, written atomically
(temp file + rename); floats are serialized with 17 significant digits so
parsing reproduces them bit-exactly; non-finite values appear as lowercase
"inf"/"nan".  Exit codes: 0 success, 1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__, analysis

OUTDIR_ENV = "OPTOFORCE_OUTDIR"

CSV_HEADER = "t_scaled,signal_per_f,noise,snr_per_f,f_min"

DEFAULTS = {
    **analysis.DEFAULT_PARAMS,
    "s": 0.0,
    "n_th": 0.0,
    "tmin_scaled": 0.0,
    "tmax_scaled": 2.0 * math.pi,
    "points": 401,
    "model": None,
    "format": "csv",
    "out": None,
}

_FLOAT_KEYS = tuple(key for key, value in DEFAULTS.items() if isinstance(value, float))
_INT_KEYS = {"points"}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str | None
    format: str
    out: str | None
    s: float
    n_th: float
    tmin_scaled: float
    tmax_scaled: float
    points: int
    params: dict = field(default_factory=dict)


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: malformed number {raw!r}") from None
    return raw


def parse_config_file(text: str) -> dict:
    """key=value per line; '#' starts a comment; unknown keys are rejected."""
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
        out[key] = _coerce(key, raw)
    return out


def _models(command: str) -> tuple[list[str], str | None]:
    """(valid --model values, default model) of one command."""
    schemes = list(analysis.SCHEMES)
    if command in ("fig2", "power-scaling"):
        return [*schemes, "both"], "both"
    if command == "validate":
        return [], None
    return schemes, schemes[0]


def _validate(cfg: dict, command: str) -> None:
    for key in _FLOAT_KEYS:
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"{key}: must be finite, got {cfg[key]!r}")
    if cfg["f"] == 0.0:
        raise ConfigError("f: force strength must be nonzero")
    if cfg["theta_over_chi"] <= 1.0:
        raise ConfigError(
            "theta_over_chi: theta must exceed chi (theta/chi > 1 required)"
        )
    if cfg["omega_over_theta"] <= 0.0:
        raise ConfigError("omega_over_theta: must be positive")
    if cfg["n_th"] < 0.0:
        raise ConfigError("n_th: thermal occupation must be nonnegative")
    if cfg["points"] < 2:
        raise ConfigError("points: time grid needs at least 2 points")
    if cfg["tmin_scaled"] < 0.0 or cfg["tmax_scaled"] <= cfg["tmin_scaled"]:
        raise ConfigError(
            "tmax_scaled: times must satisfy 0 <= tmin_scaled < tmax_scaled"
        )
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format: unknown format {cfg['format']!r}")
    choices, default = _models(command)
    model = cfg["model"]
    if model is None:
        cfg["model"] = default
    elif model not in choices:
        raise ConfigError(f"model: {model!r} not valid for {command}")


def parse_config(argv: list[str]) -> RunConfig:
    """Merge CLI flags over config file over defaults into a RunConfig."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = dict(DEFAULTS)
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                cfg.update(parse_config_file(fh.read()))
        except OSError as exc:
            raise ConfigError(f"config: cannot read {ns.config}: {exc}") from None
    for key in DEFAULTS:
        flag = getattr(ns, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    _validate(cfg, ns.command)
    params = {key: cfg[key] for key in analysis.DEFAULT_PARAMS}
    return RunConfig(
        command=ns.command,
        model=cfg["model"],
        format=cfg["format"],
        out=cfg["out"],
        s=cfg["s"],
        n_th=cfg["n_th"],
        tmin_scaled=cfg["tmin_scaled"],
        tmax_scaled=cfg["tmax_scaled"],
        points=cfg["points"],
        params=params,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optoforce",
        description="Quantum-limited optomechanical force-sensing curves",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", choices=_models(name)[0])
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("-o", "--out", help="output file or directory")
        p.add_argument("--theta-over-chi", type=float, dest="theta_over_chi")
        p.add_argument("--omega-over-theta", type=float, dest="omega_over_theta")
        p.add_argument("--g-alpha-over-omega", type=float, dest="g_alpha_over_omega")
        p.add_argument("--s", type=float)
        p.add_argument("--n-th", type=float, dest="n_th")
        p.add_argument("--f", type=float)
        return p

    p = command("sweep", "time sweep for one model and (s, n_th)")
    p.add_argument("--tmin-scaled", type=float, dest="tmin_scaled")
    p.add_argument("--tmax-scaled", type=float, dest="tmax_scaled")
    p.add_argument("--points", type=int)
    p = command("fig2", "the six figure curves (SQL, thermal, squeezed)")
    p.add_argument("--points", type=int)
    command("power-scaling", "f_min versus laser-power multiplier")
    command("validate", "oracle validation ledger")
    command("sql", "standard quantum limit at the disentangling time")
    return parser


# ---------------------------------------------------------------------------
# serialization


def fmt17(x: float) -> str:
    """17-significant-digit float text; round-trips bit-exactly."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return format(float(x), ".17g")


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return fmt17(x)
    return x


def emit_curve(curve: analysis.SensitivityCurve, fmt: str) -> str:
    """Serialize one curve as CSV (fixed header) or JSON (records + metadata)."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for rec in zip(
            curve.t_scaled, curve.signal_per_f, curve.noise,
            curve.snr_per_f, curve.f_min,
        ):
            lines.append(",".join(fmt17(v) for v in rec))
        return "\n".join(lines) + "\n"
    records = [
        {
            "t_scaled": _jsonable(float(t)),
            "signal_per_f": _jsonable(float(sg)),
            "noise": _jsonable(float(n)),
            "snr_per_f": _jsonable(float(r)),
            "f_min": _jsonable(float(fm)),
        }
        for t, sg, n, r, fm in zip(
            curve.t_scaled, curve.signal_per_f, curve.noise,
            curve.snr_per_f, curve.f_min,
        )
    ]
    return json.dumps(
        {"metadata": curve.metadata, "records": records},
        indent=2, sort_keys=True, allow_nan=False,
    ) + "\n"


def parse_curve_csv(text: str) -> dict[str, np.ndarray]:
    """Inverse of the CSV emitter; used by tests for round-trip checks."""
    lines = text.strip().splitlines()
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header {lines[0]!r}")
    cols = CSV_HEADER.split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(cols)}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _outdir(cfg: RunConfig) -> str:
    """-o names the output directory of fig2 and power-scaling."""
    if cfg.out is not None:
        return cfg.out
    return os.environ.get(OUTDIR_ENV, ".")


def _out_file(cfg: RunConfig, name: str) -> str:
    """-o names the output file of sweep, sql and validate."""
    path = cfg.out or os.path.join(os.environ.get(OUTDIR_ENV, "."), name)
    if os.path.isdir(path):
        raise ConfigError(f"out: {path} is a directory; {cfg.command} writes one file")
    return path


def _num_tag(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


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


def _cmd_sweep(cfg: RunConfig) -> int:
    out = _out_file(cfg, f"sweep_{cfg.model}.{cfg.format}")
    spec = analysis.SweepSpec(
        cfg.model, cfg.tmin_scaled, cfg.tmax_scaled, cfg.points,
        (cfg.s,), (cfg.n_th,), cfg.params,
    )
    curve = analysis.run_sweep(spec)[0]
    _atomic_write(out, emit_curve(curve, cfg.format))
    print(f"sweep {cfg.model}: {_curve_summary(curve)} -> {out}")
    return 0


def _cmd_fig2(cfg: RunConfig) -> int:
    models = list(analysis.SCHEMES) if cfg.model == "both" else [cfg.model]
    outdir = _outdir(cfg)
    curves = analysis.fig2_curves(cfg.params, cfg.points, models)
    for c in curves:
        s, n_th = _num_tag(c.s), _num_tag(c.n_th)
        path = os.path.join(outdir, f"{c.model}_{s}_{n_th}.{cfg.format}")
        _atomic_write(path, emit_curve(c, cfg.format))
        print(f"fig2 {c.model} s={s} n_th={n_th}: {_curve_summary(c)} -> {path}")
    print(f"fig2: wrote {len(curves)} curves")
    return 0


def _cmd_power_scaling(cfg: RunConfig) -> int:
    models = list(analysis.SCHEMES) if cfg.model == "both" else [cfg.model]
    outdir = _outdir(cfg)
    multipliers = tuple(np.logspace(-2, 2, 41))
    for model in models:
        spec = analysis.PowerScalingSpec(model, multipliers, cfg.params, cfg.s)
        table = analysis.power_scaling(spec)
        if cfg.format == "csv":
            lines = ["power_multiplier,f_min,in_regime"]
            for m, fm, ok in zip(
                table["multipliers"], table["f_min"], table["in_regime"]
            ):
                lines.append(f"{fmt17(m)},{fmt17(fm)},{int(ok)}")
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(
                {
                    "model": model,
                    "slope_small_power": table["slope_small_power"],
                    "slope_large_power": table["slope_large_power"],
                    "records": [
                        {"power_multiplier": m, "f_min": _jsonable(fm),
                         "in_regime": bool(ok)}
                        for m, fm, ok in zip(
                            table["multipliers"].tolist(),
                            table["f_min"].tolist(),
                            table["in_regime"].tolist(),
                        )
                    ],
                },
                indent=2, sort_keys=True, allow_nan=False,
            ) + "\n"
        path = os.path.join(outdir, f"power_{model}.{cfg.format}")
        _atomic_write(path, text)
        print(
            f"power-scaling {model}: slopes "
            f"small={table['slope_small_power']:+.3f} "
            f"large={table['slope_large_power']:+.3f} -> {path}"
        )
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    out = _out_file(cfg, "validation_ledger.json")
    report = analysis.validation_ledger(cfg.params)
    _atomic_write(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    for entry in report["entries"]:
        status = "ok" if entry["pass"] else "FAIL"
        print(
            f"validate [{status}] {entry['formula']}: adopted dev "
            f"{entry['engine_vs_adopted_max_deviation']:.3g}, literal dev "
            f"{entry['engine_vs_literal_max_deviation']:.3g}"
        )
    print(f"validate: {'healthy' if report['healthy'] else 'UNHEALTHY'} -> {out}")
    return 0 if report["healthy"] else 1


def _cmd_sql(cfg: RunConfig) -> int:
    out = _out_file(cfg, f"sql_{cfg.model}.{cfg.format}")
    t = analysis.disentangling_time(cfg.model, cfg.params)
    value = analysis.sql_baseline(cfg.model, cfg.params, t)
    t_scaled = analysis.SCHEMES[cfg.model].T_STAR
    if cfg.format == "csv":
        text = f"model,t_scaled,f_min\n{cfg.model},{fmt17(t_scaled)},{fmt17(value)}\n"
    else:
        text = json.dumps(
            {"model": cfg.model, "t_scaled": t_scaled, "f_min": _jsonable(value)},
            indent=2, sort_keys=True, allow_nan=False,
        ) + "\n"
    _atomic_write(out, text)
    print(f"sql {cfg.model}: f_min={fmt17(value)} at t_scaled={fmt17(t_scaled)} -> {out}")
    return 0


def run(cfg: RunConfig) -> int:
    handler = {
        "sweep": _cmd_sweep,
        "fig2": _cmd_fig2,
        "power-scaling": _cmd_power_scaling,
        "validate": _cmd_validate,
        "sql": _cmd_sql,
    }[cfg.command]
    try:
        return handler(cfg)
    except RuntimeError as exc:  # oracle spot-check abort
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # parameter invariant violated at model level
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
