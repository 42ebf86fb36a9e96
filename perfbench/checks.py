"""Untimed correctness checks of the files one op wrote.

Every file is parsed here, independently of the program's own parsers.  A
curve must have the requested time grid, finite values except ``f_min = inf``
exactly where the signal vanishes (as at the benchmark's defining commit),
internally consistent ``f_min`` and ``snr_per_f`` columns, and a few seeded
rows that the RK4 oracle ``oracle.integrate_moments`` reproduces within the
program's own 1e-8 spot-check bound.  A validation ledger must be healthy
with all six verdicts passing.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from optoforce import cavity, cavityless, oracle

COLUMNS = ("t_scaled", "signal_per_f", "noise", "snr_per_f", "f_min")
SPOT_CHECK_TOL = 1e-8  # the program's spot-check bound, analysis.SPOT_CHECK_TOL
ROWS_PER_OP = 2
LEDGER_ENTRIES = 6
FIG2_CASES = ((0.0, 0.0), (0.0, 300.0), (5.0, 300.0))
FIG2_T_STOP = {"cavityless": 2.0 * math.pi, "cavity": 4.0 * math.pi}
SWEEP_T_STOP = 2.0 * math.pi  # the CLI's default tmax_scaled
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


class CheckError(ValueError):
    """An op's output is wrong; the message says where."""


def read_curve(path: str, fmt: str) -> tuple[np.ndarray, dict]:
    """(rows x COLUMNS array, JSON metadata or {}) of one curve file."""
    with open(path) as fh:
        text = fh.read()
    try:
        if fmt == "csv":
            lines = text.split("\n")
            if lines[0] != ",".join(COLUMNS) or lines[-1] != "":
                raise CheckError(f"{path}: bad CSV header or missing final newline")
            rows = lines[1:-1]
            if any(line.count(",") != len(COLUMNS) - 1 for line in rows):
                raise CheckError(f"{path}: CSV row with the wrong field count")
            values = list(map(float, ",".join(rows).split(","))) if rows else []
            return np.array(values).reshape(-1, len(COLUMNS)), {}
        doc = json.loads(text)
        rows = [
            [v if isinstance(v, float) else _NON_FINITE[v] for v in (rec[c] for c in COLUMNS)]
            for rec in doc["records"]
        ]
        return np.array(rows, dtype=float).reshape(-1, len(COLUMNS)), doc["metadata"]
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, CheckError):
            raise
        raise CheckError(f"{path}: unparsable {fmt}: {exc}") from None


def rk4_deviation(model: str, params: dict, t_scaled: float, s: float,
                  n_th: float, signal_per_f: float, noise: float) -> float:
    """The program's spot-check deviation of one written row from the RK4 oracle."""
    if model == "cavityless":
        p = cavityless.CavitylessParams.from_ratios(
            params["theta_over_chi"], params["omega_over_theta"])
        t = t_scaled / p.Theta
        m0 = cavityless.initial_state(s, n_th)
        obs = cavityless.z_i_observable().coeffs
        gen = lambda tau: cavityless.generator(p, tau)  # noqa: E731
    else:
        p = cavity.CavityParams.from_ratios(params["g_alpha_over_omega"])
        t = t_scaled / p.omega
        phi, _ = cavity.minimize_noise_over_phi(p, t, s, n_th)
        m0 = cavity.initial_state(cavity.MeterSqueezing(s, phi), n_th)
        obs = cavity.readout_observable().coeffs
        gen = lambda tau: cavity.generator(p, tau)  # noqa: E731
    n_steps = max(1000, int(np.ceil(np.linalg.norm(gen(0.0)[0], 2) * t / 0.01)))
    spec = oracle.OdeSpec(len(obs), gen, t, n_steps)
    mean, cov = oracle.integrate_moments(spec, m0.mean, m0.cov)
    sig_rk = float(obs @ mean) / p.force
    noise_rk = float(obs @ cov @ obs)
    scale = max(1.0, abs(noise), float(np.max(np.abs(cov))))
    return max(abs(sig_rk - signal_per_f), abs(noise_rk - noise) / scale)


def check_curve(data: np.ndarray, where: str, t_stop: float, points: int) -> None:
    """Grid, non-finite pattern and column consistency of one parsed curve."""
    if data.shape != (points, len(COLUMNS)):
        raise CheckError(f"{where}: {data.shape[0]} rows, expected {points}")
    t, sig, noi, snr, fmin = data.T
    grid = np.linspace(0.0, t_stop, points)
    if np.max(np.abs(t - grid)) > 1e-13 * t_stop:
        raise CheckError(f"{where}: t_scaled is not the requested grid")
    vanishes = sig == 0.0
    if not (np.isfinite(data[:, :4]).all() and (np.isinf(fmin) == vanishes).all()
            and not np.isnan(fmin).any() and (fmin > 0).all()):
        raise CheckError(f"{where}: non-finite entries other than f_min = inf at zero signal")
    if sig[0] != 0.0 or not (noi > 0).all():
        raise CheckError(f"{where}: nonzero signal at t = 0 or nonpositive noise")
    ok = ~vanishes
    with np.errstate(divide="ignore"):
        if not (np.allclose(fmin[ok], np.sqrt(noi[ok]) / np.abs(sig[ok]), rtol=1e-12, atol=0)
                and np.allclose(snr[ok], 1.0 / fmin[ok], rtol=1e-12, atol=0)
                and (snr[vanishes] == 0.0).all()):
            raise CheckError(f"{where}: f_min or snr_per_f inconsistent with signal and noise")


def _only_files(outdir: str, expected: set[str]) -> None:
    found = set(os.listdir(outdir)) if os.path.isdir(outdir) else set()
    if found != expected:
        raise CheckError(f"{outdir}: wrote {sorted(found)}, expected {sorted(expected)}")


def check_op(op, outdir: str) -> int:
    """Check one op's outputs; returns the records written, raises CheckError."""
    rng = np.random.default_rng(op.check_seed)
    if op.command == "validate":
        _only_files(outdir, {op.out})
        with open(os.path.join(outdir, op.out)) as fh:
            report = json.load(fh)
        entries = report.get("entries", [])
        if (report.get("healthy") is not True or len(entries) != LEDGER_ENTRIES
                or not all(e["pass"] is True for e in entries)
                or not all(e["engine_vs_adopted_max_deviation"] < SPOT_CHECK_TOL for e in entries)):
            raise CheckError(f"{outdir}: ledger not healthy with {LEDGER_ENTRIES} passing verdicts")
        if any(report["params"][k] != v for k, v in op.params.items()):
            raise CheckError(f"{outdir}: ledger params differ from the op's")
        return len(entries)

    if op.command == "fig2":
        curves = [
            (f"{model}_{s:g}_{n_th:g}.{op.fmt}", model, s, n_th, FIG2_T_STOP[model])
            for model in ("cavityless", "cavity") for s, n_th in FIG2_CASES
        ]
    else:
        curves = [(op.out, op.model, op.s, op.n_th, SWEEP_T_STOP)]
    _only_files(outdir, {c[0] for c in curves})
    parsed = []
    for name, model, s, n_th, t_stop in curves:
        where = os.path.join(outdir, name)
        data, meta = read_curve(where, op.fmt)
        if meta and (meta.get("model"), meta.get("s"), meta.get("n_th")) != (model, s, n_th):
            raise CheckError(f"{where}: metadata names another curve")
        check_curve(data, where, t_stop, op.points)
        parsed.append((where, model, s, n_th, data))
    for _ in range(ROWS_PER_OP):
        where, model, s, n_th, data = parsed[rng.integers(len(parsed))]
        i = int(rng.integers(1, len(data)))
        dev = rk4_deviation(model, op.params, data[i, 0], s, n_th, data[i, 1], data[i, 2])
        if not dev <= SPOT_CHECK_TOL:
            raise CheckError(f"{where}: row {i} deviates {dev:.3g} from RK4")
    return sum(len(p[4]) for p in parsed)
