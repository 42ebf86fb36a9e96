"""Parameter sweeps, power scaling and the validation ledger."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat, starmap

import numpy as np

from . import __version__, cavity, cavityless, oracle

SPOT_CHECK_TOL = 1e-8

#: Most RK4 steps that one oracle certificate may take: the summed segment
#: steps of the spot-check tracks of one sweep, fig2 model or power-scaling
#: table, or of one propagator track of the validation ledger, as planned by
#: _track_plans.  About 6 s at the oracle's ~1.6e6 cavityless steps/s (2-CPU
#: Xeon, numpy 2.4); at the CLI defaults the track of a sweep, or of a fig2
#: model's three curves, takes 5000 steps (five segments at the 1000-step
#: floor) and a ledger track 2.4e4 (24 segments at the floor).
RK4_STEP_BUDGET = 10_000_000

FIG2_CASES = [(0.0, 0.0), (0.0, 300.0), (5.0, 300.0)]

#: The ratios of both schemes' params; f is no input, every output is per unit f
DEFAULT_PARAMS = {
    "theta_over_chi": 1.025,
    "omega_over_theta": 10.3,
    "g_alpha_over_omega": 0.2,
}


#: The two measurement schemes.  Each module supplies the same names:
#: params_from_ratios, time_unit, T_STAR (the scaled disentangling time),
#: signal, readout, meter_state, readout_observable, generator,
#: closed_propagator (for the ledger), power_scaled and in_regime.  Callers
#: look them up on the module at call time, so that a wrapper or patch set on
#: the module later is seen.  The oracle side of a spot-check takes only
#: generator, meter_state and readout_observable from a scheme; of its closed
#: forms it reads one, through cavity.meter_state: the angle of the closed
#: phi-minimum, at which the cavity meter is squeezed.
SCHEMES = {"cavityless": cavityless, "cavity": cavity}


def _finite(**fields) -> None:
    """Raise ValueError, naming the first of fields that is not finite."""
    for name, value in fields.items():
        if not np.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value!r}")


def full_params(params: dict | None) -> dict:
    """DEFAULT_PARAMS updated by params, for every entry point and model: an
    unknown key, a value not finite, theta/chi <= 1 or Omega/Theta <= 0 is a
    ValueError naming it, in the CLI's text."""
    unknown = sorted(set(params or {}) - set(DEFAULT_PARAMS))
    if unknown:
        raise ValueError(f"params: unknown key {unknown[0]!r}; the keys are "
                         f"{', '.join(DEFAULT_PARAMS)}")
    params = {**DEFAULT_PARAMS, **(params or {})}
    _finite(**params)
    if params["theta_over_chi"] <= 1.0:
        raise ValueError("theta_over_chi: theta must exceed chi (theta/chi > 1 required)")
    if params["omega_over_theta"] <= 0.0:
        raise ValueError("omega_over_theta: must be positive")
    return params


@dataclass(frozen=True)
class SweepSpec:
    """One curve at (s, n_th) on points scaled times (Theta*t or Omega*t) from
    tmin_scaled to tmax_scaled.  Fields and defaults are the CLI's keys and
    defaults; a bad input is a ValueError naming it, in the CLI's text."""

    model: str
    tmin_scaled: float = 0.0
    tmax_scaled: float = 2.0 * np.pi
    points: int = 401
    s: float = 0.0
    n_th: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", full_params(self.params))
        if self.model not in SCHEMES:
            raise ValueError(f"unknown model {self.model!r}")
        _finite(s=self.s, n_th=self.n_th, tmin_scaled=self.tmin_scaled,
                tmax_scaled=self.tmax_scaled)
        if self.n_th < 0:
            raise ValueError("n_th: thermal occupation must be nonnegative")
        if self.points < 2:
            raise ValueError("points: time grid needs at least 2 points")
        if self.tmin_scaled < 0 or self.tmax_scaled <= self.tmin_scaled:
            raise ValueError("tmax_scaled: times must satisfy 0 <= tmin_scaled < tmax_scaled")


@dataclass(frozen=True)
class SensitivityCurve:
    """Sampled (t_scaled, signal/f, noise, snr/f, f_min) records plus metadata."""

    model: str
    s: float
    n_th: float
    params: dict
    t_scaled: np.ndarray
    signal_per_f: np.ndarray
    noise: np.ndarray
    snr_per_f: np.ndarray
    f_min: np.ndarray

    @property
    def metadata(self) -> dict:
        return {
            "model": self.model,
            "s": self.s,
            "n_th": self.n_th,
            "params": dict(self.params),
            "version": __version__,
        }


class StepBudgetError(ValueError):
    """The RK4 oracle would need more than RK4_STEP_BUDGET steps to certify a result."""


def _max(values) -> float:
    """Largest value, or NaN if any value is NaN (the builtin max can drop a NaN)."""
    return float(np.max(values))


def _deviation(a: float, b: float) -> float:
    """|a - b|, and 0 where a == b, so that two equal infs agree; a NaN still
    gives NaN."""
    return 0.0 if a == b else abs(a - b)


def _columns(scheme, model: str, params: list, times: list, s: float, n_th: float,
             row: tuple[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The (signal/f, noise, f_min, snr) columns of one meter (s, n_th), one
    scheme readout per (params, time) pair.  A signal or noise that is not
    finite, or a negative noise, is a ValueError naming its row by
    row = (column, the column's values).  The columns are filled as they are
    computed: no per-row tuple is kept."""
    # the checks below name every value that is not finite: numpy's warnings
    # about them would only repeat it
    with np.errstate(all="ignore"):
        pairs = starmap(scheme.readout, zip(params, times, repeat(s), repeat(n_th)))
        flat = np.fromiter(chain.from_iterable(pairs), float, count=2 * len(times))
    sig, noi = flat[0::2], flat[1::2]
    overflow = "the inputs overflow the closed forms"
    for name, bad, what, why in (
        ("signal_per_f", ~np.isfinite(sig), "not finite", overflow),
        ("noise", ~np.isfinite(noi), "not finite", overflow),
        ("noise", noi < 0, "negative", "the closed forms lose their precision"),
    ):
        bad = np.flatnonzero(bad)
        if bad.size:
            raise ValueError(
                f"{name}: {what} at {row[0]}={row[1][bad[0]]:.6g} "
                f"(model={model} s={s} n_th={n_th}); {why}"
            )
    # f_min is inf where the signal vanishes, also where the noise does (0/0)
    with np.errstate(divide="ignore", invalid="ignore"):
        fmin = np.where(sig != 0.0, np.sqrt(noi) / np.abs(sig), np.inf)
        snr = np.where(np.isfinite(fmin), 1.0 / fmin, 0.0)
    return sig, noi, fmin, snr


def _track_plans(check: str, model: str, tracks: list) -> list:
    """Plan a certificate's forward tracks, (params, sorted times) pairs: per
    time, one OdeSpec argument triple (generator, span, steps) for the
    segment from the time before (0 for the first), on the generator shifted
    to start there; an equal time gives a span of 0.  Every RK4 run of a
    certificate steps through these plans.

    A segment of span dt takes max(1000, ceil(max(||A||, Omega/10) dt/0.01))
    steps, ||A|| read once per track, as A is constant: ||A|| h <= 0.01 keeps
    the O(h^4) error of covariance entries ~e^{2s}(2 n_th + 1)/4 below the
    absolute tolerance, and Omega h <= 0.1 resolves the drive at Omega.  A
    drift that is not finite takes inf steps (its SVD would make LAPACK print
    to stderr).  Before any RK4 step, a StepBudgetError names the inputs if
    the summed steps exceed RK4_STEP_BUDGET: the longest track (of equal
    ones, the latest) by its params and last time."""
    scheme = SCHEMES[model]
    plans = []
    for p, ts in tracks:
        drift = scheme.generator(p, 0.0)[0]
        rate = max(np.linalg.norm(drift, 2), p.omega / 10) if np.isfinite(drift).all() else None
        plan, t0 = [], 0.0
        for t in ts:
            n = np.inf if rate is None else max(1000, int(np.ceil(rate * (t - t0) / 0.01)))
            plan.append((lambda tau, p=p, t0=t0: scheme.generator(p, t0 + tau), t - t0, n))
            t0 = t
        plans.append(plan)
    steps = [sum(n for _, _, n in plan) for plan in plans]
    if sum(steps) > RK4_STEP_BUDGET:
        k = max(range(len(tracks)), key=lambda k: (steps[k], tracks[k][1][-1]))
        p, ts = tracks[k]
        raise StepBudgetError(
            f"rk4 steps: {check} to t={ts[-1]:.6g} would take {sum(steps):.3g} RK4 "
            f"steps, over the budget of {RK4_STEP_BUDGET:.3g} (model={model} {p}); "
            "the oracle cannot certify a time span this long at these parameters"
        )
    return plans


def _certified_rows(model: str, params: list, times: list, meters: list,
                    row: tuple[str, np.ndarray], tracks: list) -> list[tuple[np.ndarray, ...]]:
    """The _columns of the rows for each meter (s, n_th) of meters, certified
    as one RK4 certificate on tracks: forward tracks, each a list of row
    indices in time order whose rows share one params object.

    Every (row, meter) meter_state of a track starts on a stack at t = 0 (the
    cavity meter's angle depends on its row's time, so no state can start at
    its own row); one integrate_moments call per row transports the stack
    over the segment from the time before, and there the row's states leave
    it, judged meter by meter.  Errors come in this order: the ValueErrors of
    _columns, meter by meter; a StepBudgetError, before any RK4 step, if the
    summed segment steps exceed RK4_STEP_BUDGET; then, track by track, its
    meter_state errors and a RuntimeError at the first (row, meter) whose
    readout the oracle does not reproduce, before any later segment runs.
    Each names its row by row = (column, the column's values)."""
    scheme = SCHEMES[model]
    columns = [_columns(scheme, model, params, times, s, n_th, row) for s, n_th in meters]
    plans = _track_plans("the spot-checks", model,
                         [(params[rows[0]], [times[i] for i in rows]) for rows in tracks])

    obs = scheme.readout_observable().coeffs
    for rows, plan in zip(tracks, plans):
        p = params[rows[0]]
        states = [scheme.meter_state(p, times[i], s, n_th) for i in rows for s, n_th in meters]
        mean = np.array([m.mean for m in states])
        cov = np.array([m.cov for m in states])
        for i, seg in zip(rows, plan):
            mean, cov = oracle.integrate_moments(oracle.OdeSpec(len(obs), *seg), mean, cov)
            for j, ((s, n_th), (sig, noi, _, _)) in enumerate(zip(meters, columns)):
                sig_rk = float(obs @ mean[j])
                noise_rk = float(obs @ cov[j] @ obs)
                # the RK4 truncation error scales with the largest covariance
                # entry (~e^{2|s|}(2 n_th + 1)/4), which can dwarf the readout
                # variance when the optimized angle squeezes the measured
                # direction; compare relative to that scale
                noise_scale = max(1.0, abs(noi[i]), float(np.max(np.abs(cov[j]))))
                dev = _max([abs(sig_rk - sig[i]), abs(noise_rk - noi[i]) / noise_scale])
                if not dev <= SPOT_CHECK_TOL:
                    raise RuntimeError(
                        f"oracle spot-check failed: model={model} {row[0]}={row[1][i]:.6g} "
                        f"s={s} n_th={n_th} deviation={dev:.3g} > {SPOT_CHECK_TOL}"
                    )
            mean, cov = mean[len(meters):], cov[len(meters):]
    return columns


def _sweep_curves(spec: SweepSpec, meters: list) -> list[SensitivityCurve]:
    """The curves of spec's grid, one per meter (s, n_th) of meters, certified
    on one forward RK4 track through the quarter points of the grid."""
    scheme = SCHEMES[spec.model]
    p = scheme.params_from_ratios(spec.params)
    n = spec.points
    t_scaled = np.linspace(spec.tmin_scaled, spec.tmax_scaled, n)
    times = t_scaled / scheme.time_unit(p)

    # rows round(k (n - 1)/4), k = 0..4, with row 0 moved to row 1: an odd
    # grid checks its middle row (the disentangling time of a fig2 curve and
    # of the default cavityless sweep) and every grid its last (the cavity's
    # disentangling time on its default sweep)
    checked = sorted({max(1, round(k * (n - 1) / 4)) for k in range(5)})
    # Python floats are the same IEEE doubles as the grid's, with cheaper
    # scalar arithmetic
    columns = _certified_rows(spec.model, [p] * n, times.tolist(), meters,
                              ("t_scaled", t_scaled), [checked])
    return [
        SensitivityCurve(spec.model, s, n_th, dict(spec.params), t_scaled, sig, noi, snr, fmin)
        for (s, n_th), (sig, noi, fmin, snr) in zip(meters, columns)
    ]


def run_sweep(spec: SweepSpec) -> SensitivityCurve:
    """The curve of spec, oracle-spot-checked at the quarter points of its
    grid on one forward RK4 track, which stops at the first row that fails."""
    return _sweep_curves(spec, [(spec.s, spec.n_th)])[0]


def fig2_curves(
    params: dict | None = None, points: int = SweepSpec.points, models=tuple(SCHEMES)
) -> list[SensitivityCurve]:
    """The Fig.-2 style curves, (s, n_th) in the caption triple FIG2_CASES,
    on points scaled times to twice the disentangling time, with params and
    points checked by SweepSpec: six with both models.  A model's three curves
    share their grid, so one forward RK4 track through its quarter points
    certifies them, row by row and at each row meter by meter."""
    return [
        curve
        for model in models
        for curve in _sweep_curves(
            SweepSpec(model, 0.0, 2 * SCHEMES[model].T_STAR, points, params=params),
            FIG2_CASES)
    ]


@dataclass(frozen=True)
class PowerScalingSpec:
    """Laser-power sweep: couplings scale as sqrt(power), ratios held fixed."""

    model: str
    multipliers: tuple
    params: dict = field(default_factory=dict)
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "params", full_params(self.params))
        if self.model not in SCHEMES:
            raise ValueError(f"unknown model {self.model!r}")
        if not self.multipliers:
            raise ValueError("power scaling needs at least one multiplier")
        if not all(0 < m < np.inf for m in self.multipliers):
            raise ValueError("power multipliers must be positive and finite")
        _finite(s=self.s)


def power_scaling(spec: PowerScalingSpec) -> dict:
    """f_min at the disentangling time versus power multiplier, with end slopes.

    Cavityless: chi, theta -> sqrt(m) (chi0, theta0) at fixed theta/chi and
    fixed mirror frequency, evaluated at Theta(m) t = pi; points with
    omega^2/Theta^2 < 10 are flagged out-of-regime but kept.  Cavity:
    g*alpha -> sqrt(m) (g*alpha)0 at Omega t = 2 pi.  Each row is a sweep row
    at n_th = 0, and _certified_rows spot-checks the whole table against the
    RK4 oracle as one certificate: each row has its own params, so its own
    one-segment track.
    """
    mult = np.asarray(sorted(spec.multipliers), dtype=float)
    scheme = SCHEMES[spec.model]
    base = scheme.params_from_ratios(spec.params)
    params = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in mult:
            try:
                params.append(scheme.power_scaled(base, m))
            except ValueError as exc:  # a row whose params cannot be built is named
                raise ValueError(f"{exc} at power_multiplier={m:.6g} "
                                 f"(model={spec.model} s={spec.s})") from None
    in_regime = np.array([scheme.in_regime(p) for p in params], dtype=bool)
    times = [scheme.T_STAR / scheme.time_unit(p) for p in params]
    [(_, _, fmin, _)] = _certified_rows(spec.model, params, times, [(spec.s, 0.0)],
                                        ("power_multiplier", mult),
                                        [[i] for i in range(len(mult))])

    def slope(idx) -> float:
        x, y = np.log(mult[idx]), np.log(fmin[idx])
        ok = np.isfinite(y)
        if ok.sum() < 2:
            return float("nan")
        return float(np.polyfit(x[ok], y[ok], 1)[0])

    k = min(3, len(mult))
    return {
        "model": spec.model,
        "multipliers": mult,
        "f_min": fmin,
        "in_regime": in_regime,
        "slope_small_power": slope(slice(0, k)),
        "slope_large_power": slope(slice(-k, None)),
    }


# ---------------------------------------------------------------------------
# Validation ledger


def _ledger_entry(name, description, adopted, literal, deviation_adopted,
                  deviation_literal, resolution):
    return {
        "formula": name,
        "description": description,
        "engine_vs_adopted_max_deviation": float(deviation_adopted),
        "engine_vs_literal_max_deviation": float(deviation_literal),
        "adopted": adopted,
        "literal": literal,
        "resolution": resolution,
        "pass": bool(deviation_adopted < SPOT_CHECK_TOL),
    }


def _track_deviation(model: str, p, t_grid, plan) -> tuple[float, list]:
    """The largest |RK4 - closed| entry of the pairs (M, d) at the times of
    t_grid, and the RK4 d, on the track that _track_plans planned there."""
    scheme = SCHEMES[model]
    track = oracle.integrate_propagator_track(len(scheme.readout_observable().coeffs), plan)
    return _max([np.max(np.abs(rk - cf)) for t, *pair in zip(t_grid, *track)
                 for rk, cf in zip(pair, scheme.closed_propagator(p, t))]), track[1]


def validation_ledger(params: dict | None = None) -> dict:
    """Compare every transcribed closed form against the numerical oracles.

    Machine-readable report; 'healthy' is False if any adopted closed form
    deviates from the oracle beyond 1e-8.
    """
    params = full_params(params)
    p = cavityless.params_from_ratios(params)
    q = cavity.params_from_ratios(params)
    Th, w = p.Theta, p.omega
    # both RK4 propagator tracks are planned and checked against the step
    # budget before either runs
    t_grid = np.linspace(0.1, 2 * np.pi, 24) / Th
    t_grid_cav = np.linspace(0.2, 4 * np.pi, 24) / q.omega
    [plan] = _track_plans("the ledger's propagator track", "cavityless", [(p, t_grid)])
    [plan_cav] = _track_plans("the ledger's propagator track", "cavity", [(q, t_grid_cav)])
    entries = []

    # --- propagator force terms: trig form vs the published hyperbolic term;
    # the displacements are per unit force, as the sweep columns
    dev_ad, disps = _track_deviation("cavityless", p, t_grid, plan)
    # literal X1 force term per unit f, -[Omega sinh(Theta t) - sin(Omega t)]
    # chi Omega / (Omega^2 - Theta^2): a scalar expression per time, as numpy's
    # array transcendentals can differ from the scalar ones in the last bit
    dev_lit = _max([
        abs(-(w * np.sinh(Th * t) - np.sin(w * t)) * p.chi * w / (w**2 - Th**2) - d_rk[0])
        for t, d_rk in zip(t_grid, disps)
    ])
    entries.append(_ledger_entry(
        "cavityless force response (sinh term)",
        "force displacement of the Stokes amplitude quadrature",
        "chi Omega f [sin(Omega t) - (Omega/Theta) sin(Theta t)]/(Omega^2-Theta^2)",
        "contains Omega sinh(Theta t): grows unboundedly, fails at t=0+",
        dev_ad, dev_lit,
        "hyperbolic term is a misprint of the trigonometric response; the "
        "homogeneous dynamics oscillates at Theta, confirmed by RK4",
    ))

    # --- heterodyne noise: sign of the sinh(2s) terms
    s_chk = 0.7
    tt = np.linspace(0.01, 2 * np.pi, 60) / Th
    dev_ad = _max([
        abs(cavityless.noise(p, t, s_chk, 2.0) - cavityless.noise_literal(p, t, s_chk, 2.0))
        for t in tt
    ])
    dev_lit = _max([
        abs(cavityless.noise(p, t, -s_chk, 2.0) - cavityless.noise_literal(p, t, s_chk, 2.0))
        for t in tt
    ])
    entries.append(_ledger_entry(
        "cavityless heterodyne noise (sinh(2s) sign)",
        "Var(Z_I)(t) closed form vs covariance propagation",
        "meter correlations <a1 a2> < 0 for s > 0 (squeezes X1+X2, Y1-Y2: the "
        "combination read out at Theta t = pi)",
        "the squeezed-vacuum expansion as printed gives <a1 a2> > 0, which "
        "anti-squeezes the measured quadrature at the disentangling time",
        dev_ad, dev_lit,
        "adopted the correlation sign under which the printed noise formula and "
        "the e^{-s} sensitivity gain are both exact; equivalent to s -> -s in "
        "the printed meter state",
    ))

    # --- f_min at Theta t = pi: cosine sign in the denominator; the engine
    # value is the last row of the two-point sweep that sql runs, at each s;
    # the three sweeps share their params and grid, so one track certifies them.
    # At an odd Omega/Theta the signal and the adopted denominator both
    # vanish: two infs agree.
    s_vals = (0.0, 1.0, 5.0)
    dev_ad, dev_lit = [], []
    curves = _sweep_curves(SweepSpec("cavityless", 0.0, cavityless.T_STAR, 2, params=params),
                           [(s, 0.0) for s in s_vals])
    for s, curve in zip(s_vals, curves):
        engine = curve.f_min[-1]
        dev_ad.append(_deviation(engine, cavityless.f_min_at_pi_closed(p, s)))
        dev_lit.append(_deviation(engine, cavityless.f_min_at_pi_literal(p, s)))
    dev_ad, dev_lit = _max(dev_ad), _max(dev_lit)
    entries.append(_ledger_entry(
        "cavityless f_min at Theta t = pi (cosine sign)",
        "minimum detectable force at the disentangling time",
        "denominator 1 + cos(pi Omega/Theta)",
        "denominator 1 - cos(pi Omega/Theta) (vanishes for even Omega/Theta, "
        "consistent with the stated integer-ratio proviso but not with the "
        "signal formula)",
        dev_ad, dev_lit,
        "direct substitution of Theta t = pi into the signal gives 1 + cos; "
        "oracle agrees with the 1 + cos form",
    ))

    # --- cavity noise normalization k
    t0 = 2.0 * np.pi / q.omega
    meter = cavity.MeterSqueezing(1.0, 0.4)
    eng_2pi = cavity.noise(q, t0, meter, 3.0)
    lit_2pi = cavity.noise_literal(q, t0, cavity.MeterSqueezing(1.0, -0.4), 3.0)
    k_meter = lit_2pi / eng_2pi
    # general time: literal = 4 * meter part + 1 * mirror part of the engine
    t1 = 1.7 / q.omega
    eng_meter = cavity.noise(q, t1, meter, 0.0) - cavity._mirror_noise(q, t1, 0.0)
    eng_mirror = cavity._mirror_noise(q, t1, 3.0)
    lit_t1 = cavity.noise_literal(q, t1, cavity.MeterSqueezing(1.0, -0.4), 3.0)
    dev_split = abs(lit_t1 - (4.0 * eng_meter + eng_mirror))
    entries.append(_ledger_entry(
        "cavity homodyne noise normalization",
        "printed Var(Y) vs covariance propagation in the 1/4-vacuum convention",
        "Var(Y) with vacuum variance 1/4 everywhere",
        f"meter terms carry weight k = {k_meter:.12g} (unnormalized a +- a^dag "
        "variances); its mirror terms are already quadrature-normalized "
        f"(term-resolved reconstruction deviation {dev_split:.3g}); squeezing "
        "angle enters reflected (phi -> -phi)",
        abs(k_meter - 4.0),
        dev_split,
        "compute in the 1/4 convention; SNR and f_min compare after "
        "renormalizing signal and noise together (factor 1/2 on f_min)",
    ))

    # --- phi-minimized cavity noise: eigenvalue form vs scan
    devs_scan = []
    for s in s_vals:
        _, n_a = cavity.minimize_noise_over_phi(q, t0, s, 0.0)
        _, n_s = cavity.scan_noise_over_phi(q, t0, s, 0.0)
        devs_scan.append(abs(n_a - n_s))
    dev_scan = _max(devs_scan)
    entries.append(_ledger_entry(
        "cavity phi-minimized noise",
        "analytic eigenvalue minimum vs 1e4-point phi scan at Omega t = 2 pi",
        "(1 + c^2) e^{-2s}/4 with c = 2 pi (2 g alpha/Omega)^2",
        "printed value is 4x the module convention (see normalization entry)",
        dev_scan, dev_scan,
        "both code paths agree; validates the squeezed-state cross covariance",
    ))

    # --- cavity propagator vs RK4
    dev_cav, _ = _track_deviation("cavity", q, t_grid_cav, plan_cav)
    entries.append(_ledger_entry(
        "cavity propagator",
        "closed-form cavity propagator vs RK4 of the Heisenberg equations",
        "secular Y growth (2ga/Omega)^2 [Omega t - sin Omega t], driven mirror rotation",
        "printed signal sign is opposite the equations of motion; readout sign "
        "convention (-Y) absorbs it, |S| unaffected",
        dev_cav, dev_cav,
        "closed form confirmed by RK4 over Omega t in [0, 4 pi]",
    ))

    healthy = all(e["pass"] for e in entries)
    return {"version": __version__, "params": params, "healthy": healthy,
            "entries": entries}
