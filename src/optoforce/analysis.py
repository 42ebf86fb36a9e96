"""Parameter sweeps, power scaling and the validation ledger."""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__, cavity, cavityless, oracle

SPOT_CHECK_TOL = 1e-8
SPOT_CHECKS_PER_CURVE = 5

#: Most RK4 steps that one oracle certificate may take: the spot-checks of one
#: sweep, or one propagator track of the validation ledger.  About 10 s at the
#: oracle's ~1e6 steps/s; at the CLI defaults a sweep's spot-checks take at
#: most 2.0e4 steps and a ledger track 2.4e4.
RK4_STEP_BUDGET = 10_000_000

FIG2_CASES = [(0.0, 0.0), (0.0, 300.0), (5.0, 300.0)]

# the sampling and the peak threshold of signal_dominant_frequencies
SPECTRUM_CYCLES = 40.0
SPECTRUM_SAMPLES = 8192
SPECTRUM_PEAK_FRACTION = 0.1

#: The ratios of both schemes' params; f is no input, every output is per unit f
DEFAULT_PARAMS = {
    "theta_over_chi": 1.025,
    "omega_over_theta": 10.3,
    "g_alpha_over_omega": 0.2,
}


#: The two measurement schemes.  Each module supplies the same names:
#: params_from_ratios, time_unit, T_STAR (the scaled disentangling time),
#: signal, readout, meter_state, readout_observable, generator, power_scaled
#: and in_regime.  Callers look them up on the
#: module at call time, so that a wrapper or patch set on the module later is
#: seen.  The oracle side of a spot-check takes only generator, meter_state and
#: readout_observable from a scheme, never its closed forms.
SCHEMES = {"cavityless": cavityless, "cavity": cavity}


def full_params(params: dict | None) -> dict:
    """DEFAULT_PARAMS updated by params; a key not in DEFAULT_PARAMS is a ValueError."""
    unknown = sorted(set(params or {}) - set(DEFAULT_PARAMS))
    if unknown:
        raise ValueError(f"params: unknown key {unknown[0]!r}; the keys are "
                         f"{', '.join(DEFAULT_PARAMS)}")
    return {**DEFAULT_PARAMS, **(params or {})}


@dataclass(frozen=True)
class SweepSpec:
    """One curve at (s, n_th) over a grid of scaled time (Theta*t or Omega*t)."""

    model: str
    t_start: float = 0.0
    t_stop: float = 2.0 * np.pi
    n_points: int = 401
    s: float = 0.0
    n_th: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", full_params(self.params))
        if self.model not in SCHEMES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n_points < 2:
            raise ValueError("time grid needs at least 2 points")
        if self.t_start < 0 or self.t_stop <= self.t_start:
            raise ValueError("times must be nonnegative and increasing")


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


def _rk4_steps(gen, omega: float, dt: float) -> int:
    """RK4 steps over a time span dt, at least 1000.

    Covariance entries reach ~e^{2s}(2 n_th + 1)/4; ||A|| h <= 0.01 keeps the
    O(h^4) error below the absolute tolerance, and Omega h <= 0.1 resolves the
    drive c(t) at the mirror frequency Omega too."""
    norm = np.linalg.norm(gen(0.0)[0], 2)
    return max(1000, int(np.ceil(max(norm, omega / 10) * dt / 0.01)))


def _check_step_budget(n_steps: int, check: str, model: str, p, t_final: float) -> None:
    """Raise StepBudgetError, naming the inputs, if n_steps exceeds RK4_STEP_BUDGET."""
    if n_steps > RK4_STEP_BUDGET:
        raise StepBudgetError(
            f"rk4 steps: {check} to t={t_final:.6g} would take {n_steps:.3g} RK4 "
            f"steps, over the budget of {RK4_STEP_BUDGET:.3g} (model={model} {p}); "
            "the oracle cannot certify a time span this long at these parameters"
        )


def _spot_check(model: str, params, times, s: float, n_th: float, signal_per_f, noise) -> None:
    """The RK4 oracle's moments at a few times, each with its own params,
    against the values computed there; aborts on disagreement, and before any
    RK4 step if the checks together would exceed RK4_STEP_BUDGET."""
    scheme = SCHEMES[model]
    obs = scheme.readout_observable().coeffs
    gens = [lambda t, p=p: scheme.generator(p, t) for p in params]
    steps = [_rk4_steps(gen, p.omega, t) for gen, p, t in zip(gens, params, times)]
    # the error names the longest check (of equal ones, the latest)
    i = max(range(len(steps)), key=lambda k: (steps[k], times[k]))
    _check_step_budget(sum(steps), "the spot-checks", model, params[i], times[i])
    for p, gen, t, n_steps, sig_cf, noise_cf in zip(params, gens, times, steps,
                                                     signal_per_f, noise):
        m0 = scheme.meter_state(p, t, s, n_th)
        spec = oracle.OdeSpec(len(obs), gen, t, n_steps)
        mean, cov = oracle.integrate_moments(spec, m0.mean, m0.cov)
        sig_rk = float(obs @ mean)
        noise_rk = float(obs @ cov @ obs)
        # the RK4 truncation error scales with the largest covariance entry
        # (~e^{2|s|}(2 n_th + 1)/4), which can dwarf the readout variance
        # when the optimized angle squeezes the measured direction; compare
        # relative to that scale
        noise_scale = max(1.0, abs(noise_cf), float(np.max(np.abs(cov))))
        dev = _max([abs(sig_rk - sig_cf), abs(noise_rk - noise_cf) / noise_scale])
        if not dev <= SPOT_CHECK_TOL:
            raise RuntimeError(
                f"oracle spot-check failed: model={model} t={t:.6g} s={s} "
                f"n_th={n_th} deviation={dev:.3g} > {SPOT_CHECK_TOL}"
            )


def _f_min(model: str, t_scaled, sig, noi, s: float, n_th: float):
    """(f_min, snr) per unit f from the closed-form signal/f and noise at the
    scaled times; raises ValueError naming the first value that is not finite
    or is a negative variance."""
    overflow = "the inputs overflow the closed forms"
    for name, bad, what, why in (
        ("signal_per_f", ~np.isfinite(sig), "not finite", overflow),
        ("noise", ~np.isfinite(noi), "not finite", overflow),
        ("noise", noi < 0, "negative", "the closed forms lose their precision"),
    ):
        bad = np.flatnonzero(bad)
        if bad.size:
            raise ValueError(
                f"{name}: {what} at t_scaled={t_scaled[bad[0]]:.6g} "
                f"(model={model} s={s} n_th={n_th}); {why}"
            )
    with np.errstate(divide="ignore"):
        fmin = np.where(sig != 0.0, np.sqrt(noi) / np.abs(sig), np.inf)
        snr = np.where(np.isfinite(fmin), 1.0 / fmin, 0.0)
    return fmin, snr


def run_sweep(spec: SweepSpec) -> SensitivityCurve:
    """The curve of spec, oracle-spot-checked at a few grid points."""
    scheme = SCHEMES[spec.model]
    p = scheme.params_from_ratios(spec.params)
    t_scaled = np.linspace(spec.t_start, spec.t_stop, spec.n_points)
    times = t_scaled / scheme.time_unit(p)
    s, n_th = spec.s, spec.n_th

    sig = np.empty(spec.n_points)
    noi = np.empty(spec.n_points)
    # _f_min names every value that is not finite: numpy's warnings about
    # them would only repeat it.  Python floats are the same IEEE doubles as
    # the grid's, with cheaper scalar arithmetic.
    with np.errstate(all="ignore"):
        for i, t in enumerate(times.tolist()):
            sig[i], noi[i] = scheme.readout(p, t, s, n_th)
    fmin, snr = _f_min(spec.model, t_scaled, sig, noi, s, n_th)
    rng = np.random.default_rng(zlib.crc32(f"{spec.model}/{s}/{n_th}".encode()))
    idx = np.sort(rng.choice(
        np.arange(1, spec.n_points),
        size=min(SPOT_CHECKS_PER_CURVE, spec.n_points - 1),
        replace=False,
    ))
    _spot_check(spec.model, [p] * idx.size, times[idx], s, n_th, sig[idx], noi[idx])
    return SensitivityCurve(
        spec.model, s, n_th, dict(spec.params), t_scaled, sig, noi, snr, fmin
    )


def fig2_curves(
    params: dict | None = None, n_points: int = 401, models=tuple(SCHEMES)
) -> list[SensitivityCurve]:
    """The Fig.-2 style curves, (s, n_th) in the caption triple, to twice the
    disentangling time: six with both models."""
    return [
        run_sweep(SweepSpec(model, 0.0, 2 * SCHEMES[model].T_STAR, n_points, s, n_th, params))
        for model in models
        for s, n_th in FIG2_CASES
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


def power_scaling(spec: PowerScalingSpec) -> dict:
    """f_min at the disentangling time versus power multiplier, with end slopes.

    Cavityless: chi, theta -> sqrt(m) (chi0, theta0) at fixed theta/chi and
    fixed mirror frequency, evaluated at Theta(m) t = pi; points with
    omega^2/Theta^2 < 10 are flagged out-of-regime but kept.  Cavity:
    g*alpha -> sqrt(m) (g*alpha)0 at Omega t = 2 pi.  Each row is a sweep row
    at n_th = 0: readout, checked by _f_min, and the whole table spot-checked
    against the RK4 oracle as one certificate.
    """
    mult = np.asarray(sorted(spec.multipliers), dtype=float)
    scheme = SCHEMES[spec.model]
    base = scheme.params_from_ratios(spec.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = [scheme.power_scaled(base, m) for m in mult]
    in_regime = np.array([scheme.in_regime(p) for p in params], dtype=bool)
    times = [scheme.T_STAR / scheme.time_unit(p) for p in params]
    with np.errstate(all="ignore"):  # as in run_sweep: _f_min names the value
        sig, noi = np.array([scheme.readout(p, t, spec.s, 0.0)
                             for p, t in zip(params, times)]).T
    fmin, _ = _f_min(spec.model, np.full_like(mult, scheme.T_STAR), sig, noi, spec.s, 0.0)
    _spot_check(spec.model, params, times, spec.s, 0.0, sig, noi)

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


def signal_dominant_frequencies(model: str, params: dict) -> np.ndarray:
    """Dominant angular frequencies in the signal's oscillatory part.

    Samples signal(t) over SPECTRUM_CYCLES half-periods of the slower
    frequency, removes the linear trend, Hann-windows and FFTs; returns the
    frequencies of local spectral maxima above SPECTRUM_PEAK_FRACTION of the
    global maximum.  The cavityless signal beats at both Theta and Omega; the
    cavity signal only at Omega.
    """
    scheme = SCHEMES[model]
    p = scheme.params_from_ratios(full_params(params))
    t_max = SPECTRUM_CYCLES * np.pi / scheme.time_unit(p)
    t = np.linspace(0.0, t_max, SPECTRUM_SAMPLES)
    y = scheme.signal(p, t)
    y = y - np.polyval(np.polyfit(t, y, 1), t)
    spectrum = np.abs(np.fft.rfft(y * np.hanning(SPECTRUM_SAMPLES)))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(SPECTRUM_SAMPLES, d=t[1] - t[0])
    peak = spectrum.max()
    is_max = (spectrum[1:-1] > spectrum[:-2]) & (spectrum[1:-1] > spectrum[2:])
    keep = is_max & (spectrum[1:-1] > SPECTRUM_PEAK_FRACTION * peak)
    return freqs[1:-1][keep]


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


def _plan_track(model: str, p, t_grid):
    """A function that returns the RK4 propagators of the model at each time
    of the sorted t_grid, in one forward pass whose segments all take the
    _rk4_steps of the longest one.  Raises StepBudgetError here, before any
    RK4 step, if the pass would exceed RK4_STEP_BUDGET."""
    scheme = SCHEMES[model]
    gen = lambda tau: scheme.generator(p, tau)
    dt = float(np.max(np.diff(t_grid, prepend=0.0)))
    n_sub = _rk4_steps(gen, p.omega, dt)
    _check_step_budget(len(t_grid) * n_sub, "the ledger's propagator track", model, p,
                       float(t_grid[-1]))
    dim = len(scheme.readout_observable().coeffs)
    return lambda: oracle.integrate_propagator_track(dim, gen, t_grid, n_sub)


def validation_ledger(params: dict | None = None) -> dict:
    """Compare every transcribed closed form against the numerical oracles.

    Machine-readable report; 'healthy' is False if any adopted closed form
    deviates from the oracle beyond 1e-8.
    """
    params = full_params(params)
    p = cavityless.params_from_ratios(params)
    q = cavity.params_from_ratios(params)
    # the ledger's last cavity time: inputs that overflow the cavity closed
    # forms stop here, before any RK4 entry is integrated
    cavity.closed_propagator(q, 4 * np.pi / q.omega)
    Th, w = p.Theta, p.omega
    # both RK4 tracks are checked against the step budget before either runs
    t_grid = np.linspace(0.1, 2 * np.pi, 24) / Th
    t_grid_cav = np.linspace(0.2, 4 * np.pi, 24) / q.omega
    run_track = _plan_track("cavityless", p, t_grid)
    run_track_cav = _plan_track("cavity", q, t_grid_cav)
    entries = []

    # --- propagator force terms: trig form vs the published hyperbolic term;
    # at f = 1 the displacements are per unit force, as the sweep columns
    mats, disps = run_track()
    devs_ad, devs_lit = [], []
    for t, m_rk, d_rk in zip(t_grid, mats, disps):
        prop = cavityless.closed_propagator(p, t)
        devs_ad += [np.max(np.abs(m_rk - prop.mat)),
                    np.max(np.abs(d_rk - prop.disp))]
        # literal X1 force term per unit f:
        # -[Omega sinh(Theta t) - sin(Omega t)] chi Omega / (Omega^2 - Theta^2)
        lit_x1 = -(w * np.sinh(Th * t) - np.sin(w * t)) * p.chi * w / (w**2 - Th**2)
        devs_lit.append(abs(lit_x1 - d_rk[0]))
    dev_ad, dev_lit = _max(devs_ad), _max(devs_lit)
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
    # value is a sweep row's, _f_min of readout.  At an odd Omega/Theta the
    # signal and the adopted denominator both vanish: two infs agree.
    s_vals = (0.0, 1.0, 5.0)
    t_pi = np.array([cavityless.T_STAR])
    dev_ad, dev_lit = [], []
    for s in s_vals:
        sig, noi = cavityless.readout(p, cavityless.T_STAR / Th, s, 0.0)
        (engine,), _ = _f_min("cavityless", t_pi, np.array([sig]), np.array([noi]), s, 0.0)
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
    mats, disps = run_track_cav()
    devs_cav = []
    for t, m_rk, d_rk in zip(t_grid_cav, mats, disps):
        prop = cavity.closed_propagator(q, t)
        devs_cav += [np.max(np.abs(m_rk - prop.mat)),
                     np.max(np.abs(d_rk - prop.disp))]
    dev_cav = _max(devs_cav)
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
