import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from optoforce import analysis
from optoforce import cavity as cv
from optoforce import cavityless as cl

import gaussian_helpers as gh
import referee
import spectrum_helpers as sh


TIMES = "^tmax_scaled: times must satisfy 0 <= tmin_scaled < tmax_scaled$"


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="^unknown model 'ring'$"):
        analysis.SweepSpec("ring")
    with pytest.raises(ValueError, match="^unknown model 'ring'$"):
        analysis.fig2_curves(models=("ring",))
    for points in (2.5, 41.0):
        with pytest.raises(ValueError, match=rf"^points: must be an integer, got {points}$"):
            analysis.SweepSpec("cavityless", points=points)
    with pytest.raises(ValueError, match="^points: time grid needs at least 2 points$"):
        analysis.SweepSpec("cavity", points=1)
    with pytest.raises(ValueError, match=TIMES):
        analysis.SweepSpec("cavity", tmin_scaled=2.0, tmax_scaled=1.0)
    with pytest.raises(ValueError, match=TIMES):
        analysis.SweepSpec("cavity", tmin_scaled=1.0, tmax_scaled=1.0)
    with pytest.raises(ValueError, match=TIMES):
        analysis.SweepSpec("cavity", tmin_scaled=-1.0)


# the ratio domain, theta/chi > 1 and Omega/Theta > 0, in the CLI's text: every
# entry point refuses it for both models, before any readout and without a
# floating-point warning
THETA = r"^theta_over_chi: theta must exceed chi \(theta/chi > 1 required\)$"
OMEGA = "^omega_over_theta: must be positive$"
RATIO_DOMAIN = [("theta_over_chi", 1.0, THETA), ("theta_over_chi", 0.5, THETA),
                ("omega_over_theta", 0.0, OMEGA), ("omega_over_theta", -2.0, OMEGA)]
ENTRY_POINTS = {
    "run_sweep": lambda model, params: analysis.run_sweep(
        analysis.SweepSpec(model, 0.0, 3.14, 3, params=params)),
    "power_scaling": lambda model, params: analysis.power_scaling(
        analysis.PowerScalingSpec(model, (1.0,), params)),
    "fig2_curves": lambda model, params: analysis.fig2_curves(params, 41, (model,)),
    "validation_ledger": lambda model, params: analysis.validation_ledger(params),
}


@pytest.mark.parametrize("model", sorted(analysis.SCHEMES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("ratio, value, message", RATIO_DOMAIN,
                         ids=[f"{ratio}={value}" for ratio, value, _ in RATIO_DOMAIN])
def test_entry_points_refuse_the_ratio_domain(ratio, value, message, entry, model,
                                              monkeypatch):
    for scheme in analysis.SCHEMES.values():
        monkeypatch.setattr(scheme, "readout", lambda *args: pytest.fail("readout ran"))
    with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
        warnings.simplefilter("error", RuntimeWarning)
        ENTRY_POINTS[entry](model, {ratio: value})


def _not_finite(field, bad):
    """Spec keywords that set field, a spec field or a params ratio, to bad."""
    return {"params": {field: bad}} if field in analysis.DEFAULT_PARAMS else {field: bad}


# the library, not only the CLI, refuses a value that is not finite at
# construction, by name, where it would otherwise end as an overflow of the
# closed forms
@pytest.mark.parametrize("model", sorted(analysis.SCHEMES))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["tmin_scaled", "tmax_scaled", "s", "n_th",
                                   *analysis.DEFAULT_PARAMS])
def test_sweep_spec_names_a_value_that_is_not_finite(model, bad, field):
    with pytest.raises(ValueError, match=f"^{field}: must be finite, got {bad!r}$"):
        analysis.SweepSpec(model, **_not_finite(field, bad))


@pytest.mark.parametrize("model", sorted(analysis.SCHEMES))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["s", *analysis.DEFAULT_PARAMS])
def test_power_scaling_spec_names_a_value_that_is_not_finite(model, bad, field):
    with pytest.raises(ValueError, match=f"^{field}: must be finite, got {bad!r}$"):
        analysis.PowerScalingSpec(model, (1.0,), **_not_finite(field, bad))


# a negative thermal occupation is an invalid input, not a loss of precision
# of the closed forms, nor a nameless n_bar of the meter state
@pytest.mark.parametrize("model", sorted(analysis.SCHEMES))
@pytest.mark.parametrize("params", [{}, {"g_alpha_over_omega": 1.0}])
def test_sweep_spec_names_a_negative_n_th(model, params):
    with pytest.raises(ValueError, match="^n_th: thermal occupation must be nonnegative$"):
        analysis.SweepSpec(model, points=41, n_th=-1.0, params=params)


def test_sweep_spec_merges_params_over_the_defaults():
    spec = analysis.SweepSpec("cavityless", params={"theta_over_chi": 1.1})
    assert spec.params == dict(analysis.DEFAULT_PARAMS, theta_over_chi=1.1)


UNKNOWN_KEYS = [
    (analysis.validation_ledger, {"theta_over_chii": 1.1}),
    (analysis.fig2_curves, {"omega_over_thet": 20.0}),
    (lambda params: analysis.PowerScalingSpec("cavity", (1.0,), params), {"f": 2.0}),
]


@pytest.mark.parametrize("call, params", UNKNOWN_KEYS,
                         ids=[next(iter(params)) for _, params in UNKNOWN_KEYS])
def test_unknown_param_key_is_an_error(call, params):
    with pytest.raises(ValueError, match=f"params: unknown key {next(iter(params))!r}"):
        call(params)


def test_run_sweep_basic():
    spec = analysis.SweepSpec("cavityless", 0.0, np.pi, 41, 0.0, 0.0)
    curve = analysis.run_sweep(spec)
    assert curve.model == "cavityless"
    assert len(curve.t_scaled) == 41
    assert curve.t_scaled[0] == 0.0
    assert_allclose(curve.t_scaled[-1], np.pi)
    # t = 0: no signal yet, vacuum heterodyne noise
    assert curve.signal_per_f[0] == 0.0
    assert curve.f_min[0] == np.inf
    assert curve.snr_per_f[0] == 0.0
    assert_allclose(curve.noise[0], 0.5)
    # records agree with the model module
    p = cl.params_from_ratios(analysis.DEFAULT_PARAMS)
    t20 = curve.t_scaled[20] / p.Theta
    assert_allclose(curve.signal_per_f[20], cl.signal(p, t20), rtol=1e-14)
    f_min_20 = np.sqrt(cl.noise(p, t20, 0.0, 0.0)) / abs(cl.signal(p, t20))
    assert_allclose(curve.f_min[20], f_min_20, rtol=1e-12)
    assert curve.metadata["version"]


def test_run_sweep_deterministic():
    spec = analysis.SweepSpec("cavity", 0.0, 4 * np.pi, 31, 5.0, 300.0)
    a = analysis.run_sweep(spec)
    b = analysis.run_sweep(spec)
    assert np.array_equal(a.f_min, b.f_min)
    assert np.array_equal(a.noise, b.noise)


@pytest.mark.parametrize("model", ["cavityless", "cavity"])
def test_run_sweep_columns_are_the_readout_of_each_point(model):
    # the columns are built without a per-point tuple: they must hold each
    # point's readout bit for bit
    scheme = analysis.SCHEMES[model]
    p = scheme.params_from_ratios(analysis.DEFAULT_PARAMS)
    for s, n_th in [(0.0, 0.0), (0.0, 300.0), (5.0, 0.0), (5.0, 300.0)]:
        curve = analysis.run_sweep(
            analysis.SweepSpec(model, 0.0, 2 * scheme.T_STAR, 401, s, n_th))
        times = curve.t_scaled / scheme.time_unit(p)
        sig, noi = np.array([scheme.readout(p, t, s, n_th) for t in times.tolist()]).T
        assert curve.signal_per_f.shape == curve.noise.shape == (401,)
        assert np.array_equal(curve.signal_per_f, sig) and np.array_equal(curve.noise, noi)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    model=st.sampled_from(sorted(analysis.SCHEMES)),
    theta_over_chi=st.floats(1.01, 2.0),
    omega_over_theta=st.floats(3.2, 100.0),
    g_alpha_over_omega=st.floats(0.01, 2.0),
    s=st.floats(-3.0, 3.0),
    n_th=st.floats(0.0, 300.0),
    t_fraction=st.floats(0.0, 1.0, exclude_min=True),
)
def test_spot_check_passes_across_the_cli_domain(
    model, theta_over_chi, omega_over_theta, g_alpha_over_omega, s, n_th, t_fraction
):
    # a 2-point sweep ending at t in (0, 2 T_STAR] spot-checks its last point:
    # the correct closed forms must pass the RK4 comparison everywhere
    params = dict(analysis.DEFAULT_PARAMS, theta_over_chi=theta_over_chi,
                  omega_over_theta=omega_over_theta,
                  g_alpha_over_omega=g_alpha_over_omega)
    t_stop = t_fraction * 2 * analysis.SCHEMES[model].T_STAR
    analysis.run_sweep(analysis.SweepSpec(model, 0.0, t_stop, 2, s, n_th, params))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    theta_over_chi=st.floats(1.0, 1e50, exclude_min=True),
    omega_over_theta=st.floats(1e-50, 1e50),
    g_alpha_over_omega=st.floats(0.0, 1e100),
    multipliers=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=4),
)
def test_drifts_are_hamiltonian_across_the_cli_domain(theta_over_chi, omega_over_theta,
                                                      g_alpha_over_omega, multipliers):
    # _track_plans refuses a drift whose Hamiltonian defect exceeds 8 eps ||A||:
    # both schemes' drifts, power-scaled too, read exactly 0, so the check never
    # refuses correct code.  No RK4 step runs
    ratios = dict(theta_over_chi=theta_over_chi, omega_over_theta=omega_over_theta,
                  g_alpha_over_omega=g_alpha_over_omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the regime warning
        for scheme in analysis.SCHEMES.values():
            for m in [1.0, *multipliers]:
                try:
                    p = scheme.power_scaled(scheme.params_from_ratios(ratios), m)
                except cl.DegenerateResonanceError:  # Theta = Omega: every command refuses it
                    continue
                assert analysis._hamiltonian_defect(scheme.generator(p, 0.0)[0]) == 0.0, p


def test_hamiltonian_defect_is_the_textbook_form():
    # the defect _track_plans checks, against A^T J + J A with J = 2 Sigma, on
    # drifts that are no Hamiltonian's
    for dim in (4, 6):
        a = np.random.default_rng(dim).standard_normal((dim, dim))
        j = 2.0 * gh.symplectic_form(dim // 2)
        assert analysis._hamiltonian_defect(a) == np.max(np.abs(a.T @ j + j @ a)) > 0.0


def test_spot_check_fails_on_nan(monkeypatch):
    # a NaN in the rows stops at their finiteness check: plant it on the
    # oracle side, in the RK4 mean (the signal) or covariance (the noise)
    p = cl.params_from_ratios(analysis.DEFAULT_PARAMS)
    t_scaled = np.array([1.0])
    args = ("cavityless", [p], (t_scaled / p.Theta).tolist(), [(0.0, 0.0)],
            ("t_scaled", t_scaled), [[0]])
    analysis._certified_rows(*args)
    integrate_moments = analysis.oracle.integrate_moments
    for poisoned in (0, 1):
        def nan_moments(spec, m0, v0):
            moments = list(integrate_moments(spec, m0, v0))
            moments[poisoned] = moments[poisoned] * np.nan
            return tuple(moments)

        monkeypatch.setattr(analysis.oracle, "integrate_moments", nan_moments)
        with pytest.raises(RuntimeError,
                           match=r" t_scaled=1 s=0\.0 n_th=0\.0 deviation=nan"):
            analysis._certified_rows(*args)


@pytest.mark.parametrize("model, s, n_th", [
    pytest.param(model, s, n_th, marks=[pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the noise deviation is relative to "
        "max|cov| ~ e^{2s}/4, which passes a 1.5x noise at s = 5")] if s else [])
    for model in sorted(analysis.SCHEMES) for s, n_th in analysis.FIG2_CASES
])
def test_fig2_spot_checks_certify_the_disentangling_row(model, s, n_th, monkeypatch):
    # a noise 1.5x too large at row 200 alone, the disentangling time of a
    # 401-point fig2 curve, picked by its grid index: the spot-checks must see it
    scheme = analysis.SCHEMES[model]
    p = scheme.params_from_ratios(analysis.DEFAULT_PARAMS)
    t_stop = 2 * scheme.T_STAR
    t_bad = (np.linspace(0.0, t_stop, 401) / scheme.time_unit(p)).tolist()[200]
    readout = scheme.readout

    def wrong_readout(params, t, s, n_th):
        sig, noise = readout(params, t, s, n_th)
        return sig, 1.5 * noise if t == t_bad else noise

    monkeypatch.setattr(scheme, "readout", wrong_readout)
    spec = analysis.SweepSpec(model, 0.0, t_stop, 401, s, n_th)
    with pytest.raises(RuntimeError, match=rf"^oracle spot-check failed: model={model} "
                       rf"t_scaled={scheme.T_STAR:.6g} s={s} n_th={n_th} deviation="):
        analysis.run_sweep(spec)


def _plant_and_count(monkeypatch, bad):
    """Make the cavityless readout 1.5x too noisy at each (row, s, n_th) of
    bad, a row of the 401-point grid to twice the disentangling time, and
    count the oracle's integrate_moments calls in the list it returns."""
    p = cl.params_from_ratios(analysis.DEFAULT_PARAMS)
    times = (np.linspace(0.0, 2 * cl.T_STAR, 401) / p.Theta).tolist()
    bad = {(times[i], s, n_th) for i, s, n_th in bad}
    readout, integrate_moments, calls = cl.readout, analysis.oracle.integrate_moments, []

    def wrong_readout(params, t, s, n_th):
        sig, noise = readout(params, t, s, n_th)
        return sig, 1.5 * noise if (t, s, n_th) in bad else noise

    monkeypatch.setattr(cl, "readout", wrong_readout)
    monkeypatch.setattr(analysis.oracle, "integrate_moments",
                        lambda *args: calls.append(1) or integrate_moments(*args))
    return calls


def test_a_failing_sweep_runs_no_later_segment(monkeypatch):
    # the certificate judges each checked row where its track reaches it: a
    # bad row 100, the second of the checked rows 1, 100, 200, 300 and 400,
    # stops the track after its second segment
    calls = _plant_and_count(monkeypatch, [(100, 0.0, 300.0)])
    with pytest.raises(RuntimeError, match=r"^oracle spot-check failed: model=cavityless "
                       r"t_scaled=1\.5708 s=0\.0 n_th=300\.0 deviation=0\.000298 > 1e-08$"):
        analysis.run_sweep(analysis.SweepSpec("cavityless", 0.0, 2 * cl.T_STAR, 401, 0.0, 300.0))
    assert len(calls) == 2


def test_fig2_names_the_first_failing_row_in_track_order(monkeypatch):
    # two bad (row, meter) pairs: the earlier row is named, whatever its
    # meter's place in FIG2_CASES, and no segment after it runs
    calls = _plant_and_count(monkeypatch, [(100, 5.0, 300.0), (300, 0.0, 0.0)])
    with pytest.raises(RuntimeError, match=r"^oracle spot-check failed: model=cavityless "
                       r"t_scaled=1\.5708 s=5\.0 n_th=300\.0 deviation="):
        analysis.fig2_curves(models=("cavityless",))
    assert len(calls) == 2


@pytest.mark.filterwarnings("error")
def test_run_sweep_rejects_non_finite_values():
    # the rows are finite (e^{-800} is 0, and 0/0 at t = 0 gives an inf f_min),
    # the spot-check's meter state holds e^{800}: GaussianState names it, and
    # numpy warns about none of the overflows before it
    spec = analysis.SweepSpec("cavity", 0.0, np.pi, 11, 400.0, 0.0)
    with pytest.raises(ValueError, match="cov: not finite"):
        analysis.run_sweep(spec)


def test_fig2_curves():
    curves = analysis.fig2_curves(points=41)
    assert len(curves) == 6
    labels = {(c.model, c.s, c.n_th) for c in curves}
    assert ("cavityless", 0.0, 0.0) in labels
    assert ("cavity", 5.0, 300.0) in labels
    for c in curves:
        t_stop = 2 * np.pi if c.model == "cavityless" else 4 * np.pi
        assert_allclose(c.t_scaled[-1], t_stop)


def test_fig2_certifies_each_model_on_one_forward_track(monkeypatch):
    # a model's three curves share one track through their five checked
    # rows: one integrate_moments call per row on a stack of 15 states, 3 of
    # which leave at each row, over segments that add up to the last row's time
    calls = []
    integrate_moments = analysis.oracle.integrate_moments

    def recorded(spec, m0, v0):
        calls.append((spec.t_final, len(m0), len(v0)))
        return integrate_moments(spec, m0, v0)

    monkeypatch.setattr(analysis.oracle, "integrate_moments", recorded)
    analysis.fig2_curves()
    assert len(calls) == 5 * len(analysis.SCHEMES)
    for k, scheme in enumerate(analysis.SCHEMES.values()):
        track = calls[5 * k: 5 * k + 5]
        assert [n for _, n, _ in track] == [n for _, _, n in track] == [15, 12, 9, 6, 3]
        p = scheme.params_from_ratios(analysis.DEFAULT_PARAMS)
        t_last = 2 * scheme.T_STAR / scheme.time_unit(p)
        assert_allclose(sum(t for t, _, _ in track), t_last, rtol=1e-14)


def test_power_scaling_cavity_slopes():
    spec = analysis.PowerScalingSpec("cavity", tuple(np.logspace(-3, 3, 25)))
    table = analysis.power_scaling(spec)
    # shot-noise limited at low power, backaction limited at high power
    assert abs(table["slope_small_power"] + 0.5) < 0.05
    assert abs(table["slope_large_power"] - 0.5) < 0.05
    assert np.all(table["f_min"] > 0.0)
    assert np.all(table["in_regime"])


def test_power_scaling_cavityless_floor():
    spec = analysis.PowerScalingSpec("cavityless", tuple(np.logspace(-2, 2, 21)))
    table = analysis.power_scaling(spec)
    finite = np.isfinite(table["f_min"])
    assert np.all(table["f_min"][finite] > 0.0)
    # high power drives Theta up and out of the validity regime
    assert not np.all(table["in_regime"])
    assert table["in_regime"][0]


def test_power_scaling_overflow_names_the_row_that_overflows():
    # 2 g alpha sqrt(m)/Omega squared is inf only at m = 1e302, and the rows
    # before it are finite
    spec = analysis.PowerScalingSpec("cavity", (0.01, 1.0, 1e302),
                                     {"g_alpha_over_omega": 1e3})
    with pytest.raises(ValueError, match=r"^noise: not finite at power_multiplier=1e\+302 "
                       r"\(model=cavity s=0.0 n_th=0.0\); the inputs overflow the closed "
                       r"forms$"):
        analysis.power_scaling(spec)
    # the square is inf only at m = 100, but c^2 is inf in every row before
    # it: the first bad row is named
    spec = analysis.PowerScalingSpec("cavity", (0.01, 1.0, 100.0),
                                     {"g_alpha_over_omega": 1e153})
    with pytest.raises(ValueError, match=r"^noise: not finite at power_multiplier=0.01 "
                       r"\(model=cavity s=0.0 n_th=0.0\); the inputs overflow"):
        analysis.power_scaling(spec)
    # theta sqrt(m) reaches sqrt(float max), where its square overflows, from
    # m = 1.99526 up: the params of that row cannot be built, and it is named
    spec = analysis.PowerScalingSpec("cavityless", tuple(np.logspace(-2, 2, 41)),
                                     {"theta_over_chi": 1e154, "omega_over_theta": 1.2})
    with pytest.raises(ValueError, match=r"^theta_over_chi: 1e\+154 gives theta sqrt\(m\) = "
                       r"1\.41254e\+154, whose square overflows; theta and Omega must be "
                       r"below 1\.34e\+154 at power_multiplier=1\.99526 "
                       r"\(model=cavityless s=0\.0\)$"), \
            pytest.warns(UserWarning, match="validity regime"):
        analysis.power_scaling(spec)


def test_power_scaling_validation():
    with pytest.raises(ValueError):
        analysis.PowerScalingSpec("cavity", (1.0, -2.0))
    with pytest.raises(ValueError):
        analysis.PowerScalingSpec("ring", (1.0,))
    with pytest.raises(ValueError, match="at least one multiplier"):
        analysis.PowerScalingSpec("cavity", ())
    # NaN compares False with 0 too: the spec, not the params, names it
    for model in analysis.SCHEMES:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="power multipliers must be positive and finite"):
                analysis.PowerScalingSpec(model, (1.0, bad))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    model=st.sampled_from(sorted(analysis.SCHEMES)),
    theta_over_chi=st.floats(1.01, 2.0),
    omega_over_theta=st.floats(3.2, 100.0),
    g_alpha_over_omega=st.floats(0.01, 2.0),
    s=st.just(0.0) | st.floats(-3.0, 3.0),
)
def test_power_scaling_at_unit_power_is_the_sweep_row(
    model, theta_over_chi, omega_over_theta, g_alpha_over_omega, s
):
    # one path: the m = 1 row of power-scaling is the last row of a two-point
    # sweep to the disentangling time, bit for bit; at s = 0 that is sql's f_min
    params = dict(theta_over_chi=theta_over_chi, omega_over_theta=omega_over_theta,
                  g_alpha_over_omega=g_alpha_over_omega)
    table = analysis.power_scaling(analysis.PowerScalingSpec(model, (1.0,), params, s))
    row = analysis.SweepSpec(model, 0.0, analysis.SCHEMES[model].T_STAR, 2, s, 0.0, params)
    assert table["f_min"][0] == analysis.run_sweep(row).f_min[-1]


def test_signal_dominant_frequencies():
    params = analysis.DEFAULT_PARAMS
    p = cl.params_from_ratios(params)
    freqs = sh.signal_dominant_frequencies("cavityless", params)
    assert len(freqs) == 2
    # the two beat frequencies, frozen: [0.22497, 2.31722] ~ (Theta, Omega)
    assert abs(freqs[0] - p.Theta) < 0.01
    assert abs(freqs[1] - p.omega) < 0.01
    freqs_cv = sh.signal_dominant_frequencies("cavity", params)
    assert len(freqs_cv) == 1
    assert abs(freqs_cv[0] - 1.0) < 0.01


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega_over_theta", [7.0, 9.0])
def test_validation_ledger_at_an_odd_omega_over_theta(omega_over_theta):
    # the signal at Theta t = pi and the adopted (1 + cos) denominator both
    # vanish: engine and closed form are both inf, and they agree
    report = analysis.validation_ledger({"omega_over_theta": omega_over_theta})
    assert report["healthy"]
    by_name = {e["formula"]: e for e in report["entries"]}
    entry = by_name["cavityless f_min at Theta t = pi (cosine sign)"]
    assert entry["engine_vs_adopted_max_deviation"] == 0.0
    assert entry["engine_vs_literal_max_deviation"] == np.inf


def test_validation_ledger_tracks_take_the_steps_of_each_segment(monkeypatch):
    # each segment of a ledger track takes the steps of its own span:
    # at g alpha/Omega = 10 the cavity track's first segment, 0 -> 0.2/Omega,
    # stays at the 1000-step floor where its 23 longer ones take 1103; the
    # f_min entry's moment run is told apart by its spec
    runs, moment_specs = [], []
    integrate_propagator = analysis.oracle.integrate_propagator
    integrate_moments = analysis.oracle.integrate_moments

    def recorded(spec):
        runs.append(spec)
        return integrate_propagator(spec)

    def recorded_moments(spec, m0, v0):
        moment_specs.append(spec)
        return integrate_moments(spec, m0, v0)

    monkeypatch.setattr(analysis.oracle, "integrate_propagator", recorded)
    monkeypatch.setattr(analysis.oracle, "integrate_moments", recorded_moments)

    def track_runs(params):
        runs.clear()
        moment_specs.clear()
        assert analysis.validation_ledger(params)["healthy"]
        return [(s.dim, s.n_steps) for s in runs if not any(s is m for m in moment_specs)]

    assert track_runs({"g_alpha_over_omega": 10.0}) == (
        [(6, 1000)] * 24 + [(4, 1000)] + [(4, 1103)] * 23)
    assert track_runs(None) == [(6, 1000)] * 24 + [(4, 1000)] * 24


def _rule_steps(model, p, span):
    """The RK4 steps of a certificate segment, restated: at least 1000, with
    max(||A||, Omega/10) h <= 0.01."""
    norm = np.linalg.norm(analysis.SCHEMES[model].drift_matrix(p), 2)
    return max(1000, int(np.ceil(max(norm, p.omega / 10) * span / 0.01)))


def _fig2_segments(model, params):
    """(params, span) of each segment of a fig2 model's track: 0 to its first
    checked row, then from each checked row to the next."""
    scheme = analysis.SCHEMES[model]
    p = scheme.params_from_ratios(analysis.full_params(params))
    times = np.linspace(0.0, 2 * scheme.T_STAR, 401) / scheme.time_unit(p)
    return [(p, span) for span in np.diff(times[[1, 100, 200, 300, 400]], prepend=0.0)]


def _power_scaling_segments(model, params, multipliers):
    """(params, span) of each row of a power-scaling table: a one-segment
    track from 0 to the row's disentangling time."""
    scheme = analysis.SCHEMES[model]
    base = scheme.params_from_ratios(analysis.full_params(params))
    rows = [scheme.power_scaled(base, m) for m in multipliers]
    return [(p, scheme.T_STAR / scheme.time_unit(p)) for p in rows]


# Omega/Theta = 100 lifts the cavityless segments above the 1000-step floor
# through Omega/10, and g alpha/Omega = 10 the cavity's through ||A||
STEP_PARAMS = {"omega_over_theta": 100.0, "g_alpha_over_omega": 10.0}
MULTIPLIERS = (0.01, 0.1, 1.0, 10.0, 100.0)


@pytest.mark.parametrize("model", sorted(analysis.SCHEMES))
@pytest.mark.parametrize("kind", ["fig2", "power-scaling"])
def test_certificate_segments_take_the_steps_of_the_rule(monkeypatch, kind, model):
    # every integrate_moments run of a certificate takes the rule's steps on
    # its own params and span: a rule that gives too many steps, or a plan
    # that reads another row's params, fails here
    specs = []
    integrate_moments = analysis.oracle.integrate_moments

    def recorded(spec, m0, v0):
        specs.append(spec)
        return integrate_moments(spec, m0, v0)

    monkeypatch.setattr(analysis.oracle, "integrate_moments", recorded)
    if kind == "fig2":
        analysis.fig2_curves(STEP_PARAMS, models=(model,))
        segments = _fig2_segments(model, STEP_PARAMS)
    else:
        analysis.power_scaling(analysis.PowerScalingSpec(model, MULTIPLIERS, STEP_PARAMS))
        segments = _power_scaling_segments(model, STEP_PARAMS, MULTIPLIERS)
    assert len(specs) == len(segments)
    assert_allclose([s.t_final for s in specs], [span for _, span in segments], rtol=1e-15)
    steps = [s.n_steps for s in specs]
    assert steps == [_rule_steps(model, p, s.t_final) for (p, _), s in zip(segments, specs)]
    assert max(steps) > 1000


# correct code that the ledger calls UNHEALTHY: each entry is judged against
# the absolute 1e-8 bound
LEDGER_FALSE_ALARMS = [
    pytest.param({"theta_over_chi": 1.0005}, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP items 1 and 14: the entries of M reach ~1/Theta^2 ~ 1e3, "
        "and the force response's RK4 rounding, ~1.4e-7, grows with the step count"),
        id="theta_over_chi=1.0005"),
    pytest.param({"g_alpha_over_omega": 40.0}, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP items 1 and 14: the phi scan's rounding of a noise "
        "near 4e8, ~1.8e-7, is ~4e-16 relative"),
        id="g_alpha_over_omega=40"),
    pytest.param({"omega_over_theta": 400.0}, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4: the Omega h <= 0.1 rule of _track_plans leaves "
        "~1.1e-7 of RK4 truncation in the force response over ~400 drive periods"),
        id="omega_over_theta=400"),
]


@pytest.mark.parametrize("params", LEDGER_FALSE_ALARMS)
def test_validation_ledger_is_healthy_on_correct_code(params):
    assert analysis.validation_ledger(params)["healthy"]


# the diagnosis of each false alarm above, against the 50-digit referee
@pytest.mark.parametrize("params", [{"theta_over_chi": 1.0005}, {"omega_over_theta": 400.0}],
                         ids=["theta_over_chi=1.0005", "omega_over_theta=400"])
def test_ledger_force_response_false_alarm_is_the_rk4_track(monkeypatch, params):
    # at the worst row of the ledger's cavityless track and two others the
    # closed (M, d) is the referee's, and the RK4 track is the side that
    # carries the ledger's deviation
    tracks = []
    integrate_track = analysis.oracle.integrate_propagator_track
    monkeypatch.setattr(analysis.oracle, "integrate_propagator_track",
                        lambda specs: tracks.append(integrate_track(specs)) or tracks[-1])
    by_name = {e["formula"]: e for e in analysis.validation_ledger(params)["entries"]}
    deviation = by_name["cavityless force response (sinh term)"]["engine_vs_adopted_max_deviation"]
    assert deviation > analysis.SPOT_CHECK_TOL

    p = cl.params_from_ratios(analysis.full_params(params))
    t_grid = np.linspace(0.1, 2 * np.pi, 24) / p.Theta  # the ledger's grid
    rk4 = list(zip(*tracks[0]))  # the cavityless track runs first
    closed = [cl.closed_propagator(p, t) for t in t_grid]

    def dev(pair, other):
        return max(np.max(np.abs(a - b)) for a, b in zip(pair, other))

    devs = [dev(rk, cf) for rk, cf in zip(rk4, closed)]
    assert max(devs) == deviation
    worst = int(np.argmax(devs))
    for i in [worst] + [i for i in (0, 12, 23) if i != worst][:2]:
        exact = referee.cavityless_propagator(p, t_grid[i])
        bound = 1e-12 * max(1.0, np.max(np.abs(exact[0])))
        assert dev(closed[i], exact) <= bound
        if i == worst:
            assert abs(dev(rk4[i], exact) - deviation) <= bound


def test_ledger_phi_minimum_false_alarm_is_the_scan_rounding():
    # at g alpha/Omega = 40 the scan and the closed phi-minimum of the ledger
    # agree to 1e-14 relative; only the absolute bound calls them apart
    q = cv.params_from_ratios(analysis.full_params({"g_alpha_over_omega": 40.0}))
    t0 = 2.0 * np.pi / q.omega
    devs = []
    for s in (0.0, 1.0, 5.0):
        _, closed = cv.minimize_noise_over_phi(q, t0, s, 0.0)
        _, scan = cv.scan_noise_over_phi(q, t0, s, 0.0)
        assert abs(scan - closed) <= 1e-14 * closed
        devs.append(abs(scan - closed))
    assert max(devs) > analysis.SPOT_CHECK_TOL


def test_validation_ledger():
    report = analysis.validation_ledger()
    assert report["healthy"]
    assert len(report["entries"]) == 6
    for entry in report["entries"]:
        assert entry["pass"]
        assert entry["engine_vs_adopted_max_deviation"] < analysis.SPOT_CHECK_TOL
        assert entry["resolution"]
    by_name = {e["formula"]: e for e in report["entries"]}
    # the rejected variants really are wrong, by large margins
    assert by_name["cavityless force response (sinh term)"][
        "engine_vs_literal_max_deviation"] > 1.0
    assert by_name["cavityless heterodyne noise (sinh(2s) sign)"][
        "engine_vs_literal_max_deviation"] > 0.1
    assert by_name["cavityless f_min at Theta t = pi (cosine sign)"][
        "engine_vs_literal_max_deviation"] > 0.1
    # the published cavity meter terms are 4x the 1/4-vacuum convention
    assert by_name["cavity homodyne noise normalization"][
        "engine_vs_adopted_max_deviation"] < 1e-10
