import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from optoforce import analysis
from optoforce import cavityless as cl


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        analysis.SweepSpec("ring")
    with pytest.raises(ValueError):
        analysis.SweepSpec("cavity", n_points=1)
    with pytest.raises(ValueError):
        analysis.SweepSpec("cavity", t_start=2.0, t_stop=1.0)


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
    assert_allclose(curve.f_min[20], cl.f_min(p, t20, 0.0, 0.0), rtol=1e-12)
    assert curve.metadata["version"]


def test_run_sweep_deterministic():
    spec = analysis.SweepSpec("cavity", 0.0, 4 * np.pi, 31, 5.0, 300.0)
    a = analysis.run_sweep(spec)
    b = analysis.run_sweep(spec)
    assert np.array_equal(a.f_min, b.f_min)
    assert np.array_equal(a.noise, b.noise)


@pytest.mark.parametrize("model", ["cavityless", "cavity"])
def test_run_sweep_spot_check_catches_wrong_closed_form(model, monkeypatch):
    # sabotage the closed-form signal on the module, after import: the sweep
    # looks it up at call time, and the RK4 spot check must abort the run
    monkeypatch.setattr(analysis.SCHEMES[model], "signal", lambda p, t: 0.123)
    spec = analysis.SweepSpec(model, 0.0, np.pi, 11, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="spot-check"):
        analysis.run_sweep(spec)


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


def test_spot_check_fails_on_nan():
    p = cl.params_from_ratios(analysis.DEFAULT_PARAMS)
    t = np.array([1.0 / p.Theta])
    sig, noise = cl.readout(p, t[0], 0.0, 0.0)
    analysis._spot_check("cavityless", p, t, 0.0, 0.0, [sig], [noise])
    for bad in ([np.nan], [noise]), ([sig], [np.nan]):
        with pytest.raises(RuntimeError, match="deviation=nan"):
            analysis._spot_check("cavityless", p, t, 0.0, 0.0, *bad)


@pytest.mark.filterwarnings("error")
def test_run_sweep_rejects_non_finite_values():
    # _f_min names the value; numpy warns about none of the overflows before it
    spec = analysis.SweepSpec("cavity", 0.0, np.pi, 11, 400.0, 0.0)
    with pytest.raises(ValueError, match="noise: not finite"):
        analysis.run_sweep(spec)


def test_fig2_curves():
    curves = analysis.fig2_curves(n_points=41)
    assert len(curves) == 6
    labels = {(c.model, c.s, c.n_th) for c in curves}
    assert ("cavityless", 0.0, 0.0) in labels
    assert ("cavity", 5.0, 300.0) in labels
    for c in curves:
        t_stop = 2 * np.pi if c.model == "cavityless" else 4 * np.pi
        assert_allclose(c.t_scaled[-1], t_stop)


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


def test_power_scaling_validation():
    with pytest.raises(ValueError):
        analysis.PowerScalingSpec("cavity", (1.0, -2.0))
    with pytest.raises(ValueError):
        analysis.PowerScalingSpec("ring", (1.0,))


def test_signal_dominant_frequencies():
    params = analysis.DEFAULT_PARAMS
    p = cl.params_from_ratios(params)
    freqs = analysis.signal_dominant_frequencies("cavityless", params)
    assert len(freqs) == 2
    # the two beat frequencies, frozen: [0.22497, 2.31722] ~ (Theta, Omega)
    assert abs(freqs[0] - p.Theta) < 0.01
    assert abs(freqs[1] - p.omega) < 0.01
    freqs_cv = analysis.signal_dominant_frequencies("cavity", params)
    assert len(freqs_cv) == 1
    assert abs(freqs_cv[0] - 1.0) < 0.01


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
