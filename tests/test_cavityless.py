import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from optoforce import analysis
from optoforce import cavityless as cl
from optoforce import gaussian as g
from optoforce import oracle

import gaussian_helpers as gh

P = cl.CavitylessParams.from_ratios(1.025, 10.3)


def test_from_ratios():
    assert P.chi == 1.0
    assert P.theta == 1.025
    assert_allclose(P.Theta, np.sqrt(1.025**2 - 1.0))
    assert_allclose(P.omega, 10.3 * P.Theta)


def test_param_validation():
    with pytest.raises(ValueError):
        cl.CavitylessParams(chi=0.0, theta=1.0, omega=5.0)
    # theta = chi is refused too: the check is strict
    for theta in (0.9, 1.0):
        with pytest.raises(ValueError,
                           match=r"^theta must exceed chi \(theta/chi > 1 required\)$"):
            cl.CavitylessParams(chi=1.0, theta=theta, omega=5.0)
    with pytest.raises(ValueError):
        cl.CavitylessParams(chi=1.0, theta=1.5, omega=-1.0)
    with pytest.warns(UserWarning, match="validity regime"):
        cl.CavitylessParams(chi=1.0, theta=2.0, omega=2.0)
    # every output is per unit force: the force strength is no field
    with pytest.raises(TypeError):
        cl.CavitylessParams(1.0, 1.1, 5.0, 2.0)


@pytest.mark.parametrize("field", ["chi", "theta", "omega"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_params_name_a_field_that_is_not_finite(field, bad):
    # a NaN compares False with every bound, and an inf theta or omega only
    # warns that the regime is left
    fields = {"chi": 1.0, "theta": 1.5, "omega": 5.0, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        cl.CavitylessParams(**fields)


def test_drift_matrix_structure():
    a = cl.drift_matrix(P)
    # X and Y sectors do not mix
    x_idx, y_idx = [0, 2, 4], [1, 3, 5]
    assert np.all(a[np.ix_(x_idx, y_idx)] == 0.0)
    assert np.all(a[np.ix_(y_idx, x_idx)] == 0.0)
    # the closed-form propagator relies on A^3 = -Theta^2 A
    assert_allclose(a @ a @ a, -P.Theta**2 * a, atol=1e-12)
    # generator of a symplectic flow: A Sigma + Sigma A^T = 0
    sigma = gh.symplectic_form(3)
    assert_allclose(a @ sigma + sigma @ a.T, 0.0, atol=1e-15)


def test_drive_vector():
    c0 = cl.drive_vector(P, 0.0)
    assert_allclose(c0, [0, 0, 0, P.omega, 0, 0])
    t = 0.4
    c = cl.drive_vector(P, t)
    assert_allclose(c[2], -P.omega * np.sin(P.omega * t))
    assert np.all(c[[0, 1, 4, 5]] == 0.0)
    # an array of times gives one drive vector per time
    ts = np.array([0.0, 0.4, 1.3])
    assert_allclose(cl.drive_vector(P, ts), [cl.drive_vector(P, t) for t in ts], rtol=0, atol=1e-15)


def test_closed_propagator_identity_at_zero():
    mat, disp = cl.closed_propagator(P, 0.0)
    assert_allclose(mat, np.eye(6), atol=1e-15)
    assert_allclose(disp, 0.0, atol=1e-15)


def test_closed_propagator_vs_expm():
    t = 2.3
    mat, _ = cl.closed_propagator(P, t)
    assert_allclose(mat, expm(cl.drift_matrix(P) * t), atol=1e-12)


def test_closed_propagator_vs_rk4():
    # [DERIVED] the full affine propagator against the RK4 oracle
    t = np.pi / P.Theta
    spec = oracle.OdeSpec(6, lambda tau: cl.generator(P, tau), t, 20000)
    m_rk, d_rk = oracle.integrate_propagator(spec)
    mat, disp = cl.closed_propagator(P, t)
    # the closed form returns the oracle's pair
    assert (mat.shape, disp.shape) == (m_rk.shape, d_rk.shape) == ((6, 6), (6,))
    assert_allclose(mat, m_rk, atol=1e-9)
    assert_allclose(disp, d_rk, atol=1e-9)


def test_closed_propagator_is_symplectic():
    sigma = gh.symplectic_form(3)
    for tt in np.linspace(0.0, 2 * np.pi, 17):
        m, _ = cl.closed_propagator(P, tt / P.Theta)
        assert np.max(np.abs(m @ sigma @ m.T - sigma)) < 1e-12


def test_degenerate_resonance_rejected():
    # refused when the params are built, after the regime warning
    with pytest.warns(UserWarning, match="validity regime"):
        with pytest.raises(cl.DegenerateResonanceError):
            cl.CavitylessParams(chi=1.0, theta=1.025, omega=np.sqrt(1.025**2 - 1.0))
    with pytest.warns(UserWarning):
        with pytest.raises(cl.DegenerateResonanceError):
            cl.CavitylessParams.from_ratios(1.025, 1.0)


def test_initial_state_layout():
    st = cl.initial_state(0.7, 2.0)
    assert st.n_modes == 3
    # mirror slot (Xb, Yb) is thermal
    assert_allclose(st.cov[2:4, 2:4], (2 * 2.0 + 1) / 4.0 * np.eye(2))
    # sideband correlations reduce Var(Y1 - Y2) for s > 0
    assert st.cov[0, 4] < 0 < st.cov[1, 5]
    y_diff = g.LinearObservable(np.array([0, 1.0, 0, 0, 0, -1.0]))
    assert_allclose(gh.variance(y_diff, st), np.exp(-1.4) / 2.0)
    # no correlation with the mirror
    assert np.all(st.cov[2:4, [0, 1, 4, 5]] == 0.0)


def test_signal_closed_form_and_rk4():
    t = np.pi / 2.0 / P.Theta
    # frozen closed-form value; RK4 oracle gave 0.009703182667916421
    assert_allclose(cl.signal(P, t), 0.009703182667914458, rtol=1e-14)
    assert abs(cl.signal(P, t) - 0.009703182667916421) < 1e-11
    assert cl.signal(P, 0.0) == 0.0


def test_signal_state_independent():
    # the mean displacement never touches the initial covariance
    t = 1.3 / P.Theta
    prop = cl.closed_propagator(P, t)
    z = cl.z_i_observable().coeffs
    for s, n_th in [(0.0, 0.0), (5.0, 300.0), (-2.0, 10.0)]:
        out = gh.apply(prop, cl.initial_state(s, n_th))
        assert_allclose(z @ out.mean, cl.signal(P, t), atol=1e-14)


def test_noise_closed_form_and_rk4():
    t = np.pi / 2.0 / P.Theta
    # frozen; RK4 oracle gave 0.23703456525487354 at 20000 steps
    assert_allclose(cl.noise(P, t, 0.3, 1.0), 0.23703456525297628, rtol=1e-13)
    assert abs(cl.noise(P, t, 0.3, 1.0) - 0.23703456525487354) < 1e-8


def test_noise_matches_literal_closed_form():
    # the published Var(Z_I) formula, with the adopted correlation sign,
    # agrees with covariance propagation everywhere
    for tt in np.linspace(0.05, 2 * np.pi, 23):
        t = tt / P.Theta
        for s, n_th in [(0.0, 0.0), (0.7, 2.0), (5.0, 300.0)]:
            n_engine = cl.noise(P, t, s, n_th)
            n_formula = cl.noise_literal(P, t, s, n_th)
            assert abs(n_engine - n_formula) < 1e-9 * max(1.0, abs(n_engine))


def test_vacuum_noise_at_zero_time():
    assert_allclose(cl.noise(P, 0.0, 0.0, 0.0), 0.5, atol=1e-14)
    # squeezing helps from the start in the measured combination at pi only;
    # at t = 0 the Y1 + Y2 variance is anti-squeezed for s > 0
    assert cl.noise(P, 0.0, 1.0, 0.0) > 0.5


def test_thermal_cancellation_at_pi():
    t = np.pi / P.Theta
    assert abs(cl.noise(P, t, 0.0, 300.0) - cl.noise(P, t, 0.0, 0.0)) < 1e-10
    # frozen residual value: sin^2(Theta t) coefficient at Theta t = pi
    assert cl.noise(P, t, 0.0, 300.0) < 1e-3
    # away from pi the thermal term is large
    t2 = np.pi / 2.0 / P.Theta
    assert cl.noise(P, t2, 0.0, 300.0) > 1.0


def test_snr_and_f_min_consistency():
    # the f_min of a sweep row, and inf where the signal vanishes (t = 0)
    s, n_th = 0.4, 3.0
    curve = analysis.run_sweep(analysis.SweepSpec("cavityless", 0.0, 1.7, 2, s, n_th))
    t = 1.7 / P.Theta
    snr = abs(cl.signal(P, t)) / np.sqrt(cl.noise(P, t, s, n_th))
    assert_allclose(snr * curve.f_min[-1], 1.0, rtol=1e-12)
    assert curve.f_min[0] == np.inf


def f_min_at_pi(s):
    """sqrt(N)/|S| at the disentangling time Theta t = pi, with n_th = 0."""
    t = np.pi / P.Theta
    return np.sqrt(cl.noise(P, t, s, 0.0)) / abs(cl.signal(P, t))


def test_f_min_at_pi_values():
    # frozen engine values at the default parameters
    assert_allclose(f_min_at_pi(0.0), 0.5048645724184414, rtol=1e-13)
    assert_allclose(f_min_at_pi(1.0), 0.18572929676855568, rtol=1e-13)
    # [DERIVED] RK4 oracle value at s = 0: 0.5048645800773479
    assert abs(f_min_at_pi(0.0) - 0.5048645800773479) < 1e-7
    # closed form with the (1 + cos) denominator
    assert_allclose(cl.f_min_at_pi_closed(P, 0.0), 0.5048645724183283, rtol=1e-13)
    assert abs(f_min_at_pi(0.0) - cl.f_min_at_pi_closed(P, 0.0)) < 1e-10
    # the (1 - cos) variant does not match the engine here
    assert abs(cl.f_min_at_pi_literal(P, 0.0) - f_min_at_pi(0.0)) > 0.01


def test_f_min_at_pi_squeezing_gain():
    ratios = [f_min_at_pi(s) / f_min_at_pi(0.0) for s in (1.0, 5.0)]
    # absolute tolerance: the s = 5 noise at Theta t = pi is itself a
    # ~e^{-10} residual of cancelling e^{+10} covariance entries
    assert_allclose(ratios, [np.exp(-1.0), np.exp(-5.0)], atol=1e-9, rtol=0)


def test_z_observables():
    assert_allclose(cl.z_i_observable().coeffs, [0, 1, 0, 0, 0, 1])
    assert cl.readout_observable is cl.z_i_observable
