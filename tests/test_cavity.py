import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from optoforce import cavity as cv
from optoforce import gaussian as g
from optoforce import oracle

Q = cv.CavityParams.from_ratios(0.2)


def test_params():
    assert Q.g_alpha == 0.2
    assert Q.omega == 1.0
    assert_allclose(Q.r, 0.4)
    with pytest.raises(ValueError):
        cv.CavityParams(g_alpha=1.0, omega=0.0)
    with pytest.raises(ValueError):
        cv.CavityParams(g_alpha=np.inf, omega=1.0)
    with pytest.raises(ValueError):
        cv.MeterSqueezing(np.nan, 0.0)


def test_drift_matrix_structure():
    a = cv.drift_matrix(Q)
    # Xa is a constant of motion
    assert np.all(a[0] == 0.0)
    # generator of a symplectic flow
    sigma = g.symplectic_form(2)
    assert_allclose(a @ sigma + sigma @ a.T, 0.0, atol=1e-15)
    c = cv.drive_vector(Q, 0.7)
    assert_allclose(c, [0.0, 0.0, 0.0, Q.omega * Q.force])
    assert_allclose(cv.drive_vector(Q, np.array([0.0, 0.7])), [c, c], rtol=0, atol=0)


def test_closed_propagator_vs_expm_and_rk4():
    t = np.pi / Q.omega
    prop = cv.closed_propagator(Q, t)
    assert_allclose(prop.mat, expm(cv.drift_matrix(Q) * t), atol=1e-12)
    spec = oracle.OdeSpec(4, lambda tau: cv.generator(Q, tau), t, 4000)
    m_rk, d_rk = oracle.integrate_propagator(spec)
    assert_allclose(prop.mat, m_rk, atol=1e-10)
    assert_allclose(prop.disp, d_rk, atol=1e-10)


def test_closed_propagator_is_symplectic():
    sigma = g.symplectic_form(2)
    for wt in np.linspace(0.0, 4 * np.pi, 17):
        m = cv.closed_propagator(Q, wt / Q.omega).mat
        assert np.max(np.abs(m @ sigma @ m.T - sigma)) < 1e-12


def test_amplitude_quadrature_conserved():
    for wt in (0.5, np.pi, 7.0):
        prop = cv.closed_propagator(Q, wt / Q.omega)
        assert_allclose(prop.mat[0], [1.0, 0.0, 0.0, 0.0])
        assert prop.disp[0] == 0.0


def test_signal_values():
    # frozen: at Omega t = 2 pi the signal is r * 2 pi
    assert_allclose(cv.signal(Q, 2 * np.pi / Q.omega), 2.5132741228718345,
                    rtol=1e-14)
    # [DERIVED] RK4 oracle at Omega t = pi gave 1.256637061435913
    assert abs(cv.signal(Q, np.pi / Q.omega) - 1.256637061435913) < 1e-11
    assert cv.signal(Q, 0.0) == 0.0


def test_signal_nondecreasing_and_state_independent():
    ts = np.linspace(0.0, 4 * np.pi, 200) / Q.omega
    vals = np.array([cv.signal(Q, t) for t in ts])
    assert np.all(np.diff(vals) >= -1e-12)
    y = cv.readout_observable().coeffs
    t = 1.9 / Q.omega
    prop = cv.closed_propagator(Q, t)
    for s, phi, n_th in [(0.0, 0.0, 0.0), (5.0, 1.0, 300.0), (-1.0, 2.0, 3.0)]:
        out = g.apply(prop, cv.initial_state(cv.MeterSqueezing(s, phi), n_th))
        assert_allclose(y @ out.mean, cv.signal(Q, t), atol=1e-12)


def test_noise_vs_rk4():
    t = np.pi / Q.omega
    meter = cv.MeterSqueezing(0.5, 0.3)
    # frozen closed-form value; RK4 oracle gave 1.2976840395801337
    assert_allclose(cv.noise(Q, t, meter, 2.0), 1.2976840395801394, rtol=1e-13)
    assert abs(cv.noise(Q, t, meter, 2.0) - 1.2976840395801337) < 1e-10


def test_noise_vacuum_at_zero_time():
    assert_allclose(cv.noise(Q, 0.0, cv.MeterSqueezing(), 300.0), 0.25,
                    atol=1e-14)


def test_thermal_cancellation_at_2pi():
    t = 2 * np.pi / Q.omega
    meter = cv.MeterSqueezing(0.0, 0.0)
    assert abs(cv.noise(Q, t, meter, 300.0) - cv.noise(Q, t, meter, 0.0)) < 1e-10
    # mid-cycle the mirror noise dominates
    assert cv.noise(Q, np.pi / Q.omega, meter, 300.0) > 10.0


def test_noise_literal_normalization():
    # the published formula carries k = 4 on the meter terms and a
    # reflected squeezing angle; its mirror terms are already normalized
    t = 1.7 / Q.omega
    meter = cv.MeterSqueezing(1.0, 0.4)
    eng_meter = cv.noise(Q, t, meter, 0.0) - cv._mirror_noise(Q, t, 0.0)
    lit = cv.noise_literal(Q, t, cv.MeterSqueezing(1.0, -0.4), 3.0)
    assert abs(lit - (4.0 * eng_meter + cv._mirror_noise(Q, t, 3.0))) < 1e-12


def test_minimize_noise_over_phi_matches_scan():
    for wt in (1.3, 2 * np.pi, 7.0):
        for s in (0.0, 1.0, 5.0):
            for n_th in (0.0, 0.5, 300.0):
                phi_a, n_a = cv.minimize_noise_over_phi(Q, wt / Q.omega, s, n_th)
                phi_s, n_s = cv.scan_noise_over_phi(Q, wt / Q.omega, s, n_th)
                assert abs(n_a - n_s) < 1e-8
                assert n_a <= n_s + 1e-12
    # frozen optimum at s = 1
    phi_a, n_a = cv.minimize_noise_over_phi(Q, 2 * np.pi / Q.omega, 1.0, 0.0)
    assert_allclose(phi_a, 0.7827503744424058, rtol=1e-12)
    assert_allclose(n_a, 0.06802788690975436, rtol=1e-12)


def test_minimized_noise_closed_structure():
    t = 2 * np.pi / Q.omega
    c = 2 * np.pi * Q.r**2
    for s in (0.0, 1.0, 5.0):
        _, n_min = cv.minimize_noise_over_phi(Q, t, s, 0.0)
        assert abs(n_min - 0.25 * (1 + c**2) * np.exp(-2 * s)) < 1e-10


def test_minimize_is_lower_envelope():
    t = 1.3 / Q.omega
    _, n_min = cv.minimize_noise_over_phi(Q, t, 0.8, 0.5)
    for phi in np.linspace(0.0, np.pi, 37):
        assert cv.noise(Q, t, cv.MeterSqueezing(0.8, phi), 0.5) >= n_min - 1e-12


def test_f_min():
    assert cv.f_min(Q, 0.0, cv.MeterSqueezing(), 0.0) == np.inf
    # frozen sensitivity at the decorrelation time
    assert_allclose(cv.f_min_2pi(Q, 0.0), 0.28209676949637014, rtol=1e-13)
    assert_allclose(cv.f_min_2pi(Q, 1.0), 0.10377760191859384, rtol=1e-13)
    # squeezing gain e^{-s}
    assert_allclose(cv.f_min_2pi(Q, 5.0) / cv.f_min_2pi(Q, 0.0), np.exp(-5.0),
                    rtol=1e-12)
    # published value is exactly twice the module convention
    assert_allclose(cv.f_min_2pi_literal(Q, 0.0), 0.5641935389927403, rtol=1e-13)
    assert_allclose(cv.f_min_2pi_literal(Q, 0.0), 2.0 * cv.f_min_2pi(Q, 0.0),
                    rtol=1e-12)


def test_f_min_consistent_with_noise_at_2pi():
    t = 2 * np.pi / Q.omega
    phi, _ = cv.minimize_noise_over_phi(Q, t, 1.0, 0.0)
    direct = cv.f_min(Q, t, cv.MeterSqueezing(1.0, phi), 0.0)
    assert_allclose(direct, cv.f_min_2pi(Q, 1.0), rtol=1e-10)
