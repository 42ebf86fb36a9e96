import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from optoforce import cavityless
from optoforce import gaussian as g
from optoforce import oracle


def rotation_generator(w):
    a = np.array([[0.0, w], [-w, 0.0]])
    c = np.zeros(2)
    return lambda t: (a, c)


def test_ode_spec_validation():
    gen = rotation_generator(1.0)
    with pytest.raises(ValueError):
        oracle.OdeSpec(3, gen, 1.0, 1000)  # odd dim
    with pytest.raises(ValueError):
        oracle.OdeSpec(2, gen, 1.0, 50)  # too few steps
    with pytest.raises(ValueError):
        oracle.OdeSpec(4, gen, 1.0, 1000)  # shape mismatch


def test_step_size_guard_names_required_steps():
    with pytest.raises(ValueError, match="n_steps >="):
        oracle.OdeSpec(2, rotation_generator(50.0), 10.0, 100)


def test_propagator_rotation_period():
    # one full rotation returns to the identity
    w = 2.0 * np.pi
    spec = oracle.OdeSpec(2, rotation_generator(w), 1.0, 2000)
    mat, disp = oracle.integrate_propagator(spec)
    assert_allclose(mat, np.eye(2), atol=1e-10)
    assert_allclose(disp, 0.0, atol=1e-15)


def test_propagator_matches_expm():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    a = a - a.T  # skew keeps the norm tame
    spec = oracle.OdeSpec(4, lambda t: (a, np.zeros(4)), 2.0, 4000)
    mat, _ = oracle.integrate_propagator(spec)
    assert_allclose(mat, expm(a * 2.0), atol=1e-10)


def test_moments_constant_drive():
    # dm/dt = c with A = 0: mean grows linearly, covariance frozen
    c = np.array([0.5, -1.0])
    spec = oracle.OdeSpec(2, lambda t: (np.zeros((2, 2)), c), 3.0, 300)
    v0 = np.array([[0.25, 0.1], [0.1, 0.5]])
    m, v = oracle.integrate_moments(spec, np.zeros(2), v0)
    assert_allclose(m, 3.0 * c, atol=1e-12)
    assert_allclose(v, v0, atol=1e-14)


def test_moments_rotation_preserves_isotropic_cov():
    spec = oracle.OdeSpec(2, rotation_generator(1.3), 5.0, 2000)
    m, v = oracle.integrate_moments(spec, np.array([1.0, 0.0]), 0.25 * np.eye(2))
    assert_allclose(v, 0.25 * np.eye(2), atol=1e-10)
    assert_allclose(np.linalg.norm(m), 1.0, atol=1e-10)


def test_moments_transport_anisotropic_cov_under_non_normal_drift():
    # m = E m0 + A^{-1}(E - 1) c and V = E V0 E^T with E = expm(A t), for a
    # non-normal, invertible A, a constant drive and a non-isotropic V0
    a = np.array([[-0.3, 2.0], [-0.5, 0.1]])
    c = np.array([0.7, -0.4])
    m0 = np.array([1.0, -2.0])
    v0 = np.array([[2.0, 0.3], [0.3, 0.05]])
    t = 3.0
    spec = oracle.OdeSpec(2, lambda tau: (a, c), t, 4000)
    m, v = oracle.integrate_moments(spec, m0, v0)
    e = expm(a * t)
    assert_allclose(m, e @ m0 + np.linalg.solve(a, (e - np.eye(2)) @ c), rtol=0, atol=1e-10)
    assert_allclose(v, e @ v0 @ e.T, rtol=0, atol=1e-10)


def test_time_dependent_drive():
    # dm/dt = (cos t, 0): exact mean is (sin t, 0)
    gen = lambda t: (np.zeros((2, 2)), np.stack([np.cos(t), np.zeros_like(t)], axis=-1))
    spec = oracle.OdeSpec(2, gen, 2.0, 1000)
    m, _ = oracle.integrate_moments(spec, np.zeros(2), np.zeros((2, 2)))
    assert_allclose(m, [np.sin(2.0), 0.0], atol=1e-12)


def test_propagator_track_matches_runs_from_zero():
    # one forward pass of composed segments against a run from t = 0 at each
    # time, for a time-dependent drive; a repeated time adds no segment
    a = np.array([[0.0, 1.3], [-1.3, 0.0]])
    gen = lambda t: (a, np.stack([np.cos(2.0 * t), np.full_like(t, 0.5)], axis=-1))
    times = [0.0, 0.4, 0.4, 1.5, 3.0]
    mats, disps = oracle.integrate_propagator_track(2, gen, times, 1000)
    assert len(mats) == len(disps) == len(times)
    assert_allclose(mats[0], np.eye(2), atol=0.0)
    assert_allclose(disps[0], 0.0, atol=0.0)
    assert mats[1] is mats[2] and disps[1] is disps[2]
    for t, m, d in zip(times[1:], mats[1:], disps[1:]):
        m_ref, d_ref = oracle.integrate_propagator(oracle.OdeSpec(2, gen, t, 4000))
        assert_allclose(m, m_ref, atol=1e-12)
        assert_allclose(d, d_ref, atol=1e-12)


def parametric_generator(t):
    # A(t) and c(t) both time-dependent, on an array of times
    a = np.zeros(np.shape(t) + (2, 2))
    a[..., 0, 1] = 1.0 + 0.3 * np.sin(0.7 * t)
    a[..., 1, 0] = -a[..., 0, 1]
    a[..., 1, 1] = -0.1 * np.cos(t)
    return a, np.stack([np.cos(2.0 * t), 0.5 * np.sin(t)], axis=-1)


def stage_rk4_reference(gen, dim, t_final, n_steps):
    """Textbook RK4 of Y' = [[A, c], [0, 0]] Y, Y(0) = 1, one stage at a time."""

    def aug(t):
        a, c = gen(np.array([t]))
        y = np.zeros((dim + 1, dim + 1))
        y[:dim, :dim] = a[0]
        y[:dim, dim] = c[0]
        return y

    h = t_final / n_steps
    y = np.eye(dim + 1)
    for k in range(n_steps):
        t = k * h
        k1 = aug(t) @ y
        k2 = aug(t + h / 2) @ (y + h / 2 * k1)
        k3 = aug(t + h / 2) @ (y + h / 2 * k2)
        k4 = aug(t + h) @ (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:dim, :dim], y[:dim, dim]


@pytest.mark.parametrize("n_steps", [257, 1001])
def test_propagator_matches_stage_by_stage_rk4(n_steps):
    # the blocked increments are the same RK4 steps as the stage loop, also
    # when the step count is not a multiple of the block size
    mat, disp = oracle.integrate_propagator(oracle.OdeSpec(2, parametric_generator, 3.0, n_steps))
    m_ref, d_ref = stage_rk4_reference(parametric_generator, 2, 3.0, n_steps)
    assert_allclose(mat, m_ref, rtol=0, atol=1e-13)
    assert_allclose(disp, d_ref, rtol=0, atol=1e-13)


def test_propagator_keeps_precision_through_a_non_normal_transient():
    # near theta = chi the cavityless propagator swings to |M| ~ 100 and back
    # to 1 over Theta t = 2 pi; rounding that repeats every step (1 + D_k
    # formed in double precision) is amplified to ~1e-9 there
    p = cavityless.CavitylessParams.from_ratios(1.01, 12.0)
    t = 2 * np.pi / p.Theta
    spec = oracle.OdeSpec(6, lambda tau: cavityless.generator(p, tau), t, 6299)
    mat, _ = oracle.integrate_propagator(spec)
    assert np.max(np.abs(mat - cavityless.closed_propagator(p, t).mat)) <= 1e-10


# --- Fock oracle ---------------------------------------------------------


def test_fock_spec_validation():
    with pytest.raises(ValueError):
        oracle.FockSpec("coherent", 1.0)
    with pytest.raises(ValueError):
        oracle.FockSpec("thermal", -1.0).cutoff()
    with pytest.raises(ValueError, match="cutoff"):
        oracle.FockSpec("thermal", 1e6).cutoff()


def test_fock_vacuum_limits():
    for family in ("thermal", "tmsv", "squeezed"):
        spec = oracle.FockSpec(family, 0.0)
        mean, cov = oracle.fock_moments(spec)
        assert_allclose(mean, 0.0, atol=1e-14)
        assert_allclose(cov, 0.25 * np.eye(len(mean)), atol=1e-14)


def test_fock_thermal():
    mean, cov = oracle.fock_moments(oracle.FockSpec("thermal", 0.5))
    # Var(X) = (2 n_bar + 1)/4 = 1/2; frozen oracle value
    assert_allclose(cov[0, 0], 0.4999999999987542, rtol=1e-14)
    assert_allclose(cov, 0.5 * np.eye(2), atol=1e-11)
    assert_allclose(mean, 0.0, atol=1e-14)


def test_fock_tmsv_negative_s_flips_correlations():
    _, cp = oracle.fock_moments(oracle.FockSpec("tmsv", 0.5))
    _, cm = oracle.fock_moments(oracle.FockSpec("tmsv", -0.5))
    assert cp[0, 2] > 0 > cm[0, 2]
    assert_allclose(cp[0, 2], -cm[0, 2], atol=1e-11)
    assert_allclose(cp[1, 3], -cp[0, 2], atol=1e-11)


def test_fock_tmsv_squeezed_combination():
    _, cov = oracle.fock_moments(oracle.FockSpec("tmsv", 0.5))
    z = np.array([0.0, 1.0, 0.0, 1.0])
    # frozen oracle value; analytic e^{-2s}/2 = 0.18393972058572117
    assert_allclose(z @ cov @ z, 0.18393972058518704, rtol=1e-12)
    assert abs(z @ cov @ z - np.exp(-1.0) / 2.0) < 1e-10


def test_fock_squeezed_axes_and_purity():
    _, cov = oracle.fock_moments(oracle.FockSpec("squeezed", 1.0, 0.0))
    assert_allclose(cov[0, 0], np.exp(-2.0) / 4.0, atol=1e-11)
    assert_allclose(cov[1, 1], np.exp(2.0) / 4.0, atol=1e-11)
    assert_allclose(np.linalg.det(cov), 1.0 / 16.0, atol=1e-11)


def test_fock_squeezed_tail_guard():
    with pytest.raises(ValueError):
        oracle.fock_moments(oracle.FockSpec("squeezed", 6.0))


@pytest.mark.parametrize("family,param", [("thermal", 2.0), ("tmsv", 1.0),
                                          ("squeezed", 1.0)])
def test_fock_agrees_with_constructors(family, param):
    mean, cov = oracle.fock_moments(oracle.FockSpec(family, param, phi=0.3))
    if family == "thermal":
        ref = g.thermal_state(param)
    elif family == "tmsv":
        ref = g.two_mode_squeezed(param)
    else:
        ref = g.single_mode_squeezed(param, 0.3)
    assert_allclose(mean, ref.mean, atol=1e-10)
    assert_allclose(cov, ref.cov, atol=1e-10)
