import types

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from optoforce import analysis, cavityless
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
    # the oracle forms the stages' drift parts once per block, from one A
    per_time = lambda t: (np.broadcast_to(gen(t)[0], np.shape(t) + (2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="generator output does not match dim"):
        oracle.OdeSpec(2, per_time, 1.0, 1000)


@pytest.mark.parametrize("model", sorted(analysis.SCHEMES))
def test_scheme_generators_return_one_drift_and_a_drive_per_time(model):
    # the contract the RK4 oracle relies on: one constant (d, d) drift, the
    # same at t = 0 as on an array of times, and a drive of shape (k, d)
    scheme = analysis.SCHEMES[model]
    p = scheme.params_from_ratios(analysis.full_params(None))
    d = len(scheme.readout_observable().coeffs)
    times = np.linspace(0.0, 7.0, 5)
    a0, _ = scheme.generator(p, 0.0)
    a, c = scheme.generator(p, times)
    assert np.shape(a0) == np.shape(a) == (d, d)
    assert_array_equal(a, a0)
    assert np.shape(c) == (times.size, d)


@pytest.mark.parametrize("name", ["A", "c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ode_spec_refuses_a_generator_that_is_not_finite(name, bad):
    # a NaN drift would reach the SVD of the 2-norm, and an inf one would
    # integrate to NaN
    a, c = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2)
    (a if name == "A" else c)[0] = bad
    with pytest.raises(ValueError, match=f"generator: {name} at t = 0 is not finite"):
        oracle.OdeSpec(2, lambda t: (a, c), 1.0, 1000)


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


def test_moments_of_a_stack_match_one_run_per_state():
    # three cavityless meters transported in one run against one run each;
    # a single state keeps its shapes
    p = cavityless.CavitylessParams.from_ratios(1.025, 10.3)
    spec = oracle.OdeSpec(6, lambda t: cavityless.generator(p, t), np.pi / p.Theta, 2000)
    states = [cavityless.initial_state(s, n_th) for s, n_th in [(0, 0), (0, 300), (5, 300)]]
    means, covs = oracle.integrate_moments(spec, np.array([st.mean for st in states]),
                                           np.array([st.cov for st in states]))
    assert means.shape == (3, 6) and covs.shape == (3, 6, 6)
    for st, mean, cov in zip(states, means, covs):
        m, v = oracle.integrate_moments(spec, st.mean, st.cov)
        assert m.shape == (6,) and v.shape == (6, 6)
        assert_allclose(mean, m, rtol=1e-14, atol=0)
        assert_allclose(cov, v, rtol=1e-14, atol=0)


def test_propagator_track_matches_runs_from_zero():
    # one forward pass of composed segments, each on the drive shifted to its
    # start, against a run from t = 0 at each time, for a time-dependent
    # drive; a repeated time is a segment of span 0
    a = np.array([[0.0, 1.3], [-1.3, 0.0]])
    gen = lambda t: (a, np.stack([np.cos(2.0 * t), np.full_like(t, 0.5)], axis=-1))
    times = [0.0, 0.4, 0.4, 1.5, 3.0]
    segments = [(lambda tau, t0=t0: gen(t0 + tau), t - t0, 1000)
                for t0, t in zip([0.0] + times[:-1], times)]
    mats, disps = oracle.integrate_propagator_track(2, segments)
    assert len(mats) == len(disps) == len(times)
    assert_allclose(mats[0], np.eye(2), atol=0.0)
    assert_allclose(disps[0], 0.0, atol=0.0)
    for t, m, d in zip(times[1:], mats[1:], disps[1:]):
        m_ref, d_ref = oracle.integrate_propagator(oracle.OdeSpec(2, gen, t, 4000))
        assert_allclose(m, m_ref, atol=1e-12)
        assert_allclose(d, d_ref, atol=1e-12)


#: a constant non-normal drift: A A^T != A^T A
PARAMETRIC_DRIFT = np.array([[0.0, 1.3], [-0.7, -0.1]])


def parametric_generator(t):
    # a constant non-normal A and a time-dependent c(t), on an array of times
    return PARAMETRIC_DRIFT, np.stack([np.cos(2.0 * t), 0.5 * np.sin(t)], axis=-1)


def stage_rk4_reference(gen, dim, t_final, n_steps):
    """Textbook RK4 of Y' = [[A, c], [0, 0]] Y, Y(0) = 1, one stage at a time."""

    def aug(t):
        a, c = gen(np.array([t]))
        y = np.zeros((dim + 1, dim + 1))
        y[:dim, :dim] = a
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
    assert np.max(np.abs(mat - cavityless.closed_propagator(p, t)[0])) <= 1e-10


# --- Fock oracle ---------------------------------------------------------


def test_fock_spec_validation():
    with pytest.raises(ValueError):
        oracle.thermal_moments(-1.0)
    with pytest.raises(ValueError, match="cutoff"):
        oracle.thermal_moments(1e6)


def test_fock_vacuum_limits():
    for moments in (oracle.thermal_moments, oracle.tmsv_moments, oracle.squeezed_moments):
        mean, cov = moments(0.0)
        assert_allclose(mean, 0.0, atol=1e-14)
        assert_allclose(cov, 0.25 * np.eye(len(mean)), atol=1e-14)


def test_fock_thermal():
    mean, cov = oracle.thermal_moments(0.5)
    # Var(X) = (2 n_bar + 1)/4 = 1/2; frozen oracle value
    assert_allclose(cov[0, 0], 0.4999999999993662, rtol=1e-14)
    assert_allclose(cov, 0.5 * np.eye(2), atol=1e-11)
    assert_allclose(mean, 0.0, atol=1e-14)


def test_fock_tmsv_negative_s_flips_correlations():
    _, cp = oracle.tmsv_moments(0.5)
    _, cm = oracle.tmsv_moments(-0.5)
    assert cp[0, 2] > 0 > cm[0, 2]
    assert_allclose(cp[0, 2], -cm[0, 2], atol=1e-11)
    assert_allclose(cp[1, 3], -cp[0, 2], atol=1e-11)


def test_fock_tmsv_squeezed_combination():
    _, cov = oracle.tmsv_moments(0.5)
    z = np.array([0.0, 1.0, 0.0, 1.0])
    # frozen oracle value; analytic e^{-2s}/2 = 0.18393972058572117
    assert_allclose(z @ cov @ z, 0.1839397205866199, rtol=1e-12)
    assert abs(z @ cov @ z - np.exp(-1.0) / 2.0) < 1e-10


def test_fock_squeezed_axes_and_purity():
    _, cov = oracle.squeezed_moments(1.0, 0.0)
    assert_allclose(cov[0, 0], np.exp(-2.0) / 4.0, atol=1e-11)
    assert_allclose(cov[1, 1], np.exp(2.0) / 4.0, atol=1e-11)
    assert_allclose(np.linalg.det(cov), 1.0 / 16.0, atol=1e-11)


def test_fock_squeezed_tail_guard():
    with pytest.raises(ValueError):
        oracle.squeezed_moments(6.0)


def test_fock_oracle_never_reads_the_gaussian_constructors(monkeypatch):
    # the north star: an oracle shares no code with the closed forms it
    # certifies, so every constructor it checks refuses to run here
    def refuse(*args, **kwargs):
        raise AssertionError("the Fock oracle reached optoforce.gaussian")

    for name in ("thermal_state", "two_mode_squeezed", "single_mode_squeezed"):
        monkeypatch.setattr(g, name, refuse)
    monkeypatch.setattr(g.GaussianState, "__post_init__", refuse)
    oracle.thermal_moments(2.0)
    oracle.tmsv_moments(-1.0)
    oracle.squeezed_moments(1.0, 0.3)

    def home(value):
        """The module a global is, or the module it was defined in."""
        if isinstance(value, types.ModuleType):
            return value.__name__
        return getattr(value, "__module__", None) or ""

    # no optoforce module, nor a name imported from one, among its globals
    borrowed = [name for name, value in vars(oracle).items()
                if home(value).startswith("optoforce") and home(value) != oracle.__name__]
    assert borrowed == []


@pytest.mark.parametrize("family,param", [("thermal", 2.0), ("tmsv", 1.0),
                                          ("squeezed", 1.0)])
def test_fock_agrees_with_constructors(family, param):
    if family == "thermal":
        mean, cov = oracle.thermal_moments(param)
        ref = g.thermal_state(param)
    elif family == "tmsv":
        mean, cov = oracle.tmsv_moments(param)
        ref = g.two_mode_squeezed(param)
    else:
        mean, cov = oracle.squeezed_moments(param, 0.3)
        ref = g.single_mode_squeezed(param, 0.3)
    assert_allclose(mean, ref.mean, atol=1e-10)
    assert_allclose(cov, ref.cov, atol=1e-10)
