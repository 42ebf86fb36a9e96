import numpy as np
import pytest
from numpy.testing import assert_allclose

from optoforce import gaussian as g
from optoforce import oracle

import gaussian_helpers as gh


def test_vacuum_state():
    st = gh.vacuum_state(1)
    assert_allclose(st.mean, np.zeros(2))
    assert_allclose(st.cov, 0.25 * np.eye(2))
    st3 = gh.vacuum_state(3)
    assert_allclose(st3.cov, 0.25 * np.eye(6))
    # pure state saturates the uncertainty bound
    assert abs(gh.uncertainty_defect(st3)) < 1e-12


def test_vacuum_rejects_bad_mode_count():
    with pytest.raises(ValueError):
        gh.vacuum_state(0)


def test_symplectic_form_blocks():
    sigma = gh.symplectic_form(2)
    block = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert_allclose(sigma[:2, :2], block)
    assert_allclose(sigma[2:, 2:], block)
    assert_allclose(sigma[:2, 2:], 0.0)


@pytest.mark.parametrize("n_bar,var", [(0.0, 0.25), (300.0, 601.0 / 4.0), (0.5, 0.5)])
def test_thermal_state_variance(n_bar, var):
    st = g.thermal_state(n_bar)
    assert_allclose(st.cov, var * np.eye(2))
    assert gh.is_physical(st)


def test_thermal_rejects_negative():
    with pytest.raises(ValueError):
        g.thermal_state(-0.1)


def test_two_mode_squeezed_structure():
    assert_allclose(g.two_mode_squeezed(0.0).cov, 0.25 * np.eye(4))
    s = 0.5
    st = g.two_mode_squeezed(s)
    # frozen from the truncated-Fock oracle at s = 0.5 (tail < 1e-12)
    assert_allclose(st.cov[0, 2], 0.29380029841009686, atol=1e-10)
    y_sum = g.LinearObservable(np.array([0.0, 1.0, 0.0, 1.0]))
    assert_allclose(gh.variance(y_sum, st), 0.18393972058572117, atol=1e-10)
    assert_allclose(gh.variance(y_sum, st), np.exp(-2 * s) / 2.0)
    # no X-Y cross terms
    assert st.cov[0, 1] == st.cov[0, 3] == st.cov[2, 1] == 0.0


def test_two_mode_squeezed_reduced_combinations():
    s = 1.0
    st = g.two_mode_squeezed(s)
    x_diff = g.LinearObservable(np.array([1.0, 0.0, -1.0, 0.0]))
    y_sum = g.LinearObservable(np.array([0.0, 1.0, 0.0, 1.0]))
    y_diff = g.LinearObservable(np.array([0.0, 1.0, 0.0, -1.0]))
    assert_allclose(gh.variance(x_diff, st), np.exp(-2 * s) / 2.0)
    assert_allclose(gh.variance(y_sum, st), np.exp(-2 * s) / 2.0)
    assert_allclose(gh.variance(y_diff, st), np.exp(2 * s) / 2.0)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_two_mode_squeezed_matches_fock_oracle(s):
    st = g.two_mode_squeezed(s)
    mean, cov = oracle.tmsv_moments(s)
    assert_allclose(mean, st.mean, atol=1e-10)
    assert_allclose(cov, st.cov, atol=1e-10)


def test_single_mode_squeezed_axes():
    assert_allclose(g.single_mode_squeezed(0.0, 1.3).cov, 0.25 * np.eye(2))
    st = g.single_mode_squeezed(1.0, 0.0)
    assert_allclose(st.cov[0, 0], np.exp(-2.0) / 4.0)
    assert_allclose(st.cov[1, 1], np.exp(2.0) / 4.0)
    assert st.cov[0, 1] == 0.0


def test_single_mode_squeezed_cross_term_sign():
    # sign of Cov(X, Y) at phi = pi/4 fixed by the Fock oracle
    st = g.single_mode_squeezed(1.0, np.pi / 4.0)
    mean, cov = oracle.squeezed_moments(1.0, np.pi / 4.0)
    assert_allclose(st.cov, cov, atol=1e-10)
    assert_allclose(st.cov[0, 1], -np.sinh(2.0) / 4.0)


def test_single_mode_squeezed_angle_rotates_the_quadratures():
    # cov(s, phi) = R(phi) cov(s, 0) R(phi)^T: the identity the cavity phi
    # scan rests on
    for s in (0.0, 0.3, 1.0, 5.0, -2.0):
        cov0 = g.single_mode_squeezed(s, 0.0).cov
        for phi in np.linspace(0.0, 2 * np.pi, 37):
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            cov = g.single_mode_squeezed(s, phi).cov
            assert_allclose(cov, rot @ cov0 @ rot.T, rtol=0, atol=1e-15 * np.max(np.abs(cov0)))


@pytest.mark.parametrize("s,phi", [(0.3, 0.0), (1.0, 0.7), (1.0, 2.5), (-1.0, 0.7)])
def test_single_mode_squeezed_matches_fock_oracle(s, phi):
    st = g.single_mode_squeezed(s, phi)
    mean, cov = oracle.squeezed_moments(s, phi)
    assert_allclose(mean, st.mean, atol=1e-10)
    assert_allclose(cov, st.cov, atol=1e-10)


def test_tensor():
    both = g.tensor([gh.vacuum_state(1), gh.vacuum_state(1)])
    assert_allclose(both.cov, gh.vacuum_state(2).cov)
    mixed = g.tensor([g.thermal_state(300.0), g.two_mode_squeezed(5.0)])
    assert mixed.n_modes == 3
    assert_allclose(mixed.cov[:2, :2], g.thermal_state(300.0).cov)
    assert_allclose(mixed.cov[2:, 2:], g.two_mode_squeezed(5.0).cov)
    assert_allclose(mixed.cov[:2, 2:], 0.0)
    assert gh.is_physical(mixed)
    with pytest.raises(ValueError):
        g.tensor([])


def test_reorder_modes():
    mixed = g.tensor([g.two_mode_squeezed(1.0), g.thermal_state(2.0)])
    swapped = g.reorder_modes(mixed, [0, 2, 1])
    assert_allclose(swapped.cov[2:4, 2:4], g.thermal_state(2.0).cov)
    assert_allclose(swapped.cov[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])],
                    g.two_mode_squeezed(1.0).cov)
    with pytest.raises(ValueError, match="order must be a permutation"):
        g.reorder_modes(g.two_mode_squeezed(1.0), [0, 0])


def test_expectation_and_variance():
    y_sum = g.LinearObservable(np.array([0.0, 1.0, 0.0, 1.0]))
    vac2 = gh.vacuum_state(2)
    assert gh.expectation(y_sum, vac2) == 0.0
    assert_allclose(gh.variance(y_sum, vac2), 0.5)
    tmsv = g.two_mode_squeezed(5.0)
    # cosh - sinh cancellation at s = 5 leaves ~1e-12 absolute error
    assert_allclose(gh.variance(y_sum, tmsv), np.exp(-10.0) / 2.0, atol=1e-11)
    x = g.LinearObservable(np.array([1.0, 0.0]))
    assert_allclose(gh.variance(x, g.thermal_state(3.0)), 7.0 / 4.0)
    with pytest.raises(ValueError):
        gh.variance(x, vac2)


def test_apply_identity_and_purity():
    st = g.two_mode_squeezed(0.8)
    assert_allclose(gh.apply((np.eye(4), np.zeros(4)), st).cov, st.cov)
    # a symplectic map keeps pure states pure
    th = 0.7
    rot = np.kron(np.eye(2), np.array([[np.cos(th), np.sin(th)],
                                       [-np.sin(th), np.cos(th)]]))
    sigma = gh.symplectic_form(2)
    assert np.max(np.abs(rot @ sigma @ rot.T - sigma)) < 1e-14
    prop = (rot, np.ones(4))
    out = gh.apply(prop, gh.vacuum_state(2))
    assert_allclose(gh.symplectic_eigenvalues(out), 0.25, atol=1e-12)
    assert_allclose(out.mean, np.ones(4))
    with pytest.raises(ValueError):
        gh.apply(prop, gh.vacuum_state(1))


def test_state_validation():
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), np.array([[0.25, 1e-6], [0.0, 0.25]]))
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(3), 0.25 * np.eye(3))
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), 0.25 * np.eye(4))
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros((2, 2)), 0.25 * np.eye(4))
    with pytest.raises(TypeError):
        g.GaussianState(1, np.zeros(2), 0.25 * np.eye(2))
    assert g.GaussianState(np.zeros(4), 0.25 * np.eye(4)).n_modes == 2
    with pytest.raises(ValueError):
        g.LinearObservable(np.zeros(4))
    with pytest.raises(ValueError, match="s must be finite"):
        g.two_mode_squeezed(np.nan)
    with pytest.raises(ValueError, match="s and phi must be finite"):
        g.single_mode_squeezed(np.inf, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_cov(bad):
    # a NaN makes every comparison false, so a symmetry test written as
    # "difference > tol" would let it through
    cov = 0.25 * np.eye(2)
    cov[0, 0] = bad
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="cov: not finite; the inputs overflow"):
            g.GaussianState(np.zeros(2), cov)
        with pytest.raises(ValueError, match="cov: not finite"):
            g.two_mode_squeezed(400.0)


def test_constructed_states_satisfy_uncertainty():
    states = [
        gh.vacuum_state(2),
        g.thermal_state(0.3),
        g.two_mode_squeezed(1.2),
        g.two_mode_squeezed(-1.2),
        g.single_mode_squeezed(1.5, 0.4),
        g.tensor([g.thermal_state(5.0), g.single_mode_squeezed(0.5, 1.0)]),
    ]
    for st in states:
        assert gh.uncertainty_defect(st) >= -1e-10
