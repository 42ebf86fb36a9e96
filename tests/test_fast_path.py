"""The per-point fast path against its textbook form, bit for bit.

The closed forms cache the constants of their immutable params (Theta, r, A,
A^2) and build states through lean bookkeeping; the functions below are the
same expressions written out directly, with no cache and numpy's general
indexing.  The arithmetic is the same, so the results must be equal, not close.
"""

import numpy as np
import pytest

from optoforce import analysis
from optoforce import cavity as cv
from optoforce import cavityless as cl

S_VALUES = (0.0, 1.0, 5.0)
N_TH_VALUES = (0.0, 300.0)


def scaled_times(model):
    return np.linspace(0.0, 2 * analysis.SCHEMES[model].T_STAR, 61)


# --- cavityless -------------------------------------------------------------


def textbook_theta(p):
    return float(np.sqrt(p.theta**2 - p.chi**2))


def textbook_closed_mat(p, t):
    a = cl.drift_matrix(p)
    th = textbook_theta(p)
    st, ct = np.sin(th * t), np.cos(th * t)
    return np.eye(6) + a * (st / th) + (a @ a) * ((1.0 - ct) / th**2)


def textbook_initial_cov(s, n_th):
    # two-mode squeezed vacuum at -s on (a1, a2), thermal mirror, then the
    # mode order (a1, b, a2)
    ch, sh = np.cosh(2.0 * -s) / 4.0, np.sinh(2.0 * -s) / 4.0
    cov = np.zeros((6, 6))
    cov[0, 0] = cov[2, 2] = cov[1, 1] = cov[3, 3] = ch
    cov[0, 2] = cov[2, 0] = sh
    cov[1, 3] = cov[3, 1] = -sh
    cov[4:6, 4:6] = (2.0 * n_th + 1.0) / 4.0 * np.eye(2)
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in (0, 2, 1)])
    return cov[np.ix_(idx, idx)]


def textbook_noise(p, t, s, n_th):
    zt = textbook_closed_mat(p, t).T @ np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    return float(zt @ textbook_initial_cov(s, n_th) @ zt)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("n_th", N_TH_VALUES)
def test_cavityless_fast_path_equals_textbook_form(s, n_th):
    p = cl.CavitylessParams.from_ratios(1.025, 10.3)
    assert p.Theta == textbook_theta(p)
    assert np.array_equal(cl.initial_state(s, n_th).cov, textbook_initial_cov(s, n_th))
    times = scaled_times("cavityless") / textbook_theta(p)
    # the sweep passes Python floats, the spot-checks and the ledger numpy floats
    for t in [*times.tolist(), *times]:
        assert np.array_equal(cl.closed_propagator(p, t).mat, textbook_closed_mat(p, t))
        assert cl.noise(p, t, s, n_th) == textbook_noise(p, t, s, n_th)


def test_cached_drift_powers_are_read_only_and_not_the_oracles():
    p = cl.CavitylessParams.from_ratios(1.025, 10.3)
    a, a2 = p._drift_powers
    assert not a.flags.writeable and not a2.flags.writeable
    with pytest.raises(ValueError):
        a[0, 2] = 0.0
    assert np.array_equal(a, cl.drift_matrix(p)) and np.array_equal(a2, a @ a)
    # the RK4 oracle's generator builds its own A: it never reads the cache
    gen_a = cl.generator(p, 0.3)[0]
    assert gen_a is not a and not np.shares_memory(gen_a, a)
    assert gen_a.flags.writeable


# --- cavity -----------------------------------------------------------------


def textbook_minimize_noise_over_phi(q, t, s, n_th):
    r, w = 2.0 * q.g_alpha / q.omega, q.omega
    c = r**2 * (w * t - np.sin(w * t))
    const = 0.25 * (1.0 + c**2) * np.cosh(2.0 * s)
    a = 0.25 * (1.0 - c**2) * np.sinh(2.0 * s)
    b = -0.5 * c * np.sinh(2.0 * s)
    k2 = (r * np.sin(w * t)) ** 2 + (r * (1.0 - np.cos(w * t))) ** 2
    noise_min = const - np.hypot(a, b) + 0.25 * k2 * (1.0 + 2.0 * n_th)
    return float(0.5 * np.arctan2(-b, -a) % np.pi), float(noise_min)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("n_th", N_TH_VALUES)
def test_cavity_fast_path_equals_textbook_form(s, n_th):
    q = cv.CavityParams.from_ratios(0.2)
    assert q.r == 2.0 * q.g_alpha / q.omega
    times = scaled_times("cavity") / q.omega
    for t in [*times.tolist(), *times]:
        assert cv.minimize_noise_over_phi(q, t, s, n_th) == textbook_minimize_noise_over_phi(
            q, t, s, n_th)
