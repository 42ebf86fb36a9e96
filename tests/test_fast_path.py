"""The cavityless per-point fast path against its textbook form, bit for bit.

The closed forms cache the constants of their immutable params (Theta, 1, A
and A^2), build states through lean bookkeeping (a cached permutation index)
and evaluate each sine and cosine once; the functions below are the same
expressions written out directly, with no cache and numpy's general
indexing.  Both read Var(Z_I) as u^T V0 u with u = M(t).T @ z.  The
arithmetic is the same, so the results must be equal, not close.

Equal, not close, is what keeps the sweep, fig2 and power-scaling files
byte-identical.  A derandomized hypothesis property also draws the ratios,
(s, n_th) and a sweep grid over the benchmark's domain
(perfbench/workloads.py) with n_th up to 1e3 and s in [-5, 5].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoforce import analysis
from optoforce import cavityless as cl

S_VALUES = (0.0, 1.0, 5.0)
N_TH_VALUES = (0.0, 300.0)


def scaled_times(model):
    return np.linspace(0.0, 2 * analysis.SCHEMES[model].T_STAR, 61)


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
        assert np.array_equal(cl.closed_propagator(p, t)[0], textbook_closed_mat(p, t))
        assert cl.noise(p, t, s, n_th) == textbook_noise(p, t, s, n_th)


def test_cached_drift_powers_are_read_only_and_not_the_oracles():
    p = cl.CavitylessParams.from_ratios(1.025, 10.3)
    e, a, a2 = p._drift_powers
    for m in (e, a, a2):
        assert not m.flags.writeable
    with pytest.raises(ValueError):
        a[0, 2] = 0.0
    assert np.array_equal(a, cl.drift_matrix(p)) and np.array_equal(a2, a @ a)
    # the RK4 oracle's generator builds its own A: it never reads the cache
    gen_a = cl.generator(p, 0.3)[0]
    assert gen_a is not a and not np.shares_memory(gen_a, a)
    assert gen_a.flags.writeable


# --- over the benchmark's domain ---------------------------------------------


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    theta_over_chi=st.floats(1.01, 1.2),
    omega_over_theta=st.floats(6.0, 20.0),
    s=st.floats(-5.0, 5.0),
    n_th=st.floats(0.0, 1e3),
    t_stop_scaled=st.floats(0.0, 4 * np.pi, exclude_min=True),
    n_points=st.integers(2, 801),
)
def test_fast_path_equals_textbook_form_on_sweep_grids(
    theta_over_chi, omega_over_theta, s, n_th, t_stop_scaled, n_points
):
    p = cl.CavitylessParams.from_ratios(theta_over_chi, omega_over_theta)
    assert np.array_equal(cl.initial_state(s, n_th).cov, textbook_initial_cov(s, n_th))
    # at most 21 points of the grid run_sweep builds, as Python floats (the
    # sweep loop) and as numpy floats (the spot-checks and the ledger)
    grid = np.linspace(0.0, t_stop_scaled, n_points)
    some = grid[:: -(-n_points // 21)]
    times_cl = some / textbook_theta(p)
    for t in [*times_cl.tolist(), *times_cl]:
        assert cl.noise(p, t, s, n_th) == textbook_noise(p, t, s, n_th)
