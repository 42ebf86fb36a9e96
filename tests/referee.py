"""A 50-digit referee for the closed propagators.

It computes the exact (M, d) of dm/dt = A m + c(t) as mpmath's expm of the
autonomous generator.  The cavity drive c = (0, 0, 0, Omega) is constant:
one more state entry, fixed at 1, carries it.  The cavityless drive
c(t) = Omega(-sin Omega t, cos Omega t), in the mirror slots 2 and 3, is
carried as an oscillator block: its phase w = (cos Omega t, sin Omega t) is
two more state entries, with w' = W w, W = Omega [[0, -1], [1, 0]] and
w(0) = (1, 0).  The generator of each scheme is built here from its
drift_matrix and Omega alone, so the referee shares no code with the closed
forms or with the RK4 oracle.
"""

import mpmath
import numpy as np

from optoforce import cavity, cavityless

DPS = 50


def expm(g: np.ndarray, t: float) -> np.ndarray:
    """expm(g t) at DPS digits, rounded to doubles."""
    with mpmath.workdps(DPS):
        e = mpmath.expm(mpmath.matrix(g.tolist()) * mpmath.mpf(t))
        return np.array([[float(e[i, j]) for j in range(e.cols)] for i in range(e.rows)])


def cavityless_propagator(p: cavityless.CavitylessParams, t: float) -> tuple:
    """The exact (M(t), d(t)) of the cavityless scheme, d per unit force:
    expm(G t) = [[M, K], [0, R(Omega t)]] for G = [[A, C], [0, W]] with
    c = C w, and d = K w(0)."""
    w = p.omega
    g = np.zeros((8, 8))
    g[:6, :6] = cavityless.drift_matrix(p)
    g[2, 7] = -w  # c_2 = -Omega sin(Omega t)
    g[3, 6] = w  # c_3 = Omega cos(Omega t)
    g[6, 7], g[7, 6] = -w, w
    e = expm(g, t)
    return e[:6, :6], e[:6, 6]


def cavity_propagator(p: cavity.CavityParams, t: float) -> tuple:
    """The exact (M(t), d(t)) of the cavity scheme, d per unit force:
    expm(G t) = [[M, d], [0, 1]] for G = [[A, c], [0, 0]]."""
    g = np.zeros((5, 5))
    g[:4, :4] = cavity.drift_matrix(p)
    g[3, 4] = p.omega  # c_3 = Omega, in the Yb slot
    e = expm(g, t)
    return e[:4, :4], e[:4, 4]
