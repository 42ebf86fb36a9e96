"""Gaussian states of N bosonic modes as first and second quadrature moments.

Convention: for each mode j the quadratures are X_j = (a_j + a_j^dag)/2 and
Y_j = -i(a_j - a_j^dag)/2, ordered as (X_1, Y_1, X_2, Y_2, ...).  With this
normalization [X_j, Y_k] = i delta_jk / 2 and the vacuum variance is 1/4 per
quadrature.  A state's mode count is half the length of its mean.  All
constructors return immutable states; all operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_SYMMETRY_TOL = 1e-12

_max = np.maximum.reduce


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector and covariance matrix of a Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        # this runs for every state, four times per cavityless grid point
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        mean.setflags(write=False)  # cheaper than assigning a.flags.writeable
        cov.setflags(write=False)
        if mean.ndim != 1 or mean.size < 2 or mean.size % 2:
            raise ValueError(f"mean must have an even length >= 2, got shape {mean.shape}")
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        # abs(cov - cov.T).max(): numpy subtracts a contiguous copy of the
        # transpose faster than the strided view, and the ufunc reduce skips
        # the Python wrapper of ndarray.max
        if not _max(abs(cov - cov.T.copy()), None) <= _SYMMETRY_TOL:  # also true for inf or NaN
            if not np.isfinite(cov).all():
                raise ValueError("cov: not finite; the inputs overflow")
            raise ValueError("cov must be symmetric to within 1e-12")
        self.__dict__.update(mean=mean, cov=cov)  # the fields of a frozen instance

    @property
    def n_modes(self) -> int:
        return len(self.mean) // 2


@dataclass(frozen=True)
class LinearObservable:
    """Real coefficient vector defining a measured quadrature combination."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.setflags(write=False)
        if coeffs.ndim != 1 or not np.any(coeffs):
            raise ValueError("coeffs must be a non-zero vector")
        object.__setattr__(self, "coeffs", coeffs)


def thermal_state(n_bar: float) -> GaussianState:
    """Single-mode thermal state with mean occupation n_bar."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    cov = np.zeros((2, 2))  # cheaper than np.array of nested lists
    cov[0, 0] = cov[1, 1] = (2.0 * n_bar + 1.0) / 4.0
    return GaussianState(np.zeros(2), cov)


def two_mode_squeezed(s: float) -> GaussianState:
    """Two-mode squeezed vacuum sqrt(1-tanh^2 s) * sum_n tanh^n(s) |n,n>.

    For s > 0 the correlations <a1 a2> = cosh(s) sinh(s) > 0 reduce the
    variances of X1 - X2 and Y1 + Y2 below vacuum.
    """
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    ch, sh = np.cosh(2.0 * s) / 4.0, np.sinh(2.0 * s) / 4.0
    cov = np.zeros((4, 4))
    # X block (indices 0, 2) and Y block (indices 1, 3)
    cov[0, 0] = cov[2, 2] = ch
    cov[0, 2] = cov[2, 0] = sh
    cov[1, 1] = cov[3, 3] = ch
    cov[1, 3] = cov[3, 1] = -sh
    return GaussianState(np.zeros(4), cov)


def single_mode_squeezed(s: float, phi: float) -> GaussianState:
    """Squeezed vacuum exp[zeta* a^2 - zeta a^dag^2]|0> with zeta = (s/2) e^{2i phi}.

    The covariance is R(phi) diag(e^{-2s}, e^{2s}) R(phi)^T / 4: at phi = 0
    the X quadrature is squeezed, Var(X) = e^{-2s}/4.  Each diagonal entry is
    a sum of non-negative terms, exact to rounding at every s, where
    cosh(2s) - sinh(2s) would cancel.
    """
    if not (np.isfinite(s) and np.isfinite(phi)):
        raise ValueError("s and phi must be finite")
    c, sn = math.cos(phi), math.sin(phi)
    # an e^{2|s|} that overflows makes the covariance inf or NaN, which
    # GaussianState names: numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        em, ep = np.exp(-2.0 * s), np.exp(2.0 * s)
        cov = np.zeros((2, 2))
        cov[0, 0] = 0.25 * (c * c * em + sn * sn * ep)
        cov[1, 1] = 0.25 * (sn * sn * em + c * c * ep)
        cov[0, 1] = cov[1, 0] = 0.25 * c * sn * (em - ep)
        return GaussianState(np.zeros(2), cov)


def tensor(states: list[GaussianState]) -> GaussianState:
    """Tensor product: block-diagonal covariance, concatenated means."""
    if not states:
        raise ValueError("tensor requires at least one state")
    mean = np.concatenate([st.mean for st in states])
    d = len(mean)
    cov = np.zeros((d, d))
    off = 0
    for st in states:
        end = off + len(st.mean)
        cov[off:end, off:end] = st.cov
        off = end
    return GaussianState(mean, cov)


@functools.lru_cache(maxsize=64)
def _quadrature_index(n_modes: int, order: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather indices of the mode permutation order, built once per
    (n_modes, order): into the mean, and into the flattened covariance with
    the covariance's shape."""
    if sorted(order) != list(range(n_modes)):
        raise ValueError("order must be a permutation of range(n_modes)")
    idx = np.array([q for m in order for q in (2 * m, 2 * m + 1)])
    flat = idx[:, None] * len(idx) + idx
    idx.setflags(write=False)
    flat.setflags(write=False)
    return idx, flat


def reorder_modes(state: GaussianState, order: list[int]) -> GaussianState:
    """Permute modes so that new mode i is old mode order[i]."""
    idx, flat = _quadrature_index(state.n_modes, tuple(order))
    return GaussianState(state.mean.take(idx), state.cov.take(flat))
