"""Gaussian states of N bosonic modes as first and second quadrature moments.

Convention: for each mode j the quadratures are X_j = (a_j + a_j^dag)/2 and
Y_j = -i(a_j - a_j^dag)/2, ordered as (X_1, Y_1, X_2, Y_2, ...).  With this
normalization [X_j, Y_k] = i delta_jk / 2 and the vacuum variance is 1/4 per
quadrature.  All constructors return immutable states; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# exact 2019 SI values, bit-equal to scipy.constants.hbar and .k; defined here
# so that importing the package does not load scipy
hbar = 6.62607015e-34 / (2 * math.pi)
k_B = 1.380649e-23

_SYMMETRY_TOL = 1e-12
_UNCERTAINTY_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Sigma: block-diagonal 2x2 blocks [[0, 1/2], [-1/2, 0]]."""
    block = np.array([[0.0, 0.5], [-0.5, 0.0]])
    sigma = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        sigma[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    return sigma


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector and covariance matrix of an n-mode Gaussian state."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        mean = _freeze(self.mean)
        cov = _freeze(self.cov)
        d = 2 * self.n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have length {d}, got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        if not np.max(np.abs(cov - cov.T)) <= _SYMMETRY_TOL:  # also true for inf or NaN
            if not np.isfinite(cov).all():
                raise ValueError("cov: not finite; the inputs overflow")
            raise ValueError("cov must be symmetric to within 1e-12")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def uncertainty_defect(self) -> float:
        """Smallest eigenvalue of cov + (i/2)*Sigma; physical states give >= -1e-10."""
        sigma = symplectic_form(self.n_modes)
        herm = self.cov + 0.5j * sigma
        return float(np.linalg.eigvalsh(herm).min())

    def is_physical(self) -> bool:
        return self.uncertainty_defect() >= -_UNCERTAINTY_TOL

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic eigenvalues of cov (all equal to 1/4 for pure states)."""
        omega = 2.0 * symplectic_form(self.n_modes)
        ev = np.sort(np.abs(np.linalg.eigvals(1j * omega @ self.cov)))
        return ev[::2]  # eigenvalues come in +- pairs; keep one of each


@dataclass(frozen=True)
class AffinePropagator:
    """Linear map x -> mat @ x + disp on quadrature space at a given time."""

    mat: np.ndarray
    disp: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        mat = _freeze(self.mat)
        disp = _freeze(self.disp)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("mat must be square")
        if disp.shape != (mat.shape[0],):
            raise ValueError("disp length must match mat")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "disp", disp)

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2

    def symplectic_defect(self) -> float:
        """max |M Sigma M^T - Sigma|; Hamiltonian dynamics keeps this ~ 0."""
        sigma = symplectic_form(self.n_modes)
        return float(np.max(np.abs(self.mat @ sigma @ self.mat.T - sigma)))


@dataclass(frozen=True)
class LinearObservable:
    """Real coefficient vector defining a measured quadrature combination."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _freeze(self.coeffs)
        if coeffs.ndim != 1 or not np.any(coeffs):
            raise ValueError("coeffs must be a non-zero vector")
        object.__setattr__(self, "coeffs", coeffs)


def vacuum_state(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, cov = (1/4) identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    d = 2 * n_modes
    return GaussianState(n_modes, np.zeros(d), 0.25 * np.eye(d))


def thermal_state(n_bar: float) -> GaussianState:
    """Single-mode thermal state with mean occupation n_bar."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    v = (2.0 * n_bar + 1.0) / 4.0
    return GaussianState(1, np.zeros(2), v * np.eye(2))


def nbar_from_temperature(omega: float, temp: float) -> float:
    """Mean thermal occupation 1/(exp(hbar*omega/kB*T) - 1) of a mode at omega [rad/s]."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temp <= 0:
        raise ValueError("temp must be positive")
    return 1.0 / np.expm1(hbar * omega / (k_B * temp))


def two_mode_squeezed(s: float) -> GaussianState:
    """Two-mode squeezed vacuum sqrt(1-tanh^2 s) * sum_n tanh^n(s) |n,n>.

    For s > 0 the correlations <a1 a2> = cosh(s) sinh(s) > 0 reduce the
    variances of X1 - X2 and Y1 + Y2 below vacuum.
    """
    if not np.isfinite(s):
        raise ValueError("s must be finite")
    ch, sh = np.cosh(2.0 * s) / 4.0, np.sinh(2.0 * s) / 4.0
    cov = np.zeros((4, 4))
    # X block (indices 0, 2) and Y block (indices 1, 3)
    cov[0, 0] = cov[2, 2] = ch
    cov[0, 2] = cov[2, 0] = sh
    cov[1, 1] = cov[3, 3] = ch
    cov[1, 3] = cov[3, 1] = -sh
    return GaussianState(2, np.zeros(4), cov)


def single_mode_squeezed(s: float, phi: float) -> GaussianState:
    """Squeezed vacuum exp[zeta* a^2 - zeta a^dag^2]|0> with zeta = (s/2) e^{2i phi}.

    At phi = 0 the X quadrature is squeezed: Var(X) = e^{-2s}/4.
    """
    if not (np.isfinite(s) and np.isfinite(phi)):
        raise ValueError("s and phi must be finite")
    ch, sh = np.cosh(2.0 * s), np.sinh(2.0 * s)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    cov = 0.25 * np.array(
        [
            [ch - sh * c2, -sh * s2],
            [-sh * s2, ch + sh * c2],
        ]
    )
    return GaussianState(1, np.zeros(2), cov)


def tensor(states: list[GaussianState]) -> GaussianState:
    """Tensor product: block-diagonal covariance, concatenated means."""
    if not states:
        raise ValueError("tensor requires at least one state")
    n = sum(st.n_modes for st in states)
    d = 2 * n
    mean = np.concatenate([st.mean for st in states])
    cov = np.zeros((d, d))
    off = 0
    for st in states:
        k = 2 * st.n_modes
        cov[off : off + k, off : off + k] = st.cov
        off += k
    return GaussianState(n, mean, cov)


def reorder_modes(state: GaussianState, order: list[int]) -> GaussianState:
    """Permute modes so that new mode i is old mode order[i]."""
    if sorted(order) != list(range(state.n_modes)):
        raise ValueError("order must be a permutation of range(n_modes)")
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in order])
    return GaussianState(state.n_modes, state.mean[idx], state.cov[np.ix_(idx, idx)])


def expectation(obs: LinearObservable, state: GaussianState) -> float:
    if obs.coeffs.shape != state.mean.shape:
        raise ValueError("observable/state dimension mismatch")
    return float(obs.coeffs @ state.mean)


def variance(obs: LinearObservable, state: GaussianState) -> float:
    if obs.coeffs.shape != state.mean.shape:
        raise ValueError("observable/state dimension mismatch")
    return float(obs.coeffs @ state.cov @ obs.coeffs)


def apply(prop: AffinePropagator, state: GaussianState) -> GaussianState:
    """Propagate moments: mean -> M mean + d, cov -> M cov M^T."""
    if prop.mat.shape[0] != 2 * state.n_modes:
        raise ValueError("propagator/state dimension mismatch")
    mean = prop.mat @ state.mean + prop.disp
    cov = prop.mat @ state.cov @ prop.mat.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(state.n_modes, mean, cov)
