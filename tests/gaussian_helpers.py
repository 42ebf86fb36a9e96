"""Gaussian-state algebra that only the tests use: the vacuum, the symplectic
form and the uncertainty and purity checks built on it, the moments of a
linear observable, and the transport of a state's moments by an affine
propagator (M, d).  Same convention as optoforce.gaussian: quadratures
(X_1, Y_1, X_2, Y_2, ...) with vacuum variance 1/4.
"""

from __future__ import annotations

import numpy as np

from optoforce.gaussian import GaussianState, LinearObservable

UNCERTAINTY_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Sigma: block-diagonal 2x2 blocks [[0, 1/2], [-1/2, 0]]."""
    block = np.array([[0.0, 0.5], [-0.5, 0.0]])
    sigma = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        sigma[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    return sigma


def uncertainty_defect(state: GaussianState) -> float:
    """Smallest eigenvalue of cov + (i/2)*Sigma; physical states give >= -1e-10."""
    sigma = symplectic_form(state.n_modes)
    herm = state.cov + 0.5j * sigma
    return float(np.linalg.eigvalsh(herm).min())


def is_physical(state: GaussianState) -> bool:
    return uncertainty_defect(state) >= -UNCERTAINTY_TOL


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic eigenvalues of cov (all equal to 1/4 for pure states)."""
    omega = 2.0 * symplectic_form(state.n_modes)
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega @ state.cov)))
    return ev[::2]  # eigenvalues come in +- pairs; keep one of each


def vacuum_state(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, cov = (1/4) identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    d = 2 * n_modes
    return GaussianState(np.zeros(d), 0.25 * np.eye(d))


def expectation(obs: LinearObservable, state: GaussianState) -> float:
    if obs.coeffs.shape != state.mean.shape:
        raise ValueError("observable/state dimension mismatch")
    return float(obs.coeffs @ state.mean)


def variance(obs: LinearObservable, state: GaussianState) -> float:
    if obs.coeffs.shape != state.mean.shape:
        raise ValueError("observable/state dimension mismatch")
    return float(obs.coeffs @ state.cov @ obs.coeffs)


def apply(prop: tuple[np.ndarray, np.ndarray], state: GaussianState) -> GaussianState:
    """Propagate moments by prop = (M, d), the map x -> M x + d that the closed
    forms and the RK4 oracle return: mean -> M mean + d, cov -> M cov M^T."""
    mat, disp = prop
    if mat.shape != state.cov.shape:
        raise ValueError("propagator/state dimension mismatch")
    mean = mat @ state.mean + disp
    cov = mat @ state.cov @ mat.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(mean, cov)
