"""Three-mode cavityless force-sensing scheme.

A vibrating mirror (mode b) scatters an intense laser into Stokes (a1) and
anti-Stokes (a2) sidebands with couplings chi and theta (theta > chi > 0).
A classical force drives the mirror at its own frequency Omega; it enters
linearly, so every output is per unit force (f = 1) and the params carry no
force.  The readout is the heterodyne combination Z_I = Y1 + Y2.
closed_propagator returns the RK4 oracle's pair (M(t), d(t)), and the params
refuse Theta = Omega when they are built.

Mode order is (a1, b, a2); quadrature order (X1, Y1, Xb, Yb, X2, Y2).
Times are most conveniently expressed through the beat frequency
Theta = sqrt(theta^2 - chi^2): the probe and meter disentangle at
Theta*t = pi, where the thermal occupation of the mirror drops out of the
measured variance.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    LinearObservable,
    reorder_modes,
    tensor,
    thermal_state,
    two_mode_squeezed,
)

#: Minimum Omega^2/Theta^2 before the model is flagged as outside its
#: derivation regime (the effective Hamiltonian assumes Omega^2 >> Theta^2).
REGIME_RATIO_MIN = 10.0

_DEGENERATE_TOL = 1e-9

_EYE6 = np.eye(6)
_EYE6.setflags(write=False)

#: chi in from_ratios: the Stokes coupling sets the unit of time
CHI = 1.0

#: sqrt of the largest float: the squares of the closed forms stay finite below it
_SQRT_MAX = math.sqrt(sys.float_info.max)


def _below_sqrt_max(ratio: str, value: float, name: str, coupling: float) -> None:
    """Raise ValueError, naming the ratio and its value, if the coupling it sets
    squares past the largest float."""
    if not coupling < _SQRT_MAX:
        raise ValueError(f"{ratio}: {value:.6g} gives {name} = {coupling:.6g}, whose square "
                         f"overflows; theta and Omega must be below {_SQRT_MAX:.3g}")


def check_ratios(theta_over_chi: float, omega_over_theta: float) -> None:
    """ValueError naming the first ratio outside theta/chi > 1, Omega/Theta > 0
    (a NaN is outside): from_ratios' domain, which full_params checks for both models."""
    if not theta_over_chi > 1.0:
        raise ValueError("theta_over_chi: theta must exceed chi (theta/chi > 1 required)")
    if not omega_over_theta > 0.0:
        raise ValueError("omega_over_theta: must be positive")


def _Theta(theta: float, chi: float) -> float:
    """sqrt(theta^2 - chi^2) as a Python float, for Theta and from_ratios."""
    return float(np.sqrt(theta**2 - chi**2))


class DegenerateResonanceError(ValueError):
    """Theta = Omega: the forced-response denominators Omega^2 - Theta^2 vanish."""


@dataclass(frozen=True)
class CavitylessParams:
    """Couplings (chi, theta) and mirror frequency omega."""

    chi: float
    theta: float
    omega: float

    #: every output is per unit force: f = 1 is a read-only class constant,
    #: not a field, kept for callers that divide by it
    force = 1.0

    def __post_init__(self):
        for name in ("chi", "theta", "omega"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        if self.theta <= self.chi:
            raise ValueError("theta must exceed chi (theta/chi > 1 required)")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        ratio = self.omega**2 / self.Theta**2
        if ratio < REGIME_RATIO_MIN:
            warnings.warn(
                f"omega^2/Theta^2 = {ratio:.3g} < {REGIME_RATIO_MIN}: outside the "
                "validity regime omega^2 >> Theta^2 of the effective Hamiltonian",
                stacklevel=2,
            )
        if abs(self.Theta - self.omega) < _DEGENERATE_TOL:
            raise DegenerateResonanceError(
                "Theta = Omega within tolerance; forced response is degenerate "
                "(the model assumes Omega^2 >> Theta^2 anyway)"
            )

    # the params are immutable: the constants of the closed forms are
    # computed once per instance, on first use

    @functools.cached_property
    def Theta(self) -> float:
        return _Theta(self.theta, self.chi)

    @functools.cached_property
    def _drift_powers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (1, A, A^2) of closed_propagator and noise.  generator
        builds its own A through drift_matrix: the oracle never reads this
        cache."""
        a = drift_matrix(self)
        a2 = a @ a
        a.setflags(write=False)
        a2.setflags(write=False)
        return _EYE6, a, a2

    @classmethod
    def from_ratios(cls, theta_over_chi: float, omega_over_theta: float) -> "CavitylessParams":
        """Build from the ratio-based parameterization with chi = CHI.

        omega_over_theta is Omega/Theta, with Theta = sqrt(theta^2 - chi^2).
        check_ratios refuses a ratio outside the domain before Theta is
        computed, and a ratio that puts theta or Omega at or above
        _SQRT_MAX, where its square overflows, is a ValueError that names it.
        """
        check_ratios(theta_over_chi, omega_over_theta)
        theta = theta_over_chi * CHI
        _below_sqrt_max("theta_over_chi", theta_over_chi, "theta", theta)
        omega = omega_over_theta * _Theta(theta, CHI)
        _below_sqrt_max("omega_over_theta", omega_over_theta, "Omega", omega)
        return cls(chi=CHI, theta=theta, omega=omega)


def drift_matrix(params: CavitylessParams) -> np.ndarray:
    """Constant part A of the mean-field equations dm/dt = A m + c(t)."""
    chi, th = params.chi, params.theta
    a = np.zeros((6, 6))
    # X sector: X1' = chi Xb ; Xb' = chi X1 - theta X2 ; X2' = theta Xb
    a[0, 2] = chi
    a[2, 0] = chi
    a[2, 4] = -th
    a[4, 2] = th
    # Y sector: Y1' = -chi Yb ; Yb' = -chi Y1 - theta Y2 ; Y2' = theta Yb
    a[1, 3] = -chi
    a[3, 1] = -chi
    a[3, 5] = -th
    a[5, 3] = th
    return a


def drive_vector(params: CavitylessParams, t) -> np.ndarray:
    """Force drive c(t), shape t.shape + (6,): the mirror is pushed at its
    own frequency."""
    c = np.zeros(np.shape(t) + (6,))
    w = params.omega
    c[..., 2] = -w * np.sin(w * t)
    c[..., 3] = w * np.cos(w * t)
    return c


def generator(params: CavitylessParams, t) -> tuple[np.ndarray, np.ndarray]:
    """(A, c(t)) with dm/dt = A m + c(t) and dV/dt = A V + V A^T, the oracle's
    Generator: one constant (6, 6) A and c of shape t.shape + (6,)."""
    return drift_matrix(params), drive_vector(params, t)


def _homogeneous(params: CavitylessParams, t: float) -> tuple:
    """(M(t), sin(Theta t), cos(Theta t)), with
    M = 1 + A sin(Theta t)/Theta + A^2 (1 - cos(Theta t))/Theta^2,
    which follows from A^3 = -Theta^2 A sector-wise."""
    e, a, a2 = params._drift_powers
    Th = params.Theta
    st, ct = np.sin(Th * t), np.cos(Th * t)
    return e + a * (st / Th) + a2 * ((1.0 - ct) / Th**2), st, ct


def closed_propagator(params: CavitylessParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact propagator (M(t), d(t)) of the linear dynamics, d per unit force.

    The homogeneous part M is _homogeneous.  The force displacement is the
    exact harmonic-drive response (the trigonometric form; the hyperbolic
    force term quoted for a1 in the source solutions fails the dynamics
    oracle and is not used here).
    """
    chi, th, w, Th = params.chi, params.theta, params.omega, params.Theta
    mat, st, ct = _homogeneous(params, t)

    sw, cw = np.sin(w * t), np.cos(w * t)
    den = w**2 - Th**2
    # Response integrals of exp(A(t-tau)) against the sin/cos drive in the
    # mirror slot, reduced with the same A^3 = -Theta^2 A identity.
    d = np.zeros(6)
    d[0] = chi * w * (sw - (w / Th) * st) / den  # X1
    d[1] = chi * w * (cw - ct) / den  # Y1
    d[2] = w**2 * (cw - ct) / den  # Xb
    d[3] = w * (w * sw - Th * st) / den  # Yb
    d[4] = th * w * (sw - (w / Th) * st) / den  # X2
    d[5] = -th * w * (cw - ct) / den  # Y2
    return mat, d


def z_i_observable() -> LinearObservable:
    """Imaginary heterodyne quadrature Z_I = Y1 + Y2 of the sideband modes."""
    return LinearObservable(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0]))


#: Coefficients z of Z_I, read by noise at every call
_READOUT = z_i_observable().coeffs


def initial_state(s: float, n_th: float) -> GaussianState:
    """Initial probe/meter state in mode order (a1, b, a2).

    The sidebands are prepared in a two-mode squeezed vacuum whose
    correlation sign reduces Var(X1 + X2) and Var(Y1 - Y2) for s > 0: that
    is the combination Z_I evolves into at the disentangling time
    Theta*t = pi, and the sign the published noise formula is consistent
    with.  The mirror starts thermal with occupation n_th.
    """
    meter = two_mode_squeezed(-s)
    full = tensor([meter, thermal_state(n_th)])  # modes (a1, a2, b)
    return reorder_modes(full, [0, 2, 1])


def signal(params: CavitylessParams, t: float) -> float:
    """Mean of Z_I per unit f: (theta-chi)[cos(Theta t) - cos(Omega t)] Omega/(Omega^2-Theta^2)."""
    chi, th, w, Th = params.chi, params.theta, params.omega, params.Theta
    return (th - chi) * (np.cos(Th * t) - np.cos(w * t)) * w / (w**2 - Th**2)


def noise(params: CavitylessParams, t: float, s: float, n_th: float) -> float:
    """Var(Z_I)(t) from covariance propagation of the initial state."""
    mat, _, _ = _homogeneous(params, t)
    u = mat.T @ _READOUT
    v0 = initial_state(s, n_th).cov
    return float(u @ v0 @ u)


def noise_literal(params: CavitylessParams, t: float, s: float, n_th: float) -> float:
    """Literal transcription of the published closed-form noise.

    Kept as a diagnostic: the validation ledger quantifies its deviation
    from covariance propagation (the sinh(2s) terms carry the sign of s
    opposite to a literal reading of the squeezed-state correlations).
    """
    chi, th = params.chi, params.theta
    Th4 = params.Theta**4
    ct = np.cos(params.Theta * t)
    st = np.sin(params.Theta * t)
    u = th**2 + chi**2
    v = th * chi
    term1 = (
        -(2 * v * u * (1 - ct) ** 2 + 8 * v**2 * ct - u**2 * (1 + ct**2))
        / (4 * Th4)
        * (1 + 2 * np.sinh(s) ** 2)
    )
    term2 = (
        -(-(u**2) * ct + 2 * v**2 * (1 + ct**2) - v * u * (1 - ct) ** 2)
        / (2 * Th4)
        * np.sinh(2 * s)
    )
    term3 = (th - chi) ** 2 / (4 * params.Theta**2) * st**2 * (1 + 2 * n_th)
    return float(term1 + term2 + term3)


def f_min_at_pi_closed(params: CavitylessParams, s: float) -> float:
    """Closed form at Theta*t = pi with the oracle-confirmed (1 + cos) denominator."""
    chi, th, w, Th = params.chi, params.theta, params.omega, params.Theta
    den = np.sqrt(2.0) * (th + chi) * w * (1.0 + np.cos(np.pi * w / Th))
    if den == 0.0:  # an odd Omega/Theta: the signal at Theta*t = pi vanishes
        return float("inf")
    return float((w**2 - Th**2) * np.exp(-s) / den)


def f_min_at_pi_literal(params: CavitylessParams, s: float) -> float:
    """Published closed form with its (1 - cos) denominator, kept as a diagnostic."""
    chi, th, w, Th = params.chi, params.theta, params.omega, params.Theta
    den = np.sqrt(2.0) * (th + chi) * w * (1.0 - np.cos(np.pi * w / Th))
    if den == 0.0:
        return float("inf")
    return float((w**2 - Th**2) * np.exp(-s) / den)


# ---------------------------------------------------------------------------
# Scheme interface, shared with the cavity module (see analysis.SCHEMES)

#: Scaled disentangling time Theta*t at which the thermal noise cancels.
T_STAR = np.pi

# an alias: the original name keeps its callers.  An alias is bound at
# import, so a patch set later on the original name does not reach it.
readout_observable = z_i_observable


def params_from_ratios(ratios: dict) -> CavitylessParams:
    """Params from the ratio dict of analysis.DEFAULT_PARAMS (chi = 1)."""
    return CavitylessParams.from_ratios(ratios["theta_over_chi"], ratios["omega_over_theta"])


def time_unit(params: CavitylessParams) -> float:
    """Theta: scaled times are Theta*t."""
    return params.Theta


def readout(params: CavitylessParams, t: float, s: float, n_th: float) -> tuple[float, float]:
    """(signal per unit f, Var(Z_I)) at time t: the sweep's fast path."""
    return signal(params, t), noise(params, t, s, n_th)


def meter_state(params: CavitylessParams, t: float, s: float, n_th: float) -> GaussianState:
    """Initial state whose Z_I is read at time t; here independent of t."""
    return initial_state(s, n_th)


def power_scaled(params: CavitylessParams, multiplier: float) -> CavitylessParams:
    """chi, theta -> sqrt(m) (chi, theta) at fixed theta/chi and mirror frequency.

    A theta sqrt(m) at or above _SQRT_MAX, where its square overflows, is a
    ValueError that names theta/chi, theta sqrt(m) and the bound.
    """
    scale = float(np.sqrt(multiplier))  # a Python float: the params repr shows no numpy type
    theta = params.theta * scale
    _below_sqrt_max("theta_over_chi", params.theta / params.chi, "theta sqrt(m)", theta)
    return CavitylessParams(params.chi * scale, theta, params.omega)


def in_regime(params: CavitylessParams) -> bool:
    """Omega^2/Theta^2 >= REGIME_RATIO_MIN, where the effective Hamiltonian holds."""
    return params.omega**2 / params.Theta**2 >= REGIME_RATIO_MIN
