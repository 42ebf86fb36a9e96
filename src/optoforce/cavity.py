"""Single-mode cavity comparison scheme.

A resonant (Delta = 0) cavity mode a couples to the mirror b through
radiation pressure with strength g*alpha (alpha real); the same classical
force f drives the mirror.  Only the phase quadrature Y of the cavity field
carries force information; it is read out by homodyne detection.

Mode order is (a, b); quadrature order (Xa, Ya, Xb, Yb).  The amplitude
quadrature Xa is a constant of motion.  Thermal mirror noise drops out of
Var(Y) at the decorrelation times Omega*t = 2*pi*k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    AffinePropagator,
    GaussianState,
    LinearObservable,
    single_mode_squeezed,
    tensor,
    thermal_state,
)

#: Omega in from_ratios: the mirror frequency sets the unit of time
OMEGA = 1.0

#: Grid size of the brute-force phi scan in scan_noise_over_phi
PHI_SCAN_POINTS = 10_000


@dataclass(frozen=True)
class CavityParams:
    """Effective coupling g*alpha, mirror frequency and force strength."""

    g_alpha: float
    omega: float
    force: float = 1.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not np.isfinite(self.g_alpha):
            raise ValueError("g_alpha must be finite")

    @functools.cached_property
    def r(self) -> float:
        """The combination 2*g*alpha/Omega entering every closed form."""
        return 2.0 * self.g_alpha / self.omega

    @classmethod
    def from_ratios(cls, g_alpha_over_omega: float, force: float = 1.0) -> "CavityParams":
        """Build from g*alpha/Omega with Omega = OMEGA."""
        return cls(g_alpha=g_alpha_over_omega * OMEGA, omega=OMEGA, force=force)


@dataclass(frozen=True)
class MeterSqueezing:
    """Squeezing (magnitude s, angle phi) of the cavity meter mode."""

    s: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.phi)):
            raise ValueError("s and phi must be finite")


def drift_matrix(params: CavityParams) -> np.ndarray:
    """Constant A: Xa' = 0, Ya' = -2ga Xb, Xb' = w Yb, Yb' = -w Xb - 2ga Xa."""
    ga2, w = 2.0 * params.g_alpha, params.omega
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -ga2, 0.0],
            [0.0, 0.0, 0.0, w],
            [-ga2, 0.0, -w, 0.0],
        ]
    )


def drive_vector(params: CavityParams, t) -> np.ndarray:
    """Constant force drive Omega*f in the Yb slot, shape t.shape + (4,)."""
    c = np.zeros(np.shape(t) + (4,))
    c[..., 3] = params.omega * params.force
    return c


def generator(params: CavityParams, t) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) with dm/dt = A m + c and dV/dt = A V + V A^T; t a time or an
    array of times (the oracle's Generator)."""
    return drift_matrix(params), drive_vector(params, t)


def closed_propagator(params: CavityParams, t: float) -> AffinePropagator:
    """Exact propagator: driven mirror rotation plus secular growth of Ya.

    The Ya row carries (2ga/Omega)^2 [Omega t - sin(Omega t)] on Xa(0) and
    the mirror quadratures at weight 2ga/Omega; the force displacement in
    Ya is -(2ga/Omega)[Omega t - sin(Omega t)] f (readout sign is fixed by
    the observable, see readout_observable).
    """
    r, w, f = params.r, params.omega, params.force
    wt = w * t
    s, c = np.sin(wt), np.cos(wt)
    sec = wt - s  # secular factor Omega t - sin(Omega t)
    mat = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [r**2 * sec, 1.0, -r * s, -r * (1.0 - c)],
            [-r * (1.0 - c), 0.0, c, s],
            [-r * s, 0.0, -s, c],
        ]
    )
    d = np.array([0.0, -r * sec * f, (1.0 - c) * f, s * f])
    return AffinePropagator(mat, d, time=t)


def readout_observable() -> LinearObservable:
    """Homodyne readout of the phase quadrature.

    The local-oscillator sign is chosen as -Ya so that the mean grows
    positively with a positive force; only |signal| and Var enter the
    sensitivity, so the choice is a convention.
    """
    return LinearObservable(np.array([0.0, -1.0, 0.0, 0.0]))


#: Coefficients of the readout, read by noise at every call
_READOUT = readout_observable().coeffs


def initial_state(meter: MeterSqueezing, n_th: float) -> GaussianState:
    """Squeezed cavity meter tensor thermal mirror, in mode order (a, b)."""
    return tensor([single_mode_squeezed(meter.s, meter.phi), thermal_state(n_th)])


def signal(params: CavityParams, t: float) -> float:
    """Mean readout (2ga/Omega)[Omega t - sin(Omega t)] f; nondecreasing in t."""
    wt = params.omega * t
    return params.r * (wt - np.sin(wt)) * params.force


def noise(params: CavityParams, t: float, meter: MeterSqueezing, n_th: float) -> float:
    """Var(Y)(t) from covariance propagation of the initial state."""
    prop = closed_propagator(params, t)
    zt = prop.mat.T @ _READOUT
    v0 = initial_state(meter, n_th).cov
    return float(zt @ v0 @ zt)


def noise_literal(
    params: CavityParams, t: float, meter: MeterSqueezing, n_th: float
) -> float:
    """Literal transcription of the published noise formula.

    Written with unnormalized (a +- a^dag) variances: it is a constant
    factor k = 4 above the module's 1/4-vacuum convention, and its
    squeezing angle is reflected (phi -> -phi) relative to the
    exp[zeta* a^2 - zeta a^dag 2] convention.  Diagnostic only.
    """
    r, w = params.r, params.omega
    wt = w * t
    s2p = np.sin(meter.phi) * np.cos(meter.phi)
    em, ep = np.exp(-2.0 * meter.s), np.exp(2.0 * meter.s)
    cos_p2, sin_p2 = np.cos(meter.phi) ** 2, np.sin(meter.phi) ** 2
    sec = wt - np.sin(wt)
    out = (r / 2.0) ** 2 * np.sin(wt) ** 2 * (1.0 + 2.0 * n_th)
    out += (r / 2.0) ** 2 * (1.0 - np.cos(wt)) ** 2 * (1.0 + 2.0 * n_th)
    out += r**4 * sec**2 * (em * cos_p2 + ep * sin_p2)
    out += em * sin_p2 + ep * cos_p2
    out += 2.0 * r**2 * sec * (ep - em) * s2p
    return float(out)


def _phi_quadratic_terms(params: CavityParams, t: float, s: float) -> tuple[float, float, float]:
    """Meter part of Var(Y) as (const + A cos 2phi + B sin 2phi)."""
    r, w = params.r, params.omega
    c = r**2 * (w * t - np.sin(w * t))
    sh = np.sinh(2.0 * s)
    const = 0.25 * (1.0 + c**2) * np.cosh(2.0 * s)
    a = 0.25 * (1.0 - c**2) * sh
    b = -0.5 * c * sh
    return const, a, b


def _mirror_noise(params: CavityParams, t: float, n_th: float) -> float:
    r, w = params.r, params.omega
    wt = w * t
    k2 = (r * np.sin(wt)) ** 2 + (r * (1.0 - np.cos(wt))) ** 2
    return 0.25 * k2 * (1.0 + 2.0 * n_th)


def minimize_noise_over_phi(
    params: CavityParams, t: float, s: float, n_th: float
) -> tuple[float, float]:
    """Analytic minimum of Var(Y)(t) over the squeezing angle phi.

    The meter contribution is a quadratic form in (cos phi, sin phi); its
    minimum is the smaller eigenvalue, (1 + c^2) e^{-2|s|}/4 with
    c = (2ga/Omega)^2 [Omega t - sin(Omega t)].
    """
    const, a, b = _phi_quadratic_terms(params, t, s)
    amp = np.hypot(a, b)
    noise_min = const - amp + _mirror_noise(params, t, n_th)
    # a cos(2phi) + b sin(2phi) is minimized at 2phi = atan2(-b, -a)
    phi_opt = 0.5 * np.arctan2(-b, -a) % np.pi
    return float(phi_opt), float(noise_min)


def scan_noise_over_phi(
    params: CavityParams, t: float, s: float, n_th: float
) -> tuple[float, float]:
    """Brute-force PHI_SCAN_POINTS-point phi scan over [0, pi) with local
    bounded refinement.

    Independent cross-check of minimize_noise_over_phi; the two agree to
    better than 1e-8.  The angle only rotates the meter, V0(phi) =
    R(phi) V0(0) R(phi)^T on its quadratures, so Var(Y) at every angle is
    the variance under the phi = 0 state of u = M(t)^T y with its meter pair
    rotated by -phi.
    """
    # imported on use: of the CLI commands only validate scans
    from scipy.optimize import minimize_scalar

    u = closed_propagator(params, t).mat.T @ _READOUT
    v0 = initial_state(MeterSqueezing(s, 0.0), n_th).cov

    def cost(phi):
        """Var(Y) at the angles phi: an array of them, or one float."""
        c, sn = np.cos(phi), np.sin(phi)
        w = np.multiply.outer(np.ones_like(phi), u)  # u per angle, meter pair rotated below
        w[..., 0], w[..., 1] = c * u[0] + sn * u[1], c * u[1] - sn * u[0]
        return np.einsum("...i,ij,...j->...", w, v0, w)

    phis = np.linspace(0.0, np.pi, PHI_SCAN_POINTS, endpoint=False)
    i = int(np.argmin(cost(phis)))
    h = np.pi / PHI_SCAN_POINTS
    res = minimize_scalar(
        cost, bounds=(phis[i] - h, phis[i] + h), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x % np.pi), float(res.fun)


def f_min(params: CavityParams, t: float, meter: MeterSqueezing, n_th: float) -> float:
    """Minimum detectable force sqrt(N)/|S| per unit f; inf at zero signal."""
    sig_per_f = signal(params, t) / params.force
    if sig_per_f == 0.0:
        return float("inf")
    return float(np.sqrt(noise(params, t, meter, n_th)) / abs(sig_per_f))


def f_min_2pi(params: CavityParams, s: float) -> float:
    """f_min at Omega*t = 2*pi with the phi-optimized meter (thermal-free).

    Module convention: sqrt(1/4) contributes a factor 1/2 relative to the
    published expression, see f_min_2pi_literal.
    """
    r = params.r
    c = 2.0 * np.pi * r**2
    noise_min = 0.25 * (1.0 + c**2) * np.exp(-2.0 * abs(s))
    sig = r * 2.0 * np.pi
    return float(np.sqrt(noise_min) / sig)


def f_min_2pi_literal(params: CavityParams, s: float) -> float:
    """Published f_min(Omega t = 2 pi); twice the module-convention value."""
    ga_w = params.g_alpha / params.omega
    num = np.sqrt(1.0 + 4.0 * np.pi**2 * (2.0 * ga_w) ** 4)
    return float(num * np.exp(-s) / (4.0 * np.pi * ga_w))


# ---------------------------------------------------------------------------
# Scheme interface, shared with the cavityless module (see analysis.SCHEMES)

#: Scaled decorrelation time Omega*t at which the thermal noise cancels.
T_STAR = 2.0 * np.pi

# aliases: the original names keep their callers.  An alias is bound at
# import, so a patch set later on the original name does not reach it.
f_min_at_t_star = f_min_2pi


def params_from_ratios(ratios: dict) -> CavityParams:
    """Params from the ratio dict of analysis.DEFAULT_PARAMS (Omega = 1)."""
    return CavityParams.from_ratios(ratios["g_alpha_over_omega"], force=ratios.get("f", 1.0))


def time_unit(params: CavityParams) -> float:
    """Omega: scaled times are Omega*t."""
    return params.omega


def readout(params: CavityParams, t: float, s: float, n_th: float) -> tuple[float, float]:
    """(signal per unit f, Var(Y)) at time t with the squeezing angle optimized there."""
    return signal(params, t) / params.force, minimize_noise_over_phi(params, t, s, n_th)[1]


def meter_state(params: CavityParams, t: float, s: float, n_th: float) -> GaussianState:
    """Initial state with the squeezing angle that minimizes Var(Y) at time t."""
    phi, _ = minimize_noise_over_phi(params, t, s, n_th)
    return initial_state(MeterSqueezing(s, phi), n_th)


def power_scaled(params: CavityParams, multiplier: float) -> CavityParams:
    """g*alpha -> sqrt(m) g*alpha at fixed mirror frequency."""
    return CavityParams(params.g_alpha * np.sqrt(multiplier), params.omega, params.force)


def in_regime(params: CavityParams) -> bool:
    """The cavity model has no regime condition."""
    return True
