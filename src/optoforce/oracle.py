"""Independent validation engines.

Two deliberately separate code paths back every closed form in the package:

* fixed-step RK4 integration of the affine propagator x -> M x + d of
  dx/dt = A x + c(t), A constant, as the augmented ODE Y' = [[A, c], [0, 0]] Y;
  the moments are read off it as m = M m0 + d and V = M V0 M^T, for one
  state or a stack of states; integrate_propagator_track composes the runs
  of a forward track's segments, each planned by its caller with its own
  time-shifted generator and step count, into (M, d) at each segment's end,
* truncated Fock-space moments of the initial states, one function per
  family: thermal_moments(n_bar), tmsv_moments(s) for the two-mode squeezed
  vacuum and squeezed_moments(s, phi) for the single-mode squeezed vacuum.
  Each reads <a>, <a^2>, <a^dag a> and <1> (and <a1 a2>) off the state's
  number-basis amplitudes as sums over n; no truncated operator is formed.

The RK4 stepper works in blocks of at most _BLOCK_STEPS steps.  Per block it
samples the generator once, on the array of the block's stage times, forms
each step's increment D_k (one RK4 step is Y -> (1 + D_k) Y) from its stages'
drift parts, products of A alone formed once per block, and drive parts, one
row per step, and composes the increments in time order, pairwise, as
(1 + D_b)(1 + D_a) = 1 + (D_a + D_b + D_b D_a).  The identity is added once,
at the end: forming 1 + D_k in double precision would round the same way
every step and the non-normal transient would amplify it.

Both are deterministic; neither shares code with the closed-form
propagators they certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: t -> (A, c(t)) on a 1-D array of k times: one constant (dim, dim) drift A,
#: the same at every time, and a drive c that broadcasts to (k, dim)
Generator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_MAX_CUTOFF = 600
#: Largest neglected Fock-tail weight of the Fock oracle's cutoff
_TAIL_TOL = 1e-12
_STEP_SAFETY = 0.1
#: RK4 steps per block: one generator call and one set of stage products
#: each.  Longer blocks lose precision: on the cavityless propagator at
#: theta/chi = 1.01, Omega/Theta = 12, Theta t = 2 pi in 6299 steps, M deviates
#: from the closed form by 2.9e-11 with 256-step blocks, 2.6e-10 with 1024
#: and 1.0e-9 with 4096 or more.
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class OdeSpec:
    """Fixed-step RK4 problem: generator t -> (A, c) (see Generator), horizon
    and step count.  An A that is not one (dim, dim) matrix (a per-time
    stack) does not match dim; an A or c(0) that is not finite is refused by
    name, and a step with ||A|| h >= _STEP_SAFETY, naming the steps it needs."""

    dim: int
    generator: Generator
    t_final: float
    n_steps: int

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2:
            raise ValueError("dim must be a positive even integer")
        if self.n_steps < 100:
            raise ValueError("n_steps must be >= 100")
        a, c = self.generator(np.zeros(1))
        if np.shape(a) != (self.dim, self.dim) or np.shape(c)[-1:] != (self.dim,):
            raise ValueError("generator output does not match dim")
        for name, value in (("A", a), ("c", c)):
            if not np.isfinite(value).all():
                raise ValueError(f"generator: {name} at t = 0 is not finite")
        norm = np.linalg.norm(a, 2)
        step = norm * abs(self.t_final / self.n_steps)
        if step >= _STEP_SAFETY:
            needed = int(np.ceil(norm * abs(self.t_final) / _STEP_SAFETY)) + 1
            raise ValueError(
                f"step size too large: ||A|| h = {step:.3g} >= {_STEP_SAFETY}; "
                f"use n_steps >= {needed}"
            )


def _compose(incs: np.ndarray) -> np.ndarray:
    """D with 1 + D = (1 + D_{m-1}) ... (1 + D_0) for increments D_k in time
    order, composed pairwise as (1 + D_b)(1 + D_a) = 1 + (D_a + D_b + D_b D_a)."""
    while len(incs) > 1:
        half = len(incs) // 2
        a, b = incs[0 : 2 * half : 2], incs[1 : 2 * half : 2]
        pairs = a + b + b @ a
        incs = np.concatenate([pairs, incs[2 * half :]]) if len(incs) % 2 else pairs
    return incs[0]


def _increments(spec: OdeSpec, k0: int, m: int) -> np.ndarray:
    """The one-step increments D_k of steps k0 .. k0 + m - 1, shape (m, dim+1, dim+1).

    Stage K_j = [[X_j, y_j], [0, 0]] has the drift part X_j = A (1 + step X_j-1),
    the same every step, and the drive part y_j = c + step A y_j-1, one row each."""
    h = spec.t_final / spec.n_steps
    times = (2 * k0 + np.arange(2 * m + 1)) * (h / 2.0)
    a, c = spec.generator(times)
    c = np.broadcast_to(c, (times.size, spec.dim))
    c0, c_half, c1 = c[0:-1:2], c[1::2], c[2::2]
    x2 = a + (h / 2.0) * (a @ a)
    x3 = a + (h / 2.0) * (a @ x2)
    x4 = a + h * (a @ x3)
    y2 = c_half + (h / 2.0) * (c0 @ a.T)
    y3 = c_half + (h / 2.0) * (y2 @ a.T)
    y4 = c1 + h * (y3 @ a.T)
    # D = (h/6)(K1 + 2 K2 + 2 K3 + K4), its drift and drive parts apart
    incs = np.zeros((m, spec.dim + 1, spec.dim + 1))
    incs[:, : spec.dim, : spec.dim] = (h / 6.0) * (2.0 * (x2 + x3) + a + x4)
    incs[:, : spec.dim, spec.dim] = (h / 6.0) * (2.0 * (y2 + y3) + c0 + y4)
    return incs


def _affine_rk4(spec: OdeSpec) -> np.ndarray:
    """RK4 solution Y(t_final) of the augmented affine propagator
    Y' = [[A, c(t)], [0, 0]] Y with Y(0) = 1, so Y = [[M, d], [0, 1]].

    Step k maps Y to (1 + D_k) Y with D_k = (h/6)(K1 + 2 K2 + 2 K3 + K4),
    K1 = G0, K2 = G_half (1 + h/2 K1), K3 = G_half (1 + h/2 K2) and
    K4 = G1 (1 + h K3).  Per block of steps k0 .. k0 + m - 1 the generator is
    sampled once at the stage times (2 k0 + j) h/2, j = 0 .. 2m."""
    total = np.zeros((spec.dim + 1, spec.dim + 1))  # Y - 1
    for k0 in range(0, spec.n_steps, _BLOCK_STEPS):
        block = _compose(_increments(spec, k0, min(_BLOCK_STEPS, spec.n_steps - k0)))
        total = total + block + block @ total
    return np.eye(spec.dim + 1) + total


def integrate_propagator(spec: OdeSpec) -> tuple[np.ndarray, np.ndarray]:
    """RK4 solution of M' = A M, d' = A d + c with M(0) = 1, d(0) = 0."""
    y = _affine_rk4(spec)
    return y[: spec.dim, : spec.dim], y[: spec.dim, spec.dim]


def integrate_moments(
    spec: OdeSpec, m0: np.ndarray, v0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean M m0 + d and covariance M V0 M^T at t_final, read off one RK4
    propagator run (the exact transport of moments under linear dynamics).

    m0 has shape (..., dim) and v0 (..., dim, dim): one run transports a
    whole stack of states, and a single state keeps shapes (dim,) and
    (dim, dim)."""
    mat, disp = integrate_propagator(spec)
    v = mat @ np.asarray(v0, dtype=float) @ mat.T
    mean = (mat @ np.asarray(m0, dtype=float)[..., None])[..., 0] + disp
    return mean, 0.5 * (v + np.swapaxes(v, -1, -2))


def integrate_propagator_track(
    dim: int, segments: list
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """RK4 propagators (M, d) at the end of each segment of a forward track:
    one integrate_propagator run per OdeSpec argument triple (generator
    shifted to the segment's start, span, n_steps), composed in time order
    as M <- M_k M, d <- M_k d + d_k."""
    mats, disps = [], []
    m, d = np.eye(dim), np.zeros(dim)
    for seg in segments:
        ms, ds = integrate_propagator(OdeSpec(dim, *seg))
        m, d = ms @ m, ms @ d + ds
        mats.append(m)
        disps.append(d)
    return mats, disps


# ---------------------------------------------------------------------------
# Truncated Fock-space moments: one function per initial-state family, each
# at a cutoff whose neglected tail weight is below _TAIL_TOL


def _within_max_cutoff(cut: int) -> int:
    """cut, or ValueError if it exceeds _MAX_CUTOFF."""
    if cut > _MAX_CUTOFF:
        raise ValueError(
            f"cutoff {cut} exceeds {_MAX_CUTOFF}: Fock oracle is validated for "
            "|s| <= 1.5 and n_bar <= 5 only"
        )
    return cut


def _quadrature_moments(a, a2, n: float, one: float) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) mean and symmetrized covariance of one mode from <a>, <a^2>,
    <a^dag a> and <1> of its truncated state.

    With X = (a + a^dag)/2 and Y = (a - a^dag)/2i, X^2 and Y^2 are
    (2 a^dag a + 1 +- (a^2 + a^dag^2))/4 and (XY + YX)/2 = (a^2 - a^dag^2)/4i;
    a a^dag = a^dag a + 1 is read with the truncated state's own norm <1>."""
    mean = np.array([a.real, a.imag])
    diag = 2.0 * n + one
    cov = 0.25 * np.array([[diag + 2.0 * a2.real, 2.0 * a2.imag],
                           [2.0 * a2.imag, diag - 2.0 * a2.real]])
    return mean, cov - np.outer(mean, mean)


def thermal_moments(n_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean and covariance of the thermal state of mean occupation
    n_bar, from its geometric Fock weights w_n = (1 - q) q^n, q = n_bar/(1 + n_bar):
    the state is diagonal, so <a> = <a^2> = 0 and <a^dag a> = sum n w_n."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if n_bar == 0:
        cut, w = 1, np.array([1.0, 0.0])
    else:
        q = n_bar / (1.0 + n_bar)
        cut = _within_max_cutoff(int(np.ceil(np.log(_TAIL_TOL) / np.log(q))) + 1)
        w = (1.0 - q) * q ** np.arange(cut + 1)
    return _quadrature_moments(0.0, 0.0, np.arange(cut + 1) @ w, w.sum())


def tmsv_moments(s: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature moments of the two-mode squeezed vacuum
    sum_n c_n |n, n>, c_n = sqrt(1 - tanh^2 s) tanh^n(s), in the order (X1, Y1, X2, Y2).

    The state is diagonal in the pair index, so each mode's marginal is
    thermal with <a^dag a> = sum n c_n^2, and the one correlation is
    <a1 a2> = sum n c_{n-1} c_n: Cov(X1, X2) = -Cov(Y1, Y2) = <a1 a2>/2.
    """
    lam = np.tanh(s)
    cut = 1
    if lam != 0:
        cut = _within_max_cutoff(
            int(np.ceil(np.log(_TAIL_TOL) / (2.0 * np.log(abs(lam))))) + 1)
    c = lam ** np.arange(cut + 1)
    c *= np.sqrt(1.0 - lam**2)
    n = np.arange(cut + 1)
    _, marginal = _quadrature_moments(0.0, 0.0, n @ c**2, c @ c)
    corr = n[1:] @ (c[:-1] * c[1:])  # <a1 a2>
    cov = np.kron(np.eye(2), marginal)
    cov[0, 2] = cov[2, 0] = corr / 2.0
    cov[1, 3] = cov[3, 1] = -corr / 2.0
    return np.zeros(4), cov


def squeezed_moments(s: float, phi: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature moments of exp[zeta* a^2 - zeta a^dag^2]|0>, zeta = (s/2) e^{2i phi},
    from its closed Fock amplitudes psi_2n = (-e^{2i phi} tanh s)^n sqrt((2n)!)/(2^n n!)
    / sqrt(cosh s); the neglected tail weight is 1 - ||psi||^2 exactly.

    Only even states occur, so <a> = 0, and <a^2> and <a^dag a> are the sums
    over n of sqrt(2n (2n - 1)) psi*_2n-2 psi_2n and 2n |psi_2n|^2.  The cutoff
    has the two-mode squeezed vacuum's geometric tail rate, with margin."""
    lam = abs(np.tanh(s))
    cut = 4  # at s = 0, keeps the tail check meaningful
    if lam != 0:
        cut = _within_max_cutoff(
            2 * (int(np.ceil(np.log(_TAIL_TOL) / (2.0 * np.log(lam)))) + 8))
    n = np.arange(1, cut // 2 + 1)
    # psi_2n / psi_2n-2 = -e^{2i phi} tanh(s) sqrt((2n - 1)/(2n))
    steps = -np.exp(2j * phi) * np.tanh(s) * np.sqrt((2 * n - 1) / (2 * n))
    psi = np.cumprod(np.append(1.0, steps)) / np.sqrt(np.cosh(s))  # psi_2n, n = 0 .. cut/2
    norm = np.vdot(psi, psi).real
    tail = 1.0 - norm
    if tail > _TAIL_TOL:
        raise ValueError(
            f"truncation tail {tail:.3g} exceeds {_TAIL_TOL}; "
            "squeezed oracle validated for |s| <= 1.5"
        )
    a2 = np.vdot(psi[:-1], np.sqrt(2 * n * (2 * n - 1)) * psi[1:])
    return _quadrature_moments(0j, a2, 2 * n @ abs(psi[1:]) ** 2, norm)
