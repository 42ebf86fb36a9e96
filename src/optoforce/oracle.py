"""Independent validation engines.

Two deliberately separate code paths back every closed form in the package:

* fixed-step RK4 integration of the affine propagator x -> M x + d of
  dx/dt = A x + c(t), as one augmented matrix ODE Y' = [[A, c], [0, 0]] Y;
  the moments are read off it as m = M m0 + d and V = M V0 M^T, at one
  time or, with integrate_propagator_track, at every time of a sorted grid
  in one forward pass of composed segments,
* truncated Fock-space moment computation for the thermal, two-mode
  squeezed and single-mode squeezed initial states.

The RK4 stepper works in blocks of at most _BLOCK_STEPS steps.  Per block it
samples the generator once, on the array of the block's stage times, forms
each step's increment D_k (one RK4 step is Y -> (1 + D_k) Y) with batched
matmuls, and composes the increments in time order, pairwise, as
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
from scipy.linalg import expm

#: t -> (A, c(t)) on a 1-D array of k times: A broadcastable to (k, dim, dim)
#: and c to (k, dim)
Generator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_MAX_CUTOFF = 600
#: Largest neglected Fock-tail weight of the Fock oracle's cutoff
_TAIL_TOL = 1e-12
_STEP_SAFETY = 0.1
#: RK4 steps per block: one generator call and one batch of stage matmuls
#: each.  Longer blocks lose precision: on the cavityless propagator at
#: theta/chi = 1.01, Omega/Theta = 12, Theta t = 2 pi in 6299 steps, M deviates
#: from the closed form by 2.9e-11 with 256-step blocks, 2.6e-10 with 1024
#: and 1.0e-9 with 4096 or more.
_BLOCK_STEPS = 256


def _augmented(generator: Generator, dim: int, times) -> np.ndarray:
    """The generators [[A, c], [0, 0]] at each of the times, shape (k, dim+1, dim+1)."""
    times = np.asarray(times, dtype=float)
    a, c = generator(times)
    g = np.zeros((times.size, dim + 1, dim + 1))
    g[:, :dim, :dim] = a
    g[:, :dim, dim] = c
    return g


@dataclass(frozen=True)
class OdeSpec:
    """Fixed-step RK4 problem: generator t -> (A, c) on an array of times
    (see Generator), horizon and step count."""

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
        if np.shape(a)[-2:] != (self.dim, self.dim) or np.shape(c)[-1:] != (self.dim,):
            raise ValueError("generator output does not match dim")


def _check_step(spec: OdeSpec) -> None:
    a = _augmented(spec.generator, spec.dim, [0.0])[0, : spec.dim, : spec.dim]
    h = spec.t_final / spec.n_steps
    norm = np.linalg.norm(a, 2)
    if norm * abs(h) >= _STEP_SAFETY:
        needed = int(np.ceil(norm * abs(spec.t_final) / _STEP_SAFETY)) + 1
        raise ValueError(
            f"step size too large: ||A|| h = {norm * abs(h):.3g} >= {_STEP_SAFETY}; "
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


def _stage(g: np.ndarray, k: np.ndarray, step: float) -> np.ndarray:
    """g (1 + step k) = g + step g k, formed in place of the product."""
    out = g @ k
    out *= step
    out += g
    return out


def _increments(spec: OdeSpec, k0: int, m: int) -> np.ndarray:
    """The one-step increments D_k of steps k0 .. k0 + m - 1, shape (m, dim+1, dim+1).

    The stage stacks are combined in place: a block's temporaries set the
    oracle's peak memory."""
    h = spec.t_final / spec.n_steps
    g = _augmented(spec.generator, spec.dim, (2 * k0 + np.arange(2 * m + 1)) * (h / 2.0))
    g0, g_half, g1 = g[0:-1:2], g[1::2], g[2::2]
    k2 = _stage(g_half, g0, h / 2.0)
    k3 = _stage(g_half, k2, h / 2.0)
    k4 = _stage(g1, k3, h)
    # (h/6)(K1 + 2 K2 + 2 K3 + K4), summed in place
    k2 += k3
    k2 *= 2.0
    k2 += g0
    k2 += k4
    k2 *= h / 6.0
    return k2


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
    _check_step(spec)
    y = _affine_rk4(spec)
    return y[: spec.dim, : spec.dim], y[: spec.dim, spec.dim]


def integrate_moments(
    spec: OdeSpec, m0: np.ndarray, v0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean M m0 + d and covariance M V0 M^T at t_final, read off one RK4
    propagator run (the exact transport of moments under linear dynamics)."""
    mat, disp = integrate_propagator(spec)
    v = mat @ np.asarray(v0, dtype=float) @ mat.T
    return mat @ np.asarray(m0, dtype=float) + disp, 0.5 * (v + v.T)


def integrate_propagator_track(
    dim: int, generator: Generator, times, n_sub: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """RK4 propagators (M, d) at each time of a sorted grid, in one forward pass:
    each segment from the previous grid time (or 0) is one integrate_propagator
    run of n_sub steps, composed as M <- M_k M, d <- M_k d + d_k."""
    mats, disps = [], []
    m, d = np.eye(dim), np.zeros(dim)
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            seg = OdeSpec(dim, lambda tau, t0=t_prev: generator(t0 + tau), t - t_prev, n_sub)
            ms, ds = integrate_propagator(seg)
            m = ms @ m
            d = ms @ d + ds
            t_prev = t
        mats.append(m)
        disps.append(d)
    return mats, disps


def convergence_report(spec: OdeSpec) -> dict:
    """Self-convergence certificate for the RK4 oracle.

    Runs the propagator at n, 2n and 4n steps, reports the max componentwise
    differences of (M, d) and the observed convergence order; for a
    time-independent A also the deviation of M from the matrix exponential.
    """
    runs = [
        np.column_stack(integrate_propagator(
            OdeSpec(spec.dim, spec.generator, spec.t_final, spec.n_steps * mult)))
        for mult in (1, 2, 4)
    ]
    diff_12, diff_24 = (float(np.max(np.abs(a - b))) for a, b in zip(runs, runs[1:]))
    report = {
        "n_steps": spec.n_steps,
        "diff_n_2n": diff_12,
        "diff_2n_4n": diff_24,
        "observed_order": float(np.log2(diff_12 / diff_24)) if diff_24 > 0 else float("inf"),
    }
    g = _augmented(spec.generator, spec.dim, [0.0, 0.5 * spec.t_final])
    a0, a1 = g[:, : spec.dim, : spec.dim]
    if np.array_equal(a0, a1):
        mat = runs[0][:, : spec.dim]
        report["expm_deviation"] = float(np.max(np.abs(mat - expm(a0 * spec.t_final))))
    return report


# ---------------------------------------------------------------------------
# Truncated Fock-space moments


@dataclass(frozen=True)
class FockSpec:
    """Initial-state family for the Fock oracle.

    family: 'thermal' (param = n_bar), 'tmsv' or 'squeezed' (param = s,
    with optional angle phi for 'squeezed').  The cutoff is chosen so the
    neglected tail weight is below _TAIL_TOL.
    """

    family: str
    param: float
    phi: float = 0.0

    def __post_init__(self):
        if self.family not in ("thermal", "tmsv", "squeezed"):
            raise ValueError(f"unknown family {self.family!r}")

    def cutoff(self) -> int:
        if self.family == "thermal":
            n_bar = self.param
            if n_bar < 0:
                raise ValueError("n_bar must be nonnegative")
            if n_bar == 0:
                return 1
            q = n_bar / (1.0 + n_bar)
            n = int(np.ceil(np.log(_TAIL_TOL) / np.log(q))) + 1
        elif self.family == "tmsv":
            lam = abs(np.tanh(self.param))
            if lam == 0:
                return 1
            n = int(np.ceil(np.log(_TAIL_TOL) / (2.0 * np.log(lam)))) + 1
        else:  # squeezed: same geometric tail rate as tmsv, with margin
            lam = abs(np.tanh(self.param))
            if lam == 0:
                return 4  # keep the tail check meaningful
            n = 2 * (int(np.ceil(np.log(_TAIL_TOL) / (2.0 * np.log(lam)))) + 8)
        if n > _MAX_CUTOFF:
            raise ValueError(
                f"cutoff {n} exceeds {_MAX_CUTOFF}: Fock oracle is validated for "
                "|s| <= 1.5 and n_bar <= 5 only"
            )
        return n


def _ladder(cut: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cut + 1)), k=1)


def _quadratures(cut: int) -> tuple[np.ndarray, np.ndarray]:
    a = _ladder(cut).astype(complex)
    x = (a + a.T) / 2.0
    y = (a - a.T) / 2.0j
    return x, y


def fock_moments(spec: FockSpec) -> tuple[np.ndarray, np.ndarray]:
    """First and second quadrature moments by direct ladder-operator algebra."""
    if spec.family == "thermal":
        return _thermal_moments(spec)
    if spec.family == "tmsv":
        return _tmsv_moments(spec)
    return _squeezed_moments(spec)


def _sym_cov(ops: list[np.ndarray], weight) -> tuple[np.ndarray, np.ndarray]:
    """Mean and symmetrized covariance of operators under weight(op) = <op>."""
    k = len(ops)
    mean = np.array([weight(op) for op in ops])
    cov = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            cov[i, j] = cov[j, i] = weight(sym) - mean[i] * mean[j]
    return mean, cov


def _thermal_moments(spec: FockSpec) -> tuple[np.ndarray, np.ndarray]:
    cut = spec.cutoff()
    n_bar = spec.param
    if n_bar == 0:
        w = np.zeros(cut + 1)
        w[0] = 1.0
    else:
        q = n_bar / (1.0 + n_bar)
        w = (1.0 - q) * q ** np.arange(cut + 1)
    x, y = _quadratures(cut)

    def weight(op: np.ndarray) -> float:
        return float(np.real(np.sum(w * np.diagonal(op))))

    return _sym_cov([x, y], weight)


def _tmsv_moments(spec: FockSpec) -> tuple[np.ndarray, np.ndarray]:
    """Moments of sqrt(1 - tanh^2 s) sum_n tanh^n(s) |n, n>.

    The state is diagonal in the pair index, so for a product operator
    O1 x O2 the expectation reduces to c^T (O1 * O2) c with * elementwise.
    """
    cut = spec.cutoff()
    lam = np.tanh(spec.param)
    c = lam ** np.arange(cut + 1)
    c *= np.sqrt(1.0 - lam**2)
    x, y = _quadratures(cut)
    eye = np.eye(cut + 1, dtype=complex)
    # quadratures as (mode-1 factor, mode-2 factor) pairs
    ops = [(x, eye), (y, eye), (eye, x), (eye, y)]

    def expect(o1: np.ndarray, o2: np.ndarray) -> float:
        return float(np.real(c @ (o1 * o2) @ c))

    mean = np.array([expect(o1, o2) for o1, o2 in ops])
    cov = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            a1, a2 = ops[i]
            b1, b2 = ops[j]
            sym = 0.5 * (expect(a1 @ b1, a2 @ b2) + expect(b1 @ a1, b2 @ a2))
            cov[i, j] = cov[j, i] = sym - mean[i] * mean[j]
    return mean, cov


def _squeezed_moments(spec: FockSpec) -> tuple[np.ndarray, np.ndarray]:
    """Moments of exp[zeta* a^2 - zeta a^dag^2]|0>, zeta = (s/2) e^{2i phi}."""
    cut = spec.cutoff()
    a = _ladder(cut)
    zeta = 0.5 * spec.param * np.exp(2j * spec.phi)
    gen = np.conj(zeta) * (a @ a) - zeta * (a.T @ a.T)
    psi = expm(gen) @ np.eye(cut + 1)[:, 0]
    tail = abs(psi[-1]) ** 2 + abs(psi[-2]) ** 2
    if tail > _TAIL_TOL:
        raise ValueError(
            f"truncation tail {tail:.3g} exceeds {_TAIL_TOL}; "
            "squeezed oracle validated for |s| <= 1.5"
        )
    x, y = _quadratures(cut)

    def weight(op: np.ndarray) -> float:
        return float(np.real(np.conj(psi) @ op @ psi))

    return _sym_cov([x, y], weight)
