"""The closed propagators of both schemes against the 50-digit referee."""

import numpy as np
import pytest

from optoforce import cavity as cv
from optoforce import cavityless as cl

import referee

N_POINTS = 20  # per scheme: each point takes one mpmath expm, 10-50 ms


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _worst(cases) -> tuple[float, tuple]:
    """The largest |closed - exact| entry of the pairs (M, d) over its bound,
    and its point, of cases: (point, closed, exact, bound) tuples."""
    return max((max(np.max(np.abs(a - b)) for a, b in zip(closed, exact)) / bound, point)
               for point, closed, exact, bound in cases)


def _cavity_cases():
    # a fixed table: g alpha/Omega in [1e-3, 1e3], log-uniform, and Omega t
    # in [0.1, 1e4]
    rng = np.random.default_rng(20)
    for _ in range(N_POINTS):
        point = _log_uniform(rng, 1e-3, 1e3), float(rng.uniform(0.1, 1e4))
        p = cv.CavityParams.from_ratios(point[0])
        t = point[1] / p.omega
        exact = referee.cavity_propagator(p, t)
        yield point, cv.closed_propagator(p, t), exact, 1e-12 * max(1.0, np.max(np.abs(exact[0])))


def _cavityless_cases():
    # a fixed table: theta/chi - 1 in [1e-5, 1], log-uniform, Omega/Theta in
    # [3, 500] and Theta t in [0.1, 1e4].  The entries of M reach
    # ~theta^2/Theta^2, which scales the bound.  And no closed form in doubles
    # beats the rounding of its phases: eps Omega t in the drive's entries, of
    # order 1, and eps Theta t in entries up to max|M| (Omega t reaches 5e6)
    rng = np.random.default_rng(20)
    for _ in range(N_POINTS):
        point = (_log_uniform(rng, 1e-5, 1.0), float(rng.uniform(3.0, 500.0)),
                 float(rng.uniform(0.1, 1e4)))
        p = cl.CavitylessParams.from_ratios(1.0 + point[0], point[1])
        t = point[2] / p.Theta
        exact = referee.cavityless_propagator(p, t)
        phase = np.finfo(float).eps * (p.omega * t + point[2] * max(1.0, np.max(np.abs(exact[0]))))
        yield (point, cl.closed_propagator(p, t), exact,
               1e-12 * max(1.0, p.theta**2 / p.Theta**2) + phase)


def test_cavity_propagator_is_the_referee():
    ratio, point = _worst(_cavity_cases())
    assert ratio <= 1.0, f"(g alpha/Omega, Omega t) = {point}"


@pytest.mark.filterwarnings("ignore:.*validity regime:UserWarning")
@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND line on Theta = sqrt(theta^2 - chi^2): "
                   "the subtraction cancels near theta/chi = 1, and the closed (M, d) inherit "
                   "its relative error times Theta t, up to ~1e3x the bound here; ROADMAP "
                   "items 12 and 20")
def test_cavityless_propagator_is_the_referee():
    ratio, point = _worst(_cavityless_cases())
    assert ratio <= 1.0, f"(theta/chi - 1, Omega/Theta, Theta t) = {point}"
