"""Seeded workload generator: (workload, seed, seconds) -> a fixed list of CLI ops.

The seed is the benchmark's; the program only ever sees the generated
``optoforce`` command-line arguments.  Every parameter stays inside the ranges
below, on which no op fails and no regime warning fires (omega^2/Theta^2 >= 36).

Continuous parameters are drawn by Latin-hypercube stratification: an op list
of n ops puts exactly one op in each of n equal strata of every parameter, in
a seeded order with a seeded position inside the stratum.  Two seeds therefore
produce op lists of nearly equal total work, which keeps the run-to-run spread
of the end-to-end times small without fixing the inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

THETA_OVER_CHI = (1.01, 1.2)
OMEGA_OVER_THETA = (6.0, 20.0)
G_ALPHA_OVER_OMEGA = (0.05, 0.5)
S_VALUES = (0.0, 1.0, 2.0, 5.0)
N_TH_VALUES = (0.0, 300.0)

# theta/chi is drawn uniformly in 1/Theta (chi = 1), not in theta/chi: the
# RK4 spot-check step count of a cavityless curve is proportional to 1/Theta,
# so equal strata in 1/Theta carry equal shares of the oracle cost.
_INV_THETA = tuple(1.0 / math.sqrt(r * r - 1.0) for r in reversed(THETA_OVER_CHI))

SWEEP_CAVITYLESS_POINTS = 20_000
EXPORT_CAVITY_POINTS = 50_000


@dataclass(frozen=True)
class Op:
    """One ``optoforce.cli.main`` call; ``out`` is the file or directory name for -o."""

    command: str
    args: tuple[str, ...]
    out: str
    model: str | None = None
    fmt: str = "csv"
    points: int = 0
    s: float = 0.0
    n_th: float = 0.0
    params: dict = field(default_factory=dict)
    check_seed: int = 0

    def argv(self, outdir: str) -> list[str]:
        out = f"{outdir}/{self.out}" if self.out else outdir  # fig2 -o names a directory
        return [self.command, *self.args, "-o", out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op_seconds: float  # typical op latency at the benchmark's defining commit
    make: Callable[[random.Random, int], list[Op]]


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1): one in each stratum [k/n, (k+1)/n), in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _scale(u: float, bounds: tuple[float, float]) -> float:
    return bounds[0] + u * (bounds[1] - bounds[0])


def _theta_over_chi(u: float) -> float:
    inv = _scale(u, _INV_THETA)
    # clamp: rounding can step past the range ends by an ulp
    return min(max(math.sqrt(1.0 + 1.0 / (inv * inv)), THETA_OVER_CHI[0]), THETA_OVER_CHI[1])


def _meter_cases(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """(s, n_th) per op: every s value and every n_th value equally often."""
    s_vals = [S_VALUES[i % len(S_VALUES)] for i in range(n)]
    n_vals = [N_TH_VALUES[i % len(N_TH_VALUES)] for i in range(n)]
    rng.shuffle(s_vals)
    rng.shuffle(n_vals)
    return list(zip(s_vals, n_vals))


def _num(x: float) -> str:
    return repr(float(x))


def _sweep_cavityless(rng: random.Random, n: int) -> list[Op]:
    ops = []
    for u, v, (s, n_th) in zip(_strata(rng, n), _strata(rng, n), _meter_cases(rng, n)):
        toc, oot = _theta_over_chi(u), _scale(v, OMEGA_OVER_THETA)
        args = (
            "--model", "cavityless", "--format", "csv",
            "--theta-over-chi", _num(toc), "--omega-over-theta", _num(oot),
            "--s", _num(s), "--n-th", _num(n_th),
            "--points", str(SWEEP_CAVITYLESS_POINTS),
        )
        ops.append(Op(
            "sweep", args, "sweep.csv", "cavityless", "csv",
            SWEEP_CAVITYLESS_POINTS, s, n_th,
            {"theta_over_chi": toc, "omega_over_theta": oot},
            rng.getrandbits(32),
        ))
    return ops


def _export_cavity(rng: random.Random, n: int) -> list[Op]:
    ops = []
    for i, (u, (s, n_th)) in enumerate(zip(_strata(rng, n), _meter_cases(rng, n))):
        # always JSON first: peak RSS differs by ~5% with the order of the formats
        fmt = ("json", "csv")[i % 2]
        g = _scale(u, G_ALPHA_OVER_OMEGA)
        args = (
            "--model", "cavity", "--format", fmt,
            "--g-alpha-over-omega", _num(g), "--s", _num(s), "--n-th", _num(n_th),
            "--points", str(EXPORT_CAVITY_POINTS),
        )
        ops.append(Op(
            "sweep", args, f"sweep.{fmt}", "cavity", fmt,
            EXPORT_CAVITY_POINTS, s, n_th, {"g_alpha_over_omega": g},
            rng.getrandbits(32),
        ))
    return ops


def _physics(rng: random.Random, n: int) -> list[dict]:
    """theta/chi, Omega/Theta and g alpha/Omega for commands that take all three."""
    return [
        {
            "theta_over_chi": _theta_over_chi(u),
            "omega_over_theta": _scale(v, OMEGA_OVER_THETA),
            "g_alpha_over_omega": _scale(w, G_ALPHA_OVER_OMEGA),
        }
        for u, v, w in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n))
    ]


def _physics_args(params: dict) -> tuple[str, ...]:
    return (
        "--theta-over-chi", _num(params["theta_over_chi"]),
        "--omega-over-theta", _num(params["omega_over_theta"]),
        "--g-alpha-over-omega", _num(params["g_alpha_over_omega"]),
    )


def _fig2(rng: random.Random, n: int) -> list[Op]:
    return [
        Op("fig2", ("--format", "csv", *_physics_args(p)), "", "both", "csv",
           401, params=p, check_seed=rng.getrandbits(32))
        for p in _physics(rng, n)
    ]


def _certify(rng: random.Random, n: int) -> list[Op]:
    return [
        Op("validate", _physics_args(p), "ledger.json", fmt="json", params=p,
           check_seed=rng.getrandbits(32))
        for p in _physics(rng, n)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # The cavityless fast path at ~150 us per point dominates; most of it is
        # noise() rebuilding and re-validating the initial GaussianState.  RK4
        # spot-checks are ~20% of an op, CSV output ~3%.  Stresses the gaussian
        # and cavityless layers: where fast-path and state-construction work shows.
        Workload("sweep-cavityless", "cavityless CSV sweeps of 2e4 points: the "
                 "closed-form fast path and GaussianState construction dominate",
                 4.6, _sweep_cavityless),
        # Cavity sweeps use the analytic phi minimum and build no GaussianState.
        # Emitting the text (~40%) is the largest layer of a ~1.5 s CSV op and
        # a ~2.1 s JSON op; the phi minimum (~30%), the fixed per-op RK4
        # spot-checks (~20%) and the sweep loop take the rest.  5e4 points per
        # op, not 1e5, so that a run holds a dozen ops and op_tail_s is the
        # second slowest of six JSON ops, not of three.  Bypasses the gaussian
        # layer: a state-construction gain shows as no change here, a
        # serialization gain shows here most.
        Workload("export-cavity", "cavity sweeps of 5e4 points alternating JSON "
                 "and CSV: serialization and the atomic write are the largest "
                 "layer, no GaussianState is built", 1.65, _export_cavity),
        # The user's figure dataset (six curves of 401 points): 30 RK4 moment
        # integrations take ~92%, the fast path ~5%.  The ROADMAP's fig2 < 1 s target.
        Workload("fig2", "the fig2 command, six 401-point curves: RK4 spot-checks "
                 "in moment mode dominate", 4.3, _fig2),
        # The validate ledger: 48 RK4 propagator integrations (~81%) and three
        # 1e4-point phi scans of scalar cavity.noise (~18%).  RK4 in propagator
        # mode, no sweep, almost no output.  Not in BENCHMARK.json: a run holds
        # a single ~18 s op, so its times follow the host's speed drift (IQR up
        # to 0.28 of the median over ten seeds on a shared 2-vCPU host).  Run
        # it by hand, traced, for the propagator and phi-scan layers.
        Workload("certify", "the validate command: RK4 in propagator mode and "
                 "scalar phi scans dominate, no sweep and almost no output",
                 20.0, _certify),
    )
}


def generate(workload: str, seed: int, seconds: float) -> list[Op]:
    """The fixed op list of one run: about ``seconds`` of work at the defining commit.

    More than one op is rounded up to an even count: the median op latency is
    then the mean of the two middle ops, and export-cavity writes as many JSON
    as CSV files.
    """
    w = WORKLOADS[workload]
    n = max(1, round(seconds / w.op_seconds))
    return w.make(random.Random(f"{workload}:{seed}"), n + n % 2 if n > 1 else n)
