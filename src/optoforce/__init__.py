"""Quantum-limited force sensing with cavityless and cavity optomechanics.

Gaussian moment simulation of two force-detection schemes (a three-mode
Stokes/mirror/anti-Stokes scheme and a single-mode cavity scheme), with
closed-form signal/noise/sensitivity expressions, independent RK4 and
truncated-Fock validation oracles, parameter sweeps and a CLI.
"""

__version__ = "0.1.0"
