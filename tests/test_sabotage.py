"""A catalogue of planted errors: every certificate must show that it can fail.

Each row patches one name on a scheme module, after import (callers look the
name up at call time, so the patch reaches them), and runs the CLI command
that writes the value on that command's own grid.  The command must exit 1:
an oracle spot-check that fails before anything is written, or an unhealthy
validation ledger.  An error planted at one row picks the row by its grid
index, never by a seed.  A row that the certificates miss today is a strict
xfail naming the ROADMAP item that will catch it, so the change that closes
the gap must flip the row.
"""

import math
import re

import numpy as np
import pytest

from optoforce import analysis, cavity, cli


def _row_time(model, index, points=401, t_stop=2 * math.pi):
    """The time of one row of a default-ratio sweep grid, as run_sweep computes it."""
    scheme = analysis.SCHEMES[model]
    p = scheme.params_from_ratios(analysis.DEFAULT_PARAMS)
    return (np.linspace(0.0, t_stop, points) / scheme.time_unit(p)).tolist()[index]


def _at(at, t):
    """Whether a planted error applies at time t: at every time if at is None."""
    return at is None or t == at


def _noise(factor, at=None):
    """cavityless.noise times factor, on every row or at the time at alone."""
    def make(noise):
        return lambda p, t, s, n_th: noise(p, t, s, n_th) * (factor if _at(at, t) else 1.0)
    return make


def _phi_min(factor, at=None):
    """cavity.minimize_noise_over_phi with its noise, the readout's, times factor."""
    def make(minimize):
        def planted(p, t, s, n_th):
            phi, value = minimize(p, t, s, n_th)
            return phi, value * (factor if _at(at, t) else 1.0)
        return planted
    return make


def _signal(factor, at):
    """The signal times factor at the time at."""
    def make(signal):
        return lambda p, t: signal(p, t) * (factor if _at(at, t) else 1.0)
    return make


def _meter_flipped(initial_state):
    """The cavityless meter as two_mode_squeezed(+s): the correlation sign flipped."""
    return lambda s, n_th: initial_state(-s, n_th)


def _meter_reflected(initial_state):
    """The cavity meter with its squeezing angle reflected, phi -> -phi."""
    return lambda meter, n_th: initial_state(cavity.MeterSqueezing(meter.s, -meter.phi), n_th)


def _no_mirror(mirror_term):
    """The cavity's mirror part of Var(Y) dropped."""
    return lambda r, sn, cs, n_th: 0.0


def _gap(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


ROW = 150  # between the quarter points 100 and 200 of a 401-point grid
FOUR_PI = repr(4 * math.pi)
#: the published (1 - cos) denominator of f_min at Theta t = pi over the
#: oracle-confirmed (1 + cos), at the default Omega/Theta
COS_PI = math.cos(math.pi * analysis.DEFAULT_PARAMS["omega_over_theta"])
LITERAL_OVER_CLOSED = (1 - COS_PI) / (1 + COS_PI)
NOISE = {"cavityless": ("noise", _noise), "cavity": ("minimize_noise_over_phi", _phi_min)}

# (command line, model, the name patched on its scheme module, the planted
# value as a function of the original)
CATALOGUE = [
    pytest.param(["sweep", "--model", "cavity", "--n-th", "300", "--points", "401",
                  "--tmax-scaled", FOUR_PI], "cavity", "minimize_noise_over_phi",
                 _phi_min(1 + 1e-6), id="cavity noise x(1+1e-6)"),
    pytest.param(["sweep", "--model", "cavity", "--n-th", "300", "--points", "41"],
                 "cavity", "_mirror_term", _no_mirror, id="cavity mirror term dropped"),
    pytest.param(["validate"], "cavityless", "initial_state", _meter_flipped,
                 id="validate cavityless meter sign"),
    pytest.param(["fig2", "--model", "cavity"], "cavity", "initial_state", _meter_reflected,
                 id="fig2 cavity meter angle reflected"),
    pytest.param(["validate"], "cavity", "initial_state", _meter_reflected,
                 id="validate cavity meter angle reflected"),
    # the sql row's signal scaled so that its f_min is f_min_at_pi_literal's
    pytest.param(["sql"], "cavityless", "signal",
                 _signal(LITERAL_OVER_CLOSED, _row_time("cavityless", 1, points=2,
                                                        t_stop=math.pi)),
                 id="sql cavityless literal (1 - cos) denominator"),
    pytest.param(["sweep", "--model", "cavityless", "--n-th", "300", "--points", "401"],
                 "cavityless", "noise", _noise(1 + 1e-6), id="cavityless noise x(1+1e-6)",
                 marks=_gap("ROADMAP item 1: the largest deviation is 3.3e-9, below the "
                            "absolute 1e-8 bound")),
    *[pytest.param(["sweep", "--model", model, "--points", "401"], model, name,
                   plant(1.5, _row_time(model, ROW)), id=f"{model} noise x1.5 at row {ROW}",
                   marks=_gap("ROADMAP item 6: only the quarter-point rows are checked"))
      for model, (name, plant) in NOISE.items()],
    *[pytest.param(["sweep", "--model", model, "--points", "401"], model, "signal",
                   _signal(-1.0, _row_time(model, ROW)),
                   id=f"{model} signal sign at row {ROW}",
                   marks=_gap("ROADMAP item 6: only the quarter-point rows are checked"))
      for model in analysis.SCHEMES],
    pytest.param(["fig2", "--model", "cavityless"], "cavityless", "initial_state",
                 _meter_flipped, id="fig2 cavityless meter sign",
                 marks=_gap("ROADMAP item 10: the oracle reads the meter from the same "
                            "initial_state")),
    pytest.param(["sweep", "--model", "cavity", "--s", "300", "--points", "41"], "cavity",
                 "minimize_noise_over_phi", _phi_min(1.5), id="cavity noise x1.5 at s=300",
                 marks=_gap("ROADMAP items 1 and 8: the deviation is relative to "
                            "max|cov| ~ e^{2s}/4")),
]


@pytest.mark.parametrize("argv, model, name, make", CATALOGUE)
def test_planted_error_exits_1(argv, model, name, make, tmp_path, monkeypatch, capsys):
    scheme = analysis.SCHEMES[model]
    monkeypatch.setattr(scheme, name, make(getattr(scheme, name)))
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1, out + err
    if argv[0] == "validate":
        assert "validate: UNHEALTHY" in out
    else:
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, err
        assert re.match(f"error: oracle spot-check failed: model={model} ", errors[0]), err
        assert list(tmp_path.iterdir()) == []
