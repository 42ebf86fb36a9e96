"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success (visible with -s or -rP);
under pytest -v the per-test PASSED/FAILED line doubles as the criterion
verdict.
"""

import json
import time

import numpy as np

from optoforce import analysis, cavity, cavityless, cli, gaussian, oracle

import gaussian_helpers as gh
import spectrum_helpers as sh

CL = cavityless.CavitylessParams.from_ratios(1.025, 10.3)
CV = cavity.CavityParams.from_ratios(0.2)

N_TIME_POINTS = 200


def track_segments(generator, times):
    """100-step segments of a forward track through times, from t = 0, each
    on the generator shifted to start at the time before."""
    starts = np.concatenate([[0.0], times[:-1]])
    return [(lambda tau, t0=t0: generator(t0 + tau), t - t0, 100)
            for t0, t in zip(starts, times)]


def test_criterion_01_cavityless_propagator_vs_rk4():
    start = time.perf_counter()
    times = np.linspace(0.0, 2 * np.pi, N_TIME_POINTS) / CL.Theta
    mats, disps = oracle.integrate_propagator_track(
        6, track_segments(lambda t: cavityless.generator(CL, t), times)
    )
    dev = 0.0
    for t, m_rk, d_rk in zip(times, mats, disps):
        mat, disp = cavityless.closed_propagator(CL, t)
        dev = max(dev, np.max(np.abs(mat - m_rk)), np.max(np.abs(disp - d_rk)))
    elapsed = time.perf_counter() - start
    assert dev < 1e-8, f"max deviation {dev:.3g}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    print(f"PASS criterion 1: cavityless propagator vs RK4, "
          f"max dev {dev:.3g} < 1e-8, {elapsed:.2f}s")


def test_criterion_02_cavity_propagator_vs_rk4():
    start = time.perf_counter()
    times = np.linspace(0.0, 4 * np.pi, N_TIME_POINTS) / CV.omega
    mats, disps = oracle.integrate_propagator_track(
        4, track_segments(lambda t: cavity.generator(CV, t), times)
    )
    dev = 0.0
    for t, m_rk, d_rk in zip(times, mats, disps):
        mat, disp = cavity.closed_propagator(CV, t)
        dev = max(dev, np.max(np.abs(mat - m_rk)), np.max(np.abs(disp - d_rk)))
    elapsed = time.perf_counter() - start
    assert dev < 1e-8, f"max deviation {dev:.3g}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    print(f"PASS criterion 2: cavity propagator vs RK4, "
          f"max dev {dev:.3g} < 1e-8, {elapsed:.2f}s")


def test_criterion_03_phi_minimum():
    t = 2 * np.pi / CV.omega
    c = 2 * np.pi * CV.r**2
    dev_scan, dev_structure = 0.0, 0.0
    for s in (0.0, 1.0, 5.0):
        _, n_analytic = cavity.minimize_noise_over_phi(CV, t, s, 0.0)
        _, n_scan = cavity.scan_noise_over_phi(CV, t, s, 0.0)
        dev_scan = max(dev_scan, abs(n_analytic - n_scan))
        structure = (1.0 + c**2) * np.exp(-2.0 * s) / 4.0
        dev_structure = max(dev_structure, abs(n_analytic - structure))
    assert dev_scan < 1e-8, f"scan deviation {dev_scan:.3g}"
    assert dev_structure < 1e-10, f"structure deviation {dev_structure:.3g}"
    print(f"PASS criterion 3: phi-minimized noise, scan dev {dev_scan:.3g} "
          f"< 1e-8, closed-structure dev {dev_structure:.3g} < 1e-10")


def test_criterion_04_thermal_cancellation():
    t_cl = np.pi / CL.Theta
    dev_cl = abs(cavityless.noise(CL, t_cl, 0.0, 300.0)
                 - cavityless.noise(CL, t_cl, 0.0, 0.0))
    t_cv = 2 * np.pi / CV.omega
    meter = cavity.MeterSqueezing(0.0, 0.0)
    dev_cv = abs(cavity.noise(CV, t_cv, meter, 300.0)
                 - cavity.noise(CV, t_cv, meter, 0.0))
    assert dev_cl < 1e-10, f"cavityless residual {dev_cl:.3g}"
    assert dev_cv < 1e-10, f"cavity residual {dev_cv:.3g}"
    print(f"PASS criterion 4: thermal cancellation, residuals "
          f"{dev_cl:.3g} / {dev_cv:.3g} < 1e-10")


def test_criterion_05_squeezing_gain():
    # f_min at the disentangling time: the last row of a two-point sweep, as
    # sql and power-scaling write it
    def f_min_at_t_star(model, s):
        spec = analysis.SweepSpec(model, 0.0, analysis.SCHEMES[model].T_STAR, 2, s)
        return analysis.run_sweep(spec).f_min[-1]

    ratio_cl = f_min_at_t_star("cavityless", 5.0) / f_min_at_t_star("cavityless", 0.0)
    ratio_cv = f_min_at_t_star("cavity", 5.0) / f_min_at_t_star("cavity", 0.0)
    dev_cl = abs(ratio_cl - np.exp(-5.0))
    dev_cv = abs(ratio_cv - np.exp(-5.0))
    assert dev_cl < 1e-9, f"cavityless ratio deviation {dev_cl:.3g}"
    assert dev_cv < 1e-9, f"cavity ratio deviation {dev_cv:.3g}"
    print(f"PASS criterion 5: f_min(s=5)/f_min(s=0) = e^-5, deviations "
          f"{dev_cl:.3g} / {dev_cv:.3g} < 1e-9")


def test_criterion_06_signal_state_independence():
    combos = [(s, n) for s in (0.0, 1.0, 5.0) for n in (0.0, 0.5, 300.0)]
    dev = 0.0
    z_cl = cavityless.z_i_observable().coeffs
    for tt in np.linspace(0.1, 2 * np.pi, 15):
        prop = cavityless.closed_propagator(CL, tt / CL.Theta)
        ref = cavityless.signal(CL, tt / CL.Theta)
        for s, n in combos:
            out = gh.apply(prop, cavityless.initial_state(s, n))
            dev = max(dev, abs(float(z_cl @ out.mean) - ref))
    y_cv = cavity.readout_observable().coeffs
    for tt in np.linspace(0.1, 4 * np.pi, 15):
        prop = cavity.closed_propagator(CV, tt / CV.omega)
        ref = cavity.signal(CV, tt / CV.omega)
        for s, n in combos:
            state = cavity.initial_state(cavity.MeterSqueezing(s, 0.7), n)
            out = gh.apply(prop, state)
            dev = max(dev, abs(float(y_cv @ out.mean) - ref))
    assert dev < 1e-12, f"max deviation {dev:.3g}"
    print(f"PASS criterion 6: signal independent of (s, n_th), "
          f"max dev {dev:.3g} < 1e-12")


def test_criterion_07_fock_oracle_state_validation():
    start = time.perf_counter()
    dev = 0.0
    for s in (0.3, 0.5, 1.0):
        mean, cov = oracle.tmsv_moments(s)
        ref = gaussian.two_mode_squeezed(s)
        dev = max(dev, np.max(np.abs(mean - ref.mean)),
                  np.max(np.abs(cov - ref.cov)))
        mean, cov = oracle.squeezed_moments(s, 0.4)
        ref = gaussian.single_mode_squeezed(s, 0.4)
        dev = max(dev, np.max(np.abs(mean - ref.mean)),
                  np.max(np.abs(cov - ref.cov)))
    for n_bar in (0.2, 0.5, 2.0):
        mean, cov = oracle.thermal_moments(n_bar)
        ref = gaussian.thermal_state(n_bar)
        dev = max(dev, np.max(np.abs(mean - ref.mean)),
                  np.max(np.abs(cov - ref.cov)))
    elapsed = time.perf_counter() - start
    assert dev < 1e-10, f"max deviation {dev:.3g}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    print(f"PASS criterion 7: Fock oracle vs constructors, "
          f"max dev {dev:.3g} < 1e-10, {elapsed:.2f}s")


def test_criterion_08_symplectic_invariance():
    dev = 0.0
    sigma3 = gh.symplectic_form(3)
    for tt in np.linspace(0.0, 2 * np.pi, N_TIME_POINTS):
        m, _ = cavityless.closed_propagator(CL, tt / CL.Theta)
        dev = max(dev, np.max(np.abs(m @ sigma3 @ m.T - sigma3)))
    sigma2 = gh.symplectic_form(2)
    for tt in np.linspace(0.0, 4 * np.pi, N_TIME_POINTS):
        m, _ = cavity.closed_propagator(CV, tt / CV.omega)
        dev = max(dev, np.max(np.abs(m @ sigma2 @ m.T - sigma2)))
    assert dev < 1e-10, f"max symplectic defect {dev:.3g}"
    print(f"PASS criterion 8: symplectic invariance, "
          f"max defect {dev:.3g} < 1e-10")


def test_criterion_09_figure_dataset(tmp_path, monkeypatch, capsys):
    start = time.perf_counter()
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert cli.main(["fig2"]) == 0
    capsys.readouterr()
    names = [
        f"{model}_{s}_{n}.csv"
        for model in ("cavityless", "cavity")
        for s, n in (("0", "0"), ("0", "300"), ("5", "300"))
    ]
    curves = {}
    for name in names:
        path = tmp_path / name
        assert path.exists(), f"missing {name}"
        curves[name] = (path.read_bytes(), np.genfromtxt(path, delimiter=",", names=True))

    # deterministic: an independent recomputation reproduces the bytes
    spec = analysis.SweepSpec(
        "cavityless", 0.0, 2 * np.pi, 401, 5.0, 300.0, dict(analysis.DEFAULT_PARAMS)
    )
    redone = cli.emit_curve(analysis.run_sweep(spec), "csv")
    assert redone == curves["cavityless_5_300.csv"][0]

    # spectral shape: two beat frequencies without the cavity, one with it
    params = analysis.DEFAULT_PARAMS
    assert len(sh.signal_dominant_frequencies("cavityless", params)) == 2
    assert len(sh.signal_dominant_frequencies("cavity", params)) == 1

    # squeezed (dotted) curve beats thermal (dashed) at the disentangling times
    for model, idx in (("cavityless", 200), ("cavity", 200)):
        sq = curves[f"{model}_5_300.csv"][1]
        th = curves[f"{model}_0_300.csv"][1]
        t_star = np.pi if model == "cavityless" else 2 * np.pi
        assert abs(sq["t_scaled"][idx] - t_star) < 1e-12
        assert sq["f_min"][idx] <= th["f_min"][idx]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    print(f"PASS criterion 9: six deterministic figure curves with expected "
          f"spectra and squeezing ordering, {elapsed:.2f}s")


def test_criterion_10_power_scaling():
    start = time.perf_counter()
    spec = analysis.PowerScalingSpec("cavity", tuple(np.logspace(-3, 3, 25)))
    table = analysis.power_scaling(spec)
    dev_small = abs(table["slope_small_power"] + 0.5)
    dev_large = abs(table["slope_large_power"] - 0.5)
    assert dev_small < 0.05, f"small-power slope off by {dev_small:.3g}"
    assert dev_large < 0.05, f"large-power slope off by {dev_large:.3g}"

    spec_cl = analysis.PowerScalingSpec(
        "cavityless", tuple(np.logspace(-2, 2, 41))
    )
    table_cl = analysis.power_scaling(spec_cl)
    in_regime = table_cl["in_regime"]
    assert np.any(in_regime)
    assert np.all(table_cl["f_min"][in_regime] > 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    print(f"PASS criterion 10: cavity slopes -+1/2 (devs {dev_small:.3g}, "
          f"{dev_large:.3g} < 0.05), cavityless f_min > 0 in regime, "
          f"{elapsed:.2f}s")


def test_criterion_11_validation_ledger(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert cli.main(["validate"]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "validation_ledger.json").read_text())
    assert doc["healthy"]
    by_name = {e["formula"]: e for e in doc["entries"]}
    resolved = [
        "cavityless force response (sinh term)",
        "cavityless heterodyne noise (sinh(2s) sign)",
        "cavityless f_min at Theta t = pi (cosine sign)",
        "cavity homodyne noise normalization",
    ]
    for name in resolved:
        entry = by_name[name]
        assert entry["pass"], name
        assert np.isfinite(entry["engine_vs_literal_max_deviation"]), name
        assert entry["resolution"]
    # the rejected literal variants are distinguishable from the oracle
    for name in resolved[:3]:
        assert by_name[name]["engine_vs_literal_max_deviation"] > 1e-3, (
            f"{name}: literal variant not distinguishable from the oracle"
        )
    # normalization question: the literal meter terms are exactly 4x the
    # engine's 1/4-vacuum convention (a quantified, not qualitative, call)
    t0 = 2 * np.pi / CV.omega
    meter = cavity.MeterSqueezing(1.0, 0.4)
    lit = cavity.noise_literal(CV, t0, cavity.MeterSqueezing(1.0, -0.4), 3.0)
    eng = cavity.noise(CV, t0, meter, 3.0)
    assert abs(lit - eng) > 1e-3
    assert abs(lit / eng - 4.0) < 1e-9
    print("PASS criterion 11: validate exits 0; all four transcription "
          "questions resolved with quantified literal deviations "
          + ", ".join(
              f"{by_name[n]['engine_vs_literal_max_deviation']:.3g}"
              for n in resolved[:3]
          )
          + f", normalization factor {lit / eng:.12g}")
