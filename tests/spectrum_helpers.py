"""The spectrum of the closed-form signal, which only the tests read: the
cavityless signal beats at both Theta and Omega, the cavity signal at Omega
alone."""

from __future__ import annotations

import numpy as np

from optoforce import analysis

# the sampling and the peak threshold of signal_dominant_frequencies
SPECTRUM_CYCLES = 40.0
SPECTRUM_SAMPLES = 8192
SPECTRUM_PEAK_FRACTION = 0.1


def signal_dominant_frequencies(model: str, params: dict) -> np.ndarray:
    """Dominant angular frequencies in the signal's oscillatory part.

    Samples signal(t), one time at a time, over SPECTRUM_CYCLES half-periods
    of the slower frequency, removes the linear trend, Hann-windows and FFTs;
    returns the frequencies of local spectral maxima above
    SPECTRUM_PEAK_FRACTION of the global maximum.  The cavityless signal
    beats at both Theta and Omega; the cavity signal only at Omega.
    """
    scheme = analysis.SCHEMES[model]
    p = scheme.params_from_ratios(analysis.full_params(params))
    t_max = SPECTRUM_CYCLES * np.pi / scheme.time_unit(p)
    t = np.linspace(0.0, t_max, SPECTRUM_SAMPLES)
    y = np.array([scheme.signal(p, x) for x in t.tolist()])
    y = y - np.polyval(np.polyfit(t, y, 1), t)
    spectrum = np.abs(np.fft.rfft(y * np.hanning(SPECTRUM_SAMPLES)))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(SPECTRUM_SAMPLES, d=t[1] - t[0])
    peak = spectrum.max()
    is_max = (spectrum[1:-1] > spectrum[:-2]) & (spectrum[1:-1] > spectrum[2:])
    keep = is_max & (spectrum[1:-1] > SPECTRUM_PEAK_FRACTION * peak)
    return freqs[1:-1][keep]
