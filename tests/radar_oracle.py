"""The FFT oracle of the radar chain and the error bounds the closed-form
chain is held to against it.

measure_displacement forms the positive-range spectrum in closed form;
range_fft(simulate_beat_signal(...)) computes the same spectrum by phasor
recurrence, Hann taper and FFT. The two round differently, so they are
compared within bounds derived here from the rounding of each step, with
eps the double-precision unit roundoff. They are upper bounds: every
constant is a count of roundings taken at its worst, and the starting
phase, rounded identically on both sides, is counted on both.
"""

import numpy as np

from phonoradar.radar import (C_LIGHT, add_range_noise, extract_displacement, range_fft,
                              simulate_beat_signal)

EPS = np.finfo(np.float64).eps


def explicit_spectrum(scene, cfg, rng=None):
    """The oracle: the noisy positive-range spectrum from the public steps."""
    spectrum = range_fft(simulate_beat_signal(scene, cfg))
    add_range_noise(spectrum, scene, cfg, rng)
    return spectrum


def explicit_chain(scene, cfg, rng=None):
    return extract_displacement(explicit_spectrum(scene, cfg, rng), cfg)


def spectrum_bound(scene, cfg, spectrum):
    """Bound on |closed form - oracle| in any one bin of any chirp; spectrum
    is the oracle's (noisy) positive-range spectrum.

    For a tone of amplitude a, n ADC samples, starting phase phi = 4*pi*R/lambda
    and bin b = R / bin spacing:

    - oracle, phasor recurrence: phi's rounding (2 eps |phi|) and the
      exponential (2 eps); each of the log2 n doubling passes multiplies by
      exp(j*step*w), step = 2*pi*b/n to 6 ulps, so the phase errors sum to
      12*pi*b eps, plus 5 eps per pass for the exponential and the multiply;
      on |X| <= a*n/2 that is a*n/2 * eps * (2|phi| + 12*pi*b + 5 log2 n + 5);
    - oracle, taper and FFT: a normwise FFT error of 5 log2(n) eps ||X||_2,
      with ||X||_2 = a*n*sqrt(3/8) for the Hann-tapered tone (Parseval);
    - closed form, phase factors: phi + pi*b*(n-1)/n and exp(j*pi*k/n) to
      3 eps (|phi| + pi*b) + 10 eps, on |u + j*v| <= 2n;
    - closed form, Dirichlet kernel: each q_j to (10 + 2n) eps relative (the
      outer-product denominators are at least sin(pi/(2n)) away from the
      nearest bin, whose column is formed without cancellation; 2n covers
      an argument reduced by pi), |q_j| <= n, and u, v add 3 eps each, so
      |delta(u + j*v)| <= 2n (2n + 13) eps, scaled by a/2;
    - noise: the four in-place additions of add_range_noise, 4 eps of the
      noisy bin on each side.
    """
    n = cfg.adc_samples_per_chirp
    a = abs(scene.reflectivity)
    ranges = scene.nominal_range_m + scene.displacement.samples
    phi = float(np.max(np.abs(4.0 * np.pi * ranges / cfg.wavelength_m)))
    b = float(np.max(ranges)) / cfg.range_bin_spacing_m()
    log_n = max(1, int(np.ceil(np.log2(n))))
    oracle = (a * n / 2 * (2 * phi + 12 * np.pi * b + 5 * log_n + 5)
              + a * n * np.sqrt(3 / 8) * 5 * log_n)
    closed = a * n * (3 * (phi + np.pi * b) + 10) + a * n * (2 * n + 13)
    noise = 8 * float(np.max(np.abs(spectrum), initial=0.0))
    return EPS * (oracle + closed + noise)


def means_bound(scene, cfg, spectrum):
    """Bound on |closed form - oracle| of a bin's mean magnitude over the
    chirps, and so of the noise floor, a median of those means: the
    spectrum bound, plus the summation of m chirps in row order (m eps of
    the largest magnitude) and the magnitudes' own rounding."""
    chirps = len(spectrum)
    return (spectrum_bound(scene, cfg, spectrum)
            + (chirps + 3) * EPS * float(np.max(np.abs(spectrum), initial=0.0)))


def displacement_bound(scene, cfg, spectrum, bin_index):
    """Bound on |closed form - oracle| of the displacement read from one
    bin: a bin error E moves chirp m's phase by at most pi/2 * E / |X_m|;
    angle and unwrap add 4 eps per chirp of the largest unwrapped phase,
    accumulated over the chirps by unwrap's running sum; lambda/(4 pi gain)
    converts to metres, and the mean removal at most doubles the result."""
    column = spectrum[:, bin_index]
    phase = np.unwrap(np.angle(column))
    spread = float(np.pi / 2 * spectrum_bound(scene, cfg, spectrum) / np.min(np.abs(column)))
    rounding = 4 * len(column) * EPS * (float(np.max(np.abs(phase))) + 2 * np.pi)
    group_delay_s = (cfg.adc_samples_per_chirp - 1) / (2.0 * cfg.adc_rate_hz)
    gain = 1.0 + cfg.slope_hz_per_s * cfg.wavelength_m * group_delay_s / C_LIGHT
    return 2 * cfg.wavelength_m / (4 * np.pi * gain) * (spread + rounding)
