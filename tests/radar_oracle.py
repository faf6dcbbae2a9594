"""The FFT oracle of the radar chain and the error bounds the closed-form
chain is held to against it.

measure_displacement forms the positive-range spectrum in closed form, over
the span of bins its decision and trace read; range_fft(simulate_beat_signal(
...)) computes the whole spectrum by phasor recurrence, Hann taper and FFT,
explicit_spectrum adds the same noise draws to the same span, and
extract_displacement reads the displacement from it as measure_displacement
does. The two round
differently, so they are compared within bounds derived here from the
rounding of each step, with eps the double-precision machine epsilon,
twice the unit roundoff u. They are upper bounds: every constant is a
count of roundings taken at its worst. The starting phase, rounded to the
same double on both sides, is charged once: for the one addition that
only the closed form makes with it.
"""

import numpy as np

from phonoradar.radar import (C_LIGHT, _bins, _check_scene, _phase_displacement,
                              _select_bin, add_range_noise)
from phonoradar.signals import hann_window

EPS = np.finfo(np.float64).eps
# The relative error, in eps, of each column _dirichlet_rows forms from its
# offsets, with u = eps/2. For n >= 16 every angle C_j = pi*(j0 - j)/n lies
# in [-pi/2, pi/2], so no argument is reduced, and |tau| = pi*|offset|/n
# < pi/16.
# - pi, pi/n and the product with an integer or an offset: C_j and tau to
#   3u relative; sin, cos and tan to 2u (one ulp) of their values.
# - Denominator D_j = sin(C_j) + cos(C_j) tan(tau): sin(C_j) to 2u|sin C_j|
#   + 3u|C_j cos C_j| <= 5u|sin C_j|; tan(tau) to 2u + 3u tau/(sin tau
#   cos tau) <= 5.5u relative; cos(C_j) to 2u plus 3u|C_j sin C_j|, on a
#   term whose |tan tau| <= 0.2; the multiply and the add u each: in all
#   8.5u (|sin C_j| + |cos C_j tan tau|) + u|D_j|. Off the nearest bin
#   |b - j| >= 1/2, so with m = j0 - j the two terms cancel by at most
#   (|m| + |offset|)/(|m| - |offset|) <= 3: 26.5u relative.
# - Numerator sin(pi*t)/cos(tau): 4u for the sine and its argument, 2u for
#   the cosine and u for the division; the last division u.
# 34.5u in all. The nearest column, n*sinc(t)/sinc(t/n), takes about 7u.
DIRICHLET_ULPS = 18


def beat_frequency_hz(cfg, range_m):
    return 2.0 * cfg.slope_hz_per_s * range_m / C_LIGHT


def simulate_beat_signal(scene, cfg):
    """Noiseless unit beat tone, chirps x adc samples, for chirp m against a
    target at R_m = R0 + d[m].

    Each chirp yields a complex tone at f_b = 2*slope*R_m/c with starting
    phase 4*pi*R_m/lambda. The phase is affine in the ADC sample index n,
    4*pi*R_m/lambda + step_m*n with step_m = 2*pi*f_b/f_s, so the tone is
    built by a phasor recurrence: column 0 holds the starting phasor, and
    each pass doubles the filled width w by one complex multiply with
    exp(j*step_m*w). Receiver noise is added after the range FFT
    (add_range_noise).
    """
    _check_scene(scene, cfg)
    ranges = scene.nominal_range_m + scene.displacement.samples
    n = cfg.adc_samples_per_chirp
    data = np.empty((len(ranges), n), dtype=np.complex128)
    step = 2.0 * np.pi * beat_frequency_hz(cfg, ranges) / cfg.adc_rate_hz
    data[:, 0] = np.exp(1j * (4.0 * np.pi * ranges / cfg.wavelength_m))
    width = 1
    while width < n:
        k = min(width, n - width)
        np.multiply(data[:, :k], np.exp(1j * (step * width))[:, None],
                    out=data[:, width:width + k])
        width += k
    return data


def range_fft(beat):
    """Hann-tapered fast-time FFT per chirp of a chirps x n beat, keeping the
    positive-range bins."""
    n = beat.shape[1]
    return np.fft.fft(beat * hann_window(n), axis=1)[:, :n // 2]


def extract_displacement(rangefft, scene, cfg):
    """Slow-time phase vibrometry at the max mean-magnitude bin: the
    package's bin decision, over the span of bins measure_displacement forms
    for the scene, from the whole spectrum's mean magnitudes, and its
    phase-to-displacement steps, returning the (trace, bin decision) pair
    measure_displacement returns."""
    centre, _, span = _bins(cfg, scene.nominal_range_m)
    profile = np.abs(rangefft).mean(axis=0)
    decision = _select_bin(profile[span.start:span.stop], span, centre)
    return _phase_displacement(np.angle(rangefft[:, decision["selected_bin"]]), cfg), decision


def explicit_spectrum(scene, cfg, rng=None, span=None):
    """The oracle: the positive-range spectrum from the FFT chain, with the
    receiver noise added to the bins of span, by default the span
    measure_displacement forms for the scene (radar._bins)."""
    spectrum = range_fft(simulate_beat_signal(scene, cfg))
    span = span or _bins(cfg, scene.nominal_range_m)[2]
    add_range_noise(spectrum[:, span.start:span.stop], scene, cfg, rng)
    return spectrum


def explicit_chain(scene, cfg, rng=None):
    return extract_displacement(explicit_spectrum(scene, cfg, rng), scene, cfg)


def spectrum_bound(scene, cfg, spectrum):
    """Bound on |closed form - oracle| in any one bin of any chirp; spectrum
    is the oracle's (noisy) positive-range spectrum.

    For the unit tone, n ADC samples, starting phase phi = 4*pi*R/lambda and
    bin b = R / bin spacing. Both chains round phi from the same ranges by
    the same expression, to the same double, so its rounding turns both
    spectra alike and leaves their difference; only what each chain does
    with that double is charged:

    - oracle, phasor recurrence: the exponential of phi (2 eps); each of the
      log2 n doubling passes multiplies by exp(j*step*w), step = 2*pi*b/n
      to 6 ulps, so the phase errors sum to 12*pi*b eps, plus 5 eps per
      pass for the exponential and the multiply; on |X| <= n/2 that is
      n/2 * eps * (12*pi*b + 5 log2 n + 5);
    - oracle, taper and FFT: a normwise FFT error of 5 log2(n) eps ||X||_2,
      with ||X||_2 = n*sqrt(3/8) for the Hann-tapered tone (Parseval);
    - closed form, phase factors: pi*b*(n-1)/n to 3 eps pi*b, its sum with
      phi rounded once, eps/2 (|phi| + pi*b), and the exponentials with
      exp(j*pi*k/n) 10 eps, on |u + j*v| <= 2n, scaled by 1/2;
    - closed form, Dirichlet kernel: each q_j to DIRICHLET_ULPS eps relative
      of its offsets, |q_j| <= n, and u, v add 3 eps each, so
      |delta(u + j*v)| <= 2n (DIRICHLET_ULPS + 3) eps, scaled by 1/2; the
      offsets' own rounding moves b by at most (b + 2) eps/2, and the
      spectrum by at most pi*n/2 per unit of b;
    - noise: the four in-place additions of add_range_noise, 4 eps of the
      noisy bin on each side.
    """
    n = cfg.adc_samples_per_chirp
    ranges = scene.nominal_range_m + scene.displacement.samples
    phi = float(np.max(np.abs(4.0 * np.pi * ranges / cfg.wavelength_m)))
    b = float(np.max(ranges)) / cfg.range_bin_spacing_m()
    log_n = max(1, int(np.ceil(np.log2(n))))
    oracle = n / 2 * (12 * np.pi * b + 5 * log_n + 5) + n * np.sqrt(3 / 8) * 5 * log_n
    closed = (n * (phi / 2 + 3.5 * np.pi * b + 10) + n * (DIRICHLET_ULPS + 3)
              + n * np.pi * (b + 2) / 4)
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


def phase_difference(got, want):
    """got - want wrapped to [-pi, pi]: phases a whole turn apart agree."""
    return np.angle(np.exp(1j * (got - want)))


def phase_bound(bound, spectrum):
    """Bound on |phase_difference| of the closed form's and the oracle's phase
    in each bin of spectrum, the oracle's, from bound, one on their complex
    difference: an error E on X moves its phase by at most arcsin(E/|X|)
    <= pi/2 * E/|X| while E < |X|, and by up to pi beyond. The phases and
    their wrapped difference add 10 eps: arctan2 on each side, 1 ulp of a
    phase of at most pi, 2 eps each; the difference, half an ulp of at most
    2 pi, 2 eps; the complex exponential and its angle, 2 eps each."""
    with np.errstate(divide="ignore"):
        spread = np.pi / 2 * bound / np.abs(spectrum)
    return np.minimum(spread, np.pi) + 10 * EPS


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
