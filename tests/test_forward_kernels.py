"""Equivalence of the array-pass forward simulation with the reference
implementations kept here: the 2-D complex exp the beat recurrence replaced,
the time-domain receiver noise the range-domain noise replaced (equal in
distribution), and the per-cycle glottal loop the array pulse train
replaced; and of the streamed closed-form radar chain and its Dirichlet
kernel with the FFT oracle in radar_oracle, within the bounds derived there."""

import tracemalloc

import numpy as np
import pytest

from phonoradar.radar import (_BAND_BINS, C_LIGHT, ChirpConfig, NoCoherentTargetError,
                              TargetScene, _bins, _block_chirps, _dirichlet_rows,
                              _stream_bins, _unwrap, add_range_noise, measure_displacement)
from phonoradar.signals import SampledSignal, hann_window
from phonoradar.synth import GlottalConfig, synth_vocal_fold_displacement
from radar_oracle import (DIRICHLET_ULPS, EPS, displacement_bound, explicit_chain,
                          explicit_spectrum, extract_displacement, means_bound,
                          phase_bound, phase_difference, simulate_beat_signal,
                          spectrum_bound)

PRF = 2000.0


# --- references -----------------------------------------------------------

def ref_beat(scene, cfg, rng=None, tone=True):
    """The unit beat tone, chirps x adc samples, as a 2-D complex exp, plus
    the scene's time-domain receiver noise when it has an SNR; tone=False
    leaves the tone out."""
    d = scene.displacement
    t_fast = np.arange(cfg.adc_samples_per_chirp) / cfg.adc_rate_hz
    ranges = scene.nominal_range_m + d.samples[:, None]
    beat_freq = 2.0 * cfg.slope_hz_per_s * ranges / C_LIGHT
    phase = 4.0 * np.pi * ranges / cfg.wavelength_m
    data = np.exp(1j * (2.0 * np.pi * beat_freq * t_fast[None, :] + phase)) * tone
    if scene.noise_snr_db is not None:
        sigma = np.sqrt(1.0 / 10.0 ** (scene.noise_snr_db / 10.0) / 2.0)
        data = data + sigma * (rng.standard_normal(data.shape)
                               + 1j * rng.standard_normal(data.shape))
    return data


def ref_glottal(cfg, duration_s, rate_hz, rng=None, lead_in_s=0.0):
    n = int(round((duration_s + lead_in_s) * rate_hz))
    x = np.zeros(n)
    t0 = lead_in_s
    t_end = lead_in_s + duration_s
    rise_frac = 2.0 / 3.0
    while t0 < t_end:
        period = 1.0 / cfg.f0_hz
        if cfg.jitter_pct > 0:
            period *= 1.0 + (cfg.jitter_pct / 100.0) * rng.uniform(-1.0, 1.0)
        t_open = cfg.open_quotient * period
        i0 = int(np.ceil(t0 * rate_hz))
        i1 = min(int(np.ceil((t0 + t_open) * rate_hz)), n)
        if i1 > i0:
            phase = (np.arange(i0, i1) / rate_hz - t0) / t_open
            u = phase / rise_frac
            v = (phase - rise_frac) / (1.0 - rise_frac)
            pulse = np.where(phase < rise_frac, 3.0 * u**2 - 2.0 * u**3, 1.0 - v**2)
            x[i0:i1] = cfg.amplitude * np.clip(pulse, 0.0, None)
        t0 += period
    return x


def chirp_config(n):
    # the default 256 samples fill the 60 us chirp; keep that ADC rate
    # below it and raise it above, so every capture fits the chirp
    return ChirpConfig(adc_samples_per_chirp=n,
                       adc_rate_hz=max(n, 256) / 60e-6)


def refused(n):
    """Whether n ADC samples lie below the 16 ChirpConfig takes, after
    checking that it refuses them: the cases at n = 1 to 5 check that."""
    if n >= 16:
        return False
    with pytest.raises(ValueError, match="adc_samples_per_chirp must be at least 16"):
        chirp_config(n)
    return True


def vibrating(rng, n_chirps=300):
    return SampledSignal(rng.uniform(-1e-4, 1e-4, n_chirps), PRF)


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# --- beat recurrence ------------------------------------------------------

@pytest.mark.parametrize("excursion", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("range_m", [0.25, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 200, 256, 1000])
def test_beat_matches_exp_formula(rng, n, range_m, excursion):
    # excursion: the vibration's share of the largest the scene takes, just
    # under half a range resolution; 0 is a still target
    if refused(n):
        return
    cfg = chirp_config(n)
    swing = excursion * 0.499 * cfg.range_resolution_m
    scene = TargetScene(displacement=SampledSignal(rng.uniform(-swing, swing, 300), PRF),
                        nominal_range_m=range_m)
    beat = simulate_beat_signal(scene, cfg)
    want = ref_beat(scene, cfg)
    assert beat.shape == want.shape
    assert np.max(np.abs(beat - want)) <= 1e-12


# --- range-domain noise ---------------------------------------------------

def hann_noise_covariance(n):
    """Covariance of the positive-range bins of FFT(hann * noise) over
    2*n*sigma^2, from the window's three DFT taps (1/2 at bin k, -1/4 at
    k -+ 1, bin indices modulo n) and the whiteness of the noise's DFT."""
    half = n // 2
    taps = np.zeros((half, n))
    for k in range(half):
        for offset, tap in ((-1, -0.25), (0, 0.5), (1, -0.25)):
            taps[k, (k + offset) % n] += tap
    return taps @ taps.T


def noise_moments(noise, n, sigma):
    """Covariance and pseudo-covariance of the bins over 2*n*sigma^2."""
    scale = 2.0 * n * sigma ** 2 * len(noise)
    return noise.T @ noise.conj() / scale, noise.T @ noise / scale


@pytest.mark.parametrize("n", [2, 4, 5, 16, 17, 63, 64, 256])
def test_range_noise_matches_time_domain_noise_in_distribution(n):
    # over every positive bin, and over spans of at most 7 that start at bin
    # 0 and that end at n/2, as the chain draws for the bins it forms
    if refused(n):
        return
    chirps = 8000
    cfg = chirp_config(n)
    still = SampledSignal(np.zeros(chirps), PRF)
    snr_db = 3.0
    scene = TargetScene(displacement=still, noise_snr_db=snr_db)
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)   # against the unit tone
    half = n // 2
    noise = ref_beat(scene, cfg, np.random.default_rng(6), tone=False)
    oracle = np.fft.fft(hann_window(n) * noise, axis=1)[:, :half]
    want = hann_noise_covariance(n)
    lags = [want[k, k + lag] for lag in range(3) for k in range(half - lag)]
    assert set(lags) == set([3 / 8, -1 / 4, 1 / 16][:half])
    far = np.abs(np.subtract.outer(range(half), range(half))) >= 3
    assert not want[far].any()
    for span in (slice(0, half), slice(0, min(7, half)), slice(max(half - 7, 0), half)):
        added = np.zeros((chirps, span.stop - span.start), dtype=np.complex128)
        add_range_noise(added, scene, cfg, np.random.default_rng(5))
        # each moment has a standard error of at most 3/8 / sqrt(chirps),
        # about 0.004
        for got in (added, oracle[:, span]):
            cov, pseudo = noise_moments(got, n, sigma)
            assert np.max(np.abs(cov - want[span, span])) < 0.025
            assert np.max(np.abs(pseudo)) < 0.025


# --- streamed radar chain -------------------------------------------------

def stream_grid(test):
    """Parametrize test over chirp counts around the block size, ADC sample
    counts and SNR."""
    # an odd count has no Nyquist bin; below 16 the chirp config is refused
    for mark in (pytest.mark.parametrize("chirps", ["1", "B-1", "B", "B+1", "4100"]),
                 pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 63, 64, 256]),
                 pytest.mark.parametrize("snr_db", [None, 15.0])):
        test = mark(test)
    return test


def grid_scene(rng, chirps, n, snr_db):
    # B, the chirps of one block of the span the chain forms at 0.25 m
    block = _block_chirps(len(_bins(chirp_config(n), 0.25)[2]))
    count = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "4100": 4100}[chirps]
    return TargetScene(displacement=vibrating(rng, count), noise_snr_db=snr_db)


def assert_matches_oracle(scene, cfg):
    """measure_displacement against the explicit chain, within the derived
    bounds: the same bin and generator state, and every figure within its
    bound."""
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got, got_bin = measure_displacement(scene, cfg, got_rng)
    spectrum = explicit_spectrum(scene, cfg, want_rng)
    want, want_bin = extract_displacement(spectrum, scene, cfg)
    assert got_bin["selected_bin"] == want_bin["selected_bin"]
    assert got_bin["floor_bins"] == want_bin["floor_bins"]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    means = means_bound(scene, cfg, spectrum)
    assert abs(got_bin["bin_magnitude"] - want_bin["bin_magnitude"]) <= means
    assert abs(got_bin["noise_floor"] - want_bin["noise_floor"]) <= means
    bound = displacement_bound(scene, cfg, spectrum, want_bin["selected_bin"])
    assert np.max(np.abs(got.samples - want.samples)) <= bound


@pytest.mark.parametrize("band_off_peak", [False, True])
@stream_grid
def test_streamed_chain_matches_explicit(monkeypatch, rng, chirps, n, snr_db, band_off_peak):
    if refused(n):
        return
    cfg = chirp_config(n)
    scene = grid_scene(rng, chirps, n, snr_db)
    if band_off_peak:
        # centre the kept band on the positive bin farthest from the peak,
        # as if the nominal range lay there: the span's largest bin is the
        # peak, out of the band, or, where the span does not reach the peak,
        # a sidelobe or noise bin under five times its floor or out of the
        # band; both chains raise the same error
        peak = explicit_chain(scene, cfg, np.random.default_rng(7))[1]["selected_bin"]
        far = 0 if 2 * peak >= n // 2 else n // 2 - 1
        assert abs(far - peak) > _BAND_BINS
        monkeypatch.setattr(ChirpConfig, "bin_of_range", lambda self, range_m: far)
        got = raised(lambda: measure_displacement(scene, cfg, np.random.default_rng(7)))
        want = raised(lambda: explicit_chain(scene, cfg, np.random.default_rng(7)))
        assert got == want and got[0] is NoCoherentTargetError
        assert got[1].endswith(("is below the noise floor", f"bin {far}"))
        return
    assert_matches_oracle(scene, cfg)


@stream_grid
def test_streamed_bin_means_match_explicit(rng, chirps, n, snr_db):
    if refused(n):
        return
    # spans of every positive bin, of the last five (off the tone, whose
    # nearest bin then has no column), of one middle bin and of the chain's
    # own, each with a band within it; the oracle draws over the same span
    cfg = chirp_config(n)
    scene = grid_scene(rng, chirps, n, snr_db)
    half = n // 2
    _, own_band, own_span = _bins(cfg, scene.nominal_range_m)
    last, middle = range(max(half - 5, 0), half), range(half // 2, half // 2 + 1)
    for span, band in ((range(half), range(half)), (last, last[-2:]), (middle, middle),
                       (own_span, own_band)):
        spectrum = explicit_spectrum(scene, cfg, np.random.default_rng(7), span)
        bound = phase_bound(spectrum_bound(scene, cfg, spectrum), spectrum)
        means, phases = _stream_bins(scene, cfg, np.random.default_rng(7), span, band)
        want_means = np.abs(spectrum[:, span.start:span.stop]).mean(axis=0)
        assert np.max(np.abs(means - want_means)) <= means_bound(scene, cfg, spectrum)
        cut = slice(band.start, band.stop)
        want = np.angle(spectrum[:, cut])
        assert np.all(np.abs(phase_difference(phases, want)) <= bound[:, cut])


@pytest.mark.parametrize("n", [16, 17, 64, 256])
def test_noiseless_band_does_not_depend_on_the_bins_formed(rng, n):
    # the band's phase and mean magnitudes formed over the band alone, over
    # the chain's span and over every positive bin are the same bytes: each
    # bin is formed from its own bin index alone, so a noiseless trace and
    # bin_magnitude do not depend on which other bins are formed (nor on
    # the block size, which follows the bins formed)
    cfg = chirp_config(n)
    spacing = cfg.range_bin_spacing_m()
    half = n // 2
    for centre in (0.3, 3.5, half / 2 + 0.2, half - 1.2):
        scene = TargetScene(displacement=vibrating(rng, 4100),
                            nominal_range_m=centre * spacing)
        _, band, span = _bins(cfg, scene.nominal_range_m)
        runs = set()
        for formed in (band, span, range(half)):
            means, phases = _stream_bins(scene, cfg, None, formed, band)
            cut = slice(band.start - formed.start, band.stop - formed.start)
            runs.add((means[cut].tobytes(), phases.tobytes()))
        assert len(runs) == 1


@pytest.mark.parametrize("offset", [0.0, 1e-12, 0.5, -0.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 63, 64, 256, 8192])
@pytest.mark.parametrize("chirps", ["B-1", "B+1"])
@pytest.mark.parametrize("excursion_m", [0.0, 1e-11])
def test_tone_at_and_between_bin_centres(chirps, n, offset, excursion_m):
    # the nominal range offset bins from bin 6's centre, still or moving by
    # 1e-11 m: at a centre the Dirichlet kernel's nearest column is 0/0 and
    # takes its limit n, near it numerator and denominator both vanish, and
    # half a bin off the nearest bin changes between chirps. An error of
    # about n eps relative in the kernel's columns beside the tone, such as
    # a sine taken of its angle plus pi, moves the spectrum by up to about
    # n^2/4 eps; the bound here is about 700 n eps, so n = 8192 shows it.
    if refused(n):
        return
    cfg = chirp_config(n)
    spacing = cfg.range_bin_spacing_m()
    centre = 6
    count = _block_chirps(n // 2) + (1 if chirps == "B+1" else -1)
    d = excursion_m * np.sin(np.arange(count) * 0.7)
    scene = TargetScene(displacement=SampledSignal(d, PRF),
                        nominal_range_m=(centre + offset) * spacing)
    spectrum = explicit_spectrum(scene, cfg)
    every = range(n // 2)
    means, phases = _stream_bins(scene, cfg, None, every, every)
    assert np.all(np.isfinite(phases))
    bound = phase_bound(spectrum_bound(scene, cfg, spectrum), spectrum)
    assert np.all(np.abs(phase_difference(phases, np.angle(spectrum))) <= bound)
    assert np.max(np.abs(means - np.abs(spectrum).mean(axis=0))) <= means_bound(
        scene, cfg, spectrum)


def exact_dirichlet(offset, j0, first, n, cols):
    """The Dirichlet kernel _dirichlet_rows forms, sin(pi*b)/sin(pi*(b - j)/n)
    at b = j0 + offset and j = first - 1 .. first + cols - 2, in extended
    precision from the same offsets, with the limit (-1)^j * n where b = j."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    off = offset.astype(np.longdouble)
    k = j0 + np.rint(off)   # the nearest bin
    t = off - (k - j0)
    sign = 1 - 2 * (k % 2)
    # b - j as (k - j) + t, exact at the nearest bin
    distance = (k[:, None] - np.arange(first - 1, first + cols - 1)) + t[:, None]
    with np.errstate(invalid="ignore"):
        q = (sign * np.sin(pi * t))[:, None] / np.sin(pi * distance / n)
    at_bin = (t == 0) & (k >= first - 1) & (k < first + cols - 1)
    q[at_bin, (k[at_bin] + 1 - first).astype(np.intp)] = n * sign[at_bin]
    return q


@pytest.mark.parametrize("n", [16, 17, 63, 64, 256, 1000])
def test_dirichlet_columns_within_their_bound(rng, n):
    # each column to DIRICHLET_ULPS eps relative, the allowance spectrum_bound
    # takes for the kernel, at every positive bin class: the first two, the
    # middle and the last two, with offsets at, near and half a bin off a
    # centre and across (-1, 1); over bins -1 .. n/2, and over spans from
    # the bin before j0's, from j0's and from the last one's
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("the reference needs an extended-precision long double")
    half = n // 2
    offset = np.concatenate([[0.0, 1e-12, -1e-12, 0.5, -0.5, 0.999, -0.999],
                             rng.uniform(-1.0, 1.0, 300)])
    for j0 in (0, 1, half // 2, half - 2, half - 1):
        for first in sorted({0, max(j0 - 1, 0), j0, half - 1}):
            cols = half + 2 - first
            got = np.empty((len(offset), cols))
            _dirichlet_rows(offset, j0, first, n, got)
            want = exact_dirichlet(offset, j0, first, n, cols)
            assert np.all(np.abs(got - want) <= DIRICHLET_ULPS * EPS * np.abs(want))


def test_bin_centre_range_measures_like_the_oracle(rng):
    cfg = ChirpConfig()
    scene = TargetScene(displacement=vibrating(rng, 4100),
                        nominal_range_m=6 * cfg.range_bin_spacing_m())
    assert scene.nominal_range_m == pytest.approx(0.24983, abs=1e-5)
    assert_matches_oracle(scene, cfg)


@pytest.mark.parametrize("scene, error", [
    (TargetScene(displacement=SampledSignal(np.zeros(300), 1000.0)), ValueError),
    (TargetScene(displacement=SampledSignal(np.full(300, 0.03), PRF)), ValueError),
    # a target buried in noise, -20 dB per ADC sample
    (TargetScene(displacement=SampledSignal(np.zeros(300), PRF), noise_snr_db=-20.0),
     NoCoherentTargetError),
    # past bin 127, which ends at 5.31 m, the range would alias
    (TargetScene(displacement=SampledSignal(np.zeros(300), PRF), nominal_range_m=10.7),
     ValueError),
], ids=["prf-mismatch", "excursion-out-of-bin", "buried-in-noise",
        "range-beyond-positive-bins"])
def test_streamed_chain_raises_as_explicit(scene, error):
    cfg = ChirpConfig()
    got = raised(lambda: measure_displacement(scene, cfg, np.random.default_rng(7)))
    want = raised(lambda: explicit_chain(scene, cfg, np.random.default_rng(7)))
    assert got == want and got[0] is error


def streamed_peak_bytes(chirps, snr_db):
    """measure_displacement's tracemalloc peak on a vibrating scene."""
    cfg = ChirpConfig()
    scene = TargetScene(displacement=vibrating(np.random.default_rng(3), chirps),
                        noise_snr_db=snr_db)
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        measure_displacement(scene, cfg, rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chirps, snr_db, bound", [
    (4100, None, 0.25), (4100, 20.0, 0.25), (16400, 20.0, 0.1),
], ids=["4100-noiseless", "4100-noisy", "16400-noisy"])
def test_streamed_chain_peak_memory(chirps, snr_db, bound):
    # the streamed chain holds one block of the kernel, its spectrum and noise
    # draws, the band's phases and the output, about 0.8 MB at 4100 chirps
    # noiseless, 1.0 MB noisy and 1.5 MB at 16400; the explicit chain holds
    # about 2 beat matrices
    peak = streamed_peak_bytes(chirps, snr_db)
    assert peak <= bound * chirps * ChirpConfig().adc_samples_per_chirp * 16


def test_noisy_chain_keeps_its_band_as_phase():
    # 16400 noisy chirps peak at about 2.1 MB, of which the band's five
    # phases per chirp take 0.66 MB; the band as five complex bins per chirp
    # takes the peak to about 2.8 MB. Each block's magnitudes going into the
    # kernel's buffer, not a fresh temporary, saves another 0.12 MB.
    assert streamed_peak_bytes(16400, 20.0) < 2.3e6


def test_noisy_chain_unwraps_in_place():
    # 120 000 noisy chirps, a 60 s subject, peak at about 5.76 MB as the
    # chosen column, 0.96 MB, is copied out of the band's five phases per
    # chirp, 4.8 MB; the band is dropped before the unwrap, which holds the
    # column and three chirp-length arrays, 3.84 MB. Unwrapping a view of
    # the band held both, 8.0 MB, and np.unwrap's temporaries 9.6 MB. The
    # bound leaves 0.44 MB for the libraries' own allocations.
    assert streamed_peak_bytes(120000, 20.0) < 6.2e6


def test_unwrap_is_numpys_bytes(rng):
    # a column of a chirps x bins array, as the chain unwraps it, with steps
    # of exactly -pi, +pi and +-2 pi among random ones: np.unwrap keeps a
    # step of +pi, and turns one of -pi into +pi
    phases = rng.uniform(-np.pi, np.pi, (4000, 5))
    column = phases[:, 2]
    column[100:102] = (0.0, np.pi)
    column[200:202] = (np.pi, 0.0)
    column[300:302] = (-np.pi, np.pi)
    column[400:402] = (np.pi, -np.pi)
    assert _unwrap(column).tobytes() == np.unwrap(column).tobytes()
    assert _unwrap(column[:1]).tobytes() == np.unwrap(column[:1]).tobytes()


# --- glottal pulse train --------------------------------------------------

@pytest.mark.parametrize("jitter_pct", [0.0, 1.0])
@pytest.mark.parametrize("lead_in_s", [0.0, 0.05])
@pytest.mark.parametrize("f0_hz", [90.0, 500.0, 1000.0])
def test_glottal_train_matches_per_cycle_loop(f0_hz, lead_in_s, jitter_pct):
    cfg = GlottalConfig(f0_hz=f0_hz, jitter_pct=jitter_pct)
    for duration_s, rate_hz in ((1.0, 16000.0), (0.2137, 8000.0)):
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = synth_vocal_fold_displacement(cfg, duration_s, rate_hz, got_rng, lead_in_s)
        want = ref_glottal(cfg, duration_s, rate_hz, want_rng, lead_in_s)
        assert np.array_equal(got.samples, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_glottal_train_cuts_last_open_phase_at_end():
    # 0.015 s at 100 Hz: the second cycle opens at 10 ms and would stay
    # open until 16 ms, past the last sample
    cfg = GlottalConfig(f0_hz=100.0)
    got = synth_vocal_fold_displacement(cfg, 0.015, 16000.0).samples
    want = ref_glottal(cfg, 0.015, 16000.0)
    assert len(got) == 240 and got[-1] > 0.0
    assert np.array_equal(got, want)
