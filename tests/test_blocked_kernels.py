"""Loess, the glottal pulse train, the decimation filter and the radar's
range spectrum work in blocks of fixed size; each must give the bytes of the
one-pass version it replaced, kept here as the reference, at every block
size, in working memory that grows with the input's length, not its square
or a dozen copies of it. The pulse train is evaluated by range, as the
decimation filter reads it, so synth never holds it whole."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from phonoradar import metrics, radar, signals, synth
from phonoradar.metrics import loess_smooth
from phonoradar.radar import ChirpConfig, TargetScene, measure_displacement
from phonoradar.signals import SampledSignal, design_lowpass, resample_decimate
from phonoradar.synth import (GlottalConfig, NeckChannel, make_subject, random_vocal_tract,
                              synth_vocal_fold_displacement)

MB = 1e6


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- loess ----------------------------------------------------------------

def unblocked_loess(x, y, span):
    """loess_smooth's fit as one pass over (n, n - k) and (n, k) matrices."""
    n = len(x)
    k = max(2, int(np.ceil(span * n)))
    left = np.arange(n - k)
    starts = np.count_nonzero(x[left + k] - x[:, None] < x[:, None] - x[left], axis=1)
    idx = starts[:, None] + np.arange(k)
    xw, yw = x[idx], y[idx]
    dist = np.abs(xw - x[:, None])
    h = dist.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.clip(1.0 - np.abs(dist / h) ** 3, 0.0, None) ** 3
        sw = w.sum(axis=1)
        mx = (w * xw).sum(axis=1) / sw
        my = (w * yw).sum(axis=1) / sw
        sxx = (w * (xw - mx[:, None]) ** 2).sum(axis=1)
        slope = (w * (xw - mx[:, None]) * (yw - my[:, None])).sum(axis=1) / sxx
    out = np.where(sxx > 0, my + slope * (x - mx), my)
    return np.where(h[:, 0] > 0, out, yw.mean(axis=1))


def loess_times(rng, kind, n):
    return {"equally-spaced": np.arange(n) * 0.0125,   # every interior point has a tie
            "random-sorted": np.sort(rng.uniform(0.0, 3.0, n)),
            "gapped": np.flatnonzero(rng.random(3 * n) < 0.5)[:n] * 0.0125}[kind]


@pytest.mark.parametrize("kind", ["equally-spaced", "random-sorted", "gapped"])
@pytest.mark.parametrize("span", [0.05, 0.3, 0.55, 1.0])
@pytest.mark.parametrize("n, blocks", [(37, range(1, 39)), (250, (1, 2, 7, 100, 249, 250))],
                         ids=["37-every-block-size", "250"])
def test_loess_blocks_match_unblocked(monkeypatch, rng, kind, span, n, blocks):
    x = loess_times(rng, kind, n)
    y = rng.standard_normal(n)
    want = unblocked_loess(x, y, span).tobytes()
    for rows in blocks:   # points per block
        monkeypatch.setattr(metrics, "_LOESS_BLOCK_BYTES", 8 * n * rows)
        assert loess_smooth(x, y, span).tobytes() == want


def test_loess_benchmark_series_fit_in_one_block():
    # the benchmark cohorts' series have 140-280 windows: one block of
    # points, so blocking adds no pass over them
    assert all(metrics._LOESS_BLOCK_BYTES // (8 * n) >= n for n in (5, 140, 280, 362))


def test_loess_peak_memory_at_4800_points(rng):
    # a 60 s subject's 4800 windows: about 2.4 MB in blocks, where the
    # unblocked fit holds (4800, 3360) matrices, about 390 MB
    n = 4800
    x, y = np.arange(n) * 0.0125, rng.standard_normal(n)
    assert peak_bytes(lambda: loess_smooth(x, y, 0.3)) < 40 * MB


# --- glottal pulse train --------------------------------------------------

def unblocked_pulse_train(cfg, duration_s, rate_hz, rng, lead_in_s=0.0):
    """synth_vocal_fold_displacement's samples with every cycle's open phase
    evaluated in one array pass."""
    n = int(round((duration_s + lead_in_s) * rate_hz))
    onsets, open_times = [], []
    t0 = lead_in_s
    while t0 < lead_in_s + duration_s:
        period = 1.0 / cfg.f0_hz
        if cfg.jitter_pct > 0:
            period *= 1.0 + (cfg.jitter_pct / 100.0) * rng.uniform(-1.0, 1.0)
        onsets.append(t0)
        open_times.append(cfg.open_quotient * period)
        t0 += period
    t0, t_open = np.array(onsets), np.array(open_times)
    i0 = np.ceil(t0 * rate_hz).astype(np.int64)
    i1 = np.minimum(np.ceil((t0 + t_open) * rate_hz).astype(np.int64), n)
    counts = np.maximum(i1 - i0, 0)
    cycle = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    idx = i0[cycle] + np.arange(len(cycle)) - first[cycle]
    phase = (idx / rate_hz - t0[cycle]) / t_open[cycle]
    rise_frac = 2.0 / 3.0
    u = phase / rise_frac
    v = (phase - rise_frac) / (1.0 - rise_frac)
    pulse = np.where(phase < rise_frac, 3.0 * u**2 - 2.0 * u**3, 1.0 - v**2)
    x = np.zeros(n)
    x[idx] = cfg.amplitude * np.clip(pulse, 0.0, None)
    return x


def faded(x, n_fade):
    """x with a raised-cosine fade over its last n_fade samples, as synth
    faded the whole train before it was evaluated by range."""
    if n_fade <= 0 or n_fade > len(x):
        return x
    out = x.copy()
    out[-n_fade:] *= 0.5 * (1.0 + np.cos(np.pi * np.arange(n_fade) / n_fade))
    return out


def read_by_range(train, length):
    """The train's samples, read in consecutive ranges of length samples."""
    n = len(train)
    return np.concatenate([train.block(lo, min(lo + length, n)) for lo in range(0, n, length)])


# Ranges shorter than any cycle (8 samples at 1000 Hz and 8 kHz), a few
# cycles, many cycles, and the whole train.
@pytest.mark.parametrize("budget", [7, 500, 5000, 1 << 30],
                         ids=["one-cycle", "few-cycles", "many-cycles", "one-block"])
@pytest.mark.parametrize("f0_hz, jitter_pct", [(90.0, 1.0), (233.0, 5.0), (1000.0, 0.0)])
def test_pulse_blocks_match_unblocked(f0_hz, jitter_pct, budget):
    cfg = GlottalConfig(f0_hz=f0_hz, jitter_pct=jitter_pct)
    for duration_s, rate_hz, lead_in_s in ((1.0, 16000.0, 0.0), (0.2137, 8000.0, 0.05)):
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        train = synth_vocal_fold_displacement(cfg, duration_s, rate_hz, got_rng, lead_in_s)
        want = unblocked_pulse_train(cfg, duration_s, rate_hz, want_rng, lead_in_s)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert read_by_range(train, budget).tobytes() == want.tobytes()
        assert train.samples.tobytes() == want.tobytes()
        # a fade longer than a range, one as long as the train, and one longer
        for n_fade in (int(0.02 * rate_hz), len(want), len(want) + 1):
            got = read_by_range(replace(train, n_fade=n_fade), budget)
            assert got.tobytes() == faded(want, n_fade).tobytes()


def test_pulse_train_60s_at_16khz_matches_unblocked_in_bounded_memory():
    # 960000 samples, 7.7 MB whole: decimated to 2 kHz, the train is read a
    # filter block at a time, so the peak is the decimated output, 0.96 MB,
    # and its signal's copy, about 1.9 MB in all; the whole train and the
    # signal's copy of it held 15.4 MB
    cfg = GlottalConfig(f0_hz=100.0, jitter_pct=1.0)
    train = synth_vocal_fold_displacement(cfg, 60.0, 16000.0, np.random.default_rng(9))
    got = {}
    peak = peak_bytes(lambda: got.setdefault("x", resample_decimate(train, 2000.0)))
    assert peak < 3 * MB
    want = unblocked_pulse_train(cfg, 60.0, 16000.0, np.random.default_rng(9))
    want = resample_decimate(SampledSignal(want, 16000.0), 2000.0)
    assert got["x"].samples.tobytes() == want.samples.tobytes()


def test_pulse_temporaries_of_a_decimation_block_stay_under_512_kib():
    # the filter's blocks are 8192 samples plus 64 either side at 8 x 2 kHz;
    # an open quotient near 1 leaves almost every sample open
    cfg = GlottalConfig(f0_hz=100.0, open_quotient=0.99, jitter_pct=1.0)
    train = synth_vocal_fold_displacement(cfg, 3.5, 16000.0, np.random.default_rng(1))
    assert peak_bytes(lambda: train.block(20000, 28320)) < 512 * 1024


# --- decimation filter and the whole subject ------------------------------

@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("n", [20, 16 * 8 + 1, 1000, 4099])
def test_decimation_blocks_match_one_pass(monkeypatch, rng, n, k):
    # one pass: np.convolve's 'same' output, the full output from sample
    # 8k on; below 16k + 1 samples 'same' is 16k + 1 long, longer than the
    # signal, and the decimated signal keeps ceil(n / k) samples
    x = rng.standard_normal(n)
    h = design_lowpass(0.45 / k, 16 * k + 1)
    want = np.convolve(x, h)[8 * k:8 * k + n:k]
    if n >= len(h):
        assert want.tobytes() == np.convolve(x, h, mode="same")[::k].tobytes()
    for outputs in (1, 2, 3, 5, 8, 13, 40, 1 << 20):   # kept outputs per block
        monkeypatch.setattr(signals, "_DECIMATE_BLOCK_BYTES", 16 * k * outputs)
        got = resample_decimate(SampledSignal(x, 1000.0 * k), 1000.0).samples
        assert got.tobytes() == want.tobytes()


def test_decimating_a_long_subject_holds_one_small_block():
    # a 3.5 s subject's fold train, 56 000 samples at 16 kHz: its block's
    # copy and full-rate output, 0.26 MB above entry in blocks of 128 KiB,
    # where one block of 1 MiB held the whole train twice, 0.96 MB
    sig = SampledSignal(np.random.default_rng(1).standard_normal(56000), 16000.0)
    assert peak_bytes(lambda: resample_decimate(sig, 2000.0)) < 0.4 * MB


def test_subject_60s_holds_less_than_one_oversampled_train():
    # the fold train at 8 x 2 kHz is 960000 samples, 7.7 MB: it is read a
    # filter block at a time, never whole, and the subject peaks at about
    # 5.2 MB with its four 2 kHz traces; the whole train and its faded copy
    # held 16.0 MB
    glottal = GlottalConfig(f0_hz=100.0, jitter_pct=1.0)
    tract = random_vocal_tract(np.random.default_rng(3))
    peak = peak_bytes(lambda: make_subject(glottal, NeckChannel(), tract, 60.0, 2000.0,
                                           noise_snr_db=30.0, seed=3))
    assert peak < 960000 * 8


@pytest.mark.parametrize("jitter_pct, noise_snr_db", [(0.0, None), (1.0, 30.0)])
def test_subject_bytes_do_not_depend_on_the_decimation_blocks(monkeypatch, jitter_pct,
                                                               noise_snr_db):
    # 0.4 s after a 0.05 s lead-in at 8 x 1 kHz is 3600 samples, faded over
    # the last 160: blocks of 8 to 3200 samples split the lead-in, a cycle
    # and the fade, and one block holds the whole train. x is the unblocked
    # train, faded, through a one-pass filter; e, s and d follow from x.
    glottal = GlottalConfig(f0_hz=130.0, jitter_pct=jitter_pct)
    tract = random_vocal_tract(np.random.default_rng(3), 1000.0)
    train = unblocked_pulse_train(glottal, 0.4, 8000.0, np.random.default_rng(4), 0.05)
    h = design_lowpass(0.45 / 8, 16 * 8 + 1)
    want_x = np.convolve(faded(train, 160), h)[64:64 + len(train):8]
    subjects = []
    for outputs in (1, 3, 20, 50, 400, 1 << 20):   # kept outputs per block
        monkeypatch.setattr(signals, "_DECIMATE_BLOCK_BYTES", 16 * 8 * outputs)
        subject = make_subject(glottal, NeckChannel(tau_d_s=2e-3), tract, 0.4, 1000.0,
                               noise_snr_db=noise_snr_db, seed=4, lead_in_s=0.05)
        subjects.append([sig.samples.tobytes() for sig in (subject.x, subject.e, subject.s,
                                                           subject.d)])
    assert subjects[0][0] == want_x.tobytes()
    assert all(got == subjects[0] for got in subjects[1:])


# --- radar range spectrum -------------------------------------------------

@pytest.mark.parametrize("snr_db", [None, 20.0], ids=["noiseless", "noisy"])
def test_radar_blocks_give_the_same_trace_and_bin(monkeypatch, rng, snr_db):
    # 4100 chirps in blocks of 7, 356 (128 KiB) and all of them, of the 21
    # bins the chain forms at 0.25 m, 0 .. 20. The noise is drawn chirp by
    # chirp, so the trace does not depend on the blocks, and the per-bin
    # sums add chirp after chirp, each block's reduction starting from the
    # running sum, so neither does the bin decision.
    cfg = ChirpConfig()
    scene = TargetScene(displacement=SampledSignal(rng.uniform(-1e-4, 1e-4, 4100), 2000.0),
                        noise_snr_db=snr_db)
    width = len(radar._bins(cfg, scene.nominal_range_m)[2])
    assert width == 21
    runs = []
    for budget, chirps in ((16 * (width + 2) * 7, 7), (1 << 17, 356), (1 << 24, 4100)):
        monkeypatch.setattr(radar, "_BLOCK_BYTES", budget)
        assert min(radar._block_chirps(width), 4100) == chirps
        draws = np.random.default_rng(7)
        trace, record = measure_displacement(scene, cfg, draws)
        runs.append((trace.samples.tobytes(), record, draws.bit_generator.state))
    (want, want_record, want_state), *others = runs
    for got, record, state in others:
        assert got == want
        assert record == want_record
        assert state == want_state
