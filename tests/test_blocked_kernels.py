"""Loess, the glottal pulse train and the decimation filter work in blocks of
fixed size; each must give the bytes of the one-pass version it replaced,
kept here as the reference, at every block size, in working memory that
grows with the input's length, not its square or a dozen copies of it. The
radar's range spectrum works in blocks of chirps too: its trace is the same
bytes at every block size, but its per-bin mean magnitudes are summed block
by block, so the bin decision's floats agree only to rounding."""

import tracemalloc

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


@pytest.mark.parametrize("budget", [1, 96 * 500, 96 * 5000, 1 << 30],
                         ids=["one-cycle", "few-cycles", "many-cycles", "one-block"])
@pytest.mark.parametrize("f0_hz, jitter_pct", [(90.0, 1.0), (233.0, 5.0), (1000.0, 0.0)])
def test_pulse_blocks_match_unblocked(monkeypatch, f0_hz, jitter_pct, budget):
    monkeypatch.setattr(synth, "_PULSE_BLOCK_BYTES", budget)
    cfg = GlottalConfig(f0_hz=f0_hz, jitter_pct=jitter_pct)
    for duration_s, rate_hz, lead_in_s in ((1.0, 16000.0, 0.0), (0.2137, 8000.0, 0.05)):
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = synth_vocal_fold_displacement(cfg, duration_s, rate_hz, got_rng, lead_in_s)
        want = unblocked_pulse_train(cfg, duration_s, rate_hz, want_rng, lead_in_s)
        assert got.samples.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_pulse_train_60s_at_16khz_matches_unblocked_in_bounded_memory():
    # 960000 samples, 7.7 MB: the output and the signal's copy of it, plus
    # one block of open-phase temporaries, about 17 MB; the unblocked train
    # holds about ten arrays over its open-phase samples, about 44 MB
    cfg = GlottalConfig(f0_hz=100.0, jitter_pct=1.0)
    got = {}
    peak = peak_bytes(lambda: got.setdefault("x", synth_vocal_fold_displacement(
        cfg, 60.0, 16000.0, np.random.default_rng(9))))
    assert peak < 2 * 960000 * 8 + 4 * MB
    want = unblocked_pulse_train(cfg, 60.0, 16000.0, np.random.default_rng(9))
    assert got["x"].samples.tobytes() == want.tobytes()


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


def test_subject_60s_holds_at_most_two_oversampled_trains():
    # the fold train at 8 x 2 kHz is 960000 samples, 7.7 MB: the train and
    # its faded copy, then the faded signal and one filter block; a third
    # full copy (np.convolve's of a read-only input, or one more fade copy)
    # takes the peak past 23 MB
    glottal = GlottalConfig(f0_hz=100.0, jitter_pct=1.0)
    tract = random_vocal_tract(np.random.default_rng(3))
    peak = peak_bytes(lambda: make_subject(glottal, NeckChannel(), tract, 60.0, 2000.0,
                                           noise_snr_db=30.0, seed=3))
    assert peak < 2 * 960000 * 8 + 4 * MB


# --- radar range spectrum -------------------------------------------------

@pytest.mark.parametrize("snr_db", [None, 20.0], ids=["noiseless", "noisy"])
def test_radar_blocks_give_the_same_trace_and_bin(monkeypatch, rng, snr_db):
    # 4100 chirps in blocks of 7, 63 (128 KiB) and all of them. The noise is
    # drawn chirp by chirp, so the trace does not depend on the blocks; the
    # per-bin sums do in their last bits: cohort66 seed 42's subject_000
    # records noise_floor 3.3887979068152695e-06 at the default 512 KiB and
    # 3.3887979068152687e-06 at 128 KiB.
    cfg = ChirpConfig()
    scene = TargetScene(displacement=SampledSignal(rng.uniform(-1e-4, 1e-4, 4100), 2000.0),
                        noise_snr_db=snr_db)
    runs = []
    for budget, chirps in ((16 * 130 * 7, 7), (1 << 17, 63), (1 << 24, 4100)):
        monkeypatch.setattr(radar, "_BLOCK_BYTES", budget)
        assert min(radar._block_chirps(cfg.adc_samples_per_chirp), 4100) == chirps
        draws = np.random.default_rng(7)
        trace, record = measure_displacement(scene, cfg, draws)
        runs.append((trace.samples.tobytes(), record, draws.bit_generator.state))
    (want, want_record, want_state), *others = runs
    for got, record, state in others:
        assert got == want
        assert record["selected_bin"] == want_record["selected_bin"]
        for key in ("bin_magnitude", "noise_floor"):
            assert record[key] == pytest.approx(want_record[key], rel=1e-12, abs=0)
        assert state == want_state
