"""Equivalence of the frame-batched kernels with per-frame reference
implementations kept here (the loops the batched code replaced)."""

import numpy as np
import pytest

from phonoradar.lpc import LevinsonError, clamp_pole_stack, levinson_stack
from phonoradar.metrics import (SILENCE_RMS, SPECTRAL_FLOOR, _window_starts, loess_smooth,
                                lsd_over_windows, normalized_power_spectra)
from phonoradar.signals import FramePlan, SampledSignal, hann_window
from phonoradar.transform import frame_delays, frame_voicing

RATE = 2000.0


# --- per-frame references -------------------------------------------------

def ref_detect_voicing(frame, rate_hz, threshold, energy_floor_rms=1e-8):
    n = len(frame)
    lag_min = max(2, int(np.floor(rate_hz / 1000.0)))
    lag_max = int(np.ceil(rate_hz / 90.0))
    rms = float(np.sqrt(np.mean(frame**2)))
    if rms <= energy_floor_rms:
        return False, None
    scores = np.full(lag_max + 1, -np.inf)
    for k in range(lag_min, lag_max + 1):
        head, tail = frame[:n - k], frame[k:]
        denom = np.sqrt(float(head @ head) * float(tail @ tail))
        if denom > 0:
            scores[k] = float(head @ tail) / denom
    best_lag = int(np.argmax(scores))
    best = scores[best_lag]
    if not (best > threshold):
        return False, None
    for m in range(best_lag // lag_min, 1, -1):
        candidate = int(round(best_lag / m))
        if candidate < lag_min:
            continue
        lo, hi = max(lag_min, candidate - 1), min(lag_max, candidate + 1)
        if scores[lo:hi + 1].max() >= 0.85 * best:
            best_lag = lo + int(np.argmax(scores[lo:hi + 1]))
            break
    return True, rate_hz / best_lag


def ref_levinson(r, order):
    if r[0] <= 0:
        raise LevinsonError("r[0] must be positive")
    a = np.zeros(order)
    err = float(r[0])
    for i in range(1, order + 1):
        acc = r[i] + a[:i - 1] @ r[i - 1:0:-1]
        ki = -acc / err
        if not np.isfinite(ki) or abs(ki) >= 1.0:
            raise LevinsonError(f"stage {i}")
        new = a.copy()
        new[i - 1] = ki
        new[:i - 1] = a[:i - 1] + ki * a[i - 2::-1][:i - 1]
        a = new
        err *= (1.0 - ki * ki)
        if err <= 0:
            raise LevinsonError(f"stage {i}")
    return a, err


def ref_clamp(error_filter, max_radius):
    roots = np.roots(error_filter)
    mags = np.abs(roots)
    if np.all(mags <= max_radius):
        return error_filter
    roots = np.where(mags > max_radius, roots * (max_radius / mags), roots)
    return np.poly(roots).real


def ref_spectrum(frame):
    if np.sqrt(np.mean(frame**2)) < SILENCE_RMS:
        return None
    work = (frame - frame.mean()) * hann_window(len(frame))
    power = np.abs(np.fft.rfft(work, 64)) ** 2
    b = np.maximum(power / power.sum(), SPECTRAL_FLOOR)
    return b / b.sum()


def ref_lsd_over_windows(reference, candidates, plan, mask):
    """Per-candidate LSD values and the shared window indices: the voiced
    windows silent in no signal."""
    values, indices = {name: [] for name in candidates}, []
    for i in range(plan.n_frames(len(reference))):
        if not mask[i]:
            continue
        start = i * plan.hop
        spectra = {name: ref_spectrum(x[start:start + plan.window_len])
                   for name, x in [("", reference), *candidates.items()]}
        if any(p is None for p in spectra.values()):
            continue
        for name in candidates:
            ratio = spectra[name] / spectra[""]
            values[name].append(float(np.sqrt(np.mean((10.0 * np.log10(ratio)) ** 2))))
        indices.append(i)
    return {name: np.array(v) for name, v in values.items()}, np.array(indices)


def ref_loess(x, y, span):
    n = len(x)
    k = max(2, int(np.ceil(span * n)))
    out = np.empty(n)
    for i in range(n):
        dist = np.abs(x - x[i])
        idx = np.argsort(dist, kind="stable")[:k]
        h = dist[idx].max()
        w = np.clip(1.0 - np.abs(dist[idx] / h) ** 3, 0.0, None) ** 3
        xw, yw = x[idx], y[idx]
        mx = (w * xw).sum() / w.sum()
        my = (w * yw).sum() / w.sum()
        sxx = (w * (xw - mx) ** 2).sum()
        out[i] = my if sxx <= 0 else my + (w * (xw - mx) * (yw - my)).sum() / sxx * (x[i] - mx)
    return out


def ref_delay(a, b, max_lag):
    a = a - a.mean()
    b = b - b.mean()
    energy = np.sqrt(float(a @ a) * float(b @ b))
    if energy == 0.0:
        return None
    r = np.array([a[:len(a) - k] @ b[k:] for k in range(max_lag + 1)]) / energy
    return int(np.argmax(r))


# --- voicing --------------------------------------------------------------

def _tone(f0, n=50, harmonics=(1.0,), phase=0.0):
    t = np.arange(n) / RATE
    return sum(a * np.sin(2 * np.pi * f0 * (h + 1) * t + phase * h)
               for h, a in enumerate(harmonics))


def _assert_voicing_matches(frames, threshold=0.5, floor=1e-8):
    voiced, f0 = frame_voicing(frames, RATE, threshold, floor)
    for row, flag, pitch in zip(frames, voiced, f0):
        want_flag, want_f0 = ref_detect_voicing(row, RATE, threshold, floor)
        assert flag == want_flag
        if want_flag:
            assert pitch == want_f0
        else:
            assert np.isnan(pitch)


def test_voicing_random_frames(rng):
    frames = rng.standard_normal((400, 50))
    smooth = np.cumsum(rng.standard_normal((400, 50)), axis=1)
    _assert_voicing_matches(np.vstack([frames, smooth]))


def test_voicing_silent_frames(rng):
    frames = np.vstack([np.zeros((3, 50)), 1e-10 * rng.standard_normal((3, 50)),
                        np.concatenate([np.zeros((2, 30)), _tone(150.0)[None, :20]
                                        .repeat(2, axis=0)], axis=1)])
    _assert_voicing_matches(frames, floor=1e-6)
    assert not frame_voicing(frames[:6], RATE, 0.5, 1e-6)[0].any()


def test_voicing_octave_ambiguous_frames(rng):
    # a weak subharmonic makes the doubled lag score close to the true one
    frames = np.array([_tone(f0, harmonics=(1.0, depth), phase=p)[None, :][0]
                       for f0 in np.linspace(90.0, 300.0, 25)
                       for depth in (0.0, 0.2, 0.6)
                       for p in (0.0, 1.0)])
    halves = np.array([_tone(f0 / 2, harmonics=(sub, 1.0)) for f0 in np.linspace(200.0, 600.0, 25)
                       for sub in (0.05, 0.3, 0.8)])
    frames = np.vstack([frames, halves]) + 0.01 * rng.standard_normal((len(frames) + len(halves), 50))
    _assert_voicing_matches(frames)


def test_voicing_short_period_frames(rng):
    frames = np.array([_tone(f0, harmonics=(1.0, 0.4)) for f0 in np.linspace(500.0, 1000.0, 60)])
    frames += 0.05 * rng.standard_normal(frames.shape)
    _assert_voicing_matches(frames)
    voiced, f0 = frame_voicing(frames, RATE, 0.5)
    assert voiced.mean() > 0.5 and np.nanmax(f0) == RATE / 2


def test_voicing_empty_stack_and_short_frames():
    voiced, f0 = frame_voicing(np.zeros((0, 50)), RATE, 0.5)
    assert voiced.shape == (0,) and f0.shape == (0,)
    with pytest.raises(ValueError):
        frame_voicing(np.ones((2, 20)), RATE, 0.5)


# --- Levinson-Durbin ------------------------------------------------------

def test_levinson_stack_matches_per_row(rng):
    for order in (3, 4, 5, 6, 10):
        x = rng.standard_normal((40, 80))
        r = np.array([[row[:80 - k] @ row[k:] for k in range(order + 1)] for row in x])
        a, _, err = levinson_stack(r, order)
        for row, a_row, e in zip(r, a, err):
            want_a, want_err = ref_levinson(row, order)
            assert np.allclose(a_row, want_a, rtol=1e-12, atol=1e-14)
            assert e == pytest.approx(want_err, rel=1e-12)


def test_levinson_stack_raises_when_a_row_would(rng):
    x = rng.standard_normal((5, 60))
    r = np.array([[row[:60 - k] @ row[k:] for k in range(4)] for row in x])
    r[3] = [1.0, -1.0, 1.0, -1.0]   # a Nyquist cosine: |k_1| = 1
    with pytest.raises(LevinsonError, match="stage 1"):
        ref_levinson(r[3], 3)
    with pytest.raises(LevinsonError, match="stage 1"):
        levinson_stack(r, 3)
    r[3, 0] = 0.0
    with pytest.raises(LevinsonError, match="r\\[0\\]"):
        levinson_stack(r, 3)
    a, _, _ = levinson_stack(np.delete(r, 3, axis=0), 3)
    assert a.shape == (4, 3)


# --- pole clamp -----------------------------------------------------------

def _filters_from_poles(rng, rows, pairs, radius_range):
    out = []
    for _ in range(rows):
        radii = rng.uniform(*radius_range, pairs)
        angles = rng.uniform(0.1, 3.0, pairs)
        poles = radii * np.exp(1j * angles)
        out.append(np.poly(np.concatenate([poles, poles.conj()])).real)
    return np.array(out)


@pytest.mark.parametrize("pairs", [2, 3])
def test_clamp_stack_matches_roots_and_poly(rng, pairs):
    under = _filters_from_poles(rng, 30, pairs, (0.3, 0.85))
    over = _filters_from_poles(rng, 30, pairs, (0.5, 0.99))
    filters = np.vstack([under, over])
    clamped, fired = clamp_pole_stack(filters, 0.9)
    assert not fired[:30].any() and fired[30:].any()
    for row, got, flag in zip(filters, clamped, fired):
        want = ref_clamp(row, 0.9)
        if flag:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
            assert np.all(np.abs(np.roots(got)) <= 0.9 + 1e-9)
        else:
            assert np.array_equal(got, row)


def test_clamp_stack_odd_order_real_pole(rng):
    filters = np.array([np.poly([0.95, 0.5 * np.exp(1j), 0.5 * np.exp(-1j)]).real,
                        np.poly([0.2, 0.3, -0.4]).real])
    clamped, fired = clamp_pole_stack(filters, 0.9)
    assert fired.tolist() == [True, False]
    assert np.allclose(clamped[0], ref_clamp(filters[0], 0.9), atol=1e-13)


# --- spectra and LSD ------------------------------------------------------

def test_lsd_over_windows_matches_per_window(rng):
    t = np.arange(2000) / RATE
    a = np.sin(2 * np.pi * 170 * t) + 0.2 * rng.standard_normal(2000)
    b = np.sin(2 * np.pi * 170 * t + 0.3) + 0.5 * rng.standard_normal(2000)
    c = np.sin(2 * np.pi * 340 * t) + 0.3 * rng.standard_normal(2000)
    b[400:700] = 0.0   # silent stretch in the reference only
    c[1200:1400] = 0.0   # and in one candidate only
    plan = FramePlan.for_rate(RATE)
    mask = rng.random(plan.n_frames(2000)) < 0.8
    windows, times_s, lsd = lsd_over_windows(
        SampledSignal(b, RATE), {"a": SampledSignal(a, RATE), "c": SampledSignal(c, RATE)},
        plan, mask)
    values, indices = ref_lsd_over_windows(b, {"a": a, "c": c}, plan, mask)
    assert list(lsd) == ["a", "c"]
    assert np.array_equal(windows, indices)
    assert np.array_equal(times_s, indices * plan.hop / RATE)
    for name, ser in lsd.items():
        assert np.allclose(ser, values[name], rtol=1e-12, atol=1e-12)


def constant_row():
    # 50 copies of 0.1 average to a value that is not 0.1, so mean removal
    # leaves the row a rounding residue instead of zeros
    row = np.full((1, 50), 0.1)
    assert np.any(row - row.mean(axis=1, keepdims=True) != 0.0)
    return row


def test_constant_row_is_silent_in_spectra():
    _, silent = normalized_power_spectra(constant_row())
    assert silent.tolist() == [True]


# --- loess ----------------------------------------------------------------

@pytest.mark.parametrize("span", [0.1, 0.3, 0.55, 1.0])
def test_loess_matches_brute_force_with_ties(rng, span):
    # evenly spaced windows with gaps: many points have equidistant neighbours
    idx = np.flatnonzero(rng.random(160) < 0.7)
    x = idx * 0.0125
    y = rng.standard_normal(len(idx))
    out = loess_smooth(x, y, span)
    assert np.allclose(out, ref_loess(x, y, span), rtol=1e-10, atol=1e-10)


def test_loess_integer_grid_exact_ties(rng):
    idx = np.array([0, 1, 2, 4, 6, 7, 8, 10, 12, 13, 16, 18, 19, 20])
    y = rng.standard_normal(len(idx))
    out = loess_smooth(idx.astype(float), y, 0.3)
    assert np.allclose(out, ref_loess(idx.astype(float), y, 0.3), atol=1e-12)


def loop_window_starts(x, k):
    """The two-pointer search loess_smooth ran before: the window [lo, lo + k)
    slides right while the point past its right end is strictly nearer than
    its left end, and never slides back."""
    n = len(x)
    lo = np.empty(n, dtype=int)
    left = 0
    for i in range(n):
        while left + k < n and x[left + k] - x[i] < x[i] - x[left]:
            left += 1
        lo[i] = left
    return lo


@pytest.mark.parametrize("times", ["equally-spaced", "random-sorted", "repeated"])
@pytest.mark.parametrize("span", [0.1, 0.3, 0.55, 1.0])
def test_loess_window_starts_match_the_loop(rng, times, span):
    n = 203
    x = {"equally-spaced": np.arange(n) * 0.0125,
         "random-sorted": np.sort(rng.uniform(0.0, 3.0, n)),
         "repeated": np.repeat(np.sort(rng.uniform(0.0, 3.0, 41)), 5)[:n]}[times]
    k = max(2, int(np.ceil(span * n)))
    assert np.array_equal(_window_starts(x, k, x), loop_window_starts(x, k))


def test_loess_rejects_unsorted_times():
    with pytest.raises(ValueError):
        loess_smooth(np.array([0, 2, 1, 3, 4, 5.0]), np.ones(6), 0.3)


# --- delay search ---------------------------------------------------------

def test_frame_delays_match_per_frame(rng):
    x = rng.standard_normal((80, 50))
    d = np.roll(x, 3, axis=1) + 0.3 * rng.standard_normal((80, 50))
    d[5] = 2.0   # constant: delay undefined
    tau, _, defined = frame_delays(x, d, 10)
    for row in range(80):
        want = ref_delay(x[row], d[row], 10)
        assert defined[row] == (want is not None)
        if want is not None:
            assert tau[row] == want


def test_constant_row_delay_undefined(rng):
    varying = rng.standard_normal((1, 50))
    for a, b in ((varying, constant_row()), (constant_row(), varying)):
        assert frame_delays(a, b, 10)[2].tolist() == [False]
