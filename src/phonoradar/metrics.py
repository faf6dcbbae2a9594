"""Spectral comparison machinery: normalized power spectra on short windows,
log-spectral distance, per-window distances, and loess smoothing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import FramePlan, SampledSignal, constant_rows, frame_view, hann_window

__all__ = [
    "SPECTRAL_FLOOR",
    "LOESS_MIN_POINTS",
    "SilentFrameError",
    "PowerSpectrum",
    "normalized_power_spectra",
    "log_spectral_distances",
    "log_spectral_distance",
    "lsd_over_windows",
    "loess_smooth",
]

SPECTRAL_FLOOR = 1e-8   # fraction of total power, applied before the log ratio
SILENCE_RMS = 1e-12
LOESS_MIN_POINTS = 5
# Bytes in each of a loess block's (points, n) temporaries: 1 MiB fits
# series of up to 362 points, the benchmark cohorts' lengths, in one block.
_LOESS_BLOCK_BYTES = 1 << 20


class SilentFrameError(ValueError):
    """Frame energy too low for a meaningful spectrum."""


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectrum normalized to unit total power, floored so the
    log ratio of any two spectra stays bounded."""

    bins: np.ndarray
    bin_hz: float

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64).copy()
        b.setflags(write=False)
        object.__setattr__(self, "bins", b)

    @classmethod
    def from_bins(cls, raw: np.ndarray, bin_hz: float) -> "PowerSpectrum":
        bins, powerless = _normalize_power(np.asarray(raw, dtype=np.float64)[None, :])
        if powerless[0]:
            raise SilentFrameError("spectrum has no power")
        return cls(bins=bins[0], bin_hz=bin_hz)

    def __len__(self) -> int:
        return len(self.bins)


def _fft_length(window_len: int) -> int:
    n = 1
    while n < window_len:
        n *= 2
    return n


def _normalize_power(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit total power and floored; also the mask of rows
    without power (their bins are meaningless)."""
    total = raw.sum(axis=1)
    powerless = ~(total > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.maximum(raw / total[:, None], SPECTRAL_FLOOR)
    return b / b.sum(axis=1, keepdims=True), powerless


def normalized_power_spectra(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed periodogram of every mean-removed row of a (frames, n)
    stack, zero-padded to the next power of two, normalized to unit total
    power and floored.

    The frame mean is removed first so a baseline offset cannot dominate the
    DC bin; the signals under comparison are AC quantities. A constant row
    (signals.constant_rows) is silent. Returns (bins, silent mask); silent
    rows carry no usable bins.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = frames.shape[1]
    nfft = _fft_length(n)
    work = (frames - frames.mean(axis=1, keepdims=True)) * hann_window(n)
    bins, powerless = _normalize_power(np.abs(np.fft.rfft(work, nfft, axis=1)) ** 2)
    silent = ((np.sqrt(np.mean(frames**2, axis=1)) < SILENCE_RMS) | powerless
              | constant_rows(frames))
    return bins, silent


def log_spectral_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """RMS difference in dB between matching rows of two stacks of
    normalized power spectra."""
    ratio_db = 10.0 * np.log10(p / q)
    return np.sqrt(np.mean(ratio_db**2, axis=-1))


def log_spectral_distance(p: PowerSpectrum, q: PowerSpectrum) -> float:
    """RMS difference in dB between two normalized power spectra."""
    if len(p) != len(q):
        raise ValueError(f"bin count mismatch: {len(p)} vs {len(q)}")
    return float(log_spectral_distances(p.bins, q.bins))


def lsd_over_windows(reference: SampledSignal, candidates: dict[str, SampledSignal],
                     plan: FramePlan, voiced_mask=None) -> tuple:
    """Log-spectral distance per voiced window of each candidate signal
    against the reference, over one window set: the windows flagged voiced
    and silent in no signal.

    Returns (windows, times_s, lsd): the kept window indices, their start
    times, and each candidate's distances on them, keyed as the candidates
    are.

    Frames are sliced untapered; the spectral estimator applies its own hann
    taper. The reference is framed and its spectra computed once; one
    candidate's spectra are held at a time.
    """
    fr = frame_view(reference.samples, plan.window_len, plan.hop)
    n = len(fr)
    if n == 0:
        raise ValueError(f"signal of {len(reference)} samples is shorter than one window "
                         f"({plan.window_len})")
    if voiced_mask is None:
        voiced_mask = np.ones(n, dtype=bool)
    voiced_mask = np.asarray(voiced_mask, dtype=bool)
    if len(voiced_mask) != n:
        raise ValueError(f"voiced mask has {len(voiced_mask)} entries for {n} windows")
    rows = np.flatnonzero(voiced_mask)
    p_ref, silent = normalized_power_spectra(fr[rows])
    distances = {}
    for name, signal in candidates.items():
        reference.require_same_rate(signal)
        if len(signal) != len(reference):
            raise ValueError("signals must have equal length")
        p, silent_here = normalized_power_spectra(
            frame_view(signal.samples, plan.window_len, plan.hop)[rows])
        silent |= silent_here
        distances[name] = log_spectral_distances(p, p_ref)   # silent rows dropped below
        del p   # before the next candidate's spectra are computed
    keep = ~silent
    if not keep.any():
        raise ValueError("no voiced windows to compare")
    rows = rows[keep]
    return (rows, rows * plan.hop / reference.rate_hz,
            {name: lsd[keep] for name, lsd in distances.items()})


def _tricube(u: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - np.abs(u) ** 3, 0.0, None)
    return w**3


def _window_starts(x: np.ndarray, k: int, points: np.ndarray) -> np.ndarray:
    """First index of each point's k nearest neighbours in sorted x, a tie
    going to the lower index: the count of lefts in [0, n - k) whose right
    neighbour x[left + k] is strictly nearer the point than x[left]. Both
    sides of that comparison are monotone in left, so the lefts that pass
    form a prefix."""
    left = np.arange(len(x) - k)
    return np.count_nonzero(x[left + k] - points[:, None] < points[:, None] - x[left],
                            axis=1)


def _local_linear_fit(x: np.ndarray, y: np.ndarray, k: int, rows: slice) -> np.ndarray:
    """The tricube-weighted linear fit at x[rows] from each point's k
    nearest neighbours; every temporary has one row per point."""
    at = x[rows]
    idx = _window_starts(x, k, at)[:, None] + np.arange(k)
    xw, yw = x[idx], y[idx]
    dist = np.abs(xw - at[:, None])
    h = dist.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = _tricube(dist / h)
        sw = w.sum(axis=1)
        mx = (w * xw).sum(axis=1) / sw
        my = (w * yw).sum(axis=1) / sw
        sxx = (w * (xw - mx[:, None]) ** 2).sum(axis=1)
        slope = (w * (xw - mx[:, None]) * (yw - my[:, None])).sum(axis=1) / sxx
    fit = np.where(sxx > 0, my + slope * (at - mx), my)
    return np.where(h[:, 0] > 0, fit, yw.mean(axis=1))


def loess_smooth(times_s: np.ndarray, values: np.ndarray, span: float) -> np.ndarray:
    """Locally weighted linear regression with tricube weights (Cleveland 1979):
    the smoothed values at times_s.

    Each point is refit from its nearest span-fraction neighbors; a distance
    tie goes to the lower index. Times must be sorted, so each neighborhood
    is a contiguous window. Constant and exactly linear series are
    reproduced unchanged.

    The points are fitted in blocks, each temporary about
    _LOESS_BLOCK_BYTES, so working memory grows with n, not n squared.
    Each point's fit is the same row-wise arithmetic in any block, so the
    output does not depend on the block size.
    """
    if not (0.0 < span <= 1.0):
        raise ValueError("span must be in (0, 1]")
    x = np.asarray(times_s, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < LOESS_MIN_POINTS:
        raise ValueError(f"need at least {LOESS_MIN_POINTS} points to smooth")
    if np.any(np.diff(x) < 0):
        raise ValueError("times must be sorted")
    k = max(2, int(np.ceil(span * n)))
    out = np.empty(n)
    step = max(1, _LOESS_BLOCK_BYTES // (8 * n))   # points per block
    for start in range(0, n, step):
        rows = slice(start, start + step)
        out[rows] = _local_linear_fit(x, y, k, rows)
    return out
