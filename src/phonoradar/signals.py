"""Sampled-signal container plus the framing / correlation / filtering primitives
shared by the synthesis, transform, radar and evaluation stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SampledSignal",
    "FramePlan",
    "frame_view",
    "constant_rows",
    "hann_window",
    "lagged_products",
    "median",
    "iir_filter",
    "design_lowpass",
    "resample_decimate",
    "differentiate",
    "integrate_spectral",
]


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real-valued time series.

    samples carry whatever unit the role implies (pressure-proportional for
    speech, meters for displacement); rate_hz is samples per second.
    """

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        if not (self.rate_hz > 0):
            raise ValueError("rate_hz must be positive")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo .. hi-1, a read-only view."""
        return self.samples[lo:hi]

    def with_samples(self, samples: np.ndarray) -> "SampledSignal":
        return SampledSignal(samples, self.rate_hz)

    def require_same_rate(self, other: "SampledSignal") -> None:
        if abs(self.rate_hz - other.rate_hz) > 1e-9 * max(self.rate_hz, other.rate_hz):
            raise ValueError(
                f"rate mismatch: {self.rate_hz} Hz vs {other.rate_hz} Hz"
            )


@dataclass(frozen=True)
class FramePlan:
    """Short-time analysis grid: window length N and hop."""

    window_len: int
    hop: int

    def __post_init__(self):
        if self.window_len <= 0:
            raise ValueError("window_len must be positive")
        if not (0 < self.hop <= self.window_len):
            raise ValueError("hop must satisfy 0 < hop <= window_len")

    @classmethod
    def for_rate(cls, rate_hz: float) -> "FramePlan":
        return cls(int(round(0.025 * rate_hz)), int(round(0.0125 * rate_hz)))

    def n_frames(self, signal_len: int) -> int:
        if signal_len < self.window_len:
            return 0
        return (signal_len - self.window_len) // self.hop + 1


def hann_window(n: int) -> np.ndarray:
    """Periodic hann window; sums to a constant when overlap-added at hop n/2."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def frame_view(x: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Read-only strided (frames, window_len) view of x without copying;
    row i covers samples [i*hop, i*hop + window_len); no rows when x is
    shorter than one window."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) < window_len:
        return np.empty((0, window_len))
    return sliding_window_view(x, window_len)[::hop]


def constant_rows(frames: np.ndarray) -> np.ndarray:
    """Mask of rows whose samples are all equal.

    Judged by max == min on the raw rows: removing the mean first can leave
    a constant row a rounding residue of a few ulps, which would then pass
    as a tiny varying signal.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    return frames.max(axis=1) == frames.min(axis=1)


def lagged_products(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """out[..., k] = sum_j a[..., j] * b[..., j + k] for k = 0..max_lag.

    Rows of a and b have equal length n and terms past the row end count as
    zero, so lag k sums n - k products. Works on one row or a stack of rows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[-1]
    out = np.empty(a.shape[:-1] + (max_lag + 1,))
    for k in range(max_lag + 1):
        out[..., k] = np.einsum("...j,...j->...", a[..., :n - k], b[..., k:])
    return out


def median(x) -> np.generic:
    """np.median of a non-empty 1-D array, the same bits, from one
    np.partition: the middle element, or the mean of the middle two, and
    the NaN a NaN-holding input sorts last. np.median imports numpy.ma on
    its first call, about 12 ms of a stage process's start-up."""
    x = np.asarray(x)
    half = len(x) // 2
    kth = [half] if len(x) % 2 else [half - 1, half]
    inexact = np.issubdtype(x.dtype, np.inexact)
    part = np.partition(x, kth + [-1] if inexact else kth)
    if inexact and np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[kth[0]:half + 1])


_IIR_BLOCK = 64


def iir_filter(b, a, x: np.ndarray) -> np.ndarray:
    """Zero-state IIR filter b(z)/a(z) of a real 1-D signal, a[0] == 1, the
    filter scipy.signal.lfilter(b, a, x) computes.

    The numerator runs as a convolution, v = b * x. The all-pole part
    1/a(z), of order p, runs over blocks of L samples in block state-space
    form: each block's output is y_blk = T v_blk + O y_past, T the L x L
    lower-triangular Toeplitz matrix of the impulse response of 1/a(z), O
    the L x p zero-input response to the block's past p outputs y_past. One
    matrix product forms every block's T v_blk; a loop over blocks adds
    O y_past in order. It rounds differently from lfilter's per-sample
    recursion; tests/test_iir.py bounds the difference. For len(a) == 1
    the output is the convolution, and for len(a) == len(b) == 1 it is
    x * b[0], which keeps the sign of a zero.
    """
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if a[0] != 1.0:
        raise ValueError("a[0] must be 1")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if len(a) == len(b) == 1:
        return x * b[0]
    if len(x) == 0:
        return x.copy()
    v = np.convolve(x, b)[:len(x)]
    p = len(a) - 1
    if p == 0:
        return v
    size = max(_IIR_BLOCK, p)
    # Columns: the impulse response, then the responses to y[-1] .. y[-p] = 1.
    resp = np.zeros((p + size, p + 1))
    resp[p, 0] = 1.0
    resp[np.arange(p - 1, -1, -1), np.arange(1, p + 1)] = 1.0
    for row in range(p, p + size):
        resp[row] -= a[:0:-1] @ resp[row - p:row]
    h, zero_input = resp[p:, 0], resp[p:, 1:]
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    blocks = -(-len(x) // size)
    y = np.zeros(blocks * size)
    y[:len(x)] = v
    y = y.reshape(blocks, size) @ toeplitz.T
    for k in range(1, blocks):
        y[k] += zero_input @ y[k - 1, :-p - 1:-1]
    return y.ravel()[:len(x)]


def design_lowpass(cutoff_frac: float, taps: int) -> np.ndarray:
    """Blackman-windowed sinc low-pass; cutoff as a fraction of the sample rate."""
    if taps % 2 == 0:
        taps += 1
    n = np.arange(taps) - (taps - 1) / 2
    h = 2.0 * cutoff_frac * np.sinc(2.0 * cutoff_frac * n)
    m = np.arange(taps)
    w = (0.42 - 0.5 * np.cos(2 * np.pi * m / (taps - 1))
         + 0.08 * np.cos(4 * np.pi * m / (taps - 1)))
    h = h * w
    return h / h.sum()


# Bytes per block of the decimation filter, 16 per input sample (the block's
# copy and its output): 128 KiB is 8192 samples, about 0.5 s at 16 kHz.
_DECIMATE_BLOCK_BYTES = 1 << 17


def resample_decimate(sig, target_rate_hz: float) -> SampledSignal:
    """Anti-alias low-pass (windowed sinc, cutoff 0.45 * target rate) then
    keep every k-th sample. The source rate must be an integer multiple of
    the target rate.

    sig is a SampledSignal, or any signal read by range, as synth's
    PulseTrain is: len(sig), sig.rate_hz, and sig.block(lo, hi), its samples
    lo .. hi-1. The filter reads it over blocks of about
    _DECIMATE_BLOCK_BYTES of input, so the input need never be held whole,
    and np.convolve copies a read-only input whole. Filtered sample i is
    output i + half of the full convolution of a block that holds samples
    i - half to i + half or ends where the signal does: the same dot
    product as in one pass, so the bytes do not depend on the blocks.
    """
    ratio = sig.rate_hz / target_rate_hz
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(
            f"rate {sig.rate_hz} is not an integer multiple of {target_rate_hz}"
        )
    if k == 1:
        return SampledSignal(sig.samples, target_rate_hz)
    h = design_lowpass(0.45 / k, 16 * k + 1)
    n, half = len(sig), 8 * k
    step = k * max(1, _DECIMATE_BLOCK_BYTES // (16 * k))   # a block's copy and its output
    y = np.empty((n + k - 1) // k)
    for start in range(0, n, step):
        stop = min(n, start + step)
        # a block of at least len(h) samples, or np.convolve swaps its operands
        lo = max(0, min(start - half, n - len(h)))
        hi = min(n, max(stop + half, lo + len(h)))
        full = np.convolve(sig.block(lo, hi), h)
        y[start // k:(stop + k - 1) // k] = full[start + half - lo:stop + half - lo:k]
    return SampledSignal(y, target_rate_hz)


def differentiate(x: np.ndarray, rate_hz: float) -> np.ndarray:
    """Zero-phase spectral time derivative (multiply the spectrum by j*2*pi*f).

    For an in-band sinusoid the amplitude is exactly 2*pi*f and the phase
    lead exactly 90 degrees, and integrate_spectral() inverts it exactly
    above the integrator's low-frequency edge. Assumes the signal is
    effectively periodic or decays near its ends; edge regions of strongly
    aperiodic inputs carry wrap-around ringing.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    f = np.fft.rfftfreq(n, 1.0 / rate_hz)
    return np.fft.irfft(np.fft.rfft(x) * (2j * np.pi * f), n)


def integrate_spectral(x: np.ndarray, rate_hz: float) -> np.ndarray:
    """Zero-phase antiderivative, the band-limited inverse of differentiate().

    The response is 1/(j*2*pi*f) above 25 Hz and ramps to zero at 15 Hz
    (drift and baseline control replacing an explicit leak), so content in
    the phonation band passes through the derivative/integral pair untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    f = np.fft.rfftfreq(n, 1.0 / rate_hz)
    g = np.zeros(len(f), dtype=np.complex128)
    nz = f > 0
    g[nz] = 1.0 / (2j * np.pi * f[nz])
    ramp = np.clip((f - 15.0) / (25.0 - 15.0), 0.0, 1.0)
    return np.fft.irfft(np.fft.rfft(x) * g * ramp, n)
