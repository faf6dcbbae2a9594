"""The inverse model transform: frame the speech, inverse filter each voiced
frame to the excitation estimate, integrate to the fold-displacement estimate,
align to the radar displacement by cross-correlation, and reconstruct the
model-filtered displacement estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lpc import fit_envelopes
from .signals import (FramePlan, SampledSignal, constant_rows, frame_view, hann_window,
                      iir_filter, integrate_spectral, lagged_products, median)
from .synth import F0_MAX_HZ, F0_MIN_HZ, VocalTractModel

__all__ = [
    "TransformConfig",
    "NoVoicedFramesError",
    "frame_voicing",
    "frame_delays",
    "integrate_excitation",
    "transform_speech",
]

SUBHARMONIC_RATIO = 0.85
RELATIVE_ENERGY_FLOOR = 1e-2   # frames 40 dB below the whole-signal RMS are silence
ENERGY_FLOOR_RMS = 1e-8        # absolute fallback of the energy floor
INTEGRATOR_POLE = 0.998        # leak of the 'leaky' integration


class NoVoicedFramesError(ValueError):
    """Nothing to transform: every analysis frame was unvoiced or silent."""


@dataclass(frozen=True)
class TransformConfig:
    """Knobs for the model transform, one per transform flag.

    Frames are 25 ms windows with 50% overlap at the signal rate.
    integration 'spectral' uses the zero-phase band-limited antiderivative
    (exact inverse of the synthesis derivative); 'leaky' uses the recursive
    leaky accumulator with INTEGRATOR_POLE.
    """

    lpc_order: int = 6
    pre_emphasis: float = 0.9
    voicing_threshold: float = 0.5
    max_lag_ms: float = 5.0
    tau_mode: str = "global"          # 'global' or 'per-frame'
    integration: str = "spectral"     # 'spectral' or 'leaky'

    def __post_init__(self):
        if self.lpc_order < 0:
            raise ValueError("lpc_order must be non-negative")
        if not math.isfinite(self.pre_emphasis):
            raise ValueError("pre_emphasis must be finite")
        if not 0.0 <= self.max_lag_ms < math.inf:
            raise ValueError("max_lag_ms must be finite and non-negative")
        # frame_voicing's score is a normalized correlation, at most 1 up to
        # rounding, so a larger threshold voices no frame; a perfectly
        # periodic frame scores 1 + eps, so a threshold of 1 still voices it.
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ValueError("voicing_threshold must be in [0, 1]")
        if self.tau_mode not in ("global", "per-frame"):
            raise ValueError("tau_mode must be 'global' or 'per-frame'")
        if self.integration not in ("spectral", "leaky"):
            raise ValueError("integration must be 'spectral' or 'leaky'")


def frame_voicing(frames: np.ndarray, rate_hz: float, threshold: float,
                  energy_floor_rms: float = ENERGY_FLOOR_RMS) -> tuple[np.ndarray, np.ndarray]:
    """Voicing decision and pitch of every row of a (frames, n) stack.

    A frame is voiced iff its RMS clears the energy floor and its normalized
    autocorrelation peak in the pitch-lag band exceeds the threshold. Lags
    span rate/1000 to rate/90 samples (pitch 90-1000 Hz). Correlations are
    normalized by the energies of the overlapping segments, so a perfectly
    periodic frame scores ~1 regardless of lag. Among lags within 85% of the
    best score the smallest is taken, which suppresses subharmonic
    (octave-down) picks; f0 = rate / lag. Returns (voiced mask, f0 in Hz
    with NaN for unvoiced rows).
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    rows, n = frames.shape
    lag_min = max(2, int(np.floor(rate_hz / F0_MAX_HZ)))
    lag_max = int(np.ceil(rate_hz / F0_MIN_HZ))
    if n < 2 * lag_max:
        raise ValueError(
            f"frame of {n} samples too short for voicing (need {2 * lag_max})"
        )
    squares = frames**2
    rms = np.sqrt(np.mean(squares, axis=1))
    head = np.cumsum(squares, axis=1)                    # energy of samples [0, j]
    tail = np.cumsum(squares[:, ::-1], axis=1)[:, ::-1]  # energy of samples [j, n)
    lags = np.arange(lag_min, lag_max + 1)
    denom = np.sqrt(head[:, n - 1 - lags] * tail[:, lags])
    scores = np.full((rows, lag_max + 1), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores[:, lags] = np.where(denom > 0,
                                   lagged_products(frames, frames, lag_max)[:, lags] / denom,
                                   -np.inf)
    best_lag = np.argmax(scores, axis=1)
    best = scores[np.arange(rows), best_lag]
    voiced = (rms > energy_floor_rms) & (best > threshold)
    # subharmonic guard: prefer an integer submultiple of the peak lag whose
    # score is nearly as high (an octave-down pick scores ~equal at 2x lag);
    # the largest divisor m that qualifies wins
    lag = best_lag.copy()
    pending = voiced.copy()
    for m in range(lag_max // lag_min, 1, -1):
        candidate = np.rint(best_lag / m).astype(int)
        lo = np.maximum(lag_min, candidate - 1)
        hi = np.minimum(lag_max, candidate + 1)
        near = lo[:, None] + np.arange(3)
        near_scores = np.where(near <= hi[:, None],
                               np.take_along_axis(scores, np.minimum(near, lag_max), axis=1),
                               -np.inf)
        take = (pending & (m <= best_lag // lag_min) & (candidate >= lag_min)
                & (near_scores.max(axis=1) >= SUBHARMONIC_RATIO * best))
        lag[take] = lo[take] + np.argmax(near_scores[take], axis=1)
        pending &= ~take
    f0 = np.full(rows, np.nan)
    f0[voiced] = rate_hz / lag[voiced]
    return voiced, f0


def _energy_floor(samples: np.ndarray) -> float:
    """40 dB below the whole-signal RMS, with an absolute fallback, so that
    leakage-level content in silent stretches never counts as voiced while
    the decision stays invariant under rescaling."""
    return max(ENERGY_FLOOR_RMS, RELATIVE_ENERGY_FLOOR * float(np.sqrt(np.mean(samples**2))))


def frame_delays(x_hat_frames: np.ndarray, d_frames: np.ndarray,
                 max_lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical (non-negative) delay of each radar frame behind the matching
    fold-displacement-estimate frame, by normalized cross-correlation.

    Rows are mean-removed before correlating; the search covers
    [0, max_lag] and ties go to the smallest lag. Returns (delay, peak
    correlation, defined mask); a constant row (signals.constant_rows) leaves
    the delay undefined.
    """
    a = np.atleast_2d(np.asarray(x_hat_frames, dtype=np.float64))
    b = np.atleast_2d(np.asarray(d_frames, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"frame stacks differ in shape: {a.shape} vs {b.shape}")
    if max_lag >= a.shape[1]:
        raise ValueError("max_lag must be smaller than the frame length")
    varying = ~(constant_rows(a) | constant_rows(b))
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    energy = np.sqrt(np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b))
    defined = varying & (energy != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lagged_products(a, b, max_lag) / energy[:, None]
    best = np.argmax(r, axis=1)   # argmax returns the first (smallest) max lag
    peak = np.clip(r[np.arange(len(r)), best], -1.0, 1.0)
    return best, peak, defined


def integrate_excitation(x: np.ndarray, rate_hz: float, pole: float) -> np.ndarray:
    """Leaky running sum y[n] = pole * y[n-1] + x[n] / rate_hz.

    Bounded for bounded input; drift/baseline handling (mean removal,
    high-pass) is the caller's concern.
    """
    if not (0.0 < pole < 1.0):
        raise ValueError("pole must be in (0, 1)")
    return iir_filter([1.0 / rate_hz], [1.0, -pole], x)


def transform_speech(s: SampledSignal, d: SampledSignal,
                     cfg: TransformConfig = TransformConfig(),
                     known_tract: VocalTractModel | None = None) -> tuple[dict, dict]:
    """Run the full speech-to-displacement model transform.

    Per voiced frame: the all-pole envelope of lpc.fit_envelopes (or
    known_tract, which bypasses the fit), inverse filtering with
    preceding-sample history so the residual has no warm-up error,
    overlap-add of the residual, one band-limited integration to the fold
    displacement estimate, per-frame delay estimation against the radar
    displacement, and assembly of the delayed, unit-RMS-normalized
    displacement estimate. The absolute flow scale is unobservable, so the
    output is normalized rather than scaled by 1/K; per-window spectrum
    normalization makes the evaluation scale-free anyway.

    Returns (traces, record). traces maps e_hat, x_hat and d_hat to the
    three estimates. record is transform.json's record without its config:
    global_tau_samples, n_frames, n_voiced and per_frame, one dict per
    analysis frame with keys index, voiced, f0_hz, tau_d_samples,
    correlation_peak and lpc_gain. An unvoiced frame has None in the last
    four, a voiced frame whose delay is undefined (frame_delays) in
    tau_d_samples and correlation_peak.
    """
    s.require_same_rate(d)
    if len(s) != len(d):
        raise ValueError(f"length mismatch: speech {len(s)} vs displacement {len(d)}")
    rate = s.rate_hz
    plan = FramePlan.for_rate(rate)
    n_win, hop = plan.window_len, plan.hop
    max_lag = int(round(cfg.max_lag_ms * 1e-3 * rate))
    if max_lag >= n_win:
        raise ValueError("max_lag_ms must stay below the frame length")
    # the fit needs four frame samples per predictor coefficient
    if cfg.lpc_order > n_win // 4:
        raise ValueError(f"lpc_order {cfg.lpc_order} too high for the {n_win}-sample "
                         f"frames at {rate:g} Hz: at most {n_win // 4}")
    n_frames = plan.n_frames(len(s))
    if n_frames == 0:
        raise ValueError("signal shorter than one analysis window")

    x = s.samples
    starts = hop * np.arange(n_frames)
    frames = frame_view(x, n_win, hop)
    voiced, f0 = frame_voicing(frames, rate, cfg.voicing_threshold,
                               _energy_floor(x))
    if known_tract is not None:
        orders = np.full(n_frames, len(known_tract.coefficients))
        taps = np.tile(np.concatenate(([1.0], known_tract.coefficients)), (n_frames, 1))
        gains = np.full(n_frames, known_tract.gain, dtype=float)
    else:
        history = np.concatenate(([0.0], x))[starts]   # x[start - 1], 0 at the head
        orders, taps, gains, silent = fit_envelopes(frames, history, voiced, f0, rate,
                                                    cfg.lpc_order, cfg.pre_emphasis)
        voiced &= ~silent

    if not voiced.any():
        raise NoVoicedFramesError(
            f"nothing to transform: all {n_frames} frames unvoiced or silent")

    # residual of each voiced frame, filtered with its preceding samples as
    # history; samples with no history at the signal head are zeroed
    rows = np.flatnonzero(voiced)
    width = taps.shape[1] - 1
    padded = frame_view(np.concatenate((np.zeros(width), x)), n_win + width, hop)[rows]
    residual = np.zeros((len(rows), n_win))
    for j in range(width + 1):
        residual += taps[rows, j:j + 1] * padded[:, width - j:width - j + n_win]
    position = starts[rows, None] + np.arange(n_win)   # signal index of each residual sample
    residual[position < orders[rows, None]] = 0.0
    at, window = position.ravel(), hann_window(n_win)
    weight = np.bincount(at, weights=np.tile(window, len(rows)), minlength=len(s))
    active = weight > 1e-8

    def overlap_add(pieces: np.ndarray) -> np.ndarray:
        """The voiced frames' windowed pieces summed at their samples, rows
        adding in order, over the window weight; 0 where no frame reaches."""
        total = np.bincount(at, weights=(pieces * window).ravel(), minlength=len(s))
        return np.divide(total, weight, out=np.zeros(len(s)), where=active)

    e_hat = overlap_add(residual)
    # Both integrators return a fresh array. A voiced frame leaves active
    # samples: the periodic Hann window is positive past its first tap.
    if cfg.integration == "spectral":
        x_hat = integrate_spectral(e_hat, rate)
    else:
        x_hat = integrate_excitation(e_hat, rate, INTEGRATOR_POLE)
        x_hat = x_hat - x_hat[active].mean()
    x_hat[~active] = 0.0

    tau, peak, defined = frame_delays(frame_view(x_hat, n_win, hop)[rows],
                                      frame_view(d.samples, n_win, hop)[rows], max_lag)
    observed = tau[defined]
    global_tau = int(round(float(median(observed)))) if observed.size else 0

    d_hat = np.zeros(len(s))
    if cfg.tau_mode == "global":
        if global_tau < len(s):
            d_hat[global_tau:] = x_hat[:len(s) - global_tau]
    else:
        shift = np.where(defined, tau, global_tau)
        src = position - shift[:, None]
        d_hat = overlap_add(np.where(src >= 0, x_hat[np.maximum(src, 0)], 0.0))

    rms = float(np.sqrt(np.mean(d_hat**2)))
    if rms > 0:
        d_hat = d_hat / rms

    per_frame = [{"index": i, "voiced": False, "f0_hz": None, "tau_d_samples": None,
                  "correlation_peak": None, "lpc_gain": None} for i in range(n_frames)]
    for i, f, g, t, p, ok in zip(rows.tolist(), f0[rows].tolist(), gains[rows].tolist(),
                                 tau.tolist(), peak.tolist(), defined.tolist()):
        per_frame[i].update(voiced=True, f0_hz=f, lpc_gain=g, tau_d_samples=t if ok else None,
                            correlation_peak=p if ok else None)
    return ({"e_hat": SampledSignal(e_hat, rate), "x_hat": SampledSignal(x_hat, rate),
             "d_hat": SampledSignal(d_hat, rate)},
            {"global_tau_samples": global_tau, "n_frames": n_frames,
             "n_voiced": len(rows), "per_frame": per_frame})
