"""Frame-based linear prediction of the all-pole vocal tract model:
autocorrelation method, Levinson-Durbin recursion and pole-radius clamp,
batched over a stack of frames."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signals import hann_window, lagged_products

__all__ = [
    "LpcModel",
    "LevinsonError",
    "autocorrelation",
    "levinson_stack",
    "levinson_durbin",
    "lag_window",
    "clamp_pole_stack",
    "LpcFrames",
    "lpc_analyze_frames",
]

SILENT_FLOOR = 1e-12  # r0 below SILENT_FLOOR * frame length flags silence


class LevinsonError(ValueError):
    """Raised when the normal equations are numerically singular."""


@dataclass(frozen=True)
class LpcModel:
    """All-pole model of one frame: prediction-error filter A(z) = 1 + sum a_i z^-i.

    The residual is e[n] = x[n] + sum a_i x[n-i]; synthesis runs gain/A(z).
    """

    order: int
    coefficients: np.ndarray
    gain: float
    reflection: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=np.float64).copy()
        k = np.asarray(self.reflection, dtype=np.float64).copy()
        a.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "reflection", k)
        if len(a) != self.order:
            raise ValueError("coefficient count must equal order")


def autocorrelation(frame: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r_k = sum x[n] x[n+k] for k = 0..max_lag,
    of one frame or of each row of a (frames, n) stack."""
    frame = np.asarray(frame, dtype=np.float64)
    if max_lag >= frame.shape[-1]:
        raise ValueError("max_lag must be smaller than the frame length")
    return lagged_products(frame, frame, max_lag)


def levinson_stack(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levinson-Durbin on every row of a (frames, >order) autocorrelation stack.

    Returns (coefficients, reflection, prediction error), the first two of
    shape (frames, order). Raises LevinsonError if any row is singular, at
    the stage where the first row fails.
    """
    r = np.asarray(r, dtype=np.float64)
    if order >= r.shape[-1]:
        raise ValueError("order must be smaller than the autocorrelation length")
    if np.any(r[:, 0] <= 0):
        raise LevinsonError("r[0] must be positive")
    a = np.zeros((len(r), order))
    k = np.zeros((len(r), order))
    err = r[:, 0].copy()
    for i in range(1, order + 1):
        acc = r[:, i] + np.einsum("ij,ij->i", a[:, :i - 1], r[:, i - 1:0:-1])
        ki = -acc / err
        bad = ~np.isfinite(ki) | (np.abs(ki) >= 1.0)
        if bad.any():
            raise LevinsonError(
                f"non-positive prediction error at stage {i} (|k|={abs(ki[bad][0]):.6g})"
            )
        k[:, i - 1] = ki
        prev = a[:, :i - 1]
        a[:, :i - 1] = prev + ki[:, None] * prev[:, ::-1]
        a[:, i - 1] = ki
        err *= (1.0 - ki * ki)
        if np.any(err <= 0):
            raise LevinsonError(f"non-positive prediction error at stage {i}")
    return a, k, err


def levinson_durbin(r: np.ndarray, order: int) -> LpcModel:
    """Solve the Toeplitz normal equations by Levinson-Durbin recursion.

    Returns predictor coefficients in the A(z) = 1 + sum a_i z^-i convention
    and gain = sqrt(final prediction error) in the units of r.
    """
    a, k, err = levinson_stack(np.asarray(r, dtype=np.float64)[None, :], order)
    return LpcModel(order=order, coefficients=a[0], gain=float(np.sqrt(err[0])),
                    reflection=k[0])


def lag_window(max_lag: int, bandwidth_hz: float, rate_hz: float) -> np.ndarray:
    """Gaussian lag window for bandwidth expansion of the fitted envelope."""
    k = np.arange(max_lag + 1)
    return np.exp(-0.5 * (2.0 * np.pi * bandwidth_hz * k / rate_hz) ** 2)


def clamp_pole_stack(error_filters: np.ndarray,
                     max_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Pull any pole of 1/A(z) with |p| > max_radius radially inward, for
    every row of a (frames, order+1) stack of monic error filters.

    Enforces a minimum resonance bandwidth so the whitener cannot place
    near-unit-circle poles on individual pitch harmonics. The poles are the
    eigenvalues of the companion matrices (the np.roots algorithm), and the
    polynomial is rebuilt (the np.poly recursion) only for the rows where a
    pole lies over the radius. Returns (filters, fired mask).
    """
    filters = np.asarray(error_filters, dtype=np.float64)
    rows, order = filters.shape[0], filters.shape[1] - 1
    fired = np.zeros(rows, dtype=bool)
    if order < 1 or rows == 0:
        return filters, fired
    companion = np.zeros((rows, order, order))
    companion[:, 0, :] = -filters[:, 1:] / filters[:, :1]
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    mags = np.abs(roots)
    fired = np.any(mags > max_radius, axis=1)
    if not fired.any():
        return filters, fired
    roots, mags = roots[fired], mags[fired]
    roots = np.where(mags > max_radius, roots * (max_radius / mags), roots)
    poly = np.zeros((len(roots), order + 1), dtype=np.complex128)
    poly[:, 0] = 1.0
    for j in range(order):
        poly[:, 1:j + 2] = poly[:, 1:j + 2] - roots[:, j:j + 1] * poly[:, :j + 1]
    filters = filters.copy()
    filters[fired] = poly.real
    return filters, fired


class LpcFrames(NamedTuple):
    """All-pole models of a stack of frames: error filters [1, a_1..a_p] per
    row, per-sample residual RMS gain, and the mask of silent rows (their
    filters and gains are zero)."""

    error_filters: np.ndarray
    gains: np.ndarray
    silent: np.ndarray


def lpc_analyze_frames(frames: np.ndarray, order: int, pre_emphasis: float = 0.0, *,
                       rate_hz: float | None = None, lag_window_hz: float = 0.0,
                       noise_floor: float = 0.0, max_pole_radius: float | None = None,
                       history: np.ndarray | float = 0.0) -> LpcFrames:
    """Estimate the all-pole model of every row of a (frames, n) stack.

    Pipeline: optional pre-emphasis y[n] = x[n] - beta*x[n-1] (history supplies
    each row's x[-1]), hann taper, biased autocorrelation, silence check,
    optional regularization (Gaussian lag window, white-noise floor on r0),
    Levinson-Durbin, optional pole-radius clamp. gain is rescaled to the
    per-sample residual RMS.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    rows, n = frames.shape
    if n < 4 * order:
        raise ValueError(f"frame of {n} samples too short for order {order}")
    if pre_emphasis:
        prev = np.concatenate((np.broadcast_to(history, (rows,))[:, None],
                               frames[:, :-1]), axis=1)
        work = frames - pre_emphasis * prev
    else:
        work = frames
    r = autocorrelation(work * hann_window(n), order)
    silent = r[:, 0] < SILENT_FLOOR * n
    r = r[~silent]
    if lag_window_hz > 0.0:
        if rate_hz is None:
            raise ValueError("lag_window_hz requires rate_hz")
        r = r * lag_window(order, lag_window_hz, rate_hz)
    if noise_floor > 0.0:
        r = r.copy()
        r[:, 0] *= (1.0 + noise_floor)
    a, _, err = levinson_stack(r / n, order)
    filters = np.concatenate((np.ones((len(a), 1)), a), axis=1)
    if max_pole_radius is not None:
        filters, _ = clamp_pole_stack(filters, max_pole_radius)
    out = LpcFrames(np.zeros((rows, order + 1)), np.zeros(rows), silent)
    out.error_filters[~silent] = filters
    out.gains[~silent] = np.sqrt(err)
    return out
