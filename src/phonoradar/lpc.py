"""Frame-based linear prediction of the all-pole vocal tract model:
autocorrelation method, Levinson-Durbin recursion and pole-radius clamp,
batched over a stack of frames. fit_envelopes owns the envelope fit the
transform runs: the pitch-period order cap, the regularizers and the clamp."""

from __future__ import annotations

from dataclasses import dataclass

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
    "fit_envelopes",
]

SILENT_FLOOR = 1e-12  # r0 below SILENT_FLOOR * frame length flags silence
# Envelope regularizers: the lag window, noise floor and pole-radius cap keep
# the per-frame whitener from locking onto individual pitch harmonics at high
# fundamental frequencies.
LAG_WINDOW_HZ = 20.0
NOISE_FLOOR = 1e-3
MAX_POLE_RADIUS = 0.90


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


def fit_envelopes(frames: np.ndarray, history: np.ndarray, voiced: np.ndarray,
                  f0: np.ndarray, rate_hz: float, order: int,
                  pre_emphasis: float) -> tuple[np.ndarray, ...]:
    """All-pole envelope of every voiced row of a (frames, n) stack, fitted
    in one batch per order; history holds each row's preceding sample x[-1]
    and f0 each row's pitch in Hz.

    Per row: the order, capped below the pitch period; pre-emphasis
    y[n] = x[n] - pre_emphasis*x[n-1]; Hann taper; biased autocorrelation
    and silence check; the regularizers (lag window, noise floor on r0);
    Levinson-Durbin; pole-radius clamp. Returns (orders, error filters
    [1, a_1..a_p] zero-padded to a common width, per-sample residual RMS
    gains, silent mask); unvoiced and silent rows have zero filters and
    gains.
    """
    rows_total, n = frames.shape
    # keep the predictor shorter than the pitch period so it models the
    # envelope instead of predicting the pitch cycle; the cap only lowers
    orders = np.zeros(rows_total, dtype=int)
    period = np.floor(rate_hz / f0[voiced]).astype(int)
    orders[voiced] = np.minimum(order, np.maximum(3, period - 1))
    taps = np.zeros((rows_total, orders.max() + 1))
    gains = np.zeros(rows_total)
    silent = np.zeros(rows_total, dtype=bool)
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for p in sorted(set(orders[voiced].tolist())):
        rows = np.flatnonzero(voiced & (orders == p))
        x = frames[rows]
        x = x - pre_emphasis * np.concatenate((history[rows, None], x[:, :-1]), axis=1)
        r = autocorrelation(x * hann_window(n), p)
        quiet = r[:, 0] < SILENT_FLOOR * n
        silent[rows] = quiet
        r = r[~quiet] * lag_window(p, LAG_WINDOW_HZ, rate_hz)
        r[:, 0] *= 1.0 + NOISE_FLOOR
        a, _, err = levinson_stack(r / n, p)
        filters, _ = clamp_pole_stack(np.concatenate((np.ones((len(a), 1)), a), axis=1),
                                      MAX_POLE_RADIUS)
        taps[rows[~quiet], :p + 1] = filters
        gains[rows[~quiet]] = np.sqrt(err)
    return orders, taps, gains, silent
