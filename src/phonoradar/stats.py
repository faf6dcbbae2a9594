"""Self-contained descriptive statistics and the paired Student t-test.

The Student-t tail probability is computed from the regularized incomplete
beta function via a modified Lentz continued fraction, so no external
statistics package is involved.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "descriptive_stats",
    "paired_t_test",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "student_t_two_sided_p",
]

_MAX_ITER = 300
_EPS = 1e-15
_TINY = 1e-300


def descriptive_stats(values) -> dict:
    """Sample mean, n, n-1 standard deviation, and standard error: the
    record {"mean", "n", "std", "sem"} of one comparison in report.json's
    descriptive table."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n < 2:
        raise ValueError("need at least two values")
    std = float(np.std(v, ddof=1))
    return {"mean": float(np.mean(v)), "n": n, "std": std, "sem": std / math.sqrt(n)}


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + num / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + num / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for T Student-t with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    t = float(t)
    if not math.isfinite(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def student_t_cdf(t: float, df: int) -> float:
    """CDF of the Student-t distribution."""
    p = student_t_two_sided_p(t, df)
    return 1.0 - 0.5 * p if t >= 0 else 0.5 * p


def paired_t_test(a, b) -> dict:
    """Two-sided paired t-test on matched observations.

    t = mean(a - b) / (std(a - b) / sqrt(n)) with df = n - 1. Returns the
    record {"t_stat", "n", "std", "p_value", "df"} of report.json's t_tests,
    std the n-1 standard deviation of the differences.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have the same length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two pairs")
    diff = a - b
    std = float(np.std(diff, ddof=1))
    if std == 0.0:
        raise ValueError("zero-variance differences: t statistic undefined")
    t = float(np.mean(diff)) / (std / math.sqrt(n))
    return {"t_stat": t, "n": n, "std": std, "p_value": student_t_two_sided_p(t, n - 1),
            "df": n - 1}
