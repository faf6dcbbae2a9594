import math

import numpy as np
import pytest

from phonoradar.stats import (descriptive_stats, paired_t_test, regularized_incomplete_beta,
                              student_t_cdf, student_t_two_sided_p)


def t_density(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)


def tail_by_quadrature(t, df):
    """Numerical-integration oracle for P(T > t), fine Simpson plus tail bound."""
    upper = max(t + 400.0, 500.0)
    xs = np.linspace(t, upper, 400_001)
    ys = np.array([t_density(x, df) for x in xs[:: len(xs) // 2001]])
    # full-resolution Simpson on the vectorized density
    xv = xs
    yv = t_density(xv, df)
    h = xv[1] - xv[0]
    simpson = h / 3 * (yv[0] + yv[-1] + 4 * yv[1:-1:2].sum() + 2 * yv[2:-2:2].sum())
    return simpson


class TestDescriptiveStats:
    def test_closed_form(self):
        st = descriptive_stats([1.0, 2.0, 3.0])
        assert st["mean"] == pytest.approx(2.0)
        assert st["n"] == 3
        assert st["std"] == pytest.approx(1.0)
        assert st["sem"] == pytest.approx(1.0 / math.sqrt(3))

    def test_constant_values(self):
        st = descriptive_stats([4.0, 4.0, 4.0, 4.0])
        assert st["std"] == 0.0 and st["sem"] == 0.0

    def test_sem_consistency(self, rng):
        for _ in range(20):
            values = rng.standard_normal(int(rng.integers(2, 50)))
            st = descriptive_stats(values)
            assert st["sem"] * math.sqrt(st["n"]) == pytest.approx(st["std"])

    def test_too_few(self):
        with pytest.raises(ValueError):
            descriptive_stats([1.0])

    def test_report_format_fixture(self):
        # Table-shaped fixture row (mean, n, std, sem); the published values
        # are rounded, so sem ~ std/sqrt(n) only to the table's precision
        n, std, sem = 66, 0.3054, 0.0365
        assert sem == pytest.approx(std / math.sqrt(n), abs=2e-3)


class TestStudentT:
    def test_cdf_matches_quadrature(self):
        for df in (5, 65, 200):
            for t in (0.5, 1.3, 2.0, 3.7):
                oracle_tail = tail_by_quadrature(t, df)
                assert 1.0 - student_t_cdf(t, df) == pytest.approx(oracle_tail, abs=1e-6)
                assert student_t_two_sided_p(t, df) == pytest.approx(2 * oracle_tail,
                                                                     abs=2e-6)

    def test_symmetry(self):
        for df in (3, 30):
            assert student_t_cdf(0.0, df) == pytest.approx(0.5)
            assert student_t_cdf(-1.7, df) == pytest.approx(1.0 - student_t_cdf(1.7, df))

    def test_p_value_range(self, rng):
        for _ in range(200):
            t = float(rng.uniform(-50, 50))
            df = int(rng.integers(1, 300))
            p = student_t_two_sided_p(t, df)
            assert 0.0 <= p <= 1.0

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # I_x(1,1) is the identity
        assert regularized_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37)


class TestPairedTTest:
    def test_constant_difference_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_hand_computed_example(self):
        # a=(1,2,3,4), b=(2,2,4,5): differences (-1,0,-1,-1),
        # mean -0.75, sd 0.5, t = -0.75/(0.5/2) = -3.0, df 3
        res = paired_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 4.0, 5.0])
        assert res["t_stat"] == pytest.approx(-3.0)
        assert res["n"] == 4 and res["df"] == 3
        assert res["std"] == pytest.approx(0.5)
        oracle_p = 2 * tail_by_quadrature(3.0, 3)
        assert res["p_value"] == pytest.approx(oracle_p, abs=1e-6)

    def test_sign_convention(self, rng):
        a = rng.standard_normal(30)
        b = a + rng.standard_normal(30)
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd["t_stat"] == pytest.approx(-rev["t_stat"])
        assert fwd["p_value"] == pytest.approx(rev["p_value"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
