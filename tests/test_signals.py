import numpy as np
import pytest

from phonoradar.signals import (FramePlan, SampledSignal, differentiate, frame_view,
                                iir_filter, integrate_spectral, median, resample_decimate)
from phonoradar.transform import frame_delays


def sig(samples, rate=2000.0):
    return SampledSignal(np.asarray(samples, dtype=float), rate)


class TestSampledSignal:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sig([0.0, np.nan])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampledSignal(np.zeros(4), 0.0)

    def test_immutable_samples(self):
        s = sig([1.0, 2.0])
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_rate_mismatch_detected(self):
        a = sig(np.ones(8), 2000.0)
        b = sig(np.ones(8), 1000.0)
        with pytest.raises(ValueError):
            a.require_same_rate(b)


class TestFraming:
    def test_three_frames(self):
        frames = frame_view(np.arange(100.0), 50, 25)
        assert frames.shape == (3, 50)
        assert frames[0, 0] == 0 and frames[1, 0] == 25 and frames[2, 0] == 50

    def test_single_frame_boundary(self):
        assert frame_view(np.arange(50.0), 50, 25).shape == (1, 50)

    def test_short_signal_has_no_rows(self):
        assert frame_view(np.arange(49.0), 50, 25).shape == (0, 50)
        assert FramePlan(50, 25).n_frames(49) == 0

    def test_frame_indexing_matches_formula(self, rng):
        # frame i must cover samples [i*hop, i*hop + N) for random geometries
        for _ in range(50):
            length = int(rng.integers(10, 400))
            n = int(rng.integers(2, length + 1))
            hop = int(rng.integers(1, n + 1))
            x = rng.standard_normal(length)
            expected = (length - n) // hop + 1
            frames = frame_view(x, n, hop)
            assert len(frames) == expected == FramePlan(n, hop).n_frames(length)
            for i in range(expected):
                assert np.array_equal(frames[i], x[i * hop:i * hop + n])


def delay(a, b, max_lag):
    """(delay, peak, defined) of b behind a from frame_delays on one-row stacks."""
    tau, peak, defined = frame_delays(np.asarray(a)[None, :], np.asarray(b)[None, :],
                                      max_lag)
    return int(tau[0]), float(peak[0]), bool(defined[0])


class TestCrossCorrelate:
    """The delay search by normalized cross-correlation over lagged_products."""

    def test_shift_identity(self, rng):
        x = rng.standard_normal(400)
        shifted = np.zeros_like(x)
        shifted[7:] = x[:-7]
        lag, peak, _ = delay(x, shifted, 20)
        assert lag == 7
        assert peak == pytest.approx(1.0, abs=0.05)

    def test_self_correlation(self, rng):
        x = rng.standard_normal(300)
        lag, peak, _ = delay(x, x, 20)
        assert lag == 0
        assert peak == pytest.approx(1.0)

    def test_delayed_sine_matches_scan_oracle(self):
        # 100 Hz tone delayed 2.5 ms at 2 kHz: oracle scans every lag directly
        rate = 2000.0
        t = np.arange(1000) / rate
        a = np.sin(2 * np.pi * 100.0 * t)
        b = np.sin(2 * np.pi * 100.0 * (t - 2.5e-3))
        best, best_lag = -2.0, None
        for k in range(0, 21):
            val = float(a[:1000 - k] @ b[k:]) / np.sqrt(float(a @ a) * float(b @ b))
            if val > best:
                best, best_lag = val, k
        assert best_lag == 5
        lag, _, _ = delay(a, b, 20)
        assert lag == best_lag

    def test_recovers_every_shift(self, rng):
        x = rng.standard_normal(500)
        m = 12
        for k in range(m + 1):
            lag, _, _ = delay(x, np.roll(x, k), m)
            assert lag == k

    def test_all_zero_errors(self):
        assert not delay(np.zeros(50), np.ones(50), 5)[2]

    def test_tie_breaks_toward_zero_lag(self):
        # a constant-like periodic signal ties at many lags
        x = np.tile([1.0, -1.0], 100)
        lag, _, _ = delay(x, x, 10)
        assert lag == 0


class TestDcBlock:
    """iir_filter running the first-order DC-blocking high pass
    y[n] = x[n] - x[n-1] + pole*y[n-1]: a zero on the unit circle at DC."""

    @staticmethod
    def dc_block(x, pole):
        return iir_filter([1.0, -1.0], [1.0, -pole], np.asarray(x, dtype=float))

    def test_constant_input_decays(self):
        out = self.dc_block(np.ones(20_000), 0.995)
        # mean after the first 1e4 samples have flushed the transient
        assert abs(np.mean(out[10_000:])) < 1e-3
        assert abs(out[-1]) < 1e-6

    def test_stationary_input_mean_vanishes(self, rng):
        x = rng.standard_normal(200_000) + 5.0
        out = self.dc_block(x, 0.995)
        assert abs(np.mean(out[10_000:])) < 1e-3 * np.std(x)

    def test_zero_input(self):
        out = self.dc_block(np.zeros(100), 0.9)
        assert np.all(out == 0)

    def test_impulse_response_matches_recursion(self):
        pole = 0.97
        impulse = np.zeros(40)
        impulse[0] = 1.0
        got = self.dc_block(impulse, pole)
        # direct recursion oracle: y[n] = x[n] - x[n-1] + pole*y[n-1]
        expect = np.zeros(40)
        for n in range(40):
            x_n = impulse[n]
            x_p = impulse[n - 1] if n else 0.0
            y_p = expect[n - 1] if n else 0.0
            expect[n] = x_n - x_p + pole * y_p
        assert np.allclose(got, expect, atol=1e-14)
        assert expect[0] == 1.0 and expect[1] == pytest.approx(pole - 1.0)
        assert expect[2] == pytest.approx(pole * (pole - 1.0))


class TestResample:
    def test_length_divided(self):
        out = resample_decimate(sig(np.zeros(8000), 16000.0), 2000.0)
        assert len(out) == 1000
        assert out.rate_hz == 2000.0

    def test_identity_rate(self):
        x = np.arange(64.0)
        out = resample_decimate(sig(x, 2000.0), 2000.0)
        assert np.array_equal(out.samples, x)

    def test_non_integer_ratio_errors(self):
        with pytest.raises(ValueError):
            resample_decimate(sig(np.zeros(100), 3000.0), 2000.0)

    def test_sine_amplitude_preserved(self):
        rate_in, rate_out, freq = 16000.0, 2000.0, 300.0
        t = np.arange(16000) / rate_in
        out = resample_decimate(sig(np.sin(2 * np.pi * freq * t), rate_in), rate_out)
        interior = out.samples[200:-200]
        amplitude = np.sqrt(2.0 * np.mean(interior**2))
        assert amplitude == pytest.approx(1.0, rel=0.01)

    def test_tone_frequency_preserved(self, rng):
        rate_in, rate_out = 16000.0, 2000.0
        t = np.arange(16384) / rate_in
        for freq in (100.0, 300.0, 500.0, 700.0):
            out = resample_decimate(sig(np.sin(2 * np.pi * freq * t), rate_in), rate_out)
            spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
            peak_hz = np.argmax(spec) * rate_out / len(out)
            assert abs(peak_hz - freq) < rate_out / len(out) * 1.5


class TestSpectralCalculus:
    def test_sine_derivative_exact(self):
        rate, freq = 2000.0, 100.0
        t = np.arange(2000) / rate
        x = np.sin(2 * np.pi * freq * t)
        dx = differentiate(x, rate)
        expected = 2 * np.pi * freq * np.cos(2 * np.pi * freq * t)
        assert np.allclose(dx, expected, atol=1e-8 * 2 * np.pi * freq)

    def test_integration_inverts_derivative(self):
        # band-limited multitone: round trip recovers x to < 1e-6 * amplitude
        rate = 2000.0
        t = np.arange(4000) / rate
        x = np.sin(2 * np.pi * 90 * t) + 0.5 * np.sin(2 * np.pi * 333 * t + 1.0)
        back = integrate_spectral(differentiate(x, rate), rate)
        x0 = x - x.mean()
        assert np.max(np.abs(back - x0)) < 1e-6 * np.max(np.abs(x0))

    def test_constant_derivative_zero(self):
        assert np.allclose(differentiate(np.full(256, 3.7), 2000.0), 0.0, atol=1e-9)


@pytest.mark.parametrize("values", [
    [3.0], [2.0, -1.0], [5.0, 1.0, 4.0, 1.0, 2.0], [0.1, 0.7, 0.2, 0.9],
    np.random.default_rng(1).standard_normal(127), np.random.default_rng(2).standard_normal(128),
    [1.5, np.nan, 2.0], [np.nan, 1.0], [-0.0, 0.0, -0.0], [1e300, 3e300],
    np.array([7, -3, 4, 10], dtype=np.int64), np.array([9, 2, 5], dtype=np.int32),
    np.array([2**62, 2**62 + 1], dtype=np.int64),
    np.random.default_rng(3).standard_normal(10).astype(np.float32),
], ids=lambda v: f"{np.asarray(v).dtype}-{len(v)}")
def test_median_is_numpys_median_bit_for_bit(values):
    got, want = median(values), np.median(values)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
