import numpy as np
import pytest

from phonoradar.metrics import (PowerSpectrum, SPECTRAL_FLOOR,
                                log_spectral_distance, loess_smooth,
                                lsd_over_windows, normalized_power_spectra)
from phonoradar.signals import FramePlan, SampledSignal, hann_window


def spectrum(frame, rate=2000.0):
    """PowerSpectrum of one non-silent frame, from a one-row stack."""
    bins, silent = normalized_power_spectra(np.asarray(frame)[None, :])
    assert not silent[0]
    # the one-sided bins of an even-length FFT: nfft / 2 + 1 of them
    return PowerSpectrum(bins=bins[0], bin_hz=rate / (2 * (bins.shape[1] - 1)))


def spectral_flatness(spec):
    """Geometric over arithmetic mean of the bins; 1 for a flat spectrum."""
    return float(np.exp(np.mean(np.log(spec.bins))) / np.mean(spec.bins))


class TestNormalizedPowerSpectrum:
    """normalized_power_spectra on one-row stacks."""

    def test_tone_dominant_bin(self):
        # 250 Hz at 2 kHz, 25 ms window zero-padded to 64: the tone lands on
        # bin 8 exactly; a hann taper leaves ~52% there (direct-DFT oracle)
        # and nearly everything within one bin.
        t = np.arange(50) / 2000.0
        frame = np.sin(2 * np.pi * 250.0 * t)
        spec = spectrum(frame)
        k = int(np.argmax(spec.bins))
        assert k * spec.bin_hz == pytest.approx(250.0)
        work = (frame - frame.mean()) * hann_window(50)
        oracle = np.abs(np.fft.rfft(work, 64)) ** 2
        oracle /= oracle.sum()
        # flooring lifts empty bins by ~1e-8 before renormalizing
        assert spec.bins[k] == pytest.approx(oracle[k], rel=1e-5)
        assert spec.bins[k] > 0.5
        assert spec.bins[k - 1:k + 2].sum() > 0.8

    def test_unit_total_power(self, rng):
        spec = spectrum(rng.standard_normal(50))
        assert spec.bins.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(spec.bins >= SPECTRAL_FLOOR * 0.99)

    def test_scale_invariance(self, rng):
        frame = rng.standard_normal(50)
        one = spectrum(frame)
        scaled = spectrum(17.3 * frame)
        assert np.allclose(one.bins, scaled.bins)

    def test_silent_frame_raises(self):
        _, silent = normalized_power_spectra(np.zeros((1, 50)))
        assert silent[0]

    def test_white_noise_average_is_flat(self, rng):
        acc = np.zeros(33)
        for _ in range(100):
            spec = spectrum(rng.standard_normal(50))
            acc += spec.bins
        avg = PowerSpectrum.from_bins(acc, 2000.0 / 64)
        assert spectral_flatness(avg) > 0.8


class TestLogSpectralDistance:
    def test_identity(self, rng):
        spec = spectrum(rng.standard_normal(50))
        assert log_spectral_distance(spec, spec) == 0.0

    def test_symmetry(self, rng):
        p = spectrum(rng.standard_normal(50))
        q = spectrum(rng.standard_normal(50))
        assert log_spectral_distance(p, q) == pytest.approx(
            log_spectral_distance(q, p))

    def test_constructed_ratio_profile(self, rng):
        # boost half the bins by 10x pre-normalization and apply the same
        # flooring/renormalization to both; the distance then has a closed form
        base = rng.uniform(0.5, 2.0, 33)
        ratio = np.ones(33)
        ratio[::2] = 10.0
        p = PowerSpectrum.from_bins(base * ratio, 31.25)
        q = PowerSpectrum.from_bins(base, 31.25)
        expected = np.sqrt(np.mean((10 * np.log10(p.bins / q.bins)) ** 2))
        assert log_spectral_distance(p, q) == pytest.approx(expected)
        # analytic value of the construction (no flooring active here)
        scale = (base.sum()) / (base * ratio).sum()
        analytic = np.sqrt(np.mean((10 * np.log10(ratio * scale)) ** 2))
        assert log_spectral_distance(p, q) == pytest.approx(analytic, rel=1e-9)

    def test_bin_count_mismatch(self):
        p = PowerSpectrum.from_bins(np.ones(16), 10.0)
        q = PowerSpectrum.from_bins(np.ones(8), 10.0)
        with pytest.raises(ValueError):
            log_spectral_distance(p, q)

    def test_axioms_randomized(self, rng):
        for _ in range(200):
            a = PowerSpectrum.from_bins(rng.uniform(0, 1, 33) ** 2, 1.0)
            b = PowerSpectrum.from_bins(rng.uniform(0, 1, 33) ** 2, 1.0)
            d = log_spectral_distance(a, b)
            assert d >= 0.0
            assert d == pytest.approx(log_spectral_distance(b, a))
        a = PowerSpectrum.from_bins(rng.uniform(0.1, 1, 33), 1.0)
        assert log_spectral_distance(a, a) == 0.0


class TestLsdOverWindows:
    def setup_method(self):
        self.plan = FramePlan(50, 25)
        t = np.arange(1000) / 2000.0
        self.a = SampledSignal(np.sin(2 * np.pi * 150 * t) +
                               0.3 * np.sin(2 * np.pi * 450 * t), 2000.0)

    def pair(self, a, b, mask=None):
        """The window indices and distances of candidate a against reference b."""
        windows, _, lsd = lsd_over_windows(b, {"a": a}, self.plan, mask)
        return windows, lsd["a"]

    def test_identical_signals(self):
        _, lsd = self.pair(self.a, self.a)
        assert np.all(lsd == 0.0)
        assert float(np.mean(lsd)) == 0.0

    def test_scale_invariance(self):
        b = SampledSignal(3.0 * self.a.samples, 2000.0)
        _, lsd = self.pair(self.a, b)
        assert np.allclose(lsd, 0.0, atol=1e-9)

    def test_independent_scalings(self, rng):
        b = SampledSignal(self.a.samples + 0.1 * rng.standard_normal(1000), 2000.0)
        _, base = self.pair(self.a, b)
        _, scaled = self.pair(SampledSignal(2.7 * self.a.samples, 2000.0),
                              SampledSignal(0.4 * b.samples, 2000.0))
        assert np.allclose(base, scaled, atol=1e-9)

    def test_voiced_mask_respected(self):
        mask = np.zeros(39, dtype=bool)
        mask[5:12] = True
        windows, lsd = self.pair(self.a, self.a, mask)
        assert len(lsd) == 7
        assert np.array_equal(windows, np.arange(5, 12))

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            self.pair(self.a, self.a, np.ones(5, bool))

    def test_no_voiced_windows(self):
        with pytest.raises(ValueError):
            self.pair(self.a, self.a, np.zeros(39, bool))

    def test_reference_shorter_than_one_window(self):
        short = SampledSignal(self.a.samples[:49], 2000.0)
        for mask in (None, np.ones(1, bool)):
            with pytest.raises(ValueError, match="shorter than one window"):
                self.pair(short, short, mask)

    def test_candidate_length_and_rate_checked(self):
        with pytest.raises(ValueError, match="equal length"):
            self.pair(SampledSignal(self.a.samples[:900], 2000.0), self.a)
        with pytest.raises(ValueError):
            self.pair(SampledSignal(self.a.samples, 4000.0), self.a)


class TestLoess:
    def make_series(self, values):
        """(times, values) of windows 12.5 ms apart."""
        return np.arange(len(values)) * 0.0125, np.asarray(values, float)

    def test_constant_unchanged(self):
        series = self.make_series(np.full(20, 3.3))
        out = loess_smooth(*series, 0.3)
        assert np.allclose(out, 3.3)

    def test_linear_unchanged(self):
        times, values = self.make_series(1.0 + 0.5 * np.arange(30))
        out = loess_smooth(times, values, 0.4)
        assert np.allclose(out, values, atol=1e-9)

    def test_variance_reduction_and_wls_oracle(self, rng):
        n = 80
        x = np.arange(n) * 0.0125
        clean = np.sin(2 * np.pi * x / (n * 0.0125))
        noisy = clean + 0.3 * rng.standard_normal(n)
        out = loess_smooth(*self.make_series(noisy), 0.3)
        assert np.var(out - clean) < np.var(noisy - clean)
        # per-point weighted-least-squares oracle
        k = max(2, int(np.ceil(0.3 * n)))
        for i in (0, 17, 40, n - 1):
            dist = np.abs(x - x[i])
            idx = np.argsort(dist, kind="stable")[:k]
            h = dist[idx].max()
            w = np.clip(1 - (dist[idx] / h) ** 3, 0, None) ** 3
            coeffs = np.polyfit(x[idx], noisy[idx], 1, w=np.sqrt(w))
            assert out[i] == pytest.approx(np.polyval(coeffs, x[i]), abs=1e-8)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            loess_smooth(*self.make_series(np.ones(4)), 0.3)

    def test_span_domain(self):
        with pytest.raises(ValueError):
            loess_smooth(*self.make_series(np.ones(10)), 0.0)
