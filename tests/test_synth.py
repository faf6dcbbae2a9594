import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phonoradar
from phonoradar.signals import SampledSignal
from phonoradar.synth import (GlottalConfig, NeckChannel, VocalTractModel,
                              excitation_from_displacement, load_subject, make_subject,
                              neck_displacement, random_vocal_tract, save_subject,
                              synth_vocal_fold_displacement, synthesize_speech)
from phonoradar.transform import frame_delays


def delay_samples(a: SampledSignal, b: SampledSignal, max_lag: int) -> int:
    """Delay of b behind a by normalized cross-correlation."""
    return int(frame_delays(a.samples[None, :], b.samples[None, :], max_lag)[0][0])


def count_onsets(x, threshold):
    above = x > threshold
    return int(np.sum(above[1:] & ~above[:-1]))


class TestGlottalPulseTrain:
    def test_pulse_count_matches_f0(self):
        cfg = GlottalConfig(f0_hz=100.0, jitter_pct=0.0)
        out = synth_vocal_fold_displacement(cfg, 1.0, 2000.0)
        onsets = count_onsets(out.samples, 0.1 * cfg.amplitude)
        assert abs(onsets - 100) <= 1
        assert np.max(out.samples) == pytest.approx(cfg.amplitude, rel=0.05)
        assert np.min(out.samples) >= 0.0

    def test_zero_amplitude(self):
        cfg = GlottalConfig(f0_hz=100.0, amplitude=0.0)
        out = synth_vocal_fold_displacement(cfg, 0.5, 2000.0)
        assert np.all(out.samples == 0.0)

    def test_jitter_preserves_mean_interval(self):
        cfg = GlottalConfig(f0_hz=200.0, jitter_pct=2.0)
        out = synth_vocal_fold_displacement(cfg, 4.0, 16000.0,
                                            np.random.default_rng(0))
        x = out.samples
        above = x > 0.1 * cfg.amplitude
        onset_idx = np.flatnonzero(above[1:] & ~above[:-1])
        intervals = np.diff(onset_idx) / 16000.0
        assert np.mean(intervals) == pytest.approx(5e-3, rel=0.01)

    def test_jitter_needs_a_generator(self):
        cfg = GlottalConfig(f0_hz=200.0, jitter_pct=2.0)
        with pytest.raises(ValueError, match="jitter draws from rng"):
            synth_vocal_fold_displacement(cfg, 0.1, 2000.0)

    def test_rate_too_low(self):
        with pytest.raises(ValueError):
            synth_vocal_fold_displacement(GlottalConfig(f0_hz=600.0), 1.0, 2000.0)

    def test_f0_bounds(self):
        with pytest.raises(ValueError):
            GlottalConfig(f0_hz=50.0)
        with pytest.raises(ValueError):
            GlottalConfig(f0_hz=1500.0)

    def test_closed_phase_is_zero(self):
        cfg = GlottalConfig(f0_hz=100.0, open_quotient=0.5)
        out = synth_vocal_fold_displacement(cfg, 0.5, 16000.0)
        fraction_zero = np.mean(out.samples == 0.0)
        assert fraction_zero == pytest.approx(0.5, abs=0.05)


class TestNeckChannel:
    def test_identity(self, rng):
        x = SampledSignal(rng.standard_normal(200), 2000.0)
        out = neck_displacement(x, NeckChannel(k_d=1.0, tau_d_s=0.0))
        assert np.array_equal(out.samples, x.samples)

    def test_scale_and_shift(self, rng):
        x = SampledSignal(rng.standard_normal(200), 2000.0)
        out = neck_displacement(x, NeckChannel(k_d=0.5, tau_d_s=1e-3))
        assert np.all(out.samples[:2] == 0.0)
        assert np.allclose(out.samples[2:], 0.5 * x.samples[:-2])

    def test_delay_recovered_by_correlation(self, rng):
        x = SampledSignal(rng.standard_normal(500), 2000.0)
        out = neck_displacement(x, NeckChannel(k_d=0.7, tau_d_s=2e-3))
        assert delay_samples(x, out, 10) == 4

    def test_linearity(self, rng):
        ch = NeckChannel(k_d=0.9, tau_d_s=1.5e-3)
        x = rng.standard_normal(300)
        one = neck_displacement(SampledSignal(x, 2000.0), ch)
        two = neck_displacement(SampledSignal(3.5 * x, 2000.0), ch)
        assert np.allclose(two.samples, 3.5 * one.samples)

    def test_delay_bound(self):
        with pytest.raises(ValueError):
            NeckChannel(tau_d_s=6e-3)


class TestExcitation:
    def test_constant_gives_zero(self):
        x = SampledSignal(np.full(256, 2.0), 2000.0)
        out = excitation_from_displacement(x, 1.0)
        assert np.max(np.abs(out.samples)) < 1e-9

    def test_sine_derivative(self):
        rate, freq = 2000.0, 100.0
        t = np.arange(2000) / rate
        x = SampledSignal(np.sin(2 * np.pi * freq * t), rate)
        out = excitation_from_displacement(x, 1.0)
        expected = 2 * np.pi * freq * np.cos(2 * np.pi * freq * t)
        # amplitude within 1 percent and 90-degree phase lead, interior samples
        assert np.allclose(out.samples[50:-50], expected[50:-50],
                           atol=0.01 * 2 * np.pi * freq)

    def test_ramp_interior(self):
        # The in-band derivative of a unit-per-sample ramp is the sample rate.
        # The spectral method folds the wrap-around step into Nyquist-rate
        # ringing, so the band-limited (locally averaged) value is asserted.
        rate = 2000.0
        x = SampledSignal(np.arange(4000, dtype=float), rate)
        out = excitation_from_displacement(x, 1.0)
        central = out.samples[1500:2500]
        assert np.mean(central) == pytest.approx(rate, rel=0.01)
        smoothed = np.convolve(central, np.ones(8) / 8, mode="valid")
        assert np.allclose(smoothed, rate, rtol=0.02)

    def test_gain_scales(self, rng):
        x = SampledSignal(rng.standard_normal(128), 2000.0)
        one = excitation_from_displacement(x, 1.0)
        five = excitation_from_displacement(x, 5.0)
        assert np.allclose(five.samples, 5.0 * one.samples)


class TestSynthesizeSpeech:
    def test_identity_tract(self, rng):
        e = SampledSignal(rng.standard_normal(100), 2000.0)
        tract = VocalTractModel(coefficients=np.array([]), gain=1.0)
        out = synthesize_speech(e, tract)
        assert np.allclose(out.samples, e.samples)

    def test_impulse_matches_direct_recursion(self):
        a1, a2 = -0.9, 0.4
        tract = VocalTractModel(coefficients=np.array([a1, a2]), gain=1.0)
        impulse = np.zeros(50)
        impulse[0] = 1.0
        out = synthesize_speech(SampledSignal(impulse, 2000.0), tract)
        expect = np.zeros(50)
        for n in range(50):
            prev1 = expect[n - 1] if n >= 1 else 0.0
            prev2 = expect[n - 2] if n >= 2 else 0.0
            expect[n] = impulse[n] - a1 * prev1 - a2 * prev2
        assert np.allclose(out.samples, expect, atol=1e-12)

    def test_noise_spectrum_matches_tract(self, rng):
        # periodogram-average oracle against |gain/A|^2
        from scipy.signal import freqz, welch
        poles = [0.85 * np.exp(2j * np.pi * 300 / 2000),
                 0.8 * np.exp(2j * np.pi * 700 / 2000)]
        a = np.poly(np.concatenate([poles, np.conj(poles)])).real
        tract = VocalTractModel(coefficients=a[1:], gain=1.0)
        e = SampledSignal(rng.standard_normal(200_000), 2000.0)
        s = synthesize_speech(e, tract)
        freqs, pxx = welch(s.samples, fs=2000.0, nperseg=512)
        _, h = freqz([tract.gain], tract.error_filter(), worN=freqs, fs=2000.0)
        band = (freqs > 30) & (freqs < 970)
        ratio_db = 10 * np.log10(pxx[band] / (np.abs(h[band]) ** 2 / 1000.0))
        assert np.median(np.abs(ratio_db - np.median(ratio_db))) < 1.0

    def test_scaling_linearity(self, rng):
        tract = random_vocal_tract(np.random.default_rng(1))
        e = rng.standard_normal(500)
        one = synthesize_speech(SampledSignal(e, 2000.0), tract)
        alpha = synthesize_speech(SampledSignal(2.5 * e, 2000.0), tract)
        assert np.allclose(alpha.samples, 2.5 * one.samples)

    def test_unstable_tract_rejected(self):
        for coefficients in ([-2.1, 1.2], [0.5, np.nan], [0.5, np.inf]):
            with pytest.raises(ValueError, match="unstable tract"):
                VocalTractModel(coefficients=np.array(coefficients), gain=1.0)

    def test_stability_agrees_with_roots(self):
        # random monic polynomials of order 1-8, from roots (real or in
        # conjugate pairs, up to radius 1.25) or from coefficients; a largest
        # root within 1e-9 of the unit circle is left to rounding
        rng = np.random.default_rng(20)
        outcomes = []
        for _ in range(3000):
            order = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                pairs = rng.uniform(0.0, 1.25, order // 2) * np.exp(
                    1j * rng.uniform(0.0, np.pi, order // 2))
                real = rng.uniform(-1.25, 1.25, order % 2)
                a = np.poly(np.concatenate([pairs, pairs.conj(), real])).real[1:]
            else:
                a = rng.uniform(-1.5, 1.5, order)
            radius = np.max(np.abs(np.roots(np.concatenate(([1.0], a)))))
            if abs(radius - 1.0) < 1e-9:
                continue
            try:
                VocalTractModel(coefficients=a)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (radius < 1.0), (a, radius)
            outcomes.append(accepted)
        assert 500 < sum(outcomes) < len(outcomes) - 500

    def test_noise_snr_level(self, rng):
        tract = VocalTractModel(coefficients=np.array([]), gain=1.0)
        t = np.arange(50_000) / 2000.0
        e = SampledSignal(np.sin(2 * np.pi * 100 * t), 2000.0)
        noisy = synthesize_speech(e, tract, noise_snr_db=20.0, rng=rng)
        noise = noisy.samples - e.samples
        snr = 10 * np.log10(np.mean(e.samples**2) / np.mean(noise**2))
        assert snr == pytest.approx(20.0, abs=0.5)

    def test_noise_needs_a_generator(self):
        tract = VocalTractModel(coefficients=np.array([]), gain=1.0)
        e = SampledSignal(np.ones(100), 2000.0)
        assert synthesize_speech(e, tract).samples.tolist() == [1.0] * 100
        with pytest.raises(ValueError, match="noise draws from rng"):
            synthesize_speech(e, tract, noise_snr_db=20.0)


class TestMakeSubject:
    def test_construction_delay(self, subject):
        tau_samples = int(round(subject.neck.tau_d_s * subject.rate_hz))
        assert delay_samples(subject.x, subject.d, 10) == tau_samples

    def test_deterministic_given_seed(self):
        kwargs = dict(duration_s=0.5, rate_hz=2000.0, seed=11)
        glottal = GlottalConfig(f0_hz=180.0, jitter_pct=1.0)
        neck = NeckChannel(k_d=0.8, tau_d_s=1e-3)
        tract = random_vocal_tract(np.random.default_rng(11))
        one = make_subject(glottal, neck, tract, **kwargs)
        two = make_subject(glottal, neck, tract, **kwargs)
        assert np.array_equal(one.x.samples, two.x.samples)
        assert np.array_equal(one.s.samples, two.s.samples)

    def test_jitter_needs_a_seed(self):
        glottal = GlottalConfig(f0_hz=180.0, jitter_pct=1.0)
        tract = random_vocal_tract(np.random.default_rng(11))
        with pytest.raises(ValueError, match="jitter draws from rng: pass a seeded generator"):
            make_subject(glottal, NeckChannel(), tract, 0.5, 2000.0)

    def test_noise_needs_a_seed(self):
        glottal = GlottalConfig(f0_hz=180.0)
        tract = random_vocal_tract(np.random.default_rng(11))
        with pytest.raises(ValueError, match="noise draws from rng: pass a seeded generator"):
            make_subject(glottal, NeckChannel(), tract, 0.5, 2000.0, noise_snr_db=20.0)

    def test_no_draws_need_no_seed(self):
        glottal = GlottalConfig(f0_hz=180.0)
        tract = random_vocal_tract(np.random.default_rng(11))
        one = make_subject(glottal, NeckChannel(), tract, 0.5, 2000.0)
        two = make_subject(glottal, NeckChannel(), tract, 0.5, 2000.0, seed=5)
        assert one.seed is None
        assert np.array_equal(one.s.samples, two.s.samples)

    def test_signals_consistent(self, subject):
        assert len(subject.x) == len(subject.e) == len(subject.s) == len(subject.d)
        e_again = excitation_from_displacement(subject.x, subject.glottal.flow_gain_k)
        assert np.allclose(e_again.samples, subject.e.samples)

    def test_random_tracts_stable(self):
        for seed in range(200):
            tract = random_vocal_tract(np.random.default_rng(seed))
            assert np.all(np.abs(np.roots(tract.error_filter())) < 1.0 - 1e-6)

    def test_save_load_roundtrip(self, tmp_path, subject):
        save_subject(subject, tmp_path)
        back = load_subject(tmp_path)
        assert back.glottal == subject.glottal
        assert back.neck == subject.neck
        assert np.allclose(back.tract.coefficients, subject.tract.coefficients)
        for got, want in ((back.x, subject.x), (back.e, subject.e), (back.d, subject.d)):
            assert got.rate_hz == want.rate_hz
            assert np.array_equal(got.samples, want.samples)
        assert np.allclose(back.s.samples, subject.s.samples, atol=1e-7)

    def test_small_cohort_invariants(self):
        for i in range(8):
            rng = np.random.default_rng(100 + i)
            glottal = GlottalConfig(f0_hz=float(rng.uniform(90, 500)))
            neck = NeckChannel(k_d=float(rng.uniform(0.5, 1.5)),
                               tau_d_s=float(rng.integers(0, 5)) / 2000.0)
            tract = random_vocal_tract(rng)
            subj = make_subject(glottal, neck, tract, 0.5, 2000.0, seed=i)
            assert len(subj.x) == len(subj.d)
            assert np.all(np.isfinite(subj.s.samples))
            assert subj.tract.order >= 4


NO_LAPACK = """
import sys
sys.path.insert(0, {src!r})
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("LAPACK called")

np.linalg.eigvals = refuse
# np.roots and every other numpy.linalg routine reach LAPACK through these
kernels = np.linalg._umath_linalg
for name in dir(kernels):
    if isinstance(getattr(kernels, name), np.ufunc):
        setattr(kernels, name, refuse)
import phonoradar.cli
sys.exit(phonoradar.cli.main(["synth", "--out", {out!r}, "--cohort", "2", "--seed", "3"]))
"""


def test_synth_stage_calls_no_lapack(tmp_path):
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    script = NO_LAPACK.format(src=src, out=str(tmp_path / "cohort"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cohort" / "subject_001" / "neck_true.csv").exists()
