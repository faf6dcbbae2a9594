import numpy as np
import pytest

from phonoradar.radar import (C_LIGHT, ChirpConfig, NoCoherentTargetError, TargetScene,
                              measure_displacement)
from phonoradar.signals import SampledSignal
from radar_oracle import beat_frequency_hz, explicit_chain, range_fft, simulate_beat_signal


@pytest.fixture
def cfg():
    return ChirpConfig()


def displacement(samples, rate=2000.0):
    return SampledSignal(np.asarray(samples, dtype=float), rate)


class TestChirpConfig:
    def test_derived_quantities(self, cfg):
        assert cfg.wavelength_m == pytest.approx(3.893e-3, rel=1e-3)
        assert cfg.range_resolution_m == pytest.approx(0.0416, rel=1e-2)
        assert beat_frequency_hz(cfg, 0.25) == pytest.approx(100e3, rel=1e-3)
        assert cfg.adc_rate_hz == pytest.approx(256 / 60e-6)

    def test_invalid_timing(self):
        with pytest.raises(ValueError):
            ChirpConfig(prf_hz=20000.0)
        with pytest.raises(ValueError):
            ChirpConfig(adc_rate_hz=1e6)  # capture would outlast the chirp


class TestBeatSimulation:
    def test_static_target_beat_bin(self, cfg):
        scene = TargetScene(displacement=displacement(np.zeros(64)))
        beat = simulate_beat_signal(scene, cfg)
        spectrum = range_fft(beat)
        power = np.abs(spectrum[0]) ** 2
        peak = int(np.argmax(power))
        assert peak == cfg.bin_of_range(0.25)
        # beat frequency within one FFT bin of the 100 kHz closed form
        bin_hz = cfg.adc_rate_hz / cfg.adc_samples_per_chirp
        assert abs(peak * bin_hz - 100e3) <= bin_hz
        # direct-DFT leakage oracle: energy concentrates at the peak; a hann
        # taper leaves ~2/3 in the center bin and nearly all within +-1 bin
        assert power[peak] / power.sum() > 0.6
        assert power[peak - 1:peak + 2].sum() / power.sum() > 0.8

    def test_phase_swing_amplitude(self, cfg):
        t = np.arange(200) / 2000.0
        d = 100e-6 * np.sin(2 * np.pi * 100 * t)
        beat = simulate_beat_signal(TargetScene(displacement=displacement(d)), cfg)
        phase = np.unwrap(np.angle(range_fft(beat)[:, cfg.bin_of_range(0.25)]))
        swing = (phase.max() - phase.min()) / 2.0
        # the raw windowed-FFT phase carries the deterministic fast-time
        # group-delay gain on top of the physical 4*pi*d/lambda swing
        group_delay_s = (cfg.adc_samples_per_chirp - 1) / (2.0 * cfg.adc_rate_hz)
        gain = 1.0 + cfg.slope_hz_per_s * cfg.wavelength_m * group_delay_s / C_LIGHT
        physical = 4 * np.pi * 100e-6 / cfg.wavelength_m
        assert physical == pytest.approx(0.3228, rel=1e-3)
        assert swing == pytest.approx(physical * gain, rel=0.005)
        assert swing == pytest.approx(0.3228, rel=0.03)

    def test_two_targets_resolved(self, cfg):
        d0 = displacement(np.zeros(8))
        near = simulate_beat_signal(TargetScene(displacement=d0, nominal_range_m=0.25), cfg)
        far = simulate_beat_signal(TargetScene(displacement=d0, nominal_range_m=0.50), cfg)
        power = np.abs(range_fft(near + far)).mean(axis=0)
        k_near, k_far = cfg.bin_of_range(0.25), cfg.bin_of_range(0.50)
        assert k_far != k_near
        interior = power[k_near + 2:k_far - 1]
        assert power[k_near] > interior.max() and power[k_far] > interior.max()

    def test_displacement_bound_enforced(self, cfg):
        big = displacement(np.full(8, 0.03))   # most of a range bin
        with pytest.raises(ValueError):
            simulate_beat_signal(TargetScene(displacement=big), cfg)

    def test_zero_matrix_fft(self, cfg):
        beat = np.zeros((4, cfg.adc_samples_per_chirp), complex)
        assert np.all(range_fft(beat) == 0.0)


class TestExtractDisplacement:
    def test_unwrap_handles_multicycle_motion(self, cfg):
        # linear ramp spanning several radians of phase: unwrapped output has
        # no 2 pi discontinuities and tracks the ramp
        n = 400
        ramp = np.linspace(0.0, 2e-3, n)   # phase span ~6.5 rad
        d = displacement(ramp - ramp.mean())
        out, _ = measure_displacement(TargetScene(displacement=d), cfg)
        assert np.max(np.abs(np.diff(out.samples))) < cfg.wavelength_m / 4
        err = out.samples - d.samples
        assert np.sqrt(np.mean(err**2)) < 0.02 * np.sqrt(np.mean(d.samples**2))

    def test_roundtrip_sine(self, cfg):
        t = np.arange(1000) / 2000.0
        d = displacement(50e-6 * np.sin(2 * np.pi * 100 * t))
        out, _ = measure_displacement(TargetScene(displacement=d), cfg)
        truth = d.samples - d.samples.mean()
        err = out.samples - truth
        assert np.sqrt(np.mean(err**2)) < 0.02 * np.sqrt(np.mean(truth**2))
        corr = np.corrcoef(out.samples, truth)[0, 1]
        assert corr > 0.999

    def test_amplitude_linearity(self, cfg):
        t = np.arange(500) / 2000.0
        base = 30e-6 * np.sin(2 * np.pi * 120 * t)
        one, _ = measure_displacement(TargetScene(displacement=displacement(base)), cfg)
        two, _ = measure_displacement(TargetScene(displacement=displacement(2 * base)), cfg)
        ratio = np.sqrt(np.mean(two.samples**2) / np.mean(one.samples**2))
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_noise_robustness_20db(self, cfg):
        t = np.arange(2000) / 2000.0
        d = displacement(100e-6 * np.sin(2 * np.pi * 100 * t))
        out, _ = measure_displacement(TargetScene(displacement=d, noise_snr_db=20.0),
                                      cfg, rng=np.random.default_rng(0))
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
        ref = np.abs(np.fft.rfft((d.samples - d.samples.mean()) * np.hanning(len(d))))
        k = np.argmax(ref)
        assert abs(spec[k] / ref[k] - 1.0) < 0.10

    def test_noisy_scene_needs_a_generator(self, cfg):
        scene = TargetScene(displacement=displacement(np.zeros(32)), noise_snr_db=20.0)
        with pytest.raises(ValueError, match="noisy scene draws from rng"):
            measure_displacement(scene, cfg)

    def test_no_coherent_target(self, cfg):
        # a target buried in noise, -20 dB per ADC sample: both chains find
        # no bin five times the floor, and say the same
        scene = TargetScene(displacement=displacement(np.zeros(32)), noise_snr_db=-20.0)
        with pytest.raises(NoCoherentTargetError) as got:
            measure_displacement(scene, cfg, np.random.default_rng(1))
        with pytest.raises(NoCoherentTargetError) as want:
            explicit_chain(scene, cfg, np.random.default_rng(1))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bins", [2.4e-3, 0.2, 0.45])
    def test_every_in_band_target_measured_at_16_samples(self, bins):
        # the fewest ADC samples ChirpConfig takes: a noiseless target at any
        # fraction of any positive bin, vibrating at 120 Hz by `bins` range
        # bins, clears the five-times floor; the worst peak is 89 times its
        # floor, the median of 3 to 5 bins past the main lobe
        cfg = ChirpConfig(adc_samples_per_chirp=16)
        spacing = cfg.range_bin_spacing_m()
        t = np.arange(200) / 2000.0
        d = displacement(bins * spacing * np.sin(2 * np.pi * 120 * t))
        for centre in np.arange(1, 750) / 100:   # bins 0.01 .. 7.49
            scene = TargetScene(displacement=d, nominal_range_m=centre * spacing)
            _, decision = measure_displacement(scene, cfg)
            assert abs(decision["selected_bin"] - centre) <= 2

    def test_prf_mismatch_rejected(self, cfg):
        with pytest.raises(ValueError):
            simulate_beat_signal(
                TargetScene(displacement=displacement(np.zeros(8), rate=1000.0)), cfg)

