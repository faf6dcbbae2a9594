import numpy as np
import pytest

from phonoradar.signals import FramePlan, SampledSignal
from phonoradar.transform import (NoVoicedFramesError, TransformConfig, frame_delays,
                                  frame_voicing, integrate_excitation, transform_speech)

from conftest import make_test_subject, voiced_flags


class TestIntegrateExcitation:
    def test_zero_in_zero_out(self):
        out = integrate_excitation(np.zeros(50), 2000.0, 0.998)
        assert np.all(out == 0.0)

    def test_steady_state_closed_form(self):
        c, pole, rate = 3.0, 0.99, 2000.0
        out = integrate_excitation(np.full(5000, c), rate, pole)
        assert out[-1] == pytest.approx(c / (rate * (1.0 - pole)), rel=1e-6)

    def test_pole_domain(self):
        with pytest.raises(ValueError):
            integrate_excitation(np.ones(10), 2000.0, 1.0)

    def test_roundtrip_recovers_displacement(self, subject):
        # forward-model round trip: the running-sum accumulator reproduces the
        # half-sample-midpoint sequence of x exactly; raw x correlates a bit
        # lower purely through that half-sample offset
        x_hat = integrate_excitation(subject.e.samples / subject.glottal.flow_gain_k,
                                     2000.0, 0.998)
        x = subject.x.samples
        midpoint = 0.5 * (x[:-1] + x[1:])
        got = x_hat[:-1] - x_hat[:-1].mean()
        ref = midpoint - midpoint.mean()
        assert np.corrcoef(got[500:], ref[500:])[0, 1] > 0.99
        raw = x[500:-1] - x[500:-1].mean()
        assert np.corrcoef(got[500:], raw)[0, 1] > 0.94


class TestDetectVoicing:
    """frame_voicing on one-row stacks."""

    def test_pure_tone(self):
        t = np.arange(100) / 2000.0
        voiced, f0 = frame_voicing(np.sin(2 * np.pi * 100 * t)[None, :], 2000.0, 0.5)
        assert voiced[0]
        assert f0[0] == pytest.approx(100.0, abs=2.0)

    def test_white_noise_mostly_unvoiced(self, rng):
        flagged = sum(frame_voicing(rng.standard_normal((1, 50)), 2000.0, 0.5)[0][0]
                      for _ in range(300))
        assert flagged < 0.1 * 300

    def test_silence(self):
        voiced, f0 = frame_voicing(np.zeros((1, 50)), 2000.0, 0.5)
        assert not voiced[0] and np.isnan(f0[0])

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            frame_voicing(np.ones((1, 20)), 2000.0, 0.5)

    def test_speech_frames_voiced(self, subject):
        frame = subject.s.samples[1000:1050]
        voiced, f0 = frame_voicing(frame[None, :], 2000.0, 0.5)
        assert voiced[0]
        assert f0[0] == pytest.approx(150.0, abs=10.0)


class TestEstimateDelay:
    """frame_delays on one-row stacks."""

    def test_shift_identity(self, rng):
        x = rng.standard_normal(50)
        d = np.zeros(50)
        d[3:] = x[:-3]
        tau, peak, defined = frame_delays(x[None, :], d[None, :], 10)
        assert defined[0]
        assert tau[0] == 3 and peak[0] > 0.9

    def test_zero_delay(self, rng):
        x = rng.standard_normal(50)
        tau, peak, defined = frame_delays(x[None, :], x[None, :], 10)
        assert defined[0]
        assert tau[0] == 0 and peak[0] == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        _, _, defined = frame_delays(np.ones((1, 50)), np.zeros((1, 50)), 5)
        assert not defined[0]


class TestTransform:
    def test_output_shapes_and_counts(self, subject):
        traces, record = transform_speech(subject.s, subject.d)
        plan = FramePlan.for_rate(2000.0)
        assert len(traces["e_hat"]) == len(subject.s)
        assert len(traces["x_hat"]) == len(subject.s)
        assert len(traces["d_hat"]) == len(subject.s)
        assert len(record["per_frame"]) == record["n_frames"] == plan.n_frames(len(subject.s))
        assert record["n_voiced"] == sum(r["voiced"] for r in record["per_frame"]) > 0

    def test_delay_recovered(self):
        for tau in (0, 1, 2, 4):
            subj = make_test_subject(seed=5, tau_samples=tau)
            _, record = transform_speech(subj.s, subj.d, known_tract=subj.tract)
            assert record["global_tau_samples"] == tau

    def test_bypass_reconstruction_tracks_truth(self, subject):
        d_ref = SampledSignal(subject.d.samples - subject.d.samples.mean(), 2000.0)
        traces, _ = transform_speech(subject.s, d_ref, known_tract=subject.tract)
        interior = slice(300, len(subject.s) - 300)
        corr = np.corrcoef(traces["d_hat"].samples[interior], d_ref.samples[interior])[0, 1]
        assert corr > 0.99

    def test_lpc_mode_orders_before_raw_speech(self, subject):
        from phonoradar.metrics import lsd_over_windows
        d_ref = SampledSignal(subject.d.samples - subject.d.samples.mean(), 2000.0)
        traces, record = transform_speech(subject.s, d_ref)
        plan = FramePlan.for_rate(2000.0)
        _, _, lsd = lsd_over_windows(d_ref, {"model": traces["d_hat"], "raw": subject.s}, plan,
                                     voiced_flags(record))
        assert np.mean(lsd["model"]) < np.mean(lsd["raw"])

    def test_all_silence_errors(self):
        silent = SampledSignal(np.zeros(2000), 2000.0)
        # 2000 samples in 50-sample windows at a 25-sample hop
        with pytest.raises(NoVoicedFramesError, match="all 79 frames unvoiced or silent"):
            transform_speech(silent, silent)

    def test_scale_invariance(self, subject):
        d_ref = SampledSignal(subject.d.samples - subject.d.samples.mean(), 2000.0)
        base, base_record = transform_speech(subject.s, d_ref)
        scaled, scaled_record = transform_speech(SampledSignal(37.0 * subject.s.samples, 2000.0),
                                                 d_ref)
        assert np.array_equal(voiced_flags(base_record), voiced_flags(scaled_record))
        assert base_record["global_tau_samples"] == scaled_record["global_tau_samples"]
        taus_a = [r["tau_d_samples"] for r in base_record["per_frame"]]
        taus_b = [r["tau_d_samples"] for r in scaled_record["per_frame"]]
        assert taus_a == taus_b
        assert np.allclose(base["d_hat"].samples, scaled["d_hat"].samples, atol=1e-9)

    def test_sustained_phonation_mostly_voiced(self, subject):
        _, record = transform_speech(subject.s, subject.d)
        mask = voiced_flags(record)
        interior = mask[5:-5]
        assert np.mean(interior) >= 0.95

    def test_per_frame_tau_mode(self, subject):
        traces, record = transform_speech(subject.s, subject.d,
                                          TransformConfig(tau_mode="per-frame"))
        assert len(traces["d_hat"]) == len(subject.s)
        voiced_taus = [r["tau_d_samples"] for r in record["per_frame"]
                       if r["voiced"] and r["tau_d_samples"] is not None]
        assert len(voiced_taus) > 0

    def test_leaky_integration_mode(self, subject):
        traces, _ = transform_speech(subject.s, subject.d,
                                     TransformConfig(integration="leaky"))
        assert np.all(np.isfinite(traces["x_hat"].samples))

    def test_rate_mismatch_rejected(self, subject):
        other = SampledSignal(subject.d.samples, 4000.0)
        with pytest.raises(ValueError):
            transform_speech(subject.s, other)

    def test_length_mismatch_rejected(self, subject):
        short = SampledSignal(subject.d.samples[:-10], 2000.0)
        with pytest.raises(ValueError):
            transform_speech(subject.s, short)

    def test_delay_median_within_one_sample_lpc(self):
        # realistic path: per-frame LPC delay estimates stay within a sample
        errors = []
        for seed, tau in zip(range(6), (0, 1, 2, 4, 2, 1)):
            subj = make_test_subject(seed=40 + seed, tau_samples=tau,
                                     f0=110.0 + 25 * seed)
            _, record = transform_speech(subj.s, subj.d)
            errors.append(abs(record["global_tau_samples"] - tau))
        assert np.median(errors) <= 1
