import numpy as np
import pytest
from scipy.signal import freqz, lfilter

from phonoradar.lpc import (MAX_POLE_RADIUS, LevinsonError, autocorrelation, fit_envelopes,
                            lag_window, levinson_durbin)
from phonoradar.metrics import normalized_power_spectra
from phonoradar.signals import SampledSignal, hann_window
from phonoradar.synth import GlottalConfig, NeckChannel, make_subject, random_vocal_tract
from phonoradar.transform import TransformConfig, transform_speech


def plain_lpc(frame, order):
    """Unregularized all-pole model of one frame: Hann taper, biased
    autocorrelation per sample, Levinson-Durbin."""
    frame = np.asarray(frame, dtype=np.float64)
    r = autocorrelation(frame * hann_window(len(frame)), order)
    return levinson_durbin(r / len(frame), order)


def error_filter(frame, order):
    """Unregularized error filter [1, a_1..a_p] of one frame."""
    return np.concatenate(([1.0], plain_lpc(frame, order).coefficients))


def fit(frames, f0_hz, order=6, pre_emphasis=0.9, rate_hz=2000.0):
    """fit_envelopes over a stack whose rows are voiced where f0 is finite,
    with zero history."""
    frames = np.atleast_2d(frames)
    f0 = np.asarray(f0_hz, dtype=np.float64)
    return fit_envelopes(frames, np.zeros(len(frames)), np.isfinite(f0), f0, rate_hz,
                         order, pre_emphasis)


def inverse_filter(frame, taps):
    """FIR prediction-error filter e[n] = x[n] + sum a_i x[n-i], zero initial state."""
    return np.convolve(taps, frame)[:len(frame)]


def spectral_flatness(frame):
    """Geometric over arithmetic mean of the normalized power spectrum."""
    bins = normalized_power_spectra(np.asarray(frame)[None, :])[0][0]
    return float(np.exp(np.mean(np.log(bins))) / np.mean(bins))


class TestAutocorrelation:
    def test_unit_impulse(self):
        frame = np.zeros(16)
        frame[0] = 1.0
        r = autocorrelation(frame, 5)
        assert r[0] == 1.0 and np.all(r[1:] == 0.0)

    def test_constant_frame_closed_form(self):
        length = 20
        r = autocorrelation(np.ones(length), 6)
        assert np.array_equal(r, length - np.arange(7))

    def test_matches_double_loop(self, rng):
        x = rng.standard_normal(120)
        r = autocorrelation(x, 10)
        brute = np.array([sum(x[n] * x[n + k] for n in range(120 - k))
                          for k in range(11)])
        assert np.allclose(r, brute, rtol=1e-12, atol=1e-12)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(5), 5)


class TestLevinsonDurbin:
    def test_white_input(self):
        m = levinson_durbin(np.array([1.0, 0.0, 0.0, 0.0]), 3)
        assert np.allclose(m.coefficients, 0.0)
        assert m.gain == pytest.approx(1.0)

    def test_ar2_yule_walker_oracle(self):
        # AR(2) with predictor coefficients (1.0, -0.5): exact Yule-Walker
        # autocovariance is r = (2.4, 1.6, 0.4); in the error-filter
        # convention A(z) = 1 + a1 z^-1 + a2 z^-2 the solution is (-1.0, 0.5).
        m = levinson_durbin(np.array([2.4, 1.6, 0.4]), 2)
        assert np.allclose(m.coefficients, [-1.0, 0.5], atol=1e-12)
        assert m.gain == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_toeplitz_solve(self, rng):
        from scipy.linalg import toeplitz
        for _ in range(60):
            order = int(rng.integers(2, 13))
            x = rng.standard_normal(int(rng.integers(4 * order, 200)))
            r = autocorrelation(x, order)
            m = levinson_durbin(r, order)
            dense = np.linalg.solve(toeplitz(r[:order]), -r[1:order + 1])
            assert np.linalg.norm(m.coefficients - dense) <= \
                1e-10 * max(np.linalg.norm(dense), 1e-30)

    def test_r0_must_be_positive(self):
        with pytest.raises(LevinsonError):
            levinson_durbin(np.array([0.0, 0.0]), 1)

    def test_singular_names_stage(self):
        # r for a pure cosine at the Nyquist rate is singular at stage 2
        r = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(LevinsonError, match="stage"):
            levinson_durbin(r, 3)

    def test_reflection_magnitudes(self, rng):
        for _ in range(20):
            x = rng.standard_normal(150)
            m = levinson_durbin(autocorrelation(x, 8), 8)
            assert np.all(np.abs(m.reflection) < 1.0)

    def test_order_monotone_gain(self, rng):
        x = rng.standard_normal(400)
        r = autocorrelation(x, 12)
        gains = [levinson_durbin(r, p).gain for p in range(1, 13)]
        assert all(g1 <= g0 + 1e-12 for g0, g1 in zip(gains, gains[1:]))


class TestLpcAnalyze:
    def test_ar6_recovery(self):
        poles = [0.85 * np.exp(2j * np.pi * 250 / 2000),
                 0.80 * np.exp(2j * np.pi * 500 / 2000),
                 0.75 * np.exp(2j * np.pi * 800 / 2000)]
        a = np.poly(np.concatenate([poles, np.conj(poles)])).real
        u = np.random.default_rng(0).standard_normal(4096 + 500)
        s = lfilter([1.0], a, u)[500:]
        r = autocorrelation(s, 6)
        r *= len(s) / (len(s) - np.arange(7))   # unbiased normalization
        m = levinson_durbin(r / len(s), 6)
        assert np.max(np.abs(m.coefficients - a[1:])) < 0.02

    def test_silent_frame_flagged(self):
        orders, taps, gains, silent = fit(np.zeros((2, 64)), [200.0, np.nan])
        assert silent[0] and not silent[1]   # an unvoiced row is not fitted at all
        assert not taps.any() and not gains.any()

    def test_voiced_frame_envelope(self):
        # Pulse-excited known tract, 25 ms frame, order 6: the gain-aligned
        # LPC envelope tracks the true one over the excited band. Pulse
        # excitation biases the fit, so only median closeness is claimed.
        rng = np.random.default_rng(7)
        tract = random_vocal_tract(rng)
        subj = make_subject(GlottalConfig(f0_hz=210.0), NeckChannel(),
                            tract, 1.0, 2000.0, seed=7)
        taps = error_filter(subj.s.samples[1000:1050], 6)
        w = np.linspace(np.pi * 150 / 1000, np.pi * 850 / 1000, 150)
        _, h_true = freqz([1.0], tract.error_filter(), worN=w)
        _, h_est = freqz([1.0], taps, worN=w)
        true_db = 20 * np.log10(np.abs(h_true))
        est_db = 20 * np.log10(np.abs(h_est))
        diff = (est_db - est_db.mean()) - (true_db - true_db.mean())
        assert np.median(np.abs(diff)) < 2.0

    def test_whitening_invariant(self, rng):
        # residual of a long AR frame is nearly white
        a = np.poly([0.8 * np.exp(0.9j), 0.8 * np.exp(-0.9j),
                     0.7 * np.exp(2.0j), 0.7 * np.exp(-2.0j)]).real
        s = lfilter([1.0], a, rng.standard_normal(4000))
        residual = inverse_filter(s, error_filter(s, 4))[4:]
        r = autocorrelation(residual, 4)
        assert np.all(np.abs(r[1:] / r[0]) < 0.1)

    def test_short_frame_rejected(self):
        # a 25 ms frame at 2 kHz has 50 samples: four per coefficient allow
        # order 12, whatever the pitch
        s = SampledSignal(np.ones(400), 2000.0)
        with pytest.raises(ValueError, match="lpc_order 13 too high for the 50-sample"):
            transform_speech(s, s, TransformConfig(lpc_order=13))

    def test_order_capped_below_pitch_period(self, rng):
        # 2000/500 = 4 samples per period: order 6 is capped to 3; 100 Hz
        # leaves it at 6; an unvoiced row gets order 0 and zero taps
        frames = rng.standard_normal((3, 50))
        orders, taps, gains, silent = fit(frames, [100.0, 500.0, np.nan])
        assert orders.tolist() == [6, 3, 0] and taps.shape == (3, 7)
        assert taps[:2, 0].tolist() == [1.0, 1.0] and not taps[1, 4:].any()
        assert not taps[2].any() and gains[2] == 0.0 and (gains[:2] > 0).all()
        assert not silent.any()

    def test_pitch_cap_never_raises_the_order(self, rng):
        # at order 2 an 800 Hz frame (2.5 samples per period) keeps order 2:
        # the cap's floor of 3 applies only below the configured order
        orders, taps, _, _ = fit(rng.standard_normal((1, 50)), [800.0], order=2)
        assert orders.tolist() == [2] and taps.shape == (1, 3)

    def test_batch_matches_row_by_row(self, rng):
        frames = rng.standard_normal((8, 50))
        f0 = np.array([100.0, 500.0, np.nan, 150.0, 400.0, 90.0, 650.0, 300.0])
        history = rng.standard_normal(8)
        whole = fit_envelopes(frames, history, np.isfinite(f0), f0, 2000.0, 8, 0.9)
        for i in range(8):
            row = fit_envelopes(frames[i:i + 1], history[i:i + 1], np.isfinite(f0[i:i + 1]),
                                f0[i:i + 1], 2000.0, 8, 0.9)
            width = row[1].shape[1]
            assert whole[0][i] == row[0][0] and whole[2][i] == row[2][0]
            assert whole[1][i, :width].tobytes() == row[1][0].tobytes()
            assert not whole[1][i, width:].any()

    def test_poles_held_inside_the_clamp_radius(self, rng):
        # a near-unit-circle resonance: the clamp pulls its poles to the radius
        a = np.poly([0.995 * np.exp(0.8j), 0.995 * np.exp(-0.8j)]).real
        frames = lfilter([1.0], a, rng.standard_normal((4, 600)), axis=1)[:, -50:]
        _, taps, _, _ = fit(frames, [100.0] * 4, pre_emphasis=0.0)
        for row in taps:
            assert np.max(np.abs(np.roots(row))) <= MAX_POLE_RADIUS + 1e-9

    def test_lag_window_shape(self):
        w = lag_window(6, 20.0, 2000.0)
        assert w[0] == 1.0 and np.all(np.diff(w) < 0) and w[-1] > 0.9


class TestInverseFilter:
    def test_inverse_then_synthesis_reproduces_frame(self, rng):
        frame = lfilter([1.0], [1.0, -0.6, 0.3],
                        rng.standard_normal(300))
        taps = error_filter(frame, 6)
        residual = inverse_filter(frame, taps)
        back = lfilter([1.0], taps, residual)
        assert np.max(np.abs(back[6:] - frame[6:])) < 1e-9

    def test_residual_is_spectrally_flatter(self, rng):
        tract = random_vocal_tract(np.random.default_rng(5))
        subj = make_subject(GlottalConfig(f0_hz=130.0), NeckChannel(),
                            tract, 1.0, 2000.0, seed=5)
        frame = subj.s.samples[800:850]
        residual = inverse_filter(frame, error_filter(frame, 6))
        assert spectral_flatness(residual) > spectral_flatness(frame)

    def test_synthesis_impulse_response_decays(self, rng):
        x = rng.standard_normal(400)
        model = plain_lpc(x, 8)
        taps = np.concatenate(([1.0], model.coefficients))
        impulse = np.zeros(400)
        impulse[0] = 1.0
        h = lfilter([model.gain], taps, impulse)
        assert np.max(np.abs(h[300:])) < np.max(np.abs(h[:50]))
        assert np.all(np.abs(np.roots(taps)) < 1.0)
