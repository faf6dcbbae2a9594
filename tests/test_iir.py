"""signals.iir_filter against scipy.signal.lfilter, its reference, within a
bound derived from the rounding of both computations (lfilter_bound)."""

import numpy as np
import pytest
from scipy.signal import lfilter

from phonoradar.signals import _IIR_BLOCK, SampledSignal, iir_filter
from phonoradar.synth import VocalTractModel, synthesize_speech
from phonoradar.transform import integrate_excitation


def bits(y):
    return np.asarray(y, dtype=np.float64).view(np.int64)


def lfilter_bound(b, a, x):
    """Bound on |iir_filter - lfilter| for the stable filter b(z)/a(z).

    With h the impulse response of 1/a(z), H = sum |h|, B = sum |b| and
    X = max |x|, every output is at most Y = H B X. Each output of either
    computation is a sum of at most K = L + 2p + len(b) + 2 rounded products
    (L the block length, p the order; lfilter's per-sample update has fewer),
    so its local rounding is at most K eps times the sum of their
    magnitudes: B X + |a|_1 Y for lfilter's update, H B X + |O|_inf Y for a
    block's T v + O y_past, with |O|_inf <= |a|_1 H since O is T times the
    map from the past outputs to the first p samples' feedback. An output
    error re-enters later outputs only as the filter's own response: h
    times the local errors for lfilter, h times T^-1 of them for the block
    form, |T^-1|_inf <= |a|_1. So each side is within
    K eps |a|_1 (1 + |a|_1) H^3 B X of the exact output, and the two within
    twice that, bounded here by 2 K eps (1 + |a|_1)^2 H^3 B X.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    impulse = np.zeros(20_000)
    impulse[0] = 1.0
    h_sum = np.sum(np.abs(lfilter([1.0], a, impulse)))
    p = len(a) - 1
    k = max(_IIR_BLOCK, p) + 2 * p + len(b) + 2
    a_sum = np.sum(np.abs(a))
    x_max = np.max(np.abs(x), initial=0.0)
    return (2 * k * np.finfo(float).eps * (1 + a_sum) ** 2 * h_sum ** 3
            * np.sum(np.abs(b)) * x_max)


def assert_within_bound(b, a, x):
    got, want = iir_filter(b, a, x), lfilter(b, a, x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= lfilter_bound(b, a, x)


def stable_a(rng, order):
    """a[0] == 1 with all roots strictly inside the unit circle."""
    n_pairs, n_real = divmod(order, 2)
    radii = rng.uniform(0.3, 0.97, n_pairs)
    angles = rng.uniform(0.05, np.pi - 0.05, n_pairs)
    poles = np.concatenate([radii * np.exp(1j * angles), radii * np.exp(-1j * angles),
                            rng.uniform(-0.95, 0.95, n_real)])
    return np.poly(poles).real


@pytest.mark.parametrize("order", range(1, 9))
def test_random_stable_filters_match_lfilter(order):
    rng = np.random.default_rng(order)
    a = stable_a(rng, order)
    # lengths either side of a block boundary
    for length in (1, _IIR_BLOCK - 1, _IIR_BLOCK, _IIR_BLOCK + 1, 600, 4100):
        x = rng.standard_normal(length)
        for b in ([rng.uniform(0.1, 2.0)], rng.standard_normal(order + 1)):
            assert_within_bound(b, a, x)


@pytest.mark.parametrize("len_b, len_a", [(5, 2), (9, 3), (2, 7), (1, 5), (3, 80)])
def test_unequal_lengths_match_lfilter(len_b, len_a):
    # an order above the block length takes blocks of the order's length
    rng = np.random.default_rng(len_b * 10 + len_a)
    a = stable_a(rng, len_a - 1)
    b = rng.standard_normal(len_b)
    x = rng.standard_normal(400)
    assert_within_bound(b, a, x)


def test_block_form_follows_a_slow_pole_across_blocks():
    # the leaky integrator's pole: its state outlives many blocks
    x = np.random.default_rng(4).standard_normal(4100)
    assert_within_bound([1.0 / 2000.0], [1.0, -0.99], x)
    assert_within_bound([1.0, -1.0], [1.0, -0.995], np.ones(20_000))


def test_zeros_subnormals_and_zero_lead_in_match_lfilter():
    rng = np.random.default_rng(7)
    x = np.concatenate([np.zeros(300), [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -0.0],
                        rng.standard_normal(100), np.full(20, -0.0), [1e-310, -1e-320]])
    for b, a in (([1.0, -1.0], [1.0, -0.9]), ([0.5], stable_a(rng, 6)),
                 ([-1.0, 0.0, 2.0], [1.0, 0.0, -0.25]), ([1.0], [1.0, -0.0])):
        assert_within_bound(b, a, x)
        # the zero lead-in stays zero
        assert not iir_filter(b, a, x)[:300].any()


def test_order_zero_tract_passes_through_keeping_signed_zeros():
    x = np.array([0.25, -0.0, 0.0, -3.0, 5e-324, -0.0])
    e = SampledSignal(x, 2000.0)
    s = synthesize_speech(e, VocalTractModel([]))
    assert np.array_equal(bits(s.samples), bits(x))
    y = iir_filter([2.0], [1.0], x)
    assert np.array_equal(bits(y), bits(x * 2.0))
    # lfilter convolves when len(a) == 1 and so turns -0.0 into +0.0; the
    # values agree, the sign of a zero does not.
    assert np.array_equal(y, lfilter([2.0], [1.0], x))


def test_call_sites_match_lfilter():
    rng = np.random.default_rng(3)
    sig = SampledSignal(rng.standard_normal(500), 2000.0)
    b, a = [1.0 / 2000.0], [1.0, -0.99]
    assert (np.max(np.abs(integrate_excitation(sig.samples, 2000.0, 0.99)
                          - lfilter(b, a, sig.samples)))
            <= lfilter_bound(b, a, sig.samples))
    tract = VocalTractModel(stable_a(rng, 6)[1:], gain=0.7)
    b, a = [0.7], tract.error_filter()
    assert (np.max(np.abs(synthesize_speech(sig, tract).samples - lfilter(b, a, sig.samples)))
            <= lfilter_bound(b, a, sig.samples))


def test_empty_input_and_bad_arguments():
    assert iir_filter([1.0], [1.0, -0.5], np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        iir_filter([1.0], [2.0, -0.5], np.ones(3))
    with pytest.raises(ValueError):
        iir_filter([1.0], [1.0, -0.5], np.ones((2, 3)))


def test_fir_case_agrees_with_lfilter_to_rounding():
    # len(a) == 1: both convolve.
    rng = np.random.default_rng(11)
    b, x = rng.standard_normal(7), rng.standard_normal(300)
    assert np.allclose(iir_filter(b, [1.0], x), lfilter(b, [1.0], x), rtol=0, atol=1e-13)
