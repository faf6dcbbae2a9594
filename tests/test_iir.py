"""signals.iir_filter against scipy.signal.lfilter, its reference: bit for
bit wherever lfilter runs its transposed direct form II (len(a) > 1)."""

import numpy as np
import pytest
from scipy.signal import lfilter

from phonoradar.signals import SampledSignal, iir_filter
from phonoradar.synth import VocalTractModel, synthesize_speech
from phonoradar.transform import integrate_excitation


def bits(y):
    return np.asarray(y, dtype=np.float64).view(np.int64)


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
    x = rng.standard_normal(600)
    for b in ([rng.uniform(0.1, 2.0)], rng.standard_normal(order + 1)):
        assert np.array_equal(bits(iir_filter(b, a, x)), bits(lfilter(b, a, x)))


@pytest.mark.parametrize("len_b, len_a", [(5, 2), (9, 3), (2, 7), (1, 5)])
def test_unequal_lengths_match_lfilter(len_b, len_a):
    rng = np.random.default_rng(len_b * 10 + len_a)
    a = stable_a(rng, len_a - 1)
    b = rng.standard_normal(len_b)
    x = rng.standard_normal(400)
    assert np.array_equal(bits(iir_filter(b, a, x)), bits(lfilter(b, a, x)))


def test_zeros_subnormals_and_zero_lead_in_match_lfilter():
    rng = np.random.default_rng(7)
    x = np.concatenate([np.zeros(300), [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -0.0],
                        rng.standard_normal(100), np.full(20, -0.0), [1e-310, -1e-320]])
    for b, a in (([1.0, -1.0], [1.0, -0.9]), ([0.5], stable_a(rng, 6)),
                 ([-1.0, 0.0, 2.0], [1.0, 0.0, -0.25]), ([1.0], [1.0, -0.0])):
        assert np.array_equal(bits(iir_filter(b, a, x)), bits(lfilter(b, a, x)))


def test_order_zero_tract_passes_through_keeping_signed_zeros():
    x = np.array([0.25, -0.0, 0.0, -3.0, 5e-324, -0.0])
    e = SampledSignal(x, 2000.0, "excitation")
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
    assert np.array_equal(bits(integrate_excitation(sig, 0.99).samples),
                          bits(lfilter([1.0 / 2000.0], [1.0, -0.99], sig.samples)))
    tract = VocalTractModel(stable_a(rng, 6)[1:], gain=0.7)
    assert np.array_equal(bits(synthesize_speech(sig, tract).samples),
                          bits(lfilter([0.7], tract.error_filter(), sig.samples)))


def test_empty_input_and_bad_arguments():
    assert iir_filter([1.0], [1.0, -0.5], np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        iir_filter([1.0], [2.0, -0.5], np.ones(3))
    with pytest.raises(ValueError):
        iir_filter([1.0], [1.0, -0.5], np.ones((2, 3)))


def test_fir_case_agrees_with_lfilter_to_rounding():
    # len(a) == 1: lfilter convolves, iir_filter keeps its recursion.
    rng = np.random.default_rng(11)
    b, x = rng.standard_normal(7), rng.standard_normal(300)
    assert np.allclose(iir_filter(b, [1.0], x), lfilter(b, [1.0], x), rtol=0, atol=1e-13)
