"""Round-trip properties of the signal file formats, the .npy trace reader's
refusals, and the WAV codec against scipy.io.wavfile, its reference: the
same bytes written, the same samples read, and ValueError wherever the
scipy-based reader failed."""

import io
import pickle
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile

from phonoradar.io import (read_csv_signal, read_npy_signal, read_wav, write_csv_signal,
                           write_npy_signal, write_wav)
from phonoradar.signals import SampledSignal

SCIPY_WAVS = sorted((Path(scipy.io.__file__).parent / "tests" / "data").glob("*.wav"))

finite = st.floats(allow_nan=False, allow_infinity=False)
signals = hnp.arrays(np.float64, st.integers(0, 200), elements=finite)
unit_signals = hnp.arrays(np.float64, st.integers(0, 200),
                          elements=st.floats(-1.0, 1.0, width=64))
rates = st.integers(1, 192_000)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def scipy_reference(path):
    """First channel as float64 through scipy.io.wavfile.read, with the
    int16 / int32 / float scaling read_wav had when it was built on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate, data = wavfile.read(path)
    if data.ndim > 1:
        data = data[:, 0]
    if data.dtype == np.int16:
        return rate, data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        return rate, data.astype(np.float64) / 2147483648.0
    if data.dtype in (np.float32, np.float64):
        return rate, data.astype(np.float64)
    raise ValueError(f"unsupported WAV sample format {data.dtype}")


def assert_reads_like_scipy(path):
    try:
        rate, expected = scipy_reference(path)
    except Exception:   # scipy's reader also raised struct.error, IndexError, ...
        with pytest.raises(ValueError):
            read_wav(path)
        return
    got = read_wav(path)
    assert got.rate_hz == rate
    assert np.array_equal(bits(got.samples), bits(expected))


@settings(max_examples=60, deadline=None)
@given(samples=signals, rate=finite.filter(lambda r: r > 0))
def test_csv_round_trips_exactly(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    write_csv_signal(path, SampledSignal(samples, rate))
    back = read_csv_signal(path)
    assert back.rate_hz == rate
    assert np.array_equal(bits(back.samples), bits(samples))


def test_csv_round_trips_edge_values(tmp_path):
    samples = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e308, -1e308, np.finfo(np.float64).max, 0.1, 1 / 3])
    for x in (samples, np.array([])):
        write_csv_signal(tmp_path / "s.csv", SampledSignal(x, 2000.0))
        assert np.array_equal(bits(read_csv_signal(tmp_path / "s.csv").samples), bits(x))
    assert (tmp_path / "s.csv").read_text() == "rate_hz,2000.0\n"


def test_csv_rejects_non_numeric_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("rate_hz,2000.0\n0.5\nabc\n")
    with pytest.raises(ValueError):
        read_csv_signal(path)


@settings(max_examples=60, deadline=None)
@given(samples=signals, rate=finite.filter(lambda r: r > 0))
def test_npy_round_trips_exactly(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("npy") / "s.npy"
    write_npy_signal(path, SampledSignal(samples, rate))
    back = read_npy_signal(path, rate)
    assert back.rate_hz == rate
    assert np.array_equal(bits(back.samples), bits(samples))


def test_npy_round_trips_edge_values(tmp_path):
    samples = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e308, -1e308, np.finfo(np.float64).max, 0.1, 1 / 3])
    for x in (samples, np.array([])):
        # No .npy suffix: the file is written at exactly the given path.
        write_npy_signal(tmp_path / "s", SampledSignal(x, 2000.0))
        assert np.array_equal(bits(read_npy_signal(tmp_path / "s", 2000.0).samples), bits(x))


def saved(save, *args, **kwargs):
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


GOOD_NPY = saved(np.save, np.linspace(-1.0, 1.0, 8))
# Each is refused by np.load (EOFError, ValueError, BadZipFile) or is not a
# 1-D float64 array.
BAD_NPY = {
    "empty": b"",
    "cut-in-magic": GOOD_NPY[:4],
    "cut-in-header": GOOD_NPY[:40],
    "cut-in-data": GOOD_NPY[:-3],
    "garbled": b"rate_hz,2000.0\n0.5\n",
    "garbled-header": GOOD_NPY[:10] + b"x" * (len(GOOD_NPY) - 10),
    "object-dtype": saved(np.save, np.array([1.0, None], dtype=object), allow_pickle=True),
    "zip-prefix": b"PK\x03\x04" + GOOD_NPY,
    "npz-archive": saved(np.savez, samples=np.zeros(4)),
    "int64": saved(np.save, np.arange(4)),
    "two-dimensional": saved(np.save, np.zeros((2, 2))),
}


@pytest.mark.parametrize("name", BAD_NPY)
def test_bad_npy_is_value_error_naming_the_path(tmp_path, name):
    path = tmp_path / f"{name}.npy"
    path.write_bytes(BAD_NPY[name])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_npy_signal(path, 2000.0)


def test_unreadable_npy_path_is_value_error(tmp_path):
    path = tmp_path / "dir.npy"
    path.mkdir()   # open() raises IsADirectoryError, an OSError
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_npy_signal(path, 2000.0)


def test_unpickling_error_is_value_error(tmp_path, monkeypatch):
    # np.load documents UnpicklingError, but raises it only with
    # allow_pickle=True, so no file provokes it here.
    path = tmp_path / "s.npy"
    path.write_bytes(GOOD_NPY)

    def failing_load(*args, **kwargs):
        raise pickle.UnpicklingError("boom")

    monkeypatch.setattr(np, "load", failing_load)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_npy_signal(path, 2000.0)


@settings(max_examples=60, deadline=None)
@given(samples=unit_signals, rate=rates)
def test_float32_wav_round_trips_to_float32(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("wav") / "s.wav"
    write_wav(path, SampledSignal(samples, rate))
    back = read_wav(path)
    assert back.rate_hz == rate
    assert np.array_equal(back.samples, samples.astype(np.float32).astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(samples=signals, rate=rates)
def test_wav_bytes_match_scipy_writer(tmp_path_factory, samples, rate):
    d = tmp_path_factory.mktemp("wav")
    with np.errstate(over="ignore"):
        write_wav(d / "ours.wav", SampledSignal(samples, rate))
        wavfile.write(d / "scipy.wav", rate, samples.astype(np.float32))
    assert (d / "ours.wav").read_bytes() == (d / "scipy.wav").read_bytes()


@settings(max_examples=80, deadline=None)
@given(dtype=st.sampled_from(["int16", "int32", "float32", "float64"]),
       channels=st.integers(1, 3), frames=st.integers(0, 60), rate=rates,
       seed=st.integers(0, 2**32 - 1))
def test_wav_reads_like_scipy(tmp_path_factory, dtype, channels, frames, rate, seed):
    rng = np.random.default_rng(seed)
    if dtype.startswith("int"):
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, (frames, channels), endpoint=True, dtype=dtype)
    else:
        data = rng.uniform(-1.5, 1.5, (frames, channels)).astype(dtype)
    path = tmp_path_factory.mktemp("wav") / "s.wav"
    wavfile.write(path, rate, data[:, 0] if channels == 1 else data)
    assert_reads_like_scipy(path)


def pcm24_extensible(path, rate, frames):
    """24-bit PCM in 3-byte containers with a WAVE_FORMAT_EXTENSIBLE header
    and a LIST chunk before the data, the layouts scipy cannot write."""
    channels = frames.shape[1]
    raw = frames.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    guid = struct.pack("<I", 1) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * 3 * channels,
                      3 * channels, 24, 22, 24, 0) + guid
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"LIST" + struct.pack("<I", 3)
            + b"abc\x00" + b"data" + struct.pack("<I", len(raw)) + raw)
    if len(raw) % 2:
        body += b"\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


@settings(max_examples=40, deadline=None)
@given(channels=st.integers(1, 3), n=st.integers(0, 40), rate=rates,
       seed=st.integers(0, 2**32 - 1))
def test_pcm24_extensible_reads_like_scipy(tmp_path_factory, channels, n, rate, seed):
    frames = np.random.default_rng(seed).integers(-2**23, 2**23, (n, channels))
    path = tmp_path_factory.mktemp("wav") / "s.wav"
    pcm24_extensible(path, rate, frames)
    assert_reads_like_scipy(path)
    assert np.array_equal(read_wav(path).samples, frames[:, 0] / 2.0**23)


@pytest.mark.parametrize("path", SCIPY_WAVS, ids=lambda p: p.name)
def test_scipy_test_files_read_alike(path):
    # RF64, RIFX, EXTENSIBLE, 8/12/20/24/36-64-bit and cut-short files.
    assert_reads_like_scipy(path)


def test_every_truncation_reads_alike(tmp_path):
    write_wav(tmp_path / "float32.wav", SampledSignal(np.sin(np.arange(9.0)), 8000.0))
    wavfile.write(tmp_path / "pcm16.wav", 8000,
                  np.round(np.cos(np.arange(10.0)) * 32767.0).astype(np.int16))
    for encoding in ("float32", "pcm16"):
        blob = (tmp_path / f"{encoding}.wav").read_bytes()
        for cut in range(len(blob) + 1):
            path = tmp_path / f"{encoding}_{cut}.wav"
            path.write_bytes(blob[:cut])
            assert_reads_like_scipy(path)


def riff(*chunks, riff_size=None):
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data
                              + b"\x00" * (len(data) % 2) for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body) if riff_size is None else riff_size) + body


def fmt(tag, channels, rate, width, bits):
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * width * channels,
                                width * channels, bits)


ODD_LAYOUTS = {
    "stereo-partial-frame": riff(fmt(1, 2, 8000, 2, 16), (b"data", bytes(6))),
    # After an odd data chunk the reader resumes after whole containers plus
    # the pad byte, which here lands mid-chunk or on the next fmt chunk.
    "pcm16-odd-data-then-fmt": riff(fmt(1, 1, 8000, 2, 16), (b"data", bytes(range(1, 6))),
                                    fmt(1, 1, 4000, 2, 16)),
    "pcm24-odd-data-then-fmt": riff(fmt(1, 1, 8000, 3, 24), (b"data", bytes(range(1, 4))),
                                    fmt(1, 1, 4000, 3, 24)),
    "junk-fact-list-chunks": riff((b"JUNK", bytes(3)), fmt(3, 1, 8000, 4, 32),
                                  (b"fact", struct.pack("<I", 2)),
                                  (b"data", np.float32([0.5, -0.25]).tobytes()), (b"LIST", b"abc")),
    "data-before-fmt": riff((b"data", bytes(4)), fmt(1, 1, 8000, 2, 16)),
    "zero-channels": riff(fmt(1, 0, 8000, 2, 16), (b"data", bytes(4))),
    "float16": riff(fmt(3, 1, 8000, 2, 16), (b"data", bytes(4))),
    "odd-fmt-size": riff((b"fmt ", fmt(1, 1, 8000, 2, 16)[1] + b"\x07"),
                         (b"data", bytes(range(1, 5)))),
    "data-then-partial-chunk-id": riff(fmt(1, 1, 8000, 2, 16), (b"data", bytes(range(1, 5))),
                                       riff_size=42) + b"LI",
    "riff-size-short-of-data": riff(fmt(1, 1, 8000, 2, 16), (b"data", bytes(4)), riff_size=28),
}


@pytest.mark.parametrize("name", ODD_LAYOUTS)
def test_odd_chunk_layouts_read_alike(tmp_path, name):
    path = tmp_path / "s.wav"
    path.write_bytes(ODD_LAYOUTS[name])
    assert_reads_like_scipy(path)


def test_oversized_wav_is_refused(tmp_path):
    with pytest.raises(ValueError):
        write_wav(tmp_path / "s.wav", SampledSignal(np.zeros(4), 2**31))
