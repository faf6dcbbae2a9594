import struct
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from phonoradar import io
from phonoradar.io import read_csv_signal, read_wav, write_csv_signal, write_wav
from phonoradar.signals import SampledSignal

B = io._CSV_BLOCK


@pytest.fixture
def tone():
    t = np.arange(500) / 2000.0
    return SampledSignal(0.3 * np.sin(2 * np.pi * 120 * t), 2000.0)


def test_wav_float32_roundtrip(tmp_path, tone):
    path = tmp_path / "a.wav"
    write_wav(path, tone)
    back = read_wav(path)
    assert back.rate_hz == tone.rate_hz
    assert np.allclose(back.samples, tone.samples, atol=1e-7)


def test_wav_pcm16_roundtrip(tmp_path, tone):
    path = tmp_path / "a.wav"
    wavfile.write(path, 2000, np.round(tone.samples * 32767.0).astype(np.int16))
    back = read_wav(path)
    assert np.allclose(back.samples, tone.samples, atol=1.0 / 32767)


@pytest.mark.parametrize("data_size", [2**64 - 1, 2**40])
def test_wav_data_size_past_the_end_reads_the_samples_held(tmp_path, data_size):
    # an RF64 data size far past the end of the file, where scipy's reader
    # allocates the size it is told; the read takes what the file holds
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
    path = tmp_path / "s.wav"
    path.write_bytes(b"RF64" + b"\xff" * 4 + b"WAVEds64"
                     + struct.pack("<IQQ", 16, 2**64 - 9, data_size) + b"fmt " + fmt
                     + b"data" + b"\xff" * 4 + np.arange(1, 6, dtype="<i2").tobytes())
    assert np.array_equal(read_wav(path).samples, np.arange(1, 6) / 32768.0)


def test_csv_roundtrip(tmp_path, tone):
    path = tmp_path / "a.csv"
    write_csv_signal(path, tone)
    back = read_csv_signal(path)
    assert back.rate_hz == tone.rate_hz
    assert np.array_equal(back.samples, tone.samples)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("samples\n1.0\n")
    with pytest.raises(ValueError):
        read_csv_signal(path)



def test_csv_bytes_pinned(tmp_path):
    path = tmp_path / "a.csv"
    write_csv_signal(path, SampledSignal(np.array([0.0, -1e-05, 0.1, 1e16]), 2000.0))
    assert path.read_bytes() == b"rate_hz,2000.0\n0.0\n-1e-05\n0.1\n1e+16\n"


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_csv_blocks_roundtrip_bit_exact(tmp_path, n):
    rng = np.random.default_rng(n)
    samples = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    path = tmp_path / "a.csv"
    write_csv_signal(path, SampledSignal(samples, 2000.0))
    body = "".join(f"{v!r}\n" for v in samples.tolist())
    assert path.read_text() == "rate_hz,2000.0\n" + body
    back = read_csv_signal(path)
    assert back.samples.tobytes() == samples.tobytes()


@pytest.mark.parametrize("text", [
    "1.0 2.0\t3.0\n4.0\n",
    "1.0\n\n\n2.5\n   \n-3e-7\n",
    "1.0\r\n2.0\r\n3.0\r\n",
    "1.0\n2.0\n3.0",
    " ".join(repr(0.001 * i) for i in range(3 * B)) + "\n",
])
def test_csv_reads_any_whitespace(tmp_path, text):
    path = tmp_path / "a.csv"
    path.write_bytes(("rate_hz,2000.0\n" + text).encode())
    back = read_csv_signal(path)
    assert back.samples.tobytes() == np.array(text.split(), dtype=float).tobytes()


def test_csv_bad_token_in_last_block(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("rate_hz,2000.0\n" + "0.5\n" * (3 * B) + "0.5x\n")
    with pytest.raises(ValueError, match="bad.csv"):
        read_csv_signal(path)


def test_csv_codec_memory_is_bounded(tmp_path):
    # at 125 and 100 bytes per sample of Python objects, one pass over a
    # 120 000-sample trace peaks at 15.0 MB to write and 12.3 MB to read
    sig = SampledSignal(np.random.default_rng(0).standard_normal(120_000) * 1e-4, 2000.0)
    path = tmp_path / "long.csv"
    peaks = []
    for call in (lambda: write_csv_signal(path, sig), lambda: read_csv_signal(path)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2e6
    assert peaks[1] < 3e6
