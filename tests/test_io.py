import numpy as np
import pytest
from scipy.io import wavfile

from phonoradar.io import read_csv_signal, read_wav, write_csv_signal, write_wav
from phonoradar.signals import SampledSignal


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

