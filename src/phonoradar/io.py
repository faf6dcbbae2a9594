"""File formats: WAV for speech (written as float32, read from PCM or
float), CSV for displacement traces, and .npy float64 for traces whose rate
is kept in a JSON record beside them."""

from __future__ import annotations

import pickle
import struct
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .signals import SampledSignal

__all__ = [
    "read_wav", "write_wav",
    "read_csv_signal", "write_csv_signal",
    "read_npy_signal", "write_npy_signal",
    "naming",
    "SUBJECT_MANIFEST", "SUBJECT_FILES",
]

# A subject directory: its record, and the file of each trace synth writes.
# The ground truth no stage reads (fold displacement, excitation) is binary;
# its rate is subject.json's rate_hz.
SUBJECT_MANIFEST = "subject.json"
SUBJECT_FILES = {
    "speech": "speech.wav",
    "vocal_fold": "vocal_fold.npy",
    "excitation": "excitation.npy",
    "neck_true": "neck_true.csv",
}

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# Shared tail of the WAVE_FORMAT_EXTENSIBLE subformat GUIDs
# {XXXXXXXX-0000-0010-8000-00AA00389B71}; the first 4 bytes hold the format tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_U32_MAX = 0xFFFFFFFF
# Samples per block of a CSV trace, about 125 KB of Python floats and
# strings; the reader takes 25 characters a sample, the longest float repr
# and its newline.
_CSV_BLOCK = 1024


@contextmanager
def naming(what):
    """Re-raise a ValueError raised in the block with what (a file, the
    files of a pair, a subject directory) in front, so that every data
    error names its file or subject."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def write_wav(path: str | Path, sig: SampledSignal) -> None:
    """Mono IEEE float32 RIFF/WAVE file, byte for byte as
    scipy.io.wavfile.write lays it out: an 18-byte fmt chunk (cbSize 0) and
    a fact chunk."""
    rate = int(round(sig.rate_hz))
    if abs(rate - sig.rate_hz) > 1e-6:
        raise ValueError("WAV requires an integer sample rate; use CSV instead")
    data = sig.samples.astype("<f4")
    # The RIFF size counts from 'WAVE': 4 + fmt chunk 26 + fact chunk 12
    # + data header 8 + the samples.
    riff_size = 50 + data.nbytes
    if riff_size > _U32_MAX or rate * 4 > _U32_MAX:
        raise ValueError("signal too large for a RIFF WAV file")
    fmt = struct.pack("<HHIIHH", _IEEE_FLOAT, 1, rate, rate * 4, 4, 32)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE"
                 + b"fmt " + struct.pack("<I", 18) + fmt + b"\x00\x00"
                 + b"fact" + struct.pack("<II", 4, len(data))
                 + b"data" + struct.pack("<I", data.nbytes))
        fh.write(data.tobytes())


def read_wav(path: str | Path) -> SampledSignal:
    """First channel of a PCM 16/24/32-bit or IEEE float 32/64-bit WAV file
    (plain, WAVE_FORMAT_EXTENSIBLE or RF64), as float64; PCM is scaled by
    1/32768 (16-bit) or 1/2**31 (24- and 32-bit, left-justified).

    The chunk walk follows scipy.io.wavfile.read: other chunks are skipped,
    and a data chunk cut short by the end of the file yields the whole
    samples it holds. Any other file raises ValueError naming the path.
    """
    with open(path, "rb") as fh, naming(path):
        rate, samples = _parse_wav(fh)
        return SampledSignal(samples, float(rate))


def _unpack(fh, layout: str) -> tuple:
    size = struct.calcsize(layout)
    raw = fh.read(size)
    if len(raw) < size:
        raise ValueError("WAV file ends inside a header field")
    return struct.unpack(layout, raw)


def _parse_wav(fh) -> tuple[int, np.ndarray]:
    """(rate, first channel) of the open binary WAV file fh."""
    kind = fh.read(4)
    if kind == b"RIFF":
        end = _unpack(fh, "<I")[0] + 8
        rf64_data_size = None
        form = fh.read(4)
    elif kind == b"RF64":
        fh.read(4)
        form = fh.read(4)
        if fh.read(4) != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        ds64_size, riff_size, rf64_data_size = _unpack(fh, "<IQQ")
        end = riff_size + 8
        fh.seek(ds64_size - 16, 1)
    else:
        raise ValueError(f"not a little-endian RIFF or RF64 file (signature {kind!r})")
    if form != b"WAVE":
        raise ValueError(f"not a WAVE file (form type {form!r})")

    fmt = samples = None
    while fh.tell() < end:
        chunk_id = fh.read(4)
        if not chunk_id:
            if samples is None:
                raise ValueError("WAV file ends before its data chunk")
            break
        if len(chunk_id) < 4 and samples is None:
            raise ValueError(f"incomplete WAV chunk id {chunk_id!r}")
        if chunk_id == b"fmt ":
            fmt = _fmt_chunk(fh)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("WAV data chunk before the fmt chunk")
            if rf64_data_size is None:
                size = _unpack(fh, "<I")[0]
            else:
                fh.read(4)   # 0xFFFFFFFF: the size is in the ds64 chunk
                size = rf64_data_size
            samples = _decode_samples(fh, size, *fmt[1:])
            fh.seek(size % 2, 1)
        else:   # fact, LIST, JUNK or any other chunk
            raw = fh.read(4)
            if raw:
                if len(raw) < 4:
                    raise ValueError("WAV file ends inside a chunk size")
                size = int.from_bytes(raw, "little")
                fh.seek(size + size % 2, 1)
    if samples is None:
        raise ValueError("WAV file has no data chunk")
    return fmt[0], samples


def _fmt_chunk(fh) -> tuple[int, int, int, int, int]:
    """(rate, format tag, channels, block align, bits per sample) of the fmt
    chunk after its id, with EXTENSIBLE resolved to its subformat; moves
    to the end of the chunk and its pad byte."""
    size = _unpack(fh, "<I")[0]
    if size < 16:
        raise ValueError("WAV fmt chunk shorter than 16 bytes")
    tag, channels, rate, byte_rate, block_align, bits = _unpack(fh, "<HHIIHH")
    consumed = 16
    if tag == _EXTENSIBLE and size >= 18:
        if _unpack(fh, "<H")[0] < 22:
            raise ValueError("WAV extensible fmt chunk shorter than 40 bytes")
        guid = fh.read(22)[6:22]
        consumed += 24
        if guid.endswith(_GUID_TAIL):
            tag = int.from_bytes(guid[:4], "little")
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"unsupported WAV format tag {tag:#06x}: "
                         "only PCM and IEEE float are read")
    fh.seek(max(size - consumed, 0) + size % 2, 1)
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError("WAV header is invalid: byte rate is not rate * block align")
    return rate, tag, channels, block_align, bits


def _decode_samples(fh, size: int, tag: int, channels: int, block_align: int,
                    bits: int) -> np.ndarray:
    """First channel of a data chunk of `size` bytes, as float64. As in
    scipy.io.wavfile.read the container width is block_align // channels
    and only whole containers are read; 24-bit data must be whole."""
    if channels == 0:
        raise ValueError("WAV fmt chunk declares zero channels")
    width = block_align // channels
    if tag == _PCM and 1 <= bits <= 8:
        raise ValueError("unsupported WAV sample format: unsigned 8-bit PCM")
    # fh.read(n) allocates n bytes first: read no more than the file holds
    here = fh.tell()
    left = max(fh.seek(0, 2) - here, 0)
    fh.seek(here)
    if tag == _PCM and width == 3:
        raw = fh.read(min(size, left))
        if len(raw) % 3:
            raise ValueError("24-bit WAV data is not a whole number of samples")
        packed = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
        packed[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        data, full_scale = packed.view("<i4")[:, 0], 2147483648.0
    elif (tag == _PCM and width in (2, 4) and bits <= 64
          or tag == _IEEE_FLOAT and width in (4, 8) and bits in (32, 64)):
        raw = fh.read(min(size // width * width, left))
        kind = "i" if tag == _PCM else "f"
        data = np.frombuffer(raw, dtype=f"<{kind}{width}", count=len(raw) // width)
        full_scale = 2.0 ** (8 * width - 1) if tag == _PCM else 1.0
    else:
        kind = "PCM" if tag == _PCM else "float"
        raise ValueError(f"unsupported WAV sample format: {bits}-bit {kind} "
                         f"in {width}-byte containers")
    if len(data) % channels:
        raise ValueError("WAV data is not a whole number of frames")
    with np.errstate(invalid="ignore"):   # a signalling NaN: SampledSignal refuses it
        return data[::channels].astype(np.float64) / full_scale


def write_csv_signal(path: str | Path, sig: SampledSignal) -> None:
    """One float per line (shortest round-trip repr) after a
    'rate_hz,<value>' header line, written _CSV_BLOCK samples at a time."""
    samples = sig.samples
    with open(path, "w") as fh:
        fh.write(f"rate_hz,{float(sig.rate_hz)!r}\n")
        for start in range(0, len(samples), _CSV_BLOCK):
            block = samples[start:start + _CSV_BLOCK].tolist()
            fh.write("\n".join(map(repr, block)) + "\n")


def read_csv_signal(path: str | Path) -> SampledSignal:
    """A trace written by write_csv_signal: after the header, the samples
    are the file's whitespace-separated tokens, read about _CSV_BLOCK at a
    time. A malformed file raises ValueError naming the path."""
    with open(path) as fh, naming(path):
        header = fh.readline().strip()
        key, _, value = header.partition(",")
        if key.strip() != "rate_hz":
            raise ValueError(f"expected 'rate_hz,<value>' header, got {header!r}")
        rate = float(value)
        blocks, tail = [], ""
        while chunk := fh.read(25 * _CSV_BLOCK):
            tokens = (tail + chunk).split()
            # the chunk's last token may go on in the next chunk
            tail = "" if chunk[-1].isspace() else tokens.pop()
            blocks.append(np.array(tokens, dtype=np.float64))
        blocks.append(np.array(tail.split(), dtype=np.float64))
        samples = np.concatenate(blocks)
        del blocks   # the signal takes its own copy
        return SampledSignal(samples, rate)


def write_npy_signal(path: str | Path, sig: SampledSignal) -> None:
    """The samples as a 1-D float64 .npy array at exactly this path; the
    rate is not stored."""
    with open(path, "wb") as fh:
        np.save(fh, sig.samples, allow_pickle=False)


def read_npy_signal(path: str | Path, rate_hz: float) -> SampledSignal:
    """A trace written by write_npy_signal, at the given rate. Anything but
    a 1-D float64 .npy array raises ValueError naming the path."""
    with naming(path):
        try:
            with open(path, "rb") as fh:
                samples = np.load(fh, allow_pickle=False)
        except (OSError, EOFError, ValueError, pickle.UnpicklingError,
                zipfile.BadZipFile) as exc:
            raise ValueError(f"not a readable .npy trace ({exc})") from exc
        if not (isinstance(samples, np.ndarray) and samples.dtype == np.float64
                and samples.ndim == 1):
            raise ValueError("expected a 1-D float64 .npy trace")
        return SampledSignal(samples, float(rate_hz))
