"""FMCW radar chain: chirp configuration, beat-signal synthesis for a
vibrating point reflector, range FFT, and slow-time phase vibrometry."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import SampledSignal, hann_window

__all__ = [
    "C_LIGHT",
    "ChirpConfig",
    "TargetScene",
    "BeatMatrix",
    "NoCoherentTargetError",
    "simulate_beat_signal",
    "range_fft",
    "extract_displacement",
    "measure_displacement",
    "save_beat_matrix",
    "load_beat_matrix",
]

C_LIGHT = 299792458.0


class NoCoherentTargetError(RuntimeError):
    """Selected range bin carries no coherent target return."""


@dataclass(frozen=True)
class ChirpConfig:
    """FMCW waveform: 77 GHz start, 3.6 GHz sweep, 60 us chirps at 2 kHz PRF."""

    start_freq_hz: float = 77e9
    bandwidth_hz: float = 3.6e9
    chirp_duration_s: float = 60e-6
    prf_hz: float = 2000.0
    adc_samples_per_chirp: int = 256
    adc_rate_hz: float | None = None

    def __post_init__(self):
        if self.adc_rate_hz is None:
            object.__setattr__(self, "adc_rate_hz",
                               self.adc_samples_per_chirp / self.chirp_duration_s)
        if self.adc_samples_per_chirp / self.adc_rate_hz > self.chirp_duration_s * (1 + 1e-9):
            raise ValueError("ADC capture must fit within one chirp")
        if self.prf_hz > 1.0 / self.chirp_duration_s * (1 + 1e-9):
            raise ValueError("PRF cannot exceed 1/chirp_duration")

    @property
    def slope_hz_per_s(self) -> float:
        return self.bandwidth_hz / self.chirp_duration_s

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT / self.start_freq_hz

    @property
    def range_resolution_m(self) -> float:
        return C_LIGHT / (2.0 * self.bandwidth_hz)

    def beat_frequency_hz(self, range_m: float) -> float:
        return 2.0 * self.slope_hz_per_s * range_m / C_LIGHT

    def range_bin_spacing_m(self) -> float:
        bin_hz = self.adc_rate_hz / self.adc_samples_per_chirp
        return bin_hz * C_LIGHT / (2.0 * self.slope_hz_per_s)

    def bin_of_range(self, range_m: float) -> int:
        return int(round(range_m / self.range_bin_spacing_m()))


@dataclass(frozen=True)
class TargetScene:
    """Point reflector at nominal_range_m whose range is modulated by a
    displacement trace sampled at the PRF."""

    displacement: SampledSignal
    nominal_range_m: float = 0.25
    reflectivity: float = 1.0
    noise_snr_db: float | None = None


@dataclass(frozen=True)
class BeatMatrix:
    """Per-chirp complex beat signal, chirps x adc samples."""

    data: np.ndarray
    config: ChirpConfig

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[1] != self.config.adc_samples_per_chirp:
            raise ValueError("beat matrix must be chirps x adc_samples_per_chirp")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_chirps(self) -> int:
        return self.data.shape[0]


def simulate_beat_signal(scene: TargetScene, cfg: ChirpConfig,
                         rng: np.random.Generator | None = None) -> BeatMatrix:
    """Beat signal for chirp m against a target at R_m = R0 + d[m].

    Each chirp yields a complex tone at f_b = 2*slope*R_m/c with starting
    phase 4*pi*R_m/lambda; optional complex white noise at the given SNR.

    The phase is affine in the ADC sample index n, 4*pi*R_m/lambda +
    step_m*n with step_m = 2*pi*f_b/f_s, so the tone is built by a phasor
    recurrence: column 0 holds the starting phasor, and each pass doubles
    the filled width w by one complex multiply with exp(j*step_m*w).
    """
    d = scene.displacement
    if abs(d.rate_hz - cfg.prf_hz) > 1e-6 * cfg.prf_hz:
        raise ValueError("displacement must be sampled at the PRF")
    max_excursion = float(np.max(np.abs(d.samples))) if len(d) else 0.0
    if max_excursion >= 0.5 * cfg.range_resolution_m:
        raise ValueError(
            f"displacement {max_excursion:.3g} m leaves the range bin "
            f"(resolution {cfg.range_resolution_m:.3g} m)"
        )
    n = cfg.adc_samples_per_chirp
    ranges = scene.nominal_range_m + d.samples
    step = 2.0 * np.pi * cfg.beat_frequency_hz(ranges) / cfg.adc_rate_hz
    data = np.empty((len(ranges), n), dtype=np.complex128)
    data[:, 0] = scene.reflectivity * np.exp(1j * (4.0 * np.pi * ranges / cfg.wavelength_m))
    width = 1
    while width < n:
        k = min(width, n - width)
        np.multiply(data[:, :k], np.exp(1j * (step * width))[:, None],
                    out=data[:, width:width + k])
        width += k
    if scene.noise_snr_db is not None:
        if rng is None:
            rng = np.random.default_rng()
        sig_power = scene.reflectivity ** 2 if scene.reflectivity > 0 else 1.0
        sigma = np.sqrt(sig_power / 10.0 ** (scene.noise_snr_db / 10.0) / 2.0)
        data.real += sigma * rng.standard_normal(data.shape)
        data.imag += sigma * rng.standard_normal(data.shape)
    return BeatMatrix(data=data, config=cfg)


def range_fft(beat: BeatMatrix) -> np.ndarray:
    """Hann-tapered fast-time FFT per chirp, keeping the positive-range bins.

    The tapered copy is transformed in place, so the beat matrix costs one
    temporary of its size, not two.
    """
    n = beat.config.adc_samples_per_chirp
    spectrum = beat.data * hann_window(n)
    np.fft.fft(spectrum, axis=1, out=spectrum)
    return spectrum[:, :n // 2]


def extract_displacement(rangefft: np.ndarray, cfg: ChirpConfig,
                         bin_index: int | None = None) -> SampledSignal:
    """Slow-time phase vibrometry at one range bin.

    Auto-selects the max mean-magnitude bin when bin_index is None, unwraps
    the slow-time phase, converts d[m] = lambda * phi_m / (4*pi), compensates
    the deterministic fast-time group-delay gain of the windowed FFT, and
    removes the mean. Output is sampled at the PRF.
    """
    mags = np.abs(rangefft).mean(axis=0)
    if bin_index is None:
        bin_index = int(np.argmax(mags))
    peak = mags[bin_index]
    others = np.delete(mags, bin_index)
    floor = np.median(others) if len(others) else 0.0
    if peak <= 0 or peak < 5.0 * floor:
        raise NoCoherentTargetError(
            f"bin {bin_index} magnitude {peak:.3g} is below the noise floor"
        )
    phase = np.unwrap(np.angle(rangefft[:, bin_index]))
    disp = cfg.wavelength_m * phase / (4.0 * np.pi)
    # The beat tone's frequency also moves with displacement; through the
    # window group delay (N-1)/(2*fs) that adds a deterministic gain term.
    group_delay_s = (cfg.adc_samples_per_chirp - 1) / (2.0 * cfg.adc_rate_hz)
    gain = 1.0 + cfg.slope_hz_per_s * cfg.wavelength_m * group_delay_s / C_LIGHT
    disp = disp / gain
    disp = disp - disp.mean()
    return SampledSignal(disp, cfg.prf_hz, "displacement_radar")


def measure_displacement(scene: TargetScene, cfg: ChirpConfig,
                         rng: np.random.Generator | None = None,
                         bin_index: int | None = None) -> SampledSignal:
    """Full chain: beat simulation, range FFT, phase extraction."""
    beat = simulate_beat_signal(scene, cfg, rng)
    return extract_displacement(range_fft(beat), cfg, bin_index)


def save_beat_matrix(path: str | Path, beat: BeatMatrix) -> None:
    """Raw interleaved little-endian complex float32 plus a JSON sidecar."""
    path = Path(path)
    flat = np.empty(beat.data.size * 2, dtype="<f4")
    flat[0::2] = beat.data.real.ravel()
    flat[1::2] = beat.data.imag.ravel()
    flat.tofile(path)
    cfg = beat.config
    sidecar = {
        "format": "beat-iq-f32-v1",
        "n_chirps": beat.n_chirps,
        "adc_samples_per_chirp": cfg.adc_samples_per_chirp,
        "start_freq_hz": cfg.start_freq_hz,
        "bandwidth_hz": cfg.bandwidth_hz,
        "chirp_duration_s": cfg.chirp_duration_s,
        "prf_hz": cfg.prf_hz,
        "adc_rate_hz": cfg.adc_rate_hz,
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def load_beat_matrix(path: str | Path) -> BeatMatrix:
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        sidecar = json.load(fh)
    cfg = ChirpConfig(
        start_freq_hz=sidecar["start_freq_hz"],
        bandwidth_hz=sidecar["bandwidth_hz"],
        chirp_duration_s=sidecar["chirp_duration_s"],
        prf_hz=sidecar["prf_hz"],
        adc_samples_per_chirp=sidecar["adc_samples_per_chirp"],
        adc_rate_hz=sidecar["adc_rate_hz"],
    )
    flat = np.fromfile(path, dtype="<f4").astype(np.float64)
    data = (flat[0::2] + 1j * flat[1::2]).reshape(
        sidecar["n_chirps"], cfg.adc_samples_per_chirp)
    return BeatMatrix(data=data, config=cfg)
