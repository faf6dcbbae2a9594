"""FMCW radar chain: chirp configuration, beat-signal synthesis for a
vibrating point reflector, range FFT, and slow-time phase vibrometry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signals import SampledSignal, hann_window

__all__ = [
    "C_LIGHT",
    "ChirpConfig",
    "TargetScene",
    "BeatMatrix",
    "NoCoherentTargetError",
    "RadarDisplacement",
    "simulate_beat_signal",
    "range_fft",
    "add_range_noise",
    "extract_displacement",
    "measure_displacement",
]

C_LIGHT = 299792458.0
_BLOCK_BYTES = 1 << 19
# Range bins kept either side of the nominal range's bin when the streamed
# chain selects the bin itself: _scene_ranges keeps the excursion under half
# a range resolution, so the peak sits within one bin of it.
_BAND_BINS = 2


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
        if self.adc_rate_hz is None and self.chirp_duration_s > 0:
            object.__setattr__(self, "adc_rate_hz",
                               self.adc_samples_per_chirp / self.chirp_duration_s)
        for name in ("start_freq_hz", "bandwidth_hz", "chirp_duration_s", "prf_hz",
                     "adc_samples_per_chirp", "adc_rate_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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

    def __post_init__(self):
        if not self.nominal_range_m > 0:
            raise ValueError("nominal_range_m must be positive")


@dataclass(frozen=True)
class RadarDisplacement(SampledSignal):
    """Displacement read from the slow-time phase of one range bin.

    bin_index is the bin it was read from, bin_magnitude that bin's mean
    magnitude over the chirps, noise_floor the median of the other bins'
    mean magnitudes it was checked against, and passes the number of passes
    over the chirps the measurement took.
    """

    bin_index: int = field(kw_only=True)
    bin_magnitude: float = field(kw_only=True)
    noise_floor: float = field(kw_only=True)
    passes: int = field(kw_only=True)


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


def _scene_ranges(scene: TargetScene, cfg: ChirpConfig) -> np.ndarray:
    """Per-chirp target range R_m = R0 + d[m], after checking that the
    displacement is sampled at the PRF and stays inside the range bin."""
    d = scene.displacement
    if abs(d.rate_hz - cfg.prf_hz) > 1e-6 * cfg.prf_hz:
        raise ValueError("displacement must be sampled at the PRF")
    max_excursion = float(np.max(np.abs(d.samples))) if len(d) else 0.0
    if max_excursion >= 0.5 * cfg.range_resolution_m:
        raise ValueError(
            f"displacement {max_excursion:.3g} m leaves the range bin "
            f"(resolution {cfg.range_resolution_m:.3g} m)"
        )
    return scene.nominal_range_m + d.samples


def _noise_sigma(scene: TargetScene) -> float:
    """Per-component standard deviation of the complex noise at the scene's SNR."""
    sig_power = scene.reflectivity ** 2 if scene.reflectivity > 0 else 1.0
    return np.sqrt(sig_power / 10.0 ** (scene.noise_snr_db / 10.0) / 2.0)


def _beat_rows(out: np.ndarray, ranges: np.ndarray, reflectivity: float,
               cfg: ChirpConfig) -> None:
    """Fill out (one row per chirp) with the noiseless beat tones.

    The phase is affine in the ADC sample index n, 4*pi*R_m/lambda +
    step_m*n with step_m = 2*pi*f_b/f_s, so the tone is built by a phasor
    recurrence: column 0 holds the starting phasor, and each pass doubles
    the filled width w by one complex multiply with exp(j*step_m*w).
    """
    n = out.shape[1]
    step = 2.0 * np.pi * cfg.beat_frequency_hz(ranges) / cfg.adc_rate_hz
    out[:, 0] = reflectivity * np.exp(1j * (4.0 * np.pi * ranges / cfg.wavelength_m))
    width = 1
    while width < n:
        k = min(width, n - width)
        np.multiply(out[:, :k], np.exp(1j * (step * width))[:, None],
                    out=out[:, width:width + k])
        width += k


def _range_rows(rows: np.ndarray, window: np.ndarray, out: np.ndarray) -> None:
    """Hann-taper each row of rows into out and FFT out in place; out may be rows."""
    np.multiply(rows, window, out=out)
    np.fft.fft(out, axis=1, out=out)


def _block_rows(adc_samples: int) -> int:
    """Chirps per streamed block: about 512 KiB of complex beat samples."""
    return max(1, _BLOCK_BYTES // (16 * adc_samples))


def simulate_beat_signal(scene: TargetScene, cfg: ChirpConfig) -> BeatMatrix:
    """Noiseless beat signal for chirp m against a target at R_m = R0 + d[m].

    Each chirp yields a complex tone at f_b = 2*slope*R_m/c with starting
    phase 4*pi*R_m/lambda, built by a phasor recurrence over the ADC
    samples. Receiver noise is added after the range FFT (add_range_noise).
    """
    ranges = _scene_ranges(scene, cfg)
    data = np.empty((len(ranges), cfg.adc_samples_per_chirp), dtype=np.complex128)
    _beat_rows(data, ranges, scene.reflectivity, cfg)
    return BeatMatrix(data=data, config=cfg)


def range_fft(beat: BeatMatrix) -> np.ndarray:
    """Hann-tapered fast-time FFT per chirp, keeping the positive-range bins."""
    n = beat.config.adc_samples_per_chirp
    spectrum = np.empty_like(beat.data)
    _range_rows(beat.data, hann_window(n), spectrum)
    return spectrum[:, :n // 2]


def add_range_noise(spectrum: np.ndarray, scene: TargetScene, cfg: ChirpConfig,
                    rng: np.random.Generator | None = None,
                    scratch: np.ndarray | None = None) -> None:
    """Add the scene's receiver noise, in place, to a positive-range spectrum
    (chirps x n//2, as range_fft returns it); a noiseless scene adds nothing.

    The noise is white complex Gaussian in the beat, sigma per component at
    the scene's SNR per ADC sample, seen through the Hann-tapered FFT. Its
    DFT N is white with per-component variance n*sigma^2, and the periodic
    Hann window has three DFT taps, so bin k receives exactly
    N_k/2 - N_{k-1}/4 - N_{k+1}/4. Only N over bins -1 .. n/2 (modulo n) is
    drawn: real/imaginary pairs, bin by bin, chirp by chirp, so the stream
    does not depend on how the chirps are split into calls. scratch, a
    float64 buffer of at least 2 * chirps * min(n//2 + 2, n) elements, holds
    the draws; without it they are allocated.
    """
    if scene.noise_snr_db is None:
        return
    if rng is None:
        rng = np.random.default_rng()
    n = cfg.adc_samples_per_chirp
    rows, half = spectrum.shape
    width = min(half + 2, n)
    size = 2 * rows * width
    raw = np.empty(size) if scratch is None else scratch[:size]
    raw = rng.standard_normal(out=raw.reshape(rows, width, 2))
    raw *= 0.25 * np.sqrt(n) * _noise_sigma(scene)
    quarter = raw.view(np.complex128)[..., 0]   # N_{k-1} / 4 in column k
    if width < half + 2:   # n <= 2: bins -1 .. n/2 repeat modulo n
        quarter = quarter[:, np.arange(half + 2) % n]
    # (2 N_k - N_{k-1} - N_{k+1}) / 4 in four in-place passes, no temporary
    centre = quarter[:, 1:half + 1]
    spectrum += centre
    spectrum += centre
    spectrum -= quarter[:, :half]
    spectrum -= quarter[:, 2:]


def _select_bin(mags: np.ndarray, bin_index: int | None) -> tuple[int, float, float]:
    """(bin, its mean magnitude, median of the other bins' means) for the bin
    extraction reads: bin_index, or the max mean-magnitude bin when it is
    None. Raises NoCoherentTargetError unless the bin clears five times that
    median floor."""
    if bin_index is None:
        bin_index = int(np.argmax(mags))
    peak = mags[bin_index]
    others = np.delete(mags, bin_index)
    floor = np.median(others) if len(others) else 0.0
    if peak <= 0 or peak < 5.0 * floor:
        raise NoCoherentTargetError(
            f"bin {bin_index} magnitude {peak:.3g} is below the noise floor"
        )
    return bin_index, float(peak), float(floor)


def _phase_displacement(column: np.ndarray, cfg: ChirpConfig, choice: tuple,
                        passes: int) -> RadarDisplacement:
    """Displacement from the slow-time phase of one range bin's column;
    choice is _select_bin's (bin, magnitude, floor) for that bin."""
    bin_index, magnitude, floor = choice
    phase = np.unwrap(np.angle(column))
    disp = cfg.wavelength_m * phase / (4.0 * np.pi)
    # The beat tone's frequency also moves with displacement; through the
    # window group delay (N-1)/(2*fs) that adds a deterministic gain term.
    group_delay_s = (cfg.adc_samples_per_chirp - 1) / (2.0 * cfg.adc_rate_hz)
    gain = 1.0 + cfg.slope_hz_per_s * cfg.wavelength_m * group_delay_s / C_LIGHT
    disp = disp / gain
    disp = disp - disp.mean()
    return RadarDisplacement(disp, cfg.prf_hz, "displacement_radar", bin_index=bin_index,
                             bin_magnitude=magnitude, noise_floor=floor, passes=passes)


def extract_displacement(rangefft: np.ndarray, cfg: ChirpConfig,
                         bin_index: int | None = None) -> RadarDisplacement:
    """Slow-time phase vibrometry at one range bin.

    Auto-selects the max mean-magnitude bin when bin_index is None, unwraps
    the slow-time phase, converts d[m] = lambda * phi_m / (4*pi), compensates
    the deterministic fast-time group-delay gain of the windowed FFT, and
    removes the mean. Output is sampled at the PRF and carries the bin it
    was read from.
    """
    choice = _select_bin(np.abs(rangefft).mean(axis=0), bin_index)
    return _phase_displacement(rangefft[:, choice[0]], cfg, choice, passes=1)


def _stream_bins(ranges: np.ndarray, scene: TargetScene, cfg: ChirpConfig,
                 rng: np.random.Generator | None, lo: int, hi: int) -> tuple:
    """One pass of the chain over blocks of _block_rows chirps: the per-bin
    mean magnitudes of the noisy positive-range spectrum, and its columns
    lo .. hi-1.

    Each block is simulated, tapered and transformed in one reused buffer,
    and its positive half is copied to a contiguous one, where it gets the
    block's noise in place (the same four passes over the half-rows of the
    block buffer, 4 KiB apart at 256 ADC samples, took twice as long). Its
    magnitudes are summed into the running per-bin sums in row order, one
    np.add.reduce over [sums; block rows], as np.abs(spectrum).mean(axis=0)
    sums them, so the means are the same bits.

    A lone last row joins the block before it: _beat_rows' first doubling
    pass multiplies a one-row block's single element on numpy's contiguous
    path, which rounds differently from the strided one every row of a
    larger matrix takes.
    """
    n = cfg.adc_samples_per_chirp
    chirps, half = len(ranges), n // 2
    window = hann_window(n)
    rows = _block_rows(n)
    size = min(rows + 1, chirps)
    buf = np.empty((size, n), dtype=np.complex128)
    positive = np.empty((size, half), dtype=np.complex128)
    mags = np.zeros((size + 1, half))   # row 0 holds the running sums
    scratch = None if scene.noise_snr_db is None else np.empty(2 * size * min(half + 2, n))
    kept = np.empty((chirps, hi - lo), dtype=np.complex128)
    start = 0
    while start < chirps:
        stop = min(start + rows, chirps)
        if stop == chirps - 1:
            stop = chirps
        block, part = buf[:stop - start], positive[:stop - start]
        _beat_rows(block, ranges[start:stop], scene.reflectivity, cfg)
        _range_rows(block, window, block)
        part[...] = block[:, :half]
        add_range_noise(part, scene, cfg, rng, scratch)
        np.abs(part, out=mags[1:stop - start + 1])
        mags[0] = np.add.reduce(mags[:stop - start + 1], axis=0)
        kept[start:stop] = part[:, lo:hi]
        start = stop
    if hi - lo == half:
        # Every bin is kept, so average them as extraction does. A lone bin
        # must take this path: numpy sums a single column pairwise, not in
        # row order, and measure_displacement always keeps it.
        return np.abs(kept).mean(axis=0), kept
    return mags[0] / chirps, kept


def measure_displacement(scene: TargetScene, cfg: ChirpConfig,
                         rng: np.random.Generator | None = None,
                         bin_index: int | None = None) -> RadarDisplacement:
    """Full chain: beat simulation, range FFT, receiver noise, phase extraction.

    The same numbers as the public steps

        spectrum = range_fft(simulate_beat_signal(scene, cfg))
        add_range_noise(spectrum, scene, cfg, rng)
        extract_displacement(spectrum, cfg, bin_index)

    with the same draws from rng, but streamed over blocks of chirps
    (_stream_bins) in working memory that does not grow with chirps x bins:
    only the per-bin magnitude sums and the columns extraction may read are
    kept, bin_index or the nominal range's bin +- _BAND_BINS. If the
    selected bin lies outside that band, rng is rewound and the pass runs
    again keeping that bin alone (passes == 2).
    """
    ranges = _scene_ranges(scene, cfg)
    half = cfg.adc_samples_per_chirp // 2
    if rng is None and scene.noise_snr_db is not None:
        rng = np.random.default_rng()
    if bin_index is None:
        centre = min(cfg.bin_of_range(scene.nominal_range_m), half - 1)
        lo, hi = max(centre - _BAND_BINS, 0), min(centre + _BAND_BINS + 1, half)
    else:
        lo = int(np.arange(half)[bin_index])   # numpy's IndexError when out of range
        hi = lo + 1
    state = None if rng is None else rng.bit_generator.state
    mags, kept = _stream_bins(ranges, scene, cfg, rng, lo, hi)
    choice = _select_bin(mags, bin_index)
    column = choice[0] % half   # a negative bin_index counts from the last bin
    if lo <= column < hi:
        return _phase_displacement(kept[:, column - lo], cfg, choice, passes=1)
    if rng is not None:
        rng.bit_generator.state = state
    _, kept = _stream_bins(ranges, scene, cfg, rng, column, column + 1)
    return _phase_displacement(kept[:, 0], cfg, choice, passes=2)
