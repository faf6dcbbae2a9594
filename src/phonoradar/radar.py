"""FMCW radar chain: chirp configuration, the closed-form range spectrum of a
vibrating point reflector, receiver noise, and slow-time phase vibrometry.
Its reference, beat-signal synthesis and the range FFT, is the test oracle
in tests/radar_oracle.py."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import SampledSignal, median

__all__ = [
    "C_LIGHT",
    "ChirpConfig",
    "TargetScene",
    "NoCoherentTargetError",
    "add_range_noise",
    "measure_displacement",
]

C_LIGHT = 299792458.0
_BLOCK_BYTES = 1 << 18
# Range bins the streamed chain keeps either side of the nominal range's
# bin: _check_scene keeps the excursion under half a range resolution, so
# the peak sits within one bin of it.
_BAND_BINS = 2
# The noise floor is an ordered-statistic CFAR (Rohling, IEEE Trans. AES
# 19(4), 1983): the median of the reference bins, those more than a guard of
# _GUARD_BINS, the Hann main lobe, from the peak. The chain forms the band
# widened each side by the guard and _REFERENCE_BINS more, and no other bin.
_GUARD_BINS = 2
_REFERENCE_BINS = 10


class NoCoherentTargetError(ValueError):
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        # A tone between bins puts its peak and up to 3 other bins in the
        # Hann main lobe, all within _GUARD_BINS of the peak. _select_bin's
        # floor is the median of the formed bins past that guard, sidelobe
        # or noise bins each; at least 3 remain of n/2 positive bins when
        # n/2 - (2 * _GUARD_BINS + 1) >= 3, so n >= 16.
        if self.adc_samples_per_chirp < 16:
            raise ValueError("adc_samples_per_chirp must be at least 16")
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

    def range_bin_spacing_m(self) -> float:
        bin_hz = self.adc_rate_hz / self.adc_samples_per_chirp
        return bin_hz * C_LIGHT / (2.0 * self.slope_hz_per_s)

    def bin_of_range(self, range_m: float) -> int:
        return int(round(range_m / self.range_bin_spacing_m()))

    def check_range(self, range_m: float) -> None:
        """A ValueError unless range_m lies in a positive-range bin, 0 ..
        n//2 - 1, the bins the range spectrum keeps: past them it aliases."""
        last = self.adc_samples_per_chirp // 2 - 1
        if self.bin_of_range(range_m) > last:
            raise ValueError(f"range {range_m:g} m lies past the last positive range bin, "
                             f"{last}, which ends at "
                             f"{(last + 0.5) * self.range_bin_spacing_m():.4g} m")


@dataclass(frozen=True)
class TargetScene:
    """Point reflector at nominal_range_m whose range is modulated by a
    displacement trace sampled at the PRF."""

    displacement: SampledSignal
    nominal_range_m: float = 0.25
    noise_snr_db: float | None = None

    def __post_init__(self):
        if not 0.0 < self.nominal_range_m < math.inf:
            raise ValueError("nominal_range_m must be finite and positive")
        if self.noise_snr_db is not None and not math.isfinite(self.noise_snr_db):
            raise ValueError("noise_snr_db must be finite (omit it for a noiseless scene)")


def _check_scene(scene: TargetScene, cfg: ChirpConfig) -> None:
    """A ValueError unless the nominal range lies in a positive-range bin and
    the displacement has samples, is sampled at the PRF and stays inside the
    range bin."""
    cfg.check_range(scene.nominal_range_m)
    d = scene.displacement
    if abs(d.rate_hz - cfg.prf_hz) > 1e-6 * cfg.prf_hz:
        raise ValueError("displacement must be sampled at the PRF")
    if not len(d):
        raise ValueError("displacement has no samples: nothing to measure")
    max_excursion = float(np.max(np.abs(d.samples)))
    if max_excursion >= 0.5 * cfg.range_resolution_m:
        raise ValueError(
            f"displacement {max_excursion:.3g} m leaves the range bin "
            f"(resolution {cfg.range_resolution_m:.3g} m)"
        )


def _noise_sigma(scene: TargetScene) -> float:
    """Per-component standard deviation of the complex noise at the scene's
    SNR against the unit beat tone."""
    return np.sqrt(1.0 / 10.0 ** (scene.noise_snr_db / 10.0) / 2.0)


def add_range_noise(spectrum: np.ndarray, scene: TargetScene, cfg: ChirpConfig,
                    rng: np.random.Generator, scratch: np.ndarray | None = None) -> None:
    """Add the scene's receiver noise, in place, to a span of positive-range
    bins, a .. b-1 of each chirp (chirps x (b - a), columns of range_fft in
    tests/radar_oracle.py); a noiseless scene adds nothing.

    The noise is white complex Gaussian in the beat, sigma per component at
    the scene's SNR per ADC sample, seen through the Hann-tapered FFT. Its
    DFT N is white with per-component variance n*sigma^2, and the periodic
    Hann window has three DFT taps, so bin k receives exactly
    N_k/2 - N_{k-1}/4 - N_{k+1}/4. Only N over bins a-1 .. b (modulo n,
    distinct for b - a <= n/2) is drawn: real/imaginary pairs, bin by bin,
    chirp by chirp, so the stream does not depend on how the chirps are
    split into calls. N is alike at every bin, so the draws do not depend on
    a either. scratch, a float64 buffer of at least 2 * chirps * (b - a + 2)
    elements, holds the draws; without it they are allocated. rng is read
    only for a noisy scene.
    """
    if scene.noise_snr_db is None:
        return
    n = cfg.adc_samples_per_chirp
    rows, width = spectrum.shape
    size = 2 * rows * (width + 2)
    raw = np.empty(size) if scratch is None else scratch[:size]
    raw = rng.standard_normal(out=raw.reshape(rows, width + 2, 2))
    raw *= 0.25 * np.sqrt(n) * _noise_sigma(scene)
    quarter = raw.view(np.complex128)[..., 0]   # N_{k-1} / 4 in column k
    # (2 N_k - N_{k-1} - N_{k+1}) / 4 in four in-place passes, no temporary
    centre = quarter[:, 1:width + 1]
    spectrum += centre
    spectrum += centre
    spectrum -= quarter[:, :width]
    spectrum -= quarter[:, 2:]


def _bins(cfg: ChirpConfig, range_m: float) -> tuple[int, range, range]:
    """(centre, band, span) for a target at range_m: its bin; the bins
    extraction may read, centre +- _BAND_BINS; and the bins the chain forms,
    the band widened each side by _GUARD_BINS + _REFERENCE_BINS. Both are
    clipped to the positive range bins 0 .. n//2 - 1."""
    half = cfg.adc_samples_per_chirp // 2
    centre = cfg.bin_of_range(range_m)
    band = range(max(centre - _BAND_BINS, 0), min(centre + _BAND_BINS + 1, half))
    reach = _GUARD_BINS + _REFERENCE_BINS
    return centre, band, range(max(band.start - reach, 0), min(band.stop + reach, half))


def _select_bin(mags: np.ndarray, span: range, centre: int) -> dict:
    """The bin decision radar.json records, from mags, the span's per-bin
    mean magnitudes: selected_bin, the span's max, which extraction reads;
    bin_magnitude, its mean; floor_bins, the span's bins more than
    _GUARD_BINS from it; and noise_floor, the median of their means. Raises
    NoCoherentTargetError unless the bin clears five times that floor and
    lies within _BAND_BINS of centre, the nominal range's bin: a peak
    farther out is no return of the target, whose peak lies within one bin
    of it."""
    at = int(np.argmax(mags))
    reference = [*range(at - _GUARD_BINS), *range(at + _GUARD_BINS + 1, len(mags))]
    bin_index, peak, floor = span[at], float(mags[at]), float(median(mags[reference]))
    if peak <= 0 or peak < 5.0 * floor:
        raise NoCoherentTargetError(
            f"bin {bin_index} magnitude {peak:.3g} is below the noise floor"
        )
    if abs(bin_index - centre) > _BAND_BINS:
        raise NoCoherentTargetError(
            f"selected bin {bin_index} lies more than {_BAND_BINS} bins from the "
            f"nominal range's bin {centre}")
    return {"selected_bin": bin_index, "bin_magnitude": peak, "noise_floor": floor,
            "floor_bins": [span[i] for i in reference]}


def _unwrap(phase: np.ndarray) -> np.ndarray:
    """np.unwrap(phase), the same bytes, in three chirp-length arrays where
    np.unwrap holds about five: its steps in its order (diff, mod, the
    boundary and zeroing copyto, cumsum, one add), each in place."""
    up = np.array(phase)
    dd = np.diff(phase)
    correct = np.subtract(dd, -np.pi)
    np.mod(correct, 2.0 * np.pi, out=correct)
    correct += -np.pi
    np.copyto(correct, np.pi, where=(correct == -np.pi) & (dd > 0))
    correct -= dd
    np.copyto(correct, 0, where=np.abs(dd, out=dd) < np.pi)
    np.cumsum(correct, out=correct)
    up[1:] += correct
    return up


def _phase_displacement(phase: np.ndarray, cfg: ChirpConfig) -> SampledSignal:
    """The displacement from one range bin's slow-time phase, the angle of
    its column, wrapped to (-pi, pi]."""
    disp = _unwrap(phase)
    disp *= cfg.wavelength_m
    disp /= 4.0 * np.pi
    # The beat tone's frequency also moves with displacement; through the
    # window group delay (N-1)/(2*fs) that adds a deterministic gain term.
    group_delay_s = (cfg.adc_samples_per_chirp - 1) / (2.0 * cfg.adc_rate_hz)
    gain = 1.0 + cfg.slope_hz_per_s * cfg.wavelength_m * group_delay_s / C_LIGHT
    disp /= gain
    disp -= disp.mean()
    return SampledSignal(disp, cfg.prf_hz)


def _block_chirps(width: int) -> int:
    """Chirps per streamed block of a span of width bins: about 256 KiB of
    its complex bins and the one either side."""
    return max(1, _BLOCK_BYTES // (16 * (width + 2)))


def _dirichlet_rows(offset: np.ndarray, j0: int, first: int, n: int, out: np.ndarray) -> None:
    """Fill out[m, c] with sin(pi*b_m) / sin(pi*(b_m - j)/n), the Dirichlet
    kernel of a tone at bin b_m = j0 + offset_m seen from bin j = first + c - 1.

    j0, a positive-range bin, is a bin near the tone and offset_m lies in
    (-1, 1). With C_j = pi*(j0 - j)/n and tau_m = pi*offset_m/n, the
    denominator is cos(tau_m) * (sin(C_j) + cos(C_j) tan(tau_m)): one real
    outer product over chirps and bins, so no sine is taken per element, and
    cos(tau_m) joins the numerator. The sum's rounding is small against
    every denominator but the one nearest the tone, which it forms by
    cancellation; that column is set apart. With the tone's nearest bin
    k_m = j0 + s_m and t_m = offset_m - s_m in [-1/2, 1/2], every column
    shares the numerator sin(pi*b_m) = (-1)^k_m sin(pi*t_m), and column
    k_m + 1 - first, where out has it, is (-1)^k_m * n * sinc(t_m) /
    sinc(t_m/n): the same ratio without the cancellation, with the limit n
    at t_m = 0. Each element is formed from its own chirp's offset and its
    own bin alone, so a bin's column does not depend on first or on the
    width of out.
    """
    rows, cols = out.shape
    angle = np.pi / n * (j0 - np.arange(first - 1, first + cols - 1))
    tau = np.pi / n * offset
    np.multiply.outer(np.tan(tau), np.cos(angle), out=out)
    out += np.sin(angle)
    whole = np.rint(offset)
    t = offset - whole
    k = j0 + whole
    sign = 1.0 - 2.0 * (k % 2)
    column = (k + 1.0 - first).astype(np.intp)   # the nearest bin's
    row = np.flatnonzero((column >= 0) & (column < cols))
    index = row, column[row]
    out[index] = 1.0
    np.divide((sign * np.sin(np.pi * t) / np.cos(tau))[:, None], out, out=out)
    out[index] = (sign * n * np.sinc(t) / np.sinc(t / n))[row]


def _hann_taps(q: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> None:
    """Twice the Hann-windowed tone's spectrum over its phase factor, u + j*v,
    at a span of positive-range bins, written into u and v (rows x width):

        u = q_k - cos(pi/n)/2 * (q_{k-1} + q_{k+1}),
        v = sin(pi/n)/2 * (q_{k-1} - q_{k+1}),

    q[:, c] the Dirichlet kernel at the bin before the span's column c
    (_dirichlet_rows from the span's first bin), width + 2 columns; the
    three terms are the periodic Hann window's DFT taps 1/2, -1/4, -1/4
    with the bins' relative phases exp(-+j*pi/n).
    """
    width = u.shape[-1]
    left, centre, right = q[:, :width], q[:, 1:width + 1], q[:, 2:width + 2]
    np.add(left, right, out=u)
    u *= -0.5 * np.cos(np.pi / n)
    u += centre
    np.subtract(left, right, out=v)
    v *= 0.5 * np.sin(np.pi / n)


def _stream_bins(scene: TargetScene, cfg: ChirpConfig, rng: np.random.Generator | None,
                 span: range, band: range) -> tuple:
    """One pass of the chain over blocks of _block_chirps chirps that forms
    the positive-range bins of span and no other: their mean magnitudes
    over the chirps, and the slow-time phase of band's bins, a range within
    span, their angle (np.angle's arctan2) in (-pi, pi], chirps x len(band).

    The spectrum is the closed form of the Hann-tapered DFT of the unit beat
    tone exp(j*(phi_m + 2*pi*b_m*i/n)), i = 0 .. n-1, at bin b_m = R_m / bin
    spacing:

        X_mk = 1/2 * exp(j*(phi_m + pi*b_m*(n-1)/n + pi*k/n)) * (u + j*v)_mk

    with phi_m = 4*pi*R_m/lambda and u + j*v from _hann_taps. b_m is taken
    from the bin nearest the nominal range, j0, a positive-range bin
    (_check_scene), as b_m = j0 + offset_m with offset_m = ((R0 -
    j0*spacing) + d_m) / spacing, so the offset carries no rounding of the
    whole range. Noiseless magnitudes need only 1/2 * |u + j*v|; a
    noisy block is formed in full over the span and takes its noise in
    place (add_range_noise, which draws for the span's bins and the one
    either side), and its magnitudes go into the kernel's buffer, which the
    block no longer reads. Each block's magnitudes sit below a row 0 that
    carries the running per-bin sum into the block's reduction over chirps,
    so the sums add chirp after chirp, at any block size. Every step is
    elementwise over bins, so a noiseless bin's phase and mean are the same
    bytes in any span that holds it.
    """
    n = cfg.adc_samples_per_chirp
    width = len(span)
    d = scene.displacement.samples
    chirps = len(d)
    size = min(_block_chirps(width), chirps)
    spacing = cfg.range_bin_spacing_m()
    j0 = round(scene.nominal_range_m / spacing)
    base = scene.nominal_range_m - j0 * spacing
    q = np.empty((size + 1, width + 2))   # bins a-1 .. b, a block's chirps from row 1
    noisy = scene.noise_snr_db is not None
    if noisy:   # u and v interleaved, the spectrum's real and imaginary parts
        spectrum = np.empty((size, width), dtype=np.complex128)
        parts = spectrum.view(np.float64).reshape(size, width, 2)
        u, v = parts[..., 0], parts[..., 1]
        scratch = np.empty(2 * size * (width + 2))
        mags = q[:, :width]
    else:       # contiguous, for the magnitudes sqrt(u^2 + v^2)
        mags = np.empty((size + 1, width))
        u, v = mags[1:], np.empty((size, width))
    mags[0] = 0.0   # the running per-bin sum of the magnitudes
    bin_phase = 0.5 * np.exp(1j * np.pi / n * np.arange(span.start, span.stop))
    cut = slice(band.start - span.start, band.stop - span.start)
    phases = np.empty((chirps, len(band)))
    for start in range(0, chirps, size):
        stop = min(start + size, chirps)
        rows = stop - start
        offset = (base + d[start:stop]) / spacing
        block_q = q[1:rows + 1]
        _dirichlet_rows(offset, j0, span.start, n, block_q)
        block_u, block_v = u[:rows], v[:rows]
        _hann_taps(block_q, n, block_u, block_v)
        phase = np.exp(1j * (4.0 * np.pi * (scene.nominal_range_m + d[start:stop])
                             / cfg.wavelength_m + np.pi * (n - 1) / n * (j0 + offset)))
        if noisy:
            x = spectrum[:rows]
            x *= bin_phase
            x *= phase[:, None]
            add_range_noise(x, scene, cfg, rng, scratch)
            columns = x[:, cut]
            np.abs(x, out=block_q[:, :width])
        else:
            columns = ((block_u[:, cut] + 1j * block_v[:, cut])
                       * bin_phase[cut] * phase[:, None])
            block_u *= block_u
            block_v *= block_v
            block_u += block_v
            np.sqrt(block_u, out=block_u)
        mags[0] = mags[:rows + 1].sum(axis=0)
        np.arctan2(columns.imag, columns.real, out=phases[start:stop])
    sums = mags[0] if noisy else 0.5 * mags[0]
    return sums / chirps, phases


def measure_displacement(scene: TargetScene, cfg: ChirpConfig,
                         rng: np.random.Generator | None = None) -> tuple[SampledSignal, dict]:
    """Full chain: range spectrum, receiver noise, phase extraction. Returns
    the displacement trace and the bin decision (_select_bin).

    The numbers of the FFT oracle in tests/radar_oracle.py

        spectrum = range_fft(simulate_beat_signal(scene, cfg))
        add_range_noise(<the span's columns of spectrum>, scene, cfg, rng)
        extract_displacement(spectrum, scene, cfg)

    to rounding, with the same draws from rng, the same bin and the same
    generator state, but with the spectrum in closed form (_stream_bins):
    no beat samples and no FFT, and only the bins the decision or the trace
    reads (_bins). It streams over blocks of chirps in working memory that
    does not grow with chirps x bins: only the span's per-bin magnitude
    sums and the phase of the band, the nominal range's bin +- _BAND_BINS,
    are kept, and only the chosen bin's column is unwrapped. A noisy scene
    needs rng; a noiseless one draws nothing and takes None.
    """
    _check_scene(scene, cfg)
    if rng is None and scene.noise_snr_db is not None:
        raise ValueError("a noisy scene draws from rng: pass a seeded generator")
    centre, band, span = _bins(cfg, scene.nominal_range_m)
    mags, phases = _stream_bins(scene, cfg, rng, span, band)
    decision = _select_bin(mags, span, centre)
    phase = phases[:, decision["selected_bin"] - band.start].copy()
    del phases   # the band is not held while its chosen column is unwrapped
    return _phase_displacement(phase, cfg), decision
