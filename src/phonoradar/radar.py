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
        # Hann main lobe. _select_bin's floor, the median of the other
        # n/2 - 1 positive bins, is a sidelobe bin only when those 3 are
        # fewer than half of them: 3 < (n/2 - 1)/2, so n >= 16.
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
    """Add the scene's receiver noise, in place, to a positive-range spectrum
    (chirps x n//2, as range_fft in tests/radar_oracle.py returns it); a
    noiseless scene adds nothing.

    The noise is white complex Gaussian in the beat, sigma per component at
    the scene's SNR per ADC sample, seen through the Hann-tapered FFT. Its
    DFT N is white with per-component variance n*sigma^2, and the periodic
    Hann window has three DFT taps, so bin k receives exactly
    N_k/2 - N_{k-1}/4 - N_{k+1}/4. Only N over bins -1 .. n/2 (modulo n) is
    drawn: real/imaginary pairs, bin by bin, chirp by chirp, so the stream
    does not depend on how the chirps are split into calls. scratch, a
    float64 buffer of at least 2 * chirps * (n//2 + 2) elements, holds the
    draws; without it they are allocated. rng is read only for a noisy
    scene.
    """
    if scene.noise_snr_db is None:
        return
    n = cfg.adc_samples_per_chirp
    rows, half = spectrum.shape
    size = 2 * rows * (half + 2)
    raw = np.empty(size) if scratch is None else scratch[:size]
    raw = rng.standard_normal(out=raw.reshape(rows, half + 2, 2))
    raw *= 0.25 * np.sqrt(n) * _noise_sigma(scene)
    quarter = raw.view(np.complex128)[..., 0]   # N_{k-1} / 4 in column k
    # (2 N_k - N_{k-1} - N_{k+1}) / 4 in four in-place passes, no temporary
    centre = quarter[:, 1:half + 1]
    spectrum += centre
    spectrum += centre
    spectrum -= quarter[:, :half]
    spectrum -= quarter[:, 2:]


def _select_bin(mags: np.ndarray) -> tuple[int, float, float]:
    """(bin, its mean magnitude, median of the other bins' means) for the max
    mean-magnitude bin, which extraction reads. Raises NoCoherentTargetError
    unless the bin clears five times that median floor."""
    bin_index = int(np.argmax(mags))
    peak = mags[bin_index]
    floor = median(np.delete(mags, bin_index))
    if peak <= 0 or peak < 5.0 * floor:
        raise NoCoherentTargetError(
            f"bin {bin_index} magnitude {peak:.3g} is below the noise floor"
        )
    return bin_index, float(peak), float(floor)


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


def _phase_displacement(phase: np.ndarray, cfg: ChirpConfig,
                        choice: tuple) -> tuple[SampledSignal, dict]:
    """(displacement, bin decision) from one range bin's slow-time phase,
    the angle of its column, wrapped to (-pi, pi]; choice is _select_bin's
    (bin, magnitude, floor) for it, which radar.json records as
    selected_bin, bin_magnitude and noise_floor."""
    bin_index, magnitude, floor = choice
    disp = _unwrap(phase)
    disp *= cfg.wavelength_m
    disp /= 4.0 * np.pi
    # The beat tone's frequency also moves with displacement; through the
    # window group delay (N-1)/(2*fs) that adds a deterministic gain term.
    group_delay_s = (cfg.adc_samples_per_chirp - 1) / (2.0 * cfg.adc_rate_hz)
    gain = 1.0 + cfg.slope_hz_per_s * cfg.wavelength_m * group_delay_s / C_LIGHT
    disp /= gain
    disp -= disp.mean()
    return SampledSignal(disp, cfg.prf_hz), {"selected_bin": bin_index,
                                             "bin_magnitude": magnitude, "noise_floor": floor}


def _block_chirps(adc_samples: int) -> int:
    """Chirps per streamed block: about 256 KiB of complex positive-range bins."""
    return max(1, _BLOCK_BYTES // (16 * (adc_samples // 2 + 2)))


def _dirichlet_rows(offset: np.ndarray, j0: int, n: int, out: np.ndarray) -> None:
    """Fill out[m, c] with sin(pi*b_m) / sin(pi*(b_m - j)/n), the Dirichlet
    kernel of a tone at bin b_m = j0 + offset_m seen from bin j = c - 1.

    j0, a positive-range bin, is a bin near the tone and offset_m lies in
    (-1, 1). With C_j = pi*(j0 - j)/n and tau_m = pi*offset_m/n, the
    denominator is cos(tau_m) * (sin(C_j) + cos(C_j) tan(tau_m)): one real
    outer product over chirps and bins, so no sine is taken per element, and
    cos(tau_m) joins the numerator. The sum's rounding is small against
    every denominator but the one nearest the tone, which it forms by
    cancellation; that column is set apart. With the tone's nearest bin
    k_m = j0 + s_m and t_m = offset_m - s_m in [-1/2, 1/2], every column
    shares the numerator sin(pi*b_m) = (-1)^k_m sin(pi*t_m), and column
    k_m + 1 is (-1)^k_m * n * sinc(t_m) / sinc(t_m/n): the same ratio
    without the cancellation, with the limit n at t_m = 0.
    """
    rows, cols = out.shape
    angle = np.pi / n * (j0 - np.arange(-1, cols - 1))
    tau = np.pi / n * offset
    np.multiply.outer(np.tan(tau), np.cos(angle), out=out)
    out += np.sin(angle)
    whole = np.rint(offset)
    t = offset - whole
    k = j0 + whole
    sign = 1.0 - 2.0 * (k % 2)
    index = np.arange(rows), (k + 1.0).astype(np.intp)   # the nearest bin's column
    out[index] = 1.0
    np.divide((sign * np.sin(np.pi * t) / np.cos(tau))[:, None], out, out=out)
    out[index] = sign * n * np.sinc(t) / np.sinc(t / n)


def _hann_taps(q: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> None:
    """Twice the Hann-windowed tone's positive-range spectrum over its phase
    factor, u + j*v, written into u and v (rows x n//2):

        u = q_k - cos(pi/n)/2 * (q_{k-1} + q_{k+1}),
        v = sin(pi/n)/2 * (q_{k-1} - q_{k+1}),

    q[:, c] the Dirichlet kernel at bin c - 1 (_dirichlet_rows); the three
    terms are the periodic Hann window's DFT taps 1/2, -1/4, -1/4 with the
    bins' relative phases exp(-+j*pi/n).
    """
    half = u.shape[-1]
    left, centre, right = q[:, :half], q[:, 1:half + 1], q[:, 2:half + 2]
    np.add(left, right, out=u)
    u *= -0.5 * np.cos(np.pi / n)
    u += centre
    np.subtract(left, right, out=v)
    v *= 0.5 * np.sin(np.pi / n)


def _stream_bins(scene: TargetScene, cfg: ChirpConfig, rng: np.random.Generator | None,
                 lo: int, hi: int) -> tuple:
    """One pass of the chain over blocks of _block_chirps chirps: the per-bin
    mean magnitudes of the noisy positive-range spectrum, and the slow-time
    phase of its columns lo .. hi-1, their angle (np.angle's arctan2) in
    (-pi, pi], chirps x (hi - lo).

    The spectrum is the closed form of the Hann-tapered DFT of the unit beat
    tone exp(j*(phi_m + 2*pi*b_m*i/n)), i = 0 .. n-1, at bin b_m = R_m / bin
    spacing:

        X_mk = 1/2 * exp(j*(phi_m + pi*b_m*(n-1)/n + pi*k/n)) * (u + j*v)_mk

    with phi_m = 4*pi*R_m/lambda and u + j*v from _hann_taps. b_m is taken
    from the bin nearest the nominal range, j0, a positive-range bin
    (_check_scene), as b_m = j0 + offset_m with offset_m = ((R0 -
    j0*spacing) + d_m) / spacing, so the offset carries no rounding of the
    whole range. Noiseless magnitudes need only 1/2 * |u + j*v|; a
    noisy block is formed in full and takes its noise in place
    (add_range_noise), and its magnitudes go into the kernel's buffer,
    which the block no longer reads. Each block's magnitudes sit below a
    row 0 that carries the running per-bin sum into the block's reduction
    over chirps, so the sums add chirp after chirp, at any block size.
    """
    n = cfg.adc_samples_per_chirp
    half = n // 2
    d = scene.displacement.samples
    chirps = len(d)
    size = min(_block_chirps(n), chirps)
    spacing = cfg.range_bin_spacing_m()
    j0 = round(scene.nominal_range_m / spacing)
    base = scene.nominal_range_m - j0 * spacing
    q = np.empty((size + 1, half + 2))   # bins -1 .. n/2, a block's chirps from row 1
    noisy = scene.noise_snr_db is not None
    if noisy:   # u and v interleaved, the spectrum's real and imaginary parts
        spectrum = np.empty((size, half), dtype=np.complex128)
        parts = spectrum.view(np.float64).reshape(size, half, 2)
        u, v = parts[..., 0], parts[..., 1]
        scratch = np.empty(2 * size * (half + 2))
        mags = q[:, :half]
    else:       # contiguous, for the magnitudes sqrt(u^2 + v^2)
        mags = np.empty((size + 1, half))
        u, v = mags[1:], np.empty((size, half))
    mags[0] = 0.0   # the running per-bin sum of the magnitudes
    bin_phase = 0.5 * np.exp(1j * np.pi / n * np.arange(half))
    phases = np.empty((chirps, hi - lo))
    for start in range(0, chirps, size):
        stop = min(start + size, chirps)
        rows = stop - start
        offset = (base + d[start:stop]) / spacing
        block_q = q[1:rows + 1]
        _dirichlet_rows(offset, j0, n, block_q)
        block_u, block_v = u[:rows], v[:rows]
        _hann_taps(block_q, n, block_u, block_v)
        phase = np.exp(1j * (4.0 * np.pi * (scene.nominal_range_m + d[start:stop])
                             / cfg.wavelength_m + np.pi * (n - 1) / n * (j0 + offset)))
        if noisy:
            x = spectrum[:rows]
            x *= bin_phase
            x *= phase[:, None]
            add_range_noise(x, scene, cfg, rng, scratch)
            band = x[:, lo:hi]
            np.abs(x, out=block_q[:, :half])
        else:
            band = ((block_u[:, lo:hi] + 1j * block_v[:, lo:hi])
                    * bin_phase[lo:hi] * phase[:, None])
            block_u *= block_u
            block_v *= block_v
            block_u += block_v
            np.sqrt(block_u, out=block_u)
        mags[0] = mags[:rows + 1].sum(axis=0)
        np.arctan2(band.imag, band.real, out=phases[start:stop])
    sums = mags[0] if noisy else 0.5 * mags[0]
    return sums / chirps, phases


def measure_displacement(scene: TargetScene, cfg: ChirpConfig,
                         rng: np.random.Generator | None = None) -> tuple[SampledSignal, dict]:
    """Full chain: range spectrum, receiver noise, phase extraction. Returns
    the displacement trace and the bin decision (_phase_displacement).

    The numbers of the FFT oracle in tests/radar_oracle.py

        spectrum = range_fft(simulate_beat_signal(scene, cfg))
        add_range_noise(spectrum, scene, cfg, rng)
        extract_displacement(spectrum, cfg)

    to rounding, with the same draws from rng, the same bin and the same
    generator state, but with the spectrum in closed form (_stream_bins):
    no beat samples and no FFT. It streams over blocks of chirps in working
    memory that does not grow with chirps x bins: only the per-bin
    magnitude sums and the phase of the columns extraction may read are
    kept, the nominal range's bin +- _BAND_BINS. A selected bin outside
    that band is no return of the target, whose peak lies within one bin
    of the nominal range's: it raises NoCoherentTargetError. A noisy scene
    needs rng; a noiseless one draws nothing and takes None.
    """
    _check_scene(scene, cfg)
    half = cfg.adc_samples_per_chirp // 2
    if rng is None and scene.noise_snr_db is not None:
        raise ValueError("a noisy scene draws from rng: pass a seeded generator")
    centre = cfg.bin_of_range(scene.nominal_range_m)
    lo, hi = max(centre - _BAND_BINS, 0), min(centre + _BAND_BINS + 1, half)
    mags, phases = _stream_bins(scene, cfg, rng, lo, hi)
    choice = _select_bin(mags)
    if not lo <= choice[0] < hi:
        raise NoCoherentTargetError(
            f"selected bin {choice[0]} lies more than {_BAND_BINS} bins from the "
            f"nominal range's bin {centre}")
    return _phase_displacement(phases[:, choice[0] - lo], cfg, choice)
