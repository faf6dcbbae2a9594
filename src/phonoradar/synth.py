"""Forward co-simulation of one speaker: vocal fold displacement, glottal
excitation, speech through an all-pole tract, and neck surface displacement,
with every hidden parameter retained as ground truth."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import io as pio
from .io import SUBJECT_FILES, SUBJECT_MANIFEST
from .signals import SampledSignal, differentiate, iir_filter, resample_decimate

__all__ = [
    "GlottalConfig",
    "NeckChannel",
    "VocalTractModel",
    "SyntheticSubject",
    "PulseTrain",
    "synth_vocal_fold_displacement",
    "neck_displacement",
    "excitation_from_displacement",
    "synthesize_speech",
    "random_vocal_tract",
    "cohort_draw",
    "make_subject",
    "save_subject",
    "load_subject",
]

F0_MIN_HZ = 90.0
F0_MAX_HZ = 1000.0
OVERSAMPLE = 8       # fold displacement is generated at this multiple of the rate
FADE_OUT_S = 0.02
TAU_CHOICES_SAMPLES = (0, 1, 2, 4)   # a cohort subject's tissue delays, in samples


@dataclass(frozen=True)
class GlottalConfig:
    """Fold-vibration parameters: pitch, open quotient, peak displacement (m),
    flow gain, and cycle-to-cycle pitch perturbation in percent."""

    f0_hz: float
    open_quotient: float = 0.6
    amplitude: float = 1e-4
    flow_gain_k: float = 1.0
    jitter_pct: float = 0.0

    def __post_init__(self):
        if not (F0_MIN_HZ <= self.f0_hz <= F0_MAX_HZ):
            raise ValueError(f"f0_hz must be in [{F0_MIN_HZ:g}, {F0_MAX_HZ:g}] Hz")
        if not (0.0 < self.open_quotient < 1.0):
            raise ValueError("open_quotient must be in (0, 1)")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be finite and non-negative")
        if not (self.flow_gain_k > 0):
            raise ValueError("flow_gain_k must be positive")
        if not (0.0 <= self.jitter_pct < 100.0):
            raise ValueError("jitter_pct must be in [0, 100): a period cannot shrink to zero")


@dataclass(frozen=True)
class NeckChannel:
    """Tissue path from the folds to the neck surface: scale and delay."""

    k_d: float = 1.0
    tau_d_s: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.k_d < math.inf:
            raise ValueError("k_d must be finite and positive")
        if not (0.0 <= self.tau_d_s < 5e-3):
            raise ValueError("tau_d_s must be in [0, 5 ms)")


@dataclass(frozen=True)
class VocalTractModel:
    """All-pole tract 1/A(z) with A(z) = 1 + sum a_i z^-i.

    An empty coefficient list is the identity tract (pass-through).
    """

    coefficients: np.ndarray
    gain: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=np.float64).copy()
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)
        if not (self.gain > 0):
            raise ValueError("gain must be positive")
        if not _reflections_inside(a.tolist()):
            raise ValueError("unstable tract: poles must lie inside the unit circle")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def error_filter(self) -> np.ndarray:
        return np.concatenate(([1.0], self.coefficients))


def _reflections_inside(a: list[float]) -> bool:
    """Whether every root of 1 + sum a_i z^-i lies strictly inside the unit
    circle, by the step-down recursion: each reflection coefficient, k = a_m
    at order m, must satisfy |k| < 1 (false for NaN too), and the order m - 1
    coefficients are (a_i - k a_{m-i}) / (1 - k^2)."""
    while a:
        k = a[-1]
        if not abs(k) < 1.0:
            return False
        a = [(ai - k * aj) / (1.0 - k * k) for ai, aj in zip(a[:-1], a[-2::-1])]
    return True


@dataclass(frozen=True)
class SyntheticSubject:
    """One simulated speaker: the four signals plus the parameters that made them."""

    x: SampledSignal
    e: SampledSignal
    s: SampledSignal
    d: SampledSignal
    glottal: GlottalConfig
    neck: NeckChannel
    tract: VocalTractModel
    noise_snr_db: float | None = None
    seed: int | None = None

    def __post_init__(self):
        for sig in (self.e, self.s, self.d):
            self.x.require_same_rate(sig)
            if len(sig) != len(self.x):
                raise ValueError("all subject signals must share one length")

    @property
    def rate_hz(self) -> float:
        return self.x.rate_hz


@dataclass(frozen=True)
class PulseTrain:
    """A glottal pulse train of n samples at rate_hz, kept as its cycles and
    evaluated by range (block): cycle c is open over samples i0[c] ..
    i1[c]-1, from t0[c] seconds for t_open[c] seconds, and peaks at
    amplitude. When 0 < n_fade <= n, a raised-cosine ramp fades out its
    last n_fade samples."""

    amplitude: float
    rate_hz: float
    n: int
    i0: np.ndarray
    i1: np.ndarray
    t0: np.ndarray
    t_open: np.ndarray
    n_fade: int

    def __len__(self) -> int:
        return self.n

    @property
    def samples(self) -> np.ndarray:
        """The whole train, evaluated in one pass, read-only."""
        x = self.block(0, self.n)
        x.setflags(write=False)
        return x

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo .. hi-1 (0 <= lo < hi <= n) as a new array. Every
        sample takes the same elementwise arithmetic in any range, so a
        train read block by block has the bytes of one read whole."""
        # the cycles open somewhere in lo .. hi-1; open phases never overlap
        first = np.searchsorted(self.i1, lo, side="right")
        last = np.searchsorted(self.i0, hi)
        start = np.maximum(self.i0[first:last], lo)
        counts = np.maximum(np.minimum(self.i1[first:last], hi) - start, 0)
        idx = np.repeat(start - np.cumsum(counts) + counts, counts)
        idx += np.arange(len(idx))
        # (idx / rate - t0) / t_open, the open phase's progress 0 .. 1, in place
        phase = idx / self.rate_hz
        phase -= np.repeat(self.t0[first:last], counts)
        phase /= np.repeat(self.t_open[first:last], counts)
        rise_frac = 2.0 / 3.0  # fixed speed quotient 2:1 within the open phase
        rise = phase < rise_frac
        u = phase[rise] / rise_frac
        v = (phase[~rise] - rise_frac) / (1.0 - rise_frac)
        phase[rise] = 3.0 * u**2 - 2.0 * u**3
        phase[~rise] = 1.0 - v**2
        x = np.zeros(hi - lo)
        idx -= lo
        x[idx] = self.amplitude * np.clip(phase, 0.0, None)
        fade_from = self.n - self.n_fade if 0 < self.n_fade <= self.n else self.n
        if hi > fade_from:
            ramp = np.arange(max(lo, fade_from) - fade_from, hi - fade_from)
            x[len(x) - len(ramp):] *= 0.5 * (1.0 + np.cos(np.pi * ramp / self.n_fade))
        return x


def synth_vocal_fold_displacement(cfg: GlottalConfig, duration_s: float,
                                  rate_hz: float,
                                  rng: np.random.Generator | None = None,
                                  lead_in_s: float = 0.0) -> PulseTrain:
    """Rosenberg-style polynomial glottal pulse train, unfaded.

    Each cycle opens for open_quotient of the period: a cubic rise over the
    first two thirds of the open phase (zero slope at both ends) and a
    quadratic fall over the last third, zero during the closed phase, peak at
    cfg.amplitude. jitter_pct perturbs each period uniformly, one draw from
    rng per cycle, so jitter needs a generator. An optional
    silent lead-in precedes the first pulse.

    A scalar loop walks the cycle onsets (one jitter draw per cycle); the
    samples are evaluated only when the train is read (PulseTrain.block).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if lead_in_s < 0:
        raise ValueError("lead_in_s must be non-negative")
    if rate_hz < 4.0 * cfg.f0_hz:
        raise ValueError(
            f"rate {rate_hz} Hz too low for f0 {cfg.f0_hz} Hz (need >= 4*f0)"
        )
    if cfg.jitter_pct > 0 and rng is None:
        raise ValueError("jitter draws from rng: pass a seeded generator")
    n = int(round((duration_s + lead_in_s) * rate_hz))
    onsets, open_times = [], []
    t0 = lead_in_s
    t_end = lead_in_s + duration_s
    while t0 < t_end:
        period = 1.0 / cfg.f0_hz
        if cfg.jitter_pct > 0:
            period *= 1.0 + (cfg.jitter_pct / 100.0) * rng.uniform(-1.0, 1.0)
        onsets.append(t0)
        open_times.append(cfg.open_quotient * period)
        t0 += period
    t0 = np.array(onsets)
    t_open = np.array(open_times)
    # open phase of cycle c: samples [i0[c], i1[c]), empty when i1[c] <= i0[c]
    i0 = np.ceil(t0 * rate_hz).astype(np.int64)
    i1 = np.minimum(np.ceil((t0 + t_open) * rate_hz).astype(np.int64), n)
    return PulseTrain(cfg.amplitude, rate_hz, n, i0, i1, t0, t_open, n_fade=0)


def neck_displacement(x: SampledSignal, ch: NeckChannel) -> SampledSignal:
    """Scaled, delayed copy of the fold displacement; head zero-padded."""
    shift = int(round(ch.tau_d_s * x.rate_hz))
    out = np.zeros(len(x))
    if shift < len(x):
        out[shift:] = ch.k_d * x.samples[:len(x) - shift]
    return SampledSignal(out, x.rate_hz)


def excitation_from_displacement(x: SampledSignal, k: float) -> SampledSignal:
    """Glottal excitation as K times the time derivative of fold displacement.

    Uses the zero-phase band-limited differentiator so that band-limited
    integration is its exact inverse; see signals.differentiate for edge
    caveats on strongly aperiodic inputs.
    """
    if len(x) < 2:
        raise ValueError("need at least two samples")
    return x.with_samples(k * differentiate(x.samples, x.rate_hz))


def synthesize_speech(e: SampledSignal, tract: VocalTractModel,
                      noise_snr_db: float | None = None,
                      rng: np.random.Generator | None = None) -> SampledSignal:
    """Excitation through the all-pole tract, optional additive white noise
    drawn from rng, which noise needs."""
    s = iir_filter([tract.gain], tract.error_filter(), e.samples)
    if noise_snr_db is not None:
        if rng is None:
            raise ValueError("noise draws from rng: pass a seeded generator")
        power = float(np.mean(s**2))
        sigma = np.sqrt(power / 10.0 ** (noise_snr_db / 10.0))
        s = s + sigma * rng.standard_normal(len(s))
    return e.with_samples(s)


def random_vocal_tract(rng: np.random.Generator, rate_hz: float = 2000.0) -> VocalTractModel:
    """Vowel-like random stable tract for cohort synthesis.

    One strong mid/high resonance (550-880 Hz at a 2 kHz rate), one lower
    resonance, and an optional weak resonance near the band edge; pole radii
    keep bandwidths physiological and the filter comfortably stable.
    """
    scale = rate_hz / 2000.0
    pairs = [
        (rng.uniform(0.90, 0.97), rng.uniform(550.0, 880.0) * scale),
        (rng.uniform(0.85, 0.95), rng.uniform(180.0, 450.0) * scale),
    ]
    if rng.random() < 0.5:
        pairs.append((rng.uniform(0.80, 0.90), rng.uniform(860.0, 960.0) * scale))
    poles = np.array([radius * np.exp(2j * np.pi * freq / rate_hz)
                      for radius, freq in pairs])
    coeffs = np.poly(np.concatenate([poles, poles.conj()])).real
    return VocalTractModel(coefficients=coeffs[1:], gain=1.0)


def cohort_draw(seed: int, index: int, f0_range: tuple[float, float],
                rate_hz: float) -> tuple:
    """(f0 in Hz, open quotient, neck channel, tract seed, subject seed) of
    subject `index` of the cohort drawn at `seed`, in that order, from the
    subject's own stream SeedSequence(seed, spawn_key=(index,)); f0 is
    uniform over f0_range, (lo, hi) in Hz."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    f0_hz = float(rng.uniform(*f0_range))
    open_quotient = float(rng.uniform(0.5, 0.8))
    k_d = float(rng.uniform(0.5, 1.2))
    tau_samples = TAU_CHOICES_SAMPLES[int(rng.integers(len(TAU_CHOICES_SAMPLES)))]
    return (f0_hz, open_quotient, NeckChannel(k_d=k_d, tau_d_s=tau_samples / rate_hz),
            int(rng.integers(2**31 - 1)), int(rng.integers(2**31 - 1)))


def make_subject(glottal: GlottalConfig, neck: NeckChannel, tract: VocalTractModel,
                 duration_s: float, rate_hz: float,
                 noise_snr_db: float | None = None,
                 seed: int | None = None, lead_in_s: float = 0.0) -> SyntheticSubject:
    """Build an internally consistent subject.

    The fold displacement is generated at OVERSAMPLE * rate_hz and decimated
    through the anti-alias chain so x is band-limited below the working
    Nyquist; e, s, d then follow from the model equations at rate_hz. A
    FADE_OUT_S fade ends the phonation so the spectral derivative sees no
    wrap-around step. Jitter and noise draw from a generator seeded with
    seed; without a seed they raise ValueError.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    hi_rate = rate_hz * OVERSAMPLE
    # The oversampled train is never held whole: the decimation filter reads
    # it block by block, faded where a block reaches the end.
    train = synth_vocal_fold_displacement(glottal, duration_s, hi_rate, rng, lead_in_s)
    x = resample_decimate(replace(train, n_fade=int(FADE_OUT_S * hi_rate)), rate_hz)
    e = excitation_from_displacement(x, glottal.flow_gain_k)
    s = synthesize_speech(e, tract, noise_snr_db, rng)
    d = neck_displacement(x, neck)
    return SyntheticSubject(x=x, e=e, s=s, d=d, glottal=glottal, neck=neck,
                            tract=tract, noise_snr_db=noise_snr_db, seed=seed)


def save_subject(subject: SyntheticSubject, directory: str | Path) -> Path:
    """Write subject.json plus the four signal files into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pio.write_wav(directory / SUBJECT_FILES["speech"], subject.s)
    pio.write_npy_signal(directory / SUBJECT_FILES["vocal_fold"], subject.x)
    pio.write_npy_signal(directory / SUBJECT_FILES["excitation"], subject.e)
    pio.write_csv_signal(directory / SUBJECT_FILES["neck_true"], subject.d)
    manifest = {
        "format": "subject-v2",
        "seed": subject.seed,
        "rate_hz": subject.rate_hz,
        "n_samples": len(subject.x),
        "glottal": asdict(subject.glottal),
        "neck": asdict(subject.neck),
        "tract": {
            "coefficients": subject.tract.coefficients.tolist(),
            "gain": subject.tract.gain,
        },
        "noise_snr_db": subject.noise_snr_db,
        "files": dict(SUBJECT_FILES),
    }
    path = directory / SUBJECT_MANIFEST
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_subject(directory: str | Path) -> SyntheticSubject:
    directory = Path(directory)
    with open(directory / SUBJECT_MANIFEST) as fh:
        manifest = json.load(fh)
    files, rate = manifest["files"], manifest["rate_hz"]
    x = pio.read_npy_signal(directory / files["vocal_fold"], rate)
    e = pio.read_npy_signal(directory / files["excitation"], rate)
    s = pio.read_wav(directory / files["speech"])
    d = pio.read_csv_signal(directory / files["neck_true"])
    return SyntheticSubject(
        x=x, e=e, s=s, d=d,
        glottal=GlottalConfig(**manifest["glottal"]),
        neck=NeckChannel(**manifest["neck"]),
        tract=VocalTractModel(
            coefficients=np.array(manifest["tract"]["coefficients"]),
            gain=manifest["tract"]["gain"],
        ),
        noise_snr_db=manifest["noise_snr_db"],
        seed=manifest["seed"],
    )
