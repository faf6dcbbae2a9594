import hashlib
from pathlib import Path

import numpy as np
import pytest

from phonoradar.synth import GlottalConfig, NeckChannel, make_subject, random_vocal_tract


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_test_subject(seed=3, f0=150.0, tau_samples=2, duration=1.0,
                      rate=2000.0, k_d=0.8, jitter=0.0, lead_in=0.05):
    glottal = GlottalConfig(f0_hz=f0, open_quotient=0.6, jitter_pct=jitter)
    neck = NeckChannel(k_d=k_d, tau_d_s=tau_samples / rate)
    tract = random_vocal_tract(np.random.default_rng(seed), rate)
    return make_subject(glottal, neck, tract, duration, rate, seed=seed,
                        lead_in_s=lead_in)


def voiced_flags(record) -> np.ndarray:
    """The voiced flag of each analysis frame, from the per_frame records of
    transform_speech's record."""
    return np.array([r["voiced"] for r in record["per_frame"]], dtype=bool)


@pytest.fixture
def subject():
    return make_test_subject()


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
