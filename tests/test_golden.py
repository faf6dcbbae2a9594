"""Golden regression: a seeded 6-subject, 1 s cohort (f0 drawn in 90-500 Hz)
goes through the four CLI stages and must reproduce the recorded per-frame
decisions exactly and every per-subject LSD to within 1e-9 dB.

Two fixtures share the synth and radar outputs. The first transforms at the
default flags. The second transforms a copy of the cohort at VARIANT_FLAGS:
a higher LPC order without pre-emphasis, per-frame delays and the leaky
integrator, the envelope path the defaults leave untested.

The first fixture records the frame-batched pipeline with constant-row
detection (a row whose max equals its min is silent in the spectra and has
no delay), before the forward simulation became array passes; that change
keeps every compared field. Regenerate the fixtures only for an intended
behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

from phonoradar.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_small.json"
VARIANT_GOLDEN = Path(__file__).parent / "data" / "golden_small_variant.json"
VARIANT_FLAGS = ("--lpc-order", "10", "--pre-emphasis", "0", "--tau-mode", "per-frame",
                 "--integration", "leaky")
SEED = 10
SUBJECTS = 6
DURATION_S = 1.0
LSD_TOLERANCE_DB = 1e-9
LSD_FIELDS = ("lsd_raw_speech", "lsd_estimated_excitation", "lsd_model_filtered")


def collect(cohort: Path) -> dict:
    """The compared record of a cohort the four stages have run on."""
    report = json.loads((cohort / "report" / "report.json").read_text())
    lsd = {row["id"]: row for row in report["subjects"]}
    subjects = {}
    for directory in sorted(cohort.glob("subject_*")):
        meta = json.loads((directory / "transform.json").read_text())
        manifest = json.loads((directory / "subject.json").read_text())
        frames = meta["per_frame"]
        subjects[directory.name] = {
            "f0_hz_true": manifest["glottal"]["f0_hz"],
            "global_tau_samples": meta["global_tau_samples"],
            "voiced": [r["voiced"] for r in frames],
            "f0_hz": [r["f0_hz"] for r in frames],
            "tau_d_samples": [r["tau_d_samples"] for r in frames],
            "n_voiced_windows": lsd[directory.name]["n_voiced_windows"],
            **{name: lsd[directory.name][name] for name in LSD_FIELDS},
        }
    return {"seed": SEED, "duration_s": DURATION_S, "subjects": subjects}


def run_cohorts(root: Path) -> tuple[dict, dict]:
    """Run synth -> radar once, then transform -> evaluate at the default
    flags and, on a copy, at VARIANT_FLAGS; collect both records."""
    cohort, variant = root / "cohort", root / "variant"
    for argv in (["synth", "--out", str(cohort), "--cohort", str(SUBJECTS), "--seed", str(SEED),
                  "--duration", str(DURATION_S), "--f0-range", "90", "500"],
                 ["radar", "--cohort", str(cohort)]):
        assert main(argv) == 0, argv
    shutil.copytree(cohort, variant)
    for directory, flags in ((cohort, ()), (variant, VARIANT_FLAGS)):
        for argv in (["transform", "--cohort", str(directory), *flags],
                     ["evaluate", str(directory)]):
            assert main(argv) == 0, argv
    return collect(cohort), collect(variant)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return run_cohorts(tmp_path_factory.mktemp("golden"))


def check(got: dict, golden: dict) -> None:
    assert sorted(got["subjects"]) == sorted(golden["subjects"])
    for sid, want in golden["subjects"].items():
        have = got["subjects"][sid]
        for key in ("global_tau_samples", "voiced", "f0_hz", "tau_d_samples",
                    "n_voiced_windows"):
            assert have[key] == want[key], f"{sid}: {key} differs"
        for name in LSD_FIELDS:
            assert math.isclose(have[name], want[name], rel_tol=0.0,
                                abs_tol=LSD_TOLERANCE_DB), f"{sid}: {name}"


def test_golden_small_cohort(records):
    check(records[0], json.loads(GOLDEN.read_text()))


def test_golden_small_cohort_variant_flags(records):
    check(records[1], json.loads(VARIANT_GOLDEN.read_text()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_cohorts(Path(tmp))
    for path, record in zip((GOLDEN, VARIANT_GOLDEN), got):
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
