"""Workloads, stage arguments and the output check shared by the timed and
the traced runs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

STAGES = ("synth", "radar", "transform", "evaluate")

# Files each stage must leave in every subject directory.
STAGE_FILES = {
    "synth": ("subject.json", "speech.wav", "neck_true.csv"),
    "radar": ("neck_radar.csv", "radar.json"),
    "transform": ("e_hat.csv", "x_hat.csv", "d_hat.csv", "transform.json"),
}
LSD_KEYS = ("lsd_raw_speech", "lsd_estimated_excitation", "lsd_model_filtered")
T_TESTS = ("raw_speech_vs_model_filtered", "estimated_excitation_vs_model_filtered")

# BLAS/OpenMP pools held at one thread, so that a stage at --jobs 1 runs one
# thread.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    """A cohort drawn from the run's seed; every stage runs at --jobs 1.

    A timed run holds at least min_pipelines whole pipelines.
    """

    name: str
    subjects: int
    duration_s: float
    synth_args: tuple
    radar_args: tuple
    min_pipelines: int
    why: str

    def stage_argv(self, stage: str, cohort: Path, seed: int) -> list:
        jobs_arg = ["--jobs", "1"]
        if stage == "synth":
            return ["synth", "--out", str(cohort), "--cohort", str(self.subjects),
                    "--seed", str(seed), "--duration", str(self.duration_s),
                    *self.synth_args, *jobs_arg]
        if stage == "radar":
            return ["radar", "--cohort", str(cohort), "--seed", str(seed),
                    *self.radar_args, *jobs_arg]
        if stage == "transform":
            return ["transform", "--cohort", str(cohort), *jobs_arg]
        return ["evaluate", str(cohort), *jobs_arg]


# Two workloads, both at --jobs 1, so that each run fits about a minute of
# pipelines into the benchmark's time limit (a third, say cohort66 at
# --jobs 2, would halve that). long-noisy has 40 subjects because its
# ordering_share, a win count over subjects, spread 19% across seeds with 24.
WORKLOADS = {w.name: w for w in (
    Workload(name="cohort66", subjects=66, duration_s=2.0,
             synth_args=("--f0-range", "90", "500"), radar_args=(), min_pipelines=2,
             why="reference cohort: per-frame loops in transform, lpc, metrics and "
                 "report, per-subject fixed costs and many small CSV writes"),
    Workload(name="long-noisy", subjects=40, duration_s=3.5,
             synth_args=("--f0-range", "90", "250", "--jitter", "1", "--noise-snr", "30"),
             radar_args=("--snr", "20"), min_pipelines=1,
             why="long noisy subjects: large complex beat matrices, the noise paths "
                 "of synth and radar, and loess over long LSD series"),
)}


def subject_ids(workload: Workload) -> list[str]:
    return [f"subject_{i:03d}" for i in range(workload.subjects)]


def check_cohort(cohort: Path, workload: Workload, stage_ok: dict,
                 expected_sha: str | None) -> dict:
    """Validate one pipeline run from outside the program.

    Every subject-stage operation fails on a non-zero stage exit, a missing
    output file, a skipped subject or a non-finite LSD; missing t-tests, or a
    report.json whose sha256 differs from expected_sha, fail every evaluate
    operation. Returns the counts, the problems found, the parsed report and
    its sha256.
    """
    ids = subject_ids(workload)
    failed: set = set()
    problems: list[str] = []
    for stage in STAGES:
        if not stage_ok[stage]:
            failed.update((stage, sid) for sid in ids)
            problems.append(f"{stage}: non-zero exit")
    for stage, names in STAGE_FILES.items():
        for sid in ids:
            missing = [n for n in names if not (cohort / sid / n).is_file()]
            if missing:
                failed.add((stage, sid))
                problems.append(f"{stage} {sid}: missing {', '.join(missing)}")
    report, sha = None, None
    try:
        data = (cohort / "report" / "report.json").read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        report = json.loads(data)
        rows = {row["id"]: row for row in report["subjects"]}
        for sid in ids:
            row = rows.get(sid)
            if sid in report["skipped"] or row is None:
                failed.add(("evaluate", sid))
                problems.append(f"evaluate {sid}: skipped or absent from report.json")
            elif not all(math.isfinite(row[k]) for k in LSD_KEYS):
                failed.add(("evaluate", sid))
                problems.append(f"evaluate {sid}: non-finite LSD")
            elif not (cohort / "report" / "windows" / f"{sid}.csv").is_file():
                failed.add(("evaluate", sid))
                problems.append(f"evaluate {sid}: missing window CSV")
        if any(name not in report["t_tests"] for name in T_TESTS):
            failed.update(("evaluate", sid) for sid in ids)
            problems.append("evaluate: report.json lacks a paired t-test")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        report = None
        failed.update(("evaluate", sid) for sid in ids)
        problems.append(f"evaluate: report.json missing or unreadable ({exc!r})")
    if None not in (sha, expected_sha) and sha != expected_sha:
        failed.update(("evaluate", sid) for sid in ids)
        problems.append(f"evaluate: report.json sha256 {sha} differs from {expected_sha}")
    return {"attempted": len(STAGES) * len(ids), "failed": len(failed),
            "problems": problems, "report": report, "sha256": sha}


def acceptance(report: dict) -> dict:
    """The paper figures: ordering wins, mean model-filtered LSD, t-tests."""
    rows = report["subjects"]
    wins = sum(1 for r in rows if r["lsd_model_filtered"]
               < min(r["lsd_raw_speech"], r["lsd_estimated_excitation"]))
    return {
        "ordering_wins": wins,
        "subjects": len(rows),
        "lsd_model_filtered_mean_db": sum(r["lsd_model_filtered"] for r in rows) / len(rows),
        "t_tests": {name: {"t": tt["t_stat"], "p": tt["p_value"]}
                    for name, tt in report["t_tests"].items()},
    }


class ReportLedger:
    """sha256 of report.json per source tree, workload definition and seed,
    kept in the checkout so that every run of a set is held to the first good
    run's bytes."""

    def __init__(self, path: Path, source_sha: str):
        self.path = path
        self.source_sha = source_sha

    def _key(self, workload: Workload, seed: int) -> str:
        return f"{self.source_sha}:{workload!r}:{seed}"

    def _load(self) -> dict:
        return json.loads(self.path.read_text()) if self.path.is_file() else {}

    def expected(self, workload: Workload, seed: int) -> str | None:
        return self._load().get(self._key(workload, seed))

    def record(self, workload: Workload, seed: int, sha: str) -> None:
        ledger = self._load()
        ledger.setdefault(self._key(workload, seed), sha)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int, source_sha: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source_sha,
        "seed": seed,
        "thread_env": THREAD_ENV,
    }
