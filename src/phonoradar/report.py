"""Cohort evaluation: per-subject mean log-spectral distances of speech,
excitation estimate, and model-filtered displacement against the radar
displacement; descriptive statistics and paired t-tests over the cohort."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .metrics import LOESS_MIN_POINTS, loess_smooth, lsd_over_windows
from .signals import FramePlan, SampledSignal
from .stats import descriptive_stats, paired_t_test

__all__ = [
    "SubjectEvaluation",
    "evaluate_signals",
    "build_cohort_report",
    "write_report_json",
    "write_report_csv",
    "write_window_csv",
]

COMPARISONS = ("raw_speech", "estimated_excitation", "model_filtered")


@dataclass(frozen=True)
class SubjectEvaluation:
    subject_id: str
    lsd_raw_speech: float
    lsd_estimated_excitation: float
    lsd_model_filtered: float
    n_voiced_windows: int


def evaluate_signals(subject_id: str, s: SampledSignal, e_hat: SampledSignal,
                     d_hat: SampledSignal, d: SampledSignal,
                     voiced: np.ndarray) -> tuple[SubjectEvaluation, dict]:
    """Mean LSD of each candidate signal against the radar displacement over
    the windows flagged in `voiced`, on the transform's frame grid: the
    frames the transform voiced (TransformOutput.voiced_mask).

    Returns the evaluation and the per-window LSD series it averages, keyed
    by comparison, for write_window_csv.
    """
    plan = FramePlan.for_rate(s.rate_hz)
    series = {name: lsd_over_windows(signal, d, plan, voiced)
              for name, signal in zip(COMPARISONS, (s, e_hat, d_hat))}
    evaluation = SubjectEvaluation(
        subject_id=subject_id,
        lsd_raw_speech=series["raw_speech"].mean,
        lsd_estimated_excitation=series["estimated_excitation"].mean,
        lsd_model_filtered=series["model_filtered"].mean,
        n_voiced_windows=len(series["model_filtered"]),
    )
    return evaluation, series


def build_cohort_report(evaluations: list[SubjectEvaluation],
                        skipped: list[str] | None = None) -> dict:
    """The record report.json holds: each subject's row, sorted by id, the
    descriptive statistics per comparison, the two paired t-tests (model vs
    raw speech, model vs estimated excitation) and the skipped subjects.

    t statistics are computed on (model - other) differences, so a negative t
    means the model-filtered signal sits closer to the radar displacement.
    """
    evaluations = sorted(evaluations, key=lambda ev: ev.subject_id)
    raw = np.array([ev.lsd_raw_speech for ev in evaluations])
    exc = np.array([ev.lsd_estimated_excitation for ev in evaluations])
    mod = np.array([ev.lsd_model_filtered for ev in evaluations])
    descriptive, t_tests = {}, {}
    if len(evaluations) >= 2:
        descriptive = {name: asdict(descriptive_stats(lsd))
                       for name, lsd in zip(COMPARISONS, (raw, exc, mod))}
        try:
            t_tests = {"raw_speech_vs_model_filtered": _t_test_record(mod, raw),
                       "estimated_excitation_vs_model_filtered": _t_test_record(mod, exc)}
        except ValueError:
            pass
    return {
        "subjects": [{"id": ev.subject_id, "lsd_raw_speech": ev.lsd_raw_speech,
                      "lsd_estimated_excitation": ev.lsd_estimated_excitation,
                      "lsd_model_filtered": ev.lsd_model_filtered,
                      "n_voiced_windows": ev.n_voiced_windows}
                     for ev in evaluations],
        "descriptive": descriptive,
        "t_tests": t_tests,
        "skipped": list(skipped or []),
    }


def _t_test_record(a: np.ndarray, b: np.ndarray) -> dict:
    tt = paired_t_test(a, b)
    return {"t_stat": tt.t_stat, "n": tt.n, "std": tt.std_of_differences,
            "p_value": tt.p_value, "df": tt.df}


def write_report_json(path: str | Path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(path: str | Path, report: dict) -> None:
    """Single CSV with a `table` column carrying both summary tables of a
    build_cohort_report record."""
    rows = [["table", "comparison", "mean", "n", "std", "sem", "t_stat", "p_value"]]
    rows += [["descriptive", name, repr(st["mean"]), st["n"], repr(st["std"]),
              repr(st["sem"]), "", ""] for name, st in report["descriptive"].items()]
    rows += [["paired_t_test", name, "", tt["n"], repr(tt["std"]), "",
              repr(tt["t_stat"]), repr(tt["p_value"])] for name, tt in report["t_tests"].items()]
    _write_csv_lines(path, [",".join(map(str, row)) for row in rows])


def write_window_csv(path: str | Path, series: dict, span: float = 0.3) -> None:
    """Per-window LSD curves (raw plus loess-smoothed) for plotting."""
    # A series too short to smooth is written unsmoothed.
    smoothed = {name: loess_smooth(ser, span) if len(ser) >= LOESS_MIN_POINTS else ser
                for name, ser in series.items()}
    # Each comparison's cells, keyed by window index: its raw and smoothed LSD,
    # or two empty cells where it has no such window.
    cells = {name: dict(zip(ser.window_indices.tolist(),
                            map("{!r},{!r}".format, ser.values.tolist(),
                                smoothed[name].values.tolist())))
             for name, ser in series.items()}
    header = ["window_index", "time_s"]
    for name in COMPARISONS:
        header += [f"lsd_{name}", f"lsd_{name}_loess"]
    lines = [",".join(header)]
    base = series["model_filtered"]
    for widx, t in zip(base.window_indices.tolist(), base.times_s.tolist()):
        lines.append(",".join([str(widx), repr(t),
                               *(cells[name].get(widx, ",") for name in COMPARISONS)]))
    _write_csv_lines(path, lines)


def _write_csv_lines(path: str | Path, lines: list[str]) -> None:
    """Lines of comma-joined cells, each ended by CRLF as in the csv module's
    dialect; no cell of a report needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
        fh.write("\r\n")
