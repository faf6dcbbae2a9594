"""Cohort evaluation: per-subject mean log-spectral distances of speech,
excitation estimate, and model-filtered displacement against the radar
displacement; descriptive statistics and paired t-tests over the cohort."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .metrics import LOESS_MIN_POINTS, loess_smooth, lsd_over_windows
from .signals import FramePlan, SampledSignal
from .stats import descriptive_stats, paired_t_test

__all__ = [
    "evaluate_signals",
    "build_cohort_report",
    "write_report_json",
    "write_report_csv",
    "write_window_csv",
]

COMPARISONS = ("raw_speech", "estimated_excitation", "model_filtered")


def evaluate_signals(subject_id: str, s: SampledSignal, e_hat: SampledSignal,
                     d_hat: SampledSignal, d: SampledSignal,
                     voiced: np.ndarray) -> tuple[dict, tuple]:
    """Mean LSD of each candidate signal against the radar displacement over
    the windows flagged in `voiced`, on the transform's frame grid, that no
    trace is silent in.

    Returns the subject's report.json row and the lsd_over_windows triple it
    averages, (windows, times_s, lsd keyed by comparison), for
    write_window_csv.
    """
    scored = lsd_over_windows(d, dict(zip(COMPARISONS, (s, e_hat, d_hat))),
                              FramePlan.for_rate(s.rate_hz), voiced)
    windows, _, lsd = scored
    row = {"id": subject_id, **{f"lsd_{name}": float(np.mean(v)) for name, v in lsd.items()},
           "n_voiced_windows": len(windows)}
    return row, scored


def build_cohort_report(rows: list[dict], skipped: list[str] | None = None) -> dict:
    """The record report.json holds: the subjects' evaluate_signals rows,
    sorted by id, the descriptive statistics per comparison, the two paired
    t-tests (model vs raw speech, model vs estimated excitation) and the
    skipped subjects.

    t statistics are computed on (model - other) differences, so a negative t
    means the model-filtered signal sits closer to the radar displacement.
    """
    rows = sorted(rows, key=lambda row: row["id"])
    lsd = {name: np.array([row[f"lsd_{name}"] for row in rows]) for name in COMPARISONS}
    model = lsd["model_filtered"]
    descriptive, t_tests = {}, {}
    if len(rows) >= 2:
        descriptive = {name: descriptive_stats(lsd[name]) for name in COMPARISONS}
        try:
            t_tests = {f"{name}_vs_model_filtered": paired_t_test(model, lsd[name])
                       for name in COMPARISONS[:-1]}   # all but model_filtered
        except ValueError:
            pass
    return {"subjects": rows, "descriptive": descriptive, "t_tests": t_tests,
            "skipped": list(skipped or [])}


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


def write_window_csv(path: str | Path, scored: tuple, span: float) -> None:
    """Per-window LSD curves (raw plus loess-smoothed) for plotting, one row
    per window of an lsd_over_windows triple (windows, times_s, lsd)."""
    windows, times_s, lsd = scored
    header = ["window_index", "time_s"]
    columns = [windows.tolist(), times_s.tolist()]
    smooth = len(windows) >= LOESS_MIN_POINTS   # a shorter series is written unsmoothed
    for name in COMPARISONS:
        smoothed = loess_smooth(times_s, lsd[name], span) if smooth else lsd[name]
        header += [f"lsd_{name}", f"lsd_{name}_loess"]
        columns += [lsd[name].tolist(), smoothed.tolist()]
    _write_csv_lines(path, [",".join(header)] + [",".join(map(repr, row))
                                                  for row in zip(*columns)])


def _write_csv_lines(path: str | Path, lines: list[str]) -> None:
    """Lines of comma-joined cells, each ended by CRLF as in the csv module's
    dialect; no cell of a report needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
        fh.write("\r\n")
