"""report/windows/*.csv is written in one joined write; its bytes must equal
the csv.writer row loop it replaced, kept here as the reference."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoradar.metrics import loess_smooth
from phonoradar.report import COMPARISONS, evaluate_signals, write_window_csv
from phonoradar.signals import FramePlan
from phonoradar.transform import TransformConfig, transform_speech

from conftest import voiced_flags


def reference_window_csv(path, scored, span=0.3):
    """write_window_csv as a csv.writer loop over the shared windows."""
    windows, times_s, lsd = scored
    smoothed = {}
    for name, values in lsd.items():
        try:
            smoothed[name] = loess_smooth(times_s, values, span)
        except ValueError:
            smoothed[name] = values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["window_index", "time_s"]
        for name in COMPARISONS:
            header += [f"lsd_{name}", f"lsd_{name}_loess"]
        writer.writerow(header)
        for k, widx in enumerate(windows):
            row = [int(widx), repr(float(times_s[k]))]
            for name in COMPARISONS:
                row += [repr(float(lsd[name][k])), repr(float(smoothed[name][k]))]
            writer.writerow(row)


def assert_same_bytes(tmp_path, scored, span=0.3):
    write_window_csv(tmp_path / "joined.csv", scored, span)
    reference_window_csv(tmp_path / "reference.csv", scored, span=span)
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_evaluated_subject_matches_reference(tmp_path, subject):
    traces, record = transform_speech(subject.s, subject.d, TransformConfig())
    d = subject.d.with_samples(subject.d.samples - subject.d.samples.mean())
    _, scored = evaluate_signals("s", subject.s, traces["e_hat"], traces["d_hat"], d,
                                 voiced_flags(record))
    assert_same_bytes(tmp_path, scored)


def test_a_window_silent_in_one_candidate_is_dropped_from_every_column(tmp_path, subject):
    traces, record = transform_speech(subject.s, subject.d, TransformConfig())
    e_hat, d_hat, voiced = traces["e_hat"], traces["d_hat"], voiced_flags(record)
    d = subject.d.with_samples(subject.d.samples - subject.d.samples.mean())
    plan = FramePlan.for_rate(subject.s.rate_hz)
    _, (kept, _, kept_lsd) = evaluate_signals("s", subject.s, e_hat, d_hat, d, voiced)
    window = int(kept[len(kept) // 2])
    assert all(len(values) == len(kept) for values in kept_lsd.values())
    samples = d_hat.samples.copy()
    samples[window * plan.hop:window * plan.hop + plan.window_len] = 0.25
    row, scored = evaluate_signals("s", subject.s, e_hat, d_hat.with_samples(samples), d,
                                   voiced)
    windows, _, lsd = scored
    shared = np.setdiff1d(kept, [window])
    assert np.array_equal(windows, shared)
    for name in COMPARISONS:
        assert len(lsd[name]) == len(shared), name
        assert row[f"lsd_{name}"] == float(np.mean(lsd[name]))
    assert row["n_voiced_windows"] == len(shared)
    write_window_csv(tmp_path / "w.csv", scored, 0.3)
    lines = (tmp_path / "w.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == shared.tolist()
    assert all("" not in line.split(",") for line in lines)


def scored_over(windows, values, hop_s=0.016):
    """An lsd_over_windows triple over the windows: each comparison's
    distances are values[name]."""
    windows = np.asarray(windows, dtype=np.int64)
    return windows, windows * hop_s, {name: np.asarray(values[name], dtype=np.float64)
                                      for name in COMPARISONS}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), span=st.floats(0.05, 1.0))
def test_any_window_pattern_matches_reference(tmp_path_factory, data, n, span):
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    rows = np.arange(n)[np.array(keep)]   # as short as one window, too short to smooth
    scored = scored_over(rows, {name: data.draw(st.lists(st.floats(0.0, 60.0),
                                                         min_size=len(rows),
                                                         max_size=len(rows)))
                                for name in COMPARISONS})
    assert_same_bytes(tmp_path_factory.mktemp("windows"), scored, span=span)


def test_out_of_range_span_is_rejected(tmp_path):
    scored = scored_over(np.arange(3, 15),
                         {name: np.linspace(2.0, 3.0, 12) for name in COMPARISONS})
    for span in (0.0, 2.0):
        with pytest.raises(ValueError, match="span"):
            write_window_csv(tmp_path / "w.csv", scored, span)
