"""report/windows/*.csv is written in one joined write; its bytes must equal
the csv.writer row loop it replaced, kept here as the reference."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoradar.metrics import LsdSeries, loess_smooth
from phonoradar.report import COMPARISONS, evaluate_signals, write_window_csv
from phonoradar.signals import FramePlan
from phonoradar.transform import TransformConfig, transform_speech


def reference_window_csv(path, series, span=0.3):
    """write_window_csv as a csv.writer loop over the shared windows."""
    smoothed = {}
    for name, ser in series.items():
        try:
            smoothed[name] = loess_smooth(ser, span)
        except ValueError:
            smoothed[name] = ser
    shared = series["model_filtered"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["window_index", "time_s"]
        for name in COMPARISONS:
            header += [f"lsd_{name}", f"lsd_{name}_loess"]
        writer.writerow(header)
        for k, widx in enumerate(shared.window_indices):
            row = [int(widx), repr(float(shared.times_s[k]))]
            for name in COMPARISONS:
                row += [repr(float(series[name].values[k])),
                        repr(float(smoothed[name].values[k]))]
            writer.writerow(row)


def assert_same_bytes(tmp_path, series, span=0.3):
    write_window_csv(tmp_path / "joined.csv", series, span=span)
    reference_window_csv(tmp_path / "reference.csv", series, span=span)
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_evaluated_subject_matches_reference(tmp_path, subject):
    out = transform_speech(subject.s, subject.d, TransformConfig())
    d = subject.d.with_samples(subject.d.samples - subject.d.samples.mean())
    _, series = evaluate_signals("s", subject.s, out.e_hat, out.d_hat, d, out.voiced_mask())
    assert_same_bytes(tmp_path, series)


def test_a_window_silent_in_one_candidate_is_dropped_from_every_column(tmp_path, subject):
    out = transform_speech(subject.s, subject.d, TransformConfig())
    d = subject.d.with_samples(subject.d.samples - subject.d.samples.mean())
    plan = FramePlan.for_rate(subject.s.rate_hz)
    _, kept = evaluate_signals("s", subject.s, out.e_hat, out.d_hat, d, out.voiced_mask())
    window = int(kept["model_filtered"].window_indices[len(kept["model_filtered"]) // 2])
    assert all(window in ser.window_indices for ser in kept.values())
    samples = out.d_hat.samples.copy()
    samples[window * plan.hop:window * plan.hop + plan.window_len] = 0.25
    row, series = evaluate_signals("s", subject.s, out.e_hat, out.d_hat.with_samples(samples),
                                   d, out.voiced_mask())
    shared = np.setdiff1d(kept["model_filtered"].window_indices, [window])
    for name in COMPARISONS:
        assert np.array_equal(series[name].window_indices, shared), name
        assert row[f"lsd_{name}"] == series[name].mean
    assert row["n_voiced_windows"] == len(shared)
    write_window_csv(tmp_path / "w.csv", series)
    lines = (tmp_path / "w.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == shared.tolist()
    assert all("" not in line.split(",") for line in lines)


def series_over(windows, values, hop_s=0.016):
    windows = np.asarray(windows, dtype=np.int64)
    return LsdSeries(values=np.asarray(values, dtype=np.float64), times_s=windows * hop_s,
                     window_indices=windows)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), span=st.floats(0.05, 1.0))
def test_any_window_pattern_matches_reference(tmp_path_factory, data, n, span):
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    rows = np.arange(n)[np.array(keep)]   # as short as one window, too short to smooth
    series = {name: series_over(rows, data.draw(st.lists(st.floats(0.0, 60.0),
                                                         min_size=len(rows),
                                                         max_size=len(rows))))
              for name in COMPARISONS}
    assert_same_bytes(tmp_path_factory.mktemp("windows"), series, span=span)


def test_out_of_range_span_is_rejected(tmp_path):
    series = {name: series_over(np.arange(3, 15), np.linspace(2.0, 3.0, 12))
              for name in COMPARISONS}
    for span in (0.0, 2.0):
        with pytest.raises(ValueError, match="span"):
            write_window_csv(tmp_path / "w.csv", series, span=span)
