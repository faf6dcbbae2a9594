"""report/windows/*.csv is written in one joined write; its bytes must equal
the csv.writer row loop it replaced, kept here as the reference."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoradar.metrics import LsdSeries, loess_smooth
from phonoradar.report import COMPARISONS, evaluate_signals, write_window_csv
from phonoradar.transform import TransformConfig, transform_speech


def reference_window_csv(path, series, span=0.3):
    """write_window_csv as a csv.writer loop over the model-filtered windows."""
    smoothed = {}
    for name, ser in series.items():
        try:
            smoothed[name] = loess_smooth(ser, span)
        except ValueError:
            smoothed[name] = ser
    base = series["model_filtered"]
    index_of = {name: {int(i): k for k, i in enumerate(ser.window_indices)}
                for name, ser in series.items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["window_index", "time_s"]
        for name in COMPARISONS:
            header += [f"lsd_{name}", f"lsd_{name}_loess"]
        writer.writerow(header)
        for k, widx in enumerate(base.window_indices):
            row = [int(widx), repr(float(base.times_s[k]))]
            for name in COMPARISONS:
                j = index_of[name].get(int(widx))
                if j is None:
                    row += ["", ""]
                else:
                    row += [repr(float(series[name].values[j])),
                            repr(float(smoothed[name].values[j]))]
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


def series_over(windows, values, hop_s=0.016):
    windows = np.asarray(windows, dtype=np.int64)
    return LsdSeries(values=np.asarray(values, dtype=np.float64), times_s=windows * hop_s,
                     window_indices=windows)


def test_skipped_windows_leave_empty_cells(tmp_path):
    base = np.arange(3, 15)
    series = {
        "raw_speech": series_over(base[::2], np.linspace(9.0, 4.0, 6)),
        "estimated_excitation": series_over([1, 4, 5], [7.5, 1 / 3, 0.1]),   # too short to smooth
        "model_filtered": series_over(base, np.linspace(2.0, 3.0, 12)),
    }
    assert_same_bytes(tmp_path, series)
    lines = (tmp_path / "joined.csv").read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    assert lines[2].split(b",")[:4] == [b"4", b"0.064", b"", b""]   # no raw speech


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), span=st.floats(0.05, 1.0))
def test_any_window_pattern_matches_reference(tmp_path_factory, data, n, span):
    windows = np.arange(n)
    series = {}
    for name in COMPARISONS:
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if name == "model_filtered" or not any(keep):
            keep = [True] * n
        rows = windows[np.array(keep)]
        values = data.draw(st.lists(st.floats(0.0, 60.0), min_size=len(rows),
                                    max_size=len(rows)))
        series[name] = series_over(rows, values)
    assert_same_bytes(tmp_path_factory.mktemp("windows"), series, span=span)


def test_out_of_range_span_is_rejected(tmp_path):
    series = {name: series_over(np.arange(3, 15), np.linspace(2.0, 3.0, 12))
              for name in COMPARISONS}
    for span in (0.0, 2.0):
        with pytest.raises(ValueError, match="span"):
            write_window_csv(tmp_path / "w.csv", series, span=span)
