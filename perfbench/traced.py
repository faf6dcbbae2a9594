"""The traced run: the four stages in process at --jobs 1, once untraced and
once with every layer's public functions wrapped, and the per-layer metrics
computed from the spans, the wrappers' arguments and the files left behind."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pipeline import STAGES, acceptance, check_cohort, subject_ids
from tracer import Tracer


def _clamp_fired(tracer, args, kwargs, result):
    error_filter = args[0] if args else kwargs["error_filter"]
    tracer.count("lpc.clamp_calls")
    if result is not error_filter and list(result) != list(error_filter):
        tracer.count("lpc.clamp_fired")


def _lpc_silent(tracer, args, kwargs, result):
    if result is None:
        tracer.count("lpc.silent_frames")


def _windows(tracer, args, kwargs, result):
    tracer.count("metrics.windows_compared", len(result))


def _beat_bytes(tracer, args, kwargs, result):
    chirps, adc = result.data.shape
    tracer.counts["radar.beat_bytes"] = max(tracer.counts.get("radar.beat_bytes", 0),
                                            chirps * adc * 16)


def _bytes_read(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count(f"io.bytes_read.{tracer.stage}", os.path.getsize(path))


# (module attribute the caller looks up, span name, hook). The span name is
# the layer the function belongs to in the per-layer metrics.
TARGETS = (
    ("phonoradar.cli.make_subject", "synth.make_subject", None),
    ("phonoradar.synth.synth_vocal_fold_displacement",
     "synth.synth_vocal_fold_displacement", None),
    ("phonoradar.cli.save_subject", "synth.save_subject", None),
    ("phonoradar.synth.resample_decimate", "signals.resample_decimate", None),
    ("phonoradar.cli.resample_decimate", "signals.resample_decimate", None),
    ("phonoradar.transform.integrate_spectral", "signals.integrate_spectral", None),
    ("phonoradar.io.write_csv_signal", "io.write_csv_signal", None),
    ("phonoradar.io.read_csv_signal", "io.read_csv_signal", _bytes_read),
    ("phonoradar.io.write_wav", "io.write_wav", None),
    ("phonoradar.io.read_wav", "io.read_wav", _bytes_read),
    ("phonoradar.cli.measure_displacement", "radar.measure_displacement", None),
    ("phonoradar.radar.simulate_beat_signal", "radar.simulate_beat_signal", _beat_bytes),
    ("phonoradar.radar.range_fft", "radar.range_fft", None),
    ("phonoradar.radar.extract_displacement", "radar.extract_displacement", None),
    ("phonoradar.cli.transform_speech", "transform.transform_speech", None),
    ("phonoradar.transform.detect_voicing", "transform.detect_voicing", None),
    ("phonoradar.transform.estimate_delay", "transform.estimate_delay", None),
    ("phonoradar.transform.lpc_analyze", "lpc.lpc_analyze", _lpc_silent),
    ("phonoradar.lpc.levinson_durbin", "lpc.levinson_durbin", None),
    ("phonoradar.lpc.clamp_pole_radius", "lpc.clamp_pole_radius", _clamp_fired),
    ("phonoradar.cli.evaluate_signals", "report.evaluate_signals", None),
    ("phonoradar.report.voicing_mask", "report.voicing_mask", None),
    ("phonoradar.report.lsd_over_windows", "metrics.lsd_over_windows", _windows),
    ("phonoradar.metrics.normalized_power_spectrum",
     "metrics.normalized_power_spectrum", None),
    ("phonoradar.report.loess_smooth", "metrics.loess_smooth", None),
    ("phonoradar.cli.write_window_csv", "report.write_window_csv", None),
    ("phonoradar.cli.build_cohort_report", "report.build_cohort_report", None),
    ("phonoradar.report.paired_t_test", "stats.paired_t_test", None),
    ("phonoradar.cli.write_report_json", "report.write_report_json", None),
    ("phonoradar.cli.write_report_csv", "report.write_report_csv", None),
)

# Per-layer metric: (name, unit, better, end-to-end figure and workload it
# should move). A <stage>_s figure is the stage process time that --trace 0
# prints and pipeline_s sums. Names ending in .busy_s, .self_s or .calls come
# from spans.
LAYER_METRICS = (
    *((f"cli.{stage}_s", "s", "lower",
       f"pipeline_s and the printed {stage}_s on every workload (in-process, untraced)")
      for stage in STAGES),
    ("cli.stage_self_s", "s", "lower", "pipeline_s and every printed stage time on cohort66"),
    ("setup.import_s", "s", "lower", "setup_s and pipeline_s on every workload"),
    ("setup.import_scipy_signal_s", "s", "lower", "setup_s and pipeline_s on every workload"),
    ("synth.make_subject.busy_s", "s", "lower", "synth_s on cohort66"),
    ("synth.synth_vocal_fold_displacement.busy_s", "s", "lower", "synth_s on cohort66"),
    ("synth.save_subject.self_s", "s", "lower", "synth_s on cohort66"),
    ("signals.resample_decimate.busy_s", "s", "lower", "synth_s on long-noisy (guard)"),
    ("signals.integrate_spectral.busy_s", "s", "lower", "transform_s on long-noisy (guard)"),
    ("io.write_csv_signal.busy_s", "s", "lower", "synth_s and transform_s on cohort66"),
    ("io.read_csv_signal.busy_s", "s", "lower", "radar_s and evaluate_s on long-noisy"),
    ("io.bytes_written", "B", "lower",
     "synth_s and transform_s on cohort66 (computed from output file sizes)"),
    ("io.bytes_read", "B", "lower",
     "radar_s and evaluate_s on long-noisy (computed from sizes of files read)"),
    ("radar.simulate_beat_signal.busy_s", "s", "lower", "radar_s on long-noisy"),
    ("radar.range_fft.busy_s", "s", "lower", "radar_s on long-noisy"),
    ("radar.extract_displacement.busy_s", "s", "lower", "radar_s on long-noisy"),
    ("radar.beat_bytes", "B", "lower",
     "peak_rss_mb on long-noisy (computed: largest beat matrix, chirps x ADC samples x 16)"),
    ("transform.transform_speech.self_s", "s", "lower", "transform_s on cohort66"),
    ("transform.estimate_delay.busy_s", "s", "lower", "transform_s on cohort66"),
    ("transform.detect_voicing.busy_s", "s", "lower", "transform_s and evaluate_s on cohort66"),
    ("transform.detect_voicing.calls", "count", "lower", "transform_s and evaluate_s on cohort66"),
    ("transform.per_subject_ms.p50", "ms", "lower", "transform_s on cohort66"),
    ("transform.per_subject_ms.p84", "ms", "lower", "transform_s on cohort66"),
    ("transform.per_subject_ms.n", "count", "higher", "sample count of the two above"),
    ("transform.voiced_share", "ratio", "higher", "transform_s on cohort66"),
    ("transform.order_capped_frames", "count", "lower", "transform_s on cohort66"),
    ("transform.delay_undefined_frames", "count", "lower", "transform_s on long-noisy"),
    ("lpc.lpc_analyze.self_s", "s", "lower", "transform_s on cohort66"),
    ("lpc.levinson_durbin.busy_s", "s", "lower", "transform_s on cohort66"),
    ("lpc.clamp_pole_radius.busy_s", "s", "lower", "transform_s on cohort66"),
    ("lpc.clamp_fired_share", "ratio", "lower", "transform_s on cohort66"),
    ("lpc.silent_frames", "count", "lower", "transform_s on cohort66"),
    ("metrics.normalized_power_spectrum.busy_s", "s", "lower", "evaluate_s on cohort66"),
    ("metrics.normalized_power_spectrum.calls", "count", "lower", "evaluate_s on cohort66"),
    ("metrics.lsd_over_windows.self_s", "s", "lower", "evaluate_s on cohort66"),
    ("metrics.loess_smooth.busy_s", "s", "lower", "evaluate_s on long-noisy"),
    ("metrics.windows_compared", "count", "higher", "evaluate_s on cohort66"),
    ("report.voicing_mask.busy_s", "s", "lower", "evaluate_s on cohort66"),
    ("report.evaluate_signals.self_s", "s", "lower", "evaluate_s on cohort66"),
    ("report.write_window_csv.self_s", "s", "lower", "evaluate_s on cohort66"),
    ("report.per_subject_ms.p50", "ms", "lower", "evaluate_s on cohort66"),
    ("report.per_subject_ms.p84", "ms", "lower", "evaluate_s on cohort66"),
    ("report.per_subject_ms.n", "count", "higher", "sample count of the two above"),
    ("report.skipped_subjects", "count", "lower", "completed_share on every workload"),
    ("stats.paired_t_test.busy_s", "s", "lower", "none: guard, expected near 0"),
    ("trace.overhead_share", "ratio", "lower",
     "none: traced over untraced in-process stage time minus 1; wrapper and span "
     "cost plus run-to-run noise"),
)


def import_times(env: dict, samples: int) -> dict:
    """Median -X importtime figures of `import phonoradar.cli` in a fresh
    interpreter: all phonoradar imports, and scipy.signal wherever it is
    first imported."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import phonoradar.cli"]
    totals, scipy_signal = [], []
    for _ in range(samples):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        top, sig = 0, 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue   # the header line
            if name.strip() == "scipy.signal" and not sig:
                sig = int(cumulative)
            if name.startswith(" phonoradar"):   # top level: a single space
                top += int(cumulative)
        totals.append(top * 1e-6)
        scipy_signal.append(sig * 1e-6)
    return {"setup.import_s": statistics.median(totals),
            "setup.import_scipy_signal_s": statistics.median(scipy_signal)}


def _call_stage(main, argv) -> bool:
    """Run cli.main with its output captured, shown only if the stage fails;
    True on exit code 0."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(argv)
    except Exception:
        traceback.print_exc(file=out)
        rc = -1
    if rc != 0:
        sys.stderr.write(out.getvalue())
    return rc == 0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0.0


def _frame_counts(cohort: Path, subjects: list) -> dict:
    """Decision counts read from transform.json: voiced frames, frames whose
    LPC order was capped below the pitch period, and voiced frames whose
    delay estimate failed."""
    frames = voiced = capped = undefined = 0
    for sid in subjects:
        try:
            meta = json.loads((cohort / sid / "transform.json").read_text())
            rate = json.loads((cohort / sid / "subject.json").read_text())["rate_hz"]
        except (OSError, ValueError, KeyError):
            continue
        order = meta["config"]["lpc_order"]
        frames += meta["n_frames"]
        for rec in meta["per_frame"]:
            if not rec["voiced"]:
                continue
            voiced += 1
            if rec["f0_hz"] and rate / rec["f0_hz"] < order + 1:
                capped += 1
            if rec["tau_d_samples"] is None:
                undefined += 1
    return {"transform.voiced_share": voiced / frames if frames else 0.0,
            "transform.order_capped_frames": capped,
            "transform.delay_undefined_frames": undefined}


def run_traced(root: Path, workload, seed: int, work: Path, env: dict, ledger) -> dict:
    """The four stages in process at --jobs 1, each once untraced and once
    traced, and the per-layer metrics of the traced pass."""
    metrics = import_times(env, samples=3)
    import phonoradar.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"phonoradar imported from {cli.__file__}, not {root / 'src'}")

    expected = ledger.expected(workload, seed)
    tracer = Tracer()
    for target, name, hook in TARGETS:
        tracer.wrap(target, name, hook)
    plain, traced = work / "untraced", work / "traced"
    walls = {"untraced": {}, "traced": {}}
    ok = {"untraced": {}, "traced": {}}
    written = {}
    # Each stage runs untraced and then traced, so that a slow spell of the
    # machine falls on both sides of the overhead comparison.
    for stage in STAGES:
        start = time.perf_counter()
        ok["untraced"][stage] = _call_stage(cli.main, workload.stage_argv(stage, plain, seed))
        walls["untraced"][stage] = time.perf_counter() - start
        before = _dir_bytes(traced) if traced.exists() else 0
        tracer.stage = stage
        start = time.perf_counter()
        with tracer.installed(), tracer.span(f"cli.{stage}"):
            ok["traced"][stage] = _call_stage(cli.main, workload.stage_argv(stage, traced, seed))
        walls["traced"][stage] = time.perf_counter() - start
        written[stage] = _dir_bytes(traced) - before
    plain_check = check_cohort(plain, workload, ok["untraced"], expected)
    if plain_check["failed"] == 0 and expected is None:
        expected = plain_check["sha256"]
        ledger.record(workload, seed, expected)
    check = check_cohort(traced, workload, ok["traced"], expected)
    check["attempted"] += plain_check["attempted"]
    check["failed"] += plain_check["failed"]
    check["problems"] += plain_check["problems"]

    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    for name, _, _, _ in LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if field in ("busy_s", "self_s", "calls"):
            metrics[name] = span(head, field)
    metrics["cli.stage_self_s"] = sum(span(f"cli.{s}", "self_s") for s in STAGES)
    metrics.update({f"cli.{s}_s": wall for s, wall in walls["untraced"].items()})
    counts = tracer.counts
    metrics["io.bytes_written"] = sum(written.values())
    metrics["io.bytes_read"] = sum(v for k, v in counts.items()
                                   if k.startswith("io.bytes_read."))
    metrics["radar.beat_bytes"] = counts.get("radar.beat_bytes", 0)
    for layer, fn in (("transform", "transform.transform_speech"),
                      ("report", "report.evaluate_signals")):
        per_subject = [d * 1e3 for d in tracer.durations(fn)]
        metrics[f"{layer}.per_subject_ms.p50"] = _percentile(per_subject, 50)
        metrics[f"{layer}.per_subject_ms.p84"] = _percentile(per_subject, 84)
        metrics[f"{layer}.per_subject_ms.n"] = len(per_subject)
    metrics.update(_frame_counts(work / "traced", subject_ids(workload)))
    clamp_calls = counts.get("lpc.clamp_calls", 0)
    metrics["lpc.clamp_fired_share"] = (counts.get("lpc.clamp_fired", 0) / clamp_calls
                                        if clamp_calls else 0.0)
    metrics["lpc.silent_frames"] = counts.get("lpc.silent_frames", 0)
    metrics["metrics.windows_compared"] = counts.get("metrics.windows_compared", 0)
    report = check["report"] or {}
    metrics["report.skipped_subjects"] = len(report.get("skipped", ()))
    plain_total = sum(walls["untraced"].values())
    metrics["trace.overhead_share"] = (sum(walls["traced"].values()) - plain_total) / plain_total

    return {
        "metrics": metrics,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "problems": check["problems"],
        "acceptance": acceptance(check["report"]) if check["report"] else None,
        "report_sha256": [plain_check["sha256"], check["sha256"]],
        "absent": tracer.absent,
        "stage_s": walls,
        "bytes_written": written,
        "bytes_read": {s: counts.get(f"io.bytes_read.{s}", 0) for s in STAGES},
        "spans": tracer.spans,
    }
