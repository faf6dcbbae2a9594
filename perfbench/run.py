"""Benchmark of the phonoradar pipeline.

With --trace 0 it runs synth -> radar -> transform -> evaluate as separate
`python -m phonoradar.cli` processes on a cohort drawn from --seed, as a
closed loop of whole pipelines (one client, --jobs 1): at least the
workload's minimum, and more while another is expected to end within
--seconds. It reports the end-to-end metrics. With --trace 1 it runs the
stages in process at --jobs 1 with each layer's functions wrapped and reports
the per-layer metrics. Both check the outputs.

    python3 perfbench/run.py --workload cohort66 --seed 42 --seconds 10 --trace 0

Run it from the root of a checkout. The program is imported from ./src and
scratch files go to ./.bench_build/perfbench. The last line of stdout is the
JSON summary; a full record goes to .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from pipeline import (STAGES, THREAD_ENV, WORKLOADS, ReportLedger, acceptance,
                      check_cohort, environment, source_sha256)

SETUP_SAMPLES = 3
RUN_LIMIT_S = 165.0   # stages still running past this are killed
# Wall time of each stage process is printed and recorded but not among the
# bounded metrics: on a 2-vCPU host whose vCPUs drift between two speeds over
# seconds to minutes, single stage times spread more than 25% between runs.
END_TO_END = (
    ("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
    ("completed_share", "ratio"), ("ordering_share", "ratio"),
    ("lsd_model_filtered_mean_db", "dB"),
)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list, env: dict, log, deadline: float) -> tuple:
    """Wall seconds, exit code and peak RSS in MB of one process. The peak
    comes from wait4, which covers the pool workers the process reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=log,
                            stderr=subprocess.STDOUT, start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # leftover workers of a failed stage
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, log, deadline: float) -> list:
    """Fresh-interpreter `import phonoradar.cli` wall times, after one
    discarded import that writes the bytecode cache."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        wall, rc, _ = run_process(["-c", "import phonoradar.cli"], env, log, deadline)
        if rc != 0:
            raise RuntimeError("`import phonoradar.cli` failed; see the stage log")
        times.append(wall)
    return times[1:]


def run_timed(workload, seed: int, seconds: int, work: Path, env: dict,
              ledger: ReportLedger, deadline: float) -> dict:
    """Set-up samples, then at least the workload's min_pipelines whole
    pipelines of stage processes, more while they fit in the measured time;
    medians over the pipelines."""
    log_path = work / "stages.log"
    with open(log_path, "ab") as log:
        setup = measure_setup(env, log, deadline)
        expected = ledger.expected(workload, seed)
        iterations = []
        begin = time.monotonic()
        while True:
            cohort = work / f"cohort{len(iterations)}"
            stage_s, ok, rss = {}, {}, []
            for stage in STAGES:
                argv = ["-m", "phonoradar.cli", *workload.stage_argv(stage, cohort, seed)]
                wall, rc, peak = run_process(argv, env, log, deadline)
                stage_s[stage], ok[stage] = wall, rc == 0
                rss.append(peak)
            check = check_cohort(cohort, workload, ok, expected)
            if check["failed"] == 0 and expected is None:
                expected = check["sha256"]
                ledger.record(workload, seed, expected)
            iterations.append({"stage_s": stage_s, "peak_rss_mb": max(rss), "check": check})
            shutil.rmtree(cohort, ignore_errors=True)
            # Past min_pipelines, start another only if, at the last one's
            # pace, it ends within the measured time.
            now, last = time.monotonic(), sum(stage_s.values())
            if now + last > deadline:
                break
            if len(iterations) >= workload.min_pipelines and now - begin + last > seconds:
                break
    problems = [p for it in iterations for p in it["check"]["problems"]]
    if problems:
        sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
    attempted = sum(it["check"]["attempted"] for it in iterations)
    failed = sum(it["check"]["failed"] for it in iterations)
    report = next((it["check"]["report"] for it in iterations if it["check"]["report"]), None)
    figures = acceptance(report) if report else None
    median = statistics.median
    metrics = {
        "setup_s": median(setup),
        "pipeline_s": median([sum(it["stage_s"].values()) for it in iterations]),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in iterations]),
        "completed_share": 1.0 - failed / attempted,
        "ordering_share": figures["ordering_wins"] / figures["subjects"] if figures else 0.0,
        "lsd_model_filtered_mean_db": figures["lsd_model_filtered_mean_db"] if figures else 0.0,
    }
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "acceptance": figures,
        "report_sha256": [it["check"]["sha256"] for it in iterations],
        "stage_s": {stage: median([it["stage_s"][stage] for it in iterations])
                    for stage in STAGES},
        "samples": {"setup_s": setup,
                    "stage_s": [it["stage_s"] for it in iterations],
                    "peak_rss_mb": [it["peak_rss_mb"] for it in iterations]},
    }


def print_acceptance(figures: dict | None) -> None:
    if figures is None:
        print("ACCEPTANCE no report.json to read")
        return
    print(f"ACCEPTANCE ordering: model-filtered LSD smallest for "
          f"{figures['ordering_wins']}/{figures['subjects']} subjects")
    print(f"ACCEPTANCE mean LSD(d_hat, d): {figures['lsd_model_filtered_mean_db']:.4f} dB")
    for name, tt in figures["t_tests"].items():
        print(f"ACCEPTANCE paired t-test {name}: t={tt['t']:.2f} p={tt['p']:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "phonoradar" / "cli.py").is_file():
        print(f"error: no phonoradar sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # Before anything imports numpy, in this process and in every stage.
    os.environ.update(THREAD_ENV)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    base = root / ".bench_build" / "perfbench"
    work = base / f"run-{os.getpid()}"
    (base / "results").mkdir(parents=True, exist_ok=True)
    work.mkdir()
    source_sha = source_sha256(src)
    ledger = ReportLedger(base / "report_sha256.json", source_sha)
    try:
        if args.trace:
            from traced import LAYER_METRICS, run_traced
            result = run_traced(root, workload, args.seed, work, env, ledger)
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
            notes = {name: f"should move {target}" for name, _, _, target in LAYER_METRICS}
        else:
            result = run_timed(workload, args.seed, args.seconds, work, env, ledger, deadline)
            units = dict(END_TO_END)
            notes = {}
    except (RuntimeError, subprocess.CalledProcessError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stage_args = {s: workload.stage_argv(s, Path("<cohort>"), args.seed)
                  for s in STAGES}
    record = {"workload": workload.name, "why": workload.why, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(root, args.seed, source_sha),
              "stage_args": stage_args, "metric_notes": notes,
              **{k: v for k, v in result.items() if k != "spans"}}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (base / "results" / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
    if "spans" in result:
        (base / "results" / f"{name}-spans.json").write_text(
            json.dumps({"fields": ["name", "start_s", "end_s", "parent"],
                        "spans": result["spans"]}))
    mode = ("stages in process, each once untraced and once traced" if args.trace
            else f"{len(result['samples']['stage_s'])} pipeline run(s) of CLI processes")
    print(f"workload {workload.name} seed {args.seed}: closed loop, one client; {mode}")
    for stage, argv in stage_args.items():
        print(f"  phonoradar {' '.join(argv)}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print_acceptance(result.get("acceptance"))
    for absent in result.get("absent", ()):
        print(f"absent trace target {absent}: its metrics read 0")
    if not args.trace:
        for stage, wall in result["stage_s"].items():
            print(f"stage {stage}_s = {wall:.6g} s (process wall time, median; not bounded)")
    for metric, unit in units.items():
        print(f"metric {metric} = {result['metrics'][metric]:.6g} {unit}  {notes.get(metric, '')}".rstrip())
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
