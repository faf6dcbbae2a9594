"""Command line front end: cohort synthesis, radar measurement, model
transform, and cohort evaluation.

Each stage builds its configuration once from the flags, removes what an
earlier run left of its outputs and of every later stage's (STAGE_OUTPUTS),
and runs one worker per subject, in process or on a pool of --jobs
processes. Transform and evaluate read the radar trace, neck_radar.csv; a
subject without one is their data error. Each subject's line is printed as
it finishes, in subject order. A subject whose worker raises a data error or
runs out of memory is skipped, on one `error:` line; the others run. So is
each subject that a pool worker's death left without a result.

Importing this module loads io and signals alone; each stage imports its
own layer of the package when it runs, so that a stage process holds no
other stage's modules.

Exit codes: 0 success, 1 usage error, 2 data/precondition error (in a cohort
stage: of every subject), 130 interrupted (SIGINT, as by Ctrl-C), on one
`interrupted` line. At most the subjects in flight finish; the others keep
no outputs, as the stage cleared them before its workers started.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import math
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import io as pio
from .io import SUBJECT_FILES, SUBJECT_MANIFEST
from .signals import FramePlan, resample_decimate

if TYPE_CHECKING:
    from .radar import ChirpConfig, TargetScene
    from .synth import GlottalConfig
    from .transform import TransformConfig


def _deferred(module: str, name: str):
    """A stand-in for `name` of the package module `module` that imports the
    module on its first call, so that a stage process loads only its own
    layer. The stages call each kernel through its name here, the name a
    tracer wraps."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


make_subject = _deferred(".synth", "make_subject")
save_subject = _deferred(".synth", "save_subject")
measure_displacement = _deferred(".radar", "measure_displacement")
transform_speech = _deferred(".transform", "transform_speech")
evaluate_signals = _deferred(".report", "evaluate_signals")
write_window_csv = _deferred(".report", "write_window_csv")
build_cohort_report = _deferred(".report", "build_cohort_report")
write_report_json = _deferred(".report", "write_report_json")
write_report_csv = _deferred(".report", "write_report_csv")

# Defaults of the synth flags that one mode alone reads. Each flag parses to
# None, so that cmd_synth can refuse it in a run of the other mode.
SINGLE_SUBJECT_DEFAULTS = {"f0": 120.0, "open_quotient": 0.6, "k_d": 1.0, "tau_ms": 1.0}
COHORT_DEFAULTS = {"f0_range": (90.0, 500.0)}
# Spawn key of the radar noise streams' parent: synth's per-subject streams
# are SeedSequence(seed)'s children, spawn keys (i,); radar's are (key, i).
RADAR_NOISE_KEY = int.from_bytes(b"radar", "big")

RADAR_FILE = "neck_radar.csv"
RADAR_META = "radar.json"
TRANSFORM_FILES = {"e_hat": "e_hat.csv", "x_hat": "x_hat.csv", "d_hat": "d_hat.csv"}
TRANSFORM_META = "transform.json"
# Each stage's per-subject outputs, in pipeline order. Clearing a stage
# removes its own and every later stage's, which were built on what it
# replaces; subject.json goes first, so that a subject whose removal or
# rewrite fails is unlisted.
STAGE_OUTPUTS = {
    "synth": (SUBJECT_MANIFEST, *SUBJECT_FILES.values()),
    "radar": (RADAR_FILE, RADAR_META),
    "transform": (*TRANSFORM_FILES.values(), TRANSFORM_META),
}
DATA_ERRORS = (OSError, ValueError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative number is a value, -inf and -1e9 too, which argparse's test misses.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _checked(kind, holds, requirement: str):
    """An argparse type: kind(text), refused unless holds(value). The flag's
    command-line text and its --config value both pass through it."""
    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, not {text}")
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid float value" names the kind
    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"at least {low}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="phonoradar",
                     description="Synthetic radar/speech co-simulation pipeline")
    finite = _checked(float, math.isfinite, "finite")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_flags(p):
        p.add_argument("--config", help="JSON file of parameter overrides "
                                        "(keys are the long flag names)")
        p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")

    p = sub.add_parser("synth", help="synthesize one subject or a cohort")
    add_common_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cohort", type=_at_least(0), default=0,
                   help="number of subjects (0 = single subject)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--duration", default=1.0, help="seconds of phonation",
                   type=_checked(float, lambda v: 0.0 < v < math.inf, "finite and positive"))
    # Speech is written as WAV, whose header holds a whole number of Hz.
    p.add_argument("--rate", default=2000.0, help="sample rate, Hz",
                   type=_checked(float, lambda v: 0.0 < v < math.inf and v.is_integer(),
                                 "a positive whole number"))
    p.add_argument("--f0", type=float, help="single-subject pitch, Hz")
    p.add_argument("--f0-range", type=float, nargs=2, metavar=("LO", "HI"),
                   help="cohort pitch range, Hz")
    p.add_argument("--open-quotient", type=float, help="single-subject open quotient")
    p.add_argument("--amplitude", type=float, default=1e-4,
                   help="peak fold displacement, meters")
    p.add_argument("--jitter", type=float, default=0.0, help="cycle jitter, percent")
    p.add_argument("--k-d", type=float, help="single-subject tissue transmission scale")
    p.add_argument("--tau-ms", type=finite, help="single-subject tissue delay, milliseconds")
    p.add_argument("--noise-snr", type=finite, default=None,
                   help="speech SNR in dB (omit for noiseless)")
    p.add_argument("--lead-in", default=0.05, help="silent lead-in before phonation, seconds",
                   type=_checked(float, lambda v: 0.0 <= v < math.inf, "finite and non-negative"))

    p = sub.add_parser("radar", help="simulate the radar measurement of a subject")
    add_common_flags(p)
    p.add_argument("--subject", help="subject directory")
    p.add_argument("--cohort", help="cohort directory (all subjects)")
    p.add_argument("--snr", type=float, default=None,
                   help="radar SNR per ADC sample in dB (omit for noiseless)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--start-freq", type=float, default=77e9)
    p.add_argument("--bandwidth", type=float, default=3.6e9)
    p.add_argument("--chirp-duration", type=float, default=60e-6)
    # Below 16 the Hann main lobe can be the median noise floor (ChirpConfig).
    p.add_argument("--adc-samples", type=_at_least(16), default=256)
    p.add_argument("--range", type=float, default=0.25, help="target range, meters")

    p = sub.add_parser("transform", help="run the model transform")
    add_common_flags(p)
    p.add_argument("--subject", help="subject directory (uses manifest files)")
    p.add_argument("--cohort", help="cohort directory (all subjects)")
    p.add_argument("--speech", help="speech WAV path")
    p.add_argument("--displacement", help="displacement CSV path")
    p.add_argument("--out", help="output directory for explicit file mode")
    p.add_argument("--lpc-order", type=int, default=6)
    p.add_argument("--pre-emphasis", type=float, default=0.9)
    p.add_argument("--voicing-threshold", type=float, default=0.5)
    p.add_argument("--max-lag-ms", type=float, default=5.0)
    p.add_argument("--tau-mode", choices=("global", "per-frame"), default="global")
    p.add_argument("--integration", choices=("spectral", "leaky"), default="spectral")

    p = sub.add_parser("evaluate", help="evaluate a transformed cohort")
    add_common_flags(p)
    p.add_argument("cohort", help="cohort directory")
    p.add_argument("--out", help="report directory (default <cohort>/report)")
    p.add_argument("--loess-span", default=0.3,
                   type=_checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"))

    parser.subcommand_parsers = sub.choices
    return parser


def _subject_dirs(cohort: Path) -> list[Path]:
    dirs = sorted(p for p in cohort.iterdir()
                  if p.is_dir() and (p / SUBJECT_MANIFEST).exists())
    if not dirs:
        raise FileNotFoundError(f"no subject directories under {cohort}")
    return dirs


def _from_flags(config, **values):
    """config(**values) for values taken from flags: a value the config
    rejects is a usage error."""
    try:
        return config(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _remove(directory: Path, names) -> None:
    """Remove the named files an earlier run left in directory, in order; a
    directory in a file's place is left for a write to name."""
    for name in names:
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            (directory / name).unlink()


def _clear(stage: str, task) -> None:
    """Remove the outputs of stage and of every later stage that an earlier
    run left in a task's subject directory."""
    later = list(STAGE_OUTPUTS)[list(STAGE_OUTPUTS).index(stage):]
    _remove(Path(_subject(task)), [name for s in later for name in STAGE_OUTPUTS[s]])


def _synth_one(glottal: GlottalConfig, duration_s: float, rate_hz: float,
               noise_snr_db: float | None, lead_in_s: float, task: tuple) -> None:
    """Worker: build and save one subject. task is (directory, draw), and
    draw() gives the subject's (f0 in Hz, open quotient, neck channel, tract
    seed, subject seed): a cohort subject's is its cohort_draw, so that a
    drawn delay the neck channel refuses is this subject's data error."""
    from .synth import random_vocal_tract
    directory, draw = task
    with pio.naming(directory):
        f0_hz, open_quotient, neck, tract_seed, seed = draw()
        subject = make_subject(replace(glottal, f0_hz=f0_hz, open_quotient=open_quotient),
                               neck, random_vocal_tract(np.random.default_rng(tract_seed),
                                                        rate_hz),
                               duration_s, rate_hz, noise_snr_db=noise_snr_db, seed=seed,
                               lead_in_s=lead_in_s)
    save_subject(subject, directory)


def cmd_synth(args) -> int:
    from .synth import F0_MAX_HZ, F0_MIN_HZ, GlottalConfig, NeckChannel, cohort_draw
    for dest, default in {**SINGLE_SUBJECT_DEFAULTS, **COHORT_DEFAULTS}.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif (dest in COHORT_DEFAULTS) != bool(args.cohort):
            raise UsageError(f"--{dest.replace('_', '-')} is for "
                             f"{'single-subject' if args.cohort else 'cohort'} runs")
    glottal = _from_flags(GlottalConfig, f0_hz=args.f0, open_quotient=args.open_quotient,
                          amplitude=args.amplitude, jitter_pct=args.jitter)
    out = Path(args.out)
    if not args.cohort:
        tau_samples = int(round(args.tau_ms * 1e-3 * args.rate))
        neck = _from_flags(NeckChannel, k_d=args.k_d, tau_d_s=tau_samples / args.rate)
        # the draw of the flags' values
        tasks = [(out, functools.partial(tuple, (args.f0, args.open_quotient, neck,
                                                 args.seed, args.seed)))]
    else:
        lo, hi = args.f0_range
        if not (F0_MIN_HZ <= lo <= hi <= F0_MAX_HZ):
            raise UsageError(f"--f0-range must lie within [{F0_MIN_HZ:g}, {F0_MAX_HZ:g}] Hz")
        tasks = [(out / f"subject_{i:03d}",
                  functools.partial(cohort_draw, args.seed, i, args.f0_range, args.rate))
                 for i in range(args.cohort)]
    out.mkdir(parents=True, exist_ok=True)
    if args.cohort:   # a smaller rerun lists none of the earlier run's extra subjects
        for directory in sorted(out.glob("subject_*")):
            index = _cohort_index(directory)
            if index is not None and index >= args.cohort and directory.is_dir():
                _clear("synth", directory)
    written = len(_run_subjects(functools.partial(_synth_one, glottal, args.duration, args.rate,
                                                  args.noise_snr, args.lead_in),
                                functools.partial(_clear, "synth"), tasks, args.jobs))
    if written:
        print(f"wrote {written} subjects to {out}" if args.cohort else f"wrote subject to {out}")
    return 0 if written else 2


def radar_noise_seed(seed: int, index: int) -> np.random.SeedSequence:
    """The radar noise seed of subject `index` in a run at `seed`, child
    `index` of SeedSequence(seed, spawn_key=(RADAR_NOISE_KEY,)): one stream
    per subject, apart from every other subject's, from the streams of
    other seeds and from synth's."""
    return np.random.SeedSequence(seed, spawn_key=(RADAR_NOISE_KEY, index))


def _cohort_index(directory: Path) -> int | None:
    """i of a directory named subject_{i:03d}, as synth names cohort subjects."""
    i = directory.name.removeprefix("subject_")
    return int(i) if i.isdecimal() and directory.name == f"subject_{int(i):03d}" else None


def _radar_one(chirp: ChirpConfig, scene: TargetScene, seed: int, task: tuple) -> str:
    """Worker: measure one subject's neck displacement at the subject's rate
    as PRF. task is (directory, noise stream index or None). A failed
    measurement writes nothing."""
    directory, index = task
    d_true = pio.read_csv_signal(directory / SUBJECT_FILES["neck_true"])
    cfg = replace(chirp, prf_hz=d_true.rate_hz)
    scene = replace(scene, displacement=d_true)
    if scene.noise_snr_db is not None and index is None:
        raise ValueError(f"{directory}: a noisy cohort run keys each subject's noise "
                         "by its subject_NNN name")
    # A noiseless run never imports numpy.random: about 2.1 MB of RSS.
    rng = (np.random.default_rng(radar_noise_seed(seed, index))
           if scene.noise_snr_db is not None else None)
    with pio.naming(directory):
        measured, decision = measure_displacement(scene, cfg, rng)
    truth = d_true.samples - d_true.samples.mean()
    denom = float(np.linalg.norm(truth) * np.linalg.norm(measured.samples))
    corr = float(truth @ measured.samples / denom) if denom > 0 else 0.0
    meta = {
        **decision,
        "range_m": scene.nominal_range_m,
        "snr_db": scene.noise_snr_db,
        "correlation_vs_truth": corr,
        "chirp": asdict(cfg),
    }
    # The trace last: a subject has one only once its record is written too.
    (directory / RADAR_META).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    pio.write_csv_signal(directory / RADAR_FILE, measured)
    return f"{directory}: corr={corr:.6f}"


def cmd_radar(args) -> int:
    from .radar import ChirpConfig, TargetScene
    if bool(args.subject) == bool(args.cohort):
        raise UsageError("provide exactly one of --subject or --cohort")
    # The worker fills in the PRF (the subject's rate) and the displacement.
    chirp = _from_flags(ChirpConfig, start_freq_hz=args.start_freq,
                        bandwidth_hz=args.bandwidth, chirp_duration_s=args.chirp_duration,
                        adc_samples_per_chirp=args.adc_samples)
    scene = _from_flags(TargetScene, displacement=None, nominal_range_m=args.range,
                        noise_snr_db=args.snr)
    _from_flags(chirp.check_range, range_m=args.range)
    # A noise stream follows its subject_NNN name, not the subject's place in
    # the cohort; a lone subject of any other name takes stream 0.
    if args.subject:
        tasks = [(Path(args.subject), _cohort_index(Path(args.subject)) or 0)]
    else:
        tasks = [(d, _cohort_index(d)) for d in _subject_dirs(Path(args.cohort))]
    done = _run_subjects(functools.partial(_radar_one, chirp, scene, args.seed),
                         functools.partial(_clear, "radar"), tasks, args.jobs)
    return 0 if done else 2


def _transform_one(cfg: TransformConfig, task: tuple) -> str:
    """Worker: transform one speech/displacement pair and write the three
    estimates and transform.json. task is (output directory, speech WAV,
    displacement CSV). Speech at an integer multiple of the displacement
    rate is decimated to it; any other rate is a data error."""
    out_dir, speech_path, displacement_path = map(Path, task)
    speech = pio.read_wav(speech_path)
    displacement = pio.read_csv_signal(displacement_path)
    with pio.naming(f"{speech_path} and {displacement_path}"):
        if abs(speech.rate_hz - displacement.rate_hz) > 1e-9:
            speech = resample_decimate(speech, displacement.rate_hz)
        traces, record = transform_speech(speech, displacement, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for key, name in TRANSFORM_FILES.items():
        pio.write_csv_signal(out_dir / name, traces[key])
    # One compact dumps call: json.dump, and any indent, run the pure-Python
    # encoder, several times slower on the per-frame records.
    (out_dir / TRANSFORM_META).write_text(
        json.dumps({**record, "config": asdict(cfg)}, sort_keys=True) + "\n")
    return (f"{out_dir}: {record['n_voiced']}/{record['n_frames']} voiced frames, "
            f"tau={record['global_tau_samples']}")


def cmd_transform(args) -> int:
    from .transform import TransformConfig
    if sum(bool(v) for v in (args.subject, args.cohort, args.speech)) != 1:
        raise UsageError("provide exactly one of --subject, --cohort, or --speech/--displacement")
    # Every TransformConfig field is a flag of the same name.
    cfg = _from_flags(TransformConfig, **{f.name: getattr(args, f.name)
                                          for f in fields(TransformConfig)})
    if args.speech:
        if not args.displacement or not args.out:
            raise UsageError("explicit mode needs --speech, --displacement, and --out")
        tasks = [(args.out, args.speech, args.displacement)]
    elif args.displacement is not None or args.out is not None:
        raise UsageError("--displacement and --out are for explicit mode, with --speech")
    else:
        dirs = [Path(args.subject)] if args.subject else _subject_dirs(Path(args.cohort))
        tasks = [(d, d / SUBJECT_FILES["speech"], d / RADAR_FILE) for d in dirs]
    done = _run_subjects(functools.partial(_transform_one, cfg),
                         functools.partial(_clear, "transform"), tasks, args.jobs)
    return 0 if done else 2


def _transform_voicing(path: Path, n_frames: int) -> np.ndarray:
    """The voiced flag of each of n_frames analysis frames, as the transform
    decided it: the per_frame[].voiced records of its transform.json."""
    try:
        with open(path) as fh:
            voiced = np.array([record["voiced"] for record in json.load(fh)["per_frame"]])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: no per-frame voicing records ({exc!r})") from None
    if voiced.dtype != bool or voiced.shape != (n_frames,):
        raise ValueError(f"{path}: per-frame voiced flags of shape {voiced.shape} and type "
                         f"{voiced.dtype}, want {n_frames} booleans")
    return voiced


def _evaluate_one(windows: Path, span: float, directory: Path) -> dict:
    """Worker: the report.json row of one transformed subject, its LSDs over
    the frames its transform voiced; writes the subject's per-window CSV,
    loess-smoothed over span, into the windows directory."""
    s_path, d_path = directory / SUBJECT_FILES["speech"], directory / RADAR_FILE
    e_path, d_hat_path = (directory / TRANSFORM_FILES[key] for key in ("e_hat", "d_hat"))
    s = pio.read_wav(s_path)
    d = pio.read_csv_signal(d_path)
    e_hat, d_hat = map(pio.read_csv_signal, (e_path, d_hat_path))
    for path, sig in ((e_path, e_hat), (d_hat_path, d_hat), (d_path, d)):
        if len(sig) != len(s):   # the traces are paired sample by sample
            raise ValueError(f"length mismatch: {s_path} has {len(s)} samples, "
                             f"{path} has {len(sig)}")
    voiced = _transform_voicing(directory / TRANSFORM_META,
                                FramePlan.for_rate(s.rate_hz).n_frames(len(s)))
    with pio.naming(directory):
        row, scored = evaluate_signals(directory.name, s, e_hat, d_hat, d, voiced)
    write_window_csv(windows / f"{directory.name}.csv", scored, span)
    return row


def cmd_evaluate(args) -> int:
    cohort = Path(args.cohort)
    dirs = _subject_dirs(cohort)
    out_dir = Path(args.out) if args.out else cohort / "report"
    windows = out_dir / "windows"
    windows.mkdir(parents=True, exist_ok=True)
    _remove(out_dir, ("report.json", "report.csv"))
    rows = dict(_run_subjects(functools.partial(_evaluate_one, windows, args.loess_span),
                              lambda d: _remove(windows, (f"{d.name}.csv",)), dirs, args.jobs))
    if not rows:
        return 2
    report = build_cohort_report(list(rows.values()), [d.name for d in dirs if d not in rows])
    write_report_json(out_dir / "report.json", report)
    write_report_csv(out_dir / "report.csv", report)
    print(f"evaluated {len(rows)} subjects -> {out_dir}")
    for name, tt in report["t_tests"].items():
        print(f"  {name}: t={tt['t_stat']:.3f} n={tt['n']} p={tt['p_value']:.3g}")
    if len(rows) < 2:
        print("  t-tests skipped: need at least 2 subjects")
    return 0


def _subject(task):
    """The subject directory a task is, or a tuple task begins with."""
    return task[0] if isinstance(task, tuple) else task


def _outcome(worker, task):
    """worker(task), or the data error it raised; running out of memory is
    the subject's data error."""
    try:
        return worker(task)
    except DATA_ERRORS as exc:
        return exc
    except MemoryError:
        return MemoryError(f"{_subject(task)}: out of memory")


def _print_outcome(outcome) -> None:
    """A worker's line on stdout, or its error on an `error:` line on stderr."""
    if isinstance(outcome, Exception):
        print(f"error: {outcome}", file=sys.stderr)
    elif isinstance(outcome, str):
        print(outcome)


def _run_subjects(worker, clear, tasks: list, jobs: int) -> list[tuple]:
    """(task, worker(task)) of each task that succeeded, in task order.
    Before any worker starts, clear(task) removes each task's outputs of an
    earlier run, in this process; a task whose clearing fails is not run.
    Each task's outcome is printed as it arrives, in task order: a line the
    worker returned, or an `error:` line, as for each task a pool worker's
    death left without a result."""
    outcomes = [_outcome(clear, t) for t in tasks]   # None, or why the task is not run
    todo = [i for i, outcome in enumerate(outcomes) if outcome is None]
    run = functools.partial(_outcome, worker)
    if jobs <= 1 or len(todo) <= 1:
        for i, task in enumerate(tasks):
            if outcomes[i] is None:
                try:
                    outcomes[i] = run(task)
                except KeyboardInterrupt:   # the interrupted subject keeps no outputs
                    clear(task)
                    raise
            _print_outcome(outcomes[i])
    else:
        # Imported here: the pool machinery (multiprocessing, logging, socket)
        # costs every serial stage process about 25 ms of start-up.
        import signal
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        # No more workers than tasks: the pool forks all of them at its first
        # submit. An interrupt is the parent's alone: the workers ignore
        # SIGINT, so the subjects in flight finish and the rest are cancelled.
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)), initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            futures = {i: pool.submit(run, tasks[i]) for i in todo}
            for i, task in enumerate(tasks):
                if i in futures:
                    try:
                        outcomes[i] = futures[i].result()
                    except BrokenExecutor:
                        outcomes[i] = ChildProcessError(f"{_subject(task)}: "
                                                        "worker process ended abruptly")
                _print_outcome(outcomes[i])
        finally:
            pool.shutdown(cancel_futures=True)
    return [(t, o) for t, o in zip(tasks, outcomes) if not isinstance(o, Exception)]


def _config_value(key: str, action: argparse.Action, value):
    """A --config value read as its flag reads its text, each of a list for a
    flag of several values; null for a flag whose default is null."""
    if value is None and action.default is None:
        return value
    items = value if action.nargs and isinstance(value, list) else [value]
    try:
        if len(items) != (action.nargs or 1) or any(
                type(v) not in (int, float, str) for v in items):
            raise ValueError
        values = [(action.type or str)(str(v)) for v in items]
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"config key {key} cannot be {json.dumps(value)}") from None
    return values if action.nargs else values[0]


def _apply_config_file(parser: argparse.ArgumentParser, path: str) -> None:
    """Make a --config JSON file's values the subcommand's defaults.

    Keys are the long flag names, with dashes or underscores; values given
    on the command line still win.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    actions = {opt[2:]: action for action in parser._actions
               if action.dest not in ("help", "config")
               for opt in action.option_strings if opt.startswith("--")}
    unknown = sorted(key for key in overrides if key.replace("_", "-") not in actions)
    if unknown:
        raise UsageError(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    for key, value in overrides.items():
        action = actions[key.replace("_", "-")]
        parser.set_defaults(**{action.dest: _config_value(key, action, value)})


def main(argv=None) -> int:
    if argv is None:
        # numpy.random maps OpenSSL's libcrypto (3.3 MB RSS) via secrets, hmac
        # and hashlib; no stage hashes, and hashlib falls back to its builtins.
        sys.modules.setdefault("_hashlib", None)
    parser = _build_parser()
    handlers = {
        "synth": cmd_synth,
        "radar": cmd_radar,
        "transform": cmd_transform,
        "evaluate": cmd_evaluate,
    }
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(parser.subcommand_parsers[args.command], args.config)
            args = parser.parse_args(argv)
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
