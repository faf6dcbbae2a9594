"""Command line front end: cohort synthesis, radar measurement, model
transform, and cohort evaluation.

Exit codes: 0 success, 1 usage error, 2 data/precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .radar import ChirpConfig, NoCoherentTargetError, TargetScene, measure_displacement
from .report import build_cohort_report, evaluate_signals, write_report_csv, \
    write_report_json, write_window_csv
from .signals import SampledSignal, resample_decimate
from .synth import (GlottalConfig, NeckChannel, SUBJECT_MANIFEST,
                    make_subject, random_vocal_tract, save_subject)
from .transform import NoVoicedFramesError, TransformConfig, transform_speech

TAU_CHOICES_SAMPLES = (0, 1, 2, 4)

RADAR_FILE = "neck_radar.csv"
RADAR_META = "radar.json"
TRANSFORM_FILES = {"e_hat": "e_hat.csv", "x_hat": "x_hat.csv", "d_hat": "d_hat.csv"}
TRANSFORM_META = "transform.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="phonoradar",
                     description="Synthetic radar/speech co-simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(p):
        p.add_argument("--config", help="JSON file of parameter overrides "
                                        "(keys match the long flag names)")

    p = sub.add_parser("synth", help="synthesize one subject or a cohort")
    add_config_flag(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--cohort", type=int, default=0,
                   help="number of subjects (0 = single subject)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=1.0, help="seconds of phonation")
    p.add_argument("--rate", type=float, default=2000.0)
    p.add_argument("--f0", type=float, default=120.0, help="single-subject pitch, Hz")
    p.add_argument("--f0-range", type=float, nargs=2, default=(90.0, 500.0),
                   metavar=("LO", "HI"), help="cohort pitch range, Hz")
    p.add_argument("--open-quotient", type=float, default=0.6)
    p.add_argument("--amplitude", type=float, default=1e-4,
                   help="peak fold displacement, meters")
    p.add_argument("--jitter", type=float, default=0.0, help="cycle jitter, percent")
    p.add_argument("--k-d", type=float, default=1.0, help="tissue transmission scale")
    p.add_argument("--tau-ms", type=float, default=1.0,
                   help="single-subject tissue delay, milliseconds")
    p.add_argument("--noise-snr", type=float, default=None,
                   help="speech SNR in dB (omit for noiseless)")
    p.add_argument("--lead-in", type=float, default=0.05,
                   help="silent lead-in before phonation, seconds")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("radar", help="simulate the radar measurement of a subject")
    add_config_flag(p)
    p.add_argument("--subject", help="subject directory")
    p.add_argument("--cohort", help="cohort directory (all subjects)")
    p.add_argument("--snr", type=float, default=None, help="radar SNR in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-freq", type=float, default=77e9)
    p.add_argument("--bandwidth", type=float, default=3.6e9)
    p.add_argument("--chirp-duration", type=float, default=60e-6)
    p.add_argument("--adc-samples", type=int, default=256)
    p.add_argument("--range", type=float, default=0.25, dest="range_m")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("transform", help="run the model transform")
    add_config_flag(p)
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
    p.add_argument("--resample", action="store_true",
                   help="decimate speech to the displacement rate if needed")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("evaluate", help="evaluate a transformed cohort")
    add_config_flag(p)
    p.add_argument("cohort", help="cohort directory")
    p.add_argument("--out", help="report directory (default <cohort>/report)")
    p.add_argument("--voicing-threshold", type=float, default=0.5)
    p.add_argument("--loess-span", type=float, default=0.3)
    p.add_argument("--jobs", type=int, default=1)

    parser.subcommand_parsers = {name: sp for name, sp in sub.choices.items()}
    return parser


def _subject_dirs(cohort: Path) -> list[Path]:
    dirs = sorted(p for p in cohort.iterdir()
                  if p.is_dir() and (p / SUBJECT_MANIFEST).exists())
    if not dirs:
        raise FileNotFoundError(f"no subject directories under {cohort}")
    return dirs


def _draw_cohort_params(args, index: int, seed: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(index + 1)[-1])
    lo, hi = args.f0_range
    return {
        "f0_hz": float(rng.uniform(lo, hi)),
        "open_quotient": float(rng.uniform(0.5, 0.8)),
        "k_d": float(rng.uniform(0.5, 1.2)),
        "tau_samples": int(TAU_CHOICES_SAMPLES[int(rng.integers(len(TAU_CHOICES_SAMPLES)))]),
        "tract_rng_seed": int(rng.integers(2**31 - 1)),
        "subject_seed": int(rng.integers(2**31 - 1)),
    }


def _synth_one(task: dict) -> str:
    """Worker: build and save one subject from a parameter dict."""
    glottal = GlottalConfig(f0_hz=task["f0_hz"], open_quotient=task["open_quotient"],
                            amplitude=task["amplitude"], flow_gain_k=1.0,
                            jitter_pct=task["jitter_pct"])
    neck = NeckChannel(k_d=task["k_d"], tau_d_s=task["tau_samples"] / task["rate_hz"])
    tract_rng = np.random.default_rng(task["tract_rng_seed"])
    tract = random_vocal_tract(tract_rng, task["rate_hz"])
    subject = make_subject(glottal, neck, tract, task["duration_s"], task["rate_hz"],
                           noise_snr_db=task["noise_snr_db"], seed=task["subject_seed"],
                           lead_in_s=task["lead_in_s"])
    save_subject(subject, task["directory"])
    return task["directory"]


def cmd_synth(args) -> int:
    if not (90.0 <= args.f0 <= 1000.0):
        raise UsageError("--f0 must lie in the physiological range [90, 1000] Hz")
    if args.cohort:
        lo, hi = args.f0_range
        if not (90.0 <= lo <= hi <= 1000.0):
            raise UsageError("--f0-range must lie within [90, 1000] Hz")
    if not (0.0 < args.open_quotient < 1.0):
        raise UsageError("--open-quotient must be in (0, 1)")
    if args.duration <= 0:
        raise UsageError("--duration must be positive")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    common = {
        "rate_hz": args.rate,
        "duration_s": args.duration,
        "amplitude": args.amplitude,
        "jitter_pct": args.jitter,
        "noise_snr_db": args.noise_snr,
        "lead_in_s": args.lead_in,
    }
    if args.cohort <= 0:
        task = dict(common)
        task.update({
            "f0_hz": args.f0,
            "open_quotient": args.open_quotient,
            "k_d": args.k_d,
            "tau_samples": int(round(args.tau_ms * 1e-3 * args.rate)),
            "tract_rng_seed": args.seed,
            "subject_seed": args.seed,
            "directory": str(out),
        })
        _synth_one(task)
        print(f"wrote subject to {out}")
        return 0
    tasks = []
    for i in range(args.cohort):
        drawn = _draw_cohort_params(args, i, args.seed)
        task = dict(common)
        task.update(drawn)
        task["directory"] = str(out / f"subject_{i:03d}")
        tasks.append(task)
    _run_jobs(_synth_one, tasks, args.jobs)
    print(f"wrote {len(tasks)} subjects to {out}")
    return 0


def _radar_one(task: dict) -> str:
    directory = Path(task["directory"])
    d_true = pio.read_csv_signal(directory / "neck_true.csv", "neck_displacement")
    cfg = ChirpConfig(start_freq_hz=task["start_freq"], bandwidth_hz=task["bandwidth"],
                      chirp_duration_s=task["chirp_duration"], prf_hz=d_true.rate_hz,
                      adc_samples_per_chirp=task["adc_samples"])
    scene = TargetScene(displacement=d_true, nominal_range_m=task["range_m"],
                        noise_snr_db=task["snr"])
    rng = np.random.default_rng(task["seed"]) if task["snr"] is not None else None
    measured = measure_displacement(scene, cfg, rng)
    pio.write_csv_signal(directory / RADAR_FILE, measured)
    truth = d_true.samples - d_true.samples.mean()
    denom = float(np.linalg.norm(truth) * np.linalg.norm(measured.samples))
    corr = float(truth @ measured.samples / denom) if denom > 0 else 0.0
    meta = {
        "selected_bin": measured.bin_index,
        "range_m": task["range_m"],
        "snr_db": task["snr"],
        "correlation_vs_truth": corr,
        "chirp": {
            "start_freq_hz": cfg.start_freq_hz,
            "bandwidth_hz": cfg.bandwidth_hz,
            "chirp_duration_s": cfg.chirp_duration_s,
            "prf_hz": cfg.prf_hz,
            "adc_samples_per_chirp": cfg.adc_samples_per_chirp,
        },
    }
    with open(directory / RADAR_META, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return f"{directory}: corr={corr:.6f}"


def cmd_radar(args) -> int:
    if bool(args.subject) == bool(args.cohort):
        raise UsageError("provide exactly one of --subject or --cohort")
    dirs = [Path(args.subject)] if args.subject else _subject_dirs(Path(args.cohort))
    tasks = []
    for i, d in enumerate(dirs):
        if not (d / SUBJECT_MANIFEST).exists():
            raise FileNotFoundError(f"missing {d / SUBJECT_MANIFEST}")
        tasks.append({
            "directory": str(d),
            "start_freq": args.start_freq,
            "bandwidth": args.bandwidth,
            "chirp_duration": args.chirp_duration,
            "adc_samples": args.adc_samples,
            "range_m": args.range_m,
            "snr": args.snr,
            "seed": args.seed + i,
        })
    for line in _run_jobs(_radar_one, tasks, args.jobs):
        print(line)
    return 0


def _transform_meta(out) -> dict:
    return {
        "global_tau_samples": out.global_tau_samples,
        "n_frames": len(out.per_frame),
        "n_voiced": int(sum(r.voiced for r in out.per_frame)),
        "config": {
            "lpc_order": out.config.lpc_order,
            "pre_emphasis": out.config.pre_emphasis,
            "voicing_threshold": out.config.voicing_threshold,
            "max_lag_ms": out.config.max_lag_ms,
            "tau_mode": out.config.tau_mode,
            "integration": out.config.integration,
        },
        "per_frame": [
            {
                "index": r.index,
                "voiced": r.voiced,
                "f0_hz": r.f0_hz,
                "tau_d_samples": r.tau_d_samples,
                "correlation_peak": r.correlation_peak,
                "lpc_gain": r.lpc_gain,
            }
            for r in out.per_frame
        ],
    }


def _write_transform(directory: Path, out) -> None:
    pio.write_csv_signal(directory / TRANSFORM_FILES["e_hat"], out.e_hat)
    pio.write_csv_signal(directory / TRANSFORM_FILES["x_hat"], out.x_hat)
    pio.write_csv_signal(directory / TRANSFORM_FILES["d_hat"], out.d_hat)
    # One compact dumps call: json.dump, and any indent, run the pure-Python
    # encoder, several times slower on the per-frame records.
    with open(directory / TRANSFORM_META, "w") as fh:
        fh.write(json.dumps(_transform_meta(out), sort_keys=True) + "\n")


def _load_speech_displacement(args, directory: Path | None):
    if directory is not None:
        speech = pio.read_wav(directory / "speech.wav", "speech")
        radar_path = directory / RADAR_FILE
        disp_path = radar_path if radar_path.exists() else directory / "neck_true.csv"
        displacement = pio.read_csv_signal(disp_path, "neck_displacement")
    else:
        speech = pio.read_wav(args.speech, "speech")
        displacement = pio.read_csv_signal(args.displacement, "neck_displacement")
    if abs(speech.rate_hz - displacement.rate_hz) > 1e-9:
        if not args.resample:
            raise ValueError(
                f"rate mismatch ({speech.rate_hz} vs {displacement.rate_hz} Hz); "
                "pass --resample to decimate the speech"
            )
        speech = resample_decimate(speech, displacement.rate_hz)
    n = min(len(speech), len(displacement))
    speech = SampledSignal(speech.samples[:n], speech.rate_hz, speech.label)
    displacement = SampledSignal(displacement.samples[:n], displacement.rate_hz,
                                 displacement.label)
    return speech, displacement


def _transform_config(args) -> TransformConfig:
    return TransformConfig(lpc_order=args.lpc_order, pre_emphasis=args.pre_emphasis,
                           voicing_threshold=args.voicing_threshold,
                           max_lag_ms=args.max_lag_ms, tau_mode=args.tau_mode,
                           integration=args.integration)


def _transform_one(task: dict) -> str:
    args = argparse.Namespace(**task["args"])
    directory = Path(task["directory"])
    speech, displacement = _load_speech_displacement(args, directory)
    out = transform_speech(speech, displacement, _transform_config(args))
    _write_transform(directory, out)
    voiced = sum(r.voiced for r in out.per_frame)
    return f"{directory}: {voiced}/{len(out.per_frame)} voiced frames, tau={out.global_tau_samples}"


def cmd_transform(args) -> int:
    modes = sum(bool(v) for v in (args.subject, args.cohort, args.speech))
    if modes != 1:
        raise UsageError("provide exactly one of --subject, --cohort, or --speech/--displacement")
    arg_dict = {
        "lpc_order": args.lpc_order, "pre_emphasis": args.pre_emphasis,
        "voicing_threshold": args.voicing_threshold, "max_lag_ms": args.max_lag_ms,
        "tau_mode": args.tau_mode, "integration": args.integration,
        "resample": args.resample, "speech": args.speech,
        "displacement": args.displacement,
    }
    if args.speech:
        if not args.displacement or not args.out:
            raise UsageError("explicit mode needs --speech, --displacement, and --out")
        speech, displacement = _load_speech_displacement(args, None)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = transform_speech(speech, displacement, _transform_config(args))
        _write_transform(out_dir, out)
        print(f"{out_dir}: {sum(r.voiced for r in out.per_frame)}/"
              f"{len(out.per_frame)} voiced frames, tau={out.global_tau_samples}")
        return 0
    dirs = [Path(args.subject)] if args.subject else _subject_dirs(Path(args.cohort))
    tasks = [{"directory": str(d), "args": arg_dict} for d in dirs]
    for line in _run_jobs(_transform_one, tasks, args.jobs):
        print(line)
    return 0


def _evaluate_one(task: dict) -> dict:
    directory = Path(task["directory"])
    s = pio.read_wav(directory / "speech.wav", "speech")
    radar_path = directory / RADAR_FILE
    d_path = radar_path if radar_path.exists() else directory / "neck_true.csv"
    d = pio.read_csv_signal(d_path, "neck_displacement")
    if d_path.name == "neck_true.csv":
        d = d.with_samples(d.samples - d.samples.mean())
    e_hat = pio.read_csv_signal(directory / TRANSFORM_FILES["e_hat"], "excitation_estimate")
    d_hat = pio.read_csv_signal(directory / TRANSFORM_FILES["d_hat"], "displacement_estimate")
    n = min(len(s), len(d), len(e_hat), len(d_hat))
    clip = lambda sig: SampledSignal(sig.samples[:n], sig.rate_hz, sig.label)
    ev = evaluate_signals(directory.name, clip(s), clip(e_hat), clip(d_hat), clip(d),
                          voicing_threshold=task["voicing_threshold"])
    return {"evaluation": ev, "directory": str(directory)}


def cmd_evaluate(args) -> int:
    cohort = Path(args.cohort)
    if not cohort.is_dir():
        raise FileNotFoundError(f"cohort directory {cohort} does not exist")
    dirs = _subject_dirs(cohort)
    out_dir = Path(args.out) if args.out else cohort / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "windows").mkdir(exist_ok=True)
    tasks = []
    skipped = []
    for d in dirs:
        required = ["speech.wav", TRANSFORM_FILES["e_hat"], TRANSFORM_FILES["d_hat"]]
        missing = [f for f in required if not (d / f).exists()]
        if missing:
            skipped.append(d.name)
            print(f"warning: skipping {d.name} (missing {', '.join(missing)})",
                  file=sys.stderr)
            continue
        tasks.append({"directory": str(d), "voicing_threshold": args.voicing_threshold})
    if not tasks:
        raise ValueError("no complete subjects to evaluate")
    results = _run_jobs(_evaluate_one, tasks, args.jobs)
    evaluations = []
    for res in sorted(results, key=lambda r: r["directory"]):
        ev = res["evaluation"]
        evaluations.append(ev)
        write_window_csv(out_dir / "windows" / f"{ev.subject_id}.csv", ev.series,
                         span=args.loess_span)
    report = build_cohort_report(evaluations, skipped)
    write_report_json(out_dir / "report.json", report)
    write_report_csv(out_dir / "report.csv", report)
    n = len(evaluations)
    print(f"evaluated {n} subjects -> {out_dir}")
    if report.t_tests:
        for name, tt in report.t_tests.items():
            print(f"  {name}: t={tt.t_stat:.3f} n={tt.n} p={tt.p_value:.3g}")
    elif n < 2:
        print("  t-tests skipped: need at least 2 subjects")
    return 0


def _run_jobs(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # Imported here: the pool machinery (multiprocessing, logging, socket)
    # costs every serial stage process about 25 ms of start-up.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _apply_config_file(parser: _Parser, argv) -> None:
    """Apply a --config JSON file as subcommand defaults before parsing.

    Keys use the long flag names with dashes or underscores; values given
    explicitly on the command line still win.
    """
    if argv is None:
        argv = sys.argv[1:]
    if any(arg.startswith("--config=") for arg in argv):
        raise UsageError("write --config PATH, not --config=PATH")
    if "--config" not in argv:
        return
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    with open(argv[at + 1]) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {argv[at + 1]} must hold a JSON object")
    defaults = {k.replace("-", "_"): v for k, v in overrides.items()}
    command = argv[0] if argv and not argv[0].startswith("-") else None
    target = parser.subcommand_parsers.get(command, parser)
    known = {action.dest for action in target._actions} - {"help", "config"}
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise UsageError(f"unknown key(s) in config file {argv[at + 1]}: "
                         f"{', '.join(unknown)}")
    target.set_defaults(**defaults)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "synth": cmd_synth,
        "radar": cmd_radar,
        "transform": cmd_transform,
        "evaluate": cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, NoVoicedFramesError,
            NoCoherentTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
