import concurrent.futures
import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import phonoradar
from phonoradar.cli import (RADAR_NOISE_KEY, TRANSFORM_FILES, TRANSFORM_META, _build_parser,
                            _run_subjects, _subject_dirs, _transform_one, main,
                            radar_noise_seed)
from phonoradar.io import (SUBJECT_FILES, SUBJECT_MANIFEST, read_csv_signal, read_wav,
                           write_csv_signal, write_wav)
from phonoradar.radar import ChirpConfig, TargetScene, measure_displacement
from phonoradar.signals import SampledSignal
from phonoradar.synth import cohort_draw
from phonoradar.transform import TransformConfig, frame_voicing, transform_speech
from conftest import tree_digest


def run(argv):
    return main(argv)


def error_lines(capsys, argv, code: int) -> list[str]:
    """stderr of a run that exits with code, as lines, each an `error:` line."""
    capsys.readouterr()
    assert run(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines), lines
    return lines


def assert_skipped(cohort: Path, subject: str) -> None:
    """evaluate's report lists subject alone as skipped, without its window CSV."""
    report = json.loads((cohort / "report" / "report.json").read_text())
    assert report["skipped"] == [subject]
    assert subject not in {row["id"] for row in report["subjects"]}
    assert not (cohort / "report" / "windows" / f"{subject}.csv").exists()


@pytest.fixture
def small_cohort(tmp_path):
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "9",
                "--duration", "0.8"]) == 0
    assert run(["radar", "--cohort", str(cohort)]) == 0
    assert run(["transform", "--cohort", str(cohort)]) == 0
    return cohort


class TestSynth:
    def test_single_subject_files(self, tmp_path):
        out = tmp_path / "one"
        assert run(["synth", "--out", str(out), "--f0", "140", "--duration", "0.5",
                    "--seed", "3"]) == 0
        for name in ("subject.json", "speech.wav", "vocal_fold.npy",
                     "excitation.npy", "neck_true.csv"):
            assert (out / name).exists()
        manifest = json.loads((out / "subject.json").read_text())
        assert manifest["format"] == "subject-v2"
        assert manifest["files"]["vocal_fold"] == "vocal_fold.npy"

    def test_seeded_cohorts_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--out", str(out), "--cohort", "2",
                        "--seed", "7", "--duration", "0.5"]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_cohort_count(self, tmp_path):
        out = tmp_path / "c"
        assert run(["synth", "--out", str(out), "--cohort", "4", "--seed", "1",
                    "--duration", "0.5"]) == 0
        assert len(list(out.glob("subject_*"))) == 4

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_subject_that_cannot_be_written_is_skipped(self, tmp_path, capsys, jobs):
        # a file holds subject_001's directory name: that subject alone fails
        out = tmp_path / "c"
        out.mkdir()
        (out / "subject_001").write_text("a file, not a directory")
        [line] = error_lines(capsys, ["synth", "--out", str(out), "--cohort", "3", "--seed", "1",
                                      "--duration", "0.3", "--jobs", jobs], 0)
        assert str(out / "subject_001") in line
        assert [p.parent.name for p in sorted(out.glob("*/subject.json"))] == ["subject_000",
                                                                             "subject_002"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_refused_cohort_draw_skips_only_its_subject(self, tmp_path, capsys, jobs):
        # at 600 Hz a drawn delay of 4 samples is 6.7 ms, which the neck
        # channel refuses: each such subject fails on its own line, in order,
        # and every other subject is written in full
        refused = []
        for i in range(40):
            try:
                cohort_draw(42, i, (90.0, 500.0), 600.0)
            except ValueError:
                refused.append(f"subject_{i:03d}")
        assert 0 < len(refused) < 40
        out = tmp_path / "c"
        lines = error_lines(capsys, ["synth", "--out", str(out), "--cohort", "40", "--rate",
                                     "600", "--seed", "42", "--duration", "0.3",
                                     "--jobs", jobs], 0)
        assert lines == [f"error: {out / name}: tau_d_s must be in [0, 5 ms)"
                         for name in refused]
        written = sorted(p.name for p in out.iterdir())
        assert written == [f"subject_{i:03d}" for i in range(40)
                           if f"subject_{i:03d}" not in refused]
        files = {SUBJECT_MANIFEST, *SUBJECT_FILES.values()}
        assert all({p.name for p in (out / name).iterdir()} == files for name in written)

    def test_low_f0_rejected_as_usage_error(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "x"), "--f0", "50"]) == 1

    def test_bad_open_quotient(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "x"),
                    "--open-quotient", "1.5"]) == 1

    @pytest.mark.parametrize("mode, flag, values", [
        (["--cohort", "2"], "--f0", [140.0]),
        (["--cohort", "2"], "--open-quotient", [0.55]),
        (["--cohort", "2"], "--k-d", [0.7]),
        (["--cohort", "2"], "--tau-ms", [2.0]),
        ([], "--f0-range", [100.0, 110.0]),
    ], ids=["cohort-f0", "cohort-open-quotient", "cohort-k-d", "cohort-tau-ms",
            "single-f0-range"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_of_the_other_mode_is_usage_error(self, tmp_path, capsys, mode, flag,
                                                   values, source):
        # each was silently unused: a cohort run draws every subject's pitch,
        # open quotient and neck channel, and a single subject has no range
        out = tmp_path / "x"
        if source == "flag":
            given = [flag, *map(str, values)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: values if len(values) > 1 else values[0]}))
            given = ["--config", str(cfg)]
        capsys.readouterr()
        assert run(["synth", "--out", str(out), "--duration", "0.3", *mode, *given]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert flag in err
        assert not out.exists()


class TestRadar:
    def test_writes_measurement_and_meta(self, tmp_path):
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        assert run(["radar", "--subject", str(subj)]) == 0
        assert (subj / "neck_radar.csv").exists()
        meta = json.loads((subj / "radar.json").read_text())
        assert meta["correlation_vs_truth"] > 0.999

    def test_chirp_echo_is_the_config_used(self, tmp_path):
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        assert run(["radar", "--subject", str(subj), "--bandwidth", "3e9",
                    "--chirp-duration", "50e-6", "--adc-samples", "128"]) == 0
        meta = json.loads((subj / "radar.json").read_text())
        assert meta["chirp"] == asdict(ChirpConfig(bandwidth_hz=3e9, chirp_duration_s=50e-6,
                                                   prf_hz=2000.0, adc_samples_per_chirp=128))

    def test_missing_subject_is_data_error(self, tmp_path):
        assert run(["radar", "--subject", str(tmp_path / "nope")]) == 2

    def test_selected_bin_is_the_range_profile_peak(self, tmp_path):
        from phonoradar.io import read_csv_signal
        from phonoradar.radar import ChirpConfig, TargetScene
        from radar_oracle import explicit_spectrum, means_bound
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        assert run(["radar", "--subject", str(subj), "--range", "0.4", "--snr", "10"]) == 0
        meta = json.loads((subj / "radar.json").read_text())
        d_true = read_csv_signal(subj / "neck_true.csv")
        scene = TargetScene(displacement=d_true, nominal_range_m=0.4, noise_snr_db=10.0)
        cfg = ChirpConfig(prf_hz=d_true.rate_hz)
        spectrum = explicit_spectrum(scene, cfg, np.random.default_rng(radar_noise_seed(0, 0)))
        profile = np.abs(spectrum).mean(axis=0)
        # 0.4 m is bin 10: the chain forms bins 0 .. 24, its band 8 .. 12
        # widened by a guard of 2 and a reference window of 10, and the
        # peak is the profile's over them
        peak = int(np.argmax(profile[:25]))
        assert meta["selected_bin"] == peak
        # the bin decision: its mean magnitude and the median of the
        # reference bins', every bin formed more than 2 from the peak, it
        # was checked against
        reference = [k for k in range(25) if abs(k - peak) > 2]
        assert meta["floor_bins"] == reference
        bound = means_bound(scene, cfg, spectrum)
        assert abs(meta["bin_magnitude"] - profile[peak]) <= bound
        assert abs(meta["noise_floor"] - np.median(profile[reference])) <= bound


class TestTransform:
    def test_subject_mode(self, tmp_path):
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        run(["radar", "--subject", str(subj)])
        assert run(["transform", "--subject", str(subj)]) == 0
        for name in ("e_hat.csv", "x_hat.csv", "d_hat.csv", "transform.json"):
            assert (subj / name).exists()
        meta = json.loads((subj / "transform.json").read_text())
        assert meta["n_voiced"] >= 1
        assert meta["global_tau_samples"] == 2  # 1 ms default at 2 kHz

    def test_transform_json_parses_like_the_indented_encoding(self, tmp_path, subject):
        write_wav(tmp_path / "s.wav", subject.s)
        write_csv_signal(tmp_path / "d.csv", subject.d)
        assert run(["transform", "--speech", str(tmp_path / "s.wav"),
                    "--displacement", str(tmp_path / "d.csv"),
                    "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "transform.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        _, record = transform_speech(read_wav(tmp_path / "s.wav"),
                                     read_csv_signal(tmp_path / "d.csv"), TransformConfig())
        meta = {**record, "config": asdict(TransformConfig())}
        assert text == json.dumps(meta, sort_keys=True) + "\n"
        # json.loads reads NaN as a fresh float, which is not equal to
        # itself; dumping both parses again compares them value for value.
        indented = json.dumps(meta, indent=2, sort_keys=True)
        assert (json.dumps(json.loads(text), sort_keys=True)
                == json.dumps(json.loads(indented), sort_keys=True))
        assert json.loads(text)["per_frame"][0].keys() == {
            "index", "voiced", "f0_hz", "tau_d_samples", "correlation_peak", "lpc_gain"}

    def test_per_frame_records_are_the_transform_json_records(self, tmp_path):
        subj = tmp_path / "s"
        assert run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"]) == 0
        assert run(["radar", "--subject", str(subj)]) == 0
        assert run(["transform", "--subject", str(subj)]) == 0
        _, record = transform_speech(read_wav(subj / "speech.wav"),
                                     read_csv_signal(subj / "neck_radar.csv"), TransformConfig())
        assert {r["f0_hz"] is None for r in record["per_frame"]} == {True, False}
        assert json.loads((subj / "transform.json").read_text()) == {
            **record, "config": asdict(TransformConfig())}

    @pytest.mark.parametrize("where", ["--cohort", "--subject"])
    @pytest.mark.parametrize("flag", ["--out", "--displacement"])
    def test_explicit_mode_flag_without_speech_is_usage_error(self, tmp_path, capsys,
                                                               where, flag):
        cohort = tmp_path / "cohort"
        assert run(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "1",
                    "--duration", "0.3"]) == 0
        target = cohort if where == "--cohort" else cohort / "subject_000"
        before = tree_digest(tmp_path)
        capsys.readouterr()
        assert run(["transform", where, str(target), flag, str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1 and flag in err
        assert tree_digest(tmp_path) == before and not (tmp_path / "x").exists()

    def test_transform_json_echoes_every_config_field(self, tmp_path):
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        run(["radar", "--subject", str(subj)])
        assert run(["transform", "--subject", str(subj)]) == 0
        config = json.loads((subj / "transform.json").read_text())["config"]
        assert config.keys() == {f.name for f in fields(TransformConfig)}

    def test_transform_config_fields_are_the_transform_flags(self):
        # cmd_transform builds the config from every flag but the inputs,
        # the outputs and the run options
        parser = _build_parser().subcommand_parsers["transform"]
        flags = {action.dest for action in parser._actions} - {
            "help", "config", "jobs", "subject", "cohort", "speech", "displacement", "out"}
        assert {f.name for f in fields(TransformConfig)} == flags

    def test_config_echo_replays_byte_identically(self, tmp_path):
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        run(["radar", "--subject", str(subj)])
        assert run(["transform", "--subject", str(subj), "--lpc-order", "8",
                    "--pre-emphasis", "0.8", "--voicing-threshold", "0.45",
                    "--max-lag-ms", "4", "--tau-mode", "per-frame",
                    "--integration", "leaky"]) == 0
        config = json.loads((subj / "transform.json").read_text())["config"]
        (tmp_path / "replay.json").write_text(json.dumps(config))
        out = tmp_path / "replay"
        assert run(["transform", "--speech", str(subj / "speech.wav"),
                    "--displacement", str(subj / "neck_radar.csv"), "--out", str(out),
                    "--config", str(tmp_path / "replay.json")]) == 0
        for name in ("e_hat.csv", "x_hat.csv", "d_hat.csv", "transform.json"):
            assert (out / name).read_bytes() == (subj / name).read_bytes()

    def test_explicit_files_and_tau_mode(self, tmp_path):
        subj = tmp_path / "s"
        run(["synth", "--out", str(subj), "--duration", "0.5", "--seed", "2"])
        out = tmp_path / "result"
        assert run(["transform", "--speech", str(subj / "speech.wav"),
                    "--displacement", str(subj / "neck_true.csv"),
                    "--out", str(out), "--tau-mode", "per-frame"]) == 0
        assert (out / "d_hat.csv").exists()

    def test_silent_input_is_data_error(self, tmp_path):
        from phonoradar.io import write_csv_signal, write_wav
        from phonoradar.signals import SampledSignal
        silent = SampledSignal(np.zeros(2000), 2000.0)
        write_wav(tmp_path / "s.wav", silent)
        write_csv_signal(tmp_path / "d.csv", silent)
        assert run(["transform", "--speech", str(tmp_path / "s.wav"),
                    "--displacement", str(tmp_path / "d.csv"),
                    "--out", str(tmp_path / "o")]) == 2

    def test_speech_at_an_integer_multiple_is_decimated(self, tmp_path, capsys):
        # with no flag: 16 kHz speech is decimated to the 2 kHz trace, and
        # 3 kHz, no integer multiple of it, is a data error naming both files
        disp = SampledSignal(np.sin(2 * np.pi * 150 * np.arange(1000) / 2000.0), 2000.0)
        write_csv_signal(tmp_path / "d.csv", disp)
        for rate, code in ((16000, 0), (3000, 2)):
            t = np.arange(rate // 2) / rate
            write_wav(tmp_path / "s.wav", SampledSignal(np.sin(2 * np.pi * 150 * t), rate))
            out = tmp_path / str(rate)
            capsys.readouterr()
            assert run(["transform", "--speech", str(tmp_path / "s.wav"),
                        "--displacement", str(tmp_path / "d.csv"), "--out", str(out)]) == code
            assert (out / "d_hat.csv").exists() == (code == 0)
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(tmp_path / "s.wav") in err and str(tmp_path / "d.csv") in err

    def test_resample_is_an_unknown_flag(self, tmp_path, capsys):
        assert run(["transform", "--subject", str(tmp_path), "--resample"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--resample" in err


class TestEvaluate:
    def test_full_report(self, small_cohort):
        assert run(["evaluate", str(small_cohort)]) == 0
        report_dir = small_cohort / "report"
        report = json.loads((report_dir / "report.json").read_text())
        assert len(report["subjects"]) == 3
        assert set(report["t_tests"]) == {"raw_speech_vs_model_filtered",
                                          "estimated_excitation_vs_model_filtered"}
        assert (report_dir / "report.csv").exists()
        windows = list((report_dir / "windows").glob("subject_*.csv"))
        assert len(windows) == 3

    def test_inputs_not_mutated(self, small_cohort):
        before = tree_digest(small_cohort / "subject_000")
        run(["evaluate", str(small_cohort)])
        assert tree_digest(small_cohort / "subject_000") == before

    def test_single_subject_no_t_tests(self, tmp_path):
        cohort = tmp_path / "c1"
        run(["synth", "--out", str(cohort), "--cohort", "1", "--seed", "5",
             "--duration", "0.8"])
        run(["radar", "--cohort", str(cohort)])
        run(["transform", "--cohort", str(cohort)])
        assert run(["evaluate", str(cohort)]) == 0
        report = json.loads((cohort / "report" / "report.json").read_text())
        assert report["t_tests"] == {}
        assert report["descriptive"] == {}

    def test_empty_directory_is_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["evaluate", str(empty)]) == 2

    def test_incomplete_subject_skipped(self, small_cohort):
        (small_cohort / "subject_001" / "d_hat.csv").unlink()
        assert run(["evaluate", str(small_cohort), "--out",
                    str(small_cohort.parent / "r2")]) == 0
        report = json.loads((small_cohort.parent / "r2" / "report.json").read_text())
        assert report["skipped"] == ["subject_001"]
        assert len(report["subjects"]) == 2

    def test_scores_the_frames_transform_voiced(self, small_cohort):
        # 0.9 voices fewer frames of every subject than the default 0.5, and
        # evaluate, which has no threshold of its own, follows it
        subjects = sorted(small_cohort.glob("subject_*"))
        default = {s: json.loads((s / "transform.json").read_text())["n_voiced"]
                   for s in subjects}
        assert run(["transform", "--cohort", str(small_cohort),
                    "--voicing-threshold", "0.9"]) == 0
        assert run(["evaluate", str(small_cohort)]) == 0
        for subject in subjects:
            per_frame = json.loads((subject / "transform.json").read_text())["per_frame"]
            voiced = [r["index"] for r in per_frame if r["voiced"]]
            assert len(voiced) < default[subject]
            window_csv = small_cohort / "report" / "windows" / f"{subject.name}.csv"
            scored = [int(line.split(",")[0])
                      for line in window_csv.read_text().splitlines()[1:]]
            assert scored == voiced

    def test_does_not_run_voicing(self, small_cohort, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return frame_voicing(*args, **kwargs)

        monkeypatch.setattr("phonoradar.transform.frame_voicing", spy)
        assert run(["evaluate", str(small_cohort)]) == 0
        assert calls == []
        # the spy sees the transform's voicing pass
        assert run(["transform", "--subject", str(small_cohort / "subject_000")]) == 0
        assert len(calls) == 1

    def test_missing_transform_json_skipped(self, small_cohort, capsys):
        path = small_cohort / "subject_002" / "transform.json"
        path.unlink()
        [line] = error_lines(capsys, ["evaluate", str(small_cohort)], 0)
        assert str(path) in line
        assert_skipped(small_cohort, "subject_002")
        report = json.loads((small_cohort / "report" / "report.json").read_text())
        assert len(report["subjects"]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda meta: "{not json",
        lambda meta: "[]",
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "per_frame"}),
        lambda meta: json.dumps({**meta, "per_frame": 3}),
        lambda meta: json.dumps({**meta, "per_frame": ["voiced"]}),
        lambda meta: json.dumps({**meta, "per_frame": [{} for _ in meta["per_frame"]]}),
        lambda meta: json.dumps({**meta, "per_frame": [{**r, "voiced": int(r["voiced"])}
                                                       for r in meta["per_frame"]]}),
        lambda meta: json.dumps({**meta, "per_frame": [{**r, "voiced": [r["voiced"]]}
                                                       for r in meta["per_frame"]]}),
        lambda meta: json.dumps({**meta, "per_frame": meta["per_frame"][:-1]}),
    ], ids=["not-json", "list", "no-per-frame", "per-frame-number", "per-frame-strings",
            "no-voiced", "int-voiced", "list-voiced", "one-frame-short"])
    def test_bad_transform_json_is_data_error(self, small_cohort, capsys, corrupt):
        path = small_cohort / "subject_001" / "transform.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        [line] = error_lines(capsys, ["evaluate", str(small_cohort)], 0)
        assert line.startswith(f"error: {path}")
        assert_skipped(small_cohort, "subject_001")

    def test_voicing_threshold_config_key_is_usage_error(self, small_cohort, capsys):
        cfg = small_cohort / "cfg.json"
        cfg.write_text(json.dumps({"voicing_threshold": 0.5}))
        assert run(["evaluate", str(small_cohort), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "voicing_threshold" in err

    def test_pipeline_rerun_reproduces_report(self, tmp_path):
        digests = []
        for name in ("p1", "p2"):
            cohort = tmp_path / name
            run(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "21",
                 "--duration", "0.8"])
            run(["radar", "--cohort", str(cohort)])
            run(["transform", "--cohort", str(cohort)])
            run(["evaluate", str(cohort)])
            digests.append(hashlib.sha256(
                (cohort / "report" / "report.json").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f0": 200.0, "duration": 0.5, "seed": 8}))
    out = tmp_path / "subj"
    assert run(["synth", "--out", str(out), "--config", str(cfg)]) == 0
    manifest = json.loads((out / "subject.json").read_text())
    assert manifest["glottal"]["f0_hz"] == 200.0
    # explicit flags still win over the config file
    out2 = tmp_path / "subj2"
    assert run(["synth", "--out", str(out2), "--config", str(cfg),
                "--f0", "300"]) == 0
    manifest2 = json.loads((out2 / "subject.json").read_text())
    assert manifest2["glottal"]["f0_hz"] == 300.0


def test_config_as_last_argument_is_usage_error(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path / "s"), "--config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_config_with_equals_sign_reads_the_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f0": 200.0, "duration": 0.5}))
    assert run(["synth", "--out", str(tmp_path / "a"), "--config", str(cfg)]) == 0
    assert run(["synth", "--out", str(tmp_path / "b"), f"--config={cfg}"]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert json.loads((tmp_path / "b" / "subject.json").read_text())["glottal"]["f0_hz"] == 200.0


def test_config_keys_are_long_flag_names(tmp_path):
    subj = tmp_path / "s"
    assert run(["synth", "--out", str(subj), "--duration", "0.3", "--seed", "1"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"range": 0.3}))
    assert run(["radar", "--subject", str(subj), "--config", str(cfg)]) == 0
    assert json.loads((subj / "radar.json").read_text())["range_m"] == 0.3


@pytest.mark.parametrize("argv, config", [
    (["radar", "--subject", "{tmp}"], {"range_m": 0.3}),
    (["evaluate", "{tmp}"], {"cohort": "x"}),
], ids=["radar-dest", "evaluate-positional"])
def test_config_key_that_names_no_flag_is_usage_error(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([arg.format(tmp=tmp_path) for arg in argv] + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert next(iter(config)) in err


class SpyPool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers
    and runs the tasks in this process, so that no test starts a pool."""

    def __init__(self, max_workers, started):
        started.append(max_workers)

    def submit(self, fn, task):
        future = concurrent.futures.Future()
        future.set_result(fn(task))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def pools_started(monkeypatch):
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, **pool_args: SpyPool(max_workers, started))
    return started


def test_pool_has_no_more_workers_than_tasks(tmp_path, pools_started):
    cohort = tmp_path / "c"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                "--duration", "0.3", "--jobs", "4096"]) == 0
    assert pools_started == [3]
    assert len(list(cohort.glob("subject_*"))) == 3


@pytest.mark.parametrize("config, argv", [
    ({"duration": [1]}, []),
    ({"jobs": 1.5}, ["--cohort", "2"]),
    ({"f0_range": 5}, ["--cohort", "2"]),
    ({"seed": True}, []),
    ({"rate": 2000.5}, []),
], ids=["duration-list", "jobs-fraction", "f0-range-scalar", "seed-bool", "rate-fraction"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, pools_started, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert next(iter(config)) in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("make_config", [Path.mkdir, lambda path: path.write_bytes(b"\xff{}"),
                                         lambda path: path.write_text("{oops")],
                         ids=["directory", "not-text", "not-json"])
def test_unreadable_config_is_data_error(tmp_path, capsys, make_config):
    cfg = tmp_path / "cfg.json"
    make_config(cfg)
    assert run(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(cfg) in err
    assert not (tmp_path / "x").exists()


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"voicing_treshold": 0.4}))
    subj = tmp_path / "s"
    assert run(["transform", "--subject", str(subj), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "voicing_treshold" in err


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "{tmp}/x", "--rate", "0"],
    # speech is written as WAV, at a whole number of Hz
    ["synth", "--out", "{tmp}/x", "--rate", "2000.5"],
    ["synth", "--out", "{tmp}/x", "--lead-in", "-1"],
    ["synth", "--out", "{tmp}/x", "--k-d", "0"],
    ["synth", "--out", "{tmp}/x", "--tau-ms", "10"],
    ["synth", "--out", "{tmp}/x", "--jitter", "100"],
    ["radar", "--subject", "{tmp}", "--adc-samples", "0"],
    ["radar", "--subject", "{tmp}", "--adc-samples", "1"],
    ["radar", "--subject", "{tmp}", "--adc-samples", "2"],
    ["radar", "--subject", "{tmp}", "--adc-samples", "3"],
    # below 16 fewer than three bins past the peak's main lobe remain for
    # the noise floor's median
    ["radar", "--subject", "{tmp}", "--adc-samples", "15"],
    # past the last positive range bin, 127, which ends at 5.309 m
    ["radar", "--subject", "{tmp}", "--range", "5.31"],
    ["radar", "--subject", "{tmp}", "--range", "10.7"],
    ["radar", "--subject", "{tmp}", "--chirp-duration", "0"],
    ["radar", "--subject", "{tmp}", "--bandwidth", "0"],
    ["radar", "--subject", "{tmp}", "--range", "-1"],
    ["transform", "--subject", "{tmp}", "--lpc-order", "-1"],
    ["transform", "--subject", "{tmp}", "--max-lag-ms", "-1"],
    ["evaluate", "{tmp}", "--loess-span", "2"],
    *([stage, *where, "--voicing-threshold", value]
      for stage, where in (("transform", ("--subject", "{tmp}")), ("evaluate", ("{tmp}",)))
      for value in ("2", "-0.5", "nan")),
    # evaluate scores the frames transform voiced: it has no voicing flag
    ["evaluate", "{tmp}", "--voicing-threshold", "0.5"],
    # non-finite values
    *(["synth", "--out", "{tmp}/x", flag, value]
      for flag, value in (("--duration", "inf"), ("--lead-in", "inf"), ("--amplitude", "inf"),
                          ("--amplitude", "nan"), ("--k-d", "inf"), ("--tau-ms", "inf"),
                          ("--tau-ms", "nan"), ("--noise-snr", "inf"), ("--noise-snr", "nan"),
                          ("--rate", "inf"))),
    *(["radar", "--subject", "{tmp}", flag, value]
      for flag, value in (("--range", "inf"), ("--snr", "inf"), ("--snr", "nan"),
                          ("--start-freq", "inf"), ("--bandwidth", "inf"))),
    *(["transform", "--subject", "{tmp}", flag, value]
      for flag, value in (("--max-lag-ms", "inf"), ("--max-lag-ms", "nan"),
                          ("--pre-emphasis", "inf"), ("--pre-emphasis", "nan"))),
    # negative values, read as values and not as options
    ["radar", "--subject", "{tmp}", "--range", "-inf"],
    ["synth", "--out", "{tmp}/x", "--lead-in", "-inf"],
    ["radar", "--subject", "{tmp}", "--start-freq", "-1e9"],
    # integer flags
    ["synth", "--out", "{tmp}/x", "--jobs", "0"],
    ["radar", "--subject", "{tmp}", "--jobs", "0"],
    ["transform", "--subject", "{tmp}", "--jobs", "-1"],
    ["evaluate", "{tmp}", "--jobs", "0"],
    ["synth", "--out", "{tmp}/x", "--cohort", "-3"],
    ["synth", "--out", "{tmp}/x", "--seed", "-1"],
    ["radar", "--subject", "{tmp}", "--seed", "-1"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv):
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    # the value's range is reported, not a value missing
    assert "expected one argument" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("stage", ["synth", "evaluate"])
def test_output_path_that_cannot_be_made_is_data_error(tmp_path, capsys, stage):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    (tmp_path / "subject_000").mkdir()
    (tmp_path / "subject_000" / "subject.json").write_text("{}")
    argv = (["synth", "--out", str(taken)] if stage == "synth"
            else ["evaluate", str(tmp_path), "--out", str(taken)])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(taken) in err


def test_voicing_threshold_one_voices_periodic_frames(small_cohort):
    # at its period a periodic frame scores 1 + eps, which clears 1
    pattern = np.random.default_rng(1).standard_normal(8)
    for subject in sorted(small_cohort.glob("subject_*")):
        speech = read_wav(subject / "speech.wav")
        write_wav(subject / "speech.wav", speech.with_samples(np.resize(pattern, len(speech))))
    assert run(["transform", "--cohort", str(small_cohort), "--voicing-threshold", "1.0"]) == 0
    assert run(["evaluate", str(small_cohort)]) == 0


def test_radar_with_noise_flag(tmp_path):
    subj = tmp_path / "s"
    run(["synth", "--out", str(subj), "--duration", "1.0", "--seed", "4"])
    assert run(["radar", "--subject", str(subj), "--snr", "20"]) == 0
    meta = json.loads((subj / "radar.json").read_text())
    assert meta["snr_db"] == 20.0
    assert meta["correlation_vs_truth"] > 0.99


def test_radar_noise_streams_are_distinct():
    # subjects 0-39 at seeds 1-20: no two radar streams alike, and none
    # alike synth's per-subject streams at those seeds
    starts = set()
    for seed in range(1, 21):
        radar = [radar_noise_seed(seed, i) for i in range(40)]
        # the children a spawning parent would hand out
        parent = np.random.SeedSequence(seed, spawn_key=(RADAR_NOISE_KEY,))
        assert [s.spawn_key for s in radar] == [s.spawn_key for s in parent.spawn(40)]
        streams = radar + np.random.SeedSequence(seed).spawn(40)
        starts.update(tuple(np.random.default_rng(s).integers(2**63, size=2))
                      for s in streams)
    assert len(starts) == 20 * 40 * 2


def test_cohort_radar_noise_uses_each_subjects_stream(tmp_path):
    cohort = tmp_path / "c"
    assert run(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "4",
                "--duration", "0.3"]) == 0
    assert run(["radar", "--cohort", str(cohort), "--snr", "15", "--seed", "6"]) == 0
    for i in range(2):
        directory = cohort / f"subject_{i:03d}"
        d_true = read_csv_signal(directory / "neck_true.csv")
        want, _ = measure_displacement(TargetScene(displacement=d_true, noise_snr_db=15.0),
                                       ChirpConfig(prf_hz=d_true.rate_hz),
                                       np.random.default_rng(radar_noise_seed(6, i)))
        got = read_csv_signal(directory / "neck_radar.csv")
        assert np.array_equal(got.samples, want.samples)


# Waits for the command in argv and prints its exit code and ru_maxrss. A
# child's ru_maxrss starts from the high-water mark of the process that
# spawned it, so the stage is spawned from this small process, not from the
# larger test process.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def radar_stage_peak_rss_mb(cohort: Path) -> float:
    """Peak RSS of a `phonoradar radar --cohort cohort --snr 20` process."""
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m",
                           "phonoradar.cli", "radar", "--cohort", str(cohort), "--snr", "20"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    code, maxrss_kb = proc.stdout.split()
    assert code == "0"
    return int(maxrss_kb) / 1024.0


def test_radar_stage_memory_does_not_grow_with_duration(tmp_path):
    # holding the range spectrum, 40100 chirps x 128 bins of complex128 at
    # 20 s, grew the stage by about 120 MB; the streamed chain keeps a few
    # range bins per chirp
    peak = {}
    for duration in ("2", "20"):
        cohort = tmp_path / duration
        assert run(["synth", "--out", str(cohort), "--cohort", "1", "--seed", "3",
                    "--duration", duration]) == 0
        peak[duration] = radar_stage_peak_rss_mb(cohort)
    assert peak["20"] - peak["2"] < 15.0, peak


def test_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "ser", tmp_path / "par"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        run(["synth", "--out", str(out), "--cohort", "2", "--seed", "13",
             "--duration", "0.6", "--jobs", jobs])
        run(["radar", "--cohort", str(out), "--jobs", jobs])
        run(["transform", "--cohort", str(out), "--jobs", jobs])
        run(["evaluate", str(out), "--jobs", jobs])
    assert tree_digest(serial) == tree_digest(parallel)


def _truncated_in_fmt(path):
    write_wav(path, SampledSignal(np.zeros(100), 2000.0))
    path.write_bytes(path.read_bytes()[:24])   # RIFF header, fmt id and size, 4 of 18 bytes


def _scipy_wav(dtype):
    def write(path):
        wavfile.write(path, 2000, np.zeros(100, dtype=dtype))
    return write


@pytest.mark.parametrize("make_bad_wav", [_truncated_in_fmt, _scipy_wav(np.uint8),
                                          _scipy_wav(np.int64)],
                         ids=["truncated-fmt", "pcm8", "pcm64"])
def test_bad_wav_is_data_error(tmp_path, capsys, make_bad_wav):
    speech, disp = tmp_path / "s.wav", tmp_path / "d.csv"
    make_bad_wav(speech)
    write_csv_signal(disp, SampledSignal(np.zeros(100), 2000.0))
    assert run(["transform", "--speech", str(speech), "--displacement", str(disp),
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(speech) in err


@pytest.mark.parametrize("value", ["inf", "nan", "abc"])
@pytest.mark.parametrize("name, stage", [("neck_true.csv", "radar"),
                                         ("neck_radar.csv", "transform")])
def test_bad_trace_value_is_data_error_naming_the_file(tmp_path, capsys, name, stage, value):
    subject = tmp_path / "s"
    assert run(["synth", "--out", str(subject), "--duration", "0.5", "--seed", "2"]) == 0
    assert run(["radar", "--subject", str(subject)]) == 0
    trace = subject / name
    lines = trace.read_text().splitlines(keepends=True)
    lines[10] = value + "\n"
    trace.write_text("".join(lines))
    capsys.readouterr()
    assert run([stage, "--subject", str(subject)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(trace) in err


def test_signalling_nan_in_speech_is_one_error_line(tmp_path):
    # A float32 signalling NaN made numpy warn on the cast to float64, a
    # two-line RuntimeWarning before the error line. pytest captures warnings
    # raised in process, so the stage runs as a process of its own.
    subject = tmp_path / "s"
    assert run(["synth", "--out", str(subject), "--duration", "0.5", "--seed", "2"]) == 0
    assert run(["radar", "--subject", str(subject)]) == 0
    speech = subject / "speech.wav"
    raw = bytearray(speech.read_bytes())
    at = raw.index(b"data") + 8 + 4 * 300   # float32 sample 300
    raw[at:at + 4] = (0x7FA00000).to_bytes(4, "little")
    speech.write_bytes(raw)
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "phonoradar.cli", "transform", "--subject",
                           str(subject)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(speech) in lines[0], lines


def test_truncated_speech_is_a_length_mismatch(tmp_path, capsys):
    # a speech.wav cut to 300 bytes still reads as 60 whole float32 samples;
    # paired with the full radar trace, that is a data error naming both
    # files, and that subject alone is not transformed
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "1",
                "--duration", "1.0"]) == 0
    assert run(["radar", "--cohort", str(cohort)]) == 0
    speech = cohort / "subject_001" / "speech.wav"
    speech.write_bytes(speech.read_bytes()[:300])
    [line] = error_lines(capsys, ["transform", "--cohort", str(cohort)], 0)
    radar = cohort / "subject_001" / "neck_radar.csv"
    assert line.startswith(f"error: {speech} and {radar}: ") and "length mismatch" in line
    assert (cohort / "subject_000" / "transform.json").exists()
    assert not (cohort / "subject_001" / "transform.json").exists()


@pytest.fixture
def pair_cohort(tmp_path):
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "1",
                "--duration", "0.5"]) == 0
    return cohort


# Each data error a worker raises names its subject, on the serial path and
# through the pool, which pickles the named error back to the parent. A
# cohort stage skips a failed subject and exits 2 only if every subject
# failed, with one error line per subject in subject order.
JOBS = pytest.mark.parametrize("jobs", ["1", "2"])


@JOBS
def test_target_leaving_its_range_bin_names_the_subject(pair_cohort, capsys, jobs):
    # subject_001 alone moves by more than half a range resolution
    trace = pair_cohort / "subject_001" / "neck_true.csv"
    d = read_csv_signal(trace)
    write_csv_signal(trace, d.with_samples(1000.0 * d.samples))
    [line] = error_lines(capsys, ["radar", "--cohort", str(pair_cohort), "--jobs", jobs], 0)
    assert line.startswith(f"error: {pair_cohort / 'subject_001'}: displacement ")
    assert "leaves the range bin" in line
    assert (pair_cohort / "subject_000" / "neck_radar.csv").exists()
    assert not (pair_cohort / "subject_001" / "neck_radar.csv").exists()


@JOBS
def test_failed_radar_subject_is_skipped_not_scored_on_its_true_trace(pair_cohort, capsys,
                                                                      jobs):
    # a clean run first, so every stage has outputs of subject_001 to leave
    # behind; then subject_001's target leaves its range bin and the stages
    # run again: none of them may fall back to neck_true.csv or an old output
    for argv in (["radar", "--cohort"], ["transform", "--cohort"], ["evaluate"]):
        assert run([*argv, str(pair_cohort)]) == 0
    subject = pair_cohort / "subject_001"
    d = read_csv_signal(subject / "neck_true.csv")
    write_csv_signal(subject / "neck_true.csv", d.with_samples(1000.0 * d.samples))
    [line] = error_lines(capsys, ["radar", "--cohort", str(pair_cohort), "--jobs", jobs], 0)
    assert "leaves the range bin" in line
    # the failed measurement keeps no radar or transform output of the clean run
    assert not any((subject / name).exists()
                   for name in ("neck_radar.csv", "radar.json", "e_hat.csv", "x_hat.csv",
                                "d_hat.csv", "transform.json"))
    for argv in (["transform", "--cohort"], ["evaluate"]):
        [line] = error_lines(capsys, [*argv, str(pair_cohort), "--jobs", jobs], 0)
        assert str(subject / "neck_radar.csv") in line
    assert_skipped(pair_cohort, "subject_001")


@JOBS
def test_displacement_without_samples_is_one_error_line(pair_cohort, capsys, jobs):
    # subject_001's neck_true.csv holds only its header: one line naming
    # it, no numpy warning, and subject_000 is measured
    trace = pair_cohort / "subject_001" / "neck_true.csv"
    trace.write_text(trace.read_text().splitlines(keepends=True)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [line] = error_lines(capsys, ["radar", "--cohort", str(pair_cohort), "--jobs", jobs],
                             0)
    assert line == (f"error: {pair_cohort / 'subject_001'}: displacement has no samples: "
                    "nothing to measure")
    assert (pair_cohort / "subject_000" / "neck_radar.csv").exists()
    assert not (pair_cohort / "subject_001" / "neck_radar.csv").exists()


@JOBS
def test_target_below_the_noise_floor_names_the_subject(pair_cohort, capsys, jobs):
    lines = error_lines(capsys, ["radar", "--cohort", str(pair_cohort), "--snr", "-40",
                                 "--jobs", jobs], 2)
    assert len(lines) == 2
    for line, subject in zip(lines, ("subject_000", "subject_001")):
        assert line.startswith(f"error: {pair_cohort / subject}: bin ")
        assert line.endswith("is below the noise floor")


@JOBS
def test_radar_noise_stream_follows_the_subject_name(tmp_path, jobs):
    # subject_001 unlisted (no subject.json) moves no other subject's noise,
    # and a lone subject_002 draws the stream of its cohort run
    clean, gap = tmp_path / "clean", tmp_path / "gap"
    for cohort in (clean, gap):
        assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                    "--duration", "0.3"]) == 0
    (gap / "subject_001" / "subject.json").unlink()
    noisy = ["--snr", "20", "--seed", "5"]
    for cohort in (clean, gap):
        assert run(["radar", "--cohort", str(cohort), *noisy, "--jobs", jobs]) == 0
    assert not (gap / "subject_001" / "neck_radar.csv").exists()
    for subject in ("subject_000", "subject_002"):
        for name in ("neck_radar.csv", "radar.json"):
            assert (gap / subject / name).read_bytes() == (clean / subject / name).read_bytes()
    lone = gap / "subject_002"
    assert run(["radar", "--subject", str(lone), *noisy]) == 0
    for name in ("neck_radar.csv", "radar.json"):
        assert (lone / name).read_bytes() == (clean / "subject_002" / name).read_bytes()


def test_noisy_cohort_radar_refuses_a_subject_synth_did_not_name(pair_cohort, capsys):
    extra = pair_cohort / "extra"
    (pair_cohort / "subject_001").rename(extra)
    [line] = error_lines(capsys, ["radar", "--cohort", str(pair_cohort), "--snr", "20"], 0)
    assert line.startswith(f"error: {extra}: ")
    assert not (extra / "radar.json").exists() and not (extra / "neck_radar.csv").exists()
    assert run(["radar", "--cohort", str(pair_cohort)]) == 0   # noiseless: no stream drawn
    # alone, a subject of any name draws stream 0
    assert run(["radar", "--subject", str(extra), "--snr", "20"]) == 0
    d_true = read_csv_signal(extra / "neck_true.csv")
    want, _ = measure_displacement(TargetScene(displacement=d_true, noise_snr_db=20.0),
                                   ChirpConfig(prf_hz=d_true.rate_hz),
                                   np.random.default_rng(radar_noise_seed(0, 0)))
    assert np.array_equal(read_csv_signal(extra / "neck_radar.csv").samples, want.samples)


@JOBS
def test_no_voiced_windows_names_the_subject(pair_cohort, capsys, jobs):
    # evaluate scores against the radar trace, zeroed here
    assert run(["radar", "--cohort", str(pair_cohort)]) == 0
    assert run(["transform", "--cohort", str(pair_cohort)]) == 0
    trace = pair_cohort / "subject_001" / "neck_radar.csv"
    d = read_csv_signal(trace)
    write_csv_signal(trace, d.with_samples(np.zeros(len(d))))
    lines = error_lines(capsys, ["evaluate", str(pair_cohort), "--jobs", jobs], 0)
    assert lines == [f"error: {pair_cohort / 'subject_001'}: no voiced windows to compare"]
    assert_skipped(pair_cohort, "subject_001")
    # with subject_000 zeroed too, every subject fails: exit 2, a line each
    trace = pair_cohort / "subject_000" / "neck_radar.csv"
    write_csv_signal(trace, read_csv_signal(trace).with_samples(np.zeros(len(d))))
    lines = error_lines(capsys, ["evaluate", str(pair_cohort), "--jobs", jobs], 2)
    assert lines == [f"error: {pair_cohort / subject}: no voiced windows to compare"
                     for subject in ("subject_000", "subject_001")]


@JOBS
@pytest.mark.parametrize("mode", ["explicit", "cohort"])
def test_nothing_to_transform_names_both_files(pair_cohort, tmp_path, capsys, jobs, mode):
    # every subject's speech is silent; the explicit run transforms subject_001's
    subjects = ["subject_000", "subject_001"]
    for subject in subjects:
        speech = pair_cohort / subject / "speech.wav"
        s = read_wav(speech)
        write_wav(speech, s.with_samples(np.zeros(len(s))))
    if mode == "explicit":   # which reads any trace, the true one too
        subjects, trace = subjects[1:], "neck_true.csv"
        argv = ["--speech", str(pair_cohort / "subject_001" / "speech.wav"),
                "--displacement", str(pair_cohort / "subject_001" / trace),
                "--out", str(tmp_path / "o")]
    else:
        assert run(["radar", "--cohort", str(pair_cohort)]) == 0
        trace, argv = "neck_radar.csv", ["--cohort", str(pair_cohort)]
    lines = error_lines(capsys, ["transform", *argv, "--jobs", jobs], 2)
    assert lines == [f"error: {pair_cohort / subject / 'speech.wav'} and "
                     f"{pair_cohort / subject / trace}: nothing to transform: "
                     "all 43 frames unvoiced or silent" for subject in subjects]


@pytest.mark.parametrize("synth_args, mode, subjects", [
    (["--f0", "95"], "--subject", ["."]),
    (["--cohort", "2", "--f0-range", "400", "500"], "--cohort", ["subject_000", "subject_001"]),
], ids=["low-pitched", "high-pitched-cohort"])
def test_lpc_order_above_a_quarter_frame_is_refused_at_any_pitch(tmp_path, capsys,
                                                                 synth_args, mode, subjects):
    # a 25 ms frame at 2 kHz has 50 samples: order 12 is the highest whose
    # fit has four samples per coefficient, however far pitch would cap it
    out = tmp_path / "s"
    assert run(["synth", "--out", str(out), "--duration", "0.5", "--seed", "2",
                *synth_args]) == 0
    assert run(["radar", mode, str(out)]) == 0
    assert run(["transform", mode, str(out), "--lpc-order", "12"]) == 0
    lines = error_lines(capsys, ["transform", mode, str(out), "--lpc-order", "13"], 2)
    assert len(lines) == len(subjects)
    for line, subject in zip(lines, subjects):
        assert "lpc_order 13 " in line
        assert str(out / subject / "speech.wav") in line
        assert str(out / subject / "neck_radar.csv") in line
        # the order-12 outputs are gone, so evaluate cannot score them
        assert not any((out / subject / name).exists()
                       for name in ("e_hat.csv", "x_hat.csv", "d_hat.csv", "transform.json"))
    if mode == "--cohort":
        lines = error_lines(capsys, ["evaluate", str(out)], 2)
        assert [str(out / subject / "e_hat.csv") in line
                for line, subject in zip(lines, subjects)] == [True, True]


def test_evaluate_length_mismatch_is_data_error(small_cohort, capsys):
    # after a clean evaluate, so a window CSV of subject_002 is there to go
    assert run(["evaluate", str(small_cohort)]) == 0
    d_hat = small_cohort / "subject_002" / "d_hat.csv"
    lines = d_hat.read_text().splitlines(keepends=True)
    d_hat.write_text("".join(lines[:-1]))
    [line] = error_lines(capsys, ["evaluate", str(small_cohort)], 0)
    assert line.startswith("error: length mismatch:")
    assert str(small_cohort / "subject_002" / "speech.wav") in line and str(d_hat) in line
    assert_skipped(small_cohort, "subject_002")


def _cut_speech(subject: Path) -> None:
    speech = subject / "speech.wav"
    speech.write_bytes(speech.read_bytes()[:300])


def _nan_in_trace(subject: Path) -> None:
    trace = subject / "neck_true.csv"
    lines = trace.read_text().splitlines(keepends=True)
    lines[10] = "nan\n"
    trace.write_text("".join(lines))


@JOBS
@pytest.mark.parametrize("fault, failing", [(_cut_speech, ("transform", "evaluate")),
                                            (_nan_in_trace, ("radar", "transform", "evaluate"))],
                         ids=["cut-speech", "nan-trace"])
def test_one_bad_subject_is_skipped_and_the_others_run(tmp_path, capsys, fault, failing, jobs):
    # subject_001 alone is broken: each stage that reads the broken file exits
    # 0 with one error line naming it, the other subjects' files are
    # byte-identical to a clean run's, and the report skips subject_001 alone
    clean, broken = tmp_path / "clean", tmp_path / "broken"
    for cohort in (clean, broken):
        assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                    "--duration", "1.0"]) == 0
    fault(broken / "subject_001")
    for stage in ("radar", "transform", "evaluate"):
        where = [] if stage == "evaluate" else ["--cohort"]
        assert run([stage, *where, str(clean), "--jobs", jobs]) == 0
        capsys.readouterr()
        assert run([stage, *where, str(broken), "--jobs", jobs]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == (stage in failing)
        assert all(line.startswith("error: ") and str(broken / "subject_001") in line
                   for line in lines)
    for subject in ("subject_000", "subject_002"):
        assert tree_digest(broken / subject) == tree_digest(clean / subject)
        window = Path("report", "windows", f"{subject}.csv")
        assert (broken / window).read_bytes() == (clean / window).read_bytes()
    assert_skipped(broken, "subject_001")


def test_smaller_synth_rerun_unlists_the_earlier_runs_extra_subjects(tmp_path):
    # subject_002 of the first run is neither listed nor read by a later
    # stage; a subject directory of any other name stays listed
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                "--duration", "0.3"]) == 0
    assert run(["radar", "--cohort", str(cohort)]) == 0
    assert run(["transform", "--cohort", str(cohort)]) == 0
    shutil.copytree(cohort / "subject_002", cohort / "mine")
    assert run(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "9",
                "--duration", "0.3"]) == 0
    assert [d.name for d in _subject_dirs(cohort)] == ["mine", "subject_000", "subject_001"]
    assert list((cohort / "subject_002").iterdir()) == []


def test_synth_over_a_cohort_keeps_no_file_of_the_earlier_run(tmp_path, capsys):
    # a rerun replaces each subject's files: a later transform cannot read an
    # old neck_radar.csv, and a subject whose rewrite fails is left unlisted
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                "--duration", "0.5"]) == 0
    assert run(["radar", "--cohort", str(cohort)]) == 0
    assert run(["transform", "--cohort", str(cohort)]) == 0
    old_truth = {s: (cohort / s / "neck_true.csv").read_bytes()
                 for s in ("subject_000", "subject_002")}
    speech = cohort / "subject_001" / "speech.wav"
    speech.unlink()
    speech.mkdir()
    [line] = error_lines(capsys, ["synth", "--out", str(cohort), "--cohort", "3",
                                  "--seed", "2", "--duration", "0.5"], 0)
    assert str(cohort / "subject_001") in line
    assert [p.name for p in (cohort / "subject_001").iterdir()] == ["speech.wav"]
    for subject, truth in old_truth.items():
        names = {p.name for p in (cohort / subject).iterdir()}
        assert names == {"subject.json", "speech.wav", "vocal_fold.npy", "excitation.npy",
                         "neck_true.csv"}
        assert (cohort / subject / "neck_true.csv").read_bytes() != truth
    capsys.readouterr()
    assert run(["radar", "--cohort", str(cohort)]) == 0
    assert "subject_001" not in capsys.readouterr().out


@JOBS
def test_a_radar_rerun_keeps_no_transform_built_on_the_old_trace(tmp_path, capsys, jobs):
    # the transform's per-frame delays were estimated against the trace the
    # rerun replaces, so the rerun removes it and evaluate scores nothing
    cohort = tmp_path / "cohort"
    for argv in (["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                  "--duration", "1.0"],
                 ["radar", "--cohort", str(cohort)],
                 ["transform", "--cohort", str(cohort), "--tau-mode", "per-frame"],
                 ["radar", "--cohort", str(cohort), "--snr", "0", "--seed", "3"]):
        assert run([*argv, "--jobs", jobs]) == 0
    subjects = _subject_dirs(cohort)
    assert len(subjects) == 3
    assert not any((d / name).exists() for d in subjects
                   for name in (*TRANSFORM_FILES.values(), TRANSFORM_META))
    lines = error_lines(capsys, ["evaluate", str(cohort), "--jobs", jobs], 2)
    assert len(lines) == 3
    assert all(str(d / "e_hat.csv") in line for d, line in zip(subjects, lines))


@pytest.mark.parametrize("argv", [["transform", "--subject", "{cohort}/subject_000"],
                                  ["evaluate", "{cohort}"]], ids=["transform", "evaluate"])
def test_an_unmeasured_subject_is_a_data_error_naming_its_radar_trace(tmp_path, capsys, argv):
    # transform and evaluate read the radar trace alone, never neck_true.csv
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "1", "--seed", "1",
                "--duration", "0.3"]) == 0
    [line] = error_lines(capsys, [arg.format(cohort=cohort) for arg in argv], 2)
    assert str(cohort / "subject_000" / "neck_radar.csv") in line
    assert not (cohort / "subject_000" / TRANSFORM_META).exists()


# Runs the phonoradar CLI on argv[3:] with the worker named argv[1] replaced
# by one that, on subject_001, kills its own process once subject_000's
# output argv[2] is written, as the OOM killer would, and on subject_002
# stalls until the broken pool ends it. The forked pool workers inherit the
# replacement.
KILLING_WORKER = """
import os, signal, sys, time
from pathlib import Path
import phonoradar.cli as cli

name, done_file = sys.argv[1:3]
worker = getattr(cli, name)

def killing_worker(*args):
    subject = Path(args[-1][0])   # the task's subject directory
    if subject.name == "subject_001":
        done = subject.parent / "subject_000" / done_file
        deadline = time.monotonic() + 60
        while not done.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)   # subject_000's result reaches the pool
        os.kill(os.getpid(), signal.SIGKILL)
    if subject.name == "subject_002":
        time.sleep(60)
    return worker(*args)

setattr(cli, name, killing_worker)
sys.exit(cli.main(sys.argv[3:]))
"""


def run_killing_worker(worker: str, done_file: str, argv: list) -> subprocess.CompletedProcess:
    """The CLI on argv at --jobs 2, its worker replaced as KILLING_WORKER does."""
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", KILLING_WORKER, worker, done_file, *argv,
                           "--jobs", "2"], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def test_a_pool_worker_that_dies_fails_only_the_subjects_without_a_result(tmp_path):
    clean, broken = tmp_path / "clean", tmp_path / "broken"
    for cohort in (clean, broken):
        assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                    "--duration", "0.3"]) == 0
        assert run(["radar", "--cohort", str(cohort)]) == 0
    assert run(["transform", "--cohort", str(clean)]) == 0
    proc = run_killing_worker("_transform_one", "transform.json",
                              ["transform", "--cohort", str(broken)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: {broken / s}: worker process ended abruptly"
                                        for s in ("subject_001", "subject_002")]
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
        str(broken / "subject_000")]
    assert tree_digest(broken / "subject_000") == tree_digest(clean / "subject_000")
    for subject in ("subject_001", "subject_002"):
        assert not (broken / subject / "transform.json").exists()


def test_a_transform_worker_that_dies_keeps_no_earlier_outputs(tmp_path):
    # a rerun clears every subject's outputs before its workers start, so
    # the subjects it does not finish keep none of the earlier run's
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                "--duration", "0.3"]) == 0
    assert run(["radar", "--cohort", str(cohort)]) == 0
    assert run(["transform", "--cohort", str(cohort)]) == 0
    proc = run_killing_worker("_transform_one", "transform.json",
                              ["transform", "--cohort", str(cohort)])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stderr.splitlines()) == 2 and "Traceback" not in proc.stderr
    assert (cohort / "subject_000" / "transform.json").exists()
    for subject in ("subject_001", "subject_002"):
        assert not any((cohort / subject / name).exists()
                       for name in ("e_hat.csv", "x_hat.csv", "d_hat.csv", "transform.json"))


def test_a_radar_subject_whose_worker_died_is_not_scored_on_its_true_trace(tmp_path, capsys):
    # a lost subject keeps neither neck_radar.csv nor radar.json, and the
    # later stages skip it on one line naming its missing neck_radar.csv
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                "--duration", "0.3"]) == 0
    proc = run_killing_worker("_radar_one", "neck_radar.csv", ["radar", "--cohort", str(cohort)])
    lost = [cohort / s for s in ("subject_001", "subject_002")]
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [f"error: {d}: worker process ended abruptly"
                                        for d in lost]
    for d in lost:
        assert not (d / "radar.json").exists() and not (d / "neck_radar.csv").exists()
    for argv in (["transform", "--cohort"], ["evaluate"]):
        lines = error_lines(capsys, [*argv, str(cohort)], 0)
        assert len(lines) == 2
        assert all(str(d / "neck_radar.csv") in line for d, line in zip(lost, lines))
    report = json.loads((cohort / "report" / "report.json").read_text())
    assert [row["id"] for row in report["subjects"]] == ["subject_000"]
    assert report["skipped"] == ["subject_001", "subject_002"]


def test_evaluate_that_fails_every_subject_keeps_no_earlier_report(small_cohort, capsys):
    assert run(["evaluate", str(small_cohort)]) == 0
    for directory in _subject_dirs(small_cohort):
        (directory / "transform.json").unlink()
    assert len(error_lines(capsys, ["evaluate", str(small_cohort)], 2)) == 3
    report = small_cohort / "report"
    assert not (report / "report.json").exists() and not (report / "report.csv").exists()
    assert list((report / "windows").iterdir()) == []


def transform_out_of_memory_on_subject_001(cfg, task):
    """_transform_one, but out of memory on subject_001; module level, so
    that the pool can pickle it."""
    if Path(task[0]).name == "subject_001":
        raise MemoryError
    return _transform_one(cfg, task)


@JOBS
def test_a_worker_out_of_memory_fails_only_its_subject(tmp_path, capsys, monkeypatch, jobs):
    cohort = tmp_path / "cohort"
    assert run(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "1",
                "--duration", "0.3"]) == 0
    assert run(["radar", "--cohort", str(cohort)]) == 0
    monkeypatch.setattr("phonoradar.cli._transform_one", transform_out_of_memory_on_subject_001)
    capsys.readouterr()
    assert run(["transform", "--cohort", str(cohort), "--jobs", jobs]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"error: {cohort / 'subject_001'}: out of memory"]
    assert [line.split(":")[0] for line in out.splitlines()] == [
        str(cohort / s) for s in ("subject_000", "subject_002")]
    assert not (cohort / "subject_001" / "transform.json").exists()


# Runs the phonoradar CLI on argv[1:] with _transform_one replaced by one
# that, on subject_001, sends SIGINT to its own process group once
# subject_000's transform.json is written, as Ctrl-C in a terminal does. The
# forked pool workers inherit the replacement.
INTERRUPTING_WORKER = """
import os, signal, sys, time
from pathlib import Path
import phonoradar.cli as cli

worker = cli._transform_one

def interrupting_worker(cfg, task):
    subject = Path(task[0])
    if subject.name == "subject_001":
        done = subject.parent / "subject_000" / "transform.json"
        deadline = time.monotonic() + 60
        while not done.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.killpg(os.getpgrp(), signal.SIGINT)
    return worker(cfg, task)

cli._transform_one = interrupting_worker
sys.exit(cli.main(sys.argv[1:]))
"""


@JOBS
def test_an_interrupt_ends_the_stage_at_once_on_one_line(tmp_path, capsys, jobs):
    clean, cohort = tmp_path / "clean", tmp_path / "cohort"
    for c in (clean, cohort):
        assert run(["synth", "--out", str(c), "--cohort", "3", "--seed", "1",
                    "--duration", "0.3"]) == 0
        assert run(["radar", "--cohort", str(c)]) == 0
    capsys.readouterr()
    assert run(["transform", "--cohort", str(clean)]) == 0
    # each subject's line of the clean run, as the interrupted run prints it
    clean_lines = {Path(line.split(":")[0]).name: line.replace(str(clean), str(cohort))
                   for line in capsys.readouterr().out.splitlines()}
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    # A session of its own: the signal reaches the stage and its workers, not pytest.
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTING_WORKER, "transform", "--cohort",
                             str(cohort), "--jobs", jobs], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    start = time.monotonic()
    try:
        out, err = proc.communicate(timeout=60)
        seconds = time.monotonic() - start
        with pytest.raises(ProcessLookupError):   # no process of the stage outlived it
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 130, err
    assert err.splitlines() == ["interrupted"]
    assert seconds < 20
    assert tree_digest(cohort / "subject_000") == tree_digest(clean / "subject_000")
    # The subjects that finished before the interrupt have their lines, in
    # subject order: at --jobs 1 subject_000 alone, through a pool any whose
    # result reached the stage.
    lines = out.splitlines()
    if jobs == "1":
        assert lines == [clean_lines["subject_000"]]
    names = [Path(line.split(":")[0]).name for line in lines]
    assert names == sorted(names)
    for name, line in zip(names, lines):
        assert line == clean_lines[name]
        assert tree_digest(cohort / name) == tree_digest(clean / name)
    # A pool's subjects in flight finish; every other subject keeps no outputs.
    outputs = {*TRANSFORM_FILES.values(), TRANSFORM_META}
    for subject in ("subject_001", "subject_002"):
        want = tree_digest(clean / subject)
        got = tree_digest(cohort / subject)
        if jobs == "1" or got != want:
            assert got == {name: digest for name, digest in want.items() if name not in outputs}


def test_an_interrupted_serial_subject_keeps_no_outputs(tmp_path):
    # the interrupt stops the subject in the middle of its writes, and the
    # stage clears what it wrote before the interrupt goes on
    def worker(path):
        path.write_text("partial")
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _run_subjects(worker, lambda path: path.unlink(missing_ok=True),
                      [tmp_path / "a", tmp_path / "b"], 1)
    assert list(tmp_path.iterdir()) == []
