"""Set-up cost guards. `scipy.signal` takes over a second to import, and no
stage needs it (the package runs on numpy alone), so it must not load on
`import phonoradar.cli` nor in the radar, transform and evaluate stages.
Each stage process loads only its own layer of the package, and the stages
still call each kernel through the phonoradar.cli name a tracer wraps."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phonoradar
import phonoradar.cli as cli
from phonoradar.cli import main
from phonoradar.io import read_wav, write_wav
from phonoradar.signals import SampledSignal
from conftest import tree_digest

SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import phonoradar.cli
assert "scipy.signal" not in sys.modules, "loaded on import phonoradar.cli"
for argv in (["radar", "--cohort", {cohort!r}], ["transform", "--cohort", {cohort!r}],
             ["evaluate", {cohort!r}]):
    assert phonoradar.cli.main(argv) == 0, argv
    assert "scipy.signal" not in sys.modules, "loaded by " + argv[0]
"""


def test_stages_after_synth_do_not_load_scipy_signal(tmp_path):
    cohort = tmp_path / "cohort"
    assert main(["synth", "--out", str(cohort), "--cohort", "3", "--seed", "5",
                 "--duration", "1.0"]) == 0
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(src=src, cohort=str(cohort))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_the_process_pool_unloaded():
    # concurrent.futures (with multiprocessing, logging and socket) is only
    # needed once a --jobs > 1 pool starts.
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import phonoradar.cli; "
              "assert 'concurrent.futures' not in sys.modules, sorted(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_noiseless_radar_does_not_load_numpy_random(tmp_path):
    # importing numpy.random adds about 2.1 MB to a stage's peak RSS, and a
    # noiseless radar run draws nothing
    cohort = tmp_path / "cohort"
    assert main(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "5",
                 "--duration", "0.3"]) == 0
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import phonoradar.cli; "
              f"assert phonoradar.cli.main(['radar', '--cohort', {str(cohort)!r}]) == 0; "
              "assert 'numpy.random' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_stage_processes_do_not_load_openssl(tmp_path):
    # numpy.random imports secrets, hmac and hashlib, whose _hashlib maps
    # OpenSSL's libcrypto: 3.3 MB of a stage's RSS that no stage uses. main()
    # as the process entry blocks it; main(argv) in a caller's process, and a
    # process that loaded it already, keep it.
    cohort = str(tmp_path / "cohort")
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    for argv in (["synth", "--out", cohort, "--cohort", "2", "--seed", "5", "--duration", "0.3"],
                 ["radar", "--cohort", cohort, "--snr", "20"]):
        script = (f"import sys; sys.path.insert(0, {src!r}); import phonoradar.cli; "
                  f"sys.argv = ['phonoradar', *{argv!r}]; "
                  "assert phonoradar.cli.main() == 0; "
                  "assert 'numpy.random' in sys.modules; "
                  "assert sys.modules.get('_hashlib') is None, 'loaded'")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, (argv[0], proc.stderr)
    argv = ["radar", "--cohort", cohort, "--snr", "20"]
    script = (f"import sys; sys.path.insert(0, {src!r}); import hashlib, phonoradar.cli; "
              f"assert phonoradar.cli.main({argv!r}) == 0; "
              f"sys.argv = ['phonoradar', *{argv!r}]; "
              "assert phonoradar.cli.main() == 0; "
              "assert sys.modules['_hashlib'] is not None")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_radar_transform_and_evaluate_do_not_load_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 12 ms of a stage
    # process's start-up; signals.median takes the same median without it
    cohort = tmp_path / "cohort"
    assert main(["synth", "--out", str(cohort), "--cohort", "2", "--seed", "5",
                 "--duration", "0.3"]) == 0
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    for argv in (["radar", "--cohort", str(cohort), "--snr", "20"],
                 ["transform", "--cohort", str(cohort)], ["evaluate", str(cohort)]):
        script = (f"import sys; sys.path.insert(0, {src!r}); import phonoradar.cli; "
                  f"assert phonoradar.cli.main({argv!r}) == 0; "
                  "assert 'numpy.ma' not in sys.modules, 'loaded'")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, (argv[0], proc.stderr)


# --- each stage process loads only its own layer ---------------------------

SRC = str(Path(phonoradar.__file__).resolve().parents[1])
# Prints the modules a fresh process has loaded after `code`, on its last line.
LOADED = """
import sys
sys.path.insert(0, {src!r})
{code}
print(" ".join(sys.modules))
"""


def loaded_after(code: str) -> set:
    proc = subprocess.run([sys.executable, "-c", LOADED.format(src=SRC, code=code)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def package_modules(loaded: set) -> set:
    return {name for name in loaded if name.split(".")[0] == "phonoradar"}


def test_package_root_loads_no_numpy():
    assert "numpy" not in loaded_after("import phonoradar")


def test_cli_import_loads_only_io_and_signals():
    assert package_modules(loaded_after("import phonoradar.cli")) == {
        "phonoradar", "phonoradar.cli", "phonoradar.io", "phonoradar.signals"}


# The package modules each stage loads beyond phonoradar, cli, io and signals.
STAGE_LAYERS = {
    "synth": {"synth"},
    "radar": {"radar"},
    "transform": {"transform", "lpc", "synth"},
    "evaluate": {"report", "metrics", "stats"},
}


@pytest.fixture
def transformed_cohort(tmp_path):
    cohort = tmp_path / "transformed"
    for argv in (["synth", "--out", str(cohort), "--cohort", "2", "--seed", "5",
                  "--duration", "0.3"],
                 ["radar", "--cohort", str(cohort)], ["transform", "--cohort", str(cohort)]):
        assert main(argv) == 0, argv
    return cohort


@pytest.mark.parametrize("stage", list(STAGE_LAYERS))
def test_each_stage_loads_only_its_layer(tmp_path, transformed_cohort, stage):
    cohort = str(transformed_cohort)
    argv = {"synth": ["synth", "--out", str(tmp_path / "cohort"), "--cohort", "2",
                      "--seed", "5", "--duration", "0.3"],
            "radar": ["radar", "--cohort", cohort, "--snr", "20"],
            "transform": ["transform", "--cohort", cohort],
            "evaluate": ["evaluate", cohort, "--out", str(tmp_path / "report")]}[stage]
    loaded = loaded_after(f"import phonoradar.cli; assert phonoradar.cli.main({argv!r}) == 0")
    layers = {"cli", "io", "signals"} | STAGE_LAYERS[stage]
    assert package_modules(loaded) == {"phonoradar", *(f"phonoradar.{m}" for m in layers)}


# The kernels the benchmark's tracer wraps at their phonoradar.cli names.
TRACED_KERNELS = ("make_subject", "save_subject", "resample_decimate", "measure_displacement",
                  "transform_speech", "evaluate_signals", "write_window_csv",
                  "build_cohort_report", "write_report_json", "write_report_csv")


def test_stages_call_each_kernel_through_its_cli_name(tmp_path, monkeypatch):
    # a kernel a stage reached by another name would leave its traced
    # metric at 0 without an error
    calls = dict.fromkeys(TRACED_KERNELS, 0)
    for name in TRACED_KERNELS:
        def spy(*args, name=name, kernel=getattr(cli, name), **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    cohort = tmp_path / "cohort"
    for argv in (["synth", "--out", str(cohort), "--cohort", "2", "--seed", "5",
                  "--duration", "0.3"],
                 ["radar", "--cohort", str(cohort)], ["transform", "--cohort", str(cohort)],
                 ["evaluate", str(cohort)]):
        assert main(argv) == 0, argv
    # transform decimates only speech at a multiple of the trace's rate
    speech = read_wav(cohort / "subject_000" / "speech.wav")
    write_wav(tmp_path / "fast.wav",
              SampledSignal(np.repeat(speech.samples, 2), 2 * speech.rate_hz))
    assert main(["transform", "--speech", str(tmp_path / "fast.wav"), "--displacement",
                 str(cohort / "subject_000" / "neck_radar.csv"),
                 "--out", str(tmp_path / "explicit")]) == 0
    assert [name for name, n in calls.items() if not n] == []


# Runs radar, transform and evaluate at --jobs 2 on a pool of the given
# start method; the workers import each kernel's layer on their first call.
START_METHOD = """
import multiprocessing, sys
sys.path.insert(0, {src!r})
import phonoradar.cli
multiprocessing.set_start_method({method!r})
for argv in (["radar", "--cohort", {cohort!r}, "--snr", "20", "--jobs", "2"],
             ["transform", "--cohort", {cohort!r}, "--jobs", "2"],
             ["evaluate", {cohort!r}, "--jobs", "2"]):
    assert phonoradar.cli.main(argv) == 0, argv
"""


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_pool_workers_of_every_start_method_match_serial(tmp_path, method):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["synth", "--out", str(serial), "--cohort", "2", "--seed", "5",
                 "--duration", "0.3"]) == 0
    shutil.copytree(serial, pooled)
    for argv in (["radar", "--cohort", str(serial), "--snr", "20"],
                 ["transform", "--cohort", str(serial)], ["evaluate", str(serial)]):
        assert main(argv) == 0, argv
    proc = subprocess.run([sys.executable, "-c", START_METHOD.format(
        src=SRC, method=method, cohort=str(pooled))], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert tree_digest(pooled) == tree_digest(serial)
