"""Set-up cost guard: `scipy.signal` takes over a second to import, and no
stage needs it (the package runs on numpy alone), so it must not load on
`import phonoradar.cli` nor in the radar, transform and evaluate stages."""

import subprocess
import sys
from pathlib import Path

import phonoradar
from phonoradar.cli import main

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
