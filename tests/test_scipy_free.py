"""The run time needs numpy only: `import phonoradar.cli` and all four
stages, including the leaky integration path, run with scipy blocked from
import. scipy stays a test dependency, as the reference the IIR kernel and
the WAV codec are checked against."""

import subprocess
import sys
from pathlib import Path

import phonoradar

SCRIPT = """
import sys
sys.modules["scipy"] = None   # any `import scipy...` now raises ImportError
sys.path.insert(0, {src!r})
import phonoradar.cli
cohort = {cohort!r}
for argv in (["synth", "--out", cohort, "--cohort", "3", "--seed", "5", "--duration", "1.0"],
             ["radar", "--cohort", cohort],
             ["transform", "--cohort", cohort],
             ["evaluate", cohort],
             ["transform", "--cohort", cohort, "--integration", "leaky"]):
    assert phonoradar.cli.main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy"
                and sys.modules[name] is not None)
assert not loaded, loaded
"""


def test_all_stages_run_with_scipy_blocked(tmp_path):
    src = str(Path(phonoradar.__file__).resolve().parents[1])
    script = SCRIPT.format(src=src, cohort=str(tmp_path / "cohort"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cohort" / "report" / "report.json").exists()


def test_no_module_imports_scipy():
    package = Path(phonoradar.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        lines = path.read_text().splitlines()
        assert not [ln for ln in lines if ln.strip().startswith(("import scipy", "from scipy"))], path
