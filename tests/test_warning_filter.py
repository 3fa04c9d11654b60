"""pyproject.toml's filterwarnings = ["error"] fails a test that warns and a
test module that warns while it is imported, so the tier-1 run is also the
warnings-as-errors run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_a_warning_in_a_test_or_at_import_fails_the_suite(tmp_path):
    (tmp_path / "test_warns_at_import.py").write_text(
        "import warnings\n"
        "warnings.warn('at import', DeprecationWarning)\n\n\n"
        "def test_quiet():\n"
        "    pass\n")
    (tmp_path / "test_warns_in_a_test.py").write_text(
        "import warnings\n\n\n"
        "def test_warns():\n"
        "    warnings.warn('in a test', RuntimeWarning)\n\n\n"
        "def test_quiet():\n"
        "    pass\n")
    # the suite's own ini and the tier-1 command's flag; no cache is written
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--continue-on-collection-errors",
                           str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1, proc.stdout
    # node ids are relative to the repository root, so keep only the file name
    outcomes = [(line.split()[0], line.split()[1].rsplit("/", 1)[-1])
                for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    assert outcomes == [("FAILED", "test_warns_in_a_test.py::test_warns"),
                        ("ERROR", "test_warns_at_import.py")], proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed, 1 error")
