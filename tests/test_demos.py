"""Each demo runs to completion: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polybohr

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    # the child imports the same package as this test, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(polybohr.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stdout
    assert run.stderr == ""
