"""Each demo runs to completion: exit 0, nothing on stderr, and the stdout
recorded in demo_golden.json, byte for byte.  The child runs under -W error,
since the suite's warning filter does not reach a child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polybohr

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
GOLDEN = json.loads(Path(__file__).with_name("demo_golden.json").read_text())


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    # the child imports the same package as this test, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(polybohr.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stdout
    assert run.stderr == ""
    assert run.stdout == GOLDEN[demo.stem]
