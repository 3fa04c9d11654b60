"""Golden help and usage text: `polybohr --help`, each subcommand's `--help`
and three usage errors, as a fresh `python -m polybohr` prints them.

cli_help_golden.json lists each case as {"argv", "exit", "stdout", "stderr"}.
The parser's option order, help strings and usage lines are part of the CLI,
so the comparison is exact.  argparse wraps help text to the terminal width,
so each case runs with COLUMNS=80.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polybohr

GOLDEN = json.loads((Path(__file__).with_name("cli_help_golden.json")).read_text())


def run_cli(argv):
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(polybohr.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "polybohr", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("case", GOLDEN, ids=["-".join(c["argv"]) or "no-command"
                                              for c in GOLDEN])
def test_help_and_usage_are_byte_identical(case):
    proc = run_cli(case["argv"])
    assert proc.returncode == case["exit"]
    assert proc.stdout == case["stdout"]
    assert proc.stderr == case["stderr"]
