"""Golden CLI output: a fixed set of invocations whose exit codes and stdout
bytes must not change.

cli_golden.json lists each invocation as {"argv", "exit", "stdout"}.  The set
covers all five subcommands and all three kinds, small and large weights,
n, m > 1, the +1% negative control, the four sweep parameters and the usage
errors.  JSON key order and the 12-digit CSV format are part of the CLI
contract, so the comparison is exact.
"""

import json
from pathlib import Path

import pytest

from polybohr import cli

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def _case_id(case):
    words = [a for a in case["argv"] if not a.startswith("--")]
    return "-".join(words)[:40] or "no-command"


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}-{_case_id(c)}"
                                              for i, c in enumerate(GOLDEN)])
def test_cli_output_is_byte_identical(case, capsys):
    try:
        code = cli.main(list(case["argv"]))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == case["stdout"]
