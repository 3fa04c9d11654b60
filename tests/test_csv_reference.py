"""The one grid loop of `table` and `sweep` against the row-by-row builder.

Seeded argvs over every kind and sweep param, with repeated weights, the
edge weights of each kind, non-finite and negative weights, counts of 0, -1
and 10**400, and empty lists: cli.cmd_table and cli.cmd_sweep must return
the text and exit code of tests/_reference.reference_csv, or raise the same
exception with the same message.
"""

import math
import random

from polybohr import cli
from _reference import reference_csv

BIG = str(10**400)
KINDS = ("convex", "deriv", "sq_deriv")
OWN_FLAG = {"convex": "t", "deriv": "lambda", "sq_deriv": "lambda"}
CASES = 2000


def _count(rng):
    if rng.random() < 0.12:
        return rng.choice(["0", "-1", BIG])
    return str(rng.randint(1, 8))


def _weight(rng, kind):
    r = rng.random()
    if r < 0.06:
        return rng.choice(["nan", "inf", "-inf"])
    if r < 0.1:
        return repr(-rng.uniform(0.0, 2.0))
    if kind == "convex":
        return rng.choice(["-0.0", "0", "0.75", "1"]) if r < 0.5 else repr(rng.random())
    if r < 0.15:
        return rng.choice(["-0.0", "0", "0.5", "1", "1e308"])
    return repr(10.0 ** rng.uniform(-300.0, 300.0))


def _list(rng, draw):
    items = []
    for _ in range(rng.choice([0, 1, 1, 2, 3, 4])):
        items.append(rng.choice(items) if items and rng.random() < 0.3 else draw())
    return ",".join(items)


def _table_argv(rng, kind):
    flag = OWN_FLAG[kind]
    if rng.random() < 0.05:
        flag = "t" if flag == "lambda" else "lambda"
    argv = ["table", "--theorem", kind, f"--n-list={_list(rng, lambda: _count(rng))}",
            f"--m-list={_list(rng, lambda: _count(rng))}"]
    if rng.random() < 0.95:
        argv.append(f"--{flag}-list={_list(rng, lambda: _weight(rng, kind))}")
    return argv


def _sweep_argv(rng, kind, param):
    argv = ["sweep", "--theorem", kind, "--param", param]
    if param in ("t", "lambda"):
        if param == "t":
            start = rng.choice([-0.0, 0.0, 0.75, rng.uniform(-0.2, 1.0)])
        else:
            start = 10.0 ** rng.uniform(-300.0, 299.0)
        # a span of a few ulps repeats values of the grid
        r = rng.random()
        if r < 0.2:
            stop = math.nextafter(math.nextafter(start, math.inf), math.inf)
        elif r < 0.25:
            stop = start * rng.uniform(0.5, 1.0)
        else:
            stop = start * rng.uniform(1.0, 10.0) + rng.uniform(0.0, 1.0)
        argv += [f"--from={start!r}", f"--to={stop!r}"]
        if rng.random() < 0.95:
            argv.append(f"--steps={rng.choice([1, 2, 3, 5, 7, 7])}")
    else:
        start = rng.choice([-1, 0, 1, 1, 2, 3, 3])
        stop = start + rng.choice([-1, 0, 1, 2, 3, 4, 5, 6])
        argv += [f"--from={start + (0.5 if rng.random() < 0.05 else 0)}", f"--to={stop}"]
        if rng.random() < 0.03:
            argv.append("--steps=3")
    if param != "n" and rng.random() < 0.4:
        argv.append(f"--n={_count(rng)}")
    if param != "m" and rng.random() < 0.4:
        argv.append(f"--m={_count(rng)}")
    for flag in ("t", "lambda"):
        own = flag == OWN_FLAG[kind]
        if rng.random() < (0.8 if own and param in ("n", "m") else 0.04):
            argv.append(f"--{flag}={_weight(rng, kind if own else 'convex')}")
    return argv


def _outcome(command, args):
    try:
        return command(args)
    except Exception as exc:
        return type(exc), str(exc)


def test_one_grid_loop_matches_the_row_generators():
    rng = random.Random(20261022)
    parser = cli.build_parser()
    seen, rows, errors = set(), 0, 0
    for _ in range(CASES):
        kind = rng.choice(KINDS)
        if rng.random() < 0.4:
            argv, command = _table_argv(rng, kind), cli.cmd_table
            seen.add(("table", kind))
        else:
            param = rng.choice(["t", "lambda", "n", "m"])
            if param in ("t", "lambda") and rng.random() < 0.8:
                # a weight sweep of the other kind's weight only fails its pairing
                kind = "convex" if param == "t" else rng.choice(KINDS[1:])
            argv, command = _sweep_argv(rng, kind, param), cli.cmd_sweep
            seen.add((param, kind))
        args = parser.parse_args(argv)
        got = _outcome(command, args)
        assert got == _outcome(reference_csv, args), argv
        if isinstance(got[0], str):
            rows += got[0].count("\n") - 1
        else:
            errors += 1
    # every command, param and kind is drawn, and both outcomes are common
    assert len(seen) == 15
    assert rows > 2 * CASES and CASES // 5 < errors < 3 * CASES // 5
