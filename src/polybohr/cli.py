"""Command-line interface for the polydisc Bohr-radius toolkit.

Subcommands:

- radius     one radius as JSON, with its exact two-float bracket and residual
- verify     extremal.verify_radius's sweeps as JSON (exit 2 on any violation)
- sharpness  explicit witness just beyond the stated radius
- sweep      radius curve along one parameter, as CSV
- table      radius table over (n, m, weight) lists, as CSV

Each command returns its text and exit code; main writes the text once, to
stdout or to --out, after the whole result exists.  `sweep` and `table` check
each n and m once per value, and build and solve one RadiusProblem per
distinct weight: the rho root depends only on the kind and the weight, and
every other (n, m) row rescales it by r = (rho / n)^(1/m), as radius_for
does, so the bytes and the first error are those of one problem per row.

Exit codes: 0 success, 1 usage or invalid parameters, 2 verification failure.
CSV is written with 12 significant digits, '.' decimals, LF line endings;
JSON key order is fixed so identical invocations produce identical bytes.
No command draws a random number.

The parser is built on the first build_parser() call, not at import, and
every later in-process main() call reuses it: parse_args returns a new
namespace each time and leaves the parser unchanged.  The parser binds the
cmd_* functions that exist at that first call, so a tracer that wraps them
later records no cli.cmd_* spans; their time still counts in cli.main.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .extremal import WitnessNotFoundError, sharpness_witness, verify_radius
from .mvseries import _check_count
from .radii import FunctionalKind, RadiusProblem, _geometric_radius, radius_for

_THEOREMS = [kind.value for kind in FunctionalKind]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers, so -1e-3 and
        # -1,2 would be read as options; any '-' then digit or '.digit' is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage problems must exit 1; argparse's default is 2, which this CLI
    # reserves for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv(lead_header: str, rows, problem) -> str:
    """CSV text: each row's leading columns, then radius,rho_root,residual.

    rows yields (leading columns, n, m, weight), n and m checked, one at a
    time, so validation and solving interleave in row order.  The root
    depends on the weight alone: the first row of each distinct weight checks
    it by building problem(n, m, weight), which is solved and its
    rho_root,residual text formatted once; later rows only rescale the root.
    """
    roots = {}
    lines = [lead_header + ",radius,rho_root,residual"]
    for lead, n, m, w in rows:
        solved = roots.get(w)
        if solved is None:
            res = radius_for(problem(n, m, w))
            solved = roots[w] = (res.rho_root, f"{_fmt(res.rho_root)},{_fmt(res.residual)}")
        lines.append(",".join([*lead, _fmt(_geometric_radius(solved[0], n, m)), solved[1]]))
    return "\n".join(lines) + "\n"


def _grid(ns, ms, weights):
    """(n, m, weight) over ns x ms x weights; each n and m checked once, before its first row."""
    for n in ns if ms and weights else ():
        n = _check_count("n", n, 1)
        for m in ms:
            m = _check_count("m", m, 1)
            for w in weights:
                yield n, m, w


def _problem_from_args(args) -> RadiusProblem:
    return RadiusProblem(FunctionalKind(args.theorem), args.n, args.m,
                         t=args.t, lam=args.lam)


# -- subcommands ---------------------------------------------------------------

def cmd_radius(args) -> tuple[str, int]:
    problem = _problem_from_args(args)
    res = radius_for(problem)
    return _json({
        "radius": res.radius,
        "rho_root": res.rho_root,
        "residual": res.residual,
        "branch": res.branch,
        "bracket": [res.bracket[0], res.bracket[1]],
    }), 0


def cmd_verify(args) -> tuple[str, int]:
    problem = _problem_from_args(args)
    check = verify_radius(problem, args.a_grid, args.rho_grid, args.inflate_radius)
    return _json({
        "kind": problem.kind.value,
        "n": problem.n,
        "m": problem.m,
        "weight": problem.weight,
        "radius": check.radius,
        "inflate_radius": args.inflate_radius,
        "rho_max": check.rho_max,
        "a_grid": args.a_grid,
        "rho_grid": args.rho_grid,
        "max_value_below_radius": check.max_value,
        "dominance_min_margin": check.min_margin,
        "violations_below_radius": check.below_violations[:20],
        "violations_dominance": check.dominance_violations[:20],
        "ok": check.ok,
    }), 0 if check.ok else 2


def cmd_sharpness(args) -> tuple[str, int]:
    problem = _problem_from_args(args)
    witness = sharpness_witness(problem, delta=args.delta)
    return _json({
        "kind": problem.kind.value,
        "n": problem.n,
        "m": problem.m,
        "weight": problem.weight,
        "delta": args.delta,
        "radius": witness.radius,
        "rho": witness.rho,
        "a": witness.a,
        "value": witness.value,
    }), 0


def _sweep_values(args):
    if not -math.inf < args.start < args.stop < math.inf:
        raise ValueError("need finite --from < --to")
    if args.param in ("t", "lambda"):
        if getattr(args, "lam" if args.param == "lambda" else "t") is not None:
            raise ValueError(f"--param {args.param} takes its values from --from/--to, "
                             f"not --{args.param}")
        if args.steps is None:
            raise ValueError("--steps is required for t/lambda sweeps")
        if args.steps < 2:
            raise ValueError("--steps must be >= 2")
        return [float(x) for x in np.linspace(args.start, args.stop, args.steps)]
    if args.steps is not None:
        raise ValueError(f"--steps is for t/lambda sweeps, not --param {args.param}")
    lo, hi = int(args.start), int(args.stop)
    if lo != args.start or hi != args.stop:
        raise ValueError(f"{args.param} sweep endpoints must be integers")
    return list(range(lo, hi + 1))


def cmd_sweep(args) -> tuple[str, int]:
    kind = FunctionalKind(args.theorem)
    values = _sweep_values(args)
    weights = {"t": args.t, "lam": args.lam}
    swept = "lam" if args.param == "lambda" else args.param
    axes = {"n": [args.n], "m": [args.m], "w": [None]}  # None: --t and --lambda as given
    axes[swept if swept in axes else "w"] = values
    rows = (([_fmt(v)], *row) for v, row in zip(values, _grid(*axes.values())))
    return _csv("param", rows, lambda n, m, w: RadiusProblem(
        kind, n, m, **(weights if w is None else {**weights, swept: w}))), 0


def _parse_list(text, cast):
    return [cast(tok) for tok in (text or "").split(",") if tok.strip() != ""]


def cmd_table(args) -> tuple[str, int]:
    kind = FunctionalKind(args.theorem)
    own = kind.weight
    flag, other = ("t", "lambda") if own == "t" else ("lambda", "t")
    ns, ms = _parse_list(args.n_list, int), _parse_list(args.m_list, int)
    if getattr(args, f"{other}_list") is not None:
        raise ValueError(f"--theorem {args.theorem} takes --{flag}-list, "
                         f"not --{other}-list")
    weights = [(w, _fmt(w)) for w in _parse_list(getattr(args, f"{flag}_list"), float)]
    rows = (([str(n), str(m), text], n, m, w) for n, m, (w, text) in _grid(ns, ms, weights))
    return _csv("n,m,param", rows, lambda n, m, w: RadiusProblem(kind, n, m, **{own: w})), 0


# -- parser ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; callers must not change it."""
    parser = _Parser(prog="polybohr",
                     description="Sharp Bohr-type radii on the unit polydisc")
    sub = parser.add_subparsers(dest="command")
    # options shared by radius, verify, sharpness and sweep: added once, not per subparser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theorem", required=True, choices=_THEOREMS, help="functional kind")
    common.add_argument("--n", type=int, default=1, help="number of variables")
    common.add_argument("--m", type=int, default=1, help="power-map order")
    common.add_argument("--t", type=float, default=None, help="convex weight in [0, 1]")
    common.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="tail weight > 0 for deriv / sq_deriv")
    common.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("radius", parents=[common], help="one radius as JSON")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("verify", parents=[common], help="below-radius and dominance sweeps")
    p.add_argument("--a-grid", type=int, default=200, help="a-grid size (>= 10)")
    p.add_argument("--rho-grid", type=int, default=50, help="rho-grid size (>= 10)")
    p.add_argument("--inflate-radius", type=float, default=0.0,
                   help="inflate the checked radius by this fraction "
                        "(negative control; 0.01 = +1%%)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sharpness", parents=[common], help="witness just beyond the radius")
    p.add_argument("--delta", type=float, default=1e-3,
                   help="relative overshoot of rho (default 1e-3)")
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("sweep", parents=[common], help="radius curve along one parameter (CSV)")
    p.add_argument("--param", required=True, choices=["t", "lambda", "n", "m"])
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="grid size for t/lambda sweeps (>= 2); n/m sweeps "
                        "take integer steps of 1 and refuse it")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="radius table over (n, m, weight) lists (CSV)")
    p.add_argument("--theorem", required=True, choices=_THEOREMS)
    p.add_argument("--n-list", default="", help="comma-separated n values")
    p.add_argument("--m-list", default="", help="comma-separated m values")
    p.add_argument("--t-list", default=None, help="comma-separated t values (convex)")
    p.add_argument("--lambda-list", default=None,
                   help="comma-separated lambda values (deriv / sq_deriv)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except WitnessNotFoundError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError's str is empty
        print(f"error: out of memory: {str(exc) or 'the request is too large'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
