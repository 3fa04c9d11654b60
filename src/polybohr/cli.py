"""Command-line interface for the polydisc Bohr-radius toolkit.

Subcommands:

- radius     one radius as JSON, with its float bracket and residual
- verify     extremal.verify_radius's sweeps as JSON (exit 2 on any violation)
- sharpness  explicit witness just beyond the stated radius
- sweep      radius curve along one parameter, as CSV
- table      radius table over (n, m, weight) lists, as CSV

`sweep` and `table` solve each distinct weight once per invocation: the rho
root depends only on the kind and the weight, and every other (n, m) row
reuses it through r = (rho / n)^(1/m), the rescaling radius_for applies, so
the bytes are those of one radius_for call per row.

Exit codes: 0 success, 1 usage or invalid parameters, 2 verification failure.
CSV is written with 12 significant digits, '.' decimals, LF line endings;
JSON key order is fixed so identical invocations produce identical bytes.
No command draws a random number.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .extremal import WitnessNotFoundError, sharpness_witness, verify_radius
from .radii import FunctionalKind, RadiusProblem, _geometric_radius, radius_for

_THEOREMS = [kind.value for kind in FunctionalKind]


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; argparse's default is 2, which this CLI
    # reserves for verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _write_out(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem_from_args(args) -> RadiusProblem:
    return RadiusProblem(FunctionalKind(args.theorem), args.n, args.m,
                         t=args.t, lam=args.lam)


# -- subcommands ---------------------------------------------------------------

def cmd_radius(args) -> int:
    problem = _problem_from_args(args)
    res = radius_for(problem)
    payload = {
        "radius": res.radius,
        "rho_root": res.rho_root,
        "residual": res.residual,
        "branch": res.branch,
        "bracket": [res.bracket[0], res.bracket[1]],
    }
    _write_out(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    problem = _problem_from_args(args)
    check = verify_radius(problem, args.a_grid, args.rho_grid, args.inflate_radius)
    payload = {
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
    }
    _write_out(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return 0 if check.ok else 2


def cmd_sharpness(args) -> int:
    problem = _problem_from_args(args)
    witness = sharpness_witness(problem, delta=args.delta)
    payload = {
        "kind": problem.kind.value,
        "n": problem.n,
        "m": problem.m,
        "weight": problem.weight,
        "delta": args.delta,
        "radius": witness.radius,
        "rho": witness.rho,
        "a": witness.a,
        "value": witness.value,
    }
    _write_out(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    return 0


def _solve_rows(problems):
    """Yield (radius, result) per problem, solving each weight once.

    The problems share one kind, so the rho root depends on the weight alone;
    later rows with a known weight only rescale it.  Problems are drawn one
    at a time, so validation and solving interleave in row order.
    """
    roots = {}
    for problem in problems:
        res = roots.get(problem.weight)
        if res is None:
            res = roots[problem.weight] = radius_for(problem)
        yield _geometric_radius(res.rho_root, problem.n, problem.m), res


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


def cmd_sweep(args) -> int:
    kind = FunctionalKind(args.theorem)
    values = _sweep_values(args)
    fixed = {"n": args.n, "m": args.m, "t": args.t, "lam": args.lam}
    swept = "lam" if args.param == "lambda" else args.param
    rows = ["param,radius,rho_root,residual"]
    problems = (RadiusProblem(kind, **{**fixed, swept: v}) for v in values)
    for v, (radius, res) in zip(values, _solve_rows(problems)):
        rows.append(",".join([_fmt(v), _fmt(radius), _fmt(res.rho_root),
                              _fmt(res.residual)]))
    _write_out("\n".join(rows) + "\n", args.out)
    return 0


def _parse_list(text, cast):
    return [cast(tok) for tok in (text or "").split(",") if tok.strip() != ""]


def cmd_table(args) -> int:
    kind = FunctionalKind(args.theorem)
    own = kind.weight
    flag, other = ("t", "lambda") if own == "t" else ("lambda", "t")
    ns = _parse_list(args.n_list, int)
    ms = _parse_list(args.m_list, int)
    if getattr(args, f"{other}_list") is not None:
        raise ValueError(f"--theorem {args.theorem} takes --{flag}-list, "
                         f"not --{other}-list")
    weights = _parse_list(getattr(args, f"{flag}_list"), float)
    rows = ["n,m,param,radius,rho_root,residual"]
    cells = [(n, m, w) for n in ns for m in ms for w in weights]
    problems = (RadiusProblem(kind, n, m, **{own: w}) for n, m, w in cells)
    for (n, m, w), (radius, res) in zip(cells, _solve_rows(problems)):
        rows.append(",".join([str(n), str(m), _fmt(w), _fmt(radius),
                              _fmt(res.rho_root), _fmt(res.residual)]))
    _write_out("\n".join(rows) + "\n", args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--theorem", required=True, choices=_THEOREMS,
                     help="functional kind")
    sub.add_argument("--n", type=int, default=1, help="number of variables")
    sub.add_argument("--m", type=int, default=1, help="power-map order")
    sub.add_argument("--t", type=float, default=None,
                     help="convex weight in [0, 1]")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="tail weight > 0 for deriv / sq_deriv")
    sub.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polybohr",
                     description="Sharp Bohr-type radii on the unit polydisc")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("radius", help="one radius as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("verify", help="below-radius and dominance sweeps")
    _add_common(p)
    p.add_argument("--a-grid", type=int, default=200, help="a-grid size (>= 10)")
    p.add_argument("--rho-grid", type=int, default=50, help="rho-grid size (>= 10)")
    p.add_argument("--inflate-radius", type=float, default=0.0,
                   help="inflate the checked radius by this fraction "
                        "(negative control; 0.01 = +1%%)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sharpness", help="witness just beyond the radius")
    _add_common(p)
    p.add_argument("--delta", type=float, default=1e-3,
                   help="relative overshoot of rho (default 1e-3)")
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("sweep", help="radius curve along one parameter (CSV)")
    _add_common(p)
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
        return args.func(args)
    except WitnessNotFoundError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
