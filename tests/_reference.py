"""Test helpers shared by several test modules."""

import math

import numpy as np

from polybohr import cli, extremal
from polybohr.cli import _fmt
from polybohr.extremal import Verification
from polybohr.mvseries import _check_count
from polybohr.radii import FunctionalKind, _geometric_radius, radius_for


def reference_bisect(f, lo, hi, iters=200):
    """Plain bisection, independent of the package's solver."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# -- the series engine's term loops ---------------------------------------------
#
# Plain term loops over the keys themselves, the reference for the bits of
# TruncatedSeries's operations: the derivative and the majorant sum run on
# float64 arrays and the composition builds its keys from one stream of
# entries, while the product is a term loop too, kept here so that a faster
# version must match it.
# Each takes and returns (coeffs, max_degree) data, drops the exact zeros as
# TruncatedSeries._trusted does, and keys its result by plain tuples, whose
# repr is a MultiIndex's.


def _nonzero(coeffs):
    return {a: c for a, c in coeffs.items() if c != 0}


def reference_multiply(coeffs_a, degree_a, coeffs_b, degree_b):
    out = {}
    for a, ca in coeffs_a.items():
        for b, cb in coeffs_b.items():
            key = tuple([x + y for x, y in zip(a, b)])
            out[key] = out.get(key, 0j) + ca * cb
    return degree_a + degree_b, _nonzero(out)


def reference_directional_derivative(coeffs, degree, components):
    out = {}
    for alpha, c in coeffs.items():
        for j, e in enumerate(alpha):
            if e:
                down = list(alpha)
                down[j] = e - 1
                key = tuple(down)
                out[key] = out.get(key, 0j) + c * e * components[j]
    return max(degree - 1, 0), _nonzero(out)


def reference_compose_power_map(coeffs, degree, m):
    return m * degree, _nonzero({tuple([m * e for e in alpha]): c for alpha, c in coeffs.items()})


def reference_bohr_majorant_sum(coeffs, radii, k_min):
    total = 0.0
    for alpha, c in coeffs.items():
        if sum(alpha) < k_min:
            continue
        term = abs(c)
        for j, e in enumerate(alpha):
            if e:
                term *= radii[j] ** e
        total += term
    return total


# -- the majorant --------------------------------------------------------------------

def _closed_form(func, a, rho, ratio=None):
    """extremal._functional_value as it was when it also served the majorant:
    each geometric tail has ratio q rho, with q = a (the family) unless a
    ratio is given (ratio = 1 for the majorant)."""
    kind = func.kind
    q = a if ratio is None else ratio
    d = 1.0 + a * rho
    first = (rho + a) / d
    if kind is FunctionalKind.CONVEX:
        t = func.t
        return t * first + (1.0 - t) * (a + (1.0 - a * a) * rho / (1.0 - q * rho))
    one_minus = 1.0 - a * a
    second = one_minus * rho / (d * d)
    tail = func.lam * one_minus * q * rho * rho / (1.0 - q * rho)
    if kind is FunctionalKind.DERIV:
        return first + second + tail
    return first * first + second + tail


def reference_majorant(func, a0, rho):
    """extremal.majorant_functional as the float() of the closed form at
    tail ratio 1.0, whose bits and messages the straight-line spelling must
    keep."""
    if not 0.0 <= a0 <= 1.0:
        raise ValueError(f"a0 must lie in [0, 1], got {a0!r}")
    kind = func.kind
    if not (0.0 <= rho <= kind.rho_cap and rho < 1.0):
        raise ValueError(f"{kind.value} majorant needs 0 <= rho <= {kind.rho_cap!r} "
                         f"and rho < 1, got {rho!r}")
    return float(_closed_form(func, a0, rho, 1.0))


# -- the verify sweep -------------------------------------------------------------

def reference_verify(problem, a_grid, rho_grid, inflate):
    """extremal.verify_radius as a per-point loop, row by row, which the
    array passes of the library's sweep must match bit for bit.  It reads
    extremal's majorant_functional and _functional_value at call time, so a
    monkeypatched one reaches both."""
    _check_count("a_grid", a_grid, 10)
    _check_count("rho_grid", rho_grid, 10)
    if not 0.0 <= inflate < math.inf:
        raise ValueError(f"inflate must be finite and >= 0, got {inflate!r}")
    radius = radius_for(problem).radius
    try:
        rho_max = problem.n * (radius * (1.0 + inflate)) ** problem.m
    except OverflowError:
        raise ValueError(f"inflate = {inflate!r} overflows rho_max; lower inflate") from None
    avals = np.linspace(0.0, 1.0, a_grid, endpoint=False)
    rhos = np.linspace(0.0, rho_max, rho_grid)
    a_list = avals.tolist()
    cap = problem.kind.search_cap
    majorant = extremal.majorant_functional
    closed_form = extremal._functional_value
    max_value = 0.0
    below_violations = []
    dominance_violations = []
    min_margin = float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        for rho in rhos.tolist():
            if rho > 1.0 and (avals * rho == 1.0).any():
                raise ValueError(f"the verify grid reaches a * rho = 1 at rho = {rho!r}, "
                                 f"the pole of the family's tail; lower inflate")
            vals = closed_form(problem, avals, rho)
            top = float(np.max(vals))
            if top > max_value:
                max_value = top
            for i in np.nonzero(vals > 1.0 + 1e-12)[0]:
                below_violations.append([a_list[i], rho, float(vals[i])])
            rr = min(rho, cap)
            fam = vals if rr == rho else closed_form(problem, avals, rr)
            for a, value in zip(a_list, fam.tolist()):
                margin = majorant(problem, a, rr) - value
                if margin < min_margin:
                    min_margin = margin
                if margin < -1e-12:
                    dominance_violations.append([a, rr, margin])
    return Verification(radius, rho_max, max_value, min_margin,
                        below_violations, dominance_violations)


# -- the CSV commands ------------------------------------------------------------

def _reference_rows_csv(lead_header, rows, problem):
    """cli._csv as it was when each command built its own row generator."""
    roots = {}
    lines = [lead_header + ",radius,rho_root,residual"]
    for lead, n, m, w in rows:
        solved = roots.get(w)
        if solved is None:
            res = radius_for(problem(n, m, w))
            solved = roots[w] = (res.rho_root, f"{_fmt(res.rho_root)},{_fmt(res.residual)}")
        lines.append(",".join([*lead, _fmt(_geometric_radius(solved[0], n, m)), solved[1]]))
    return "\n".join(lines) + "\n"


def _reference_grid(ns, ms, weights):
    """(n, m, weight) over ns x ms x weights; each n and m checked once, before its first row."""
    for n in ns if ms and weights else ():
        n = _check_count("n", n, 1)
        for m in ms:
            m = _check_count("m", m, 1)
            for w in weights:
                yield n, m, w


def reference_csv(args):
    """cli.cmd_table or cli.cmd_sweep (by args.command) as a row generator
    fed to a row-by-row builder, whose text and first error the one grid loop
    of cli._csv must keep.  It reads cli's unchanged helpers and its
    RadiusProblem at call time."""
    if args.command == "table":
        kind = FunctionalKind(args.theorem)
        own = kind.weight
        flag, other = ("t", "lambda") if own == "t" else ("lambda", "t")
        ns, ms = cli._parse_list(args.n_list, int), cli._parse_list(args.m_list, int)
        if getattr(args, f"{other}_list") is not None:
            raise ValueError(f"--theorem {args.theorem} takes --{flag}-list, "
                             f"not --{other}-list")
        weights = [(w, _fmt(w)) for w in cli._parse_list(getattr(args, f"{flag}_list"), float)]
        rows = (([str(n), str(m), text], n, m, w)
                for n, m, (w, text) in _reference_grid(ns, ms, weights))
        return _reference_rows_csv("n,m,param", rows, lambda n, m, w: cli.RadiusProblem(
            kind, n, m, **{own: w})), 0
    kind = FunctionalKind(args.theorem)
    values = cli._sweep_values(args)
    weights = {"t": args.t, "lam": args.lam}
    swept = "lam" if args.param == "lambda" else args.param
    axes = {"n": [args.n], "m": [args.m], "w": [None]}  # None: --t and --lambda as given
    axes[swept if swept in axes else "w"] = values
    rows = (([_fmt(v)], *row) for v, row in zip(values, _reference_grid(*axes.values())))
    return _reference_rows_csv("param", rows, lambda n, m, w: cli.RadiusProblem(
        kind, n, m, **(weights if w is None else {**weights, swept: w}))), 0
