"""Independent reference values for the benchmark's correctness checks.

Nothing here calls polybohr.  Radii come from numpy.roots on the radius
polynomials as the paper states them, witness values from the closed forms
quoted in the docstring of polybohr/extremal.py, and the coefficients of the
witness family from the multinomial theorem.  A check never compares against
bytes the library printed before.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# lam below this is the paper's small-weight branch, whose radius comes from a
# weight-free quartic; from it upward the weighted quartic is stated
BRANCH_POINT = {"deriv": 0.5, "sq_deriv": 1.0}

RADIUS_RTOL = 1e-9      # full-precision JSON numbers against a polynomial root
CSV_RTOL = 1e-10        # CSV numbers carry 12 significant digits
RESIDUAL_MAX = 1e-12    # the residual contract the library states
EMPIRICAL_RTOL = 1e-5   # bisection to 1e-7 in rho on a 512-point a-grid plus log tail
SERIES_RTOL = 1e-9      # series route against the closed form, cases with (a rho)^D < 1e-12
WITNESS_RTOL = 1e-12    # witness value re-evaluated from the same closed form
CHECK_SLACK = 1e-12     # slack documented by polybohr.bounds.coefficient_bound_check


def _horner(desc, x):
    acc = 0.0
    for c in desc:
        acc = acc * x + c
    return acc


def _polish(desc, x):
    """Newton steps on the numpy.roots estimate; a double root converges linearly."""
    d_desc = [c * k for c, k in zip(desc[:-1], range(len(desc) - 1, 0, -1))]
    for _ in range(60):
        f = _horner(desc, x)
        d = _horner(d_desc, x)
        if f == 0.0 or d == 0.0:
            break
        step = f / d
        if x - step == x:
            break
        x -= step
    return x


def smallest_root(desc, hi: float) -> float:
    """Smallest real root in (0, hi] of the polynomial with descending coefficients."""
    found = []
    for z in np.roots(np.asarray(desc, dtype=float)):
        if abs(z.imag) > 1e-6:
            continue
        x = _polish(desc, float(z.real))
        if 0.0 < x <= hi * (1.0 + 1e-12):
            found.append(x)
    if not found:
        raise ValueError(f"no root of {desc} in (0, {hi}]")
    return min(found)


def family_rho(kind: str, w: float) -> float:
    """Where the witness family first exceeds 1: the convex quadratic or the weighted quartic."""
    if kind == "convex":
        return smallest_root([4.0 * w - 3.0, -2.0, 1.0], 1.0)
    if kind == "deriv":
        return smallest_root([2.0 * w, 4.0 * w - 1.0, 2.0 * w - 1.0, 3.0, -1.0], SQRT2_MINUS_1)
    return smallest_root([w, 2.0 * w - 1.0, w, 2.0, -1.0], GOLDEN_CONJUGATE)


def small_branch_rho(kind: str) -> float:
    """Root of the paper's weight-free small-weight quartic."""
    if kind == "deriv":
        return smallest_root([1.0, 1.0, 0.0, 3.0, -1.0], SQRT2_MINUS_1)
    return smallest_root([1.0, 1.0, 1.0, 2.0, -1.0], GOLDEN_CONJUGATE)


def is_small_weight(kind: str, w: float) -> bool:
    return kind != "convex" and w < BRANCH_POINT[kind]


def rho_references(kind: str, w: float) -> tuple:
    """Accepted normalized radii: the paper's stated branch, and the weighted quartic.

    Both are accepted so that settling which one is sharp on the small-weight
    branch stays a change to the library, not to this benchmark.
    """
    refs = {family_rho(kind, w)}
    if is_small_weight(kind, w):
        refs.add(small_branch_rho(kind))
    return tuple(sorted(refs))


def geometric_radius(rho: float, n: int, m: int) -> float:
    return (rho / n) ** (1.0 / m)


def family_value(kind: str, w: float, a: float, rho: float) -> float:
    """Closed-form functional value of the witness family f_a at (a, rho)."""
    first = (rho + a) / (1.0 + a * rho)
    if kind == "convex":
        return w * first + (1.0 - w) * (a + (1.0 - a * a) * rho / (1.0 - a * rho))
    second = (1.0 - a * a) * rho / (1.0 + a * rho) ** 2
    tail = w * (1.0 - a * a) * a * rho * rho / (1.0 - a * rho)
    head = first * first if kind == "sq_deriv" else first
    return head + second + tail


def coefficient_violations(a: float, n: int, m: int, degree: int):
    """Indices of the family composed with z -> z^m whose coefficient breaks
    |c| <= 1 - a^2, as (certain, borderline) sets.

    The coefficient of w^alpha, |alpha| = k >= 1, is (1 - a^2) a^(k-1) k!/alpha!;
    after the power map it sits at m * alpha.  Indices within 1e-9 of the
    cap are borderline and accepted either way.
    """
    cap = 1.0 - a * a
    certain, borderline = set(), set()
    for k in range(1, degree + 1):
        coeff_k = cap * a ** (k - 1)
        kfac = math.factorial(k)
        for alpha in compositions(n, k):
            multinomial = kfac
            for e in alpha:
                multinomial //= math.factorial(e)
            excess = coeff_k * multinomial - (cap + CHECK_SLACK)
            key = tuple(m * e for e in alpha)
            if abs(excess) <= 1e-9 * cap:
                borderline.add(key)
            elif excess > 0.0:
                certain.add(key)
    return certain, borderline


def compositions(n: int, k: int):
    """All n-tuples of nonnegative integers summing to k."""
    for bars in itertools.combinations(range(k + n - 1), n - 1):
        prev, parts = -1, []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(k + n - 1 - prev - 1)
        yield tuple(parts)


def zero_order_ratio_cap(a: float, n: int, degree: int) -> float:
    """Upper bound for |h(z)| / ||z||_inf^m over the polydisc, h = f_a(z^m) - a truncated at degree.

    By the multinomial theorem h = -(1 - a^2) sum_{k=1..D} a^(k-1) s^k with
    s = sum_j z_j^m and |s| <= n ||z||_inf^m, so the ratio is at most
    (1 - a^2) n sum_{j<D} (a n)^j.
    """
    return (1.0 - a * a) * n * sum((a * n) ** j for j in range(degree))


class Check:
    """Collects the checks of one op: worst relative error and any failures."""

    def __init__(self):
        self.max_rel_err = 0.0
        self.problems = []

    def close(self, what: str, got: float, refs, rtol: float) -> None:
        if not isinstance(refs, (tuple, list)):
            refs = (refs,)
        err = min(abs(got - r) / abs(r) if r else abs(got) for r in refs)
        if not err <= rtol:  # NaN-safe
            self.problems.append(f"{what}: {got!r} vs {refs!r}")
            err = math.inf if math.isnan(err) else err
        self.max_rel_err = max(self.max_rel_err, err)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
