"""Witness family and Bohr-type functionals on the polydisc.

The single family behind every sharpness statement here is

    f_a(z) = (a - s) / (1 - a s),    s = z_1 + ... + z_n,   a in [0, 1),

restricted to the simplex-slice |z_1| + ... + |z_n| < 1 of the polydisc.  Its
expansion has constant term a and, for |alpha| = k >= 1, coefficient
-(1 - a^2) a^(k-1) k!/alpha!.  Evaluating the functionals on f_a composed
with the power map z_j -> z_j^m at the aligned point z_j = r e^(-i pi / m)
produces closed forms in a and rho = n r^m:

    CONVEX    t (rho+a)/(1+a rho) + (1-t) [a + (1-a^2) rho / (1-a rho)]
    DERIV     (rho+a)/(1+a rho) + (1-a^2) rho/(1+a rho)^2
                + lam (1-a^2) a rho^2 / (1-a rho)
    SQ_DERIV  the same with the first term squared

Each geometric tail above has ratio a rho.  The majorant (an upper-bound
chain valid for every self-map with |f(0)| = a0) bounds a^(k-1) by 1:
majorant_functional spells it out, and
test_majorant_is_the_family_with_tail_ratio_one proves it is the closed form
with tail ratio 1, rho in place of a rho.  It dominates the family, and the
value crosses 1 for some a precisely when rho exceeds the family threshold.
empirical_radius recovers radii by bisecting that crossing; sharpness_witness
exhibits an explicit a just beyond a stated radius, the first point of one
a-grid where the value exceeds 1, and raises when no grid point does (as for
delta <~ 1e-8); verify_radius checks on an (a, rho) grid that the family
stays at or below 1 inside it and that the majorant dominates.
Both thresholds are the roots of the radius polynomials in radii, for every
weight: the majorant factors through the same quartic (see the radii module
docstring), so every stated radius is sharp.  A functional is a
radii.Functional (a kind and its weight); a RadiusProblem is one at (n, m),
so the searches evaluate the problem itself.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .mvseries import (Direction, SchwarzPowerMap, TruncatedSeries, _check_below_one,
                       _check_count, _check_positive, _indices)
from .radii import (Functional, FunctionalKind, RadiusProblem, _geometric_radius,
                    radius_for)

# sup-over-grid crossing guard: a radius is "crossed" only when the grid sup
# exceeds 1 by more than this
CROSSING_TOL = 1e-12

_RHO_TOL = 1e-7  # relative bracket width at which a crossing bisection stops
_VERIFY_BLOCK = 1 << 12  # most points in a verify block: whole rows, one mapped majorant pass

# bound once: on Python 3.11 each FunctionalKind.X lookup costs about 150 ns,
# and verify's loop would pay two or three of them per grid point
_CONVEX, _DERIV, _SQ_DERIV = (FunctionalKind.CONVEX, FunctionalKind.DERIV,
                              FunctionalKind.SQ_DERIV)
_FLOAT = float  # majorant_functional converts numpy scalars to it, not every result

# The search a-grid: 512 uniform points on [0, 1), then 1 - 2^-k for
# k = 10..30 (smaller k are uniform points already).  The functionals
# approach 1 as a -> 1 with slope proportional to (1 - a), so witnesses often
# live at a within 1e-3 of 1; the tail resolves them.  Concatenated, not
# np.unique'd: np.unique imports numpy.ma, about 1.2 MiB of RSS.
_A_GRID = np.concatenate([np.linspace(0.0, 1.0, 512, endpoint=False),
                          1.0 - np.power(2.0, -np.arange(10, 31, dtype=float))])
_A_GRID.flags.writeable = False


class WitnessNotFoundError(RuntimeError):
    """Raised when no witness parameter pushes the functional above 1."""


@dataclass(frozen=True)
class ExtremalParams:
    """Witness-family parameters: a in [0, 1), variable count n, power m."""

    a: float
    n: int
    m: int

    def __post_init__(self):
        _check_below_one("a", self.a)
        object.__setattr__(self, "n", _check_count("n", self.n, 1))
        object.__setattr__(self, "m", _check_count("m", self.m, 1))


@dataclass(frozen=True)
class Verification:
    """verify_radius's outcome; radius is the stated radius, not inflated.

    Each below violation is [a, rho, value > 1 + 1e-12]; each dominance
    violation is [a, rho, majorant - family < -1e-12], rho clamped to the
    kind's search cap as the majorant took it.
    """

    radius: float
    rho_max: float
    max_value: float
    min_margin: float
    below_violations: list
    dominance_violations: list

    @property
    def ok(self) -> bool:
        return not self.below_violations and not self.dominance_violations


@dataclass(frozen=True)
class Witness:
    """A witness: a float functional value above 1 at (a, rho), not an exact
    sign (below delta ~ 1e-9 it may exceed 1 by rounding alone; ROADMAP
    item 5).  radius is the stated radius, not inflated, as in Verification.
    """

    a: float
    value: float
    rho: float
    functional: Functional
    radius: float

    def __post_init__(self):
        if not self.value > 1.0:
            raise ValueError(f"witness value must exceed 1, got {self.value!r}")


def _check_point(a, rho):
    """The witness point: 0 <= a < 1, rho >= 0 and a rho < 1."""
    _check_below_one("a", a)
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho!r}")
    if not a * rho < 1.0:
        raise ValueError(f"need a * rho < 1, got {a * rho!r}")


# -- the witness family as a series -------------------------------------------

def extremal_series(params: ExtremalParams, max_degree: int) -> TruncatedSeries:
    """Truncated expansion of f_a(z) = (a - s)/(1 - a s), s = z_1 + ... + z_n.

    Constant term a; coefficient of z^alpha for |alpha| = k >= 1 is
    -(1 - a^2) a^(k-1) k!/alpha!, so each homogeneous slice sums in modulus
    to (1 - a^2) a^(k-1) n^k.
    """
    max_degree = _check_count("max_degree", max_degree, 0)
    a, n = params.a, params.n
    exps, values = [np.zeros((1, n), np.intp)], [np.array([complex(a)])]
    one_minus = 1.0 - a * a
    for k in range(1, max_degree + 1):
        block, multinomials = _table(n, k)
        exps.append(block)
        # float64 products of the Python float base, each imag is +0.0
        values.append((-one_minus * a ** (k - 1) * multinomials).astype(complex))
    return TruncatedSeries._trusted(n, max_degree, np.concatenate(exps), np.concatenate(values))


@functools.cache
def _table(n: int, k: int) -> tuple:
    """(exps, multinomials): read-only, each alpha of degree k in n variables
    as an intp row, in lexicographic order, and k!/alpha! for each as float64.

    float(k!/alpha!) rounds the exact int as base * (k!/alpha!) in Python
    would, so base * multinomials has the bits of the Python products.  Built
    once per (n, k) and kept for the process, the package's only table cache;
    for n <= 3 and k <= 40 the tables hold about 0.4 MiB.
    """
    keys = list(_indices(n, k))
    kfac = math.factorial(k)
    multinomials = np.array([float(kfac // alpha.factorial) for alpha in keys])
    exps = np.array(keys, np.intp)
    exps.flags.writeable = multinomials.flags.writeable = False
    return exps, multinomials


# -- closed-form functional values --------------------------------------------

def _functional_value(func: Functional, a, rho):
    """The witness family's closed form; elementwise on numpy arrays.

    The coefficients of degree k >= 1 have modulus (1 - a^2) a^(k-1), so
    each geometric tail has ratio a rho.
    """
    kind = func.kind
    d = 1.0 + a * rho
    first = (rho + a) / d
    if kind is _CONVEX:
        t = func.t
        return t * first + (1.0 - t) * (a + (1.0 - a * a) * rho / (1.0 - a * rho))
    one_minus = 1.0 - a * a
    second = one_minus * rho / (d * d)
    tail = func.lam * one_minus * a * rho * rho / (1.0 - a * rho)
    if kind is _DERIV:
        return first + second + tail
    return first * first + second + tail


def extremal_functional(func: Functional, a: float, rho: float) -> float:
    """Exact functional value for the witness family at parameter a.

    At a = 0 every kind reduces to rho (CONVEX) or 2 rho (DERIV) style
    elementary values; as a -> 1 the value tends to 1 from whichever side the
    sign of W(1, rho) dictates, where F - 1 = (1 - a) W / D (see the radii
    docstring).
    """
    _check_point(a, rho)
    return float(_functional_value(func, a, rho))


def majorant_functional(func: Functional, a0: float, rho: float) -> float:
    """Upper-bound chain value for any self-map with |f(0)| = a0.

    It is the witness family's closed form with tail ratio 1, for a0 in
    [0, 1] and 0 <= rho < 1 up to the kind's float rho_cap, which for DERIV
    and SQ_DERIV lies 1.74 and 0.49 ULP above sqrt(2)-1 and (sqrt(5)-1)/2.
    At a0 = 1 it is exactly 1.0.  It returns a Python float, also for numpy scalars.
    """
    # straight-line scalar code, checks inline: verify_radius calls this once
    # per grid point, at 270-320 ns a call, and a helper's call adds 35-80 ns
    if not 0.0 <= a0 <= 1.0:
        raise ValueError(f"a0 must lie in [0, 1], got {a0!r}")
    kind = func.kind
    if not (0.0 <= rho <= kind.rho_cap and rho < 1.0):
        raise ValueError(f"{kind.value} majorant needs 0 <= rho <= {kind.rho_cap!r} "
                         f"and rho < 1, got {rho!r}")
    d = 1.0 + a0 * rho
    first = (rho + a0) / d
    if kind is _CONVEX:
        t = func.t
        value = t * first + (1.0 - t) * (a0 + (1.0 - a0 * a0) * rho / (1.0 - rho))
    else:
        one_minus = 1.0 - a0 * a0
        value = (first if kind is _DERIV else first * first) + one_minus * rho / (d * d) \
            + func.lam * one_minus * rho * rho / (1.0 - rho)
    # np.float64 subclasses float, and its arithmetic stays np.float64; symbols pass
    if value.__class__ is not _FLOAT and isinstance(value, np.generic):
        value = _FLOAT(value)
    return value


# -- series-route evaluation (independent of the closed forms) ----------------

def extremal_functional_from_series(func: Functional, params: ExtremalParams,
                                    rho: float, max_degree: int) -> float:
    """Functional value computed through the series machinery alone.

    Builds the truncated expansion of f_a, composes with z_j -> z_j^m,
    evaluates at the aligned point z_j = r e^(-i pi/m) with rho = n r^m, and
    assembles the functional from |g(z)|, the directional derivative along
    (1/n, ..., 1/n), and majorant sums.  Agreement with extremal_functional
    checks the closed forms; the truncation error decays like (a rho)^D.
    """
    a, n, m = params.a, params.n, params.m
    _check_point(a, rho)
    r = _geometric_radius(rho, n, m)
    f = extremal_series(params, max_degree=max_degree)
    omega = SchwarzPowerMap(n, m)
    g = f.compose_power_map(omega)
    z = tuple(r * cmath.exp(-1j * math.pi / m) for _ in range(n))
    w = omega.apply(z)  # each coordinate is exactly -r^m
    first = abs(g.eval(z))
    kind = func.kind
    if kind is _CONVEX:
        return func.t * first + (1.0 - func.t) * g.bohr_majorant_sum(r, k_min=0)
    tail = g.bohr_majorant_sum(r, k_min=2 * m)
    # g is not used past here; freed before the derivative is built, so that
    # f, g and du are never alive together, it no longer sets the peak memory
    del g
    du = f.directional_derivative(Direction.uniform(n))
    # the derivative term carries n * ||omega(z)||_inf = n r^m = rho; the
    # radii are exact under this polydisc normalization
    second = abs(du.eval(w)) * (n * abs(w[0]))
    head = first * first if kind is _SQ_DERIV else first
    return head + second + func.lam * tail


# -- parameter grids and searches ----------------------------------------------

def sharpness_witness(problem: RadiusProblem, delta: float = 1e-3) -> Witness:
    """An explicit witness just beyond the stated radius, where one exists.

    Evaluates the family at rho = (1 + delta) * rho_root on the a-grid alone
    (uniform points plus the log tail toward 1) and returns the first grid
    point whose functional value exceeds 1.  For every weight the stated
    radius is where the family's sup first exceeds 1 (for DERIV / SQ_DERIV
    the root of the weighted quartic, for every lam > 0), so a witness
    exists just beyond it.  When no grid point exceeds 1 the search raises
    WitnessNotFoundError, as it often does for delta <~ 1e-8.  Below about
    1e-9 the float comparison no longer decides the exact sign, so a
    returned value there may exceed 1 only by rounding.  The family lives on
    |s| < 1, so rho >= 1 (CONVEX near t = 1, or a large delta) raises
    ValueError, and so does a delta too small to move rho off rho_root
    (below about 1.1e-16).
    """
    _check_positive("delta", delta)
    result = radius_for(problem)
    rho = (1.0 + delta) * result.rho_root
    if not rho < 1.0:
        hint = ("lower delta" if result.rho_root < 1.0 else "the stated radius is already "
                "rho = 1, the edge of the domain, so no witness lies beyond it")
        raise ValueError(f"the witness point rho = (1 + delta) * {result.rho_root!r} = {rho!r} "
                         f"is outside the family's domain rho < 1; {hint}")
    if not rho > result.rho_root:
        raise ValueError(f"delta = {delta!r} is too small to move rho: (1 + delta) * "
                         f"{result.rho_root!r} rounds back to the stated rho; raise delta")
    vals = _functional_value(problem, _A_GRID, rho)
    above = np.nonzero(vals > 1.0)[0]
    if above.size:
        i = int(above[0])
        return Witness(float(_A_GRID[i]), float(vals[i]), rho, problem, result.radius)
    raise WitnessNotFoundError(
        f"no witness up to a = {float(_A_GRID[-1])!r} for {problem.kind.value} at rho = {rho!r} "
        f"(grid sup = {float(np.max(vals))!r})")


def verify_radius(problem: RadiusProblem, a_grid: int, rho_grid: int,
                  inflate: float) -> Verification:
    """Check the stated radius r on an a_grid x rho_grid grid.

    a runs over linspace(0, 1, a_grid, endpoint=False), rho over
    linspace(0, rho_max, rho_grid) with rho_max = n (r (1 + inflate))^m.
    There the family must stay <= 1 and the majorant (rho clamped to the
    kind's search cap) must dominate it at every point; inflate > 0 is the
    negative control.  A grid point on the tail's pole a rho = 1, which only
    a large inflate reaches, raises ValueError.

    The grid is swept in blocks of whole rho-rows of at most _VERIFY_BLOCK
    points, one mapped majorant pass and one set of reductions per block;
    the majorant, scalar code with no numpy, is still called once per grid
    point, as the benchmark's self-check counts the calls (ROADMAP item 2
    deletes them).  Each field keeps the per-point loop's bits, and so do the
    violations' order and the first error: nan rows and margins are skipped.
    """
    a_grid = _check_count("a_grid", a_grid, 10)
    rho_grid = _check_count("rho_grid", rho_grid, 10)
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
    majorant = majorant_functional  # the module global, read once per call
    step = max(1, _VERIFY_BLOCK // a_grid)
    max_value = 0.0
    below_violations = []
    dominance_violations = []
    min_margin = float("inf")
    # a huge inflate overflows the rows far past the pole to inf or nan, and a
    # pole row divides by zero before its check raises: no warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, rho_grid, step):
            block = rhos[start:start + step]
            vals = _functional_value(problem, avals, block[:, None])
            # a < 1 and rho rises along the grid, so only rows with rho > 1 can
            # reach the pole; the first of them raises, as it did row by row
            if block[-1] > 1.0:
                pole = np.flatnonzero((block[:, None] * avals == 1.0).any(axis=1))
                if pole.size:
                    raise ValueError(f"the verify grid reaches a * rho = 1 at rho = "
                                     f"{float(block[pole[0]])!r}, the pole of the family's "
                                     f"tail; lower inflate")
            # fmax and fmin skip nan, so a nan row or margin leaves the rest to count
            max_value = float(np.fmax.reduce(np.max(vals, axis=1), initial=max_value))
            vals = vals.ravel()  # row-major, so point k is (row k // a_grid, a_list[k % a_grid])
            for k in np.flatnonzero(vals > 1.0 + 1e-12).tolist():
                row, i = divmod(k, a_grid)
                below_violations.append([a_list[i], float(block[row]), float(vals[k])])
            clamped = np.minimum(block, cap)
            fam = _functional_value(problem, avals, clamped[:, None]).ravel() \
                if (block > cap).any() else vals
            rr = clamped.tolist()
            margins = np.fromiter(map(majorant, repeat(problem, vals.size), a_list * block.size,
                                      chain.from_iterable(map(repeat, rr, repeat(a_grid)))),
                                  float, vals.size) - fam
            min_margin = float(np.fmin.reduce(margins, initial=min_margin))
            for k in np.flatnonzero(margins < -1e-12).tolist():
                row, i = divmod(k, a_grid)
                dominance_violations.append([a_list[i], rr[row], float(margins[k])])
    return Verification(radius, rho_max, max_value, min_margin,
                        below_violations, dominance_violations)


def empirical_radius(problem: RadiusProblem) -> float:
    """Radius recovered by bisecting the sup-over-a crossing of 1.

    Bisects rho from 0 (where the family is at most a <= 1 - 2^-30) to the
    kind's search cap until the bracket is narrower than 1e-7 of its upper
    end, testing sup_a(functional) > 1 + 1e-12 on an a-grid of 512 uniform
    points plus the log tail; returns r = (rho/n)^(1/m).  This measures the
    witness family's threshold, the root of the convex quadratic or of the
    weighted DERIV / SQ_DERIV quartic, from lam = 1e300 (521 steps) down to
    where the family's excess over 1 at the search cap falls below
    CROSSING_TOL, near float resolution.  There it raises "threshold not
    bracketed", though radius_for still solves the root, correctly rounded
    with an exact two-float bracket: DERIV from lam = 1e-6 down (excess
    9.9e-13 there) and SQ_DERIV from lam = 1e-12 down (excess 2.4e-13).  A
    deeper a-grid tail does not help; an exact sign test would.
    """
    def crosses(rho: float) -> bool:
        return float(np.max(_functional_value(problem, _A_GRID, rho))) > 1.0 + CROSSING_TOL

    kind = problem.kind
    lo, hi = 0.0, kind.search_cap
    if not crosses(hi):
        raise ValueError(f"threshold not bracketed: no crossing up to rho = {hi!r} "
                         f"for {kind.value} with weight {problem.weight!r}")
    while hi - lo > _RHO_TOL * hi:
        mid = 0.5 * (lo + hi)
        if crosses(mid):
            hi = mid
        else:
            lo = mid
    return _geometric_radius(0.5 * (lo + hi), problem.n, problem.m)
