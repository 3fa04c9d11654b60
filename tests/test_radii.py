"""Radius tests: closed forms, float starts, root brackets, per-kind specs, branch
structure, identities."""

import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest

from polybohr import FunctionalKind, RadiusProblem, RhoPolynomial, radius_for
from polybohr import radii
from polybohr.radii import _certify, _newton
from _reference import reference_bisect

CONVEX, DERIV, SQ_DERIV = (FunctionalKind.CONVEX, FunctionalKind.DERIV,
                           FunctionalKind.SQ_DERIV)

# the paper's weight-free quartics, ascending coefficients
PAPER_DERIV_COEFFS = (-1.0, 3.0, 0.0, 1.0, 1.0)  # rho^4 + rho^3 + 3 rho - 1
PAPER_SQ_DERIV_COEFFS = (-1.0, 2.0, 1.0, 1.0, 1.0)  # rho^4 + rho^3 + rho^2 + 2 rho - 1


def closed_form(t):
    """The rationalized closed form of the CONVEX root, 1 / (1 + 2 sqrt(1-t))."""
    return 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - t))


def branch_form(t):
    """The two-branch closed form: (1 - 2 sqrt(1-t))/(4t - 3), linear at 3/4."""
    if t == 0.75:
        return 0.5
    return (1.0 - 2.0 * math.sqrt(1.0 - t)) / (4.0 * t - 3.0)


# -- closed form -------------------------------------------------------------------

def test_closed_form_matches_branch_form():
    for t in np.linspace(0.0, 1.0, 101):
        t = float(t)
        if abs(t - 0.75) < 1e-9:
            continue
        assert abs(closed_form(t) - branch_form(t)) < 1e-12
        rho = radius_for(RadiusProblem(CONVEX, 1, 1, t=t)).rho_root
        assert abs(rho - branch_form(t)) < 1e-12


def test_closed_form_special_points():
    assert closed_form(0.0) == pytest.approx(1 / 3, abs=1e-15)
    assert closed_form(0.75) == 0.5  # exact in floating point
    assert closed_form(1.0) == 1.0
    for t in (0.0, 0.75, 1.0):
        assert radius_for(RadiusProblem(CONVEX, 1, 1, t=t)).rho_root == closed_form(t)


def test_closed_form_stable_near_degenerate_weight():
    # the rationalized form stays smooth through t = 3/4
    for dt in (1e-12, 1e-9, 1e-6):
        for t in (0.75 - dt, 0.75 + dt):
            assert abs(closed_form(t) - 0.5) < 4 * dt
            assert abs(radius_for(RadiusProblem(CONVEX, 1, 1, t=t)).rho_root - 0.5) < 4 * dt


# -- convex radius ------------------------------------------------------------------

def test_radius_convex_basics():
    res = radius_for(RadiusProblem(CONVEX, 1, 1, t=0.0))
    assert abs(res.radius - 1 / 3) <= 1e-12
    assert res.residual <= 1e-12
    assert res.branch == "convex-rho-quadratic"
    assert radius_for(RadiusProblem(CONVEX, 1, 1, t=0.75)).radius == 0.5
    assert radius_for(RadiusProblem(CONVEX, 1, 1, t=1.0)).radius == 1.0


def test_radius_convex_random_configs_match_closed_form():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        t = float(rng.uniform(0.0, 1.0))
        res = radius_for(RadiusProblem(CONVEX, n, m, t=t))
        rho = closed_form(t)
        assert abs(res.rho_root - rho) <= 1e-10
        assert abs(res.radius - (rho / n) ** (1.0 / m)) <= 1e-10
        assert res.bracket[1] - res.bracket[0] <= 1e-14
        assert res.residual <= 1e-12
        assert 0.0 < res.rho_root <= 1.0


def test_radius_convex_rejects_bad_weight():
    with pytest.raises(ValueError):
        radius_for(RadiusProblem(CONVEX, 1, 1, t=-0.1))
    with pytest.raises(ValueError):
        radius_for(RadiusProblem(CONVEX, 1, 1, t=1.5))
    with pytest.raises(ValueError):
        radius_for(RadiusProblem(CONVEX, 0, 1, t=0.5))
    # bool is a numbers.Integral, but not a count
    with pytest.raises(ValueError):
        RadiusProblem(DERIV, True, 1, lam=1.0)
    with pytest.raises(ValueError):
        RadiusProblem(DERIV, 1, True, lam=1.0)


# -- deriv radius --------------------------------------------------------------------

def test_radius_deriv_small_weight_root():
    res = radius_for(RadiusProblem(DERIV, 1, 1, lam=0.5))
    oracle = reference_bisect(lambda p: p ** 4 + p ** 3 + 3 * p - 1, 0.0, DERIV.rho_cap)
    assert abs(res.rho_root - oracle) <= 1e-12
    assert res.branch == "deriv-rho-quartic"
    assert DERIV.polynomial(0.5)(res.rho_root) == pytest.approx(0.0, abs=1e-12)


def test_radius_deriv_weighted_roots_match_reference():
    for lam in (0.6, 0.75, 1.0, 2.0, 10.0):
        res = radius_for(RadiusProblem(DERIV, 1, 1, lam=lam))
        f = lambda p: 2 * lam * p ** 4 + (4 * lam - 1) * p ** 3 + (2 * lam - 1) * p ** 2 + 3 * p - 1
        oracle = reference_bisect(f, 0.0, DERIV.rho_cap)
        assert abs(res.rho_root - oracle) <= 1e-12
        assert res.branch == "deriv-rho-quartic"
        assert 0.0 < res.rho_root < DERIV.rho_cap


def test_radius_deriv_weight_one_factorization():
    # 2L rho^4 + ... at L = 1 factors as (2 rho^2 + 3 rho - 1)(rho^2 + 1),
    # so the root is (sqrt(17) - 3)/4
    for p in np.linspace(0.0, 0.5, 26):
        lhs = DERIV.polynomial(1.0)(float(p))
        rhs = (2 * p * p + 3 * p - 1) * (p * p + 1)
        assert abs(lhs - rhs) < 1e-15
    root = radius_for(RadiusProblem(DERIV, 1, 1, lam=1.0)).rho_root
    assert abs(root - (math.sqrt(17) - 3) / 4) <= 1e-12


def test_radius_deriv_branch_continuity():
    # at 1/2 the weighted quartic is the paper's weight-free one, coefficient
    # by coefficient
    assert DERIV.polynomial(0.5).coefficients == PAPER_DERIV_COEFFS
    below = radius_for(RadiusProblem(DERIV, 2, 2, lam=0.5)).radius
    above = radius_for(RadiusProblem(DERIV, 2, 2, lam=0.5 + 1e-13)).radius
    assert abs(below - above) <= 1e-12


def test_radius_deriv_small_weight_root_depends_on_weight():
    # the weighted quartic at lam = 0.1 factors as
    # 0.2 (rho^2 - 3 rho + 1)(rho^2 - 5), so its root is (3 - sqrt(5))/2
    root = radius_for(RadiusProblem(DERIV, 1, 1, lam=0.1)).rho_root
    assert abs(root - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-12
    assert root != radius_for(RadiusProblem(DERIV, 1, 1, lam=0.5)).rho_root


def test_radius_deriv_endpoint_value():
    # weight-free quartic (lam = 1/2) at sqrt(2)-1 is exactly 6 - 4 sqrt(2)
    val = DERIV.polynomial(0.5)(DERIV.rho_cap)
    assert abs(val - (6.0 - 4.0 * math.sqrt(2.0))) < 1e-14
    assert val > 0


# -- sq-deriv radius ------------------------------------------------------------------

def test_radius_sq_deriv_small_weight_root():
    res = radius_for(RadiusProblem(SQ_DERIV, 1, 1, lam=1.0))
    oracle = reference_bisect(lambda p: p ** 4 + p ** 3 + p * p + 2 * p - 1,
                              0.0, SQ_DERIV.rho_cap)
    assert abs(res.rho_root - oracle) <= 1e-12
    assert abs(res.rho_root - 0.3856) < 5e-4
    assert res.branch == "sq-deriv-rho-quartic"


def test_radius_sq_deriv_weighted_roots_match_reference():
    for lam in (1.5, 2.0, 10.0):
        res = radius_for(RadiusProblem(SQ_DERIV, 1, 1, lam=lam))
        f = lambda p: lam * p ** 4 + (2 * lam - 1) * p ** 3 + lam * p * p + 2 * p - 1
        oracle = reference_bisect(f, 0.0, SQ_DERIV.rho_cap)
        assert abs(res.rho_root - oracle) <= 1e-12
        assert 0.0 < res.rho_root < SQ_DERIV.rho_cap


def test_radius_sq_deriv_branch_continuity():
    assert SQ_DERIV.polynomial(1.0).coefficients == PAPER_SQ_DERIV_COEFFS
    below = radius_for(RadiusProblem(SQ_DERIV, 3, 2, lam=1.0)).radius
    above = radius_for(RadiusProblem(SQ_DERIV, 3, 2, lam=1.0 + 1e-13)).radius
    assert abs(below - above) <= 1e-12


def test_sq_deriv_endpoint_identities():
    # weighted quartic at (sqrt(5)-1)/2 equals the weight; the weight-free
    # one (lam = 1) equals 1
    g = SQ_DERIV.rho_cap
    for lam in (0.25, 1.0, 2.0, 7.5):
        assert abs(SQ_DERIV.polynomial(lam)(g) - lam) < 1e-13
    assert abs(SQ_DERIV.polynomial(1.0)(g) - 1.0) < 1e-14


# -- monotonicity -----------------------------------------------------------------------

def test_radius_monotone_in_n():
    for build in (lambda n: radius_for(RadiusProblem(CONVEX, n, 2, t=0.4)),
                  lambda n: radius_for(RadiusProblem(DERIV, n, 2, lam=1.5)),
                  lambda n: radius_for(RadiusProblem(SQ_DERIV, n, 2, lam=2.0))):
        vals = [build(n).radius for n in range(1, 9)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_radius_monotone_in_m():
    # rho/n < 1 throughout, so the m-th root grows strictly with m
    for build in (lambda m: radius_for(RadiusProblem(CONVEX, 2, m, t=0.4)),
                  lambda m: radius_for(RadiusProblem(DERIV, 2, m, lam=1.5)),
                  lambda m: radius_for(RadiusProblem(SQ_DERIV, 2, m, lam=2.0))):
        vals = [build(m).radius for m in range(1, 7)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


# -- solver ------------------------------------------------------------------------------

def test_convex_start_is_the_closed_form_bit_for_bit(monkeypatch):
    # the float stage's start, the stable root -2 c0 / (c1 - sqrt(c1^2 - 4 c0 c2))
    # of the float coefficients (1, -2, 4t - 3), is the float the exact stage
    # starts from.  It is 1 / (1 + sqrt(1 - (4t - 3))) in floats, and
    # 1 - fl(4t - 3) = fl(4 - 4t) = 4 fl(1 - t): 4t - 3 is exact from t = 1/4
    # up, and below it both sides round 4 - 4t to the grid of [2, 4]
    starts = []

    def capture(coefficients, x, cap):
        starts.append(x)
        return x, (x, x)

    monkeypatch.setattr(radii, "_certify", capture)
    rng = random.Random(39)
    ts = [rng.random() for _ in range(200_000)]
    ts += [0.0, 0.75, 1.0, 5e-324, 1.0 - 2.0 ** -53]
    for t in ts:
        radius_for(RadiusProblem(CONVEX, 1, 1, t=t))
    assert len(starts) == len(ts)
    bad = [t for t, x in zip(ts, starts) if x.hex() != closed_form(t).hex()]
    assert not bad, bad[:5]


@pytest.mark.parametrize("kind", [DERIV, SQ_DERIV], ids=["deriv", "sq_deriv"])
def test_quartic_start_is_near_the_root(kind, monkeypatch):
    # the float coefficients are finite for every lam in [1e-300, 1e300]; the
    # start is within 20% of the certified root there, within 1% from 1e4 up
    # (at most 19.1%, SQ_DERIV as lam -> 0, and 0.97% from 1e4 up)
    starts = []
    newton = radii._newton

    def capture(poly, lo, hi, x):
        starts.append(x)
        return newton(poly, lo, hi, x)

    monkeypatch.setattr(radii, "_newton", capture)
    rng = random.Random(20)
    lams = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2000)]
    lams += [float(f"1e{e}") for e in range(-300, 301)]
    for lam in lams:
        assert all(map(math.isfinite, kind.polynomial(lam).coefficients))
        root = radius_for(RadiusProblem(kind, 1, 1, lam=lam)).rho_root
        error = abs(starts[-1] - root) / root
        assert error <= (0.01 if lam >= 1e4 else 0.2), lam
    assert len(starts) == len(lams)

def test_solver_requires_sign_change():
    poly = CONVEX.polynomial(0.0)
    with pytest.raises(ValueError):
        _newton(poly, 0.0, 0.1, 0.05)  # both ends positive
    with pytest.raises(ValueError):
        _newton(poly, 0.5, 0.5, 0.5)  # empty bracket


def test_solver_hits_interior_root():
    poly = CONVEX.polynomial(0.0)
    x = _newton(poly, 0.0, 1.0, 0.9)
    assert abs(x - 1 / 3) <= 1e-15
    root, (lo, hi) = _certify(CONVEX.coefficients(0, 1), x, 1.0)
    assert root == 1 / 3  # 0.3333333333333333 is the float nearest 1/3
    assert (lo, hi) == (root, math.nextafter(root, 1.0))
    assert poly(root) == 0.0  # a zero float value; the exact stage did not trust it


def test_solver_endpoint_roots():
    # weight 1 quadratic vanishes at rho = 1 (its double root)
    poly = CONVEX.polynomial(1.0)
    assert _newton(poly, 0.0, 1.0, 0.5) == 1.0
    assert _certify(CONVEX.coefficients(1, 1), 1.0, 1.0) == (1.0, (1.0, 1.0))
    # degenerate linear case: root exactly 1/2
    res = radius_for(RadiusProblem(CONVEX, 3, 1, t=0.75))
    assert res.rho_root == 0.5
    assert res.bracket == (0.5, 0.5)
    assert res.residual == 0.0


def test_newton_refuses_an_overflowed_polynomial():
    poly = DERIV.polynomial(1e308)  # 2 lam and 4 lam - 1 overflow to inf
    with pytest.raises(OverflowError, match="deriv-rho-quartic overflows a float"):
        _newton(poly, 0.0, DERIV.rho_cap, 0.1)


def test_certificate_walks_from_a_far_start_and_across_binades():
    # from either end of the interval, the walk doubles its step in ULPs and
    # the bisection on bit patterns crosses every binade in between
    for kind, w in ((DERIV, 1.0), (SQ_DERIV, 2.0), (CONVEX, 0.3)):
        coeffs = kind.coefficients(*w.as_integer_ratio())
        res = radius_for(RadiusProblem(kind, 1, 1, **{kind.weight: w}))
        for start in (5e-324, 1e-200, 0.01, kind.rho_cap):
            assert _certify(coeffs, start, kind.rho_cap) == (res.rho_root, res.bracket)


def test_certificate_refuses_a_walk_with_no_sign_change():
    # 1 + rho is positive up to the cap: the walk stops there instead of
    # stepping past it
    with pytest.raises(ArithmeticError, match="no exact sign change between 0.5 and 1.0"):
        _certify((1, 1), 0.5, 1.0)


def test_bracket_across_a_binade_edge():
    # t just below 3/4 puts the root just below 1/2, where the float spacing
    # halves: the bracket's ends lie in different binades, and the midpoint
    # rule still picks the nearer float
    below = math.nextafter(0.5, 0.0)
    t = math.nextafter(0.75, 0.0)
    res = radius_for(RadiusProblem(CONVEX, 1, 1, t=t))
    assert res.bracket == (below, 0.5)
    # 1 - t = 1/4 + 2^-53, so rho = 1 / (2 + 2^-52 - O(2^-105)) = 1/2 - 2^-54
    # + O(2^-106), just above the float below 1/2 (which is 1/2 - 2^-54)
    assert res.rho_root == below


# the float coefficients spelled out per kind: the reference kind.polynomial must
# reproduce bit for bit, inf coefficients included
FLOAT_COEFFICIENTS = {
    CONVEX: lambda t: (1.0, -2.0, 4.0 * t - 3.0),
    DERIV: lambda lam: (-1.0, 3.0, 2.0 * lam - 1.0, 4.0 * lam - 1.0, 2.0 * lam),
    SQ_DERIV: lambda lam: (-1.0, 2.0, lam, 2.0 * lam - 1.0, lam),
}
# subnormal, tiny and huge weights; from about 4.5e307 up 4 lam - 1 is inf,
# and from about 9e307 up 2 lam is inf as well
LAM_EDGES = (5e-324, 1e-300, 1e-16, 0.5, 1.0, 4.5e307, 8.9e307, 1.797e308,
             sys.float_info.max)
T_EDGES = (0.0, 5e-324, 1e-300, 0.5, 0.75, math.nextafter(0.75, 0.0), 1.0)


@pytest.mark.parametrize("kind", [CONVEX, DERIV, SQ_DERIV], ids=["convex", "deriv", "sq_deriv"])
def test_float_coefficients_are_pinned(kind):
    rng = np.random.default_rng(2024)
    if kind is CONVEX:
        weights = [*rng.uniform(0.0, 1.0, 2000).tolist(),
                   *(10.0 ** rng.uniform(-300.0, 0.0, 500)).tolist(), *T_EDGES]
    else:
        weights = [*(10.0 ** rng.uniform(-300.0, 308.0, 2000)).tolist(), *LAM_EDGES]
        assert math.inf in kind.polynomial(sys.float_info.max).coefficients
    for w in weights:
        got = kind.polynomial(w).coefficients
        want = FLOAT_COEFFICIENTS[kind](w)
        assert [c.hex() for c in got] == [c.hex() for c in want], w


def test_rho_polynomial_validation_and_derivative():
    with pytest.raises(ValueError):
        RhoPolynomial((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), "convex-rho-quadratic")
    with pytest.raises(ValueError):
        RhoPolynomial((), "convex-rho-quadratic")
    p = RhoPolynomial((1.0, -2.0, 3.0), "convex-rho-quadratic")
    assert p(0.5) == 1.0 - 1.0 + 0.75
    assert p.derivative_at(0.5) == -2.0 + 3.0


# -- problem plumbing -----------------------------------------------------------------------

def test_radius_problem_validation():
    with pytest.raises(ValueError):
        RadiusProblem(FunctionalKind.CONVEX, 1, 1)  # missing t
    with pytest.raises(ValueError):
        RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.5, lam=1.0)
    with pytest.raises(ValueError):
        RadiusProblem(FunctionalKind.DERIV, 1, 1, t=0.5)
    with pytest.raises(ValueError):
        RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.0)
    assert RadiusProblem(FunctionalKind.CONVEX, 2, 3, t=0.5).weight == 0.5
    assert RadiusProblem(FunctionalKind.SQ_DERIV, 2, 3, lam=2.0).weight == 2.0


@pytest.mark.parametrize("kind", [FunctionalKind.DERIV, FunctionalKind.SQ_DERIV])
@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_radius_problem_rejects_non_finite_lam(kind, lam):
    with pytest.raises(ValueError):
        RadiusProblem(kind, 1, 1, lam=lam)


@pytest.mark.parametrize("kind, value, weight, cap, search_cap, label", [
    (CONVEX, "convex", "t", 1.0, 1.0 - 1e-9, "convex-rho-quadratic"),
    (DERIV, "deriv", "lam", math.sqrt(2.0) - 1.0, math.sqrt(2.0) - 1.0,
     "deriv-rho-quartic"),
    (SQ_DERIV, "sq_deriv", "lam", (math.sqrt(5.0) - 1.0) / 2.0,
     (math.sqrt(5.0) - 1.0) / 2.0, "sq-deriv-rho-quartic"),
], ids=["convex", "deriv", "sq_deriv"])
def test_each_kind_carries_its_spec(kind, value, weight, cap, search_cap, label):
    assert kind.value == value
    assert repr(kind) == f"<FunctionalKind.{kind.name}: {value!r}>"
    assert kind.weight == weight
    assert kind.rho_cap == cap
    assert kind.search_cap == search_cap
    assert kind.label == label
    assert kind.polynomial(0.5).label == label
    # the spec is read-only: a reassigned cap would break every later solve
    for attr in ("weight", "check", "coefficients", "label", "polynomial", "rho_cap",
                 "search_cap"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(kind, attr, 0.2)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(kind, attr)
    assert kind.rho_cap == cap
    assert radius_for(RadiusProblem(kind, 1, 1, **{weight: 0.5})).branch == label
    assert FunctionalKind(value) is kind
    assert pickle.loads(pickle.dumps(kind)) is kind
    assert copy.deepcopy(kind) is kind
    assert list(FunctionalKind) == [CONVEX, DERIV, SQ_DERIV]


def test_radius_for_dispatch():
    # each kind solves its own polynomial, rescaled as r = (rho / n)^(1/m)
    for problem, poly in ((RadiusProblem(CONVEX, 2, 2, t=0.3), CONVEX.polynomial(0.3)),
                          (RadiusProblem(DERIV, 2, 2, lam=1.0), DERIV.polynomial(1.0)),
                          (RadiusProblem(SQ_DERIV, 2, 2, lam=2.0),
                           SQ_DERIV.polynomial(2.0))):
        res = radius_for(problem)
        assert res.branch == poly.label
        assert abs(poly(res.rho_root)) <= 1e-12
        assert res.radius == (res.rho_root / 2) ** 0.5


def test_univariate_specializations():
    # n = m = 1 reproduces the classical one-variable values
    assert abs(radius_for(RadiusProblem(CONVEX, 1, 1, t=0.0)).radius - 1 / 3) <= 1e-12
    assert radius_for(RadiusProblem(CONVEX, 1, 1, t=0.75)).radius == 0.5
    assert abs(radius_for(RadiusProblem(DERIV, 1, 1, lam=0.5)).radius - 0.3191) < 5e-4
    r = radius_for(RadiusProblem(DERIV, 1, 1, lam=1.0)).radius
    assert abs(r - (math.sqrt(17) - 3) / 4) <= 1e-12
