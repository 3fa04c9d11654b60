"""Symbolic proofs of the majorant algebra the stated radii rest on.

The closed forms below are copied from the docstrings of extremal (the
witness family F, and the majorant M as the upper-bound chain states it,
which is F with tail ratio 1; majorant_functional spells it out on its own)
and radii (the factors K, G and H, the radius polynomials); the sign
polynomials W of F - 1 are derived alongside.  sympy proves each identity as
rational functions and each sign claim from the assumptions of the domain.
The library's own code, the family's closed form extremal._functional_value
and majorant_functional with its checks, is evaluated on the symbols too and
must equal the copies exactly; it is handed a stand-in functional, since
Functional's weight checks reject symbols.  Float spot checks tie the copies
to the public entry points.  The one-variable thresholds the paper
generalizes, the phi / psi monotonicity and the caps it sets are proved here
as well, and so are the coefficients the root solver's float stage and its
certificate evaluate, the float stage's start in each kind's interval, and
bounds' growth and derivative bounds, sharp on the Mobius map at every order.
sympy is imported, not skipped when missing: this file is the only place
these facts are checked.
"""

from types import SimpleNamespace

import pytest
import sympy as sp

from polybohr import (Functional, FunctionalKind, extremal_functional,
                      majorant_functional)
from polybohr.extremal import _functional_value

a, a0, rho, t, lam = sp.symbols("a a0 rho t lam")


def _first(x):
    return (rho + x) / (1 + x * rho)


def family(kind, x=a, ratio=None):
    """F, the witness family's value at parameter x.

    The coefficients of degree k >= 1 have modulus (1 - x^2) x^(k-1), so each
    geometric tail has ratio x rho; ratio replaces that x.
    """
    q = x if ratio is None else ratio
    if kind == "convex":
        return t * _first(x) + (1 - t) * (x + (1 - x**2) * rho / (1 - q * rho))
    head = _first(x) if kind == "deriv" else _first(x) ** 2
    return head + (1 - x**2) * rho / (1 + x * rho) ** 2 \
        + lam * (1 - x**2) * q * rho**2 / (1 - q * rho)


def majorant(kind, x=a0):
    """M, the majorant for any self-map with |f(0)| = x."""
    if kind == "convex":
        return t * _first(x) + (1 - t) * (x + (1 - x**2) * rho / (1 - rho))
    head = _first(x) if kind == "deriv" else _first(x) ** 2
    return head + rho * (1 - x**2) / (1 + x * rho) ** 2 \
        + lam * (1 - x**2) * rho**2 / (1 - rho)


def is_zero(expr):
    return sp.cancel(sp.together(expr)) == 0


# 0 <= a < 1, a0 >= 0, 0 <= rho < 1, t <= 1 and lam > 0 are the images of
# nonnegative A, B, R, S and a positive L; sympy then decides a sign claim
# from these assumptions alone, for every admissible weight at once
_A, _B, _R, _S = sp.symbols("A B R S", nonnegative=True)
_L = sp.Symbol("L", positive=True)
DOMAIN = {a: _A / (1 + _A), a0: _B, rho: _R / (1 + _R), t: 1 - _S, lam: _L}


def on_domain(expr):
    return sp.factor(sp.together(expr.subs(DOMAIN)))


@pytest.mark.parametrize("kind", ["convex", "deriv", "sq_deriv"])
def test_majorant_is_the_family_with_tail_ratio_one(kind):
    # majorant_functional evaluates the family's closed form with ratio 1
    assert is_zero(family(kind, a0, ratio=1) - majorant(kind))


# rho's share of its domain (0, 1) in each kind: every one is below the
# kind's cap, so sympy decides majorant_functional's checks from _B and _R
RHO_SHARE = {"convex": sp.Integer(1), "deriv": sp.Rational(2, 5),
             "sq_deriv": sp.Rational(3, 5)}


@pytest.mark.parametrize("kind", ["convex", "deriv", "sq_deriv"])
def test_library_closed_form_is_the_stated_family_and_majorant(kind):
    # the code that runs, on symbols: nsimplify makes its float literals
    # (all of them 1.0) exact, so a change in the code fails here.  The
    # majorant runs its checks too, on a0 = B / (1 + B) in [0, 1) and
    # rho = s R / (1 + R) in [0, s)
    ns = SimpleNamespace(kind=FunctionalKind(kind), t=t, lam=lam)
    assert is_zero(sp.nsimplify(_functional_value(ns, a, rho)) - family(kind))
    point = {a0: _B / (1 + _B), rho: RHO_SHARE[kind] * _R / (1 + _R)}
    value = majorant_functional(ns, point[a0], point[rho])
    assert is_zero(sp.nsimplify(value) - majorant(kind).subs(point))


# the radius polynomials, from the radii docstrings
CONVEX_QUADRATIC = (4 * t - 3) * rho**2 - 2 * rho + 1
DERIV_QUARTIC = 2 * lam * rho**4 + (4 * lam - 1) * rho**3 + (2 * lam - 1) * rho**2 \
    + 3 * rho - 1
SQ_DERIV_QUARTIC = lam * rho**4 + (2 * lam - 1) * rho**3 + lam * rho**2 + 2 * rho - 1


POINTS = [(0.0, 0.1, 0.3), (0.5, 0.2, 0.7), (0.9, 0.35, 1.0)]  # (a, rho, weight)


@pytest.mark.parametrize("kind", ["convex", "deriv", "sq_deriv"])
def test_majorant_minus_family_is_the_dominance_margin(kind):
    # M - F >= 0 on the domain, so the dominance half of verify is an identity:
    # every factor of the margin is >= 0 there, and each denominator > 0
    sym, name, w = (t, "t", 1 - t) if kind == "convex" else (lam, "lam", lam)
    top = [w, (1 - a) ** 2, 1 + a, rho**2]
    bottom = [1 - rho, 1 - a * rho]
    assert is_zero(majorant(kind, a) - family(kind) - sp.Mul(*top) / sp.Mul(*bottom))
    assert all(on_domain(f).is_nonnegative for f in top)
    assert all(on_domain(f).is_positive for f in bottom)
    m_num = sp.lambdify((a, rho, sym), majorant(kind, a))
    f_num = sp.lambdify((a, rho, sym), family(kind))
    for x, r, v in POINTS:
        func = Functional(FunctionalKind(kind), **{name: v})
        assert majorant_functional(func, x, r) == pytest.approx(m_num(x, r, v), rel=1e-13)
        assert extremal_functional(func, x, r) == pytest.approx(f_num(x, r, v), rel=1e-13)


def test_convex_majorant_factors_through_the_quadratic():
    k = (t - 1) * rho**2 * a0**2 + 2 * (t - 1) * rho**2 * a0 + t * rho**2 \
        - 2 * rho + 1
    assert is_zero(majorant("convex") - 1
                   + (1 - a0) * k / ((1 - rho) * (1 + a0 * rho)))
    assert sp.expand(k.subs(a0, 1) - CONVEX_QUADRATIC) == 0
    # K decreases in a0, so its minimum over a0 in [0, 1] is the quadratic
    assert sp.expand(sp.diff(k, a0) + 2 * (1 - t) * rho**2 * (1 + a0)) == 0
    for v in (0.0, 0.75, 0.9):  # at 3/4 the leading coefficient is 0
        coeffs = [CONVEX_QUADRATIC.subs(t, v).coeff(rho, i) for i in range(3)]
        assert FunctionalKind.CONVEX.polynomial(v).coefficients == \
            pytest.approx([float(c) for c in coeffs], rel=1e-15)


# the a0-slope of G and the factor H, from the radii docstring
G_SLOPE = rho**2 * (3 * lam * rho**2 * a0**2 + 2 * lam * rho**2 * a0
                    + 4 * lam * rho * a0 + 2 * lam * rho + lam + 1 - rho)
H_FACTOR = lam * rho**4 * a0**2 + 2 * lam * rho**3 * a0 + lam * rho**2 - rho**3 \
    + 2 * rho - 1


def test_deriv_majorant_factors_through_the_weighted_quartic():
    g = sp.cancel((majorant("deriv") - 1) * (1 - rho) * (1 + a0 * rho) ** 2 / (1 - a0))
    assert sp.denom(sp.together(g)) == 1  # G is a polynomial
    assert sp.expand(g.subs(a0, 1) - DERIV_QUARTIC) == 0
    assert sp.expand(sp.diff(g, a0) - G_SLOPE) == 0
    for v in (0.02, 0.5, 3.0):
        coeffs = sp.Poly(DERIV_QUARTIC.subs(lam, v), rho).all_coeffs()[::-1]
        assert FunctionalKind.DERIV.polynomial(v).coefficients == \
            pytest.approx([float(c) for c in coeffs], rel=1e-15)


def test_sq_deriv_majorant_factors_through_the_weighted_quartic():
    assert is_zero(majorant("sq_deriv") - 1
                   - (1 - a0**2) * H_FACTOR / ((1 - rho) * (1 + a0 * rho) ** 2))
    assert sp.expand(H_FACTOR.subs(a0, 1) - SQ_DERIV_QUARTIC) == 0
    for v in (0.02, 0.5, 3.0):
        coeffs = sp.Poly(SQ_DERIV_QUARTIC.subs(lam, v), rho).all_coeffs()[::-1]
        assert FunctionalKind.SQ_DERIV.polynomial(v).coefficients == \
            pytest.approx([float(c) for c in coeffs], rel=1e-15)


WITNESS_QUARTIC = lam * rho**4 * a**4 + (lam * rho**4 + 2 * lam * rho**3) * a**3 \
    + ((2 * lam - 1) * rho**3 + lam * rho**2) * a**2 \
    + ((lam - 1) * rho**2 + rho) * a + 2 * rho - 1

# F - 1 = (1 - a) W / D with D > 0; W at a = 1 is the radius polynomial up
# to a constant factor, so the sign of W decides a witness exactly
SIGN_FACTORS = {
    "convex": (2 * (1 - t) * a**2 * rho**2 + (1 - 2 * t) * a * rho**2 + a * rho + rho - 1,
               (1 - a * rho) * (1 + a * rho), -CONVEX_QUADRATIC),
    "deriv": (WITNESS_QUARTIC, (1 - a * rho) * (1 + a * rho) ** 2, DERIV_QUARTIC),
    "sq_deriv": ((1 + a) * (lam * a**3 * rho**4 + 2 * lam * a**2 * rho**3
                            + lam * a * rho**2 - a * rho**3 - a * rho**2 + a * rho
                            + rho**2 + rho - 1),
                 (1 - a * rho) * (1 + a * rho) ** 2, 2 * SQ_DERIV_QUARTIC),
}


@pytest.mark.parametrize("kind", ["convex", "deriv", "sq_deriv"])
def test_family_factors_through_its_sign_polynomial(kind):
    w, d, at_one = SIGN_FACTORS[kind]
    assert is_zero(family(kind) - 1 - (1 - a) * w / d)
    assert on_domain(d).is_positive
    assert sp.expand(w.subs(a, 1) - at_one) == 0


PHI_PSI_WEIGHT = rho / (1 - rho**2)


def test_phi_psi_step():
    # A (1 - first^2) = second with A = rho / (1 - rho^2): the derivative
    # term is the phi / psi weight times the growth bound's deficit
    second = (1 - a**2) * rho / (1 + a * rho) ** 2
    assert is_zero(PHI_PSI_WEIGHT * (1 - _first(a) ** 2) - second)


# -- phi / psi monotonicity and the caps it sets -----------------------------------
x, w = sp.symbols("x w")
PHI = x + w * (1 - x**2)
PSI = x**2 + w * (1 - x**2)


def monotone_weight_bound(g):
    """The largest weight w >= 0 for which g is nondecreasing in x on [0, 1].

    g's slope in x is linear in x, so its least value on [0, 1] is at an end.
    At x = 0 it is >= 0 for every w; at x = 1 it decreases in w, so the bound
    is its root there, and past it g decreases near x = 1.
    """
    slope = sp.diff(g, x)
    assert sp.degree(slope, x) == 1
    assert slope.subs(x, 0) >= 0
    at_one = slope.subs(x, 1)
    assert sp.diff(at_one, w) < 0
    (root,) = sp.solve(at_one, w)
    return root


def test_phi_psi_nondecreasing_exactly_up_to_their_weights():
    # phi' = 1 - 2 w x and psi' = 2 x (1 - w)
    assert sp.expand(sp.diff(PHI, x) - (1 - 2 * w * x)) == 0
    assert sp.expand(sp.diff(PSI, x) - 2 * x * (1 - w)) == 0
    assert monotone_weight_bound(PHI) == sp.Rational(1, 2)
    assert monotone_weight_bound(PSI) == 1


def weight_cap(weight_bound):
    """The rho in [0, 1) where the phi / psi weight A(rho) reaches weight_bound."""
    (root,) = [r for r in sp.solve(PHI_PSI_WEIGHT - weight_bound, rho) if 0 <= r < 1]
    return root


def test_caps_are_where_phi_and_psi_stop_increasing():
    # A' = (rho^2 + 1) / (1 - rho^2)^2 > 0, so A <= bound exactly up to the
    # root; with test_phi_psi_step this derives each quartic kind's rho_cap
    slope = sp.diff(PHI_PSI_WEIGHT, rho)
    assert is_zero(slope - (rho**2 + 1) / (1 - rho**2) ** 2)
    assert on_domain(slope).is_positive
    assert PHI_PSI_WEIGHT.subs(rho, 0) == 0
    assert weight_cap(monotone_weight_bound(PHI)) == QUARTIC_SLOPES["deriv"][1] \
        == sp.sqrt(2) - 1
    assert weight_cap(monotone_weight_bound(PSI)) == QUARTIC_SLOPES["sq_deriv"][1] \
        == (sp.sqrt(5) - 1) / 2


# -- the one-variable thresholds the paper generalizes ------------------------------
# Without the derivative and weight terms and at n = m = 1, the witness value
# is a head, (rho + a)/(1 + a rho) or its square, plus the full tail
# (1 - a^2) rho / (1 - a rho).  Its F - 1 factors as (1 - a) W / D with D > 0.

HEAD_SIGN_FACTORS = {  # squared: (W, D)
    False: (a**2 * rho**2 + 2 * a * rho + 2 * rho - 1, (1 - a * rho) * (1 + a * rho)),
    True: ((1 + a) * (a**2 * rho**3 - a * rho**3 + 2 * a * rho**2 + a * rho + rho**2
                      + rho - 1),
           (1 - a * rho) * (1 + a * rho) ** 2),
}


def head_threshold(squared):
    """The exact rho up to which sup over a in [0, 1) of the head's value is
    <= 1, and beyond which it exceeds 1."""
    w_sign, d = HEAD_SIGN_FACTORS[squared]
    head = _first(a) ** 2 if squared else _first(a)
    assert is_zero(head + (1 - a**2) * rho / (1 - a * rho) - 1 - (1 - a) * w_sign / d)
    assert on_domain(d).is_positive
    if not squared:
        # W increases in a, so its sup is W(1, rho), which increases in rho
        assert sp.expand(sp.diff(w_sign, a) - 2 * rho * (a * rho + 1)) == 0
        assert on_domain(sp.diff(w_sign, a)).is_nonnegative
        end = sp.expand(w_sign.subs(a, 1))
        assert end == rho**2 + 4 * rho - 1
        assert on_domain(sp.diff(end, rho)).is_positive
        (root,) = [r for r in sp.solve(end, rho) if r >= 0]
        return root
    # W = (1 + a) V, and W's a-slope is negative at a = 0 for small rho, so
    # the linear head's argument does not carry over.  V is convex in a, so it
    # is at most its larger end value on [0, 1]
    v = sp.cancel(w_sign / (1 + a))
    assert sp.diff(w_sign, a).subs({a: 0, rho: 0}) == -1
    assert on_domain(sp.diff(v, a, 2)).is_nonnegative
    # V(1) = (3 rho - 1)(rho + 1) has the sign of rho - root for rho >= 0
    end = v.subs(a, 1)
    assert sp.expand(end - (3 * rho - 1) * (rho + 1)) == 0
    (root,) = [r for r in sp.solve(end, rho) if r >= 0]
    # V(0) = rho^2 + rho - 1 increases in rho and is < 0 at the root, so on
    # [0, root] both ends, and hence V, are <= 0; past it V(1) > 0
    v_zero = v.subs(a, 0)
    assert sp.expand(v_zero - (rho**2 + rho - 1)) == 0
    assert on_domain(sp.diff(v_zero, rho)).is_positive
    assert v_zero.subs(rho, root) < 0
    return root


def test_linear_head_threshold_is_sqrt5_minus_2():
    assert head_threshold(squared=False) == sp.sqrt(5) - 2


def test_squared_head_threshold_is_one_third():
    assert head_threshold(squared=True) == sp.Rational(1, 3)


# -- each radius polynomial has exactly one sign change on its interval ------------
# radii._certify walks to the sign change nearest its start, which is the root
# only if there is a single crossing: P is strictly monotone on [0, cap] for
# every admissible weight, and its end values have opposite signs (P(0) = 1
# for CONVEX, -1 for the quartics).

QUARTIC_SLOPES = {  # kind: (quartic, cap, lam part of P' / lam, free part, free root)
    "deriv": (DERIV_QUARTIC, sp.sqrt(2) - 1, 8 * rho**3 + 12 * rho**2 + 4 * rho,
              3 - 2 * rho - 3 * rho**2, (sp.sqrt(10) - 1) / 3),
    "sq_deriv": (SQ_DERIV_QUARTIC, (sp.sqrt(5) - 1) / 2, 4 * rho**3 + 6 * rho**2 + 2 * rho,
                 2 - 3 * rho**2, sp.sqrt(6) / 3),
}


@pytest.mark.parametrize("kind", ["deriv", "sq_deriv"])
def test_quartic_increases_on_its_interval(kind):
    quartic, cap, lam_part, free, free_root = QUARTIC_SLOPES[kind]
    assert sp.expand(sp.diff(quartic, rho) - (lam * lam_part + free)) == 0
    # the lam part is >= 0 for rho >= 0, since no coefficient is negative
    assert all(c >= 0 for c in sp.Poly(lam_part, rho).all_coeffs())
    # the free part is a downward parabola whose only positive root lies
    # beyond the cap, so it is > 0 on [0, cap], and P' > 0 there for lam > 0
    assert sp.LC(sp.Poly(free, rho)) < 0
    roots = sp.solve(free, rho)
    assert [r for r in roots if r > 0] == [free_root]
    assert all(r < 0 for r in roots if r != free_root)
    assert free_root > cap
    assert free.subs(rho, 0) > 0
    assert quartic.subs(rho, 0) == -1


def test_quartic_end_values_at_the_cap():
    assert sp.expand(DERIV_QUARTIC.subs(rho, sp.sqrt(2) - 1)
                     - 4 * lam * (3 - 2 * sp.sqrt(2))) == 0
    assert sp.expand(SQ_DERIV_QUARTIC.subs(rho, (sp.sqrt(5) - 1) / 2) - lam) == 0
    assert 3 - 2 * sp.sqrt(2) > 0  # so both are > 0 for lam > 0


def test_convex_quadratic_decreases_on_the_unit_interval():
    # P' = 2 (4t - 3) rho - 2 = 2 rho - 2 - 8 (1 - t) rho <= 2 rho - 2 < 0
    # for t <= 1 and 0 <= rho < 1
    slope = sp.diff(CONVEX_QUADRATIC, rho)
    assert sp.expand(slope - (2 * (4 * t - 3) * rho - 2)) == 0
    assert sp.expand((2 * rho - 2) - slope - 8 * (1 - t) * rho) == 0
    assert CONVEX_QUADRATIC.subs(rho, 0) == 1
    assert sp.expand(CONVEX_QUADRATIC.subs(rho, 1) - 4 * (t - 1)) == 0  # <= 0


# -- the coefficients both stages evaluate are the kind's polynomial --------------

@pytest.mark.parametrize("kind, weight, poly", [
    (FunctionalKind.CONVEX, t, CONVEX_QUADRATIC),
    (FunctionalKind.DERIV, lam, DERIV_QUARTIC),
    (FunctionalKind.SQ_DERIV, lam, SQ_DERIV_QUARTIC),
], ids=["convex", "deriv", "sq_deriv"])
def test_integer_coefficients_are_d_times_the_polynomial(kind, weight, poly):
    # kind.coefficients is the one spelling of the polynomial that both stages
    # evaluate: the float stage at (w, 1.0) and radii._certify, which signs
    # sum(c_i rho^i), at the weight's exact ratio (N, D).  On symbols it must
    # give D P(rho) at weight N / D, with D > 0, so the signs it certifies are
    # those of the stated polynomial; at D = 1 it is P, which the float stage
    # evaluates
    n, d = sp.symbols("N D", positive=True)
    coeffs = kind.coefficients(n, d)
    built = sum(c * rho**i for i, c in enumerate(coeffs))
    assert sp.expand(built - d * poly.subs(weight, n / d)) == 0
    assert len(coeffs) == sp.degree(poly, rho) + 1


# -- the majorant's factors move the right way in a0 --------------------------------

def test_majorant_factors_move_the_right_way_in_a0():
    # K's slope is -2 (1 - t) rho^2 (1 + a0) (an identity checked above)
    assert on_domain(2 * (1 - t) * rho**2 * (1 + a0)).is_nonnegative
    # G's slope is rho^2 (lam * (nonnegative coefficients) + (1 - rho)), a sum
    # of nonnegative terms for 0 <= rho < 1 and lam > 0
    lam_part = 3 * rho**2 * a0**2 + 2 * rho**2 * a0 + 4 * rho * a0 + 2 * rho + 1
    assert sp.expand(G_SLOPE - rho**2 * (lam * lam_part + (1 - rho))) == 0
    assert all(c > 0 for c in sp.Poly(lam_part, rho, a0).coeffs())
    assert on_domain(G_SLOPE).is_nonnegative
    h_slope = 2 * lam * rho**3 * (a0 * rho + 1)
    assert sp.expand(sp.diff(H_FACTOR, a0) - h_slope) == 0
    assert on_domain(h_slope).is_nonnegative


# -- the float stage's start --------------------------------------------------------

def stable_root(c0, c1, c2):
    """radii.radius_for's start, the root of c0 + c1 rho + c2 rho^2 written
    without cancellation: -2 c0 / (c1 + sign(c1) sqrt(c1^2 - 4 c0 c2))."""
    return -2 * c0 / (c1 + sp.sign(c1) * sp.sqrt(c1**2 - 4 * c0 * c2))


@pytest.mark.parametrize("kind, weight, start", [
    (FunctionalKind.CONVEX, t, 1 / (1 + 2 * sp.sqrt(1 - t))),
    (FunctionalKind.DERIV, lam, 2 / (3 + sp.sqrt(5 + 8 * lam))),
    (FunctionalKind.SQ_DERIV, lam, 1 / (1 + sp.sqrt(1 + lam))),
], ids=["convex", "deriv", "sq_deriv"])
def test_float_stage_starts_inside_the_interval(kind, weight, start):
    # the start from the quadratic part of the kind's own coefficients is the
    # closed form for CONVEX, whose float stage is this start alone, and the
    # Newton start for the quartics
    c0, c1, c2 = kind.coefficients(weight, 1)[:3]
    assert sp.simplify(on_domain(stable_root(c0, c1, c2) - start)) == 0
    assert on_domain(start).is_positive
    slope = on_domain(sp.diff(start, weight))
    if kind is FunctionalKind.CONVEX:
        # it rises with t from 1/3 at t = 0 to 1, the cap, at t = 1
        assert slope.subs(_S, sp.Symbol("S", positive=True)).is_positive
        assert start.subs(t, 0) == sp.Rational(1, 3)
        assert start.subs(t, 1) == 1 == kind.rho_cap
    else:
        # it falls as lam grows, from below the cap at lam = 0
        assert slope.is_negative
        cap = QUARTIC_SLOPES[kind.value][1]
        assert start.subs(lam, 0) < cap


# -- the growth and derivative bounds, sharp on the Mobius map ----------------------
# bounds states both for every self-map of the polydisc into the closed disc;
# here the one-variable Mobius map f(z) = (a - z)/(1 - a z), 0 <= a < 1,
# attains the growth bound and meets the derivative bound at every order k
# for real z with s = |z| < 1, with equality at k = 1.
s, z = sp.symbols("s z")
k = sp.Symbol("k", integer=True, positive=True)
MOBIUS = (a - z) / (1 - a * z)
GROWTH_BOUND = (a + s) / (1 + a * s)
BOUND_DOMAIN = {a: DOMAIN[a], s: DOMAIN[rho]}


def on_bound_domain(expr):
    return sp.factor(sp.together(expr.subs(BOUND_DOMAIN)))


def mobius_derivative(order, at=z):
    """f^(order)(at) = -order! a^(order-1) (1 - a^2) / (1 - a at)^(order+1)."""
    return -sp.factorial(order) * a ** (order - 1) * (1 - a**2) / (1 - a * at) ** (order + 1)


def derivative_bound(order, at):
    """k! (1 - f(at)^2) (1 + s)^(k-1) / (1 - s^2)^k at k = order."""
    return sp.factorial(order) * (1 - MOBIUS.subs(z, at) ** 2) * (1 + s) ** (order - 1) \
        / (1 - s**2) ** order


def test_growth_bound_is_attained_by_the_mobius_map():
    assert is_zero(MOBIUS.subs(z, -s) - GROWTH_BOUND)


def test_growth_bound_runs_from_s_at_a0_zero_to_one_at_a0_one():
    assert GROWTH_BOUND.subs(a, 0) == s
    assert sp.cancel(GROWTH_BOUND.subs(a, 1)) == 1


def test_growth_bound_rises_in_both_arguments():
    by_s, by_a = sp.diff(GROWTH_BOUND, s), sp.diff(GROWTH_BOUND, a)
    assert is_zero(by_s - (1 - a**2) / (1 + a * s) ** 2)
    assert is_zero(by_a - (1 - s**2) / (1 + a * s) ** 2)
    assert on_bound_domain(by_s).is_nonnegative
    assert on_bound_domain(by_a).is_nonnegative


def test_derivative_bound_at_order_one_is_the_first_order_bound():
    # k! (1 - f^2) (1 + s)^(k-1) / (1 - s^2)^k at k = 1, with s^2 = z^2 for real z
    bound = derivative_bound(1, z).subs(s, z)
    assert is_zero(bound - (1 - MOBIUS**2) / (1 - z**2))


def test_first_order_derivative_bound_is_an_equality_on_the_real_slice():
    # |f'(z)| = -f'(z) = (1 - a^2)/(1 - a z)^2 = (1 - f(z)^2)/(1 - z^2); that
    # -f' >= 0 is the k = 1 case of test_derivative_bound_holds_at_every_order
    slope = sp.diff(MOBIUS, z)
    assert is_zero(slope - mobius_derivative(1))
    assert is_zero(-slope - (1 - MOBIUS**2) / (1 - z**2))


def test_mobius_derivative_of_every_order():
    # by induction on k: the stated k-th derivative is f' at k = 1, and its
    # derivative is the stated (k+1)-th; orders 1 to 6 are checked directly
    assert is_zero(mobius_derivative(1) - sp.diff(MOBIUS, z))
    assert sp.simplify(sp.diff(mobius_derivative(k), z) / mobius_derivative(k + 1)) == 1
    for order in range(1, 7):
        assert is_zero(sp.diff(MOBIUS, z, order) - mobius_derivative(order))


@pytest.mark.parametrize("at, gap", [(s, 1 - a), (-s, 1 - a + 2 * a * s)],
                         ids=["z-nonnegative", "z-negative"])
def test_derivative_bound_holds_at_every_order(at, gap):
    # at z = at, s = |z|: |f^(k)(z)| over the bound
    # k! (1 - f(z)^2) (1 + s)^(k-1) / (1 - s^2)^k is q^(k-1) with
    # q = a (1 - s)/(1 - a z), and 0 <= q <= 1 since (1 - a z) - a (1 - s) = gap
    modulus = -mobius_derivative(k, at)
    assert on_bound_domain(modulus).is_nonnegative
    bound = derivative_bound(k, at)
    q = a * (1 - s) / (1 - a * at)
    assert sp.simplify(on_bound_domain(modulus / bound / q ** (k - 1))) == 1
    assert sp.expand((1 - a * at) - a * (1 - s) - gap) == 0
    assert on_bound_domain(gap).is_positive
    assert on_bound_domain(a * (1 - s)).is_nonnegative
    assert on_bound_domain(1 - a * at).is_positive
