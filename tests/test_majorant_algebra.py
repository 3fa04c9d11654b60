"""Symbolic proofs of the majorant algebra the stated radii rest on.

The closed forms below are copied from the docstrings of extremal (the
witness family F, and the majorant M as the upper-bound chain states it,
which the library evaluates as F with tail ratio 1) and radii (the factors
K, G and H, the radius polynomials); the sign polynomials W of F - 1 are
derived alongside.  sympy proves each identity as rational functions and
each sign claim from the assumptions of the domain; float spot checks tie
the copied forms to the library.  sympy is imported, not skipped when
missing: this file is the only place these factorizations are checked.
The library is never called with symbols: its weight checks reject them.
"""

import pytest
import sympy as sp

from polybohr import (Functional, FunctionalKind, convex_rho_polynomial,
                      deriv_rho_polynomial, extremal_functional,
                      majorant_functional, sq_deriv_rho_polynomial)

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
        assert convex_rho_polynomial(v).coefficients == \
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
        assert deriv_rho_polynomial(v).coefficients == \
            pytest.approx([float(c) for c in coeffs], rel=1e-15)


def test_sq_deriv_majorant_factors_through_the_weighted_quartic():
    assert is_zero(majorant("sq_deriv") - 1
                   - (1 - a0**2) * H_FACTOR / ((1 - rho) * (1 + a0 * rho) ** 2))
    assert sp.expand(H_FACTOR.subs(a0, 1) - SQ_DERIV_QUARTIC) == 0
    for v in (0.02, 0.5, 3.0):
        coeffs = sp.Poly(SQ_DERIV_QUARTIC.subs(lam, v), rho).all_coeffs()[::-1]
        assert sq_deriv_rho_polynomial(v).coefficients == \
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


def test_phi_psi_step():
    # A (1 - first^2) = second with A = rho / (1 - rho^2): the derivative
    # term is the phi / psi weight times the growth bound's deficit
    big_a = rho / (1 - rho**2)
    second = (1 - a**2) * rho / (1 + a * rho) ** 2
    assert is_zero(big_a * (1 - _first(a) ** 2) - second)


# -- each radius polynomial has exactly one sign change on its interval ------------
# _bisect_newton bisects on float signs, which presumes a single crossing: P is
# strictly monotone on [0, cap] for every admissible weight, and its end values
# have opposite signs (P(0) = 1 for CONVEX, -1 for the quartics).

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
