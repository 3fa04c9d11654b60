"""Symbolic proofs of the majorant algebra the stated radii rest on.

The closed forms below are copied from the docstrings of extremal (the
witness family F, and the majorant M as the upper-bound chain states it,
which the library evaluates as F with tail ratio 1) and radii (the factors
G and H, the witness quartic, the radius polynomials); the CONVEX and
SQ_DERIV sign polynomials are derived alongside.  sympy proves each
identity as rational functions; float spot checks tie the copied forms to
the library.
The library is never called with symbols: its weight checks reject them.
"""

import pytest

from polybohr import (Functional, FunctionalKind, deriv_rho_polynomial,
                      deriv_witness_quartic, extremal_functional,
                      majorant_functional, sq_deriv_rho_polynomial)

sp = pytest.importorskip("sympy")

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
    # M - F >= 0 on the domain, so the dominance half of verify is an identity
    sym, name, w = (t, "t", 1 - t) if kind == "convex" else (lam, "lam", lam)
    margin = w * (1 - a) ** 2 * (1 + a) * rho**2 / ((1 - rho) * (1 - a * rho))
    assert is_zero(majorant(kind, a) - family(kind) - margin)
    m_num = sp.lambdify((a, rho, sym), majorant(kind, a))
    f_num = sp.lambdify((a, rho, sym), family(kind))
    for x, r, v in POINTS:
        func = Functional(FunctionalKind(kind), **{name: v})
        assert majorant_functional(func, x, r) == pytest.approx(m_num(x, r, v), rel=1e-13)
        assert extremal_functional(func, x, r) == pytest.approx(f_num(x, r, v), rel=1e-13)


def test_deriv_majorant_factors_through_the_weighted_quartic():
    g = sp.cancel((majorant("deriv") - 1) * (1 - rho) * (1 + a0 * rho) ** 2 / (1 - a0))
    assert sp.denom(sp.together(g)) == 1  # G is a polynomial
    assert sp.expand(g.subs(a0, 1) - DERIV_QUARTIC) == 0
    slope = rho**2 * (3 * lam * rho**2 * a0**2 + 2 * lam * rho**2 * a0
                      + 4 * lam * rho * a0 + 2 * lam * rho + lam + 1 - rho)
    assert sp.expand(sp.diff(g, a0) - slope) == 0
    for v in (0.02, 0.5, 3.0):
        coeffs = sp.Poly(DERIV_QUARTIC.subs(lam, v), rho).all_coeffs()[::-1]
        assert deriv_rho_polynomial(v).coefficients == \
            pytest.approx([float(c) for c in coeffs], rel=1e-15)


def test_sq_deriv_majorant_factors_through_the_weighted_quartic():
    h = lam * rho**4 * a0**2 + 2 * lam * rho**3 * a0 + lam * rho**2 - rho**3 \
        + 2 * rho - 1
    assert is_zero(majorant("sq_deriv") - 1
                   - (1 - a0**2) * h / ((1 - rho) * (1 + a0 * rho) ** 2))
    assert sp.expand(h.subs(a0, 1) - SQ_DERIV_QUARTIC) == 0
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
    assert sp.expand(w.subs(a, 1) - at_one) == 0


def test_witness_quartic_coefficients_match_the_library():
    for v, r in ((0.02, 0.4), (0.5, 0.1), (3.0, 0.3)):
        coeffs = sp.Poly(WITNESS_QUARTIC.subs({lam: v, rho: r}), a).all_coeffs()[::-1]
        assert deriv_witness_quartic(v, r).coefficients == \
            pytest.approx([float(c) for c in coeffs], rel=1e-14, abs=1e-15)


def test_phi_psi_step():
    # A (1 - first^2) = second with A = rho / (1 - rho^2): the derivative
    # term is the phi / psi weight times the growth bound's deficit
    big_a = rho / (1 - rho**2)
    second = (1 - a**2) * rho / (1 + a * rho) ** 2
    assert is_zero(big_a * (1 - _first(a) ** 2) - second)
