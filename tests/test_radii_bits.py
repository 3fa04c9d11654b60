"""Bit-level pins on the root solver.

- RhoPolynomial's straight-line Horner against the plain loop it replaced,
  compared with float.hex, signed zeros, infinities and NaN included.
- A digest of repr(radius_for(p)), or of the exception it raises, over 1000
  seeded weights per kind, recorded when the exact certificate replaced the
  float bisection.
- Every root and bracket against an all-exact bisection written here, apart
  from the library's certificate: its own integer coefficients, from the
  weight as a Fraction, and its own bisection on bit patterns.
- The number of polynomial evaluations per solve, counted the way the
  bench's trace counts them: by wrapping RhoPolynomial.__call__ on the class,
  and the number of exact signs.
"""

import hashlib
import math
import random
import struct
from fractions import Fraction

import pytest

from polybohr import FunctionalKind, RadiusProblem, RhoPolynomial, radii, radius_for

CONVEX, DERIV, SQ_DERIV = (FunctionalKind.CONVEX, FunctionalKind.DERIV,
                           FunctionalKind.SQ_DERIV)


def loop_value(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def loop_derivative(coeffs, x):
    acc = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
           float("inf"), float("-inf"), float("nan"))


def draw_float(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(SPECIAL)
    if pick < 0.5:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.randint(-320, 308)
    return rng.uniform(-3.0, 3.0)


def test_horner_matches_the_loop_bit_for_bit():
    rng = random.Random(20260421)
    for _ in range(12_000):
        coeffs = tuple(draw_float(rng) for _ in range(rng.randint(1, 5)))
        poly = RhoPolynomial(coeffs, "case")
        x = draw_float(rng)
        assert poly(x).hex() == loop_value(coeffs, x).hex(), (coeffs, x)
        assert poly.derivative_at(x).hex() == loop_derivative(coeffs, x).hex(), (coeffs, x)


def solver_cases():
    """1000 seeded problems per kind: t uniform in [0, 1) plus 0, 3/4 and 1;
    lam log-uniform by octave over [2^-40, 2^40), about [1e-12, 1e12], plus
    1e-300, 1/2, 1 and 1e30.  Every draw is exact on any IEEE platform."""
    rng = random.Random(21)
    for kind, specials in ((CONVEX, (0.0, 0.75, 1.0)),
                           (DERIV, (1e-300, 0.5, 1.0, 1e30)),
                           (SQ_DERIV, (1e-300, 0.5, 1.0, 1e30))):
        for i in range(1000):
            if i < len(specials):
                w = specials[i]
            elif kind is CONVEX:
                w = rng.random()
            else:
                w = 2.0 ** rng.randint(-40, 39) * (1.0 + rng.random())
            yield RadiusProblem(kind, rng.randint(1, 8), rng.randint(1, 4),
                                **{kind.weight: w})


def solver_lines():
    for problem in solver_cases():
        try:
            yield repr(radius_for(problem))
        except (ValueError, ArithmeticError) as exc:
            yield f"{type(exc).__name__}: {exc}"


SOLVER_DIGEST = "ea3d17df3a03a8d04f72d9af091af77b02d64f2d7d0902dcd2a02be8e5c549ee"
SOLVER_RAISES = 0


def test_radius_for_reprs_are_unchanged():
    lines = list(solver_lines())
    assert len(lines) == 3000
    assert sum(not line.startswith("RadiusResult(") for line in lines) == SOLVER_RAISES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SOLVER_DIGEST


# -- an all-exact reference ----------------------------------------------------------

def stated_polynomial(kind, w):
    """The kind's polynomial at the weight w, ascending, as the radii module
    docstring states it, with the weight taken exactly as a Fraction and
    every denominator cleared: integers with the polynomial's signs."""
    w = Fraction(w)
    if kind is CONVEX:
        coeffs = [Fraction(1), Fraction(-2), 4 * w - 3]
    elif kind is DERIV:
        coeffs = [Fraction(-1), Fraction(3), 2 * w - 1, 4 * w - 1, 2 * w]
    else:
        coeffs = [Fraction(-1), Fraction(2), w, 2 * w - 1, w]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def exact_sign(coeffs, y):
    """Sign of the integer polynomial at the rational y = p / q, from
    q^deg P(p / q)."""
    p, q = Fraction(y).as_integer_ratio()
    deg = len(coeffs) - 1
    value = sum(c * p**i * q**(deg - i) for i, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


def to_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def from_bits(b):
    return struct.unpack("<d", struct.pack("<q", b))[0]


def reference_root(kind, w):
    """(rho, (lo, hi)) by bisection on every bit pattern of [0, rho_cap] on
    exact signs, then the nearer of the two adjacent floats by the exact sign
    at their midpoint (a tie to the even pattern); an exact zero is (x, (x, x))."""
    coeffs = stated_polynomial(kind, w)
    lo, hi = 0, to_bits(kind.rho_cap)
    sign_lo = exact_sign(coeffs, 0)
    assert sign_lo != 0 and exact_sign(coeffs, kind.rho_cap) != sign_lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        sign = exact_sign(coeffs, from_bits(mid))
        if sign == 0:
            x = from_bits(mid)
            return x, (x, x)
        if sign == sign_lo:
            lo = mid
        else:
            hi = mid
    a, b = from_bits(lo), from_bits(hi)
    if exact_sign(coeffs, b) == 0:
        return b, (b, b)
    sign_mid = exact_sign(coeffs, (Fraction(a) + Fraction(b)) / 2)
    if sign_mid == 0:
        return (a if lo % 2 == 0 else b), (a, b)
    return (b if sign_mid == sign_lo else a), (a, b)


def decade_cases():
    """lam = 1e-300, 1e-290, ..., 1e300 for both quartic kinds."""
    for kind in (DERIV, SQ_DERIV):
        for e in range(-300, 301, 10):
            yield RadiusProblem(kind, 1, 1, lam=float(f"1e{e}"))


def test_every_root_is_correctly_rounded_with_a_proving_bracket():
    checked = 0
    for problem in [*solver_cases(), *decade_cases()]:
        res = radius_for(problem)
        expected = reference_root(problem.kind, problem.weight)
        assert (res.rho_root, res.bracket) == expected, problem
        lo, hi = res.bracket
        coeffs = stated_polynomial(problem.kind, problem.weight)
        if lo == hi:
            assert exact_sign(coeffs, lo) == 0, problem
        else:
            assert math.nextafter(lo, math.inf) == hi, problem
            assert exact_sign(coeffs, lo) * exact_sign(coeffs, hi) == -1, problem
        checked += 1
    assert checked == 3000 + 2 * 61


# -- evaluation counts ---------------------------------------------------------------

@pytest.mark.parametrize("problem, evaluations, signs", [
    (RadiusProblem(CONVEX, 1, 1, t=0.3), 1, 3),
    (RadiusProblem(DERIV, 1, 1, lam=1.0), 7, 3),
    (RadiusProblem(SQ_DERIV, 1, 1, lam=2.0), 7, 5),
], ids=["convex", "deriv", "sq_deriv"])
def test_evaluations_per_solve(problem, evaluations, signs, monkeypatch):
    calls, exact = [], []
    evaluate, sign = RhoPolynomial.__call__, radii._exact_sign

    def counted(poly, x):
        calls.append(x)
        return evaluate(poly, x)

    def counted_sign(*args):
        exact.append(args)
        return sign(*args)

    monkeypatch.setattr(RhoPolynomial, "__call__", counted)
    monkeypatch.setattr(radii, "_exact_sign", counted_sign)
    radius_for(problem)
    assert (len(calls), len(exact)) == (evaluations, signs)
