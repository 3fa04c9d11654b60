"""Bit-level pins on the root solver.

- RhoPolynomial's straight-line Horner against the plain loop it replaced,
  compared with float.hex, signed zeros, infinities and NaN included.
- A digest of repr(radius_for(p)), or of the exception it raises, over 1000
  seeded weights per kind, recorded before the solver's evaluation path was
  rewritten.
- The number of polynomial evaluations per solve, counted the way the
  bench's trace counts them: by wrapping RhoPolynomial.__call__ on the class.
"""

import hashlib
import random

import pytest

from polybohr import FunctionalKind, RadiusProblem, RhoPolynomial, radius_for

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


SOLVER_DIGEST = "437aeb5ecd13d3b3102ed2097f5a7fe8bc637f6774ad46df40ec25771c44a0ff"
SOLVER_RAISES = 2  # both lam = 1e30: the residual gate (ROADMAP item 4)


def test_radius_for_reprs_are_unchanged():
    lines = list(solver_lines())
    assert len(lines) == 3000
    assert sum(not line.startswith("RadiusResult(") for line in lines) == SOLVER_RAISES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SOLVER_DIGEST


@pytest.mark.parametrize("problem, evaluations", [
    (RadiusProblem(CONVEX, 1, 1, t=0.3), 3),
    (RadiusProblem(DERIV, 1, 1, lam=1.0), 51),
    (RadiusProblem(SQ_DERIV, 1, 1, lam=2.0), 51),
], ids=["convex", "deriv", "sq_deriv"])
def test_evaluations_per_solve(problem, evaluations, monkeypatch):
    calls = []
    evaluate = RhoPolynomial.__call__

    def counted(poly, x):
        calls.append(x)
        return evaluate(poly, x)

    monkeypatch.setattr(RhoPolynomial, "__call__", counted)
    radius_for(problem)
    assert len(calls) == evaluations
