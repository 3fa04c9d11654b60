"""Sharp Bohr-type radii on the unit polydisc.

Everything is computed in the normalized variable rho = n * r^m, where n is
the number of variables and m the order of the componentwise power map; the
geometric radius is recovered as r = (rho / n)^(1/m) at the API boundary.

Three functionals are covered, tagged by FunctionalKind.  A Functional is
a kind with its weight, checked once on construction, and a RadiusProblem
is a Functional at (n, m):

- CONVEX:    t |f(omega(z))| + (1-t) sum |a_alpha| r^alpha        (weight t in [0,1])
- DERIV:     |f| + |d_u f| n r^m + lambda * tail                  (weight lambda > 0)
- SQ_DERIV:  |f|^2 + |d_u f| n r^m + lambda * tail                (weight lambda > 0)

For each kind the exact radius is the unique root of one low-degree
polynomial in rho on a known interval, for every admissible weight:

- CONVEX:    (4t-3) rho^2 - 2 rho + 1        on (0, 1],
             in closed form rho = 1 / (1 + 2 sqrt(1-t)),
- DERIV:     2L rho^4 + (4L-1) rho^3 + (2L-1) rho^2 + 3 rho - 1   on (0, sqrt(2) - 1),
- SQ_DERIV:  L rho^4 + (2L-1) rho^3 + L rho^2 + 2 rho - 1         on (0, (sqrt(5) - 1)/2).

Why each polynomial gives the sharp radius for every weight: the majorant
(extremal.majorant_functional, the witness family's closed form with tail
ratio 1, valid for every self-map with |f(0)| = a0 up to the cap of each
interval, whatever the weight) factors as

    CONVEX:    M - 1 = -(1 - a0) K(a0, rho) / ((1 - rho)(1 + a0 rho)),
    DERIV:     M - 1 = (1 - a0) G(a0, rho) / ((1 - rho)(1 + a0 rho)^2),
    SQ_DERIV:  M - 1 = (1 - a0^2) H(a0, rho) / ((1 - rho)(1 + a0 rho)^2),

where K = (t-1) rho^2 a0^2 + 2 (t-1) rho^2 a0 + t rho^2 - 2 rho + 1,
H = L rho^4 a0^2 + 2 L rho^3 a0 + L rho^2 - rho^3 + 2 rho - 1 and
dG/da0 = rho^2 (3 L rho^2 a0^2 + 2 L rho^2 a0 + 4 L rho a0 + 2 L rho + L + 1
- rho) >= 0.  K decreases in a0 (dK/da0 = -2 (1-t) rho^2 (1 + a0) <= 0), G
and H increase, and at a0 = 1 each equals its kind's polynomial above, so
sup over a0 of M is <= 1 exactly when the quadratic is >= 0, or the quartic
<= 0.  Each quartic increases on its interval (for DERIV its slope is
>= 3 - 2 rho - 3 rho^2 > 0) and is positive at the cap (there DERIV equals
2 L rho^2 (1 + rho)^2 and SQ_DERIV equals L), so its root lies inside the
majorant's range.  The witness family factors the same way, F - 1 =
(1 - a) W(a, rho) / D with D > 0, and W at a = 1 is the kind's polynomial
times -1, 1 or 2 respectively, so the family exceeds 1 just beyond the
root.  tests/test_majorant_algebra.py proves in sympy every identity and
inequality above, for every admissible weight: the factorizations, the
slopes of K, G, H and the quartics, the values at the caps, D > 0, and the
dominance margin M - F >= 0.  What rests on the paper's lemmas, which
bounds evaluates in floats only, is that the majorant bounds every
self-map.

The paper states the weight-free quartics rho^4 + rho^3 + 3 rho - 1 (DERIV,
L <= 1/2) and rho^4 + rho^3 + rho^2 + 2 rho - 1 (SQ_DERIV, L <= 1).  They
are FunctionalKind.DERIV.polynomial(0.5) and
FunctionalKind.SQ_DERIV.polynomial(1.0); below those weights their roots
(0.31905..., 0.38579...) are safe but not sharp.

Roots are solved in floating point: bisection down to a bracket of width
1e-14, a short clamped Newton polish, and a residual check at 1e-12.  The
bracket's end signs are float signs, not exact ones: for CONVEX at t = 0
the bracket collapses to the single float nearest 1/3, where the float
value of P is 0 but its exact value is about 7.4e-17.  An exact-sign
certificate is ROADMAP item 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .mvseries import _check_count

BRACKET_WIDTH = 1e-14
RESIDUAL_TOL = 1e-12
NEWTON_STEPS = 5


@dataclass(frozen=True)
class RhoPolynomial:
    """Polynomial with real coefficients in ascending order, degree <= 4,
    evaluated by straight-line Horner over them padded with 0.0 to degree 4."""

    coefficients: tuple
    label: str

    def __post_init__(self):
        if not 1 <= len(self.coefficients) <= 5:
            raise ValueError(f"need 1 to 5 coefficients, got {len(self.coefficients)}")
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        # padding is exact: from acc = 0.0 a padded step gives +0.0 (NaN if x is inf/NaN)
        object.__setattr__(self, "_padded", coeffs + (0.0,) * (5 - len(coeffs)))

    def __call__(self, x: float) -> float:
        c0, c1, c2, c3, c4 = self._padded
        return ((((0.0 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0

    def derivative_at(self, x: float) -> float:
        if len(self.coefficients) == 1:
            return 0.0  # a constant: the slope is 0.0 even at non-finite x
        _, c1, c2, c3, c4 = self._padded
        return (((0.0 * x + 4 * c4) * x + 3 * c3) * x + 2 * c2) * x + c1


# -- weights and polynomial factories ------------------------------------------

def _check_t(t):
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")


def _check_lam(lam):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def _convex_rho_polynomial(t: float) -> RhoPolynomial:
    """(4t-3) rho^2 - 2 rho + 1; value 1 at rho = 0.

    Its smallest positive root is the normalized CONVEX radius.  At t = 3/4
    the leading coefficient vanishes and the polynomial is linear with root
    exactly 1/2; at t = 1 the root sits at rho = 1.
    """
    _check_t(t)
    return RhoPolynomial((1.0, -2.0, 4.0 * t - 3.0), "convex-rho-quadratic")


def _deriv_rho_polynomial(lam: float) -> RhoPolynomial:
    """2L rho^4 + (4L-1) rho^3 + (2L-1) rho^2 + 3 rho - 1, L = lam.

    Governs the DERIV radius for every lam > 0 (see the module docstring for
    the proof of sharpness).  Its value at sqrt(2)-1 is 2L rho^2 (1+rho)^2.
    At lam = 1/2 it is the paper's weight-free quartic
    rho^4 + rho^3 + 3 rho - 1 (value 6 - 4 sqrt(2) at sqrt(2)-1), stated for
    every lam <= 1/2; below 1/2 its root (approximately 0.31905) is safe but
    not sharp.
    """
    _check_lam(lam)
    return RhoPolynomial((-1.0, 3.0, 2.0 * lam - 1.0, 4.0 * lam - 1.0, 2.0 * lam),
                         "deriv-rho-quartic")


def _sq_deriv_rho_polynomial(lam: float) -> RhoPolynomial:
    """L rho^4 + (2L-1) rho^3 + L rho^2 + 2 rho - 1, L = lam.

    Governs the SQ_DERIV radius for every lam > 0 (see the module docstring
    for the proof of sharpness).  Its value at (sqrt(5)-1)/2 is exactly lam.
    At lam = 1 it is the paper's weight-free quartic
    rho^4 + rho^3 + rho^2 + 2 rho - 1, stated for every lam <= 1; below 1
    its root (approximately 0.38579) is safe but not sharp.
    """
    _check_lam(lam)
    return RhoPolynomial((-1.0, 2.0, lam, 2.0 * lam - 1.0, lam),
                         "sq-deriv-rho-quartic")


def _convex_rho_closed_form(t: float) -> float:
    """Normalized CONVEX radius rho = 1 / (1 + 2 sqrt(1 - t)).

    Algebraically equal to (1 - 2 sqrt(1-t)) / (4t - 3) with the removable
    0/0 at t = 3/4 eliminated; this form is exact in floating point at
    t = 3/4 (giving 1/2) and at t = 1 (giving 1) and is stable in between.
    """
    _check_t(t)
    return 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - t))


class FunctionalKind(Enum):
    """The three Bohr-type functionals, also used to tag radius problems.

    Each member carries its own spec: the name of its weight and the weight's
    check, its radius polynomial, the cap of the rho interval on which the
    majorant holds, the closed form of the rho root where there is one, and
    search_cap, the largest rho the crossing searches and the verify sweep
    use.  The polynomial and the closed form are private functions of this
    module, reached only through the members; their docstrings hold what each
    polynomial is and where it is sharp.  A public attribute, once set, can be
    neither overwritten nor deleted.
    """

    def __new__(cls, value, weight, check, polynomial, rho_cap, closed_form=None):
        member = object.__new__(cls)
        member._value_ = value
        member.weight = weight
        member.check = check
        member.polynomial = polynomial
        member.rho_cap = rho_cap
        member.closed_form = closed_form
        member.search_cap = min(rho_cap, 1.0 - 1e-9)
        return member

    def __setattr__(self, name, value):
        # hasattr, not vars(self): a materialized __dict__ slows each spec read ~4x
        if not name.startswith("_") and hasattr(self, name):
            raise AttributeError(f"{self!r}.{name} is read-only")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{self!r}.{name} is read-only")

    CONVEX = ("convex", "t", _check_t, _convex_rho_polynomial, 1.0, _convex_rho_closed_form)
    DERIV = ("deriv", "lam", _check_lam, _deriv_rho_polynomial, math.sqrt(2.0) - 1.0)
    SQ_DERIV = ("sq_deriv", "lam", _check_lam, _sq_deriv_rho_polynomial,
                (math.sqrt(5.0) - 1.0) / 2.0)


# -- functional, problem and result types -----------------------------------

@dataclass(frozen=True)
class Functional:
    """A Bohr-type functional: its kind and exactly the kind's own weight,
    given by keyword (t for CONVEX, lam for DERIV / SQ_DERIV)."""

    kind: FunctionalKind
    t: float | None = field(default=None, kw_only=True)
    lam: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        kind = self.kind
        own, other = (self.t, self.lam) if kind.weight == "t" else (self.lam, self.t)
        if own is None or other is not None:
            raise ValueError(f"{kind.value} takes {kind.weight} only")
        kind.check(own)

    @property
    def weight(self) -> float:
        return getattr(self, self.kind.weight)


@dataclass(frozen=True)
class RadiusProblem(Functional):
    """A radius query: a functional at variable count n and power-map order
    m, built as RadiusProblem(kind, n, m, t=... or lam=...)."""

    n: int
    m: int

    def __post_init__(self):
        n, m = _check_count("n", self.n, 1), _check_count("m", self.m, 1)
        if n is not self.n or m is not self.m:  # no stores for plain ints: one problem per CSV row
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "m", m)
        super().__post_init__()


@dataclass(frozen=True)
class RadiusResult:
    """Radius r = (rho_root / n)^(1/m), the rho root itself, the
    final bisection bracket, the polynomial residual at the root, and which
    polynomial branch produced it."""

    radius: float
    rho_root: float
    residual: float
    bracket: tuple
    branch: str


# -- root solving -------------------------------------------------------------

def _bisect_newton(poly: RhoPolynomial, lo: float, hi: float):
    """Root of poly on [lo, hi] by bisection on the float signs of poly.

    Bisection narrows the bracket to width <= 1e-14, then at most five Newton
    steps (clamped into the bracket, slope from poly.derivative_at) polish
    the midpoint; every value comes from poly.__call__, bound once.  Returns
    (root, (lo, hi), residual): a float bracket <= 1e-14 wide plus a residual
    <= 1e-12, not a proof, since a float sign near the root may be wrong; an
    exact certificate is ROADMAP item 4.  Raises ValueError when the float
    end values do not differ in sign, ArithmeticError when the residual
    exceeds 1e-12 or is NaN (an overflowed coefficient gives a NaN root).
    """
    # bound once: calling the instance would look up __call__ on each step
    value = poly.__call__
    flo, fhi = value(lo), value(hi)
    if flo == 0.0:
        return lo, (lo, lo), 0.0
    if fhi == 0.0:
        return hi, (hi, hi), 0.0
    up = fhi > 0.0
    if (flo > 0.0) == up:
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}] for {poly.label}")
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = value(mid)
        if fm == 0.0:
            return mid, (mid, mid), 0.0
        if (fm > 0.0) == up:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS):
        f = value(root)
        if f == 0.0:
            break
        d = poly.derivative_at(root)
        if d == 0.0:
            break
        cand = root - f / d
        if cand < lo:
            cand = lo
        elif cand > hi:
            cand = hi
        if cand == root:
            break
        root = cand
    residual = abs(value(root))
    if not residual <= RESIDUAL_TOL:
        raise ArithmeticError(
            f"residual {residual!r} exceeds {RESIDUAL_TOL} for {poly.label}")
    return root, (lo, hi), residual


# -- radii --------------------------------------------------------------------

def _geometric_radius(rho: float, n: int, m: int) -> float:
    return (rho / n) ** (1.0 / m)


def radius_for(problem: RadiusProblem) -> RadiusResult:
    """Radius of a RadiusProblem; r = (rho / n)^(1/m).

    The rho root is bracketed by (0, rho_cap), narrowed to 1e-6 either side
    of the closed form where the kind has one.  For CONVEX that bracket
    always holds a sign change: the quadratic's other root lies below 0 or
    above 1, and at t = 1 the root is rho = 1, where the quadratic is
    exactly 0.  The root depends on the kind and the weight only (the CLI's
    `table` and `sweep` solve each distinct weight once).
    """
    kind = problem.kind
    w = problem.weight
    poly = kind.polynomial(w)
    lo, hi = 0.0, kind.rho_cap
    if kind.closed_form is not None:
        rho_star = kind.closed_form(w)
        lo, hi = max(rho_star - 1e-6, lo), min(rho_star + 1e-6, hi)
    root, bracket, residual = _bisect_newton(poly, lo, hi)
    return RadiusResult(_geometric_radius(root, problem.n, problem.m), root,
                        residual, bracket, poly.label)
