"""Sharp Bohr-type radii on the unit polydisc.

Everything is computed in the normalized variable rho = n * r^m, where n is
the number of variables and m the order of the componentwise power map; the
geometric radius is recovered as r = (rho / n)^(1/m) at the API boundary.

Three functionals are covered, tagged by FunctionalKind:

- CONVEX:    t |f(omega(z))| + (1-t) sum |a_alpha| r^alpha        (weight t in [0,1])
- DERIV:     |f| + |d_u f| n r^m + lambda * tail                  (weight lambda > 0)
- SQ_DERIV:  |f|^2 + |d_u f| n r^m + lambda * tail                (weight lambda > 0)

For each kind the exact radius is the unique root of one low-degree
polynomial in rho on a known interval, for every admissible weight:

- CONVEX:    (4t-3) rho^2 - 2 rho + 1        on (0, 1],
             in closed form rho = 1 / (1 + 2 sqrt(1-t)),
- DERIV:     2L rho^4 + (4L-1) rho^3 + (2L-1) rho^2 + 3 rho - 1   on (0, sqrt(2) - 1),
- SQ_DERIV:  L rho^4 + (2L-1) rho^3 + L rho^2 + 2 rho - 1         on (0, (sqrt(5) - 1)/2).

Why the weighted quartic is the sharp radius for every L > 0: the majorant
(extremal.majorant_functional, the witness family's closed form with tail
ratio 1, valid for every self-map with |f(0)| = a0 up to the cap of each
interval, whatever the weight) factors as

    DERIV:     M - 1 = (1 - a0) G(a0, rho) / ((1 - rho)(1 + a0 rho)^2),
    SQ_DERIV:  M - 1 = (1 - a0^2) H(a0, rho) / ((1 - rho)(1 + a0 rho)^2),

where H = L rho^4 a0^2 + 2 L rho^3 a0 + L rho^2 - rho^3 + 2 rho - 1 and
dG/da0 = rho^2 (3 L rho^2 a0^2 + 2 L rho^2 a0 + 4 L rho a0 + 2 L rho + L + 1
- rho) > 0.  Both G and H increase in a0, and at a0 = 1 they equal the
weighted quartics above, so sup over a0 of M is <= 1 exactly when the
quartic is <= 0.  Each quartic increases on its interval (for DERIV its
slope is >= 3 - 2 rho - 3 rho^2 > 0) and is positive at the cap (there
DERIV equals 2 L rho^2 (1 + rho)^2 and SQ_DERIV equals L), so its root lies
inside the majorant's range.  deriv_witness_quartic at a = 1 is the same
quartic, so the witness family exceeds 1 just beyond the root.

The paper states the weight-free quartics rho^4 + rho^3 + 3 rho - 1 (DERIV,
L <= 1/2) and rho^4 + rho^3 + rho^2 + 2 rho - 1 (SQ_DERIV, L <= 1).  They
are deriv_rho_polynomial(0.5) and sq_deriv_rho_polynomial(1.0); below those
weights their roots (0.31905..., 0.38579...) are safe but not sharp.

Roots are certified: bisection down to a bracket of width 1e-14, a short
clamped Newton polish, and a residual check at 1e-12.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .mvseries import _check_count

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

BRACKET_WIDTH = 1e-14
RESIDUAL_TOL = 1e-12
NEWTON_STEPS = 5


class FunctionalKind(Enum):
    """The three Bohr-type functionals, also used to tag radius problems."""

    CONVEX = "convex"
    DERIV = "deriv"
    SQ_DERIV = "sq_deriv"

    # members are singletons compared by identity, so object's C-level hash
    # agrees with Enum's Python-level one; KINDS[kind] runs in verify's loop
    __hash__ = object.__hash__


class PolyLabel(Enum):
    """Which radius polynomial a RhoPolynomial instance is."""

    CONVEX_RHO = "convex-rho-quadratic"
    DERIV_RHO = "deriv-rho-quartic"
    SQ_DERIV_RHO = "sq-deriv-rho-quartic"
    CONVEX_A0_CUBIC = "convex-a0-cubic"
    WITNESS_QUARTIC = "deriv-witness-quartic"


@dataclass(frozen=True)
class RhoPolynomial:
    """Polynomial with real coefficients in ascending order, degree <= 4."""

    coefficients: tuple
    label: PolyLabel

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        if len(self.coefficients) > 5:
            raise ValueError("degree must be <= 4")
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative_at(self, x: float) -> float:
        acc = 0.0
        n = len(self.coefficients)
        for k in range(n - 1, 0, -1):
            acc = acc * x + k * self.coefficients[k]
        return acc


# -- polynomial factories ---------------------------------------------------

def convex_rho_polynomial(t: float) -> RhoPolynomial:
    """(4t-3) rho^2 - 2 rho + 1; value 1 at rho = 0.

    Its smallest positive root is the normalized CONVEX radius.  At t = 3/4
    the leading coefficient vanishes and the polynomial is linear with root
    exactly 1/2; at t = 1 the root sits at rho = 1.
    """
    _check_t(t)
    return RhoPolynomial((1.0, -2.0, 4.0 * t - 3.0), PolyLabel.CONVEX_RHO)


def deriv_rho_polynomial(lam: float) -> RhoPolynomial:
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
                         PolyLabel.DERIV_RHO)


def sq_deriv_rho_polynomial(lam: float) -> RhoPolynomial:
    """L rho^4 + (2L-1) rho^3 + L rho^2 + 2 rho - 1, L = lam.

    Governs the SQ_DERIV radius for every lam > 0 (see the module docstring
    for the proof of sharpness).  Its value at (sqrt(5)-1)/2 is exactly lam.
    At lam = 1 it is the paper's weight-free quartic
    rho^4 + rho^3 + rho^2 + 2 rho - 1, stated for every lam <= 1; below 1
    its root (approximately 0.38579) is safe but not sharp.
    """
    _check_lam(lam)
    return RhoPolynomial((-1.0, 2.0, lam, 2.0 * lam - 1.0, lam),
                         PolyLabel.SQ_DERIV_RHO)


def convex_bound_cubic(t: float, rho: float) -> RhoPolynomial:
    """Cubic in x = |a_0| controlling the CONVEX bound at fixed (t, rho).

    -(1-t) rho^2 x^3 - (1-t) rho^2 x^2 + [(1-rho)^2 + (1-t) rho^2] x
    - t rho^2 + 2 rho - 1.

    Behavioral facts used by the tests: its value at x = 1 is identically 0,
    and its slope at x = 1 equals the convex margin quadratic at rho, so the
    bound holds for every admissible |a_0| exactly up to the radius.
    """
    _check_t(t)
    _check_rho(rho)
    r2 = rho * rho
    c = (1.0 - t) * r2
    return RhoPolynomial(
        (-t * r2 + 2.0 * rho - 1.0, (1.0 - rho) ** 2 + c, -c, -c),
        PolyLabel.CONVEX_A0_CUBIC,
    )


def deriv_witness_quartic(lam: float, rho: float) -> RhoPolynomial:
    """Quartic in the witness parameter a for the DERIV functional.

    L rho^4 a^4 + (L rho^4 + 2 L rho^3) a^3 + ((2L-1) rho^3 + L rho^2) a^2
    + ((L-1) rho^2 + rho) a + 2 rho - 1,  L = lam.

    Its sign at a is the sign of (functional value - 1) for the witness
    family, and its value at a = 1 equals the weighted DERIV radius
    polynomial at rho; that endpoint value is what decides whether a witness
    exists beyond a given rho.
    """
    _check_lam(lam)
    _check_rho(rho)
    r2 = rho * rho
    r3 = r2 * rho
    r4 = r3 * rho
    return RhoPolynomial(
        (2.0 * rho - 1.0,
         (lam - 1.0) * r2 + rho,
         (2.0 * lam - 1.0) * r3 + lam * r2,
         lam * r4 + 2.0 * lam * r3,
         lam * r4),
        PolyLabel.WITNESS_QUARTIC,
    )


# -- problem and result types ------------------------------------------------

@dataclass(frozen=True)
class RadiusProblem:
    """A radius query: functional kind, variable count n, power-map order m,
    and the kind's weight (t for CONVEX, lam for DERIV / SQ_DERIV)."""

    kind: FunctionalKind
    n: int
    m: int
    t: float | None = None
    lam: float | None = None

    def __post_init__(self):
        _check_nm(self.n, self.m)
        check_weight(self.kind, self.t, self.lam)

    @property
    def weight(self) -> float:
        return getattr(self, KINDS[self.kind].weight)


@dataclass(frozen=True)
class RadiusResult:
    """Certified radius: r = (rho_root / n)^(1/m), the rho root itself, the
    final bisection bracket, the polynomial residual at the root, and which
    polynomial branch produced it."""

    radius: float
    rho_root: float
    residual: float
    bracket: tuple
    branch: str


# -- root solving -------------------------------------------------------------

def _bisect_newton(poly: RhoPolynomial, lo: float, hi: float):
    """Root of poly on [lo, hi] with a sign-change certificate.

    Bisection narrows the bracket to width <= 1e-14, then at most five Newton
    steps (clamped into the bracket) polish the midpoint.  Returns
    (root, (lo, hi), residual).  Raises ValueError when the endpoints do not
    straddle a sign change, ArithmeticError when the residual exceeds 1e-12
    or is NaN (an overflowed coefficient gives a NaN root).
    """
    flo = poly(lo)
    fhi = poly(hi)
    if flo == 0.0:
        return lo, (lo, lo), 0.0
    if fhi == 0.0:
        return hi, (hi, hi), 0.0
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}] for {poly.label.value}")
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = poly(mid)
        if fm == 0.0:
            return mid, (mid, mid), 0.0
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS):
        f = poly(root)
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
    residual = abs(poly(root))
    if not residual <= RESIDUAL_TOL:
        raise ArithmeticError(
            f"residual {residual!r} exceeds {RESIDUAL_TOL} for {poly.label.value}")
    return root, (lo, hi), residual


def solve_unique_positive_root(poly: RhoPolynomial, bracket: tuple) -> float:
    """The unique root of poly inside the bracket, certified as above."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"empty bracket ({lo!r}, {hi!r})")
    root, _, _ = _bisect_newton(poly, lo, hi)
    return root


# -- radii --------------------------------------------------------------------

def convex_rho_closed_form(t: float) -> float:
    """Normalized CONVEX radius rho = 1 / (1 + 2 sqrt(1 - t)).

    Algebraically equal to (1 - 2 sqrt(1-t)) / (4t - 3) with the removable
    0/0 at t = 3/4 eliminated; this form is exact in floating point at
    t = 3/4 (giving 1/2) and at t = 1 (giving 1) and is stable in between.
    """
    _check_t(t)
    return 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - t))


def _geometric_radius(rho: float, n: int, m: int) -> float:
    return (rho / n) ** (1.0 / m)


def radius_for(problem: RadiusProblem) -> RadiusResult:
    """Certified radius of a RadiusProblem; r = (rho / n)^(1/m).

    The rho root is bracketed by (0, rho_cap), narrowed to 1e-6 either side
    of the closed form where the kind has one.
    """
    spec = KINDS[problem.kind]
    w = problem.weight
    poly = spec.polynomial(w)
    lo, hi = 0.0, spec.rho_cap
    if spec.closed_form is not None:
        rho_star = spec.closed_form(w)
        lo, hi = max(rho_star - 1e-6, lo), min(rho_star + 1e-6, hi)
    root, bracket, residual = _bisect_newton(poly, lo, hi)
    return RadiusResult(_geometric_radius(root, problem.n, problem.m), root,
                        residual, bracket, poly.label.value)


def radius_convex(n: int, m: int, t: float) -> RadiusResult:
    """Radius for the CONVEX functional; r = (rho / n)^(1/m).

    The rho root is certified against the quadratic within 1e-6 of the
    closed form.  That bracket always holds a sign change: the quadratic's
    other root lies below 0 or above 1, and at t = 1 the root is rho = 1,
    where the quadratic is exactly 0.
    """
    return radius_for(RadiusProblem(FunctionalKind.CONVEX, n, m, t=t))


def radius_deriv(n: int, m: int, lam: float) -> RadiusResult:
    """Sharp radius for the DERIV functional; r = (rho / n)^(1/m).

    rho is the root of the weighted quartic for every lam > 0: the majorant
    stays <= 1 up to it and the witness family exceeds 1 just beyond it (see
    the module docstring).  For lam < 1/2 this is larger than the root of the
    paper's weight-free quartic, which is safe but not sharp there.
    """
    return radius_for(RadiusProblem(FunctionalKind.DERIV, n, m, lam=lam))


def radius_sq_deriv(n: int, m: int, lam: float) -> RadiusResult:
    """Sharp radius for the SQ_DERIV functional; r = (rho / n)^(1/m).

    rho is the root of the weighted quartic for every lam > 0, by the same
    factorization as radius_deriv.  For lam < 1 this is larger than the root
    of the paper's weight-free quartic, which is safe but not sharp there.
    """
    return radius_for(RadiusProblem(FunctionalKind.SQ_DERIV, n, m, lam=lam))


# -- validation ---------------------------------------------------------------

def _check_nm(n, m):
    _check_count("n", n, 1)
    _check_count("m", m, 1)


def _check_t(t):
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")


def _check_lam(lam):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def _check_rho(rho):
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho!r}")


def check_weight(kind: FunctionalKind, t, lam) -> None:
    """Check that exactly the kind's own weight is given, and admissible."""
    spec = KINDS[kind]
    own, other = (t, lam) if spec.weight == "t" else (lam, t)
    if own is None or other is not None:
        raise ValueError(f"{kind.value} takes {spec.weight} only")
    spec.check(own)


# -- the per-kind table ---------------------------------------------------------

@dataclass(frozen=True)
class KindSpec:
    """One functional kind: its weight's name and check, its radius
    polynomial, the cap of the rho interval on which the majorant holds, and
    the closed form of the rho root where there is one."""

    weight: str
    check: Callable[[float], None]
    polynomial: Callable[[float], RhoPolynomial]
    rho_cap: float
    closed_form: Callable[[float], float] | None = None

    @property
    def search_cap(self) -> float:
        """Largest rho the crossing searches and the verify sweep use."""
        return min(self.rho_cap, 1.0 - 1e-9)


KINDS = {
    FunctionalKind.CONVEX: KindSpec("t", _check_t, convex_rho_polynomial, 1.0,
                                    convex_rho_closed_form),
    FunctionalKind.DERIV: KindSpec("lam", _check_lam, deriv_rho_polynomial,
                                   SQRT2_MINUS_1),
    FunctionalKind.SQ_DERIV: KindSpec("lam", _check_lam, sq_deriv_rho_polynomial,
                                      GOLDEN_CONJUGATE),
}
