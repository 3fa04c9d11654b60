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

The quartic caps: the derivative term is A (1 - h^2), with h the growth
bound and A = rho / (1 - rho^2), and bounding phi(h) = h + A (1 - h^2)
(DERIV) or psi(h) = h^2 + A (1 - h^2) (SQ_DERIV) at a larger h needs phi or
psi nondecreasing on [0, 1], that is A <= 1/2 or A <= 1.  A increases, and
equals 1/2 at sqrt(2) - 1 and 1 at (sqrt(5) - 1)/2 (test_phi_psi_step and
test_caps_are_where_phi_and_psi_stop_increasing prove each step).

The paper states the weight-free quartics rho^4 + rho^3 + 3 rho - 1 (DERIV,
L <= 1/2) and rho^4 + rho^3 + rho^2 + 2 rho - 1 (SQ_DERIV, L <= 1).  They
are FunctionalKind.DERIV.polynomial(0.5) and
FunctionalKind.SQ_DERIV.polynomial(1.0); below those weights their roots
(0.31905..., 0.38579...) are safe but not sharp.

Each root is solved in two stages.  A float stage brings a float within a
few ULP of it: for the quartics a safeguarded Newton on (0, cap) of about
eight float evaluations, for CONVEX the closed form.  An exact stage then
certifies it.  With the weight's exact value N / D (every float is one),
the integer polynomial D P(rho) is signed exactly at floats and at their
midpoints, by Horner in Python ints; a walk of about three exact signs ends
at two adjacent floats whose exact signs differ, and the exact sign at their
midpoint picks the nearer one.  So rho_root is the correctly rounded root
and its bracket proves a root lies between two adjacent floats; since P has
one sign change on its interval (proved above), that root is the radius.
The residual |P(rho_root)| in floats is reported for information only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum

from .mvseries import _check_count, _check_positive, _check_unit

_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")  # for _bits and _float

@dataclass(frozen=True)
class RhoPolynomial:
    """Polynomial with real coefficients in ascending order, degree <= 4,
    evaluated by straight-line Horner over them padded with 0.0 to degree 4."""

    coefficients: tuple
    label: str

    def __post_init__(self):
        if not 1 <= len(self.coefficients) <= 5:
            raise ValueError(f"need 1 to 5 coefficients, got {len(self.coefficients)}")
        coeffs = tuple(map(float, self.coefficients))
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


# -- polynomial factories -----------------------------------------------------

def _convex_rho_polynomial(t: float) -> RhoPolynomial:
    """(4t-3) rho^2 - 2 rho + 1; value 1 at rho = 0.

    Its smallest positive root is the normalized CONVEX radius.  At t = 3/4
    the leading coefficient vanishes and the polynomial is linear with root
    exactly 1/2; at t = 1 the root sits at rho = 1.
    """
    _check_unit("t", t)
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
    _check_positive("lam", lam)
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
    _check_positive("lam", lam)
    return RhoPolynomial((-1.0, 2.0, lam, 2.0 * lam - 1.0, lam),
                         "sq-deriv-rho-quartic")


def _convex_rho_closed_form(t: float) -> float:
    """Normalized CONVEX radius rho = 1 / (1 + 2 sqrt(1 - t)).

    Algebraically equal to (1 - 2 sqrt(1-t)) / (4t - 3) with the removable
    0/0 at t = 3/4 eliminated; this form is exact in floating point at
    t = 3/4 (giving 1/2) and at t = 1 (giving 1) and is stable in between.
    """
    _check_unit("t", t)
    return 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - t))


class FunctionalKind(Enum):
    """The three Bohr-type functionals, also used to tag radius problems.

    Each member carries its own spec: the name of its weight, the weight's
    check, called as check(name, value), its radius polynomial, the cap of
    the rho interval on which the majorant holds, the closed form of the rho
    root where there is one, and search_cap, the largest rho the crossing
    searches and the verify sweep use.  The polynomial and the closed form
    are private functions of this module, reached only through the members;
    their docstrings hold what each polynomial is and where it is sharp.  A
    public attribute, once set, can be neither overwritten nor deleted.
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

    CONVEX = ("convex", "t", _check_unit, _convex_rho_polynomial, 1.0, _convex_rho_closed_form)
    DERIV = ("deriv", "lam", _check_positive, _deriv_rho_polynomial, math.sqrt(2.0) - 1.0)
    SQ_DERIV = ("sq_deriv", "lam", _check_positive, _sq_deriv_rho_polynomial,
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
        kind.check(kind.weight, own)

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
        object.__setattr__(self, "n", _check_count("n", self.n, 1))
        object.__setattr__(self, "m", _check_count("m", self.m, 1))
        super().__post_init__()


@dataclass(frozen=True)
class RadiusResult:
    """Radius r = (rho_root / n)^(1/m); rho_root, the correctly rounded root
    of the branch's polynomial; bracket, the two adjacent floats around the
    root whose exact signs of the polynomial differ (both equal to rho_root
    where it is an exact zero); the residual |P(rho_root)| in floats, for
    information; and which polynomial branch produced it."""

    radius: float
    rho_root: float
    residual: float
    bracket: tuple
    branch: str


# -- root solving -------------------------------------------------------------

def _newton(poly: RhoPolynomial, lo: float, hi: float, x: float) -> float:
    """Float stage: a float within a few ULP of the root of poly on [lo, hi].

    A safeguarded Newton from x, or from the midpoint if x is not strictly
    inside.  Each value, from poly.__call__, narrows the bracket by the side
    of 0 it falls on.  The Newton step (slope from poly.derivative_at) is taken
    when it lands strictly inside the bracket, and the bracket is bisected
    otherwise.  Returns the Newton candidate once a step moves x by at most
    1e-9 x, as its error is then about the square of that, or the last
    candidate after 60 steps; _certify decides the bits.  Raises ValueError
    when the float end values do not differ in sign, and OverflowError when
    one is not finite (the weight is too large for float coefficients).
    """
    # bound once: calling the instance would look up __call__ on each step
    value, slope = poly.__call__, poly.derivative_at
    flo, fhi = value(lo), value(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise OverflowError(f"{poly.label} overflows a float: its values at {lo!r} "
                            f"and {hi!r} are {flo!r} and {fhi!r}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    up = fhi > 0.0
    if (flo > 0.0) == up:
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}] for {poly.label}")
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(60):
        f = value(x)
        if f == 0.0:
            return x
        if (f > 0.0) == up:
            hi = x
        else:
            lo = x
        d = slope(x)
        cand = x - f / d if d else x
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        elif abs(cand - x) <= 1e-9 * x:
            return cand
        x = cand
    return x


def _integer_coefficients(kind: FunctionalKind, n, d) -> tuple:
    """d * P(n / d) for the kind's polynomial P at the weight n / d, in
    ascending order: integers for an integer ratio, and the same expressions
    for sympy symbols."""
    if kind is FunctionalKind.CONVEX:
        return (d, -2 * d, 4 * n - 3 * d)
    if kind is FunctionalKind.DERIV:
        return (-d, 3 * d, 2 * n - d, 4 * n - d, 2 * n)
    return (-d, 2 * d, n, 2 * n - d, n)


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _float(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


def _exact_sign(coefficients: tuple, bits: int, half: int = 0) -> int:
    """Exact sign of the integer quartic c0 + c1 x + ... + c4 x^4 at the
    float 0 <= x <= 1 whose bit pattern is bits, or, with half=1, at the
    midpoint between that float and the next one up.

    x is p / 2^s, so the point is (2p + half) / 2^(s + 1), also when the next
    float starts a new binade; 2^(4 (s + 1)) P at it is taken by Horner on the
    integer 2p + half, each coefficient shifted left by s + 1 more than the
    one above it.
    """
    e = bits >> 52
    p, s = (bits & 0xFFFFFFFFFFFFF | 1 << 52, 1076 - e) if e else (bits, 1075)
    p = 2 * p + half
    c0, c1, c2, c3, c4 = coefficients
    acc = (((c4 * p + (c3 << s)) * p + (c2 << 2 * s)) * p + (c1 << 3 * s)) * p + (c0 << 4 * s)
    return (acc > 0) - (acc < 0)


def _certify(coefficients: tuple, x: float, cap: float):
    """Exact stage: (root, (lo, hi)), root the correctly rounded root of the
    integer polynomial near x, for 0 <= x <= cap <= 1 with exact signs that
    differ at 0 and at cap.

    From x it walks outward on exact signs, doubling the step in ULPs, to a
    sign change, then bisects on bit patterns down to two adjacent floats lo
    and hi whose exact signs differ: the bracket proves that a root lies
    between them.  The root is the nearer one, decided by the exact sign at
    their midpoint; a tie goes to the even bit pattern.  An exact zero y
    returns (y, (y, y)).  Raises ArithmeticError if the walk reaches 0 or
    cap with no sign change, which the signs there rule out.
    """
    quartic = coefficients + (0,) * (5 - len(coefficients))
    b = _bits(x)
    sb = _exact_sign(quartic, b)
    if sb == 0:
        return x, (x, x)
    # x has the sign at 0 when it lies below the root: walk up, else down
    step, end = (1, _bits(cap)) if (sb > 0) == (coefficients[0] > 0) else (-1, 0)
    while True:
        c = min(b + step, end) if step > 0 else max(b + step, end)
        sc = _exact_sign(quartic, c)
        if sc != sb:
            break
        if c == end:
            raise ArithmeticError(f"no exact sign change between {x!r} and {cap!r}")
        b, step = c, 2 * step
    while sc and abs(c - b) > 1:
        mid = (b + c) // 2
        sm = _exact_sign(quartic, mid)
        if sm == sb:
            b = mid
        else:
            c, sc = mid, sm
    if sc == 0:
        y = _float(c)
        return y, (y, y)
    lo, s_lo = (b, sb) if b < c else (c, sc)
    half = _exact_sign(quartic, lo, 1)
    up = lo & 1 if half == 0 else half == s_lo
    bracket = (_float(lo), _float(lo + 1))
    return bracket[up], bracket


# -- radii --------------------------------------------------------------------

def _geometric_radius(rho: float, n: int, m: int) -> float:
    return (rho / n) ** (1.0 / m)


def radius_for(problem: RadiusProblem) -> RadiusResult:
    """Radius of a RadiusProblem; r = (rho / n)^(1/m).

    The float stage is the closed form where the kind has one (CONVEX), and
    otherwise _newton on (0, rho_cap), started at the positive root of the
    quartic's quadratic part c0 + c1 rho + c2 rho^2: within 20% of the root
    for every weight, and within 1% from lam = 1e4 up, where both roots tend
    to 0 alike.  _certify turns that float into the
    correctly rounded root and its two-float bracket, on exact signs of
    _integer_coefficients at the weight's exact value.  For CONVEX the root
    is the only sign change on [0, 1]: the quadratic's other root lies below
    0 or above 1, and at t = 1 the root is the exact zero rho = 1.  The root
    depends on the kind and the weight only (the CLI's `table` and `sweep`
    solve each distinct weight once).
    """
    kind = problem.kind
    w = float(problem.weight)
    poly = kind.polynomial(w)
    if kind.closed_form is None:
        c0, c1, c2 = poly.coefficients[:3]
        start = -2.0 * c0 / (c1 + math.sqrt(c1 * c1 - 4.0 * c0 * c2))
        x = _newton(poly, 0.0, kind.rho_cap, start)
    else:
        x = kind.closed_form(w)
    root, bracket = _certify(_integer_coefficients(kind, *w.as_integer_ratio()), x,
                             kind.rho_cap)
    return RadiusResult(_geometric_radius(root, problem.n, problem.m), root,
                        abs(poly(root)), bracket, poly.label)
