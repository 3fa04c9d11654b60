"""Sparse truncated power series in several complex variables.

A series is stored as a dict mapping exponent tuples alpha to complex
coefficients a_alpha, representing

    f(z) = sum_alpha a_alpha z^alpha,   z^alpha = z_1^a1 * ... * z_n^an,

truncated at a fixed total degree D = max_degree.  Absent keys mean zero and
exact zeros are not stored.  All operations return new objects; nothing
mutates a series in place.

The pieces needed by the Bohr-radius machinery are: point evaluation, Cauchy
products, directional derivatives d_u f = sum_j u_j df/dz_j along unit-l1
directions, substitution of the componentwise power map z_j -> z_j^m, and the
majorant sum  sum_{|alpha| >= k_min} |a_alpha| r^alpha  for radius vectors r.

A multi-index is validated once, where it enters from outside: at
MultiIndex(...), and by _check_index at TruncatedSeries(...) from a caller's
dict and at coefficient().  The operations here build their keys from checked
keys and trust them: each is a MultiIndex of plain ints made with
tuple.__new__, and each result goes through TruncatedSeries._trusted, which
only deletes the exact zeros, in place from the fresh dict it takes over.
Each scalar input is checked by one helper here: _check_count returns a
count as a plain int (no numpy integer reaches a key or a result), and
_check_unit, _check_below_one and _check_positive refuse values outside
[0, 1], [0, 1) and (0, inf).

_indices yields each (n, k)'s keys in lexicographic order; no tables are kept.

Derivative and product keep one order, and the bits of their results rest on
it: the contributions to a key are added in source-term order (for the
product, self's terms outer and other's inner), one at a time to a running
value that starts at 0j, and the keys come in the order of their first
contribution.  A term loop over the keys themselves gives the same bits.

Evaluation has fixed bits.  f(z) is the sum, in key order, of one term per
key: the term starts at a_alpha and is multiplied by z_j^e_j for j = 1..n in
turn, where z_j^e is the e-th entry of the table 1+0j, (1+0j)*z_j, ... built
by repeated Python complex products, and a factor with e_j = 0 is skipped
(multiplying by 1+0j would flip signed zeros and turn inf into nan).  The
terms are added one by one to 0j.  eval_many does this for many points at
once on float64 arrays: each complex product is CPython's
(ar*br - ai*bi, ar*bi + ai*br) as separate real ufuncs, and the sum is
np.add.accumulate over [0.0, terms...].  numpy's own complex multiply and
np.sum (pairwise) would differ in the last bit; these do not.  eval(z) is
eval_many([z])[0].

The majorant sum has fixed bits too: each term is abs(a_alpha), CPython's
abs, times r_j ** alpha_j for j = 1..n in turn, and the terms are added in
key order to 0.0.  bohr_majorant_sum does this on float64 arrays: the
moduli come from map(abs, ...) (np.abs's hypot may round differently), each
r_j ** e is a Python float power computed once per exponent present (so an
overflow raises OverflowError, and the table is sized by the exponents
present, never by the degree), a factor r_j ** 0 == 1.0 leaves a term's
bits, and the sum is np.add.accumulate.

directional_derivative keeps the term loop's bits on float64 arrays too.  Its
contributions are the exponent array's nonzero entries in (alpha, j) order,
each CPython's (a_alpha * complex(alpha_j, 0.0)) * u_j as separate real
ufuncs.  In base B = D + 1, D the source's max_degree, alpha has the code
sum_j alpha_j B^(n-j) (int64 while B^n fits, else Python ints), so
alpha - e_j is a code minus a place value.  A stable sort groups the
contributions by code in source order, and np.add.at adds each group to 0.0.
The codes are sized by the terms present, never by the degree.

The three array passes hold the keys' entries in one (terms x n) intp array
built by _exponents, so an entry of 2**63 or more raises OverflowError
there.  Within this module only they import numpy, though importing the
package loads it anyway (bounds and extremal need it).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, repeat
from operator import mul, sub
from typing import Iterable, Iterator, Mapping


def _check_count(name: str, value, least: int) -> int:
    # a plain int is returned as is, skipping numbers.Integral's slow ABC lookup
    if type(value) is int:
        if value >= least:
            return value
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_unit(name: str, x) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")


def _check_below_one(name: str, x) -> None:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {x!r}")


def _check_positive(name: str, x) -> None:
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _check_index(alpha, n_vars: int) -> "MultiIndex":
    idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    if len(idx) != n_vars:
        raise ValueError(f"index {tuple(idx)} has {len(idx)} entries, expected {n_vars}")
    return idx


# eval_many evaluates its points in blocks, so that no temporary array holds
# more than about this many elements (points times terms + 1).  About ten such
# arrays are live at once: 1 << 14 keeps them near 1 MiB in all, while 1 << 16
# raised the series workload's peak RSS by about 4 MiB and was no faster
_EVAL_BLOCK = 1 << 14
# directional_derivative sums its contributions in blocks of this many: 1 << 14
# raised the series workload's peak RSS by about 2 MiB and was no faster
_SUM_BLOCK = 1 << 12


class MultiIndex(tuple):
    """Exponent tuple of a monomial z^alpha; entries are nonnegative integers.

    No __dict__: a key takes the memory of a plain tuple of its entries.
    """

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> "MultiIndex":
        ex = tuple(exponents)
        if not ex:
            raise ValueError("a multi-index needs at least one entry")
        for e in ex:
            if e != e or e in (math.inf, -math.inf) or e != int(e):  # NaN before int()
                raise ValueError(f"non-integer exponent {e!r}")
            if e < 0:
                raise ValueError(f"negative exponent {e!r}")
        return super().__new__(cls, (int(e) for e in ex))

    @property
    def n_vars(self) -> int:
        return len(self)

    @property
    def degree(self) -> int:
        """Total degree |alpha| = alpha_1 + ... + alpha_n."""
        return sum(self)

    @property
    def factorial(self) -> int:
        """alpha! = alpha_1! * ... * alpha_n!, exact (Python integers)."""
        out = 1
        for e in self:
            out *= math.factorial(e)
        return out


def _indices(n: int, k: int) -> Iterator[MultiIndex]:
    """Every MultiIndex with n entries and total degree k, in lexicographic
    order, one at a time.

    A nondecreasing c_1 <= ... <= c_(n-1) in 0..k gives the entries
    c_1, c_2 - c_1, ..., k - c_(n-1), and combinations_with_replacement
    yields the c in the order that puts the entries in lexicographic order.
    No recursion, so n is not bounded by the interpreter's recursion limit.
    """
    # from a list, not the map: a tuple grown from an iterator keeps its first,
    # larger block (1.28 against 1.11 MiB for the keys of n <= 3, k <= 40)
    return (tuple.__new__(MultiIndex, [*map(sub, (*c, k), (0, *c))])
            for c in combinations_with_replacement(range(k + 1), n - 1))


def _exponents(keys, n: int):
    """The (terms x n) intp array of the keys' entries, one row per key, in
    order; an entry of 2**63 or more raises OverflowError."""
    import numpy as np

    count = len(keys)
    return np.fromiter(chain.from_iterable(keys), np.intp, count * n).reshape(count, n)


def multi_indices(n_vars: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices with n_vars entries and total degree exactly `degree`.

    They come in lexicographic order, as MultiIndex keys of plain ints, one
    at a time: a walk holds no table.
    """
    return _indices(_check_count("n_vars", n_vars, 1), _check_count("degree", degree, 0))


@dataclass(frozen=True)
class Direction:
    """Direction u with sum_j |u_j| = 1 (complex entries allowed).

    Vectors off that simplex by more than 1e-12 are rejected; there is no
    silent renormalization.
    """

    components: tuple

    def __post_init__(self):
        comp = tuple(complex(u) for u in self.components)
        if not comp:
            raise ValueError("a direction needs at least one component")
        total = sum(abs(u) for u in comp)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"sum of |u_j| is {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "components", comp)

    @property
    def n_vars(self) -> int:
        return len(self.components)

    @classmethod
    def uniform(cls, n_vars: int) -> "Direction":
        """The direction (1/n, ..., 1/n)."""
        n_vars = _check_count("n_vars", n_vars, 1)
        return cls((1.0 / n_vars,) * n_vars)


@dataclass(frozen=True)
class SchwarzPowerMap:
    """The componentwise power map omega(z) = (z_1^m, ..., z_n^m).

    Each component fixes 0 and maps the unit disc into itself, and this is the
    family along which the radius bounds are attained.
    """

    n_vars: int
    power: int

    def __post_init__(self):
        object.__setattr__(self, "n_vars", _check_count("n_vars", self.n_vars, 1))
        object.__setattr__(self, "power", _check_count("power", self.power, 1))

    def apply(self, z) -> tuple:
        """omega(z) as a tuple of complex numbers."""
        if len(z) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(z)}")
        m = self.power
        return tuple(complex(v) ** m for v in z)


class TruncatedSeries:
    """Sparse polynomial truncation of a power series in n_vars variables."""

    __slots__ = ("n_vars", "max_degree", "coeffs")

    def __init__(self, n_vars: int, max_degree: int, coeffs: Mapping):
        n_vars = _check_count("n_vars", n_vars, 1)
        max_degree = _check_count("max_degree", max_degree, 0)
        clean = {}
        for alpha, c in coeffs.items():
            idx = _check_index(alpha, n_vars)
            if idx.degree > max_degree:
                raise ValueError(f"index {tuple(idx)} exceeds max_degree {max_degree}")
            cv = complex(c)
            if cv != 0:
                clean[idx] = cv
        self.n_vars = n_vars
        self.max_degree = max_degree
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n_vars: int, max_degree: int, coeffs: dict) -> "TruncatedSeries":
        """A series whose keys the package built from checked ones.

        coeffs is a fresh dict from MultiIndex keys of plain ints to complex
        values; the series takes it over.  Only the exact zeros are dropped,
        deleted in place so that the other keys keep their order, and nothing
        is checked again.
        """
        if 0 in coeffs.values():
            for alpha in [alpha for alpha, c in coeffs.items() if c == 0]:
                del coeffs[alpha]
        out = cls.__new__(cls)
        out.n_vars = n_vars
        out.max_degree = max_degree
        out.coeffs = coeffs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, n_vars: int) -> "TruncatedSeries":
        return cls(n_vars, 0, {(0,) * n_vars: value})

    # -- plumbing ----------------------------------------------------------

    def coefficient(self, alpha) -> complex:
        """a_alpha, or 0 if the monomial is absent."""
        return self.coeffs.get(_check_index(alpha, self.n_vars), 0j)

    def degree_slice(self, k: int) -> dict:
        """The homogeneous degree-k part as a dict."""
        _check_count("k", k, 0)
        return {a: c for a, c in self.coeffs.items() if a.degree == k}

    def __repr__(self) -> str:
        return (f"TruncatedSeries(n_vars={self.n_vars}, "
                f"max_degree={self.max_degree}, terms={len(self.coeffs)})")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.n_vars != self.n_vars:
            raise ValueError("variable count mismatch")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0j) + c
        return TruncatedSeries._trusted(self.n_vars, max(self.max_degree, other.max_degree), out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.multiply(other)
        return TruncatedSeries._trusted(self.n_vars, self.max_degree,
                                        {a: complex(c * other) for a, c in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- operations --------------------------------------------------------

    def eval(self, z) -> complex:
        """f(z) for a point z with n_vars coordinates."""
        return self.eval_many((z,))[0]

    def eval_many(self, points) -> list:
        """[f(z) for z in points], each point with n_vars coordinates.

        Every value has the bits of the sequential term loop set out in the
        module docstring.  The points go in blocks of _EVAL_BLOCK // (terms
        + 1), at least one, so an array over the terms holds at most
        _EVAL_BLOCK elements, or terms + 1 if more; each point's power tables
        hold n (top + 1) more, top the largest exponent present.
        """
        import numpy as np

        n, count = self.n_vars, len(self.coeffs)
        exps = _exponents(self.coeffs, n)
        top = int(exps.max(initial=0))  # the largest exponent present
        moves = [exps[:, j] != 0 for j in range(n)]
        coeffs = np.fromiter(self.coeffs.values(), complex, count)
        points = list(points)
        block = max(1, _EVAL_BLOCK // (count + 1))
        out = []
        with np.errstate(all="ignore"):
            for start in range(0, len(points), block):
                # per-variable power tables z_j^0 .. z_j^top in Python complex
                # arithmetic
                chunk = points[start:start + block]
                pows = []
                for z in chunk:
                    if len(z) != n:
                        raise ValueError(f"expected {n} coordinates, got {len(z)}")
                    for v in z:
                        table = [1 + 0j] * (top + 1)
                        zj = complex(v)
                        for e in range(1, top + 1):
                            table[e] = table[e - 1] * zj
                        pows.extend(table)
                size = len(chunk)
                pows = np.array(pows, complex).reshape(size, n, top + 1)
                # one row per point: the 0j the sum starts from, then the terms
                real = np.zeros((size, count + 1))
                imag = np.zeros((size, count + 1))
                real[:, 1:] = coeffs.real
                imag[:, 1:] = coeffs.imag
                tr, ti = real[:, 1:], imag[:, 1:]
                for j in range(n):
                    fr = np.take(pows.real[:, j], exps[:, j], axis=1)
                    fi = np.take(pows.imag[:, j], exps[:, j], axis=1)
                    # CPython's complex product, one float64 ufunc at a time
                    new_r = tr * fr
                    new_r -= ti * fi
                    new_i = tr * fi
                    new_i += ti * fr
                    np.copyto(tr, new_r, where=moves[j])
                    np.copyto(ti, new_i, where=moves[j])
                # accumulate adds left to right, in the term loop's order;
                # np.sum would pair the terms
                total_r = np.add.accumulate(real, axis=1)[:, -1].tolist()
                total_i = np.add.accumulate(imag, axis=1)[:, -1].tolist()
                out.extend(map(complex, total_r, total_i))
        return out

    def multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, of degree D1 + D2.

        The products a_alpha b_beta are added to the key alpha + beta in
        source-term order (self's terms outer, other's inner), starting from
        0j, and the keys come in the order of their first product.
        """
        if other.n_vars != self.n_vars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple.__new__(MultiIndex, [x + y for x, y in zip(a, b)])
                out[key] = out.get(key, 0j) + ca * cb
        return TruncatedSeries._trusted(self.n_vars, self.max_degree + other.max_degree, out)

    def directional_derivative(self, direction: Direction) -> "TruncatedSeries":
        """d_u f = sum_j u_j df/dz_j for a unit-l1 direction u.

        The contributions a_alpha * alpha_j * u_j are added to the key
        alpha - e_j in source-term order (alpha, then j = 1..n), starting from
        0j, and the keys come in the order of their first contribution: the
        bits of the term loop set out in the module docstring.  A key of the
        result that the source also has is the source's object, and an entry
        of 2**63 or more raises OverflowError, as in eval_many.
        """
        import numpy as np

        if direction.n_vars != self.n_vars:
            raise ValueError("direction dimension mismatch")
        n, base, count = self.n_vars, self.max_degree + 1, len(self.coeffs)
        exps = _exponents(self.coeffs, n)
        # codes in base D + 1, as int64 while every code fits, else Python ints
        kind = np.int64 if base ** n <= np.iinfo(np.int64).max else object
        places = np.array([base ** (n - 1 - j) for j in range(n)], kind)
        codes = exps.astype(kind, copy=False) @ places
        flat = np.flatnonzero(exps)  # the contributions, in (alpha, j) order
        targets = np.subtract.outer(codes, places).ravel()[flat]
        # a stable sort groups them by key, each group in source order
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        head = np.ones(len(targets), bool)
        head[1:] = targets[1:] != targets[:-1]
        keys = targets[head]  # ascending
        # each temporary goes once used: together they would set the peak RSS
        del targets
        flat, rank = flat[order], np.argsort(order[head])  # rank: by first contribution
        del order
        slot = np.cumsum(head)
        slot -= 1  # each contribution's key
        coeffs = np.fromiter(self.coeffs.values(), complex, count)
        u = np.array(direction.components, complex)
        sums = np.zeros(len(keys), complex)
        with np.errstate(all="ignore"):  # inf * 0.0 is nan, as in Python
            for start in range(0, len(flat), _SUM_BLOCK):
                part = slice(start, start + _SUM_BLOCK)
                rows, cols = np.divmod(flat[part], n)
                c, w, e = coeffs[rows], u[cols], exps.ravel()[flat[part]].astype(float)
                # CPython's (c * complex(e, 0.0)) * w, one float64 ufunc at a time
                pr, pi = c.real * e - c.imag * 0.0, c.real * 0.0 + c.imag * e
                # add.at adds in index order: each key's sum runs in source order
                np.add.at(sums.real, slot[part], pr * w.real - pi * w.imag)
                np.add.at(sums.imag, slot[part], pr * w.imag + pi * w.real)
        del slot, coeffs
        # the source's own key where it has one, else one built from alpha - e_j
        known = np.argsort(codes)
        pick = known[np.minimum(np.searchsorted(codes[known], keys), count - 1)]
        fresh = np.flatnonzero(codes[pick] != keys)
        pick[fresh] = count + np.arange(len(fresh))
        rows, cols = np.divmod(flat[head][fresh], n)
        entries = exps[rows]
        entries[np.arange(len(fresh)), cols] -= 1
        made = map(tuple.__new__, repeat(MultiIndex), entries.tolist())
        pool = np.fromiter(chain(self.coeffs, made), object, count + len(fresh))
        del exps, codes, flat, head, known, keys
        out = dict(zip(pool[pick[rank]].tolist(), sums[rank].tolist()))
        return TruncatedSeries._trusted(n, max(self.max_degree - 1, 0), out)

    def compose_power_map(self, omega: SchwarzPowerMap) -> "TruncatedSeries":
        """Substitute z_j -> z_j^m: the monomial z^alpha becomes z^(m alpha).

        The result has degree m * D, the source's coefficients and the
        source's key order.  For m = 1 its dict is a new one with the source's
        own keys; otherwise each key m alpha is built once.
        """
        if omega.n_vars != self.n_vars:
            raise ValueError("power map dimension mismatch")
        m = omega.power
        if m == 1:
            out = dict(self.coeffs)
        else:
            entries = map(mul, chain.from_iterable(self.coeffs), repeat(m))
            # n entries per key, as a plain tuple and then a MultiIndex
            keys = map(tuple.__new__, repeat(MultiIndex), zip(*[entries] * self.n_vars))
            out = dict(zip(keys, self.coeffs.values()))
        return TruncatedSeries._trusted(self.n_vars, m * self.max_degree, out)

    def bohr_majorant_sum(self, r, k_min: int = 0) -> float:
        """sum over |alpha| >= k_min of |a_alpha| r^alpha, for r >= 0.

        r may be a scalar (used for every variable) or a vector of length
        n_vars.  This is the quantity compared against 1 in Bohr-type
        inequalities.  Each term is |a_alpha| times r_j ** alpha_j for
        j = 1..n, left to right, and the terms are added in key order to 0.0:
        the bits of the term loop set out in the module docstring.  A term
        below k_min takes no power, and an entry of 2**63 or more raises
        OverflowError, as in eval_many.
        """
        import numpy as np

        k_min = _check_count("k_min", k_min, 0)
        try:
            rv = [float(x) for x in r]
        except TypeError:
            rv = [float(r)] * self.n_vars
        if len(rv) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} radii, got {len(rv)}")
        for x in rv:
            if not x >= 0:
                raise ValueError("radii must be nonnegative")
        if k_min > self.max_degree:  # no key reaches it
            return 0.0
        count = len(self.coeffs)
        exps = _exponents(self.coeffs, self.n_vars)
        # the 0.0 the sum starts from, then each |a_alpha| by CPython's abs
        row = np.fromiter(chain((0.0,), map(abs, self.coeffs.values())), float, count + 1)
        if k_min:
            # no key's degree exceeds max_degree, so below intp's limit the
            # column sums cannot wrap
            if self.max_degree <= np.iinfo(np.intp).max:
                keep = sum(exps.T) >= k_min
            else:
                keep = np.fromiter((sum(alpha) >= k_min for alpha in self.coeffs), bool, count)
            exps, row = exps[keep], row[np.concatenate(([True], keep))]
        terms = row[1:]
        with np.errstate(all="ignore"):  # 0 * inf is nan, as in Python
            for x, col in zip(rv, exps.T):
                # x ** e in Python floats, once per exponent present
                present = np.sort(col)
                present = present[np.diff(present, prepend=-1) != 0]
                powers = np.array([x ** e for e in present.tolist()])
                terms *= powers[np.searchsorted(present, col)]
            # accumulate adds left to right, in key order
            return np.add.accumulate(row)[-1].item()
