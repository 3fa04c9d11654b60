"""Sparse truncated power series in several complex variables.

A series f(z) = sum_alpha a_alpha z^alpha, z^alpha = z_1^a1 * ... * z_n^an,
truncated at total degree D = max_degree, is stored as two read-only columns
in key order: exps, a (terms x n) intp array of the alpha, and values, a
complex128 array of the a_alpha.  Absent rows mean zero and exact zeros are
not stored.  Operations return new objects, which may share a column with
their source.  coeffs is a read-only Mapping view, MultiIndex -> complex in
key order.  Its len is free and it builds its dict on the first key access,
so only the term loops multiply and degree_slice read it.

The pieces needed by the Bohr-radius machinery are: point evaluation, Cauchy
products, directional derivatives d_u f = sum_j u_j df/dz_j along unit-l1
directions, substitution of the componentwise power map z_j -> z_j^m, and the
majorant sum  sum_{|alpha| >= k_min} |a_alpha| r^alpha  for radius vectors r.

A multi-index is validated once, where it enters from outside: at
MultiIndex(...), and by _check_index at TruncatedSeries(...) and at
coefficient().  The array operations build their rows from checked rows, and
TruncatedSeries._trusted only drops the exact zeros, with one values != 0
mask (NaN is kept).  An entry of 2**63 or more raises OverflowError where a
series is built or composed, and degrees are summed in intp only while
max_degree fits.  One helper checks each scalar input: _check_count returns
a count as a plain int (no numpy integer reaches a key or a result), and
_check_unit, _check_below_one and _check_positive refuse values outside
[0, 1], [0, 1) and (0, inf).  _indices yields each (n, k)'s keys in
lexicographic order; no tables are kept.

Derivative and product keep one order, and the bits of their results rest on
it: the contributions to a key are added in source-term order (for the
product, self's terms outer and other's inner), one at a time to a running
value that starts at 0j, and the keys come in the order of their first
contribution.  A term loop over the keys themselves gives the same bits.

Evaluation has fixed bits.  f(z) is the sum, in key order, of one term per
key: a_alpha times z_j^e_j for j = 1..n in turn, z_j^e from the table
1+0j, (1+0j)*z_j, ... of repeated Python complex products, skipping e_j = 0
(a factor 1+0j would flip signed zeros and turn inf into nan), added one by
one to 0j.  eval_many does this for many points at once on float64 arrays:
each complex product is CPython's (ar*br - ai*bi, ar*bi + ai*br) as separate
real ufuncs, and the sum is np.add.accumulate over [0.0, terms...] (numpy's
complex multiply and pairwise np.sum would differ in the last bit).  eval(z)
is eval_many([z])[0].

The majorant sum has fixed bits too: each term is CPython's abs(a_alpha),
taken by np.hypot on the parts (_moduli; np.abs may round differently), times
r_j ** alpha_j for j = 1..n in turn,
added in key order to 0.0 by np.add.accumulate.  Each r_j ** e is a Python
float power taken once per exponent present, so an overflow raises
OverflowError and nothing is sized by the degree; a factor r_j ** 0 == 1.0
leaves a term's bits.

directional_derivative keeps the term loop's bits on float64 arrays too.  Its
contributions are the nonzero entries of exps in (alpha, j) order, each
CPython's (a_alpha * complex(alpha_j, 0.0)) * u_j as separate real ufuncs.
In base B = D + 1, alpha has the code sum_j alpha_j B^(n-j) (int64 while B^n
fits, else Python ints), so alpha - e_j is a code minus a place value.  A
stable sort groups the contributions by code in source order, np.add.at adds
each group to 0.0, and the result's rows are the first contributions' rows
minus e_j, in that order.  __add__ merges by the same codes: self's rows,
then other's new rows (0j + c), a shared row holding self's value plus
other's.  The codes are sized by the terms present, never by the degree.

numpy is imported where the columns are built or read, not at module top, so
radii and mvseries import without it (the package needs it anyway).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, repeat
from operator import sub


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


# eval_many's points go in blocks so that no temporary array holds more than
# about this many elements (points times terms + 1).  About ten are live at
# once: 1 << 14 keeps them near 1 MiB in all; 1 << 16 raised the series
# workload's peak RSS by about 4 MiB and was no faster
_EVAL_BLOCK = 1 << 14
# directional_derivative sums its contributions in blocks of this many: 1 << 14
# raised the series workload's peak RSS by about 2 MiB and was no faster
_SUM_BLOCK = 1 << 12


class MultiIndex(tuple):
    """Exponent tuple of a monomial z^alpha; entries are nonnegative integers.
    No __dict__: a key takes the memory of a plain tuple of its entries."""

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
    order, one at a time.  A nondecreasing c_1 <= ... <= c_(n-1) in 0..k
    gives the entries c_1, c_2 - c_1, ..., k - c_(n-1), and
    combinations_with_replacement yields the c in lexicographic order of the
    entries.  No recursion bounds n."""
    # from a list: a tuple grown from an iterator keeps its first, larger block
    return (tuple.__new__(MultiIndex, [*map(sub, (*c, k), (0, *c))])
            for c in combinations_with_replacement(range(k + 1), n - 1))


def _codes(exps, base: int) -> tuple:
    """(codes, places): each row's code sum_j e_j base^(n-j), and the place
    values, as int64 while base^n fits, else as Python ints."""
    import numpy as np

    n = exps.shape[1]
    kind = np.int64 if base ** n <= np.iinfo(np.int64).max else object
    places = np.array([base ** (n - 1 - j) for j in range(n)], kind)
    return exps.astype(kind, copy=False) @ places, places


def _moduli(values):
    """|c| for each complex c of values, float64, in one np.hypot pass: the
    bits of CPython's abs, which raises OverflowError where a finite value's
    modulus overflows, and so does this."""
    import numpy as np

    with np.errstate(over="ignore"):
        moduli = np.hypot(values.real, values.imag)
    if not np.isfinite(moduli).all() and np.isfinite(values[np.isinf(moduli)]).any():
        raise OverflowError("absolute value too large")
    return moduli


def multi_indices(n_vars: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices with n_vars entries and total degree exactly `degree`,
    in lexicographic order, as MultiIndex keys of plain ints, one at a time."""
    return _indices(_check_count("n_vars", n_vars, 1), _check_count("degree", degree, 0))


@dataclass(frozen=True)
class Direction:
    """Direction u with sum_j |u_j| = 1 (complex entries allowed); vectors off
    that simplex by more than 1e-12 are rejected, not renormalized."""

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
    """The componentwise power map omega(z) = (z_1^m, ..., z_n^m): each
    component fixes 0 and maps the unit disc into itself, and the radius
    bounds are attained along this family."""

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


class _Coeffs(Mapping):
    """A series' coefficients, MultiIndex -> complex in key order, read-only:
    it holds the columns, never the series (a cycle would wait for the cyclic
    collector).  len is free; the dict is built on the first key access."""

    __slots__ = ("_exps", "_values", "_dict")

    def __init__(self, exps, values):
        self._exps, self._values, self._dict = exps, values, None

    def _mapping(self) -> dict:
        if self._dict is None:
            keys = map(tuple.__new__, repeat(MultiIndex), self._exps.tolist())
            self._dict = dict(zip(keys, self._values.tolist()))
        return self._dict

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, alpha) -> complex:
        return self._mapping()[alpha]

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self._mapping())


class TruncatedSeries:
    """Sparse polynomial truncation of a power series in n_vars variables."""

    __slots__ = ("n_vars", "max_degree", "exps", "values", "coeffs", "__weakref__")

    def __init__(self, n_vars: int, max_degree: int, coeffs: Mapping):
        import numpy as np

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
        exps = np.fromiter(chain.from_iterable(clean), np.intp, len(clean) * n_vars)
        self._adopt(n_vars, max_degree, exps.reshape(len(clean), n_vars),
                    np.fromiter(clean.values(), complex, len(clean)))

    @classmethod
    def _trusted(cls, n_vars: int, max_degree: int, exps, values) -> "TruncatedSeries":
        """A series on columns built from checked rows, taken over: exps
        (terms x n_vars) intp, values complex128.  Only exact zeros drop."""
        return cls.__new__(cls)._adopt(n_vars, max_degree, exps, values)

    def _adopt(self, n_vars: int, max_degree: int, exps, values) -> "TruncatedSeries":
        keep = values != 0  # True for NaN: NaN is kept, as a c == 0 test keeps it
        if not keep.all():
            exps, values = exps[keep], values[keep]
        exps.flags.writeable = values.flags.writeable = False
        self.n_vars, self.max_degree, self.exps, self.values = n_vars, max_degree, exps, values
        self.coeffs = _Coeffs(exps, values)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, n_vars: int) -> "TruncatedSeries":
        return cls(n_vars, 0, {(0,) * n_vars: value})

    # -- plumbing ----------------------------------------------------------

    def coefficient(self, alpha) -> complex:
        """a_alpha, or 0 if the monomial is absent."""
        import numpy as np

        idx = _check_index(alpha, self.n_vars)
        if max(idx) <= sys.maxsize:  # no row holds an entry past intp
            # a column at a time: all(axis=1) is slower
            hit = np.flatnonzero(np.logical_and.reduce([c == e for c, e in zip(self.exps.T, idx)]))
            if hit.size:
                return self.values[hit[0]].item()
        return 0j

    def degree_slice(self, k: int) -> dict:
        """The homogeneous degree-k part as a dict."""
        _check_count("k", k, 0)
        return {a: c for a, c in self.coeffs.items() if a.degree == k}

    def _below(self, k: int):
        """A bool mask of the rows of degree below k.  The degrees are summed
        in intp only while max_degree fits, else in Python ints: no wrap."""
        import numpy as np

        if k > self.max_degree:  # every row
            return np.ones(len(self.values), bool)
        if self.max_degree <= sys.maxsize:
            return sum(self.exps.T) < k  # column sums: sum(axis=1) is slower
        return np.array([sum(row) < k for row in self.exps.tolist()], bool)

    def __repr__(self) -> str:
        return (f"TruncatedSeries(n_vars={self.n_vars}, "
                f"max_degree={self.max_degree}, terms={len(self.values)})")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.n_vars != self.n_vars:
            raise ValueError("variable count mismatch")
        import numpy as np

        degree = max(self.max_degree, other.max_degree)
        codes = np.concatenate([_codes(s.exps, degree + 1)[0] for s in (self, other)])
        # a code appears at most once per side, so a shared one is two neighbours
        order = np.argsort(codes)
        same = np.flatnonzero(codes[order[1:]] == codes[order[:-1]])
        mine, theirs = np.sort([order[same], order[same + 1]], axis=0)
        theirs -= len(self.values)
        values = np.concatenate((self.values, 0j + np.delete(other.values, theirs)))
        values[mine] += other.values[theirs]
        exps = np.concatenate((self.exps, np.delete(other.exps, theirs, axis=0)))
        return TruncatedSeries._trusted(self.n_vars, degree, exps, values)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.multiply(other)
        import numpy as np

        values = np.array([complex(c * other) for c in self.values.tolist()], complex)
        return TruncatedSeries._trusted(self.n_vars, self.max_degree, self.exps, values)

    __rmul__ = __mul__

    # -- operations --------------------------------------------------------

    def eval(self, z) -> complex:
        """f(z) for a point z with n_vars coordinates."""
        return self.eval_many((z,))[0]

    def eval_many(self, points) -> list:
        """[f(z) for z in points], each with the term loop's bits (module
        docstring).  Points go in blocks of max(1, _EVAL_BLOCK // (terms + 1)),
        so an array over the terms holds at most max(_EVAL_BLOCK, terms + 1)
        elements; each point's power tables hold n (top + 1) more, top the
        largest exponent present.
        """
        import numpy as np

        n, count, exps, coeffs = self.n_vars, len(self.values), self.exps, self.values
        top = int(exps.max(initial=0))  # the largest exponent present
        moves = [exps[:, j] != 0 for j in range(n)]
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
        """Cauchy product, of degree D1 + D2: a term loop over the mappings
        in the order the module docstring sets out."""
        if other.n_vars != self.n_vars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple([x + y for x, y in zip(a, b)])
                out[key] = out.get(key, 0j) + ca * cb
        return TruncatedSeries(self.n_vars, self.max_degree + other.max_degree, out)

    def directional_derivative(self, direction: Direction) -> "TruncatedSeries":
        """d_u f = sum_j u_j df/dz_j for a unit-l1 direction u, with the bits
        of the term loop over (alpha, then j = 1..n) set out in the module
        docstring."""
        import numpy as np

        if direction.n_vars != self.n_vars:
            raise ValueError("direction dimension mismatch")
        n, exps = self.n_vars, self.exps
        codes, places = _codes(exps, self.max_degree + 1)
        flat = np.flatnonzero(exps)  # the contributions, in (alpha, j) order
        targets = np.subtract.outer(codes, places).ravel()[flat]
        # a stable sort groups them by key, each group in source order
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        head = np.ones(len(targets), bool)
        head[1:] = targets[1:] != targets[:-1]
        # each temporary goes once used: together they would set the peak RSS
        del targets, codes
        flat, rank = flat[order], np.argsort(order[head])  # rank: by first contribution
        del order
        slot = np.cumsum(head)
        slot -= 1  # each contribution's key
        u = np.array(direction.components, complex)
        sums = np.zeros(np.count_nonzero(head), complex)
        with np.errstate(all="ignore"):  # inf * 0.0 is nan, as in Python
            for start in range(0, len(flat), _SUM_BLOCK):
                part = slice(start, start + _SUM_BLOCK)
                rows, cols = np.divmod(flat[part], n)
                c, w, e = self.values[rows], u[cols], exps.ravel()[flat[part]].astype(float)
                # CPython's (c * complex(e, 0.0)) * w, one float64 ufunc at a time
                pr, pi = c.real * e - c.imag * 0.0, c.real * 0.0 + c.imag * e
                # add.at adds in index order: each key's sum runs in source order
                np.add.at(sums.real, slot[part], pr * w.real - pi * w.imag)
                np.add.at(sums.imag, slot[part], pr * w.imag + pi * w.real)
        del slot
        # each row of the result: its first contribution's row minus e_j
        rows, cols = np.divmod(flat[head][rank], n)
        out = exps[rows]
        out[np.arange(len(rows)), cols] -= 1
        return TruncatedSeries._trusted(n, max(self.max_degree - 1, 0), out, sums[rank])

    def compose_power_map(self, omega: SchwarzPowerMap) -> "TruncatedSeries":
        """Substitute z_j -> z_j^m: degree m * D, the rows m alpha in the
        source's order and the source's values; m * entry >= 2**63 raises
        OverflowError."""
        if omega.n_vars != self.n_vars:
            raise ValueError("power map dimension mismatch")
        m, exps = omega.power, self.exps
        top = int(exps.max(initial=0))
        if top > sys.maxsize // m:
            raise OverflowError(f"entry {top} times power {m} exceeds intp's {sys.maxsize}")
        if top and m > 1:
            exps = exps * m
        return TruncatedSeries._trusted(self.n_vars, m * self.max_degree, exps, self.values)

    def bohr_majorant_sum(self, r, k_min: int = 0) -> float:
        """sum over |alpha| >= k_min of |a_alpha| r^alpha, for r >= 0.

        r is a scalar (for every variable) or a vector of length n_vars;
        the sum is compared against 1 in Bohr-type inequalities.  It has the
        term loop's bits (module docstring); a term below k_min takes no power.
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
        exps, values = self.exps, self.values
        if k_min:
            keep = ~self._below(k_min)
            exps, values = exps[keep], values[keep]
        # the 0.0 the sum starts from, then each |a_alpha|
        row = np.concatenate(([0.0], _moduli(values)))
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
