"""Series engine tests: exact algebra, Mobius oracles, calculus properties."""

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from polybohr import (Direction, MultiIndex, SchwarzPowerMap, TruncatedSeries,
                      multi_indices, mvseries)
from polybohr.extremal import ExtremalParams, extremal_series


def mobius_coeffs(a, n, max_degree):
    """Expansion of (a - s)/(1 - a s), s = z_1 + ... + z_n, built from scratch.

    Constant a; for |alpha| = k >= 1 the coefficient is
    -(1 - a^2) a^(k-1) k!/alpha!.  Kept local so these tests do not depend on
    the package's own witness-series builder.
    """
    coeffs = {(0,) * n: a}
    for k in range(1, max_degree + 1):
        for alpha in multi_indices(n, k):
            mult = math.factorial(k)
            for e in alpha:
                mult //= math.factorial(e)
            coeffs[alpha] = -(1 - a * a) * a ** (k - 1) * mult
    return coeffs


def random_series(rng, n, max_degree, scale=1.0):
    coeffs = {}
    for k in range(max_degree + 1):
        for alpha in multi_indices(n, k):
            re, im = rng.uniform(-scale, scale, size=2)
            coeffs[alpha] = complex(re, im)
    return TruncatedSeries(n, max_degree, coeffs)


def compositions(n, k):
    """The n-tuples of total k in lexicographic order, by plain recursion.

    The package's own enumeration before its key tables were cached, kept
    as the reference for their order.
    """
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(n - 1, k - first):
            yield (first,) + rest


def family_bits(a, n, top):
    """(alpha, repr(coefficient)) of f_a up to degree top, from the formula."""
    out = [((0,) * n, repr(complex(a)))]
    for k in range(1, top + 1):
        for alpha in compositions(n, k):
            mult = math.factorial(k) // MultiIndex(alpha).factorial
            out.append((alpha, repr(complex(-(1 - a * a) * a ** (k - 1) * mult))))
    return out


def series_bits(s):
    assert all(type(c) is complex for c in s.coeffs.values())
    return [(tuple(alpha), repr(c)) for alpha, c in s.coeffs.items()]


# -- MultiIndex ----------------------------------------------------------------

def test_multi_index_degree_and_factorial():
    idx = MultiIndex((3, 0, 2))
    assert idx.degree == 5
    assert idx.factorial == 12
    assert idx.n_vars == 3
    assert MultiIndex((0,)).factorial == 1
    # exact big-integer factorials, no overflow
    assert MultiIndex((20,)).factorial == math.factorial(20)


def test_multi_index_rejects_bad_entries():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        MultiIndex((0.5,))
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((math.inf,))


def test_multi_indices_enumeration_and_multinomial_sum():
    assert sorted(multi_indices(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    for n in (1, 2, 3, 4):
        for k in (0, 1, 2, 5, 8):
            idxs = list(multi_indices(n, k))
            assert len(idxs) == math.comb(k + n - 1, n - 1)
            total = sum(math.factorial(k) // a.factorial for a in idxs)
            assert total == n ** k  # multinomial theorem at z = (1, ..., 1)


def test_multi_indices_match_the_sorted_product_oracle():
    # an enumeration that shares nothing with the package: every n-tuple over
    # 0..k, filtered to total k, in lexicographic order
    for n in (1, 2, 3, 4):
        for k in range(9):
            oracle = sorted(t for t in itertools.product(range(k + 1), repeat=n)
                            if sum(t) == k)
            assert list(multi_indices(n, k)) == oracle, (n, k)
            assert list(compositions(n, k)) == oracle, (n, k)


def test_multi_indices_are_not_bounded_by_the_recursion_limit():
    # a recursive enumeration needs one frame per variable or more
    n = 3 * sys.getrecursionlimit()
    assert list(multi_indices(n, 0)) == [(0,) * n]


def test_multi_indices_returns_a_fresh_iterator_each_call():
    # exhausting one call's iterator must not shorten the next call's
    first = multi_indices(3, 4)
    assert len(list(first)) == 15
    assert list(first) == []
    assert len(list(multi_indices(3, 4))) == 15


def test_multi_indices_of_numpy_counts_are_plain_ints():
    for n, k in ((np.int64(1), np.int64(5)), (np.int64(3), np.int64(4)), (2, np.int32(3))):
        keys = list(multi_indices(n, k))
        assert keys == list(multi_indices(int(n), int(k)))
        assert all(type(key) is MultiIndex for key in keys)
        assert all(type(e) is int for key in keys for e in key)


def test_multi_indices_keeps_no_table_after_a_walk():
    # a walk of 40920 keys of 30 entries must not pin them (about 12 MiB) for
    # the process; only extremal_series keeps its tables
    cached = mvseries._indices.cache_info().currsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in multi_indices(30, 4)) == math.comb(33, 4)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert mvseries._indices.cache_info().currsize == cached
    assert retained < 1 << 20


def test_extremal_series_has_the_formula_bits_on_a_cold_cache():
    # a fresh interpreter whose key and multinomial tables are emptied before
    # each case, so every extremal_series call here builds them itself
    tests = Path(__file__).resolve().parent
    script = (
        "from polybohr import ExtremalParams, extremal, extremal_series, mvseries\n"
        "from test_mvseries import family_bits, series_bits\n"
        "tables = (mvseries._indices, extremal._multinomials)\n"
        "assert [t.cache_info().currsize for t in tables] == [0, 0]\n"
        "for n in (1, 2, 3):\n"
        "    for top in (24, 40):\n"
        "        for t in tables:\n"
        "            t.cache_clear()\n"
        "        got = series_bits(extremal_series(ExtremalParams(0.37, n, 1), top))\n"
        "        assert got == family_bits(0.37, n, top), (n, top)\n"
        "print('ok')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_extremal_series_has_the_formula_bits_on_repeated_calls():
    for n in (1, 2, 3):
        for top in (24, 40):
            for a in (0.37, 0.91):
                expected = family_bits(a, n, top)
                params = ExtremalParams(a, n, 1)
                first = extremal_series(params, top)
                again = extremal_series(params, top)
                assert series_bits(first) == expected, (n, top, a)
                assert series_bits(again) == expected, (n, top, a)
                # each call still returns its own coefficient dict
                assert first.coeffs is not again.coeffs


# -- construction --------------------------------------------------------------

def test_series_drops_zeros_and_reports_missing_as_zero():
    s = TruncatedSeries(2, 3, {(1, 0): 2.0, (0, 1): 0.0})
    assert len(s.coeffs) == 1
    assert s.coefficient((0, 1)) == 0
    assert s.coefficient((1, 0)) == 2.0


def test_series_rejects_bad_indices():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(1,): 1.0})  # wrong arity
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(2, 2): 1.0})  # beyond max_degree
    with pytest.raises(ValueError):
        TruncatedSeries(0, 3, {})
    with pytest.raises(ValueError):
        TruncatedSeries(2, -1, {})
    # coefficient() checks the length as the constructor does
    s = TruncatedSeries(2, 2, {(1, 1): 1})
    with pytest.raises(ValueError, match=r"^index \(1,\) has 1 entries, expected 2$"):
        s.coefficient((1,))
    with pytest.raises(ValueError, match=r"^index \(1, 0, 0\) has 3 entries, expected 2$"):
        s.coefficient((1, 0, 0))


def test_degree_slice():
    s = TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    assert s.degree_slice(1) == {(1, 0): 2, (0, 1): 3}
    assert s.degree_slice(2) == {(1, 1): 4}


# -- internal results: keys are trusted, exact zeros still dropped --------------

def test_internal_results_drop_exact_zeros():
    f = random_series(np.random.default_rng(5), 2, 3)
    assert (f - f).coeffs == {}
    assert (0 * f).coeffs == {}
    one_plus = TruncatedSeries(1, 1, {(0,): 1, (1,): 1})
    one_minus = TruncatedSeries(1, 1, {(0,): 1, (1,): -1})
    prod = one_plus.multiply(one_minus)
    assert prod.coeffs == {(0,): 1, (2,): -1}  # no z term


def test_internal_keys_are_multi_indices_of_plain_ints():
    f = random_series(np.random.default_rng(6), 2, 4)
    built = {
        "multiply": f.multiply(f),
        "directional_derivative": f.directional_derivative(Direction.uniform(2)),
        "compose_power_map": f.compose_power_map(SchwarzPowerMap(2, np.int64(3))),
        "add": f + f,
        "scale": np.float64(2.0) * f,
        "extremal_series": extremal_series(ExtremalParams(0.5, 2, 1), np.int64(6)),
    }
    for name, s in built.items():
        assert s.coeffs, name
        for key, c in s.coeffs.items():
            assert type(key) is MultiIndex, name
            assert all(type(e) is int for e in key), (name, key)
            assert type(c) is complex, (name, c)
    composed = built["compose_power_map"]
    assert type(composed.max_degree) is int
    assert composed.coeffs == f.compose_power_map(SchwarzPowerMap(2, 3)).coeffs
    assert all(type(e) is int for idx in multi_indices(1, np.int64(3)) for e in idx)
    omega = SchwarzPowerMap(1, np.int64(3))
    assert type(omega.power) is int and type(omega.n_vars) is int
    assert all(type(w) is complex for w in omega.apply((0.5,)))


# -- eval ----------------------------------------------------------------------

def test_eval_univariate_mobius_truncation():
    # (0.5 - z)/(1 - 0.5 z) at z = 0.2 is exactly 1/3; degree-8 truncation
    # carries a tail below 2e-9
    s = TruncatedSeries(1, 8, mobius_coeffs(0.5, 1, 8))
    assert abs(s.eval((0.2,)) - (0.5 - 0.2) / (1 - 0.1)) < 1e-6


def test_eval_exact_polynomial():
    one_plus = TruncatedSeries(1, 1, {(0,): 1, (1,): 1})
    one_minus = TruncatedSeries(1, 1, {(0,): 1, (1,): -1})
    prod = one_plus.multiply(one_minus)
    assert prod.coeffs == TruncatedSeries(1, 2, {(0,): 1, (2,): -1}).coeffs
    z = 0.3 + 0.4j
    assert prod.eval((z,)) == 1 - z * z


def test_eval_dimension_mismatch():
    s = TruncatedSeries(2, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        s.eval((0.1,))


def test_eval_linearity():
    rng = np.random.default_rng(7)
    s1 = random_series(rng, 2, 4)
    s2 = random_series(rng, 2, 4)
    z = (0.3 - 0.2j, -0.1 + 0.25j)
    combo = s1 + 2.5 * s2
    assert abs(combo.eval(z) - (s1.eval(z) + 2.5 * s2.eval(z))) < 1e-12


def term_loop_eval(series, z):
    """The sequential term loop that eval_many must reproduce bit for bit."""
    if len(z) != series.n_vars:
        raise ValueError(f"expected {series.n_vars} coordinates, got {len(z)}")
    # per-variable power tables z_j^0 .. z_j^D; no exponent exceeds D
    top = series.max_degree
    pows = []
    for v in z:
        table = [1 + 0j] * (top + 1)
        zj = complex(v)
        for e in range(1, top + 1):
            table[e] = table[e - 1] * zj
        pows.append(table)
    total = 0j
    for alpha, c in series.coeffs.items():
        term = c
        for j, e in enumerate(alpha):
            if e:
                term *= pows[j][e]
        total += term
    return total


EDGE_PARTS = (0.0, -0.0, 1.0, -1.5, 1e300, -1e300, 1e-300, -1e-300,
              math.inf, -math.inf, math.nan)


def edge_series(rng, n, max_degree, terms):
    """Up to `terms` random keys; each coefficient part is often an edge value."""
    def part():
        return rng.choice(EDGE_PARTS) if rng.random() < 0.4 else rng.uniform(-2.0, 2.0)

    coeffs = {}
    for _ in range(terms):
        k = rng.randint(0, max_degree)
        cuts = sorted(rng.randint(0, k) for _ in range(n - 1))
        coeffs[tuple(b - a for a, b in zip([0] + cuts, cuts + [k]))] = complex(part(), part())
    return TruncatedSeries(n, max_degree, coeffs)


def edge_point(rng, n):
    return tuple(complex(rng.choice((0.0, -0.0, 0.5, -0.7, 1.3, 1e-200, 1e200,
                                     rng.uniform(-1.2, 1.2))),
                         rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0))))
                 for _ in range(n))


def test_eval_many_has_the_bits_of_the_term_loop():
    rng = random.Random(2025)
    evaluations = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(700):
            n, top = rng.randint(1, 4), rng.randint(0, 40)
            series = edge_series(rng, n, top, rng.randint(0, 30))
            points = [edge_point(rng, n) for _ in range(3)]
            want = [repr(term_loop_eval(series, z)) for z in points]
            assert [repr(v) for v in series.eval_many(points)] == want
            assert [repr(series.eval(z)) for z in points] == want
            evaluations += len(points)
    assert evaluations >= 2000
    assert caught == []


def test_eval_many_blocks_do_not_change_the_bits(monkeypatch):
    # a block of 2 or 3 points per array pass: block edges fall between points
    rng = random.Random(7)
    monkeypatch.setattr(mvseries, "_EVAL_BLOCK", 64)
    for terms in (20, 30):
        series = edge_series(rng, 3, 12, terms)
        points = [edge_point(rng, 3) for _ in range(11)]
        assert ([repr(v) for v in series.eval_many(points)]
                == [repr(term_loop_eval(series, z)) for z in points])


def test_eval_many_empty_cases():
    assert TruncatedSeries(2, 3, {}).eval((0.5, -0.25j)) == 0j
    assert repr(TruncatedSeries(1, 0, {}).eval_many([(0.5,), (2.0,)])) == "[0j, 0j]"
    assert TruncatedSeries(2, 1, {(1, 0): 1}).eval_many([]) == []
    assert TruncatedSeries(2, 1, {(1, 0): 1}).eval_many(iter([(2.0, 0.0)])) == [2 + 0j]


@pytest.mark.parametrize("point, message", [
    ((0.1,), "expected 2 coordinates, got 1"),
    ((0.1, 0.2, 0.3), "expected 2 coordinates, got 3"),
    ((0.1, "1+"), "complex() arg is a malformed string"),
], ids=["short", "long", "malformed"])
def test_eval_many_bad_points_raise_the_errors_eval_raised(point, message):
    s = TruncatedSeries(2, 1, {(1, 0): 1})
    for call in (lambda: s.eval(point), lambda: s.eval_many([(0.5, 0.5), point]),
                 lambda: term_loop_eval(s, point)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


# -- multiply ------------------------------------------------------------------

def test_multiply_multinomial_square():
    s = TruncatedSeries(2, 1, {(1, 0): 1, (0, 1): 1})
    sq = s.multiply(s)
    assert sq.max_degree == 2
    assert sq.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_multiply_degree_adds():
    s = TruncatedSeries(1, 3, {(0,): 1, (3,): 1})
    full = s.multiply(s)
    assert full.max_degree == 6
    assert full.coefficient((6,)) == 1


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries(1, 1, {(1,): 1}).multiply(TruncatedSeries(2, 1, {(1, 0): 1}))


# -- directional derivative ------------------------------------------------------

def test_direction_validation():
    with pytest.raises(ValueError):
        Direction((0.5, 0.4))  # l1 norm 0.9: rejected, not renormalized
    with pytest.raises(ValueError):
        Direction(())
    u = Direction.uniform(3)
    assert abs(sum(abs(c) for c in u.components) - 1.0) <= 1e-12
    # complex directions on the simplex are fine
    Direction((0.5j, -0.5))


def test_directional_derivative_univariate_mobius():
    # d/dz (a - z)/(1 - a z) = -(1 - a^2)/(1 - a z)^2
    a = 0.5
    s = TruncatedSeries(1, 10, mobius_coeffs(a, 1, 10))
    ds = s.directional_derivative(Direction((1.0,)))
    z = 0.2
    exact = -(1 - a * a) / (1 - a * z) ** 2
    assert abs(ds.eval((z,)) - exact) < 1e-5
    assert ds.max_degree == 9


def test_directional_derivative_leibniz():
    rng = np.random.default_rng(11)
    f = random_series(rng, 2, 3)
    g = random_series(rng, 2, 3)
    u = Direction((0.25, 0.75))
    lhs = f.multiply(g).directional_derivative(u)
    rhs = f.multiply(g.directional_derivative(u)) + g.multiply(f.directional_derivative(u))
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    for alpha in keys:
        assert abs(lhs.coefficient(alpha) - rhs.coefficient(alpha)) < 1e-12


def test_directional_derivative_finite_difference():
    rng = np.random.default_rng(23)
    h = 1e-5
    for n in (1, 2, 3):
        f = random_series(rng, n, 6)
        raw = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
        u = Direction(tuple(raw / np.sum(np.abs(raw))))
        z = tuple((rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)) for _ in range(n))
        zp = tuple(zj + h * uj for zj, uj in zip(z, u.components))
        zm = tuple(zj - h * uj for zj, uj in zip(z, u.components))
        fd = (f.eval(zp) - f.eval(zm)) / (2 * h)
        assert abs(f.directional_derivative(u).eval(z) - fd) < 1e-8


def test_directional_derivative_dimension_mismatch():
    s = TruncatedSeries(2, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        s.directional_derivative(Direction((1.0,)))


# -- power-map composition -------------------------------------------------------

def test_compose_power_map_degree_bookkeeping():
    s = TruncatedSeries(2, 3, {(1, 0): 1, (1, 2): 2})
    g = s.compose_power_map(SchwarzPowerMap(2, 3))
    assert g.max_degree == 9
    assert g.coeffs == {(3, 0): 1, (3, 6): 2}


def test_compose_power_map_value_identity():
    rng = np.random.default_rng(31)
    s = random_series(rng, 2, 4)
    omega = SchwarzPowerMap(2, 2)
    z = (0.4 - 0.3j, 0.2 + 0.5j)
    assert abs(s.compose_power_map(omega).eval(z) - s.eval(omega.apply(z))) < 1e-12


def test_compose_power_map_mobius_oracle():
    # degree-4 truncation of the a=0.5 Mobius map, composed with z -> z^2,
    # evaluated at 0.3: tail is about 3e-7
    a = 0.5
    s = TruncatedSeries(1, 4, mobius_coeffs(a, 1, 4))
    g = s.compose_power_map(SchwarzPowerMap(1, 2))
    w = 0.3 ** 2
    assert abs(g.eval((0.3,)) - (a - w) / (1 - a * w)) < 1e-6


def test_compose_power_map_dimension_mismatch():
    s = TruncatedSeries(1, 4, {(4,): 1})
    with pytest.raises(ValueError):
        s.compose_power_map(SchwarzPowerMap(2, 2))


def test_schwarz_power_map_validation():
    with pytest.raises(ValueError):
        SchwarzPowerMap(0, 1)
    with pytest.raises(ValueError):
        SchwarzPowerMap(1, 0)
    assert SchwarzPowerMap(2, 3).apply((0.1, 0.2j)) == (0.1 ** 3, (0.2j) ** 3)


# -- Bohr majorant sum -----------------------------------------------------------

def test_bohr_majorant_sum_minus_z():
    s = TruncatedSeries(1, 1, {(1,): -1})
    assert s.bohr_majorant_sum(1 / 3) == pytest.approx(1 / 3, abs=1e-15)


def test_bohr_majorant_sum_geometric_oracle():
    # a + (1 - a^2) sum_{k=1}^{60} a^(k-1) r^k for a = 0.99, r = 1/3;
    # stays strictly below 1
    a, r, D = 0.99, 1 / 3, 60
    s = TruncatedSeries(1, D, mobius_coeffs(a, 1, D))
    oracle = a + (1 - a * a) * sum(a ** (k - 1) * r ** k for k in range(1, D + 1))
    got = s.bohr_majorant_sum(r)
    assert abs(got - oracle) < 1e-12
    assert got < 1.0


def test_bohr_majorant_sum_k_min_tail():
    a, r, D = 0.7, 0.25, 12
    s = TruncatedSeries(1, D, mobius_coeffs(a, 1, D))
    full = s.bohr_majorant_sum(r)
    tail = s.bohr_majorant_sum(r, k_min=2)
    head = a + (1 - a * a) * r  # degrees 0 and 1
    assert abs(full - tail - head) < 1e-13


def test_bohr_majorant_sum_monotone():
    rng = np.random.default_rng(43)
    s = random_series(rng, 2, 5)
    assert s.bohr_majorant_sum(0.2) <= s.bohr_majorant_sum(0.3) + 1e-15
    assert s.bohr_majorant_sum(0.3, k_min=3) <= s.bohr_majorant_sum(0.3, k_min=1) + 1e-15


def test_bohr_majorant_sum_vector_radius_and_errors():
    s = TruncatedSeries(2, 2, {(1, 0): 1, (0, 1): 2})
    assert s.bohr_majorant_sum((0.1, 0.2)) == pytest.approx(0.1 + 0.4, abs=1e-15)
    with pytest.raises(ValueError):
        s.bohr_majorant_sum(-0.1)
    with pytest.raises(ValueError):
        s.bohr_majorant_sum((0.1,))


@pytest.mark.parametrize("k_min", [-1, "2", 1.0, True], ids=["negative", "string", "float", "bool"])
def test_bohr_majorant_sum_refuses_a_k_min_that_is_not_a_count(k_min):
    # -1 used to sum every term, as k_min = 0 does, and "2" raised TypeError
    s = TruncatedSeries(2, 2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError, match="k_min must be an integer >= 0"):
        s.bohr_majorant_sum(0.1, k_min=k_min)
    assert s.bohr_majorant_sum(0.1, k_min=np.int64(2)) == 0.0
