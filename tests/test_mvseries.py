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

from polybohr import (Direction, Functional, FunctionalKind, MultiIndex, RadiusProblem,
                      SchwarzPowerMap, TruncatedSeries, extremal, extremal_functional,
                      multi_indices, mvseries, sharpness_witness)
from polybohr.extremal import ExtremalParams, extremal_series
from _reference import (reference_bohr_majorant_sum, reference_compose_power_map,
                        reference_directional_derivative, reference_multiply)


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

    An earlier enumeration of the package's, kept as the reference for the
    order of multi_indices.
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


def test_multi_index_has_a_plain_tuples_size():
    # __slots__ = (): no __dict__, so a key takes the bytes of a plain tuple
    for entries in ((3,), (3, 0, 2), (1, 2, 3, 4, 5)):
        idx = MultiIndex(entries)
        assert not hasattr(idx, "__dict__")
        assert sys.getsizeof(idx) == sys.getsizeof(entries)
    with pytest.raises(AttributeError):
        MultiIndex((1, 2)).label = "x"


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


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, -1],
                         ids=["bool", "numpy-bool", "float", "negative"])
def test_check_count_refuses_what_is_not_a_count(value):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got "):
        mvseries._check_count("n", value, 0)


def test_check_count_returns_a_plain_int():
    big = 10 ** 30
    assert mvseries._check_count("n", big, 0) is big
    for value in (np.int8(3), np.int64(3), np.uint16(3)):
        out = mvseries._check_count("n", value, 0)
        assert type(out) is int and out == 3


_CONVEX, _DERIV = FunctionalKind.CONVEX, FunctionalKind.DERIV
_EMPTY = TruncatedSeries(2, 1, {})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: RadiusProblem(_CONVEX, 1, 1, t=math.nan),
                 "t must lie in [0, 1], got nan", id="problem-t-nan"),
    pytest.param(lambda: RadiusProblem(_CONVEX, 1, 1, t=1.5),
                 "t must lie in [0, 1], got 1.5", id="problem-t-above"),
    pytest.param(lambda: _CONVEX.polynomial(-0.5),
                 "t must lie in [0, 1], got -0.5", id="polynomial-t-below"),
    pytest.param(lambda: Functional(_CONVEX, t=math.nan),
                 "t must lie in [0, 1], got nan", id="functional-t-nan"),
    pytest.param(lambda: RadiusProblem(_DERIV, 1, 1, lam=math.nan),
                 "lam must be positive and finite, got nan", id="problem-lam-nan"),
    pytest.param(lambda: RadiusProblem(_DERIV, 1, 1, lam=0.0),
                 "lam must be positive and finite, got 0.0", id="problem-lam-zero"),
    pytest.param(lambda: FunctionalKind.SQ_DERIV.polynomial(math.inf),
                 "lam must be positive and finite, got inf", id="polynomial-lam-inf"),
    pytest.param(lambda: ExtremalParams(math.nan, 1, 1),
                 "a must lie in [0, 1), got nan", id="params-a-nan"),
    pytest.param(lambda: ExtremalParams(1.0, 1, 1),
                 "a must lie in [0, 1), got 1.0", id="params-a-one"),
    pytest.param(lambda: extremal_functional(Functional(_CONVEX, t=0.5), math.nan, 0.1),
                 "a must lie in [0, 1), got nan", id="functional-a-nan"),
    pytest.param(lambda: extremal_functional(Functional(_CONVEX, t=0.5), 1.0, 0.1),
                 "a must lie in [0, 1), got 1.0", id="functional-a-one"),
    pytest.param(lambda: sharpness_witness(RadiusProblem(_CONVEX, 1, 1, t=0.5), math.nan),
                 "delta must be positive and finite, got nan", id="witness-delta-nan"),
    pytest.param(lambda: sharpness_witness(RadiusProblem(_CONVEX, 1, 1, t=0.5), 0.0),
                 "delta must be positive and finite, got 0.0", id="witness-delta-zero"),
    pytest.param(lambda: TruncatedSeries(2, 1, {(1,): 1.0}),
                 "index (1,) has 1 entries, expected 2", id="series-index-short"),
    pytest.param(lambda: TruncatedSeries(2, 1, {MultiIndex((0, 0, 1)): 1.0}),
                 "index (0, 0, 1) has 3 entries, expected 2", id="series-index-long"),
    pytest.param(lambda: _EMPTY.coefficient(MultiIndex((1,))),
                 "index (1,) has 1 entries, expected 2", id="coefficient-index-short"),
    pytest.param(lambda: _EMPTY.coefficient((0, 0, 1)),
                 "index (0, 0, 1) has 3 entries, expected 2", id="coefficient-index-long"),
    pytest.param(lambda: TruncatedSeries(1, 1, {(math.nan,): 1}),
                 "non-integer exponent nan", id="series-index-nan"),
    pytest.param(lambda: TruncatedSeries(1, 1, {}).coefficient((math.nan,)),
                 "non-integer exponent nan", id="coefficient-index-nan"),
    pytest.param(lambda: MultiIndex((math.nan,)),
                 "non-integer exponent nan", id="multiindex-nan"),
])
def test_range_and_index_messages_are_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_radii_and_mvseries_run_without_numpy():
    # a stub package whose __init__ never runs, so that only radii and
    # mvseries load; with numpy blocked only the array passes (eval_many,
    # bohr_majorant_sum and directional_derivative) may need it
    src = Path(mvseries.__file__).resolve().parent
    script = (
        "import sys, types\n"
        "sys.modules['numpy'] = None\n"
        "package = types.ModuleType('polybohr')\n"
        f"package.__path__ = [{str(src)!r}]\n"
        "sys.modules['polybohr'] = package\n"
        "from polybohr import mvseries, radii\n"
        "problem = radii.RadiusProblem(radii.FunctionalKind.DERIV, 2, 1, lam=1.0)\n"
        "assert 0.0 < radii.radius_for(problem).radius < 1.0\n"
        "s = mvseries.TruncatedSeries(2, 2, {(1, 1): 1.0, (0, 1): 2.0})\n"
        "g = s.compose_power_map(mvseries.SchwarzPowerMap(2, 3))\n"
        "assert g.coeffs == {(3, 3): 1.0, (0, 3): 2.0}, g.coeffs\n"
        "blocked = 0\n"
        "for call in (lambda: s.directional_derivative(mvseries.Direction.uniform(2)),\n"
        "             lambda: s.eval((0.1, 0.2))):\n"
        "    try:\n"
        "        call()\n"
        "    except ImportError:\n"
        "        blocked += 1\n"
        "if blocked == 2:\n"
        "    print('ok')\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_multi_indices_of_numpy_counts_are_plain_ints():
    for n, k in ((np.int64(1), np.int64(5)), (np.int64(3), np.int64(4)), (2, np.int32(3))):
        keys = list(multi_indices(n, k))
        assert keys == list(multi_indices(int(n), int(k)))
        assert all(type(key) is MultiIndex for key in keys)
        assert all(type(e) is int for key in keys for e in key)


def test_multi_indices_keeps_no_table_after_a_walk():
    # a walk of 40920 keys of 30 entries (about 12 MiB as one table) must hold
    # one key at a time and pin nothing; only extremal._table caches tables
    assert not hasattr(mvseries._indices, "cache_info")
    cached = extremal._table.cache_info().currsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in multi_indices(30, 4)) == math.comb(33, 4)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert extremal._table.cache_info().currsize == cached
    assert retained - start < 1 << 20
    assert peak - start < 1 << 20


def test_extremal_series_has_the_formula_bits_on_a_cold_cache():
    # a fresh interpreter whose key and multinomial tables are emptied before
    # each case, so every extremal_series call here builds them itself
    tests = Path(__file__).resolve().parent
    script = (
        "from polybohr import ExtremalParams, extremal, extremal_series\n"
        "from test_mvseries import family_bits, series_bits\n"
        "assert extremal._table.cache_info().currsize == 0\n"
        "for n in (1, 2, 3):\n"
        "    for top in (24, 40):\n"
        "        extremal._table.cache_clear()\n"
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


def test_the_multinomial_table_is_a_read_only_float_array():
    # k!/alpha! as float(int), the rounding of a Python float * int; at
    # n = 3, k = 40 some exceed 2**53, so the rounding is exercised
    keys, multinomials = extremal._table(3, 40)
    assert multinomials.dtype == np.float64 and not multinomials.flags.writeable
    exact = [math.factorial(40) // alpha.factorial for alpha in keys]
    assert max(exact) > 2 ** 53
    assert multinomials.tolist() == [float(c) for c in exact]
    with pytest.raises(ValueError):
        multinomials[0] = 0.0


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


def test_a_sum_drops_its_zeros_in_place_and_keeps_the_order():
    # the sum cancels the first, a middle and the last key of its dict: the
    # others keep their order and bits, in the dict the result was built in
    f = TruncatedSeries(1, 5, {(k,): complex(k + 1, -0.5 * k) for k in range(6)})
    g = TruncatedSeries(1, 5, {(0,): -1, (2,): complex(-3, 1), (5,): complex(-6, 2.5),
                               (1,): 0.25j})
    h = f + g
    want = [((1,), complex(2.0, -0.25)), ((3,), complex(4, -1.5)), ((4,), complex(5, -2.0))]
    assert items_repr(h.coeffs) == repr(want)
    assert all(type(key) is MultiIndex for key in h.coeffs)
    assert (f - f).coeffs == {}
    coeffs = {MultiIndex((0,)): 0j, MultiIndex((1,)): 2j, MultiIndex((2,)): -0j,
              MultiIndex((3,)): 1 + 0j, MultiIndex((4,)): 0j}
    built = TruncatedSeries._trusted(1, 4, coeffs)
    assert built.coeffs is coeffs
    assert items_repr(coeffs) == repr([((1,), 2j), ((3,), 1 + 0j)])


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


def test_star_of_two_series_is_their_cauchy_product():
    rng = np.random.default_rng(11)
    f, g = random_series(rng, 2, 3), random_series(rng, 2, 2)
    prod = f * g
    assert prod.max_degree == 5
    assert prod.coeffs == f.multiply(g).coeffs


@pytest.mark.parametrize("op", [lambda s: s + 1, lambda s: s - 1], ids=["add", "sub"])
def test_adding_or_subtracting_a_number_raises_type_error(op):
    # + and - take series only; a constant goes through TruncatedSeries.constant
    with pytest.raises(TypeError):
        op(TruncatedSeries(1, 1, {(1,): 1}))


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


def test_bohr_majorant_sum_takes_no_power_of_a_skipped_term():
    # 1e10 ** 300 overflows; the term that needs it is below k_min, so the sum
    # skips it as a term loop does, and raises where a summed term needs it
    s = TruncatedSeries(2, 301, {(300, 0): 1, (0, 301): 1})
    assert s.bohr_majorant_sum((1e10, 0.5), k_min=301) == 0.5 ** 301
    with pytest.raises(OverflowError):
        s.bohr_majorant_sum((1e10, 0.5))


@pytest.mark.parametrize("k_min", [-1, "2", 1.0, True], ids=["negative", "string", "float", "bool"])
def test_bohr_majorant_sum_refuses_a_k_min_that_is_not_a_count(k_min):
    # -1 used to sum every term, as k_min = 0 does, and "2" raised TypeError
    s = TruncatedSeries(2, 2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError, match="k_min must be an integer >= 0"):
        s.bohr_majorant_sum(0.1, k_min=k_min)
    assert s.bohr_majorant_sum(0.1, k_min=np.int64(2)) == 0.0


# -- the term loops' bits --------------------------------------------------------

def sparse_coeffs(rng, n, max_degree):
    """Up to 24 random keys of degree <= max_degree, inserted in shuffled order,
    with each coefficient part +0.0, -0.0 or a random float."""
    keys = set()
    for _ in range(rng.randint(1, 24)):
        k = rng.randint(0, max_degree)
        cuts = sorted(rng.randint(0, k) for _ in range(n - 1))
        keys.add(tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, k])))
    keys = list(keys)
    rng.shuffle(keys)

    def part():
        return rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0)))
    return {alpha: complex(part(), part()) for alpha in keys}


def unit_direction(rng, n):
    """A complex direction with sum |u_j| = 1, each part +0.0, -0.0 or a
    random float before the scaling."""
    while True:
        u = [complex(*(rng.choice((0.0, -0.0, rng.uniform(-1, 1))) for _ in "ri"))
             for _ in range(n)]
        total = sum(abs(x) for x in u)
        if total > 0:
            return Direction([x / total for x in u])


def items_repr(coeffs):
    return repr(list(coeffs.items()))


def test_operations_have_the_bits_of_the_term_loops():
    # the operations against the plain loops in tests/_reference.py:
    # the same keys in the same order, every coefficient to the bit, on keys
    # inserted out of lexicographic order and signed-zero coefficient parts
    rng = random.Random(20261020)
    for _ in range(400):
        n, degree = rng.randint(1, 4), rng.randint(0, 10)
        coeffs = sparse_coeffs(rng, n, degree)
        f = TruncatedSeries(n, degree, coeffs)
        assert list(f.coeffs) == [alpha for alpha, c in coeffs.items() if c != 0]
        other_degree = rng.randint(0, 10)
        g = TruncatedSeries(n, other_degree, sparse_coeffs(rng, n, other_degree))
        u = unit_direction(rng, n)
        m = rng.randint(1, 3)
        pairs = [
            (f.directional_derivative(u),
             reference_directional_derivative(f.coeffs, degree, u.components)),
            (f.multiply(g), reference_multiply(f.coeffs, degree, g.coeffs, other_degree)),
            (f.compose_power_map(SchwarzPowerMap(n, m)),
             reference_compose_power_map(f.coeffs, degree, m)),
        ]
        for got, (want_degree, want) in pairs:
            assert got.max_degree == want_degree
            assert items_repr(got.coeffs) == items_repr(want)
            assert all(type(key) is MultiIndex and all(type(e) is int for e in key)
                       for key in got.coeffs)
        for r in (rng.random(), [rng.random() for _ in range(n)]):
            radii = r if isinstance(r, list) else [r] * n
            for k_min in range(4):
                assert (repr(f.bohr_majorant_sum(r, k_min))
                        == repr(reference_bohr_majorant_sum(f.coeffs, radii, k_min)))


def test_bohr_majorant_sum_has_the_bits_of_the_term_loop_on_edge_values():
    # coefficient parts +-0.0, +-inf and NaN; radii 0.0, inf and random floats,
    # mixed within one vector; k_min up to two past the degree; the empty
    # series.  0 * inf is NaN on both sides, and the suite's filterwarnings =
    # error fails any numpy warning
    rng = random.Random(20261021)
    specials = (0.0, -0.0, math.inf, -math.inf, math.nan)
    seen = set()
    for case in range(300):
        n, degree = rng.randint(1, 4), rng.randint(0, 10)
        keys = list(sparse_coeffs(rng, n, degree)) if case % 10 else []
        f = TruncatedSeries(n, degree, {
            alpha: complex(*(rng.choice((*specials, rng.uniform(-2.0, 2.0))) for _ in "ri"))
            for alpha in keys})
        for _ in range(3):
            radii = [rng.choice((0.0, math.inf, rng.random(), 2.0 * rng.random()))
                     for _ in range(n)]
            for r in (radii, radii[0]):
                rv = radii if isinstance(r, list) else [r] * n
                for k_min in range(degree + 3):
                    got = f.bohr_majorant_sum(r, k_min)
                    assert repr(got) == repr(reference_bohr_majorant_sum(f.coeffs, rv, k_min))
                    seen.add("nan" if got != got else "inf" if got == math.inf
                             else "zero" if got == 0.0 else "finite")
    assert seen == {"nan", "inf", "zero", "finite"}


def assert_derivative_has_the_term_loop_bits(f, u):
    """f's derivative along u against the reference loop: degree, keys, key
    order and every coefficient to the bit; a key the source has is its object."""
    got = f.directional_derivative(u)
    want_degree, want = reference_directional_derivative(f.coeffs, f.max_degree, u.components)
    assert got.max_degree == want_degree
    assert items_repr(got.coeffs) == items_repr(want)
    own = {key: key for key in f.coeffs}
    assert all(type(key) is MultiIndex and all(type(e) is int for e in key)
               and own.get(key, key) is key for key in got.coeffs)
    return got


@pytest.mark.parametrize("block", [None, 3], ids=["default-block", "block-3"])
def test_directional_derivative_has_the_bits_of_the_term_loop_on_edge_values(monkeypatch, block):
    # coefficient parts +-0.0, +-inf, NaN and +-1e308 (which a factor
    # alpha_j > 1 overflows to inf), direction parts with signed zeros, the
    # empty and the constant series; inf * 0.0 is NaN on both sides, and the
    # suite's filterwarnings = error fails any numpy warning.  A block of 3
    # puts block edges inside each key's run of contributions
    if block is not None:
        monkeypatch.setattr(mvseries, "_SUM_BLOCK", block)
    rng = random.Random(20261022)
    specials = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308)
    seen = set()
    for case in range(300):
        n, degree = rng.randint(1, 4), rng.randint(0, 10)
        keys = (list(sparse_coeffs(rng, n, degree)) if case % 10
                else [(0,) * n] if case % 20 else [])
        f = TruncatedSeries(n, degree, {
            alpha: complex(*(rng.choice((*specials, rng.uniform(-2.0, 2.0))) for _ in "ri"))
            for alpha in keys})
        for _ in range(2):
            got = assert_derivative_has_the_term_loop_bits(f, unit_direction(rng, n))
            for c in got.coeffs.values():
                seen.update("nan" if part != part else "inf" if abs(part) == math.inf
                            else "finite" for part in (c.real, c.imag))
            seen.add("empty" if not got.coeffs else "terms")
    assert seen == {"nan", "inf", "finite", "empty", "terms"}


def test_directional_derivative_has_the_bits_of_the_term_loop_past_int64_codes():
    # n = 20, D = 10: codes in base 11 reach 11**20 > 2**63, so they are
    # Python ints; and a degree past 2**63 with entries below it
    assert 11 ** 20 > 2 ** 63
    rng = random.Random(20261023)
    for _ in range(40):
        f = TruncatedSeries(20, 10, sparse_coeffs(rng, 20, 10))
        assert_derivative_has_the_term_loop_bits(f, unit_direction(rng, 20))
    wide = TruncatedSeries(2, 2 ** 63, {(2 ** 62, 2 ** 62): 1.5j, (0, 1): 2, (3, 0): -1})
    assert_derivative_has_the_term_loop_bits(wide, Direction((0.25, -0.75j)))


def test_bohr_majorant_sum_overflows_where_the_term_loop_does():
    # 1e200 ** 2 overflows a float: each call raises OverflowError exactly when
    # the term loop does, and otherwise has its bits
    def outcome(call):
        try:
            return repr(call())
        except OverflowError:
            return "OverflowError"

    s = TruncatedSeries(2, 3, {(0, 1): 0.5, (2, 0): 1j, (1, 2): -1})
    outcomes = []
    for r in (1e200, (1e200, 0.5), (0.5, 1e200), (1e200, 0.0)):
        rv = list(r) if isinstance(r, tuple) else [r] * 2
        for k_min in (0, 1, 2, 3, 4):
            got = outcome(lambda: s.bohr_majorant_sum(r, k_min))
            assert got == outcome(lambda: reference_bohr_majorant_sum(s.coeffs, rv, k_min))
            outcomes.append(got)
    assert outcomes.count("OverflowError") == 14
    assert repr(1e200 * 0.5 ** 2) in outcomes and outcomes[-1] == "0.0"


def test_an_entry_past_intp_raises_in_the_array_passes():
    # the majorant sum, eval_many and the derivative hold the entries as
    # intp: 2**63 raises
    big = TruncatedSeries(2, 2 ** 63, {(2 ** 63, 0): 1, (0, 1): 1})
    for call in (lambda: big.bohr_majorant_sum(0.5), lambda: big.eval((0.5, 0.5)),
                 lambda: big.directional_derivative(Direction.uniform(2))):
        with pytest.raises(OverflowError, match="too large to convert"):
            call()
    # entries below it, on a degree past it: the degrees are summed without
    # wrapping, so k_min keeps the term loop's terms
    wide = TruncatedSeries(2, 2 ** 63, {(2 ** 62, 2 ** 62): 1, (0, 1): 2})
    for r in (1.0, 0.5):
        for k_min in (0, 1, 2, 2 ** 63, 2 ** 63 + 1):
            assert repr(wide.bohr_majorant_sum(r, k_min)) == repr(
                reference_bohr_majorant_sum(wide.coeffs, [r, r], k_min))


def test_the_series_path_does_not_import_numpy_ma():
    # np.unique would import numpy.ma, about 1 MiB of RSS in a series worker
    script = (
        "import sys\n"
        "from polybohr import (ExtremalParams, Functional, FunctionalKind, SchwarzPowerMap,\n"
        "                      TruncatedSeries, extremal_functional_from_series,\n"
        "                      extremal_series, zero_multiplicity_bound_check)\n"
        "params = ExtremalParams(0.5, 2, 2)\n"
        "func = Functional(FunctionalKind.DERIV, lam=1.0)\n"
        "assert extremal_functional_from_series(func, params, 0.3, max_degree=12) > 0.0\n"
        "g = extremal_series(params, 12).compose_power_map(SchwarzPowerMap(2, 2))\n"
        "assert g.bohr_majorant_sum((0.25, 0.5), k_min=4) > 0.0\n"
        "h = g - TruncatedSeries.constant(0.5, 2)\n"
        "assert zero_multiplicity_bound_check(h, 2, samples=50, seed=3) > 0.0\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "print('ok')\n")
    src = str(Path(mvseries.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_sparse_series_of_huge_degree_builds_no_degree_sized_table():
    # one key of degree 10**6: a table sized by the degree would take MiBs
    d = 10 ** 6
    f = TruncatedSeries(2, d, {(d, 0): 1, (0, 3): 2})
    u = Direction((0.25, 0.75j))
    calls = {
        "derivative": (lambda: f.directional_derivative(u),
                       [((d - 1, 0), d * 0.25 + 0j), ((0, 2), 6 * 0.75j)]),
        "square": (lambda: f.multiply(f),
                   [((2 * d, 0), 1 + 0j), ((d, 3), 4 + 0j), ((0, 6), 4 + 0j)]),
        "composition": (lambda: f.compose_power_map(SchwarzPowerMap(2, 3)),
                        [((3 * d, 0), 1 + 0j), ((0, 9), 2 + 0j)]),
        "majorant sum": (lambda: f.bohr_majorant_sum(0.5), 2 * 0.5 ** 3),
    }
    for name, (call, want) in calls.items():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1 << 20, name
        assert (got if name == "majorant sum" else list(got.coeffs.items())) == want, name


def test_eval_builds_power_tables_only_up_to_the_exponents_present():
    # degree 10**6 but no exponent above 3: tables sized by the degree would
    # take MiBs and about a second
    f = TruncatedSeries(2, 10 ** 6, {(1, 1): 1, (0, 3): 2})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = f.eval((0.5, -0.5j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 1 << 20
    # the term loop's bits, from tables up to degree 3
    assert repr(got) == repr(term_loop_eval(TruncatedSeries(2, 3, f.coeffs), (0.5, -0.5j)))


def test_identity_composition_and_derivative_own_their_dicts():
    f = random_series(np.random.default_rng(47), 3, 4)
    before = dict(f.coeffs)
    for g in (f.compose_power_map(SchwarzPowerMap(3, 1)),
              f.directional_derivative(Direction.uniform(3))):
        assert g.coeffs is not f.coeffs
        for key in list(g.coeffs):
            g.coeffs[key] = 7j
        g.coeffs[MultiIndex((9, 9, 9))] = 1j
        assert f.coeffs == before
        assert items_repr(f.coeffs) == items_repr(before)
        for s in (f, g):
            assert all(type(key) is MultiIndex and all(type(e) is int for e in key)
                       for key in s.coeffs)
    # a key the derivative shares with its source is the source's own object
    du = f.directional_derivative(Direction.uniform(3))
    own = {key: key for key in f.coeffs}
    assert du.coeffs and all(own[key] is key for key in du.coeffs)
