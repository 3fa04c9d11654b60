"""Bound checker tests: sharp cases, equality cases, negative controls.

The growth and derivative bounds have no evaluator; their sharpness on the
Mobius map is proved in sympy in tests/test_majorant_algebra.py."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from polybohr import (TruncatedSeries, bounds, coefficient_bound_check,
                      zero_multiplicity_bound_check)
from polybohr.mvseries import MultiIndex, multi_indices


def embedded_mobius(a, n, max_degree):
    """(a - z_1)/(1 - a z_1) as an n-variable series: the equality case."""
    coeffs = {(0,) * n: a}
    for k in range(1, max_degree + 1):
        alpha = tuple(k if j == 0 else 0 for j in range(n))
        coeffs[alpha] = -(1 - a * a) * a ** (k - 1)
    return TruncatedSeries(n, max_degree, coeffs)


# -- coefficient bound --------------------------------------------------------------

def test_coefficient_bound_mobius_grid_clean():
    # every |a_alpha| = (1 - a^2) a^(k-1) <= 1 - a^2, with equality at k = 1
    for a in np.arange(0.0, 0.99, 0.02):
        series = embedded_mobius(float(a), 2, 10)
        assert coefficient_bound_check(series) == []


def test_coefficient_bound_negative_control():
    a0 = 0.6
    bad = {(0, 0): a0, (1, 0): (1 - a0 * a0) + 0.01, (0, 1): 0.5 * (1 - a0 * a0)}
    series = TruncatedSeries(2, 2, bad)
    violations = coefficient_bound_check(series)
    assert violations == [(1, 0)]


def test_coefficient_bound_rejects_constant_above_one():
    with pytest.raises(ValueError):
        coefficient_bound_check(TruncatedSeries(1, 1, {(0,): 1.5}))


# -- zero-multiplicity bound -----------------------------------------------------------

def test_zero_multiplicity_monomials():
    for m in (1, 2, 3):
        series = TruncatedSeries(2, m, {(m, 0): 1.0})
        worst = zero_multiplicity_bound_check(series, m, samples=2000, seed=5)
        assert worst <= 1.0 + 1e-9
        assert worst > 0.5  # sup is 1, approached when |z_1| is the max


def test_zero_multiplicity_mixed_families():
    prod = TruncatedSeries(2, 2, {(1, 1): 1.0})
    assert zero_multiplicity_bound_check(prod, 2, samples=2000, seed=5) <= 1.0 + 1e-9
    mean = TruncatedSeries(2, 1, {(1, 0): 0.5, (0, 1): 0.5})
    assert zero_multiplicity_bound_check(mean, 1, samples=2000, seed=5) <= 1.0 + 1e-9


def test_zero_multiplicity_requires_vanishing_order():
    series = TruncatedSeries(1, 2, {(0,): 0.5, (2,): 0.5})
    with pytest.raises(ValueError):
        zero_multiplicity_bound_check(series, 1)
    with pytest.raises(ValueError):
        zero_multiplicity_bound_check(TruncatedSeries(1, 1, {(1,): 1.0}), 0)


def test_zero_multiplicity_seed_reproducible():
    series = TruncatedSeries(2, 2, {(1, 1): 1.0})
    w1 = zero_multiplicity_bound_check(series, 2, samples=500, seed=99)
    w2 = zero_multiplicity_bound_check(series, 2, samples=500, seed=99)
    assert w1 == w2


def per_sample_zero_order_check(series, k, samples, seed):
    """One draw and one eval per sample: the loop the batched check replaces."""
    rng = np.random.default_rng(seed)
    n = series.n_vars
    worst = 0.0
    for _ in range(samples):
        radii = rng.uniform(1e-6, 1.0 - 1e-12, size=n)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        z = tuple(r * complex(np.cos(t), np.sin(t)) for r, t in zip(radii, angles))
        ratio = abs(series.eval(z)) / float(np.max(radii)) ** k
        if ratio > worst:
            worst = ratio
    return worst


@pytest.mark.parametrize("block", [10_000, 7], ids=["default-block", "block-7"])
def test_zero_multiplicity_draws_points_as_a_per_sample_loop(block, monkeypatch):
    # same points in the same order, so the same worst ratio to the last bit,
    # wherever the sample blocks end
    monkeypatch.setattr(bounds, "_SAMPLE_BLOCK", block)
    cases = [(TruncatedSeries(3, 1, {(1, 0, 0): 0.25, (0, 1, 0): 0.5, (0, 0, 1): 0.25j}), 1, 50, 3),
             (TruncatedSeries(2, 2, {(1, 1): 1.0}), 2, 200, 99),
             (TruncatedSeries(1, 3, {(2,): 0.5, (3,): -0.5}), 2, 1, 0)]
    for series, k, samples, seed in cases:
        assert (repr(zero_multiplicity_bound_check(series, k, samples=samples, seed=seed))
                == repr(per_sample_zero_order_check(series, k, samples, seed)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 1, 10 ** 40])
def test_zero_multiplicity_draws_the_points_of_numpy_default_rng(seed, n, monkeypatch):
    # the pure-Python PCG64 against numpy's: seeds of one to five uint32
    # words, 17 samples across blocks of 7, every point to the bit
    monkeypatch.setattr(bounds, "_SAMPLE_BLOCK", 7)
    points = []
    eval_many = TruncatedSeries.eval_many

    def spy(self, chunk):
        points.extend(chunk)
        return eval_many(self, chunk)

    monkeypatch.setattr(TruncatedSeries, "eval_many", spy)
    series = TruncatedSeries(n, 1, {(1,) + (0,) * (n - 1): 0.5})
    zero_multiplicity_bound_check(series, 1, samples=17, seed=seed)
    draws = np.random.default_rng(seed).uniform(
        [[1e-6] * n, [0.0] * n], [[1.0 - 1e-12] * n, [2.0 * np.pi] * n], size=(17, 2, n))
    radii, angles = draws[:, 0], draws[:, 1]
    want = [tuple(map(complex, re, im)) for re, im in
            zip((radii * np.cos(angles)).tolist(), (radii * np.sin(angles)).tolist())]
    assert repr(points) == repr(want)


def test_unit_draws_hold_one_block_of_ints_at_a_time(monkeypatch):
    # the stream continues across int blocks and calls; 60,000 draws hold at
    # most 4096 Python ints (about 160 KiB) besides their float64 output
    monkeypatch.setattr(bounds, "_INT_BLOCK", 5)
    gen = bounds._pcg64(2 ** 64 + 5)
    got = np.concatenate([bounds._unit_draws(gen, count) for count in (1, 5, 12)])
    assert got.tobytes() == np.random.default_rng(2 ** 64 + 5).random(18).tobytes()
    monkeypatch.undo()
    gen = bounds._pcg64(7)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = bounds._unit_draws(gen, 60_000)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes < 256 << 10
    assert got[-3:].tobytes() == np.random.default_rng(7).random(60_000)[-3:].tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True], ids=["negative", "float", "string", "bool"])
def test_zero_multiplicity_refuses_a_seed_that_is_not_a_count(seed):
    # -1 and 1.5 used to reach numpy, which raised its own ValueError / TypeError
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        zero_multiplicity_bound_check(TruncatedSeries(1, 1, {(1,): 1.0}), 1, samples=4, seed=seed)


# -- phi/psi monotonicity ----------------------------------------------------------------
# phi(x) = x + A (1 - x^2) and psi(x) = x^2 + A (1 - x^2); the exact statement
# (nondecreasing on [0, 1] exactly for A <= 1/2 and A <= 1) is proved in
# tests/test_majorant_algebra.py.  These are float spot checks of it.

def _phi(A, x):
    return x + A * (1 - x * x)


def _psi(A, x):
    return x * x + A * (1 - x * x)


def test_phi_psi_spot_values():
    assert _phi(0.5, 0.2) <= _phi(0.5, 0.9)
    assert _psi(1.0, 0.2) <= _psi(1.0, 0.9)
    # at the largest weights the maps still do not decrease up to x = 1
    assert _phi(0.5, 0.95) <= _phi(0.5, 1.0)
    assert _psi(1.0, 0.95) <= _psi(1.0, 1.0)


def test_phi_fails_beyond_half_by_construction():
    # at A = 0.6 the map x + A(1 - x^2) genuinely decreases near x = 1,
    # which is why the phi weight is capped at 1/2
    A = 0.6
    assert _phi(A, 0.95) > _phi(A, 1.0)


def test_multi_indices_helper_available():
    # the bounds tests reuse the generator; pin its contract here too
    assert len(list(multi_indices(3, 4))) == math.comb(6, 2)


# -- the checks' masks against term loops ---------------------------------------

def reference_violations(series):
    """coefficient_bound_check as a term loop over the keys."""
    a0 = abs(series.coefficient((0,) * series.n_vars))
    limit = 1.0 - a0 * a0 + 1e-12
    return sorted(alpha for alpha, c in series.coeffs.items()
                  if not abs(c) <= limit and sum(alpha) >= 1)


def reference_precheck(series, k):
    """The zero-order precheck's message as a term loop, or None."""
    for alpha in series.coeffs:
        if sum(alpha) < k:
            return f"series does not vanish to order {k}: found {tuple(alpha)}"
    return None


def precheck(series, k):
    try:
        zero_multiplicity_bound_check(series, k, samples=1)
    except ValueError as exc:
        return str(exc)
    return None


def outcome(call):
    """repr of call(), or "OverflowError" where a modulus overflows."""
    try:
        return repr(call())
    except OverflowError as exc:
        assert str(exc) == "absolute value too large"
        return "OverflowError"


def test_the_checks_match_their_term_loops_on_edge_values():
    # keys in shuffled order, moduli on both sides of the limit, inf and NaN
    rng = random.Random(20261024)
    parts = (0.0, -0.0, 0.5, -0.9, 2.0, math.inf, math.nan)
    seen = set()
    for _ in range(200):
        n, degree = rng.randint(1, 4), rng.randint(0, 8)
        keys = [tuple(rng.randint(0, degree // n) for _ in range(n)) for _ in range(12)]
        rng.shuffle(keys)
        coeffs = {alpha: complex(rng.choice(parts), rng.choice(parts)) for alpha in keys}
        # a constant term half the time: without one, k up to the lowest
        # degree passes the precheck
        coeffs[(0,) * n] = rng.choice((0.0, rng.uniform(0.0, 1.0)))
        series = TruncatedSeries(n, degree, coeffs)
        assert coefficient_bound_check(series) == reference_violations(series)
        assert all(type(alpha) is MultiIndex for alpha in coefficient_bound_check(series))
        for k in range(1, degree + 3):
            got = precheck(series, k)
            assert got == reference_precheck(series, k)
            seen.add(got is None)
    assert seen == {True, False}
    # moduli past the largest float: |1.5e308 (1 + i)| overflows, and CPython's
    # abs raises where np.hypot would give inf; |1e308 (1 + i)| does not
    outcomes = set()
    for big in (complex(1e308, 1e308), complex(1.5e308, 1.5e308)):
        for key in ((1, 0), (1, 1)):
            series = TruncatedSeries(2, 2, {key: big, (0, 1): 0.5})
            got = outcome(lambda: coefficient_bound_check(series))
            assert got == outcome(lambda: reference_violations(series))
            outcomes.add(got)
            for seed in range(3):
                got = outcome(lambda: zero_multiplicity_bound_check(series, 1, samples=40, seed=seed))
                assert got == outcome(lambda: per_sample_zero_order_check(series, 1, 40, seed))
                outcomes.add(got)
    assert {"OverflowError", "[(1, 0)]", "inf"} <= outcomes


def test_the_checks_sum_degrees_past_intp_without_wrapping():
    # (2**62, 2**62) has degree 2**63, which intp would wrap to -2**63
    wide = TruncatedSeries(2, 2 ** 63, {(2 ** 62, 2 ** 62): 3, (0, 1): 2})
    assert coefficient_bound_check(wide) == reference_violations(wide) == [(0, 1), (2 ** 62,) * 2]
    for k in (2, 2 ** 63, 2 ** 63 + 1):
        assert precheck(wide, k) == reference_precheck(wide, k) is not None
    assert "found (4611686018427387904, 4611686018427387904)" in precheck(wide, 2 ** 63 + 1)
