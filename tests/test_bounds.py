"""Bound checker tests: sharp cases, equality cases, negative controls.

The growth and derivative bounds have no evaluator; their sharpness on the
Mobius map is proved in sympy in tests/test_majorant_algebra.py."""

import math

import numpy as np
import pytest

from polybohr import (TruncatedSeries, bounds, coefficient_bound_check,
                      zero_multiplicity_bound_check)
from polybohr.mvseries import multi_indices


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
