"""Pointwise bounds for self-maps of the polydisc into the closed unit disc.

These are the elementary estimates the radius proofs lean on:

- growth:          |f(z)| <= (|a_0| + s)/(1 + |a_0| s)        for ||z||_inf <= s
- derivatives:     |D^alpha f(z)| <= alpha! (1 - |f(z)|^2) (1+s)^(|alpha|-N) / (1-s^2)^|alpha|
                   where N is the number of nonzero entries of alpha
- coefficients:    |a_alpha| <= 1 - |a_0|^2                   for |alpha| >= 1
- zero order:      |f(z)| <= ||z||_inf^k  when f vanishes to order k at 0

The checkers below test the last two on a series and refuse out-of-range
inputs instead of extrapolating.  The first two have no evaluator:
tests/test_majorant_algebra.py proves in sympy that the Mobius map
(a - z)/(1 - a z) attains the growth bound and meets the derivative bound at
every order, as it proves the weight transfer (phi and psi nondecreasing).
"""

from __future__ import annotations

import numpy as np

from .mvseries import MultiIndex, TruncatedSeries, _check_count, _codes

DEFAULT_SEED = 1234

# slack for floating-point comparisons in the checkers
_CHECK_TOL = 1e-12

# zero_multiplicity_bound_check draws and evaluates at most this many points at
# a time (the default sample count in one eval_many call), so that its memory
# does not grow with the sample count
_SAMPLE_BLOCK = 10_000


def coefficient_bound_check(series: TruncatedSeries) -> list:
    """Indices alpha with |alpha| >= 1 violating |a_alpha| <= 1 - |a_0|^2.

    Returns the violating multi-indices (empty list means the series is
    consistent with being a self-map of the polydisc into the closed disc,
    as far as this necessary condition can tell).
    """
    a0 = abs(series.coefficient((0,) * series.n_vars))
    if not a0 <= 1.0 + _CHECK_TOL:
        raise ValueError(f"|a_0| = {a0!r} exceeds 1; not a map into the closed disc")
    limit = 1.0 - a0 * a0 + _CHECK_TOL
    # CPython's abs for the moduli; no entry exceeds D, so codes in base
    # D + 1 sort the rows lexicographically
    moduli = np.fromiter(map(abs, series.values.tolist()), float, len(series.values))
    bad = series.exps[~(moduli <= limit) & ~series._below(1)]
    bad = bad[np.argsort(_codes(bad, series.max_degree + 1)[0])]
    return [tuple.__new__(MultiIndex, row) for row in zip(*bad.T.tolist())]


def zero_multiplicity_bound_check(series: TruncatedSeries, k: int,
                                  samples: int = 10_000,
                                  seed: int = DEFAULT_SEED) -> float:
    """Max of |f(z)| / ||z||_inf^k over random points of the open polydisc.

    Requires the series to vanish to order k at 0 (no nonzero coefficient of
    total degree below k).  For an actual self-map into the closed unit disc
    the ratio never exceeds 1.
    """
    k = _check_count("k", k, 1)
    samples = _check_count("samples", samples, 1)
    seed = _check_count("seed", seed, 0)
    low = series._below(k)
    if low.any():
        found = tuple(series.exps[low.argmax()].tolist())
        raise ValueError(f"series does not vanish to order {k}: found {found}")
    rng = np.random.default_rng(seed)
    n = series.n_vars
    lo = [[1e-6] * n, [0.0] * n]
    hi = [[1.0 - 1e-12] * n, [2.0 * np.pi] * n]
    worst = 0.0
    for start in range(0, samples, _SAMPLE_BLOCK):
        # per sample, n radii and then n angles, drawn in that order by the
        # uniform routine a draw per sample would call
        draws = rng.uniform(lo, hi, size=(min(_SAMPLE_BLOCK, samples - start), 2, n))
        radii, angles = draws[:, 0], draws[:, 1]
        # r * (cos t + i sin t), one float64 product per part
        real = (radii * np.cos(angles)).tolist()
        imag = (radii * np.sin(angles)).tolist()
        values = series.eval_many([tuple(map(complex, re, im)) for re, im in zip(real, imag)])
        for value, top in zip(values, radii.max(axis=1).tolist()):
            ratio = abs(value) / top ** k
            if ratio > worst:
                worst = ratio
    return worst
