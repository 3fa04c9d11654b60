"""Pointwise bounds for self-maps of the polydisc into the closed unit disc.

These are the elementary estimates the radius proofs lean on, packaged as
checkable evaluators:

- growth:          |f(z)| <= (|a_0| + s)/(1 + |a_0| s)        for ||z||_inf <= s
- derivatives:     |D^alpha f(z)| <= alpha! (1 - |f(z)|^2) (1+s)^(|alpha|-N) / (1-s^2)^|alpha|
                   where N is the number of nonzero entries of alpha
- coefficients:    |a_alpha| <= 1 - |a_0|^2                   for |alpha| >= 1
- zero order:      |f(z)| <= ||z||_inf^k  when f vanishes to order k at 0

Each evaluator validates its hypotheses and refuses out-of-range inputs
instead of extrapolating.  The weight transfer (phi and psi nondecreasing,
see radii) is a polynomial fact, proved in tests/test_majorant_algebra.py.
"""

from __future__ import annotations

import numpy as np

from .mvseries import MultiIndex, TruncatedSeries, _check_below_one, _check_count, _check_unit

DEFAULT_SEED = 1234

# slack for floating-point comparisons in the checkers
_CHECK_TOL = 1e-12

# zero_multiplicity_bound_check draws and evaluates at most this many points at
# a time (the default sample count in one eval_many call), so that its memory
# does not grow with the sample count
_SAMPLE_BLOCK = 10_000


def schwarz_pick_bound(a0: float, s: float) -> float:
    """Sharp growth bound (a0 + s)/(1 + a0 s) for |f| on ||z||_inf <= s.

    Here a0 = |f(0)| in [0, 1] and s in [0, 1).  The bound is attained by
    Mobius maps of one aligned variable, which is what makes it useful as a
    test oracle.
    """
    _check_unit("a0", a0)
    _check_below_one("s", s)
    return (a0 + s) / (1.0 + a0 * s)


def derivative_bound(a_fz: float, s: float, alpha) -> float:
    """Bound for |D^alpha f(z)| at a point with ||z||_inf <= s.

    a_fz = |f(z)| in [0, 1].  With d = |alpha| and N the number of nonzero
    entries of alpha, the bound is

        alpha! * (1 - a_fz^2) * (1 + s)^(d - N) / (1 - s^2)^d.

    The bound diverges as s -> 1, so s >= 1 is refused.
    """
    idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    if idx.degree < 1:
        raise ValueError("alpha must have total degree >= 1")
    _check_unit("a_fz", a_fz)
    _check_below_one("s", s)
    d = idx.degree
    nonzero = sum(1 for e in idx if e)
    return idx.factorial * (1.0 - a_fz * a_fz) * (1.0 + s) ** (d - nonzero) / (1.0 - s * s) ** d


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
    # the modulus test first, and sum(alpha) for |alpha| without a property call
    bad = [alpha for alpha, c in series.coeffs.items() if not abs(c) <= limit and sum(alpha) >= 1]
    bad.sort()
    return bad


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
    low = [alpha for alpha in series.coeffs if sum(alpha) < k]
    if low:
        raise ValueError(f"series does not vanish to order {k}: found {tuple(low[0])}")
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
