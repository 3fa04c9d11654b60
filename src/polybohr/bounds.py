"""Pointwise bounds for self-maps of the polydisc into the closed unit disc.

These are the elementary estimates the radius proofs lean on:

- growth:          |f(z)| <= (|a_0| + s)/(1 + |a_0| s)        for ||z||_inf <= s
- derivatives:     |D^alpha f(z)| <= alpha! (1 - |f(z)|^2) (1+s)^(|alpha|-N) / (1-s^2)^|alpha|
                   where N is the number of nonzero entries of alpha
- coefficients:    |a_alpha| <= 1 - |a_0|^2                   for |alpha| >= 1
- zero order:      |f(z)| <= ||z||_inf^k  when f vanishes to order k at 0

The checkers below test the last two on a series and refuse out-of-range
inputs instead of extrapolating.  The zero-order check's seed s draws exactly
the points of numpy's default_rng(s).uniform: numpy's SeedSequence and PCG64
are reproduced in Python ints (_pcg64, _unit_draws), so the check never
imports numpy's random package (nine extension modules, hashlib and OpenSSL,
about 6 MiB of RSS).  The first two have no evaluator:
tests/test_majorant_algebra.py proves in sympy that the Mobius map
(a - z)/(1 - a z) attains the growth bound and meets the derivative bound at
every order, as it proves the weight transfer (phi and psi nondecreasing).
"""

from __future__ import annotations

import numpy as np

from .mvseries import MultiIndex, TruncatedSeries, _check_count, _codes, _moduli

DEFAULT_SEED = 1234

# slack for floating-point comparisons in the checkers
_CHECK_TOL = 1e-12

# zero_multiplicity_bound_check draws and evaluates at most this many points at
# a time (the default sample count in one eval_many call), so that its memory
# does not grow with the sample count
_SAMPLE_BLOCK = 10_000

# _unit_draws turns at most this many Python ints into float64 at a time
_INT_BLOCK = 4096

_MASK32, _MASK64, _MASK53 = (1 << 32) - 1, (1 << 64) - 1, (1 << 53) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hashes its pool with (A) and its output with (B);
# PCG64 steps its 128-bit state by state * _PCG_MULT + inc
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """count + 1 values init * mult^i mod 2^32, the constant a SeedSequence
    hash steps through (one step per hashed word)."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# the 16 hashmix calls that fill and cross-mix SeedSequence's pool of 4 words,
# and the 8 words of generate_state(4, np.uint64): seed-independent
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _pcg64(seed: int) -> list:
    """[state, inc] of the PCG64 in numpy's default_rng(seed), in Python ints."""
    words = [seed & _MASK32]  # the seed's uint32 words, little-endian
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    a = _HASH_A
    if len(words) > 4:  # seeds >= 2**128: a second pass, 4 calls a word
        a += _hash_constants(a[-1], _MULT_A, 4 * (len(words) - 4))[1:]
    calls = zip(a, a[1:])

    def hashmix(value):
        xor, mult = next(calls)
        value = (value ^ xor) * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    for i in range(8):
        value = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
        state.append(value ^ value >> 16)
    u0, u1, u2, u3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = (u2 << 64 | u3) << 1 | 1
    return [((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128, inc]


def _unit_draws(gen: list, count: int):
    """The next count doubles in [0, 1) of PCG64 state gen (advanced in
    place), as a float64 array: each the top 53 bits of an output, times 2^-53."""
    state, inc = gen
    out = np.empty(count)
    for start in range(0, count, _INT_BLOCK):
        ints = []
        append = ints.append
        for _ in range(min(_INT_BLOCK, count - start)):
            state = (state * _PCG_MULT + inc) & _MASK128
            # rotr64(hi ^ lo, state >> 122), top 53 bits
            x = (state ^ state >> 64) & _MASK64
            append((x << 64 | x) >> (11 + (state >> 122)) & _MASK53)
        out[start:start + len(ints)] = ints
    gen[0] = state
    out *= 2.0 ** -53
    return out


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
    # no entry exceeds D, so codes in base D + 1 sort the rows lexicographically
    bad = series.exps[~(_moduli(series.values) <= limit) & ~series._below(1)]
    bad = bad[np.argsort(_codes(bad, series.max_degree + 1)[0])]
    return [tuple.__new__(MultiIndex, row) for row in zip(*bad.T.tolist())]


def zero_multiplicity_bound_check(series: TruncatedSeries, k: int,
                                  samples: int = 10_000,
                                  seed: int = DEFAULT_SEED) -> float:
    """Max of |f(z)| / ||z||_inf^k over random points of the open polydisc.

    Requires the series to vanish to order k at 0 (no nonzero coefficient of
    total degree below k).  For an actual self-map into the closed unit disc
    the ratio never exceeds 1.  Seed s draws exactly the points of numpy's
    default_rng(s).uniform, reproduced in Python ints: per sample, n radii in
    [1e-6, 1 - 1e-12) and then n angles in [0, 2 pi).
    """
    k = _check_count("k", k, 1)
    samples = _check_count("samples", samples, 1)
    seed = _check_count("seed", seed, 0)
    low = series._below(k)
    if low.any():
        found = tuple(series.exps[low.argmax()].tolist())
        raise ValueError(f"series does not vanish to order {k}: found {found}")
    gen = _pcg64(seed)
    n = series.n_vars
    lo = np.array([[1e-6] * n, [0.0] * n])
    span = np.array([[1.0 - 1e-12] * n, [2.0 * np.pi] * n]) - lo
    worst = 0.0
    for start in range(0, samples, _SAMPLE_BLOCK):
        # per sample, n radii and then n angles, each lo + span * u as
        # numpy's uniform computes it, from one stream across the blocks
        rows = min(_SAMPLE_BLOCK, samples - start)
        draws = _unit_draws(gen, rows * 2 * n).reshape(rows, 2, n)
        draws *= span
        draws += lo
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
