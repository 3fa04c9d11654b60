"""Golden series-engine values: the series route and the bound checks must
give the same floats, bit for bit, and the series the same terms in the same
order.

series_golden.json lists each case as its parameters plus the `repr` of
every value it pins.  The cases cover all three kinds, n in {1, 2, 3},
m in {1, 2, 3} and D in {24, 40}.  Scalars are pinned as their `repr`;
a whole series or a list of violations is pinned as the SHA-256 of the
`repr` of its items in order (plus its length), since a series of degree
40 in three variables has 12341 terms.  Dict order is the summation order
of `eval`, so a change of key order shows here as a change of digest.

Re-record with `PYTHONPATH=src python tests/test_series_golden.py`, and only
for a change that is meant to move these values.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from polybohr import Direction, SchwarzPowerMap, TruncatedSeries
from polybohr.bounds import coefficient_bound_check, zero_multiplicity_bound_check
from polybohr.extremal import (ExtremalParams, Functional,
                               extremal_functional_from_series, extremal_series)
from polybohr.radii import KINDS, FunctionalKind

GOLDEN_PATH = Path(__file__).with_name("series_golden.json")
_KINDS = ("convex", "deriv", "sq_deriv")


def _digest(items) -> list:
    items = list(items)
    return [len(items), hashlib.sha256(repr(items).encode()).hexdigest()]


def series_values(case) -> dict:
    """Every pinned value of one case, as reprs or digests."""
    kind, w, a, n, m, rho, degree = (case[k] for k in ("kind", "w", "a", "n", "m", "rho", "D"))
    params = ExtremalParams(a, n, m)
    f = extremal_series(params, max_degree=degree)
    g = f.compose_power_map(SchwarzPowerMap(n, m))
    du = f.directional_derivative(Direction.uniform(n))
    h = g - TruncatedSeries.constant(a, n)
    low = extremal_series(params, max_degree=6)
    func = Functional(FunctionalKind(kind), **{KINDS[FunctionalKind(kind)].weight: w})
    z = tuple(complex(0.3 + 0.1 * j, -0.2 + 0.05 * j) / n for j in range(n))
    return {
        "from_series": repr(extremal_functional_from_series(func, params, rho,
                                                            max_degree=degree)),
        "f_eval": repr(f.eval(z)),
        "g_eval": repr(g.eval(z)),
        "du_eval": repr(du.eval(z)),
        "f_coeffs": _digest(f.coeffs.items()),
        "g_coeffs": _digest(g.coeffs.items()),
        "du_coeffs": _digest(du.coeffs.items()),
        "h_coeffs": _digest(h.coeffs.items()),
        "square_coeffs": _digest(low.multiply(low).coeffs.items()),
        "coefficient_bound_check": _digest(coefficient_bound_check(g)),
        "zero_multiplicity": repr(zero_multiplicity_bound_check(h, m, samples=16,
                                                                seed=case["seed"])),
    }


def _cases():
    """One case per (n, m, D); the kind cycles so each kind meets every n and m."""
    rng = random.Random(2026)
    cases = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for degree in (24, 40):
                kind = _KINDS[(n + m + degree // 40) % 3]
                rho = rng.uniform(0.05, 0.6)
                a = rng.uniform(0.05, min(0.95, 0.9 * 1e-13 ** (1.0 / degree) / rho))
                w = rng.uniform(0.0, 1.0) if kind == "convex" else rng.uniform(0.05, 4.0)
                cases.append({"kind": kind, "w": w, "a": a, "n": n, "m": m, "rho": rho,
                              "D": degree, "seed": rng.randrange(2**31)})
    return cases


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['kind']}-n{c['n']}-m{c['m']}-D{c['D']}"
                                              for c in GOLDEN])
def test_series_values_are_bit_identical(case):
    assert series_values(case) == case["expected"]


def test_golden_covers_every_kind_n_m_and_degree():
    assert {c["kind"] for c in GOLDEN} == set(_KINDS)
    assert {(c["n"], c["m"], c["D"]) for c in GOLDEN} == {
        (n, m, d) for n in (1, 2, 3) for m in (1, 2, 3) for d in (24, 40)}


if __name__ == "__main__":
    records = [dict(case, expected=series_values(case)) for case in _cases()]
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
