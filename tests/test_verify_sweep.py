"""verify_radius's array sweep against the per-point loop it replaced.

The sweep works on blocks of whole rho-rows: one family evaluation, one
mapped majorant pass and one set of reductions per block.  Every field of
its outcome must keep the bits of the row-by-row loop in
_reference.reference_verify, and an error must be the one that loop raised
first, on NaN rows, clamped rows, rows past the pole, at block edges and at
every block size.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from polybohr import FunctionalKind, RadiusProblem, cli, extremal, verify_radius
from _reference import reference_verify

KINDS = ("convex", "deriv", "sq_deriv")
A_GRIDS = (10, 11, 23, 37, 500)  # 11, 23, 37 and 500 do not divide the block
INFLATES = (0.0, 0.01, 0.5, 3.0, 1e100, 1e200)
CASES = 300


def _case(seed):
    """(problem, a_grid, rho_grid, inflate): the kind, inflate and a_grid
    cycle with the seed, so every pair of them comes up; the rest is drawn."""
    rng = random.Random(seed)
    kind = KINDS[seed % 3]
    inflate = INFLATES[seed // 3 % len(INFLATES)]
    a_grid = A_GRIDS[seed // 18 % len(A_GRIDS)]
    if kind == "convex":
        weight = {"t": rng.choice([0.0, 1.0, rng.random(), rng.random()])}
    else:
        weight = {"lam": 10.0 ** rng.uniform(-6.0, 6.0)}
    problem = RadiusProblem(FunctionalKind(kind), rng.randint(1, 8), rng.randint(1, 4), **weight)
    return problem, a_grid, rng.randint(10, 100), inflate


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_verification(got, want):
    """Every field bit for bit: floats by repr, lists element by element."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for name in ("radius", "rho_max", "max_value", "min_margin"):
        assert type(getattr(got, name)) is float, name
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    for name in ("below_violations", "dominance_violations"):
        rows, expected = getattr(got, name), getattr(want, name)
        assert len(rows) == len(expected), name
        for row, exp in zip(rows, expected):
            assert [type(x) for x in row] == [float] * 3, name
            assert [repr(x) for x in row] == [repr(x) for x in exp], name


@pytest.mark.parametrize("seed", range(CASES))
def test_verify_radius_matches_the_per_point_loop(seed):
    case = _case(seed)
    assert_same_verification(_outcome(verify_radius, *case), _outcome(reference_verify, *case))


def test_the_seeded_cases_cover_every_kind_grid_and_inflate():
    cases = [_case(seed) for seed in range(CASES)]
    assert {p.kind.value for p, *_ in cases} == set(KINDS)
    assert {a for _, a, _, _ in cases} == set(A_GRIDS)
    assert {i for *_, i in cases} == set(INFLATES)
    assert max(p.n for p, *_ in cases) == 8 and max(p.m for p, *_ in cases) == 4
    outcomes = [_outcome(verify_radius, *case) for case in cases]
    errors = [v for v in outcomes if isinstance(v, str)]
    checks = [(v, p) for v, (p, *_) in zip(outcomes, cases) if not isinstance(v, str)]
    # the pole's error and rho_max's, clamped rows and inf rows
    assert any("a * rho = 1" in v for v in errors)
    assert any("overflows rho_max" in v for v in errors)
    assert sum(v.rho_max > p.kind.search_cap for v, p in checks) >= 100
    assert sum(v.max_value == math.inf for v, _ in checks) >= 10


def _argv(problem, a_grid, rho_grid, inflate):
    flag = "--t" if problem.kind.weight == "t" else "--lambda"
    return ["verify", "--theorem", problem.kind.value, "--n", str(problem.n),
            "--m", str(problem.m), flag, repr(problem.weight), "--a-grid", str(a_grid),
            "--rho-grid", str(rho_grid), "--inflate-radius", repr(inflate)]


@pytest.mark.parametrize("seed", range(0, 250, 5))
def test_cli_verify_prints_what_the_per_point_loop_prints(seed, capsys, monkeypatch):
    argv = _argv(*_case(seed))
    code = cli.main(argv)
    got = (code, *capsys.readouterr())
    monkeypatch.setattr(cli, "verify_radius", reference_verify)
    code = cli.main(argv)
    assert got == (code, *capsys.readouterr())


# -- NaN rows -------------------------------------------------------------------

def test_a_nan_majorant_is_skipped_and_its_row_still_counts(monkeypatch):
    # nan at one point of row 5; a point of the same row is pushed 1 below the
    # family, so it is the least margin and a dominance violation
    problem = RadiusProblem(FunctionalKind.DERIV, 2, 1, lam=1.0)
    real = extremal.majorant_functional
    rho5 = np.linspace(0.0, problem.n * verify_radius(problem, 23, 11, 0.0).radius, 11)[5]
    a_list = np.linspace(0.0, 1.0, 23, endpoint=False).tolist()

    def patched(func, a, rho):
        if rho == rho5 and a == a_list[4]:
            return math.nan
        if rho == rho5 and a == a_list[9]:
            return real(func, a, rho) - 1.0 - extremal.extremal_functional(func, a, rho)
        return real(func, a, rho)
    monkeypatch.setattr(extremal, "majorant_functional", patched)
    check = verify_radius(problem, 23, 11, 0.0)
    assert_same_verification(check, reference_verify(problem, 23, 11, 0.0))
    # the margin at a_list[9] is the majorant minus 1, minus the family, minus
    # the family again
    assert [v[:2] for v in check.dominance_violations] == [[a_list[9], float(rho5)]]
    assert check.min_margin == check.dominance_violations[0][2]
    assert check.min_margin < -1.0


def test_a_nan_family_row_leaves_the_rest_of_its_block(monkeypatch):
    # +20% puts family values above 1 on rows 9 and 10; the family is made nan
    # on the whole of row 9, and row 10, in the same block, must still set
    # max_value and keep its violations
    problem = RadiusProblem(FunctionalKind.CONVEX, 2, 1, t=0.3)
    avals = np.linspace(0.0, 1.0, 23, endpoint=False)
    rhos = np.linspace(0.0, verify_radius(problem, 23, 11, 0.2).rho_max, 11)
    real = extremal._functional_value

    def patched(func, a, rho):
        return np.where(np.asarray(rho) == rhos[9], math.nan, real(func, a, rho))
    assert np.isnan(patched(problem, avals, rhos[:, None])).all(axis=1).tolist() == \
        [False] * 9 + [True, False]
    monkeypatch.setattr(extremal, "_functional_value", patched)
    assert extremal._VERIFY_BLOCK // 23 >= 11  # one block holds every row
    check = verify_radius(problem, 23, 11, 0.2)
    assert_same_verification(check, reference_verify(problem, 23, 11, 0.2))
    assert check.max_value == float(np.max(real(problem, avals, rhos[10]))) > 1.0
    assert {rho for _, rho, _ in check.below_violations} == {float(rhos[10])}
    assert not math.isnan(check.min_margin)


# -- block boundaries and memory -----------------------------------------------

BLOCK_CASES = [
    (RadiusProblem(FunctionalKind.CONVEX, 4, 2, t=0.0), 200, 113, 3.0),  # reaches the pole
    (RadiusProblem(FunctionalKind.CONVEX, 4, 2, t=0.0), 200, 112, 3.0),  # rows past the pole
    (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0), 20, 12, 0.5),  # clamped rows
    (RadiusProblem(FunctionalKind.SQ_DERIV, 3, 1, lam=2.0), 37, 41, 0.01),
    (RadiusProblem(FunctionalKind.SQ_DERIV, 8, 1, lam=1.0), 23, 30, 1e200),  # inf rows
    # at the default block: clamping starts inside a block, one row a block,
    # and last blocks of 1 and of 19 of 20 rows
    (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0), 200, 50, 0.5),
    (RadiusProblem(FunctionalKind.SQ_DERIV, 2, 1, lam=1.0), extremal._VERIFY_BLOCK + 3, 10, 0.01),
    (RadiusProblem(FunctionalKind.CONVEX, 3, 2, t=0.4), 200, 41, 0.01),
    (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0), 200, 59, 0.5),
]


# _VERIFY_BLOCK as a function of a_grid: below one row, which still takes
# one row a block, exactly one row, and three rows and a point
BLOCKS = {"default": None, "point": lambda a: 1, "row": lambda a: a, "3-rows": lambda a: 3 * a + 1}


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
@pytest.mark.parametrize("case", BLOCK_CASES, ids=["pole", "past-pole", "clamped", "sq", "inf",
                                                  "cap-inside", "wide", "one-left", "most-left"])
def test_results_do_not_depend_on_the_block_size(case, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(extremal, "_VERIFY_BLOCK", block(case[1]))
    assert_same_verification(_outcome(verify_radius, *case), _outcome(reference_verify, *case))


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
def test_dominance_violations_come_in_row_major_order(block, monkeypatch):
    # a majorant of 0 fails to dominate at every point where the family is
    # positive: many violations a row, over clamped rows too
    if block is not None:
        monkeypatch.setattr(extremal, "_VERIFY_BLOCK", block(20))
    monkeypatch.setattr(extremal, "majorant_functional", lambda func, a, rho: 0.0)
    case = (RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=1.0), 20, 12, 0.5)
    check = verify_radius(*case)
    assert len(check.dominance_violations) > 12 * 10
    assert_same_verification(check, reference_verify(*case))


def _rows_per_block(a_grid):
    return max(1, extremal._VERIFY_BLOCK // a_grid)


def test_the_edge_cases_sit_on_the_default_blocks_edges():
    cap_case, wide, one_left, most_left = BLOCK_CASES[5:]
    rhos = np.linspace(0.0, verify_radius(*cap_case).rho_max, cap_case[2])
    first = int(np.flatnonzero(rhos > cap_case[0].kind.search_cap)[0])
    assert 0 < first % _rows_per_block(200) < _rows_per_block(200) - 1
    assert _rows_per_block(wide[1]) == 1 and wide[1] > extremal._VERIFY_BLOCK
    assert one_left[2] % _rows_per_block(200) == 1
    assert most_left[2] % _rows_per_block(200) == _rows_per_block(200) - 1
    assert verify_radius(*most_left).rho_max > most_left[0].kind.search_cap


# -- the first error ------------------------------------------------------------

@pytest.mark.parametrize("rows", [None, 2], ids=["default", "2-rows"])
def test_the_first_pole_row_raises_also_inside_a_block(rows, monkeypatch):
    # rows 3 and 5 of this grid reach a * rho = 1; row 3 is the fourth row of
    # the default block, which holds row 5 too, and the second of a 2-row block
    if rows is not None:
        monkeypatch.setattr(extremal, "_VERIFY_BLOCK", rows * 200)
    case = (RadiusProblem(FunctionalKind.CONVEX, 1, 2, t=0.0), 200, 11, 3.0)
    avals = np.linspace(0.0, 1.0, 200, endpoint=False)
    rhos = np.linspace(0.0, (extremal.radius_for(case[0]).radius * 4.0) ** 2, 11)
    assert np.flatnonzero((rhos[:, None] * avals == 1.0).any(axis=1)).tolist() == [3, 5]
    assert 3 % _rows_per_block(200) != 0
    got, want = _outcome(verify_radius, *case), _outcome(reference_verify, *case)
    assert got == want == (f"ValueError: the verify grid reaches a * rho = 1 at rho = "
                           f"{rhos[3].item()!r}, the pole of the family's tail; lower inflate")


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default", "1-row", "3-rows"])
def test_an_infinite_rho_max_raises_the_majorants_error_on_its_nan_row(rows, monkeypatch):
    # (r (1 + inflate))^m stays finite, so its OverflowError does not fire, but
    # its product with n = 8 is inf, and linspace(0, inf) is [nan, inf, ...]:
    # the block holding the nan row passes the pole test (inf * a is never 1),
    # and the majorant raises on nan
    if rows is not None:
        monkeypatch.setattr(extremal, "_VERIFY_BLOCK", rows * 23)
    case = (RadiusProblem(FunctionalKind.DERIV, 8, 2, lam=1.0), 23, 12, 3e154)
    assert 8 * (extremal.radius_for(case[0]).radius * (1.0 + 3e154)) ** 2 == math.inf
    with np.errstate(invalid="ignore"):  # linspace's 0 * inf, in verify_radius too
        rhos = np.linspace(0.0, math.inf, 12)
        got, want = _outcome(verify_radius, *case), _outcome(reference_verify, *case)
    assert math.isnan(rhos[0]) and (rhos[1:] == math.inf).all()
    assert got == want
    assert got.startswith("ValueError: deriv majorant needs") and got.endswith("got nan")


# tracemalloc peak of verify_radius(problem, 500, 100, 0.0) at the per-point
# loop, before the sweep was blocked, in bytes (CPython 3.11, numpy 2.4); the
# problems are those of _peak below
PER_POINT_LOOP_PEAK = {"convex": 49_776, "deriv": 53_904, "sq_deriv": 53_904}


def _peak(kind, rho_grid):
    weight = {"t": 0.3} if kind == "convex" else {"lam": 1.0}
    problem = RadiusProblem(FunctionalKind(kind), 2, 1, **weight)
    verify_radius(problem, 500, rho_grid, 0.0)  # so that only the sweep's own memory counts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_radius(problem, 500, rho_grid, 0.0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_one_row_blocks_peak_as_the_per_point_loop_did(kind, monkeypatch):
    monkeypatch.setattr(extremal, "_VERIFY_BLOCK", 1)
    assert _peak(kind, 100) <= 1.1 * PER_POINT_LOOP_PEAK[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_the_block_bounds_the_sweeps_memory(kind):
    # a block's working set is a few float64 arrays of _VERIFY_BLOCK points,
    # and it does not grow with the number of rows
    peak = _peak(kind, 100)
    assert peak <= PER_POINT_LOOP_PEAK[kind] + 8 * 8 * extremal._VERIFY_BLOCK
    assert _peak(kind, 400) <= 1.1 * peak
