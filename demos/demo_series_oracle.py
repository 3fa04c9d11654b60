"""Series route versus closed forms: the same functional two independent ways.

The closed-form expressions evaluate the functionals on the witness family
directly. This demo rebuilds the same quantities from first principles using
the truncated-series machinery: expand the family to total degree D, compose
with the componentwise power map z_j -> z_j^m, evaluate the modulus, the
directional derivative, and the majorant sums at an aligned point, and
assemble the functional. Agreement to near machine precision at the sampled
points checks each route against the other in floats, not as a proof; the
truncation tail decays geometrically.
"""

import numpy as np

from polybohr import (DEFAULT_SEED, ExtremalParams, Functional, FunctionalKind,
                      MultiIndex, extremal_functional,
                      extremal_functional_from_series, extremal_series)

# the range each weight name is drawn from: t in [0, 1], lam in [0.1, 3]
WEIGHT_RANGE = {"t": (0.0, 1.0), "lam": (0.1, 3.0)}


def coefficient_anatomy():
    print("-" * 72)
    print("Anatomy of the witness family as a truncated series (a=0.5, n=2)")
    print("-" * 72)
    params = ExtremalParams(0.5, 2, 1)
    series = extremal_series(params, max_degree=4)
    print("constant term:", series.coefficient(MultiIndex((0, 0))))
    for k in range(1, 4):
        slice_k = series.degree_slice(k)
        total = sum(abs(c) for c in slice_k.values())
        expected = (1 - 0.25) * 0.5 ** (k - 1) * 2 ** k
        print(f"degree {k}: {len(slice_k)} coefficients, modulus sum "
              f"{total:.12f} (closed form {expected:.12f})")
    print("the coefficient of z1*z2 is -(1 - a^2) a * 2!/(1!1!) =",
          series.coefficient(MultiIndex((1, 1))))
    print()


def route_comparison():
    print("-" * 72)
    print("Functional values: series route vs closed form (D = 40)")
    print("-" * 72)
    rng = np.random.default_rng(DEFAULT_SEED)
    cases = []
    for kind in FunctionalKind:
        for _ in range(4):
            a = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            rho = float(rng.uniform(0.05, 0.3))
            weight = float(rng.uniform(*WEIGHT_RANGE[kind.weight]))
            cases.append((Functional(kind, **{kind.weight: weight}), a, n, m, rho))
    print(f"{'kind':<9} {'weight':>7} {'a':>5} {'n':>2} {'m':>2} {'rho':>6} "
          f"{'closed form':>16} {'series route':>16} {'diff':>9}")
    worst = 0.0
    for func, a, n, m, rho in cases:
        closed = extremal_functional(func, a, rho)
        series = extremal_functional_from_series(
            func, ExtremalParams(a, n, m), rho, max_degree=40)
        diff = abs(series - closed)
        worst = max(worst, diff)
        print(f"{func.kind.value:<9} {func.weight:>7.3f} {a:>5.2f} {n:>2} {m:>2} "
              f"{rho:>6.3f} {closed:>16.12f} {series:>16.12f} {diff:>9.1e}")
    print()
    print(f"worst disagreement: {worst:.2e}")
    return worst


def truncation_decay():
    print("-" * 72)
    print("Truncation decay: the series route converges geometrically in D")
    print("-" * 72)
    func = Functional(FunctionalKind.DERIV, lam=1.0)
    params = ExtremalParams(0.8, 2, 1)
    rho = 0.28
    closed = extremal_functional(func, 0.8, rho)
    for d in (4, 8, 12, 16, 24, 32, 40):
        series = extremal_functional_from_series(func, params, rho, max_degree=d)
        print(f"D = {d:>2}: series route {series:.15f}  "
              f"|diff| = {abs(series - closed):.3e}")
    print()


def main() -> int:
    coefficient_anatomy()
    worst = route_comparison()
    truncation_decay()
    if worst > 1e-8:
        print("Series route drifted beyond 1e-8; something is wrong.")
        return 1
    print("Two independent evaluation routes, one answer.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
