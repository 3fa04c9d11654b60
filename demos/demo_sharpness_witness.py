"""Witness search: explicit parameters pushing each functional above 1.

Just beyond the stated radius a one-parameter family of polydisc self-maps
already violates the bound, which is what makes the radius sharp rather than
merely safe. This demo prints the witnesses the search finds, then turns to
small derivative weights (lam < 1/2 for the linear head, lam < 1 for the
squared head). There the paper states a weight-free quartic whose root is
safe but not sharp; the library states the weighted quartic's root instead,
and the family's first crossing of 1 sits exactly there, so those weights
get witnesses too.
"""

from polybohr import (FunctionalKind, RadiusProblem, WitnessNotFoundError,
                      empirical_radius, radius_for, sharpness_witness)


def show_witness(problem, delta=1e-3):
    res = radius_for(problem)
    tag = f"{problem.kind.value:<9} n={problem.n} m={problem.m} weight={problem.weight}"
    try:
        w = sharpness_witness(problem, delta=delta)
        print(f"[witness] {tag}")
        print(f"          rho = {w.rho:.12f} (stated root {res.rho_root:.12f} "
              f"inflated by {delta:.0e})")
        print(f"          a = {w.a:.12f} pushes the functional to "
              f"{w.value:.12f} > 1")
        return True
    except WitnessNotFoundError as exc:
        print(f"[none]    {tag}")
        print(f"          {exc}")
        return False


def main() -> int:
    print("=" * 72)
    print("Sharpness witnesses just beyond the stated radius")
    print("=" * 72)
    sharp = [
        RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.0),
        RadiusProblem(FunctionalKind.CONVEX, 2, 1, t=0.75),
        RadiusProblem(FunctionalKind.CONVEX, 4, 2, t=0.9),
        RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.5),
        RadiusProblem(FunctionalKind.DERIV, 2, 2, lam=1.0),
        RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=1.0),
        RadiusProblem(FunctionalKind.SQ_DERIV, 3, 1, lam=2.5),
    ]
    ok = all(show_witness(p) for p in sharp)
    print()
    print("-" * 72)
    print("Small weights: the weighted quartic's root is sharp there too; the")
    print("paper's weight-free root is smaller, hence safe but not sharp.")
    print("-" * 72)
    # the paper's weight-free quartics are the weighted ones at 1/2 and 1
    weight_free = {
        kind: radius_for(RadiusProblem(kind, 1, 1, lam=lam)).rho_root
        for kind, lam in ((FunctionalKind.DERIV, 0.5), (FunctionalKind.SQ_DERIV, 1.0))
    }
    small = [
        RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.25),
        RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=0.5),
    ]
    for problem in small:
        if not show_witness(problem):
            ok = False
            continue
        stated = radius_for(problem).rho_root
        crossing = empirical_radius(problem)
        print(f"          family first crosses 1 at rho = {crossing:.7f}, the "
              f"stated root {stated:.7f}")
        print(f"          (weight-free root {weight_free[problem.kind]:.7f})")
    print()
    if not ok:
        print("Missing witness; see lines above.")
        return 1
    print("Witnesses found just beyond every stated radius, small weights")
    print("included.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
