"""Safety sweep: the functionals stay at or below 1 inside the stated radius.

For a grid of configurations, verify_radius drives the exact witness-family
values and the majorant chain across (a, rho) grids, checking two properties:

  1. below the stated radius the witness family never pushes the functional
     above 1 (the radius is safe);
  2. the majorant dominates the exact family value pointwise (the upper
     bound chain is a genuine upper bound).

A deliberately inflated radius is checked last as a negative control: the
sweep must detect the violation, otherwise it is not testing anything.
"""

from polybohr import FunctionalKind, RadiusProblem, verify_radius

A_GRID = 400
RHO_GRID = 60


def main() -> int:
    print("=" * 72)
    print("Below-radius safety and majorant dominance")
    print("=" * 72)
    configs = [
        RadiusProblem(FunctionalKind.CONVEX, 1, 1, t=0.0),
        RadiusProblem(FunctionalKind.CONVEX, 2, 1, t=0.75),
        RadiusProblem(FunctionalKind.CONVEX, 4, 2, t=0.9),
        RadiusProblem(FunctionalKind.DERIV, 1, 1, lam=0.5),
        RadiusProblem(FunctionalKind.DERIV, 2, 2, lam=1.0),
        RadiusProblem(FunctionalKind.DERIV, 4, 1, lam=2.0),
        RadiusProblem(FunctionalKind.SQ_DERIV, 1, 1, lam=1.0),
        RadiusProblem(FunctionalKind.SQ_DERIV, 3, 2, lam=2.0),
    ]
    failures = 0
    for problem in configs:
        check = verify_radius(problem, A_GRID, RHO_GRID, 0.0)
        status = "PASS" if check.ok else "FAIL"
        failures += 0 if check.ok else 1
        print(f"[{status}] {problem.kind.value:<9} n={problem.n} m={problem.m} "
              f"weight={problem.weight:<5} max value {check.max_value:.12f}  "
              f"min dominance margin {check.min_margin:+.2e}")
    print()
    print("Negative control: same sweep with the radius inflated by 1%.")
    problem = RadiusProblem(FunctionalKind.CONVEX, 2, 1, t=0.3)
    check = verify_radius(problem, A_GRID, RHO_GRID, 0.01)
    if check.below_violations:
        print(f"[PASS] violation detected as required: max value "
              f"{check.max_value:.12f} > 1")
    else:
        failures += 1
        print(f"[FAIL] inflated radius went undetected (max {check.max_value:.12f})")
    print()
    if failures:
        print(f"{failures} check(s) failed.")
        return 1
    print("All sweeps passed on their float grids (a grid check, not a proof).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
