"""Radius tables for the three Bohr-type functionals on the polydisc.

Walks the root solver across (n, m, weight) grids and prints the
resulting radii next to the quantities that back them: the rho root,
the polynomial residual, and (for the convex functional) the closed form.
"""

import math

from polybohr import FunctionalKind, RadiusProblem, radius_for


def banner(title):
    print("=" * 72)
    print(title)
    print("=" * 72)


def convex_table():
    banner("Convex combination t*|f(z)| + (1-t)*Bohr sum")
    print(f"{'n':>3} {'m':>3} {'t':>6} {'radius':>18} {'rho root':>18} "
          f"{'closed form':>18} {'residual':>10}")
    for n in (1, 2, 4, 8):
        for m in (1, 2):
            for t in (0.0, 0.3, 0.75, 0.9):
                res = radius_for(RadiusProblem(FunctionalKind.CONVEX, n, m, t=t))
                rho = 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - t))
                closed = (rho / n) ** (1.0 / m)
                print(f"{n:>3} {m:>3} {t:>6.2f} {res.radius:>18.12f} "
                      f"{res.rho_root:>18.12f} {closed:>18.12f} "
                      f"{res.residual:>10.1e}")
    print()
    print("t = 0 recovers the classical radius: rho = 1/3 for every (n, m).")
    print("t = 3/4 is the degenerate weight where the quadratic turns linear;")
    print("the rationalized closed form 1/(1 + 2 sqrt(1 - t)) passes through")
    print("it smoothly and the solver reports rho = 0.5 with zero residual.")
    print()


def deriv_table():
    banner("Bohr sum plus weighted derivative term")
    print(f"{'n':>3} {'m':>3} {'lam':>6} {'radius':>18} {'rho root':>18} "
          f"{'branch':>34}")
    for n in (1, 2, 4):
        for m in (1, 2):
            for lam in (0.25, 0.5, 1.0, 2.0):
                res = radius_for(RadiusProblem(FunctionalKind.DERIV, n, m, lam=lam))
                print(f"{n:>3} {m:>3} {lam:>6.2f} {res.radius:>18.12f} "
                      f"{res.rho_root:>18.12f} {res.branch:>34}")
    print()
    print("The weighted quartic gives the sharp radius for every lam > 0: it")
    print("falls as lam grows and tends to sqrt(2) - 1 as lam -> 0. The paper's")
    print("weight-free root 0.31905... is the lam = 1/2 value; below 1/2 it is")
    print("safe but not sharp.")
    print(f"At lam = 1 the rho root is (sqrt(17) - 3)/4 = "
          f"{(math.sqrt(17) - 3) / 4:.12f} exactly.")
    print()


def sq_deriv_table():
    banner("Squared modulus plus weighted derivative term")
    print(f"{'n':>3} {'m':>3} {'lam':>6} {'radius':>18} {'rho root':>18} "
          f"{'branch':>37}")
    for n in (1, 2, 4):
        for m in (1, 2):
            for lam in (0.5, 1.0, 2.0, 4.0):
                res = radius_for(RadiusProblem(FunctionalKind.SQ_DERIV, n, m, lam=lam))
                print(f"{n:>3} {m:>3} {lam:>6.2f} {res.radius:>18.12f} "
                      f"{res.rho_root:>18.12f} {res.branch:>37}")
    print()
    print("The squared head buys a larger radius, tending to (sqrt(5) - 1)/2")
    print("as lam -> 0; the paper's weight-free root 0.38579... is the lam = 1")
    print("value, safe but not sharp below it.")
    print()


def main() -> int:
    convex_table()
    deriv_table()
    sq_deriv_table()
    print("Each rho root above is correctly rounded, with an exact two-float")
    print("bracket: the polynomial's exact signs differ at the two adjacent")
    print("floats around the root, and the residual is for information only;")
    print("rho = n * r^m converts between the geometric radius r and the")
    print("normalized variable the quartics live in.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
