"""Test helpers shared by several test modules."""


def reference_bisect(f, lo, hi, iters=200):
    """Plain bisection, independent of the package's solver."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# -- the series engine's term loops ---------------------------------------------
#
# Plain term loops over the keys themselves, the reference for the bits of
# TruncatedSeries's operations: the derivative runs on index codes and the
# composition builds its keys from one stream of entries, while the product
# and the majorant sum are term loops too, kept here so that a faster version
# of either must match them.
# Each takes and returns (coeffs, max_degree) data, drops the exact zeros as
# TruncatedSeries._trusted does, and keys its result by plain tuples, whose
# repr is a MultiIndex's.


def _nonzero(coeffs):
    return {a: c for a, c in coeffs.items() if c != 0}


def reference_multiply(coeffs_a, degree_a, coeffs_b, degree_b):
    out = {}
    for a, ca in coeffs_a.items():
        for b, cb in coeffs_b.items():
            key = tuple([x + y for x, y in zip(a, b)])
            out[key] = out.get(key, 0j) + ca * cb
    return degree_a + degree_b, _nonzero(out)


def reference_directional_derivative(coeffs, degree, components):
    out = {}
    for alpha, c in coeffs.items():
        for j, e in enumerate(alpha):
            if e:
                down = list(alpha)
                down[j] = e - 1
                key = tuple(down)
                out[key] = out.get(key, 0j) + c * e * components[j]
    return max(degree - 1, 0), _nonzero(out)


def reference_compose_power_map(coeffs, degree, m):
    return m * degree, _nonzero({tuple([m * e for e in alpha]): c for alpha, c in coeffs.items()})


def reference_bohr_majorant_sum(coeffs, radii, k_min):
    total = 0.0
    for alpha, c in coeffs.items():
        if sum(alpha) < k_min:
            continue
        term = abs(c)
        for j, e in enumerate(alpha):
            if e:
                term *= radii[j] ** e
        total += term
    return total
