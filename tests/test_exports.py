"""The package's export list names exactly what it exports."""

import polybohr

DELETED_LABELS = ("DERIV_RHO_SMALL", "SQ_DERIV_RHO_SMALL", "CONVEX_A0_CUBIC",
                  "WITNESS_QUARTIC")
DELETED = ("deriv_rho_polynomial_small", "sq_deriv_rho_polynomial_small",
           "GrowthBound", "DEFAULT_MAX_DEGREE", "convex_bound_cubic",
           "deriv_witness_quartic", "solve_unique_positive_root", "PolyLabel",
           "radius_convex", "radius_deriv", "radius_sq_deriv") + DELETED_LABELS
DELETED_FROM_RADII = ("KINDS", "KindSpec")


def test_all_names_resolve_once_and_deleted_aliases_stay_gone():
    names = polybohr.__all__
    for name in names:
        getattr(polybohr, name)
    assert len(names) == len(set(names))
    assert not set(DELETED) & set(names)
    assert not hasattr(polybohr, "PolyLabel")
    assert not any(hasattr(polybohr.Functional, kind)
                   for kind in ("convex", "deriv", "sq_deriv"))
    assert not any(hasattr(polybohr.radii, name) for name in DELETED_FROM_RADII)


def test_export_list_is_pinned():
    # re-adding an alias must be a deliberate edit here
    assert len(polybohr.__all__) == 38
