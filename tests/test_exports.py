"""The package's export list names exactly what it exports, and README's
quickstart runs against it."""

import re
from pathlib import Path

import polybohr

DELETED_LABELS = ("DERIV_RHO_SMALL", "SQ_DERIV_RHO_SMALL", "CONVEX_A0_CUBIC",
                  "WITNESS_QUARTIC")
# each is reached as a FunctionalKind member's rho_cap or polynomial (built from
# its coefficients); the CONVEX root's closed form is its float start
DELETED_KIND_ALIASES = ("SQRT2_MINUS_1", "GOLDEN_CONJUGATE", "convex_rho_polynomial",
                        "deriv_rho_polynomial", "sq_deriv_rho_polynomial",
                        "convex_rho_closed_form")
# proved in sympy in tests/test_majorant_algebra.py instead of evaluated
DELETED_EVALUATORS = ("rogosinski_value", "rogosinski_threshold", "phi_psi_monotone",
                      "schwarz_pick_bound", "derivative_bound")
DELETED = ("deriv_rho_polynomial_small", "sq_deriv_rho_polynomial_small",
           "GrowthBound", "DEFAULT_MAX_DEGREE", "convex_bound_cubic",
           "deriv_witness_quartic", "solve_unique_positive_root", "PolyLabel",
           "radius_convex", "radius_deriv", "radius_sq_deriv",
           "PhiPsiMode", "PhiPsiParams") + DELETED_LABELS + DELETED_KIND_ALIASES \
    + DELETED_EVALUATORS
DELETED_FROM_RADII = ("KINDS", "KindSpec", "check_weight",
                      "_convex_rho_closed_form") + DELETED_KIND_ALIASES
ROOT = Path(__file__).parents[1]


def test_all_names_resolve_once_and_deleted_aliases_stay_gone():
    names = polybohr.__all__
    for name in names:
        getattr(polybohr, name)
    assert len(names) == len(set(names))
    assert not set(DELETED) & set(names)
    assert not any(hasattr(polybohr, name) for name in DELETED_KIND_ALIASES)
    assert not hasattr(polybohr, "PolyLabel")
    assert not any(hasattr(polybohr.Functional, name)
                   for name in ("convex", "deriv", "sq_deriv", "from_problem"))
    assert not any(hasattr(polybohr.bounds, name) for name in ("PhiPsiMode", "PhiPsiParams"))
    assert not any(hasattr(polybohr.radii, name) for name in DELETED_FROM_RADII)
    assert not any(hasattr(kind, "closed_form") for kind in polybohr.FunctionalKind)
    assert not any(hasattr(module, name) for name in DELETED_EVALUATORS
                   for module in (polybohr, polybohr.extremal, polybohr.bounds))


def test_export_list_is_pinned():
    # re-adding an alias must be a deliberate edit here
    assert len(polybohr.__all__) == 25


def test_docs_name_no_deleted_function():
    docs = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    assert len(docs) > 1
    for path in docs:
        text = path.read_text()
        named = [name for name in DELETED if re.search(rf"\b{name}\b", text)]
        assert not named, (path.name, named)


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
