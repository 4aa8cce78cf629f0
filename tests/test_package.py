"""The package namespace exports exactly the names production relies on."""

import ast
import types
from pathlib import Path

import bundleflow

# Exported but not yet called by the package: ROADMAP item 4 makes the
# run report its worst rel_error.  Remove the entry when that lands.
NOT_YET_CALLED = {"boundary_linear_check"}


def test_public_surface_is_pinned():
    assert set(bundleflow.__all__) == {
        # Submodules.
        "analysis", "evolution", "geometry", "initial_data",
        # geometry
        "BundleSpec", "Jets", "ProfileState", "cell_centers",
        "curvature_sup_proxy", "kahler_defect", "laplacian_f2",
        # initial_data
        "PRESETS", "ClosingCheck", "ClosingReport", "ProfileTemplate",
        "build_general_profile", "build_kahler_profile", "calabi_preset",
        "canonical_preset", "sample_h", "validate_closing",
        # evolution
        "FlowConfig", "FlowHalt", "InvalidInitialState", "arclength",
        "regrid_uniform", "run_flow",
        # analysis
        "BoundarySlope", "FlowTrace", "SingularTimeEstimate",
        "SingularityReport", "analyze_run", "boundary_linear_check",
        "classify_degeneration", "classify_singularity_type",
        "estimate_singular_time", "li_yau_monitor", "schwarz_fit",
        "trace_columns",
    }


def test_every_export_is_used_by_the_package():
    # A name counts as used when some module of the package other than
    # __init__ reads it, as a bare name or as an attribute.
    used = set()
    for path in Path(bundleflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {name for name in bundleflow.__all__
                if not isinstance(getattr(bundleflow, name),
                                  types.ModuleType)}
    assert exported - used == NOT_YET_CALLED
