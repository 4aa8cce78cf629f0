"""The package namespace exports exactly the names production relies on."""

import bundleflow


def test_public_surface_is_pinned():
    assert set(bundleflow.__all__) == {
        # Submodules.
        "analysis", "evolution", "geometry", "initial_data",
        # geometry
        "BundleSpec", "Jets", "ProfileState", "RicciComponents",
        "cell_centers", "curvature_sup_proxy", "kahler_defect",
        "laplacian_f2", "profile_jets", "ricci_full", "ricci_kahler",
        # initial_data
        "PRESETS", "ClosingCheck", "ClosingReport", "ProfileTemplate",
        "build_general_profile", "build_kahler_profile", "calabi_preset",
        "canonical_preset", "sample_h", "validate_closing",
        # evolution
        "FlowConfig", "FlowHalt", "InvalidInitialState", "arclength",
        "flow_rhs", "regrid_uniform", "run_flow",
        # analysis
        "BoundarySlope", "FlowTrace", "SingularTimeEstimate",
        "SingularityReport", "analyze_run", "boundary_linear_check",
        "classify_degeneration", "classify_singularity_type",
        "estimate_singular_time", "li_yau_monitor", "schwarz_fit",
        "trace_columns",
    }
