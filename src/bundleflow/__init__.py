"""Simulator and diagnostics for a reduced geometric flow on circle-bundle
ansatz metrics over products of Kahler-Einstein factors.

The public surface groups into four layers: geometry (curvature of the
ansatz from radial profile jets), initial_data (profile construction and
smooth-closure validation), evolution (method-of-lines time integration),
and analysis (trace diagnostics and singularity classification).  The cli
module wraps them behind the ``bundleflow`` command.
"""

__version__ = "0.1.0"

from .geometry import (BundleSpec, Jets, ProfileState, RicciComponents,
                       cell_centers, curvature_sup_proxy,
                       horizontal_rm_estimate, kahler_defect, laplacian_f2,
                       oneill_quantities, profile_jets, radial_laplacian,
                       ricci_full, ricci_kahler, shape_operator_eigs,
                       submersion_ricci)
from .initial_data import (PRESETS, ClosingCheck, ClosingReport,
                           ProfileTemplate, build_general_profile,
                           build_kahler_profile, calabi_preset,
                           canonical_preset, sample_h, validate_closing)
from .evolution import (FlowConfig, FlowHalt, InvalidInitialState,
                        arclength, flow_rhs, regrid_uniform, run_flow)
from .analysis import (BoundarySlope, FlowTrace, SingularTimeEstimate,
                       SingularityReport, analyze_run,
                       boundary_linear_check, blowup_rescale,
                       classify_degeneration, classify_singularity_type,
                       estimate_singular_time, heat_residual,
                       kahler_residual, li_yau_monitor, li_yau_quantity,
                       schwarz_fit, trace_columns)

__all__ = [name for name in dir() if not name.startswith("_")]
