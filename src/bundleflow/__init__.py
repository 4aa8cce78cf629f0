"""Simulator and diagnostics for a reduced geometric flow on circle-bundle
ansatz metrics over products of Kahler-Einstein factors.

The public surface groups into four layers: geometry (curvature of the
ansatz from radial profile jets), initial_data (profile construction and
smooth-closure validation), evolution (method-of-lines time integration),
and analysis (trace diagnostics and singularity classification).  The cli
module wraps them behind the ``bundleflow`` command.
"""

__version__ = "0.1.0"

from .geometry import (BundleSpec, Jets, ProfileState, cell_centers,
                       curvature_sup_proxy, kahler_defect, laplacian_f2)
from .initial_data import (PRESETS, ClosingCheck, build_general_profile,
                           build_kahler_profile, calabi_preset,
                           canonical_preset, sample_h, validate_closing)
from .evolution import (FlowConfig, FlowHalt, InvalidInitialState,
                        arclength, regrid_uniform, run_flow)
from .analysis import (FlowTrace, analyze_run, classify_degeneration,
                       classify_singularity_type, estimate_singular_time,
                       schwarz_fit, trace_columns)

__all__ = [name for name in dir() if not name.startswith("_")]
