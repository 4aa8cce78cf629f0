"""Simulator and diagnostics for a reduced geometric flow on circle-bundle
ansatz metrics over products of Kahler-Einstein factors.

The public surface groups into four layers: geometry (curvature of the
ansatz from radial profile jets), initial_data (profile construction and
smooth-closure validation), evolution (method-of-lines time integration),
and analysis (trace diagnostics and singularity classification).  The cli
module wraps them behind the ``bundleflow`` command.

numpy loads on first use.  Importing the package registers it as a lazy
module when it is not imported yet, so ``bundleflow analyze``, which
computes on Python floats, never loads it.
"""

__version__ = "0.1.0"


def _lazy_import(name):
    """The module ``name`` from sys.modules, registered there through
    importlib.util.LazyLoader first when it is not imported yet: its code
    then runs on the first attribute access.  The modules of the package
    bind numpy with this call, since an import statement reads the
    module's __spec__ and so loads it at once."""
    import importlib.util
    import sys

    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


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
