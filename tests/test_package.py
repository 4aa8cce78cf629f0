"""The package exports, and its dataclasses hold, only what production reads."""

import ast
import types
from pathlib import Path

import bundleflow

PACKAGE = Path(bundleflow.__file__).parent


def test_public_surface_is_pinned():
    assert set(bundleflow.__all__) == {
        # Submodules.
        "analysis", "evolution", "geometry", "initial_data",
        # geometry
        "BundleSpec", "Jets", "ProfileState", "cell_centers",
        "curvature_sup_proxy", "kahler_defect", "laplacian_f2",
        # initial_data
        "PRESETS", "ClosingCheck", "ClosingReport", "build_general_profile", "build_kahler_profile", "calabi_preset",
        "canonical_preset", "sample_h", "validate_closing",
        # evolution
        "FlowConfig", "FlowHalt", "InvalidInitialState", "arclength",
        "regrid_uniform", "run_flow",
        # analysis
        "FlowTrace", "analyze_run", "classify_degeneration",
        "classify_singularity_type", "estimate_singular_time",
        "li_yau_monitor", "schwarz_fit", "trace_columns",
    }


def test_every_export_is_used_by_the_package():
    # A name counts as used when some module of the package other than
    # __init__ reads it, as a bare name or as an attribute.
    used = set()
    for path in PACKAGE.glob("*.py"):
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
    assert exported - used == set()


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (getattr(decorator, "id", None) == "dataclass"
            or getattr(decorator, "attr", None) == "dataclass")


def test_every_dataclass_field_is_read():
    # A field counts as read when some module of the package loads it as
    # an attribute or names it in a getattr call; a field that is only
    # ever written is a go-between nothing consumes.
    read, fields = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
            elif (isinstance(node, ast.ClassDef)
                  and any(map(_is_dataclass, node.decorator_list))):
                fields |= {(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
    unread = {(cls, name) for cls, name in fields if name not in read}
    assert unread == set(), sorted(unread)
