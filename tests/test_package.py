"""The package exports, and its records hold, only what production reads;
importing it loads no stdlib module that no verb needs, and numpy only on
first use."""

import ast
import json
import os
import subprocess
import sys
import textwrap
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
        "PRESETS", "ClosingCheck", "build_general_profile",
        "build_kahler_profile", "calabi_preset", "canonical_preset",
        "sample_h", "validate_closing",
        # evolution
        "FlowConfig", "FlowHalt", "InvalidInitialState", "arclength",
        "regrid_uniform", "run_flow",
        # analysis
        "FlowTrace", "analyze_run", "classify_degeneration",
        "classify_singularity_type", "estimate_singular_time",
        "schwarz_fit", "trace_columns",
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


def test_every_module_name_is_read():
    # Every module-level function, class and assigned name of the package
    # is loaded somewhere in it, as a bare name or as an attribute, by a
    # module other than __init__; one that is only defined is dead code.
    defined, loaded = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined |= {(path.stem, name.id) for name in ast.walk(node)
                            if isinstance(name, ast.Name)
                            and isinstance(name.ctx, ast.Store)}
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    unread = {(module, name) for module, name in defined
              if name not in loaded and name != "__all__"}
    assert unread == set(), sorted(unread)


# The records of the package: namedtuples and the classes whose __init__
# stores the fields.
RECORDS = {"RunConfig", "Jets", "ClosingCheck", "BundleSpec", "ProfileState",
           "FlowConfig", "FlowTrace"}


def _record_fields(tree):
    """(record, field) pairs of one module: the field list of each
    namedtuple call and the self.<name> attributes each __init__ assigns."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "namedtuple"):
            name, fields = (arg.value for arg in node.args)
            yield from ((name, field) for field in fields.split())
        elif isinstance(node, ast.ClassDef):
            for init in node.body:
                if not (isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"):
                    continue
                yield from ((node.name, sub.attr) for sub in ast.walk(init)
                            if isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and getattr(sub.value, "id", None) == "self")


def _attribute_loads(node, owner=None):
    """(class, name) of every attribute load and constant getattr name
    under node, with the class whose body holds it (None outside one)."""
    if isinstance(node, ast.ClassDef):
        owner = node.name
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield owner, node.attr
    elif (isinstance(node, ast.Call)
          and getattr(node.func, "id", None) == "getattr"
          and len(node.args) >= 2
          and isinstance(node.args[1], ast.Constant)):
        yield owner, node.args[1].value
    for child in ast.iter_child_nodes(node):
        yield from _attribute_loads(child, owner)


def test_every_record_field_is_read():
    # A field counts as read when some module of the package loads it as
    # an attribute or names it in a getattr call, outside the body of the
    # record's own class; a field that is only ever written, or read only
    # by its own class (to range-check it, or to derive another field), is
    # a go-between nothing consumes.
    loads, fields = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        fields |= set(_record_fields(tree))
        loads |= set(_attribute_loads(tree))
    # Every record is seen, so the check below is not vacuous.
    assert RECORDS <= {cls for cls, _ in fields}
    unread = {(cls, name) for cls, name in fields
              if not any(attr == name and owner != cls
                         for owner, attr in loads)}
    assert unread == set(), sorted(unread)


def test_verbs_import_only_what_they_use(tmp_path):
    # A fresh interpreter: the stdlib modules that importing bundleflow.cli
    # adds to numpy's, and whether plot then loads hashlib (OpenSSL), which
    # only writing or checking a manifest needs.
    from bundleflow.cli import main

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"flow": {"cells": 32, "t_end": 0.004},
                               "initial": {"preset": "canonical"}}))
    rundir = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(rundir)]) == 0
    script = textwrap.dedent("""
        import sys
        import numpy
        before = set(sys.modules)
        import bundleflow.cli as cli
        added = sorted(set(sys.modules) - before)
        code = cli.main(["plot", sys.argv[1]])
        print(added, code, "hashlib" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(rundir)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    added, code, hashlib_loaded = proc.stdout.splitlines()[-1].rsplit(" ", 2)
    unneeded = {"argparse", "gettext", "csv", "dataclasses", "hashlib",
                "_hashlib"}
    assert unneeded & set(ast.literal_eval(added)) == set()
    assert (code, hashlib_loaded) == ("0", "False")


def test_analyze_never_loads_numpy(tmp_path):
    # A fresh interpreter that imports what perfbench/child.py imports and
    # then analyzes a run directory: numpy stays an unloaded lazy module,
    # and report.json is byte for byte the one that run wrote.  plot
    # --field kappa, which writes all four figures, leaves it unloaded too.
    from bundleflow.cli import main

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "flow": {"cells": 16, "t_end": 1.0, "snapshot_every": 5},
        "initial": {"preset": "calabi",
                    "params": {"n": 2, "k_lens": 1, "f0": 6.0}}}))
    rundir = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(rundir)]) == 0
    report = (rundir / "report.json").read_bytes()
    assert len(json.loads(report)["rescale_factors"]) >= 2
    script = textwrap.dedent("""
        import json
        import sys
        import bundleflow.cli as cli
        import bundleflow.evolution
        import bundleflow.initial_data
        def loaded():
            return sorted(name for name in sys.modules
                          if name.startswith("numpy."))
        lazy = type(sys.modules["numpy"]).__name__
        code = cli.main(["analyze", sys.argv[1]])
        after_analyze = loaded()
        plot = cli.main(["plot", sys.argv[1], "--field", "kappa"])
        print(json.dumps([lazy, code, after_analyze, plot, loaded()]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(rundir)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lazy, code, after_analyze, plot, after_plot = json.loads(
        proc.stdout.splitlines()[-1])
    assert (lazy, code, after_analyze) == ("_LazyModule", 0, [])
    assert (rundir / "report.json").read_bytes() == report
    assert (plot, after_plot) == (0, [])
    assert len(list(rundir.glob("*.svg"))) == 4
