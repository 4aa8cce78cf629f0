"""Fuzz of the command line: damaged configs and run directories.

Every outcome must be an exit code (0, 2 or 3 for ``run``; 0 or 2 for
``analyze`` and ``plot``), never a traceback.  The suite turns numpy
warnings into errors, so an overflow on hostile input fails here too.
"""

import copy
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow.cli import main

CELLS = 16
# flow.cells and flow.t_end set run time and memory, so mutated configs
# are capped at these.
MAX_CELLS = 64
MAX_T_END = 0.02

TEMPLATES = [
    {"flow": {"cells": CELLS, "t_end": MAX_T_END},
     "initial": {"preset": "canonical"}},
    {"flow": {"cells": CELLS, "t_end": MAX_T_END, "trace_every": 2},
     "initial": {"preset": "calabi",
                 "params": {"n": 2, "k_lens": 1, "length": math.pi}},
     "analysis": {"plateau_factor": 2.0, "decades": 2.0}},
    {"flow": {"cells": CELLS, "t_end": MAX_T_END, "snapshot_every": 3,
              "regrid_threshold": 1.05, "stop_floor": 1e-3},
     "bundle": {"n": [1, 1], "k": [2.0, 1.0], "q": [2, 1]},
     "initial": {"template": {"length": math.pi, "f0": [2.0, 3.0]}}},
    {"flow": {"cells": CELLS, "t_end": MAX_T_END, "cfl": 0.2},
     "bundle": {"n": [1], "k": [2.0], "q": [2], "lambda": [1.0]},
     "initial": {"template": {"length": math.pi, "mode": "general",
                              "f_templates": [[4.0] * CELLS]}},
     "analysis": {"liyau_c0": 1.0}},
]

VALUES = st.sampled_from([
    True, False, None, "", "x", "0.5", 0, -1, -2.5, 1e308, -1e308, 1e-308,
    10 ** 400, [], [1], [0.5, "a"], {}, {"a": 1}])
GARBAGE = [b"", b"\xff\xfe\x00", b"{", b"[]", b"null", b"not json",
           b"t,dt\n1,2\n", b"\x80abc"]


def _paths(node, prefix=(), lists=True):
    """Paths to every node below ``node``; list items only with ``lists``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and lists:
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        path = prefix + (key,)
        out.append(path)
        out += _paths(child, path, lists)
    return out


def _mutate(doc, paths, pick, value, delete):
    """Set (or delete) the node at paths[pick % len(paths)] of ``doc``."""
    if not paths:
        return
    path = paths[pick % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


def _cap(conf):
    """Bound the run's size whatever the mutation left in flow."""
    flow = conf.setdefault("flow", {})
    if not isinstance(flow, dict):
        return
    cells = flow.get("cells", 400)
    if isinstance(cells, int) and not isinstance(cells, bool) \
            and cells > MAX_CELLS:
        flow["cells"] = MAX_CELLS
    t_end = flow.get("t_end", 1.0)
    if isinstance(t_end, (int, float)) and not isinstance(t_end, bool) \
            and t_end > MAX_T_END:
        flow["t_end"] = MAX_T_END


EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6), VALUES, st.booleans()),
                 min_size=1, max_size=3)


# More examples than the profile's default: each one takes milliseconds.
@settings(max_examples=150)
@given(template=st.integers(0, len(TEMPLATES) - 1), edits=EDITS,
       garbage=st.one_of(st.none(), st.sampled_from(GARBAGE)))
def test_run_on_mutated_config_exits_cleanly(template, edits, garbage):
    conf = copy.deepcopy(TEMPLATES[template])
    for pick, value, delete in edits:
        _mutate(conf, _paths(conf), pick, value, delete)
    _cap(conf)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        if garbage is None:
            path.write_text(json.dumps(conf))
        else:
            path.write_bytes(garbage)
        code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    conf = root / "config.json"
    conf.write_text(json.dumps({
        "flow": {"cells": CELLS, "t_end": MAX_T_END, "snapshot_every": 4},
        "initial": {"preset": "canonical"}}))
    out = root / "run"
    assert main(["run", str(conf), "--out", str(out)]) == 0
    return out


DAMAGE = st.lists(
    st.tuples(st.sampled_from(["delete", "truncate", "overwrite", "edit"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), VALUES,
              st.booleans(), st.sampled_from(GARBAGE)),
    min_size=1, max_size=3)


def _damage(out, op, pick, aux, value, delete, garbage):
    files = sorted(p for p in out.rglob("*") if p.is_file())
    if not files:
        return
    target = files[pick % len(files)]
    if op == "delete":
        target.unlink()
    elif op == "truncate":
        data = target.read_bytes()
        target.write_bytes(data[:aux % (len(data) + 1)])
    elif op == "overwrite":
        target.write_bytes(garbage)
    elif target.suffix == ".json":
        try:
            doc = json.loads(target.read_text())
        except ValueError:
            return
        _mutate(doc, _paths(doc, lists=False), aux, value, delete)
        target.write_text(json.dumps(doc))


@settings(max_examples=150)
@given(damage=DAMAGE, field=st.sampled_from([None, "kappa", "bogus"]))
def test_verbs_on_damaged_run_dir_exit_cleanly(small_run, damage, field):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(small_run, out)
        for op, pick, aux, value, delete, garbage in damage:
            _damage(out, op, pick, aux, value, delete, garbage)
        assert main(["analyze", str(out)]) in (0, 2)
        plot = ["plot", str(out)] + ([] if field is None
                                     else ["--field", field])
        assert main(plot) in (0, 2)
