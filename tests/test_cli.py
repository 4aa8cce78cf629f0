"""Config loading, run directories, verbs, exit codes, and SVG output."""

import gc
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import bundleflow.cli as cli
import bundleflow.evolution as evo
import bundleflow.geometry as geo
import bundleflow.initial_data as initial_data
from bundleflow.analysis import (NO_SINGULARITY, FlowTrace, analyze_run,
                                 trace_columns)
from bundleflow.cli import (ConfigError, load_config, main, read_snapshots,
                            read_trace, render_plots, write_outputs)
from reference import read_snapshot

POINT_RE = re.compile(r'points="([^"]+)"')


def polylines(svg_text):
    """Extract the raw data polylines as (x array, y array) pairs."""
    out = []
    for m in POINT_RE.finditer(svg_text):
        pairs = [p.split(",") for p in m.group(1).split()]
        arr = np.array(pairs, float)
        out.append((arr[:, 0], arr[:, 1]))
    return out


def write_config(path, **sections):
    base = {"flow": {"cells": 32, "t_end": 0.0},
            "initial": {"preset": "canonical"}}
    base.update(sections)
    path.write_text(json.dumps(base))
    return path


def calabi_params(params):
    """Config mutation that swaps template data for the Calabi preset."""
    def mutate(conf):
        del conf["bundle"]
        conf["initial"] = {"preset": "calabi", "params": params}
    return mutate


def synthetic_run_dir(out):
    """Persist a synthetic fiber-collapse run for plot and analyze tests."""
    tau = np.logspace(np.log10(0.5), -4.0, 60)
    t = 0.5 - tau
    n = t.size
    zeros = np.zeros(n)
    rows = np.column_stack([
        t, zeros, 1.0 / (2.0 * tau), np.sqrt(2.0 * tau) / 2.0,
        np.sqrt(2.0 * tau), 3.0 + tau, 6.0 + tau, zeros, zeros,
        np.ones(n), np.full(n, math.pi), np.full(n, 6.0), 6.0 - 8.0 * t])
    trace = FlowTrace(r=1, rows=rows.tolist())
    report = analyze_run(trace, [], stop_floor=1e-3)
    write_outputs(trace, [], report, out, raw_config={"flow": {}})
    return trace, report


class TestLoadConfig:
    def test_minimal_preset_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        spec = cfg.spec
        assert np.array_equal(np.hstack([spec.n, spec.k, spec.q, spec.lam]),
                              [[1, 2, 2, 1]])
        assert cfg.state0.cells == 32
        assert cfg.flow.stop_floor == 1e-3
        assert cfg.out_dir is None

    def test_cfl_up_to_the_forward_euler_edge(self, tmp_path):
        # flow.cfl is range-checked, so that existing configs load, and
        # otherwise ignored; flow.cells sizes the built state.
        cfg = load_config(write_config(
            tmp_path / "c.json", flow={"cells": 40, "cfl": 0.375}))
        assert cfg.state0.cells == 40

    def test_template_config_with_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 48, "t_end": 0.0},
            "bundle": {"n": [1], "k": [2.0], "q": [-2]},
            "initial": {"template": {"length": math.pi, "f0": [6.0]}},
            "output": {"dir": str(tmp_path / "out")},
        }))
        cfg = load_config(path)
        # lambda defaults to |k| when omitted.
        assert np.array_equal(cfg.spec.lam, [[2.0]])
        assert cfg.state0.f.shape == (1, 48)
        assert cfg.out_dir == str(tmp_path / "out")

    @pytest.mark.parametrize("mutate,needle", [
        (lambda c: c["bundle"].update(q=[0]), "bundle.q[0]"),
        (lambda c: c["flow"].update(cfl=1.5), "cfl"),
        (lambda c: c["flow"].update(cfl="fast"), "flow.cfl"),
        (lambda c: c["flow"].update(cells=True), "flow.cells"),
        (lambda c: c["flow"].update(dt=0.1), "flow.dt"),
        (lambda c: c.update(extra={}), "extra"),
        (lambda c: c["bundle"].update(twist=[1]), "bundle.twist"),
        (lambda c: c["initial"]["template"].update(shape="x"),
         "initial.template.shape"),
        (lambda c: (c["initial"]["template"].pop("f0"),
                    c["initial"]["template"].update(
                        mode="general", f_templates=[[1, 2, 3], [1, 2]])),
         "initial.template.f_templates rows must all have the same length"),
        # Each mode takes its own key and rejects the other mode's.
        (lambda c: c["initial"]["template"].update(f_templates=[[1, 2, 3]]),
         "initial.template.f_templates is not valid with mode 'kahler'"),
        (lambda c: c["initial"]["template"].update(mode="general",
                                                   f0=[-5.0]),
         "initial.template.f0 is not valid with mode 'general'"),
        (lambda c: c["initial"]["template"].pop("f0"),
         "initial.template.f0 is required"),
        (lambda c: (c["initial"]["template"].pop("f0"),
                    c["initial"]["template"].update(mode="general")),
         "initial.template.f_templates is required"),
        (lambda c: c.pop("initial"), "initial section is required"),
        (lambda c: c["initial"].pop("template"), "exactly one"),
        # The verdict thresholds are constants, not settings.
        (lambda c: c.update(analysis={"plateau_factor": 2.0}),
         "unknown key 'analysis'"),
        (calabi_params({"length": 1e308}),
         "initial.params: length 1e+308 is too large"),
        (calabi_params({"length": 1e154}),
         "initial.params: length 1e+154 is too large"),
        (calabi_params({"n": 2.5}),
         "initial.params: n must be an integer, got 2.5"),
        (calabi_params({"k_lens": 1.5}),
         "initial.params: k_lens must be an integer, got 1.5"),
        (calabi_params({"twist": 5}),
         "initial.params: calabi_preset() got an unexpected keyword "
         "argument 'twist'"),
        (calabi_params({"k1": True}), "initial.params.k1 must be a number"),
        (calabi_params({"f0": True}), "initial.params.f0 must be a number"),
        (calabi_params({"length": 1e400}),
         "initial.params.length must be a finite number"),
        (lambda c: c["output"].update(dir=7), "must be a string"),
        (lambda c: c["flow"].update(cfl=0.4),
         "flow.cfl must lie in (0, 0.375]"),
        (calabi_params({"k_lens": 1e308}),
         "initial.params: overflow encountered"),
        (lambda c: c["initial"]["template"].update(length=1e308),
         "initial.template: overflow encountered"),
        (lambda c: c["bundle"].update(q=[10 ** 400]),
         "bundle.q[0] is too large"),
        (lambda c: c["flow"].update(t_end=10 ** 400),
         "flow.t_end must be a finite number"),
        (lambda c: (c.pop("bundle"), c.update(initial={"preset": []})),
         "initial.preset '[]' unknown"),
        (lambda c: c["bundle"].update(n=[]),
         "bundle.n must be a nonempty array of integers"),
        (lambda c: c["bundle"].update(q=2),
         "bundle.q must be a nonempty array of integers"),
        (lambda c: c["bundle"].update(n=[1.0]), "bundle.n[0] must be an "
                                                "integer"),
        (lambda c: c["bundle"].update(q=[1, 0]),
         "bundle.q[1] must be nonzero"),
        (lambda c: c["bundle"].update(k=2.0),
         "bundle.k must be a nonempty array of numbers"),
        (lambda c: c["initial"]["template"].pop("length"),
         "initial.template.length is required"),
        (lambda c: c["initial"]["template"].update(h=5),
         "initial.template.h must be a name or an array"),
        (lambda c: c["initial"]["template"].update(h=[0.1, 0.2]),
         "initial.template: sampled h template must match the cell count"),
        (lambda c: c["initial"]["template"].update(mode="hermitian"),
         "initial.template.mode must be 'kahler' or 'general'"),
        (lambda c: (c["initial"]["template"].pop("f0"),
                    c["initial"]["template"].update(mode="general",
                                                    f_templates=3)),
         "initial.template.f_templates must be a nonempty array of arrays"),
        (lambda c: c["bundle"].update({"lambda": [1.0, 2.0]}),
         "bundle: lam must match n in length"),
        # A section or key that is present but null counts as present.
        (lambda c: c.update(bundle=None, initial={"preset": "canonical"}),
         "bundle section conflicts with initial.preset"),
        (lambda c: (c.pop("bundle"),
                    c.update(initial={"preset": "canonical",
                                      "template": None})),
         "initial must give exactly one of 'preset' or 'template'"),
        (lambda c: (c.pop("bundle"), c.update(initial={"preset": None})),
         "initial.preset 'None' unknown"),
        (lambda c: c.update(bundle=None), "bundle must be an object"),
        (lambda c: c["initial"].update(template=None),
         "initial.template must be an object"),
        (lambda c: c.update(initial=None), "initial must be an object"),
    ])
    def test_rejections_name_the_field(self, tmp_path, mutate, needle):
        conf = {"flow": {"cells": 32, "t_end": 0.0},
                "bundle": {"n": [1], "k": [2.0], "q": [2]},
                "initial": {"template": {"length": math.pi, "f0": [4.0]}},
                "output": {}}
        mutate(conf)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match=re.escape(needle)):
            load_config(path)

    def test_benchmark_workload_configs_load(self, tmp_path):
        # The benchmark stops at exit 2 if its generated configs break the
        # config contract.  perfbench/run.py pins BLAS threads in os.environ
        # when imported, so the configs are made and loaded in a child.
        root = Path(__file__).resolve().parents[1]
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import run\n"
            "from bundleflow.cli import load_config\n"
            "for name in sorted(run.WORKLOADS):\n"
            "    for seed in (0, 1):\n"
            "        path = Path(sys.argv[2]) / f'{name}_{seed}.json'\n"
            "        path.write_text(json.dumps(run.make_config(name, seed)))\n"
            "        load_config(path)\n"
            "        print(name, seed)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(root / "perfbench"),
             str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        workloads = json.loads((root / "BENCHMARK.json").read_text())
        want = {f"{w['name']} {seed}" for w in workloads["workloads"]
                for seed in (0, 1)}
        assert want <= set(proc.stdout.splitlines())

    def test_preset_exclusivity_rules(self, tmp_path):
        path = tmp_path / "c.json"
        conf = {"flow": {"cells": 32},
                "bundle": {"n": [1], "k": [2.0], "q": [2]},
                "initial": {"preset": "canonical"}}
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match="conflicts"):
            load_config(path)
        conf = {"flow": {"cells": 32},
                "initial": {"preset": "canonical",
                            "template": {"length": 1.0}}}
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)
        conf = {"flow": {"cells": 32},
                "initial": {"template": {"length": 1.0, "f0": [4.0]},
                            "params": {"n": 2}}}
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match="only valid with a preset"):
            load_config(path)
        conf = {"flow": {"cells": 32},
                "initial": {"template": {"length": 1.0, "f0": [4.0]}}}
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match="needs a bundle"):
            load_config(path)
        conf = {"flow": {"cells": 32}, "initial": {"preset": "wrong"}}
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match="available:"):
            load_config(path)

    def test_template_positivity_failure(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 32},
            "bundle": {"n": [1], "k": [2.0], "q": [-2]},
            "initial": {"template": {"length": math.pi, "f0": [2.0]}}}))
        with pytest.raises(ConfigError, match="initial.template"):
            load_config(path)

    def test_file_level_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        top = tmp_path / "top.json"
        top.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_config(top)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(binary)


class TestRunVerb:
    def test_zero_duration_run_writes_contract_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(trace_columns(1))
        assert len(lines) == 2
        assert (out / "boundary.csv").read_text().splitlines()[0] \
            == "t,f1sq_left,f1sq_right"
        snaps = sorted((out / "snapshots").glob("snap_*.json"))
        assert [p.name for p in snaps] == ["snap_00000.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == NO_SINGULARITY
        assert report["T_hat"] is None
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "bundleflow"
        assert set(manifest["files"]) == {
            "trace.csv", "boundary.csv", "snapshots/snap_00000.json",
            "report.json", "config.json"}
        assert all(re.fullmatch(r"[0-9a-f]{64}", d)
                   for d in manifest["files"].values())
        assert json.loads((out / "config.json").read_text()) \
            == json.loads(cfg.read_text())
        assert "outputs written" in capsys.readouterr().out

    def test_out_flag_overrides_config_dir(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           output={"dir": str(tmp_path / "ignored")})
        out = tmp_path / "explicit"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_output_dir_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["run", str(cfg)]) == 2
        assert "no output directory" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.002})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        names = ["trace.csv", "boundary.csv", "report.json", "config.json",
                 "manifest.json", "snapshots/snap_00000.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                name

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # The stage update and the Ricci rows are matrix products; a run
        # with one BLAS thread and one with the library's default must
        # write the same bytes.
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 24, "t_end": 0.3,
                                 "snapshot_every": 10})
        src = str(Path(geo.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", None):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads_{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "bundleflow.cli", "run", str(cfg),
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append({p.relative_to(out).as_posix(): p.read_bytes()
                         for p in out.rglob("*") if p.is_file()})
        assert len(outs[0]["trace.csv"].splitlines()) > 10
        assert len(outs[0]) >= 7
        assert outs[0] == outs[1]

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 32},
            "bundle": {"n": [1], "k": [2.0], "q": [0]},
            "initial": {"template": {"length": math.pi, "f0": [4.0]}}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "bundle.q[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("cells", 7, "flow.cells must be an integer >= 8"),
        ("cells", 10.5, "flow.cells must be an integer"),
        ("cells", True, "flow.cells must be an integer"),
        ("cfl", 0.0, "flow.cfl must lie in (0, 0.375]"),
        ("cfl", 0.4, "flow.cfl must lie in (0, 0.375]"),
        ("cfl", 1.5, "flow.cfl must lie in (0, 0.375]"),
        ("cfl", "fast", "flow.cfl must be a number"),
    ])
    def test_bad_cells_or_cfl_exits_two(self, tmp_path, capsys, key, value,
                                        message):
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.0, key: value})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cells", [10 ** 18, cli.MAX_CELLS + 1])
    def test_oversized_cells_exit_two_before_any_allocation(
            self, tmp_path, capsys, monkeypatch, cells):
        # The bound is checked before the initial data are built, so not
        # even 10^18 cells allocate anything.
        def unreachable(*args, **kwargs):
            raise AssertionError("initial data built")

        monkeypatch.setitem(cli.PRESETS, "canonical", unreachable)
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": cells, "t_end": 0.0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: flow.cells must be at most {cli.MAX_CELLS}\n")
        assert not (tmp_path / "o").exists()
        assert cli._parse_flow({"cells": cli.MAX_CELLS})[0] == cli.MAX_CELLS

    @pytest.mark.parametrize("template, message", [
        ({"h": [0.0 if i == 5 else math.pi / 32 * (i + 0.5)
                for i in range(32)], "f0": [4.0]},
         "fiber length h must be positive at cell centers\n"),
        ({"mode": "general",
          "f_templates": [[4.0 + math.sin(math.pi / 32 * (i + 0.5))
                           for i in range(32)]]},
         "initial data does not close: left end slope of f1^2 (residual "),
    ], ids=["zero h sample", "unclosed general template"])
    def test_rejected_initial_data_exits_two(self, tmp_path, capsys,
                                             template, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 32, "t_end": 0.0},
            "bundle": {"n": [1], "k": [2.0], "q": [2]},
            "initial": {"template": {"length": math.pi, **template}}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial data rejected: " + message), err
        assert not (tmp_path / "o").exists()

    def test_general_template_is_closure_checked_once(self, tmp_path,
                                                      monkeypatch):
        # Whichever module's attribute a caller goes through, one run
        # checks closure once, in run_flow.
        check, calls = initial_data.validate_closing, []

        def counted(state):
            calls.append(state)
            return check(state)

        monkeypatch.setattr(initial_data, "validate_closing", counted)
        monkeypatch.setattr(evo, "validate_closing", counted)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 32, "t_end": 0.002},
            "bundle": {"n": [1], "k": [2.0], "q": [2]},
            "initial": {"template": {"length": math.pi, "mode": "general",
                                     "f_templates": [[4.0] * 32]}}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_out_path_that_is_a_file_exits_two(self, tmp_path, capsys,
                                               monkeypatch):
        # The path is refused before the flow is integrated.
        def no_run(*args):
            raise AssertionError("run_flow called")

        monkeypatch.setattr(cli, "run_flow", no_run)
        cfg = write_config(tmp_path / "c.json")
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        for out in (taken, taken / "sub"):
            assert main(["run", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno 20] Not a directory: "), err
            assert "Traceback" not in err
        assert taken.read_text() == "not a directory"
        # A file where the snapshots directory goes, or a directory where
        # an artifact goes, in an existing run directory.
        rd = tmp_path / "rd"
        rd.mkdir()

        def refused(name, error):
            assert main(["run", str(cfg), "--out", str(rd)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {error}: {str(rd / name)!r}\n", err

        (rd / "snapshots").write_text("not a directory")
        refused("snapshots", "[Errno 17] File exists")
        (rd / "snapshots").unlink()
        for name in ("trace.csv", "boundary.csv", "report.json",
                     "config.json", "manifest.json"):
            (rd / name).mkdir()
            refused(name, "[Errno 21] Is a directory")
            (rd / name).rmdir()
        # A directory where write_outputs deletes a stale figure, or
        # overwrites or deletes a stored snapshot.
        for name in ("profiles.svg", "field_kappa.svg",
                     "snapshots/snap_00099.json"):
            (rd / name).mkdir(parents=True)
            refused(name, "[Errno 21] Is a directory")
            (rd / name).rmdir()
        (rd / "snapshots").rmdir()
        assert list(rd.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["c.json", "rd", "taken"]

    def test_non_finite_number_exits_two(self, tmp_path, capsys):
        # 1e400 parses as inf; without the finiteness check the run would
        # start and halt with a misleading dt underflow (exit 3).
        path = tmp_path / "c.json"
        path.write_text('{"flow": {"cells": 32, "t_end": 1e400}, '
                        '"initial": {"preset": "canonical"}}')
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "flow.t_end must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_flow_exits_three(self, tmp_path, capsys):
        # A 1e-308 interval makes 1/a^2 overflow in the first stage: the
        # run halts with a reason instead of computing with inf.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 16, "t_end": 0.02},
            "initial": {"preset": "calabi", "params": {"length": 1e-308}}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "floating-point overflow" in capsys.readouterr().err
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_rerun_removes_stale_snapshots(self, tmp_path, capsys):
        out = tmp_path / "run"
        kept = []
        for t_end, count in ((0.1, 5), (0.001, 2)):
            cfg = write_config(tmp_path / "c.json",
                               flow={"cells": 32, "t_end": t_end,
                                     "snapshot_every": 1})
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            on_disk = sorted(p.relative_to(out).as_posix() for p in
                             (out / "snapshots").glob("*.json"))
            manifest = json.loads((out / "manifest.json").read_text())
            listed = sorted(n for n in manifest["files"]
                            if n.startswith("snapshots/"))
            assert on_disk == listed
            assert len(on_disk) == count
            # The earlier run's plots are gone; other files stay.
            assert [p.name for p in out.glob("*.svg")] == kept
            assert main(["plot", str(out), "--field", "kappa"]) == 0
            (out / "notes.svg").write_text("<svg/>")
            kept = ["notes.svg"]
        final = read_snapshot(cli._snapshot_paths(out)[-1])
        assert final.t == pytest.approx(0.001, abs=1e-12)
        assert main(["plot", str(out)]) == 0
        _, ys = polylines((out / "profiles.svg").read_text())[0]
        assert np.array_equal(ys, final.h)

    def test_flow_halt_exits_three_with_partials(self, tmp_path, capsys):
        # An absurd t_end puts the underflow threshold above the first
        # step, so the run halts immediately but still persists.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 1e13},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "flow halted" in err and "partial" in err
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 2
        assert (out / "report.json").exists()

    def test_short_run_round_trips(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.002,
                                 "snapshot_every": 5},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        trace = read_trace(out)
        trace.validate()
        assert trace.r == 1
        assert trace.column("t")[-1] == pytest.approx(0.002, abs=1e-12)
        times = read_snapshots(out)
        paths = cli._snapshot_paths(out)
        assert len(times) == len(list((out / "snapshots").glob("*.json")))
        assert times == [read_snapshot(path).t for path in paths]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.002, abs=1e-12)
        assert read_snapshot(paths[0]).f.shape == (1, 32)


class TestAnalyzeVerb:
    def test_recompute_is_stable(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.002},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        before = (out / "report.json").read_bytes()
        trace = read_trace(out)
        residuals = (f"residuals: max kahler_res "
                     f"{max(trace.column('kahler_res')):.6g}, max heat_res "
                     f"{max(trace.column('heat_res')):.6g}\n")
        assert residuals in capsys.readouterr().out
        assert main(["analyze", str(out)]) == 0
        assert (out / "report.json").read_bytes() == before
        printed = capsys.readouterr().out
        assert "verdict" in printed
        assert residuals in printed

    def test_json_artifacts_are_compact(self, tmp_path):
        # One line per file: sorted keys, no whitespace, a final newline.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        for argv in (["run", str(cfg)], ["analyze", str(out)]):
            assert main(argv) == 0
            paths = sorted(out.rglob("*.json"))
            assert len(paths) == 5
            for path in paths:
                text = path.read_text()
                assert text == json.dumps(
                    json.loads(text), sort_keys=True,
                    separators=(",", ":")) + "\n", path.name

    def test_rewrites_only_report_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        manifest = (out / "manifest.json").read_bytes()
        kept = [out / "trace.csv", out / "boundary.csv", out / "config.json"]
        kept += sorted((out / "snapshots").glob("snap_*.json"))
        assert len(kept) > 4
        before = {}
        for path in kept:
            # An old timestamp shows any rewrite, however fast.
            os.utime(path, ns=(10 ** 9, 10 ** 9))
            before[path] = path.read_bytes()
        assert main(["analyze", str(out)]) == 0
        for path in kept:
            assert path.read_bytes() == before[path], path.name
            assert path.stat().st_mtime_ns == 10 ** 9, path.name
        assert (out / "manifest.json").read_bytes() == manifest

    def test_snapshots_that_store_the_grid_still_read(self, tmp_path,
                                                       capsys):
        # Earlier versions also stored sigma and cells in each snapshot;
        # such a run directory analyzes and plots as before.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        assert main(["plot", str(out), "--field", "kappa"]) == 0
        svgs = {path.name: path.read_bytes() for path in out.glob("*.svg")}
        assert "field_kappa.svg" in svgs
        manifest = json.loads((out / "manifest.json").read_text())
        paths = sorted((out / "snapshots").glob("snap_*.json"))
        assert len(paths) == 2
        for path in paths:
            snap = json.loads(path.read_text())
            snap["cells"] = len(snap["a"])
            snap["sigma"] = geo.cell_centers(len(snap["a"])).tolist()
            cli._json_dump(path, snap)
            manifest["files"][f"snapshots/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        cli._json_dump(out / "manifest.json", manifest)
        report = (out / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        assert (out / "report.json").read_bytes() == report
        assert main(["plot", str(out), "--field", "kappa"]) == 0
        assert {path.name: path.read_bytes()
                for path in out.glob("*.svg")} == svgs

    @pytest.mark.parametrize("damage,needle", [
        # Thresholds that older versions read from config.json.
        ("analysis", "config.json: unknown key 'analysis'"),
        ("snapshot", "snap_00001.json is not valid JSON"),
        ("trace", "malformed trace"),
        # schwarz_fit divides by the floor columns.
        ("zero floor", "trace column f1sq_min must be positive"),
        # Positive but subnormal, with the manifest updated to match:
        # T_hat reads 1/kappa, which overflows.
        ("tiny kappa", "trace column kappa must have a finite reciprocal"),
        # JSON integers are unbounded; this one has no float value.
        ("huge t", "snap_00001.json is not a snapshot"),
        # Positive but subnormal, with the manifest updated to match: the
        # Schwarz fit overflows to inf, which report.json must not hold.
        ("tiny floor", "trace.csv gives the report a non-finite schwarz_C"),
        # Valid JSON with the manifest updated to match: only the snapshot
        # checks can tell.
        ("short h", "snap_00001.json is not a snapshot: a and h must be "
                    "rows of one length"),
        ("short f row", "snap_00001.json is not a snapshot: f must have "
                        "shape (r, cells)"),
        ("bool t", "snap_00001.json is not a snapshot: t must be a number"),
        ("nan a", "snap_00001.json is not a snapshot: a[3] must be a finite "
                  "number"),
        # Entries that numpy would read as numbers: checked by JSON type.
        ("string h, bool a",
         "snap_00001.json is not a snapshot: a[2] must be a number"),
        ("string h", "snap_00001.json is not a snapshot: h[3] must be a "
                     "number"),
        ("null f", "snap_00001.json is not a snapshot: f[0][5] must be a "
                   "number"),
        # Valid CSV with the manifest updated to match: the endpoint series
        # must be drawn against the times of trace.csv.
        ("boundary times", "boundary.csv does not share the rows of "
                           "trace.csv"),
        # An earlier layout, with liyau_sup_i columns just before
        # arclength and the manifest updated to match: only the layout
        # that run writes reads.
        ("liyau trace", "trace.csv does not match the column contract"),
        # Each CSV fault names its file.
        ("empty trace", "run/trace.csv: empty file"),
        ("empty boundary", "run/boundary.csv: empty file"),
        ("bad boundary cell", "run/boundary.csv: could not convert string "
                              "to float: 'x'"),
        # The cell is quoted without the newline that ends its row.
        ("bad last cell", "run/trace.csv: could not convert string to "
                          "float: 'x'"),
    ])
    def test_malformed_rundir_exits_two(self, tmp_path, capsys, damage,
                                        needle):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0

        def redigest(name):
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["files"][name] = hashlib.sha256(
                (out / name).read_bytes()).hexdigest()
            (out / "manifest.json").write_text(json.dumps(manifest))

        if damage == "analysis":
            raw = json.loads((out / "config.json").read_text())
            raw["analysis"] = {"decades": 2.0}
            (out / "config.json").write_text(json.dumps(raw))
        elif damage in ("zero floor", "tiny floor", "tiny kappa"):
            path = out / "trace.csv"
            lines = path.read_text().splitlines()
            name = "kappa" if damage == "tiny kappa" else "f1sq_min"
            column = lines[0].split(",").index(name)
            row = 1 if damage == "zero floor" else -2
            cells = lines[row].split(",")
            cells[column] = "0.0" if damage == "zero floor" else "1e-320"
            lines[row] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            if damage != "zero floor":
                redigest("trace.csv")
        elif damage in ("short h", "short f row", "bool t", "nan a",
                        "string h, bool a", "string h", "null f"):
            name = "snapshots/snap_00001.json"
            snap = json.loads((out / name).read_text())
            if damage == "short h":
                snap["h"].pop()
            elif damage == "short f row":
                snap["f"][0].pop()
            elif damage == "bool t":
                snap["t"] = True
            elif damage == "nan a":
                snap["a"][3] = math.nan
            elif damage == "null f":
                snap["f"][0][5] = None
            else:
                snap["h"][3] = "0.5"
                if damage == "string h, bool a":
                    snap["a"][2] = True
            (out / name).write_text(json.dumps(snap))
            redigest(name)
        elif damage == "boundary times":
            path = out / "boundary.csv"
            lines = path.read_text().splitlines()
            for j, line in enumerate(lines[1:], 1):
                t, rest = line.split(",", 1)
                lines[j] = f"{float(t) + 0.125!r},{rest}"
            path.write_text("\n".join(lines) + "\n")
            redigest("boundary.csv")
        elif damage == "liyau trace":
            path = out / "trace.csv"
            lines = path.read_text().splitlines()
            for j, line in enumerate(lines):
                cells = line.split(",")
                extra = "liyau_sup_1" if j == 0 else "0.25"
                lines[j] = ",".join(cells[:-1] + [extra] + cells[-1:])
            path.write_text("\n".join(lines) + "\n")
            redigest("trace.csv")
        elif damage in ("empty trace", "empty boundary"):
            (out / f"{damage.split()[1]}.csv").write_bytes(b"")
        elif damage == "bad boundary cell":
            path = out / "boundary.csv"
            lines = path.read_text().splitlines()
            t, _, rest = lines[2].split(",", 2)
            lines[2] = f"{t},x,{rest}"
            path.write_text("\n".join(lines) + "\n")
        elif damage == "bad last cell":
            path = out / "trace.csv"
            lines = path.read_text().splitlines()
            lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
            path.write_text("\n".join(lines) + "\n")
        elif damage == "huge t":
            path = out / "snapshots" / "snap_00001.json"
            snap = json.loads(path.read_text())
            snap["t"] = 10 ** 400
            path.write_text(json.dumps(snap))
        else:
            path = out / ("snapshots/snap_00001.json" if damage == "snapshot"
                          else "trace.csv")
            text = path.read_text()
            path.write_text(text[:len(text) // 2])
        stored = [(out / name).read_bytes()
                  for name in ("report.json", "manifest.json")]
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert needle in err, err
        assert [(out / name).read_bytes()
                for name in ("report.json", "manifest.json")] == stored
        if damage in ("boundary times", "liyau trace", "empty trace",
                      "empty boundary", "bad boundary cell",
                      "bad last cell") \
                or "is not a snapshot" in needle:
            # A snapshot damaged here is the final one, which plot draws.
            assert not (out / "snapshots" / "snap_00002.json").exists()
            assert main(["plot", str(out)]) == 2
            err = capsys.readouterr().err
            assert needle in err, err
            assert list(out.glob("*.svg")) == []

    def test_snapshot_time_must_be_a_row_time(self, tmp_path, capsys):
        # kappa's slope 1e300 / 1e-300 between the rows overflows, so a
        # factor interpolated off the rows would be inf, which is not JSON.
        def run_dir(name, kappa, snapshot_t):
            trace = FlowTrace(r=1, rows=[[t, 1.0, k] + [1.0] * 10 for t, k
                                         in zip((1e-300, 2e-300), kappa)])
            snap = geo.ProfileState(t=snapshot_t, a=np.ones(4),
                                    h=np.ones(4), f=np.ones((1, 4)))
            write_outputs(trace, [snap], analyze_run(trace, [], 1e-3),
                          tmp_path / name, raw_config={"flow": {}})
            return tmp_path / name

        off = run_dir("off", (1.0, 1e300), 1.5e-300)
        stored = [(off / name).read_bytes()
                  for name in ("report.json", "manifest.json")]
        assert main(["analyze", str(off)]) == 2
        err = capsys.readouterr().err
        assert (f"malformed run in {off}: snapshot time 1.5e-300 is not a "
                f"trace row time") in err, err
        assert [(off / name).read_bytes()
                for name in ("report.json", "manifest.json")] == stored
        # On a row of a trace whose T_hat (3e-300) lies beyond the last row.
        on = run_dir("on", (1.0, 2.0), 1e-300)
        assert main(["analyze", str(on)]) == 0
        report = json.loads((on / "report.json").read_text())
        assert report["T_hat"] > 2e-300
        assert report["rescale_factors"] == [1.0]

    @pytest.mark.parametrize("damage,needle", [
        ("edited", "snap_00001.json does not match its digest in"),
        ("unlisted", "snap_00001.json is not listed in"),
        ("deleted", "snap_00001.json, which is not in the run directory"),
        ("no manifest", "cannot read"),
        ("not json", "manifest.json is not valid JSON"),
        ("no files", "manifest.json: 'files' must map file names"),
    ])
    def test_manifest_mismatch_exits_two(self, tmp_path, capsys, damage,
                                         needle):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        snap = out / "snapshots" / "snap_00001.json"
        if damage == "edited":
            # Still a valid snapshot, so only the digest can tell.
            doc = json.loads(snap.read_text())
            doc["h"][3] *= 1.0 + 1e-9
            snap.write_text(json.dumps(doc))
        elif damage == "unlisted":
            del manifest["files"]["snapshots/snap_00001.json"]
            manifest_path.write_text(json.dumps(manifest))
        elif damage == "deleted":
            # The last snapshot, so the indices stay contiguous.
            assert not (out / "snapshots" / "snap_00002.json").exists()
            snap.unlink()
        elif damage == "no manifest":
            manifest_path.unlink()
        elif damage == "not json":
            manifest_path.write_text("{")
        else:
            manifest_path.write_text(json.dumps({"files": ["trace.csv"]}))
        report = (out / "report.json").read_bytes()
        stored = manifest_path.read_bytes() if manifest_path.exists() \
            else None
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert needle in err, err
        assert (out / "report.json").read_bytes() == report
        assert (manifest_path.read_bytes() if manifest_path.exists()
                else None) == stored

    def test_missing_rundir_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("listed", [True, False],
                             ids=["listed", "unlisted"])
    def test_missing_config_exits_two(self, tmp_path, capsys, listed):
        # The label reads config.json's flow.stop_floor: at 0.05 this run
        # is a FiberCollapse, which the default floor would not give.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 16, "t_end": 1.0,
                                 "snapshot_every": 5, "stop_floor": 0.05},
                           initial={"preset": "calabi",
                                    "params": {"n": 2, "k_lens": 1,
                                               "f0": 6.0}},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        assert "degeneration case: FiberCollapse" in capsys.readouterr().out
        (out / "config.json").unlink()
        if not listed:
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["files"]["config.json"]
            cli._json_dump(out / "manifest.json", manifest)
        stored = [(out / name).read_bytes()
                  for name in ("report.json", "manifest.json")]
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read {out / 'config.json'}: " in err, err
        assert [(out / name).read_bytes()
                for name in ("report.json", "manifest.json")] == stored
        assert not (out / "config.json").exists()

    def test_synthetic_dir_report(self, tmp_path):
        out = tmp_path / "syn"
        _, report = synthetic_run_dir(out)
        assert main(["analyze", str(out)]) == 0
        stored = json.loads((out / "report.json").read_text())
        assert stored["T_hat"] == pytest.approx(0.5, rel=1e-6)
        assert stored["verdict"] == report["verdict"]


class TestReportMapping:
    def test_analyze_run_mapping_is_report_json(self, tmp_path,
                                                monkeypatch):
        # run and analyze write analyze_run's mapping as it is: no second
        # spelling of the report between the analysis and the file.
        returned = []

        def recorded(*args, **kwargs):
            returned.append(analyze_run(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "analyze_run", recorded)
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        for argv in (["run", str(cfg)], ["analyze", str(out)]):
            assert main(argv) == 0
            report = returned.pop()
            assert set(report) == {
                "T_hat", "typeI_sup", "verdict", "schwarz_C", "case",
                "rescale_factors", "plateau_ratio", "growth_ratio"}
            assert report["T_hat"] is not None
            assert len(report["rescale_factors"]) == 2
            assert json.loads((out / "report.json").read_text()) == report


class TestPlotVerb:
    def test_plots_for_real_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.002},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["plot", str(out), "--field", "kappa"]) == 0
        assert (out / "profiles.svg").exists()
        assert (out / "boundary.svg").exists()
        assert (out / "field_kappa.svg").exists()
        # Even a short run extrapolates the monitored decays to a
        # singular-time estimate, so the Type I plot appears too.
        report = json.loads((out / "report.json").read_text())
        assert report["T_hat"] is not None
        assert report["T_hat"] > 0.002
        assert (out / "typeI.svg").exists()
        # Profile polyline carries the final h values verbatim.
        svg = (out / "profiles.svg").read_text()
        assert 'transform="matrix(' in svg
        assert 'vector-effect="non-scaling-stroke"' in svg
        xs, ys = polylines(svg)[0]
        final = read_snapshot(cli._snapshot_paths(out)[-1])
        assert np.allclose(ys, final.h, rtol=0, atol=0)
        assert xs[0] < xs[-1]
        # Every profile is drawn at the numpy arclength of the final
        # lapse, digit for digit.
        want = [repr(s) for s in evo.arclength(final)[0].tolist()]
        for points in POINT_RE.findall(svg):
            assert [p.split(",")[0] for p in points.split()] == want

    def test_unknown_field_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        # The field is checked before any plot is written.
        assert main(["plot", str(out), "--field", "bogus"]) == 2
        assert "unknown trace column" in capsys.readouterr().err
        # Endpoint columns are boundary.csv's, not plot fields.
        assert main(["plot", str(out), "--field", "f1sq_left"]) == 2
        assert "unknown trace column 'f1sq_left' (available: " \
            + ", ".join(trace_columns(1)) + ")" in capsys.readouterr().err
        assert list(out.glob("*.svg")) == []
        # The zero-duration run has a single row and no singular-time
        # estimate, so a plain plot skips the Type I figure.
        assert main(["plot", str(out)]) == 0
        assert (out / "profiles.svg").exists()
        assert not (out / "typeI.svg").exists()

    def test_type_one_figure_reads_t_hat_off_the_trace(self, tmp_path):
        # plot reads T_hat off the trace, as analyze_run does: the same
        # typeI.svg with report.json intact, with a wrong T_hat in it and
        # without it.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.002},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        assert main(["plot", str(out)]) == 0
        figure = (out / "typeI.svg").read_bytes()
        report = json.loads((out / "report.json").read_text())
        report["T_hat"] = 2.0 * report["T_hat"]
        (out / "report.json").write_text(json.dumps(report))
        for edit in ("wrong T_hat", "no report"):
            if edit == "no report":
                (out / "report.json").unlink()
            (out / "typeI.svg").unlink()
            assert main(["plot", str(out)]) == 0
            assert (out / "typeI.svg").read_bytes() == figure, edit

    def test_type_one_plot_skipped_when_every_point_overflows(
            self, tmp_path, capsys):
        # Two rows with kappa near the float maximum put T_hat 3 and 2
        # time units past them, so every (T_hat - t) kappa is inf; the
        # Type I plot has no finite point and is not written.
        out = tmp_path / "run"
        trace = FlowTrace(r=1, rows=[
            [t, 0.0, kappa, 0.5, 1.0, 4.0, 5.0, 0.0, 0.0, 1.0, math.pi,
             4.0, 4.0] for t, kappa in ((0.0, 1e308), (1.0, 1.5e308))])
        report = analyze_run(trace, [], stop_floor=1e-3)
        assert report["T_hat"] == pytest.approx(3.0, rel=1e-12)
        write_outputs(trace, [], report, out, raw_config={"flow": {}})
        capsys.readouterr()
        assert main(["plot", str(out)]) == 0
        assert [p.name for p in out.glob("*.svg")] == ["boundary.svg"]
        assert "typeI.svg" not in capsys.readouterr().out

    def test_overflowing_final_snapshot_exits_two(self, tmp_path, capsys):
        # One lapse entry of 1e308 overflows the arclength the profile
        # plot is drawn against; plot names the snapshot instead of
        # plotting inf.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        path = out / "snapshots" / "snap_00001.json"
        snap = json.loads(path.read_text())
        snap["a"][5] = 1e308
        path.write_text(json.dumps(snap))
        capsys.readouterr()
        assert main(["plot", str(out)]) == 2
        err = capsys.readouterr().err
        assert "snap_00001.json: the arclength of its lapse a is not " \
            "finite" in err, err
        assert not (out / "profiles.svg").exists()

    def test_constant_series_past_two_to_the_53(self, tmp_path, capsys):
        # One trace row with kappa near 1e17, where kappa + 1 == kappa:
        # the degenerate axis is padded by |kappa| instead, not by 1.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "flow": {"cells": 16, "t_end": 0.0},
            "bundle": {"n": [1], "k": [2.0], "q": [2]},
            "initial": {"template": {"length": 1e-8, "f0": [1e-16]}}}))
        out = tmp_path / "run"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        kappa = read_trace(out).column("kappa")
        assert len(kappa) == 1 and kappa[0] >= 2.0 ** 53
        assert kappa[0] + 1.0 == kappa[0]
        capsys.readouterr()
        assert main(["plot", str(out), "--field", "kappa"]) == 0
        assert (out / "field_kappa.svg").exists()
        xs, ys = polylines((out / "field_kappa.svg").read_text())[0]
        assert ys.tolist() == kappa

    def test_empty_trace_prints_message(self, tmp_path, capsys):
        out = tmp_path / "empty"
        trace = FlowTrace(r=1, rows=[])
        report = analyze_run(trace, [], stop_floor=1e-3)
        write_outputs(trace, [], report, out, raw_config={"flow": {}})
        assert main(["plot", str(out)]) == 0
        assert "no plots written: trace is empty" in capsys.readouterr().out
        assert list(out.glob("*.svg")) == []

    def test_type_one_plateau_polyline(self, tmp_path):
        out = tmp_path / "syn"
        synthetic_run_dir(out)
        written = render_plots(out)
        names = {str(p).rsplit("/", 1)[-1] for p in written}
        assert {"typeI.svg", "boundary.svg"} <= names
        xs, ys = polylines((out / "typeI.svg").read_text())[0]
        # y = tau * kappa = 1/2 everywhere: a flat plateau across decades.
        assert ys.max() / ys.min() < 2.0
        assert ys.mean() == pytest.approx(0.5, rel=1e-6)
        assert xs.min() == pytest.approx(-4.0, abs=0.1)
        # The right-end boundary series keeps its exact -8 slope.
        lines = polylines((out / "boundary.svg").read_text())
        slope = np.polyfit(lines[1][0], lines[1][1], 1)[0]
        assert slope == pytest.approx(-8.0, rel=1e-9)


class TestReadTrace:
    def test_header_contract_enforced(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("kappa", "curvature")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="column contract"):
            read_trace(out)
        lines[0] = ",".join(trace_columns(1)[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="column contract"):
            read_trace(out)

    @pytest.mark.parametrize("damage", ["drop row", "swap t", "short row"])
    def test_boundary_must_share_trace_rows(self, tmp_path, damage):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", flow={"cells": 32,
                                                      "t_end": 0.004},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        trace = read_trace(out)
        assert len(trace.rows) >= 2
        path = out / "boundary.csv"
        lines = path.read_text().splitlines()
        if damage == "drop row":
            del lines[-1]
        elif damage == "swap t":
            lines[1], lines[2] = lines[2], lines[1]
        else:
            lines[1:] = [line.rsplit(",", 1)[0] for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="malformed trace in .*: "
                           "boundary.csv does not share the rows of "
                           "trace.csv"):
            read_trace(out)


@pytest.mark.parametrize("text,rule", [
    ("true", "must be a number"), ('"x"', "must be a number"),
    ("null", "must be a number"), ("1e400", "must be a finite number"),
    (str(10 ** 400), "must be a finite number"),
], ids=["true", "string", "null", "1e400", "10**400"])
@pytest.mark.parametrize("where", ["bundle.k", "a", "f[0]"])
def test_config_and_snapshot_arrays_share_one_rule(tmp_path, capsys, where,
                                                    text, rule):
    # Entry 1 of a config array or of a snapshot row is replaced by
    # the JSON text ``text``; both read back with the same message.
    cfg = write_config(tmp_path / "c.json",
                       flow={"cells": 32, "t_end": 0.004,
                             "snapshot_every": 1},
                       bundle={"n": [1, 1], "k": [2.0, 1.0],
                               "q": [1, 1]},
                       initial={"template": {"length": math.pi,
                                             "f0": [0.5, 3.0]}})
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    if where == "bundle.k":
        path, argv = cfg, ["run", str(cfg), "--out", str(out)]
        doc = json.loads(path.read_text())
        doc["bundle"]["k"][1] = "@"
    else:
        path = out / "snapshots" / "snap_00001.json"
        argv = ["analyze", str(out)]
        doc = json.loads(path.read_text())
        (doc["a"] if where == "a" else doc["f"][0])[1] = "@"
    path.write_text(json.dumps(doc).replace('"@"', text))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{where}[1] {rule}\n" in err, err


def test_help_and_missing_verb():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_verb(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main([flag])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for verb in ("run", "analyze", "plot"):
        assert f"bundleflow {verb} " in out


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["run"], ["analyze", "a", "b"], ["plot", "d", "--field"],
    ["run", "c.json", "--bogus"],
    # Option names are matched whole, not as prefixes.
    ["run", "c.json", "--ou", "d"],
    # An empty value is no value, not a fall back to output.dir.
    ["run", "c.json", "--out="], ["run", "c.json", "--out", ""],
    ["plot", "d", "--field="], ["plot", "--field", "", "d"],
])
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bundleflow run CONFIG [--out DIR]\n")
    assert "bundleflow: error: " in err


def test_options_go_before_or_after_the_positional(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", f"--out={out1}", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    files = sorted(p.relative_to(out1) for p in out1.rglob("*"))
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*"))
    for name in files:
        if (out1 / name).is_file():
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert main(["plot", "--field=kappa", str(out1)]) == 0
    assert main(["plot", "--field", "kappa", str(out2)]) == 0
    assert (out1 / "field_kappa.svg").read_bytes() \
        == (out2 / "field_kappa.svg").read_bytes()


def test_main_freezes_the_heap_only_at_exit(tmp_path, capsys):
    # While the process lives, main leaves the collector as it found it:
    # enabled as before, with nothing in the permanent generation.
    cfg = write_config(tmp_path / "c.json",
                       flow={"cells": 32, "t_end": 0.004})
    here, there = tmp_path / "here", tmp_path / "there"
    enabled = gc.isenabled()
    assert main(["run", str(cfg), "--out", str(here)]) == 0
    assert main(["analyze", str(here)]) == 0
    assert main(["plot", str(here), "--field", "kappa"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
    printed = capsys.readouterr().out.replace(str(here), str(there))
    # A fresh interpreter that runs each verb once.  Its probe, registered
    # before the first call, runs after main's callback (atexit runs last
    # in, first out): it must find the heap frozen by exactly one
    # gc.freeze call at exit, after all that the verbs printed, and no
    # collection from the first verb on (the gc.collect before it empties
    # the young generation).
    script = textwrap.dedent("""
        import atexit
        import gc
        import sys
        exiting, exit_freezes, collections = False, [], []
        freeze = gc.freeze
        def counted():
            if exiting:
                exit_freezes.append(None)
            freeze()
        gc.freeze = counted
        import bundleflow.cli as cli
        atexit.register(lambda: print("probe", gc.get_freeze_count() > 0,
                                      len(exit_freezes), len(collections)))
        gc.collect()
        gc.callbacks.append(lambda phase, info: phase == "start"
                            and collections.append(info))
        print("codes", cli.main(["run", sys.argv[1], "--out", sys.argv[2]]),
              cli.main(["analyze", sys.argv[2]]),
              cli.main(["plot", sys.argv[2], "--field", "kappa"]))
        exiting = True
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg),
                           str(there)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed + "codes 0 0 0\nprobe True 1 0\n"


def test_the_collector_is_off_inside_every_verb(tmp_path, monkeypatch):
    seen = []

    def spy(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, call)

    for name in ("run_flow", "read_trace", "render_plots"):
        spy(name)
    cfg = write_config(tmp_path / "c.json",
                       flow={"cells": 32, "t_end": 0.004})
    out = str(tmp_path / "run")
    gc.enable()
    assert main(["run", str(cfg), "--out", out]) == 0
    assert main(["analyze", out]) == 0
    assert main(["plot", out, "--field", "kappa"]) == 0
    assert gc.isenabled()
    # render_plots reads the trace through read_trace.
    assert seen == [("run_flow", False), ("read_trace", False),
                    ("render_plots", False), ("read_trace", False)]


@pytest.mark.parametrize("caller", ["enabled", "disabled", "frozen"])
@pytest.mark.parametrize("exit_path", [
    "ok", "config error", "os error", "flow halt", "usage error", "help"])
def test_main_restores_the_collector_state(tmp_path, capsys, caller,
                                           exit_path):
    cfg = write_config(tmp_path / "c.json",
                       flow={"cells": 32, "t_end": 1e13 if exit_path
                             == "flow halt" else 0.0})
    out = tmp_path / "run"
    argv = ["run", str(cfg), "--out", str(out)]
    code = {"ok": 0, "flow halt": 3}.get(exit_path, 2)
    if exit_path == "config error":
        write_config(cfg, bogus={})
    elif exit_path == "os error":
        (out / "trace.csv").mkdir(parents=True)
    elif exit_path == "usage error":
        argv = ["run"]
    elif exit_path == "help":
        argv, code = ["--help"], 0
    try:
        if caller == "disabled":
            gc.disable()
        elif caller == "frozen":
            gc.freeze()
        state = (gc.isenabled(), gc.get_freeze_count() > 0)
        if exit_path in ("usage error", "help"):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == code
        else:
            assert main(argv) == code
        # main's own gc.freeze is undone, a caller's is not.
        assert (gc.isenabled(), gc.get_freeze_count() > 0) == state
    finally:
        gc.unfreeze()
        gc.enable()
    if exit_path in ("config error", "os error"):
        assert capsys.readouterr().err.startswith("error: ")


def test_verbs_leave_no_cyclic_garbage(tmp_path, capsys):
    # The collector is off while a verb runs (see main), which is safe as
    # long as a verb makes no reference cycles, a halted run (exit 3)
    # included: its FlowHalt's traceback holds the frames of run_flow and
    # _cmd_run, which must not hold it.
    cfg = write_config(tmp_path / "c.json",
                       flow={"cells": 32, "t_end": 0.004})
    halts = write_config(tmp_path / "halts.json",
                         flow={"cells": 32, "t_end": 1e13})
    out, bad = tmp_path / "run", tmp_path / "bad"
    verbs = [(["run", str(cfg), "--out", str(out)], 0),
             (["analyze", str(out)], 0),
             (["plot", str(out), "--field", "kappa"], 0),
             (["analyze", str(bad)], 2),
             (["run", str(halts), "--out", str(tmp_path / "halted")], 3)]
    flags = gc.get_debug()
    for argv, code in verbs:
        if argv == ["analyze", str(bad)]:
            shutil.copytree(out, bad)
            with (bad / "trace.csv").open("a") as trace:
                trace.write("x\n")
        gc.collect()  # frees, rather than saves, the garbage made before
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == code
            gc.collect()
            assert len(gc.garbage) == 0, argv
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
    err = capsys.readouterr().err
    assert "malformed trace CSV" in err
    assert "error: flow halted: time step underflow" in err
