"""Config loading, run directories, verbs, exit codes, and SVG output."""

import json
import math
import os
import re

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.analysis import (NO_SINGULARITY, FlowTrace, analyze_run,
                                 trace_columns)
from bundleflow.cli import (ConfigError, load_config, main, read_snapshots,
                            read_trace, render_plots, report_to_dict,
                            write_outputs)

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
        np.ones(n), np.ones(n), np.full(n, math.pi)])
    boundary = np.column_stack([t, np.full(n, 6.0), 6.0 - 8.0 * t])
    trace = FlowTrace(r=1, rows=rows, boundary=boundary)
    report = analyze_run(trace, [], stop_floor=1e-3)
    write_outputs(trace, [], report, out, raw_config={"flow": {}})
    return trace, report


class TestLoadConfig:
    def test_minimal_preset_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.spec == geo.BundleSpec(n=(1,), k=(2.0,), q=(2,),
                                          lam=(1.0,))
        assert cfg.state0.cells == 32
        assert cfg.flow.cfl == 0.2
        assert cfg.flow.stop_floor == 1e-3
        assert cfg.analysis["plateau_factor"] == 2.0
        assert cfg.analysis["liyau_c0"] is None
        assert cfg.out_dir is None

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
        assert cfg.spec.lam == (2.0,)
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
        (lambda c: c.pop("initial"), "initial section is required"),
        (lambda c: c["initial"].pop("template"), "exactly one"),
        (lambda c: c["analysis"].update(decades=-1.0), "must be positive"),
        (lambda c: c["analysis"].update(decades=1e308),
         "analysis.decades is too large"),
        (lambda c: c["analysis"].update(growth_factor=4.0),
         "unknown key 'analysis.growth_factor'"),
        (calabi_params({"length": 1e308}),
         "initial.params: length 1e+308 is too large"),
        (calabi_params({"length": 1e154}),
         "initial.params: length 1e+154 is too large"),
        (calabi_params({"n": 2.5}),
         "initial.params: n must be an integer, got 2.5"),
        (calabi_params({"k_lens": 1.5}),
         "initial.params: k_lens must be an integer, got 1.5"),
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
    ])
    def test_rejections_name_the_field(self, tmp_path, mutate, needle):
        conf = {"flow": {"cells": 32, "t_end": 0.0},
                "bundle": {"n": [1], "k": [2.0], "q": [2]},
                "initial": {"template": {"length": math.pi, "f0": [4.0]}},
                "analysis": {}, "output": {}}
        mutate(conf)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(conf))
        with pytest.raises(ConfigError, match=re.escape(needle)):
            load_config(path)

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

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "flow": {"cells": 32},
            "bundle": {"n": [1], "k": [2.0], "q": [0]},
            "initial": {"template": {"length": math.pi, "f0": [4.0]}}}))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "bundle.q[0]" in capsys.readouterr().err

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
        for t_end, count in ((0.05, 5), (0.001, 2)):
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
        final = read_snapshots(out)[-1]
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
        snaps = read_snapshots(out)
        assert len(snaps) == len(list((out / "snapshots").glob("*.json")))
        assert snaps[0].t == 0.0
        assert snaps[-1].t == pytest.approx(0.002, abs=1e-12)
        assert snaps[0].f.shape == (1, 32)


class TestAnalyzeVerb:
    def test_recompute_is_stable(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.002},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        before = (out / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        assert (out / "report.json").read_bytes() == before
        assert "verdict" in capsys.readouterr().out

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

    @pytest.mark.parametrize("damage,needle", [
        ("decades", "analysis.decades must be a number"),
        ("snapshot", "snap_00001.json is not valid JSON"),
        ("trace", "malformed trace"),
        # JSON integers are unbounded; this one has no float value.
        ("huge t", "snap_00001.json is not a snapshot"),
    ])
    def test_malformed_rundir_exits_two(self, tmp_path, capsys, damage,
                                        needle):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           flow={"cells": 32, "t_end": 0.004,
                                 "snapshot_every": 1},
                           output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        if damage == "decades":
            raw = json.loads((out / "config.json").read_text())
            raw["analysis"] = {"decades": "two"}
            (out / "config.json").write_text(json.dumps(raw))
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
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 2
        assert needle in capsys.readouterr().err

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

    def test_synthetic_dir_report(self, tmp_path):
        out = tmp_path / "syn"
        _, report = synthetic_run_dir(out)
        assert main(["analyze", str(out)]) == 0
        stored = json.loads((out / "report.json").read_text())
        assert stored["T_hat"] == pytest.approx(0.5, rel=1e-6)
        assert stored["verdict"] == report.verdict


class TestReportSerialization:
    def test_round_trip(self, tmp_path):
        _, report = synthetic_run_dir(tmp_path / "syn")
        d = report_to_dict(report)
        assert set(d) == {"T_hat", "typeI_sup", "verdict", "schwarz_C",
                          "case", "rescale_factors", "t_floor", "t_kappa",
                          "plateau_ratio", "growth_ratio"}
        stored = json.loads((tmp_path / "syn" / "report.json").read_text())
        assert stored == d


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
        final = read_snapshots(out)[-1]
        assert np.allclose(ys, final.h, rtol=0, atol=0)
        assert xs[0] < xs[-1]

    def test_unknown_field_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output={"dir": str(out)})
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        # The zero-duration run has a single row and no singular-time
        # estimate, so a plain plot skips the Type I figure.
        assert main(["plot", str(out)]) == 0
        assert not (out / "typeI.svg").exists()
        capsys.readouterr()
        assert main(["plot", str(out), "--field", "bogus"]) == 2
        assert "unknown trace column" in capsys.readouterr().err

    def test_report_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        synthetic_run_dir(out)
        (out / "report.json").write_text("[]\n")
        assert main(["plot", str(out)]) == 2
        assert "top level must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("t_hat", ["0.5", [0.5], True, {"t": 0.5}])
    def test_report_with_bad_t_hat_exits_two(self, tmp_path, capsys, t_hat):
        out = tmp_path / "run"
        synthetic_run_dir(out)
        report = json.loads((out / "report.json").read_text())
        report["T_hat"] = t_hat
        (out / "report.json").write_text(json.dumps(report))
        assert main(["plot", str(out)]) == 2
        err = capsys.readouterr().err
        assert "report.json: T_hat must be a number" in err, err
        assert not (out / "typeI.svg").exists()

    def test_empty_trace_prints_message(self, tmp_path, capsys):
        out = tmp_path / "empty"
        trace = FlowTrace(r=1, rows=np.zeros((0, 12)),
                          boundary=np.zeros((0, 3)))
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


def test_help_and_missing_verb():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
