"""Acceptance gate: one test per release criterion, pinned tolerances.

Run with -v to get a pass/fail line per criterion.  The three flow
fixtures below are module-scoped because they carry the real cost: the
canonical run to t = 0.3 at two resolutions and the Calabi collapse run.
"""

import json
import math
import time

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.analysis import (TYPE_I, TYPE_II, FlowTrace, analyze_run,
                                 boundary_linear_check,
                                 classify_singularity_type,
                                 estimate_singular_time, trace_columns)
from bundleflow.cli import main
from bundleflow.evolution import FlowConfig, run_flow
from bundleflow.initial_data import calabi_preset, canonical_preset
from koszul_oracle import berger_ricci, profile_to_berger

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))


def _timed_run(spec, state, cfg):
    start = time.perf_counter()
    trace, snaps = run_flow(spec, state, cfg)
    return trace, snaps, time.perf_counter() - start


@pytest.fixture(scope="module")
def canonical_400():
    spec, state = canonical_preset(400)
    cfg = FlowConfig(cells=400, cfl=0.2, t_end=0.3, stop_floor=1e-3,
                     snapshot_every=4000)
    return _timed_run(spec, state, cfg)


@pytest.fixture(scope="module")
def canonical_800():
    spec, state = canonical_preset(800)
    cfg = FlowConfig(cells=800, cfl=0.35, t_end=0.3, stop_floor=1e-3,
                     snapshot_every=8000, trace_every=5)
    return _timed_run(spec, state, cfg)


@pytest.fixture(scope="module")
def calabi_run():
    spec, state = calabi_preset(2, 1, 400)
    cfg = FlowConfig(cells=400, cfl=0.35, t_end=1.0, stop_floor=1e-3,
                     snapshot_every=4000, trace_every=10)
    trace, snaps, seconds = _timed_run(spec, state, cfg)
    report = analyze_run(trace, snaps, stop_floor=cfg.stop_floor)
    return trace, snaps, seconds, report


def test_criterion_01_curvature_forms_agree_on_anchor_instance():
    start = time.perf_counter()
    cells = 401
    s = math.pi * geo.cell_centers(cells)
    f = np.sqrt(4.0 - 2.0 * np.cos(s))[None, :]
    f_s = (np.sin(s) / f[0])[None, :]
    f_ss = ((np.cos(s) - f_s[0] ** 2) / f[0])[None, :]
    jets = geo.Jets(h=np.sin(s), h_s=np.cos(s), h_ss=-np.sin(s),
                    f=f, f_s=f_s, f_ss=f_ss)
    mid = 200
    a = geo.ricci_full(CANON, jets)
    b = geo.ricci_kahler(CANON, jets)
    assert a.nn[mid] == pytest.approx(1.125, rel=1e-12)
    assert a.zz[mid] == pytest.approx(1.125, rel=1e-12)
    assert a.horiz[0, mid] == pytest.approx(1.5, rel=1e-12)
    for cell in range(cells):
        for x, y in ((a.nn[cell], b.nn[cell]), (a.zz[cell], b.zz[cell]),
                     (a.horiz[0, cell], b.horiz[0, cell])):
            assert abs(x - y) <= 1e-10 * max(1.0, abs(y))
    assert not b.advisory
    assert time.perf_counter() - start < 1.0


def test_criterion_02_curvature_matches_koszul_oracle():
    start = time.perf_counter()
    spec, state = canonical_preset(64)
    jets = geo.profile_jets(state)
    oracle = berger_ricci(*profile_to_berger(
        spec.k[0], spec.q[0], jets.f[0], jets.f_s[0], jets.f_ss[0],
        jets.h, jets.h_s, jets.h_ss))
    ric = geo.ricci_full(spec, jets)
    for c in np.linspace(3, 60, 10).astype(int):
        rho = oracle["horiz_frame"][c] * state.f[0, c] ** 2
        for got, want in ((ric.nn[c], oracle["nn"][c]),
                          (ric.zz[c], oracle["fiber"][c]),
                          (ric.horiz[0, c], rho)):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
    assert time.perf_counter() - start < 10.0


def test_criterion_03_kahler_residual_bounded_and_refines(canonical_400,
                                                          canonical_800):
    trace4, _, secs4 = canonical_400
    trace8, _, _ = canonical_800
    res4 = trace4.column("kahler_res").max()
    res8 = trace8.column("kahler_res").max()
    assert trace4.column("t")[-1] == pytest.approx(0.3, abs=1e-10)
    assert res4 <= 1e-3
    assert res4 / res8 >= 3.5
    assert secs4 < 60.0


def test_criterion_04_heat_residual_small_with_order_two_decay(
        canonical_400, canonical_800):
    trace4, _, _ = canonical_400
    trace8, _, _ = canonical_800
    heat4 = trace4.column("heat_res").max()
    heat8 = trace8.column("heat_res").max()
    assert heat4 <= 1e-3
    assert math.log2(heat4 / heat8) >= 1.95


def test_criterion_04_late_heat_residual_refines_at_fourth_order(
        canonical_400, canonical_800):
    # The whole-run maximum of criterion 04 sits on the t = 0 row, which
    # only sees the initial data; rows from t = 0.15 on see the stepping.
    late = []
    for trace, _, _ in (canonical_400, canonical_800):
        late.append(trace.column("heat_res")[trace.column("t") >= 0.15].max())
    assert math.log2(late[0] / late[1]) >= 3.5


def test_criterion_05_boundary_slopes_match_topological_constants(
        canonical_400):
    trace, _, secs = canonical_400
    slopes = {(s.factor, s.side): s
              for s in boundary_linear_check(CANON, trace)}
    right = slopes[(1, "right")]
    left = slopes[(1, "left")]
    assert right.expected == -8.0
    assert right.error <= 0.01 * 8.0
    assert left.expected == 0.0
    assert left.error <= 0.08
    assert secs < 60.0


def test_criterion_06_gradient_sup_non_increasing(canonical_400):
    trace, _, _ = canonical_400
    g = trace.column("grad_sup_1")
    assert np.all(np.diff(g) <= 1e-3 * g[0])
    assert g[-1] <= g[0] * (1.0 + 1e-3)


def test_criterion_07_calabi_collapse_is_type_one_plateau(calabi_run):
    trace, _, seconds, report = calabi_run
    assert trace.column("t")[-1] < 1.0  # stopped at the floor, not t_end
    assert report.verdict == TYPE_I
    assert report.plateau_ratio is not None
    assert report.plateau_ratio < 2.0
    assert seconds < 120.0


def test_criterion_08_schwarz_constant_bounds_fiber_floor(calabi_run):
    trace, _, _, report = calabi_run
    C = report.schwarz_c
    assert C is not None and np.isfinite(C) and C > 0.0
    t = trace.column("t")
    f2 = trace.column("f1sq_min")
    keep = t < report.t_hat
    assert keep.any()
    bound = (report.t_hat - t[keep]) / C
    assert np.all(f2[keep] >= bound - 1e-12)


def test_criterion_09_synthetic_models_classified_correctly():
    start = time.perf_counter()
    tau = np.logspace(-6.0, -1.0, 200)
    t = (0.5 - tau)[::-1]
    n = t.size
    zeros = np.zeros(n)

    def trace_for(power):
        kappa = (0.5 - t) ** (-power)
        rows = np.column_stack([
            t, zeros, kappa, np.ones(n), np.ones(n), np.full(n, 4.0),
            np.full(n, 5.0), zeros, zeros, np.ones(n), np.ones(n),
            np.full(n, math.pi)])
        boundary = np.column_stack([t, np.full(n, 4.0), np.full(n, 4.0)])
        return FlowTrace(r=1, rows=rows, boundary=boundary)

    sup1, verdict1, _, _ = classify_singularity_type(trace_for(1.0), 0.5)
    assert verdict1 == TYPE_I
    assert sup1 == pytest.approx(1.0, rel=1e-10)
    sup2, verdict2, _, growth = classify_singularity_type(
        trace_for(1.5), 0.5)
    assert verdict2 == TYPE_II
    assert growth > 4.0
    assert time.perf_counter() - start < 1.0


def test_criterion_10_reruns_byte_identical_and_schema_stable(tmp_path):
    cfg = {"flow": {"cells": 64, "t_end": 0.01, "snapshot_every": 10},
           "initial": {"preset": "canonical"}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    names = sorted(p.relative_to(out1).as_posix()
                   for p in out1.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(out2).as_posix()
                           for p in out2.rglob("*") if p.is_file())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    header = (out1 / "trace.csv").read_text().splitlines()[0]
    assert header == ",".join(trace_columns(1))
    assert header.split(",") == [
        "t", "dt", "kappa", "h_min", "h_max", "f1sq_min", "f1sq_max",
        "kahler_res", "heat_res", "grad_sup_1", "liyau_sup_1", "arclength"]
    bheader = (out1 / "boundary.csv").read_text().splitlines()[0]
    assert bheader == "t,f1sq_left,f1sq_right"
    snap = json.loads(
        (out1 / "snapshots" / "snap_00000.json").read_text())
    assert set(snap) == {"t", "cells", "sigma", "a", "h", "f"}
