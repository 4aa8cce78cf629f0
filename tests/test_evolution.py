"""Flow right-hand side, stepping, boundary handling, and run control."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bundleflow.geometry as geo
import bundleflow.evolution as evo
from bundleflow.analysis import boundary_linear_check
from bundleflow.cli import main, read_trace
from bundleflow.evolution import (MAX_REL_CHANGE, STEP_CAP, FlowConfig,
                                  FlowHalt, InvalidInitialState, _dt_bound,
                                  _stage, arclength, flow_rhs, regrid_uniform,
                                  rkl2_step, run_flow)
from bundleflow.initial_data import (ProfileTemplate, build_kahler_profile,
                                     canonical_preset, validate_closing)

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))


def canonical_analytic_jets(cells):
    """Exact jets of the canonical profile h = sin s, F^2 = 4 - 2 cos s."""
    s = math.pi * geo.cell_centers(cells)
    f = np.sqrt(4.0 - 2.0 * np.cos(s))[None, :]
    f_s = (np.sin(s) / f[0])[None, :]
    f_ss = ((np.cos(s) - f_s[0] ** 2) / f[0])[None, :]
    return s, geo.Jets(h=np.sin(s), h_s=np.cos(s), h_ss=-np.sin(s),
                       f=f, f_s=f_s, f_ss=f_ss)


def canonical_state(cells):
    s, jets = canonical_analytic_jets(cells)
    sigma = geo.cell_centers(cells)
    return geo.ProfileState(t=0.0, sigma=sigma,
                            a=np.full(cells, math.pi), h=jets.h,
                            f=jets.f.copy()), jets


class TestFlowRhs:
    def test_midpoint_values(self):
        # 401 cells put a center at sigma = 1/2 exactly, where the
        # canonical profile has h = 1, F^2 = 4 and the flow speeds are
        # hdot = -9/8, fdot = -3/4, adot = -9 pi / 8.
        state, jets = canonical_state(401)
        adot, hdot, fdot = flow_rhs(CANON, state, jets=jets)
        mid = 200
        assert hdot[mid] == pytest.approx(-1.125, rel=1e-12)
        assert fdot[0, mid] == pytest.approx(-0.75, rel=1e-12)
        assert adot[mid] == pytest.approx(-1.125 * math.pi, rel=1e-12)

    def test_discrete_stencils_match_analytic_jets(self):
        state, jets = canonical_state(400)
        exact = flow_rhs(CANON, state, jets=jets)
        approx = flow_rhs(CANON, state, geo.profile_jets(state))
        for got, want in zip(approx, exact):
            assert np.max(np.abs(got - want)) <= 1e-6

    def test_boundary_time_derivative_law(self):
        # For Kahler-compatible data d/dt F_j^2 extends to 2 q_j - 2 k_j on
        # the left closed end and -2 q_j - 2 k_j on the right (0 and -8
        # here), and the discrete scheme reproduces this to rounding.
        spec, state = canonical_preset(400)
        _, _, fdot = flow_rhs(spec, state, geo.profile_jets(state))
        df2dt = 2.0 * state.f[0] * fdot[0]
        left, right = geo.endpoint_even(df2dt)
        assert abs(left - 0.0) <= 1e-6
        assert right == pytest.approx(-8.0, abs=1e-6)

    def test_heat_identity_on_kahler_data(self):
        spec, state = canonical_preset(400)
        jets = geo.profile_jets(state)
        _, _, fdot = flow_rhs(spec, state, jets=jets)
        lap = geo.laplacian_f2(spec, jets)
        k_col = spec.factor_arrays()[1]
        resid = np.abs(2.0 * state.f * fdot - lap + 2.0 * k_col)
        assert resid.max() <= 1e-6

    def test_nonfinite_state_raises_flow_halt(self):
        state, _ = canonical_state(64)
        h = state.h.copy()
        h[10] = np.nan
        bad = dataclasses.replace(state, h=h)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FlowHalt, match="cell"):
                flow_rhs(CANON, bad, geo.profile_jets(bad))

    @given(st.floats(min_value=0.2, max_value=5.0))
    @example(0.3125)
    def test_parabolic_scaling_law(self, K):
        # (a, h, f) -> sqrt(K)(a, h, f) with t -> K t: the right-hand side
        # must come back divided by sqrt(K).
        state, _ = canonical_state(64)
        base = flow_rhs(CANON, state, geo.profile_jets(state))
        root = math.sqrt(K)
        scaled = dataclasses.replace(state, a=root * state.a,
                                     h=root * state.h, f=root * state.f)
        moved = flow_rhs(CANON, scaled, geo.profile_jets(scaled))
        for got, want in zip(moved, base):
            want = want / root
            # Stencil rounding is relative to a row's largest entries (at
            # K = 0.3125 it reaches 2.4e-12 of a row of size 13), so the
            # absolute floor scales with the row.
            assert np.allclose(got, want, rtol=1e-10,
                               atol=1e-12 * np.abs(want).max())


class TestParityBoundary:
    def test_ghost_values_and_coordinates(self):
        # The stacked field order (a; h; f) with its parities is exactly what
        # every stencil and the regridder extend.
        state, _ = canonical_state(16)
        rows = np.vstack([state.a[None, :], state.h[None, :], state.f])
        ext = geo.stacked_parity(rows, geo.field_parities(state.r))
        ghost_a, ghost_h, ghost_f = ext[0], ext[1], ext[2:]
        M = state.cells
        assert ghost_h.shape == (M + 4,)
        assert ghost_f.shape == (1, M + 4)
        # h reflects oddly about both closed ends.
        assert ghost_h[1] == -state.h[0]
        assert ghost_h[0] == -state.h[1]
        assert ghost_h[-2] == -state.h[-1]
        assert ghost_h[-1] == -state.h[-2]
        # a and f reflect evenly.
        assert ghost_a[0] == state.a[1]
        assert ghost_f[0, 1] == state.f[0, 0]
        assert ghost_f[0, -1] == state.f[0, -2]
        # Ghost centers continue the uniform lattice past the ends, and the
        # reflected values are the smooth continuation sampled there.
        d = state.dsigma
        ghost_sigma = (np.arange(M + 4) - 1.5) * d
        assert ghost_sigma[0] == pytest.approx(-1.5 * d)
        assert ghost_sigma[1] == pytest.approx(-state.sigma[0])
        assert ghost_sigma[-2] == pytest.approx(2.0 - state.sigma[-1])
        assert ghost_sigma[-1] == pytest.approx(2.0 - state.sigma[-2])
        assert np.allclose(np.diff(ghost_sigma), d)
        assert np.allclose(ghost_h, np.sin(math.pi * ghost_sigma),
                           rtol=0, atol=1e-15)


class TestFlowConfig:
    @pytest.mark.parametrize("kwargs", [
        {"cells": 7}, {"cells": 10.5}, {"cfl": 0.0}, {"cfl": 1.5},
        {"t_end": -1.0}, {"stop_floor": 0.0}, {"stop_floor": -1e-3},
        {"snapshot_every": 0}, {"trace_every": 0.5},
        {"regrid_threshold": 1.0}, {"cfl": 0.4},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)

    def test_coerces_integer_fields(self):
        cfg = FlowConfig(cells=64.0, snapshot_every=10.0, trace_every=2.0)
        assert cfg.cells == 64 and isinstance(cfg.cells, int)
        assert cfg.snapshot_every == 10
        assert cfg.trace_every == 2

    def test_cfl_up_to_the_forward_euler_edge(self):
        assert FlowConfig(cfl=0.375).cfl == 0.375


def stacked(spec, state):
    """The stacked state (a; h; f), its first stage and the RHS closure,
    built as run_flow builds them."""
    stencil = geo.Stencil(geo.field_parities(spec.r), state.cells,
                          state.dsigma)
    coef = geo.ricci_coefficients(spec)

    def rhs(Y):
        return _stage(Y, stencil, coef)[0]

    Y = np.vstack([state.a[None, :], state.h[None, :], state.f])
    return Y, rhs(Y), rhs


def relative_rate(Y, ydot):
    return 2.0 * max(np.abs(ydot[1] / Y[1]).max(),
                     np.abs(ydot[2:] / Y[2:]).max())


def euler_step(state):
    return evo.CFL_MAX * (state.a.min() * state.dsigma) ** 2


def step(spec, state, t_left=1.0, dt_min=0.0, rhs=None):
    """One run_flow step: _dt_bound, then rkl2_step; returns (Y, dt, s)."""
    Y, ydot, stage_rhs = stacked(spec, state)
    if rhs is not None:
        stage_rhs, ydot = rhs, rhs(Y)
    dt, s = _dt_bound(Y, ydot, 0.0, t_left, state.dsigma, dt_min)
    return rkl2_step(Y, ydot, dt, s, stage_rhs), dt, s


class TestStepAdaptive:
    def test_first_step_uses_parabolic_bound(self):
        # On a fine grid the relative change per step is capped at
        # STEP_CAP dsigma^2, a parabolic scaling like the stability bound.
        spec, state = canonical_preset(400)
        Y, ydot, _ = stacked(spec, state)
        new, dt, _ = step(spec, state)
        expected = STEP_CAP * state.dsigma ** 2 / relative_rate(Y, ydot)
        assert STEP_CAP * state.dsigma ** 2 < MAX_REL_CHANGE
        assert dt == pytest.approx(expected, rel=1e-12)
        assert np.all(np.isfinite(new)) and not np.array_equal(new, Y)

    def test_dt_scales_with_grid_spacing(self):
        caps = []
        for cells in (200, 400):
            spec, state = canonical_preset(cells)
            Y, ydot, _ = stacked(spec, state)
            _, dt, _ = step(spec, state)
            caps.append(dt * relative_rate(Y, ydot))
        assert caps[0] / caps[1] == pytest.approx(4.0, rel=1e-12)

    def test_relative_change_cap(self):
        # On a coarse grid STEP_CAP dsigma^2 exceeds ten percent, so the
        # relative-change cap MAX_REL_CHANGE / rate sets dt; a thin fiber
        # makes the rate large.
        cells = 16
        sigma = geo.cell_centers(cells)
        state = geo.ProfileState(
            t=0.0, sigma=sigma, a=np.full(cells, math.pi),
            h=np.sin(math.pi * sigma), f=np.full((1, cells), 0.05))
        Y, ydot, _ = stacked(CANON, state)
        _, dt, _ = step(CANON, state)
        assert STEP_CAP * state.dsigma ** 2 > MAX_REL_CHANGE
        assert dt < euler_step(state)
        assert dt == pytest.approx(MAX_REL_CHANGE / relative_rate(Y, ydot),
                                   rel=1e-12)

    def test_zero_rhs_is_fixed_point(self):
        spec, state = canonical_preset(64)

        def zero_rhs(Y):
            return np.zeros_like(Y)

        new, dt, s = step(spec, state, rhs=zero_rhs)
        assert np.array_equal(new[0], state.a)
        assert np.array_equal(new[1], state.h)
        assert np.array_equal(new[2:], state.f)
        assert dt == pytest.approx(euler_step(state), rel=1e-12)
        assert s == 2

    def test_dt_max_cap_and_underflow(self):
        # The time left caps dt; the underflow floor applies before the cap.
        spec, state = canonical_preset(64)
        Y, ydot, _ = stacked(spec, state)
        uncapped = min(MAX_REL_CHANGE, STEP_CAP * state.dsigma ** 2) \
            / relative_rate(Y, ydot)
        _, dt, s = step(spec, state, t_left=1e-7)
        assert dt == 1e-7
        assert s == 2
        _, dt, _ = step(spec, state, t_left=1e-7, dt_min=0.5 * uncapped)
        assert dt == 1e-7
        with pytest.raises(FlowHalt, match="underflow"):
            step(spec, state, dt_min=2.0 * uncapped)

    @pytest.mark.parametrize("cells", [64, 400, 800])
    def test_stage_count_is_smallest_stable_one(self, cells):
        spec, state = canonical_preset(cells)
        _, dt, s = step(spec, state)
        dt_euler = euler_step(state)

        def covers(n):
            return (n * n + n - 2) / 4.0 * dt_euler >= dt

        assert covers(s) and not covers(s - 1)
        # dt and the forward-Euler step both scale as dsigma^2.
        assert 3 <= s <= 8


class TestStabilityEdge:
    """The stage count is sized at the forward-Euler edge CFL_MAX."""

    @pytest.mark.parametrize("cells", [16, 64])
    @pytest.mark.parametrize("parity", [geo.EVEN, geo.ODD])
    def test_second_difference_spectrum(self, cells, parity):
        # The five-point second difference with parity ghosts, assembled
        # column by column through the flow's own kernel, has real
        # eigenvalues in [-16/3, 0] / dsigma^2; forward Euler is stable on
        # it up to dt = 2 / (16/3) dsigma^2 = CFL_MAX dsigma^2.
        dsigma = 1.0 / cells
        stencil = geo.Stencil(np.array([[parity]]), cells, dsigma)
        unit = np.eye(cells)
        matrix = np.column_stack(
            [geo.stacked_derivs(unit[j][None, :], stencil)[1][0]
             for j in range(cells)])
        eig = np.linalg.eigvals(matrix) * dsigma * dsigma
        assert np.abs(eig.imag).max() <= 1e-12
        assert eig.real.min() >= -16.0 / 3.0 * (1.0 + 1e-12)
        assert eig.real.max() <= 1e-12
        assert evo.CFL_MAX * 16.0 / 3.0 == 2.0

    @pytest.mark.parametrize("s", range(2, 13))
    def test_rkl2_stable_on_its_interval(self, s):
        # y' = lam y for lam dt across [-(s^2 + s - 2)/2, 0], the interval
        # that (s^2 + s - 2)/4 forward-Euler steps of 2 / |lam| cover.
        edge = (s * s + s - 2) / 2.0
        lam = np.linspace(-edge, 0.0, 2001)[None, :]

        def rhs(Y):
            return lam * Y

        Y = np.ones_like(lam)
        growth = np.abs(rkl2_step(Y, rhs(Y), 1.0, s, rhs))
        assert growth.max() <= 1.0 + 1e-12


class TestRkl2:
    def test_time_error_is_second_order(self):
        # Fixed grid and stage count: halving dt cuts the error at t = 0.02
        # by about four against a 256-step reference.
        spec, state = canonical_preset(64)
        Y0, _, rhs = stacked(spec, state)

        def integrate(n):
            Y = Y0
            for _ in range(n):
                Y = rkl2_step(Y, rhs(Y), 0.02 / n, 5, rhs)
            return Y

        ref = integrate(256)
        errors = [np.abs(integrate(n) - ref).max() for n in (8, 16)]
        assert 3.8 <= errors[0] / errors[1] <= 4.3

    def test_run_flow_evaluates_s_stages_per_step(self, monkeypatch):
        # Each step costs s RHS evaluations, the first of which also feeds
        # the monitor row; the final state adds one evaluation for its row.
        calls, stages = [0], []
        stage, bound = evo._stage, evo._dt_bound

        def counted_stage(*args):
            calls[0] += 1
            return stage(*args)

        def recorded_bound(*args):
            dt, s = bound(*args)
            stages.append(s)
            return dt, s

        monkeypatch.setattr(evo, "_stage", counted_stage)
        monkeypatch.setattr(evo, "_dt_bound", recorded_bound)
        spec, state = canonical_preset(64)
        trace, _ = run_flow(spec, state, FlowConfig(cells=64, t_end=0.05))
        assert len(stages) == trace.rows.shape[0] - 1 >= 5
        assert calls[0] == sum(stages) + 1


def test_arclength_uniform_gauge():
    spec, state = canonical_preset(64)
    s, total = arclength(state)
    assert total == pytest.approx(math.pi, rel=1e-14)
    assert np.allclose(s, math.pi * state.sigma, rtol=0, atol=1e-14)


class TestRegrid:
    def test_identity_on_uniform_state(self):
        spec, state = canonical_preset(64)
        out = regrid_uniform(state)
        assert out.t == state.t
        assert out.cells == state.cells
        assert np.allclose(out.a, state.a, atol=1e-12)
        assert np.allclose(out.h, state.h, atol=1e-10)
        assert np.allclose(out.f, state.f, atol=1e-10)

    def test_resamples_stretched_gauge(self):
        # a = pi (1 + 0.2 cos 2 pi sigma) integrates back to length pi, so
        # the regridded state must carry h = sin(pi sigma') on a uniform
        # arclength lattice.
        cells = 256
        sigma = geo.cell_centers(cells)
        a = math.pi * (1.0 + 0.2 * np.cos(2.0 * math.pi * sigma))
        s = math.pi * sigma + 0.1 * np.sin(2.0 * math.pi * sigma)
        state = geo.ProfileState(
            t=0.5, sigma=sigma, a=a, h=np.sin(s),
            f=np.sqrt(4.0 - 2.0 * np.cos(s))[None, :])
        out = regrid_uniform(state)
        assert out.t == 0.5
        assert np.allclose(out.a, math.pi, rtol=1e-10)
        assert np.allclose(out.h, np.sin(math.pi * sigma), atol=1e-6)
        assert np.allclose(out.f[0] ** 2, 4.0 - 2.0 * np.cos(math.pi * sigma),
                           atol=1e-5)


class TestRunFlow:
    def test_zero_duration_records_initial_state(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(cells=64, t_end=0.0)
        trace, snaps = run_flow(spec, state, cfg)
        assert trace.rows.shape == (1, 12)
        assert trace.rows[0, 0] == 0.0
        assert trace.rows[0, 1] == 0.0
        assert len(snaps) == 1
        assert np.array_equal(snaps[0].h, state.h)
        assert np.array_equal(snaps[0].f, state.f)
        trace.validate()

    def test_short_run_monitors_and_snapshots(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(cells=64, t_end=0.01, snapshot_every=1)
        trace, snaps = run_flow(spec, state, cfg)
        trace.validate()
        t = trace.column("t")
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff(t) > 0.0)
        assert trace.boundary.shape[0] == trace.rows.shape[0]
        assert 3 <= len(snaps) <= 5
        assert snaps[0].t == 0.0
        assert snaps[-1].t == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff([s.t for s in snaps]) > 0.0)
        # The compatibility defect must stay at the discretization level.
        assert trace.column("kahler_res").max() <= 1e-5
        assert trace.column("heat_res").max() <= 1e-5
        final = snaps[-1]
        assert validate_closing(final).passed
        assert np.all(final.h > 0.0)

    def test_trace_every_thins_rows(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(cells=64, t_end=0.005, trace_every=5)
        trace, _ = run_flow(spec, state, cfg)
        dense_cfg = FlowConfig(cells=64, t_end=0.005)
        dense, _ = run_flow(spec, state, dense_cfg)
        assert trace.rows.shape[0] < dense.rows.shape[0]
        assert trace.rows[-1, 0] == pytest.approx(dense.rows[-1, 0],
                                                  abs=1e-12)

    def test_rejects_cell_mismatch(self):
        spec, state = canonical_preset(64)
        with pytest.raises(InvalidInitialState, match="cells"):
            run_flow(spec, state, FlowConfig(cells=128, t_end=0.01))

    def test_rejects_data_that_does_not_close(self):
        cells = 64
        sigma = geo.cell_centers(cells)
        s = math.pi * sigma
        state = geo.ProfileState(t=0.0, sigma=sigma,
                                 a=np.full(cells, math.pi),
                                 h=s * (math.pi - s),
                                 f=np.full((1, cells), 2.0))
        with pytest.raises(InvalidInitialState, match="does not close"):
            run_flow(CANON, state, FlowConfig(cells=cells, t_end=0.01))

    def test_stop_floor_halts_before_t_end(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(cells=64, t_end=10.0, stop_floor=0.95)
        trace, snaps = run_flow(spec, state, cfg)
        h2 = trace.column("h_max") ** 2
        assert h2[-1] < cfg.stop_floor
        assert h2[-2] >= cfg.stop_floor
        assert trace.column("t")[-1] < 10.0
        assert snaps[-1].t == pytest.approx(trace.column("t")[-1])

    def test_underflow_halt_carries_partial_trace(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(cells=64, t_end=1e12)
        with pytest.raises(FlowHalt, match="underflow") as info:
            run_flow(spec, state, cfg)
        halt = info.value
        assert halt.trace.rows.shape == (1, 12)
        assert halt.trace.rows[0, 1] == 0.0
        assert halt.snapshots == []


class TestResidualGate:
    def test_unstable_stages_halt_naming_the_residual(self, monkeypatch,
                                                      tmp_path, capsys):
        # Stages sized for a forward-Euler step past the stencil's edge let
        # the highest modes grow.  Without the gate this run exits 0 with
        # kahler_res 3e4 times its initial value.
        monkeypatch.setattr(evo, "CFL_MAX", 0.5)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"flow": {"cells": 80, "t_end": 0.3},
                                   "initial": {"preset": "canonical"}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"(kahler|heat)_res grew to .* more than 100 "
                         r"times its initial", err), err
        assert "partial results written" in err
        trace = read_trace(out)
        name = re.search(r"(kahler|heat)_res", err).group(0)
        column = trace.column(name)
        assert column[-1] > evo.RESIDUAL_GROWTH_MAX * column[0]
        assert np.all(column[:-1] <= evo.RESIDUAL_GROWTH_MAX * column[0])
        assert trace.column("t")[-1] < 0.3

    def test_zero_initial_residual_is_not_gated(self):
        first = np.zeros(12)
        row = np.full(12, 1.0)
        evo._check_residual_growth(row, first, 1)
        first[7] = 1e-3
        with pytest.raises(FlowHalt, match="kahler_res grew"):
            evo._check_residual_growth(row, first, 1)


TWO_FACTOR = geo.BundleSpec(n=(1, 1), k=(2.0, 1.0), q=(2, 1))


class TestMonitorColumns:
    """Every trace and boundary cell equals the geometry routines exactly."""

    @pytest.mark.parametrize("case", ["canonical", "two_factor"])
    def test_rows_match_recomputation_from_snapshots(self, case):
        if case == "canonical":
            spec, state = canonical_preset(32)
            regrid = 10.0
        else:
            spec = TWO_FACTOR
            state = build_kahler_profile(
                spec, ProfileTemplate(length=math.pi, f0=(2.0, 3.0)), 32)
            # Just above 1: the gauge is resampled after every step, so the
            # rows also cover regridded states.
            regrid = 1.0 + 1e-12
        cfg = FlowConfig(cells=32, t_end=0.05, trace_every=1,
                         snapshot_every=1, regrid_threshold=regrid)
        trace, snaps = run_flow(spec, state, cfg)
        assert len(snaps) == trace.rows.shape[0] >= 5
        k_col = spec.factor_arrays()[1]
        for row, brow, snap in zip(trace.rows, trace.boundary, snaps):
            jets = geo.profile_jets(snap)
            fdot = flow_rhs(spec, snap, jets=jets)[2]
            f2 = snap.f * snap.f
            heat = np.abs(2.0 * snap.f * fdot - geo.laplacian_f2(spec, jets)
                          + 2.0 * k_col)
            want = {"t": snap.t,
                    "kappa": geo.curvature_sup_proxy(spec, jets=jets),
                    "h_min": snap.h.min(), "h_max": snap.h.max(),
                    "kahler_res": geo.kahler_defect(spec, jets=jets).max(),
                    "heat_res": heat.max(),
                    "arclength": arclength(snap)[1]}
            want_b = [snap.t]
            for i in range(spec.r):
                want[f"f{i + 1}sq_min"] = f2[i].min()
                want[f"f{i + 1}sq_max"] = f2[i].max()
                want[f"grad_sup_{i + 1}"] = np.abs(
                    2.0 * snap.f[i] * jets.f_s[i]).max()
                want[f"liyau_sup_{i + 1}"] = (
                    4.0 * jets.f_s[i] * jets.f_s[i]).max()
                want_b += geo.endpoint_even(f2[i])
            got = dict(zip(trace.columns, row))
            assert set(got) == set(want) | {"dt"}
            for name, value in want.items():
                assert got[name] == value, name
            assert list(brow) == want_b
        t, dt = trace.column("t"), trace.column("dt")
        assert np.array_equal(t[:-1] + dt[:-1], t[1:])
        assert dt[-1] == 0.0


class TestRegridGate:
    """A run that regrids still keeps the Kahler and boundary-slope laws."""

    def run(self, monkeypatch, regrid_threshold):
        # The two-factor template of the twofactor_64 benchmark workload.
        spec = geo.BundleSpec(n=(1, 1), k=(2.0, 1.0), q=(2, 1))
        state = build_kahler_profile(
            spec, ProfileTemplate(length=math.pi, f0=(2.0, 3.0)), 64)
        calls = []

        def counted(st):
            calls.append(st.t)
            return regrid_uniform(st)

        monkeypatch.setattr(evo, "regrid_uniform", counted)
        cfg = FlowConfig(cells=64, cfl=0.2, t_end=0.3,
                         regrid_threshold=regrid_threshold)
        trace, _ = run_flow(spec, state, cfg)
        return spec, trace, len(calls)

    def test_regridded_run_keeps_the_structural_laws(self, monkeypatch):
        spec, trace, regrids = self.run(monkeypatch, 1.05)
        _, plain, plain_regrids = self.run(monkeypatch, 10.0)
        assert regrids >= 1 and plain_regrids == 0
        kahler = trace.column("kahler_res").max()
        assert kahler <= 1e-3
        assert kahler <= 2.0 * plain.column("kahler_res").max()
        for slope in boundary_linear_check(spec, trace):
            assert slope.rel_error <= 0.01, slope

    def test_huge_threshold_never_regrids(self, monkeypatch):
        # threshold * min(a) overflows; the gate must read that as "no
        # regrid", not raise a warning or a floating-point halt.
        _, trace, regrids = self.run(monkeypatch, 1e308)
        assert regrids == 0 and trace.rows.shape[0] > 1


class TestOneKernel:
    """Jets and right-hand sides come from the flow stage's own kernel."""

    @pytest.mark.parametrize("case", ["canonical", "two_factor"])
    def test_profile_jets_and_flow_rhs_equal_the_stage(self, case):
        if case == "canonical":
            spec, state = canonical_preset(32)
        else:
            spec = TWO_FACTOR
            state = build_kahler_profile(
                spec, ProfileTemplate(length=math.pi, f0=(2.0, 3.0)), 32)
        # The end of a short run adds a nonuniform gauge a, so the chain
        # rule's a' term is exercised too.
        _, snaps = run_flow(spec, state, FlowConfig(cells=32, t_end=0.05))
        assert np.ptp(snaps[-1].a) > 0.0
        for snap in (state, snaps[-1]):
            Y = np.vstack([snap.a, snap.h, snap.f])
            stencil = geo.Stencil(geo.field_parities(spec.r), snap.cells,
                                  snap.dsigma)
            ydot, u_s, u_ss = _stage(Y, stencil, geo.ricci_coefficients(spec))
            jets = geo.profile_jets(snap)
            assert np.array_equal(jets.h_s, u_s[1])
            assert np.array_equal(jets.h_ss, u_ss[1])
            assert np.array_equal(jets.f_s, u_s[2:])
            assert np.array_equal(jets.f_ss, u_ss[2:])
            adot, hdot, fdot = flow_rhs(spec, snap, jets)
            assert np.array_equal(adot, ydot[0])
            assert np.array_equal(hdot, ydot[1])
            assert np.array_equal(fdot, ydot[2:])


def test_benchmark_hooks_see_every_stage(tmp_path):
    # perfbench/child.py counts and traces the flow through the module
    # attributes evolution._stage, stacked_derivs and _rhs_core; a stage
    # that bypassed them would leave rhs_evals and the per-layer spans
    # wrong without failing anything else.
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"flow": {"cells": 24, "t_end": 0.05},
                               "initial": {"preset": "canonical"}}))
    report = tmp_path / "report.json"
    src = str(Path(evo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(report),
         "1", "--", "run", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    names = doc["names"]
    spans = [(names[span[0]], span[3]) for span in doc["spans"]]
    stages = [i for i, (name, _) in enumerate(spans)
              if name == "evolution.stage"]
    assert doc["counts"]["rhs_evals"] == len(stages) > 0
    for child in ("geometry.stacked_derivs", "evolution.rhs_core"):
        parents = [parent for name, parent in spans if name == child]
        assert sorted(parents) == stages, child
    # The monitor probes: one span per trace row, each directly under
    # run_flow, for every function the monitor row calls.
    trace_rows = len((tmp_path / "out" / "trace.csv").read_text()
                     .splitlines()) - 1
    assert trace_rows > 1
    for probe in ("curvature_sup_proxy", "kahler_defect", "laplacian_f2",
                  "endpoint_even", "cumulative_from_left"):
        parents = [spans[parent][0] for name, parent in spans
                   if name == f"geometry.{probe}"]
        assert parents == ["evolution.run_flow"] * trace_rows, probe
