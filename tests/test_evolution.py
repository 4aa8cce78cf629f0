"""Flow right-hand side, stepping, boundary handling, and run control."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bundleflow.geometry as geo
from bundleflow.evolution import (DT_UNDERFLOW, MAX_REL_CHANGE, FlowConfig,
                                  FlowHalt, InvalidInitialState, arclength,
                                  flow_rhs, regrid_uniform, run_flow,
                                  step_adaptive)
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
        approx = flow_rhs(CANON, state)
        for got, want in zip(approx, exact):
            assert np.max(np.abs(got - want)) <= 1e-6

    def test_boundary_time_derivative_law(self):
        # For Kahler-compatible data d/dt F_j^2 extends to 2 q_j - 2 k_j on
        # the left closed end and -2 q_j - 2 k_j on the right (0 and -8
        # here), and the discrete scheme reproduces this to rounding.
        spec, state = canonical_preset(400)
        _, _, fdot = flow_rhs(spec, state)
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
        bad = state.with_fields(h=h)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FlowHalt, match="cell"):
                flow_rhs(CANON, bad)

    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_parabolic_scaling_law(self, K):
        # (a, h, f) -> sqrt(K)(a, h, f) with t -> K t: the right-hand side
        # must come back divided by sqrt(K).
        state, _ = canonical_state(64)
        base = flow_rhs(CANON, state)
        root = math.sqrt(K)
        scaled = state.with_fields(a=root * state.a, h=root * state.h,
                                   f=root * state.f)
        moved = flow_rhs(CANON, scaled)
        for got, want in zip(moved, base):
            assert np.allclose(got, want / root, rtol=1e-10, atol=1e-12)


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
        {"regrid_threshold": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)

    def test_coerces_integer_fields(self):
        cfg = FlowConfig(cells=64.0, snapshot_every=10.0, trace_every=2.0)
        assert cfg.cells == 64 and isinstance(cfg.cells, int)
        assert cfg.snapshot_every == 10
        assert cfg.trace_every == 2


class TestStepAdaptive:
    def test_first_step_uses_parabolic_bound(self):
        spec, state = canonical_preset(400)
        cfg = FlowConfig(cells=400, cfl=0.2)
        new, dt = step_adaptive(spec, state, cfg)
        expected = cfg.cfl * (state.a.min() * state.dsigma) ** 2
        assert dt == pytest.approx(expected, rel=1e-12)
        assert new.t == pytest.approx(state.t + dt)

    def test_dt_scales_with_grid_spacing(self):
        dts = []
        for cells in (200, 400):
            spec, state = canonical_preset(cells)
            _, dt = step_adaptive(spec, state, FlowConfig(cells=cells))
            dts.append(dt)
        assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)

    def test_relative_change_cap(self):
        # A thin fiber makes the twist term enormous, so the ten percent
        # relative-change cap, not the parabolic bound, sets dt.
        cells = 64
        sigma = geo.cell_centers(cells)
        state = geo.ProfileState(
            t=0.0, sigma=sigma, a=np.full(cells, math.pi),
            h=np.sin(math.pi * sigma), f=np.full((1, cells), 0.05))
        adot, hdot, fdot = flow_rhs(CANON, state)
        rate = 2.0 * max(np.abs(hdot / state.h).max(),
                         np.abs(fdot / state.f).max())
        cfg = FlowConfig(cells=cells, cfl=0.2)
        _, dt = step_adaptive(CANON, state, cfg, rhs1=(adot, hdot, fdot))
        parabolic = cfg.cfl * (state.a.min() * state.dsigma) ** 2
        assert dt < parabolic
        assert dt == pytest.approx(MAX_REL_CHANGE / rate, rel=1e-12)

    def test_zero_rhs_is_fixed_point(self):
        spec, state = canonical_preset(64)

        def zero_rhs(spec_, state_, jets=None):
            return (np.zeros_like(state_.a), np.zeros_like(state_.h),
                    np.zeros_like(state_.f))

        cfg = FlowConfig(cells=64)
        new, dt = step_adaptive(spec, state, cfg, rhs_fn=zero_rhs)
        assert np.array_equal(new.a, state.a)
        assert np.array_equal(new.h, state.h)
        assert np.array_equal(new.f, state.f)
        assert dt == pytest.approx(cfg.cfl * (state.a.min()
                                              * state.dsigma) ** 2)

    def test_dt_max_cap_and_underflow(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(cells=64)
        _, dt = step_adaptive(spec, state, cfg, dt_max=1e-7)
        assert dt == 1e-7
        with pytest.raises(FlowHalt, match="underflow"):
            step_adaptive(spec, state, cfg, dt_max=1e-20)


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
        cfg = FlowConfig(cells=64, t_end=0.01, snapshot_every=10)
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
        cfg = FlowConfig(cells=32, t_end=0.01, trace_every=1,
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
                    "kappa": geo.curvature_field(spec, jets=jets).kappa,
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
