"""Flow right-hand side, stepping, boundary handling, and run control."""

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
import bundleflow.cli as cli
import bundleflow.evolution as evo
from bundleflow.analysis import analyze_run
from bundleflow.cli import main, read_snapshots, read_trace
from bundleflow.evolution import (MAX_REL_CHANGE, STEP_CAP, FlowConfig,
                                  FlowHalt, InvalidInitialState, _dt_bound,
                                  _stage, arclength, regrid_uniform,
                                  rkl2_step, run_flow)
from bundleflow.initial_data import (build_kahler_profile, calabi_preset,
                                     canonical_preset, validate_closing)
from reference import (boundary_linear_check, flow_rhs,
                       lagrange_resample_loops, profile_jets, read_snapshot)

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
    return geo.ProfileState(t=0.0, a=np.full(cells, math.pi), h=jets.h,
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
        jets = profile_jets(state)
        _, _, fdot = flow_rhs(spec, state)
        lap = geo.laplacian_f2(spec, jets)
        resid = np.abs(2.0 * state.f * fdot - lap + 2.0 * spec.k)
        assert resid.max() <= 1e-6

    def test_nonfinite_state_raises_flow_halt(self):
        state, _ = canonical_state(64)
        h = state.h.copy()
        h[10] = np.nan
        bad = geo.ProfileState(state.t, state.a, h, state.f)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FlowHalt, match="cell"):
                flow_rhs(CANON, bad)

    @given(st.floats(min_value=0.2, max_value=5.0))
    @example(0.3125)
    def test_parabolic_scaling_law(self, K):
        # (a, h, f) -> sqrt(K)(a, h, f) with t -> K t: the right-hand side
        # must come back divided by sqrt(K).
        state, _ = canonical_state(64)
        base = flow_rhs(CANON, state)
        root = math.sqrt(K)
        scaled = geo.ProfileState(state.t, root * state.a, root * state.h,
                                  root * state.f)
        moved = flow_rhs(CANON, scaled)
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
        sigma = geo.cell_centers(state.cells)
        ghost_sigma = (np.arange(M + 4) - 1.5) * d
        assert ghost_sigma[0] == pytest.approx(-1.5 * d)
        assert ghost_sigma[1] == pytest.approx(-sigma[0])
        assert ghost_sigma[-2] == pytest.approx(2.0 - sigma[-1])
        assert ghost_sigma[-1] == pytest.approx(2.0 - sigma[-2])
        assert np.allclose(np.diff(ghost_sigma), d)
        assert np.allclose(ghost_h, np.sin(math.pi * ghost_sigma),
                           rtol=0, atol=1e-15)


class TestFlowConfig:
    # Two bad values per field: each bound from both sides it can be missed
    # (at and below it; for the step cadences, zero or below and a
    # fraction).  flow.cells and flow.cfl are the CLI's, in test_cli.
    @pytest.mark.parametrize("kwargs", [
        {"t_end": -1.0}, {"t_end": -1e-300},
        {"stop_floor": 0.0}, {"stop_floor": -1e-3},
        {"snapshot_every": 0}, {"snapshot_every": 2.5},
        {"trace_every": 0.5}, {"trace_every": 0}, {"trace_every": -1},
        {"regrid_threshold": 1.0}, {"regrid_threshold": 0.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)

    def test_coerces_integer_fields(self):
        cfg = FlowConfig(snapshot_every=10.0, trace_every=2.0)
        assert cfg.snapshot_every == 10
        assert cfg.trace_every == 2


def stacked(spec, state):
    """The stacked state (a; h; f), its first stage and the RHS closure,
    built as run_flow builds them."""
    stencil = geo.Stencil(geo.field_parities(spec.r), state.cells)
    ricci = geo.RicciFeatures(spec, state.cells)

    def rhs(Y, out):
        return _stage(Y, stencil, ricci, out)[0]

    Y = np.vstack([state.a[None, :], state.h[None, :], state.f])
    return Y, rhs(Y, np.empty_like(Y)), rhs


def relative_rate(Y, ydot):
    return 2.0 * max(np.abs(ydot[1] / Y[1]).max(),
                     np.abs(ydot[2:] / Y[2:]).max())


def euler_step(state):
    return evo.CFL_MAX * (state.a.min() * state.dsigma) ** 2


def step(spec, state, t_left=1.0, dt_min=0.0, rhs=None):
    """One run_flow step: _dt_bound, then rkl2_step; returns (Y, dt, s)."""
    Y, ydot, stage_rhs = stacked(spec, state)
    if rhs is not None:
        stage_rhs, ydot = rhs, rhs(Y, np.empty_like(Y))
    dt, s = _dt_bound(ydot / Y, Y[0].min(), 0.0, t_left, state.dsigma,
                      dt_min)
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
            t=0.0, a=np.full(cells, math.pi),
            h=np.sin(math.pi * sigma), f=np.full((1, cells), 0.05))
        Y, ydot, _ = stacked(CANON, state)
        _, dt, _ = step(CANON, state)
        assert STEP_CAP * state.dsigma ** 2 > MAX_REL_CHANGE
        assert dt < euler_step(state)
        assert dt == pytest.approx(MAX_REL_CHANGE / relative_rate(Y, ydot),
                                   rel=1e-12)

    def test_zero_rhs_is_fixed_point(self):
        spec, state = canonical_preset(64)

        def zero_rhs(Y, out):
            out.fill(0.0)
            return out

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

    def test_time_error_stays_at_the_spatial_error(self, monkeypatch):
        # STEP_CAP holds RKL2's time error at the level of the spatial
        # error.  On canonical data at 64 cells and t = 0.3, the time error
        # is the largest relative deviation of (a; h; f) from a run at
        # STEP_CAP / 16; the spatial gap is the deviation of that careful
        # run from a 128-cell run, read at the 64-cell centers by the
        # fourth-order midpoint rule (-1, 9, 9, -1) / 16.  Their ratio is
        # 0.32, 1.18 and 5.3 at STEP_CAP 40, 80 and 160.
        def final(cells):
            spec, state = canonical_preset(cells)
            _, snaps = run_flow(spec, state, FlowConfig(
                t_end=0.3, snapshot_every=10 ** 6))
            assert snaps[-1].t == pytest.approx(0.3, abs=1e-12)
            return np.vstack([snaps[-1].a, snaps[-1].h, snaps[-1].f])

        def deviation(Y, ref):
            return np.abs(Y / ref - 1.0).max()

        coarse = final(64)
        ext = geo.stacked_parity(final(128), geo.field_parities(1))
        fine = (9.0 * (ext[:, 2:-2:2] + ext[:, 3:-1:2])
                - ext[:, 1:-3:2] - ext[:, 4::2]) / 16.0
        monkeypatch.setattr(evo, "STEP_CAP", STEP_CAP / 16.0)
        careful = final(64)
        assert deviation(coarse, careful) <= 2.0 * deviation(careful, fine)


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
        stencil = geo.Stencil(np.array([[parity]]), cells)
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

        def rhs(Y, out):
            return np.multiply(lam, Y, out=out)

        Y = np.ones_like(lam)
        growth = np.abs(rkl2_step(Y, rhs(Y, np.empty_like(Y)), 1.0, s, rhs))
        assert growth.max() <= 1.0 + 1e-12


def textbook_rkl2_step(Y, ydot, dt, s, rhs):
    """The three-term RKL2 recursion of Meyer, Balsara & Aslam on the
    increments d_j = Y_j - Y, one array operation per term."""
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1))
                           for j in range(3, s + 1)]
    d_prev = np.zeros_like(Y)
    d = (w1 / 3.0 * dt) * ydot
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        mu_t = mu * w1 * dt
        gamma_t = -(1.0 - b[j - 1]) * mu_t
        d, d_prev = (mu * d + nu * d_prev
                     + mu_t * rhs(Y + d, np.empty_like(Y))
                     + gamma_t * ydot), d
    return Y + d


class TestRkl2:
    @pytest.mark.parametrize("s", range(2, 13))
    def test_matches_the_textbook_recursion(self, s):
        # The one-product stage update against the three-term recursion
        # on a nonlinear right-hand side, relative to the step's increment.
        rng = np.random.default_rng(s)
        Y = rng.uniform(0.5, 2.0, (3, 20))

        def rhs(Yj, out):
            return np.subtract(np.sin(3.0 * Yj),
                               Yj * Yj * np.roll(Yj, 1, axis=1), out=out)

        ydot = rhs(Y, np.empty_like(Y))
        new = rkl2_step(Y, ydot, 0.05, s, rhs)
        ref = textbook_rkl2_step(Y, ydot, 0.05, s, rhs)
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref - Y).max()

    def test_time_error_is_second_order(self):
        # Fixed grid and stage count: halving dt cuts the error at t = 0.02
        # by about four against a 256-step reference.
        spec, state = canonical_preset(64)
        Y0, _, rhs = stacked(spec, state)

        def integrate(n):
            Y = Y0
            for _ in range(n):
                Y = rkl2_step(Y, rhs(Y, np.empty_like(Y)), 0.02 / n, 5,
                              rhs)
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
        trace, _ = run_flow(spec, state, FlowConfig(t_end=0.05))
        assert len(stages) == len(trace.rows) - 1 >= 5
        assert calls[0] == sum(stages) + 1


def test_arclength_uniform_gauge():
    spec, state = canonical_preset(64)
    s, total = arclength(state)
    assert total == pytest.approx(math.pi, rel=1e-14)
    assert np.allclose(s, math.pi * geo.cell_centers(state.cells), rtol=0,
                       atol=1e-14)


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
            t=0.5, a=a, h=np.sin(s),
            f=np.sqrt(4.0 - 2.0 * np.cos(s))[None, :])
        out = regrid_uniform(state)
        assert out.t == 0.5
        assert np.allclose(out.a, math.pi, rtol=1e-10)
        assert np.allclose(out.h, np.sin(math.pi * sigma), atol=1e-6)
        assert np.allclose(out.f[0] ** 2, 4.0 - 2.0 * np.cos(math.pi * sigma),
                           atol=1e-5)


class TestLagrangeResample:
    """The resample's one pass per window point and one sum over all rows
    equal a pass per weight and a sum per row bit for bit."""

    @staticmethod
    def same(x_src, u_src, x_tgt):
        return np.array_equal(evo._lagrange_resample(x_src, u_src, x_tgt),
                              lagrange_resample_loops(x_src, u_src, x_tgt))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_increasing_abscissae(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(5, 80))
        x_src = np.cumsum(rng.uniform(1e-3, 1.0, size)) - rng.normal()
        u_src = rng.normal(size=(int(rng.integers(1, 4)), size))
        x_tgt = rng.uniform(x_src[0], x_src[-1], int(rng.integers(1, 90)))
        assert self.same(x_src, u_src, x_tgt)

    def test_targets_clamped_at_both_ends(self):
        x_src = np.linspace(0.0, 1.0, 12) ** 2
        u_src = np.vstack([np.cos(3.0 * x_src), np.exp(x_src)])
        x_tgt = np.array([-0.5, 0.0, 5e-3, 0.02, 0.5, 0.95, 1.0, 1.5])
        centers = np.searchsorted(x_src, x_tgt)
        assert centers.min() < 2 and centers.max() > x_src.size - 3
        assert self.same(x_src, u_src, x_tgt)

    def test_stretched_state(self, monkeypatch):
        # The state of TestRegrid.test_resamples_stretched_gauge.
        cells = 256
        sigma = geo.cell_centers(cells)
        a = math.pi * (1.0 + 0.2 * np.cos(2.0 * math.pi * sigma))
        s = math.pi * sigma + 0.1 * np.sin(2.0 * math.pi * sigma)
        state = geo.ProfileState(
            t=0.5, a=a, h=np.sin(s),
            f=np.sqrt(4.0 - 2.0 * np.cos(s))[None, :])
        resample, calls = evo._lagrange_resample, []

        def checked(x_src, u_src, x_tgt):
            out = resample(x_src, u_src, x_tgt)
            calls.append(np.array_equal(
                out, lagrange_resample_loops(x_src, u_src, x_tgt)))
            return out

        monkeypatch.setattr(evo, "_lagrange_resample", checked)
        regrid_uniform(state)
        assert calls == [True]


class TestRunFlow:
    def test_zero_duration_records_initial_state(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(t_end=0.0)
        trace, snaps = run_flow(spec, state, cfg)
        # The 11 trace.csv columns and the two endpoint values.
        assert np.shape(trace.rows) == (1, 13)
        assert trace.rows[0][0] == 0.0
        assert trace.rows[0][1] == 0.0
        assert len(snaps) == 1
        assert np.array_equal(snaps[0].h, state.h)
        assert np.array_equal(snaps[0].f, state.f)
        trace.validate()

    def test_short_run_monitors_and_snapshots(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(t_end=0.01, snapshot_every=1)
        trace, snaps = run_flow(spec, state, cfg)
        trace.validate()
        t = trace.column("t")
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff(t) > 0.0)
        # The endpoint columns close the table, one value per row each.
        assert trace.columns[-2:] == ["f1sq_left", "f1sq_right"]
        assert np.all(np.asarray(trace.rows)[:, -2:] > 0.0)
        assert 3 <= len(snaps) <= 5
        assert snaps[0].t == 0.0
        assert snaps[-1].t == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff([s.t for s in snaps]) > 0.0)
        # The compatibility defect must stay at the discretization level.
        assert np.asarray(trace.column("kahler_res")).max() <= 1e-5
        assert np.asarray(trace.column("heat_res")).max() <= 1e-5
        final = snaps[-1]
        assert all(c.ok for c in validate_closing(final))
        assert np.all(final.h > 0.0)

    def test_trace_every_thins_rows(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(t_end=0.01, trace_every=5)
        trace, _ = run_flow(spec, state, cfg)
        dense_cfg = FlowConfig(t_end=0.01)
        dense, _ = run_flow(spec, state, dense_cfg)
        assert len(trace.rows) < len(dense.rows)
        assert trace.rows[-1][0] == pytest.approx(dense.rows[-1][0],
                                                  abs=1e-12)

    @pytest.mark.parametrize("halted", [False, True],
                             ids=["clean", "halted"])
    def test_every_snapshot_is_a_trace_row(self, monkeypatch, halted):
        # Snapshots every 3 steps and rows every 10: each snapshot step
        # gains a row, and the rows of the run without those snapshots
        # stay as they were.  Stages sized past the stability edge make a
        # halted run, which may trip its gate on one of the new rows; its
        # rows are compared up to that trip.
        if halted:
            monkeypatch.setattr(evo, "CFL_MAX", 0.5)
        spec, state = canonical_preset(80)
        halts = []

        def run(snapshot_every):
            cfg = FlowConfig(t_end=0.3, trace_every=10,
                             snapshot_every=snapshot_every)
            try:
                return run_flow(spec, state, cfg)
            except FlowHalt as exc:
                halts.append(exc)
                return exc.trace, exc.snapshots

        trace, snaps = run(3)
        sparse, _ = run(10 ** 6)
        assert len(halts) == 2 * halted
        t = trace.column("t")
        times = [snap.t for snap in snaps]
        assert len(times) > 2 and set(times) <= set(t)
        rows = set(map(repr, trace.rows))
        kept = [row for row in sparse.rows if row[0] <= t[-1]]
        assert len(kept) > 1 and all(repr(row) in rows for row in kept)
        kappa = dict(zip(t, trace.column("kappa")))
        report = analyze_run(trace, times, 1e-3)
        assert report["rescale_factors"] == [kappa[ts] for ts in times]

    def test_rejects_fewer_than_8_cells(self):
        # The grid is the state's own; 8 cells is the smallest it runs on.
        spec, state = canonical_preset(7)
        with pytest.raises(InvalidInitialState,
                           match="^state has 7 cells; the flow needs at "
                                 "least 8$"):
            run_flow(spec, state, FlowConfig(t_end=0.01))

    def test_rejects_a_state_with_another_factor_count(self):
        # Checked before any stepping, in both directions.
        spec, state = canonical_preset(16)
        doubled = geo.ProfileState(0.0, state.a, state.h,
                                   np.vstack([state.f, state.f]))
        for spec, state, rows, factors in ((TWO_FACTOR, state, 1, 2),
                                           (spec, doubled, 2, 1)):
            with pytest.raises(InvalidInitialState,
                               match=f"^state has {rows} f rows; the spec "
                                     f"has {factors} base factors$"):
                run_flow(spec, state, FlowConfig(t_end=0.01))

    def test_rejects_data_that_does_not_close(self):
        cells = 64
        sigma = geo.cell_centers(cells)
        s = math.pi * sigma
        state = geo.ProfileState(t=0.0, a=np.full(cells, math.pi),
                                 h=s * (math.pi - s),
                                 f=np.full((1, cells), 2.0))
        with pytest.raises(InvalidInitialState, match="does not close"):
            run_flow(CANON, state, FlowConfig(t_end=0.01))

    @pytest.mark.parametrize("field, message", [
        ("h", "fiber length h must be positive at cell centers"),
        ("a", "lapse a must be positive")])
    def test_rejects_nonpositive_state(self, field, message):
        spec, state = canonical_preset(64)
        rows = {"a": state.a.copy(), "h": state.h.copy()}
        rows[field][7] = 0.0 if field == "h" else -1.0
        bad = geo.ProfileState(0.0, rows["a"], rows["h"], state.f)
        with pytest.raises(InvalidInitialState, match=f"^{message}$"):
            run_flow(spec, bad, FlowConfig(t_end=0.01))

    def test_stop_floor_halts_before_t_end(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(t_end=10.0, stop_floor=0.95)
        trace, snaps = run_flow(spec, state, cfg)
        h2 = np.asarray(trace.column("h_max")) ** 2
        assert h2[-1] < cfg.stop_floor
        assert h2[-2] >= cfg.stop_floor
        assert trace.column("t")[-1] < 10.0
        assert snaps[-1].t == pytest.approx(trace.column("t")[-1])

    def test_underflow_halt_carries_partial_trace(self):
        spec, state = canonical_preset(64)
        cfg = FlowConfig(t_end=1e12)
        with pytest.raises(FlowHalt, match="underflow") as info:
            run_flow(spec, state, cfg)
        halt = info.value
        assert np.shape(halt.trace.rows) == (1, 13)
        assert halt.trace.rows[0][1] == 0.0
        assert halt.snapshots == []

    def test_states_are_never_written_in_place(self, monkeypatch):
        # Snapshots and queued monitor rows share the step's arrays, so
        # the run must read the same with every step and regrid result
        # made read-only.  The two-factor data regrid at threshold 1.05.
        spec = TWO_FACTOR
        state = build_kahler_profile(spec, math.pi, "sinusoidal",
                                     (2.0, 3.0), 64)
        cfg = FlowConfig(t_end=0.3, snapshot_every=7,
                         regrid_threshold=1.05)
        plain, plain_snaps = run_flow(spec, state, cfg)
        step, regrid, regrids = evo.rkl2_step, evo.regrid_uniform, []

        def frozen(*arrays):
            for u in arrays:
                u.flags.writeable = False

        def frozen_step(*args):
            Y = step(*args)
            frozen(Y)
            return Y

        def frozen_regrid(st):
            regrids.append(st.t)
            out = regrid(st)
            frozen(out.a, out.h, out.f)
            return out

        monkeypatch.setattr(evo, "rkl2_step", frozen_step)
        monkeypatch.setattr(evo, "regrid_uniform", frozen_regrid)
        trace, snaps = run_flow(spec, state, cfg)
        assert regrids
        assert np.array_equal(trace.rows, plain.rows)
        assert len(snaps) == len(plain_snaps)
        # A snapshot shares the frozen rows of its step unless it holds
        # the initial state or a regrid's restacked one.
        writable = [snap.t for snap in snaps if snap.h.flags.writeable]
        assert set(writable) <= {state.t, *regrids}
        assert len(writable) < len(snaps)
        for snap, ref in zip(snaps, plain_snaps):
            assert snap.t == ref.t
            for name in ("a", "h", "f"):
                assert np.array_equal(getattr(snap, name),
                                      getattr(ref, name))


def _overflow_message(ufunc):
    """numpy's FloatingPointError text for an array ``ufunc`` that
    overflows."""
    with np.errstate(over="raise"), \
            pytest.raises(FloatingPointError) as overflow:
        ufunc(*[np.array([1e200])] * ufunc.nin)
    return str(overflow.value)


class TestBookkeepingOverflow:
    """The stop tests and _dt_bound square a floor, the fiber length and
    the forward-Euler step on Python floats, where an overflow is an inf:
    not below the floor, no stage limit, and dt = 0 for an infinite rate.
    A state whose squares leave the double range still halts the run
    (exit 3), where its data fail: in the monitor or the residual gate."""

    @pytest.mark.parametrize("scale, reason", [
        # f ~ 1e160: the monitor's f^2 overflows.
        pytest.param((1.0, 1.0, 1e160),
                     f"floating-point {_overflow_message(np.multiply)}",
                     id="floor"),
        # h ~ 2e154 over f ~ 1e40: the monitor's h^2 overflows, the RHS
        # does not.
        pytest.param((1.0, 2e154, 1e40),
                     f"floating-point {_overflow_message(np.square)}",
                     id="fiber"),
        # a ~ 1e157: (min a dsigma)^2 is inf, so s = 2, and the stages
        # break the Kahler relation past the residual gate.
        pytest.param((1e157, 1.0, 1.0), "kahler_res grew to ",
                     id="euler-step"),
    ])
    def test_overflowing_square_halts_with_its_message(
            self, monkeypatch, tmp_path, capsys, scale, reason):
        # The first step lands on a state scaled row by row; the run
        # halts on the row of that state.
        step = evo.rkl2_step

        def scaled_step(*args):
            monkeypatch.setattr(evo, "rkl2_step", step)
            return step(*args) * np.array(scale)[:, None]

        monkeypatch.setattr(evo, "rkl2_step", scaled_step)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"flow": {"cells": 48, "t_end": 0.3},
                                   "initial": {"preset": "canonical"}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        t = read_trace(out).column("dt")[0]
        assert re.search(rf"flow halted: {re.escape(reason)}.* at "
                         rf"t = {t:.6g}\b", err), err

    # _dt_bound as run_flow calls it, with numpy's errors trapped.
    @np.errstate(over="raise", divide="raise", invalid="raise")
    def test_infinite_euler_step_sets_no_stage_limit(self):
        rates = np.full((3, 48), 0.01)
        t, t_end, dsigma = 0.0, 10.0, 1.0 / 48
        dt, s = _dt_bound(rates, 1e160, t, t_end, dsigma, 1e-12)
        cap = min(MAX_REL_CHANGE, STEP_CAP * dsigma * dsigma)
        assert s == 2
        assert dt == min(cap / (2.0 * 0.01), t_end - t)

    @np.errstate(over="raise", divide="raise", invalid="raise")
    def test_infinite_rate_halts_as_a_dt_underflow(self):
        rates = np.zeros((3, 48))
        rates[1, 5] = 1e308
        with pytest.raises(FlowHalt, match="time step underflow"):
            _dt_bound(rates, 1.0, 0.0, 1.0, 1.0 / 48, 1e-14)


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
        column = np.asarray(trace.column(name))
        assert column[-1] > evo.RESIDUAL_GROWTH_MAX * column[0]
        assert np.all(column[:-1] <= evo.RESIDUAL_GROWTH_MAX * column[0])
        assert trace.column("t")[-1] < 0.3

    @staticmethod
    def planted(monkeypatch, start, later):
        # kahler_res reads start in the run's first row, later after it.
        seen = []

        def kahler_defect(spec, jets):
            out = np.full(geo.kahler_defect(spec, jets=jets).shape, later)
            if not seen:
                out[0] = start
            seen.append(out.shape[0])
            return out

        monkeypatch.setattr(evo, "kahler_defect", kahler_defect)
        spec, state = canonical_preset(32)
        return spec, state, FlowConfig(t_end=0.01)

    def test_zero_initial_residual_is_not_gated(self, monkeypatch):
        trace, _ = run_flow(*self.planted(monkeypatch, 0.0, 1.0))
        column = np.asarray(trace.column("kahler_res"))
        assert column[0] == 0.0 and np.all(column[1:] == 1.0)
        assert trace.column("t")[-1] == pytest.approx(0.01, abs=1e-12)
        with pytest.raises(FlowHalt, match="kahler_res grew") as info:
            run_flow(*self.planted(monkeypatch, 1e-3, 1.0))
        rows = info.value.trace.rows
        assert len(rows) == 2
        assert str(info.value) == (
            f"kahler_res grew to 1.000e+00 at t = {rows[1][0]:.6g}, more "
            f"than 100 times its initial 1.000e-03: the integration has "
            f"gone unstable")

    def test_overflowing_threshold_is_not_gated(self, monkeypatch):
        # 100 times a first residual of 1e307 overflows to inf, which no
        # residual exceeds; the run neither halts nor raises.
        trace, _ = run_flow(*self.planted(monkeypatch, 1e307, 1.7e308))
        assert np.all(np.asarray(trace.column("kahler_res"))[1:] == 1.7e308)
        assert trace.column("t")[-1] == pytest.approx(0.01, abs=1e-12)


class TestBatchedMonitor:
    """Trace rows filled a block at a time equal rows filled one by one,
    and halts land on the same row as they would one row at a time."""

    def test_pending_block_stays_within_its_bound(self, monkeypatch):
        sizes = []

        def recording(spec, jets):
            sizes.append(jets.h.shape[0])
            return geo.curvature_sup_proxy(spec, jets=jets)

        monkeypatch.setattr(evo, "curvature_sup_proxy", recording)
        spec, state = canonical_preset(400)
        trace, _ = run_flow(spec, state, FlowConfig(t_end=0.04))
        rows = len(trace.rows)
        assert rows > 2 * evo.MONITOR_BLOCK
        assert max(sizes) == evo.MONITOR_BLOCK
        assert sum(sizes) == rows
        assert len(sizes) == -(-rows // evo.MONITOR_BLOCK)

    @pytest.mark.parametrize("k, planted, error", [
        pytest.param(40, ["arclength"], "overflow encountered in multiply",
                     id="40"),
        pytest.param(68, ["arclength"], "overflow encountered in multiply",
                     id="68"),
        pytest.param(40, ["kahler_res"], "overflow encountered in multiply",
                     id="kahler_res-40"),
        # Two errors in one row: the one computed first names the halt.
        pytest.param(40, ["kappa", "kahler_res"],
                     "divide by zero encountered in divide",
                     id="kappa-before-kahler_res-40"),
        pytest.param(40, ["heat_res", "arclength"],
                     "divide by zero encountered in divide",
                     id="heat_res-before-arclength-40")])
    def test_deferred_overflow_halts_at_its_row(self, monkeypatch, tmp_path,
                                                capsys, k, planted, error):
        # Row 40 fails in the flush at the block bound, after the
        # snapshots of rows 40 to 63 were taken; row 68 fails in the flush
        # at the end of the run.  Row k + 2 fails too, later.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "flow": {"cells": 48, "t_end": 0.45, "snapshot_every": 1},
            "initial": {"preset": "canonical"}}))
        clean = tmp_path / "clean"
        assert main(["run", str(cfg), "--out", str(clean)]) == 0
        capsys.readouterr()
        ref = read_trace(clean)
        ref_snaps = [read_snapshot(path)
                     for path in cli._snapshot_paths(clean)]
        assert len(ref.rows) > k + 2 > evo.MONITOR_BLOCK // 2
        assert [snap.t for snap in ref_snaps] == list(ref.column("t"))
        bad = [ref_snaps[k], ref_snaps[k + 2]]

        def hit(u, field):
            # Rows of the stack u equal to that field of a bad snapshot.
            found = np.zeros(u.shape[:-1] + (1,), bool)
            for snap in bad:
                found |= (u == getattr(snap, field)).all(axis=-1,
                                                         keepdims=True)
            return found

        def arclength(u, dsigma, parity):
            # A real overflow (13 * 3e307) inside the arclength column.
            return geo.cumulative_from_left(
                u * np.where(hit(u, "a"), 1e307, 1.0), dsigma, parity)

        def kahler_res(spec, jets):
            # A real overflow, q h = 2 * 1.5e308.
            h = np.where(hit(jets.h, "h"), 1.5e308, jets.h)
            return geo.kahler_defect(spec, jets._replace(h=h))

        def kappa(spec, jets):
            # h_s / 0 in the proxy's first operation.
            h = np.where(hit(jets.h, "h"), 0.0, jets.h)
            return geo.curvature_sup_proxy(spec, jets._replace(h=h))

        def heat_res(spec, jets):
            # f_s / 0 in tr L.
            f = np.where(hit(jets.h, "h")[..., None], 0.0, jets.f)
            return geo.laplacian_f2(spec, jets._replace(f=f))

        targets = {"arclength": ("cumulative_from_left", arclength),
                   "kahler_res": ("kahler_defect", kahler_res),
                   "kappa": ("curvature_sup_proxy", kappa),
                   "heat_res": ("laplacian_f2", heat_res)}
        for column in planted:
            monkeypatch.setattr(evo, *targets[column])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        t_k = ref.rows[k][0]
        assert (f"flow halted: floating-point {error} at t = "
                f"{t_k:.6g}\n") in err, err
        trace = read_trace(out)
        assert np.array_equal(trace.rows, ref.rows[:k])
        kept = read_snapshots(out)
        assert kept == [snap.t for snap in ref_snaps[:k]]
        assert max(kept) < t_k

    def test_halt_at_row_zero_leaves_no_snapshots(self, monkeypatch,
                                                  tmp_path, capsys):
        # Every snapshot sits at or after row 0's t, so a halt that drops
        # row 0 drops them all: a run directory with an empty trace has no
        # snapshots, and analyze has nothing but the empty trace to read.
        spec, state = canonical_preset(48)

        def arclength(u, dsigma, parity):
            # A real overflow (13 * 3e307) in row 0's arclength column.
            row0 = (u == state.a).all(axis=-1, keepdims=True)
            return geo.cumulative_from_left(
                u * np.where(row0, 1e307, 1.0), dsigma, parity)

        monkeypatch.setattr(evo, "cumulative_from_left", arclength)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "flow": {"cells": 48, "t_end": 0.3, "snapshot_every": 1},
            "initial": {"preset": "canonical"}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert ("flow halted: floating-point overflow encountered in "
                "multiply at t = 0\n") in capsys.readouterr().err
        assert read_trace(out).rows == []
        assert list((out / "snapshots").iterdir()) == []
        assert main(["analyze", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "verdict: NoSingularity" in printed
        assert "degeneration case: Indeterminate" in printed
        assert "trace: empty" in printed and "residuals" not in printed

    @pytest.mark.parametrize("halt", ["residual", "underflow"])
    def test_halt_rows_are_filled(self, monkeypatch, halt):
        if halt == "residual":
            # Stages sized past the stability edge, as in TestResidualGate,
            # on steps small enough that the gate trips only after two
            # full blocks (at the default STEP_CAP it trips on row 12).
            monkeypatch.setattr(evo, "CFL_MAX", 0.5)
            monkeypatch.setattr(evo, "STEP_CAP", 40.0)
            spec, state = canonical_preset(80)
            cfg = FlowConfig(t_end=0.3)
            pattern = r"(kahler|heat)_res grew"
        else:
            # Far below the default floor the collapse outruns the step.
            spec, state = calabi_preset(32, f0=6.0)
            cfg = FlowConfig(t_end=1.0, stop_floor=1e-15)
            pattern = "time step underflow"
        bound = evo.MONITOR_BLOCK
        traces = []
        for block in (bound, 1):
            monkeypatch.setattr(evo, "MONITOR_BLOCK", block)
            with pytest.raises(FlowHalt, match=pattern) as info:
                run_flow(spec, state, cfg)
            traces.append(info.value.trace)
        batched, one_by_one = traces
        rows = np.asarray(batched.rows)
        # The halt row sits inside a block that had not reached its bound.
        assert rows.shape[0] > 2 * bound and rows.shape[0] % bound != 0
        assert f"at t = {rows[-1, 0]:.6g}" in str(info.value)
        assert np.isfinite(rows).all()
        assert np.array_equal(rows, one_by_one.rows)
        batched.validate()
        if halt == "residual":
            name = re.search(pattern, str(info.value)).group(0)[:-5]
            column = np.asarray(batched.column(name))
            assert column[-1] > evo.RESIDUAL_GROWTH_MAX * column[0]
        else:
            assert batched.column("dt")[-1] == 0.0


    def test_gate_halt_equals_row_by_row(self, monkeypatch):
        # Stages sized past the stability edge, one trace row in ten.  The
        # batched run steps on past the row that trips the gate, so its
        # later trace rows and snapshots must be dropped, and a later row
        # of the same block that overflows must not name the halt.
        monkeypatch.setattr(evo, "CFL_MAX", 0.5)
        spec, state = canonical_preset(80)
        cfg = FlowConfig(t_end=0.3, trace_every=10,
                         snapshot_every=3)
        bound, fill = evo.MONITOR_BLOCK, evo._monitor_block

        def halt(block):
            monkeypatch.setattr(evo, "MONITOR_BLOCK", block)
            with pytest.raises(FlowHalt, match=r"(kahler|heat)_res grew") \
                    as info:
                run_flow(spec, state, cfg)
            return info.value

        one_by_one = halt(1)
        t_trip = one_by_one.trace.column("t")[-1]
        later = []

        def poisoned(spec, block, dsigma):
            # Rows after the trip overflow in f_i^2, their first operation.
            later.extend(entry[0] for entry in block if entry[0] > t_trip)
            block = [entry[:2] + (entry[2] * 1e200,) + entry[3:]
                     if entry[0] > t_trip else entry for entry in block]
            return fill(spec, block, dsigma)

        monkeypatch.setattr(evo, "_monitor_block", poisoned)
        batched = halt(bound)
        assert later
        assert str(batched) == str(one_by_one)
        assert np.array_equal(batched.trace.rows, one_by_one.trace.rows)
        assert len(batched.snapshots) == len(one_by_one.snapshots) > 1
        for got, want in zip(batched.snapshots, one_by_one.snapshots):
            assert got.t == want.t
            for field in ("a", "h", "f"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field))
        assert batched.snapshots[-1].t < t_trip


TWO_FACTOR = geo.BundleSpec(n=(1, 1), k=(2.0, 1.0), q=(2, 1))


class TestMonitorColumns:
    """Every trace cell, the endpoint columns included, equals the geometry
    routines exactly."""

    @pytest.mark.parametrize("case", ["canonical", "two_factor"])
    def test_rows_match_recomputation_from_snapshots(self, case):
        if case == "canonical":
            spec, state = canonical_preset(32)
            regrid = 10.0
        else:
            spec = TWO_FACTOR
            state = build_kahler_profile(spec, math.pi, "sinusoidal",
                                         (2.0, 3.0), 32)
            # Just above 1: the gauge is resampled after every step, so the
            # rows also cover regridded states.
            regrid = 1.0 + 1e-12
        cfg = FlowConfig(t_end=0.1, trace_every=1,
                         snapshot_every=1, regrid_threshold=regrid)
        trace, snaps = run_flow(spec, state, cfg)
        assert len(snaps) == len(trace.rows) >= 5
        for row, snap in zip(trace.rows, snaps):
            jets = profile_jets(snap)
            fdot = flow_rhs(spec, snap)[2]
            f2 = snap.f * snap.f
            heat = np.abs(2.0 * snap.f * fdot - geo.laplacian_f2(spec, jets)
                          + 2.0 * spec.k)
            want = {"t": snap.t,
                    "kappa": geo.curvature_sup_proxy(spec, jets=jets),
                    "h_min": snap.h.min(), "h_max": snap.h.max(),
                    "kahler_res": geo.kahler_defect(spec, jets=jets).max(),
                    "heat_res": heat.max(),
                    "arclength": arclength(snap)[1]}
            for i in range(spec.r):
                want[f"f{i + 1}sq_min"] = f2[i].min()
                want[f"f{i + 1}sq_max"] = f2[i].max()
                want[f"grad_sup_{i + 1}"] = np.abs(
                    2.0 * snap.f[i] * jets.f_s[i]).max()
                want[f"f{i + 1}sq_left"], want[f"f{i + 1}sq_right"] = \
                    geo.endpoint_even(f2[i])
            got = dict(zip(trace.columns, row))
            assert set(got) == set(want) | {"dt"}
            for name, value in want.items():
                assert got[name] == value, name
            # The f_ss terms cancel, so heat_res is the Kahler defect times
            # |q_i h + 2 f_i f_i,s| / f_i^2: first order in that defect.
            closed = np.abs((spec.q * snap.h) ** 2
                            - (2.0 * snap.f * jets.f_s) ** 2) / f2
            assert got["heat_res"] == pytest.approx(closed.max(), abs=1e-12)
        t, dt = (np.asarray(trace.column(name)) for name in ("t", "dt"))
        assert np.array_equal(t[:-1] + dt[:-1], t[1:])
        assert dt[-1] == 0.0


class TestRegridGate:
    """A run that regrids still keeps the Kahler and boundary-slope laws."""

    def run(self, monkeypatch, regrid_threshold):
        # The two-factor template of the twofactor_64 benchmark workload.
        spec = geo.BundleSpec(n=(1, 1), k=(2.0, 1.0), q=(2, 1))
        state = build_kahler_profile(spec, math.pi, "sinusoidal",
                                     (2.0, 3.0), 64)
        calls = []

        def counted(st):
            calls.append(st.t)
            return regrid_uniform(st)

        monkeypatch.setattr(evo, "regrid_uniform", counted)
        cfg = FlowConfig(t_end=0.3,
                         regrid_threshold=regrid_threshold)
        trace, _ = run_flow(spec, state, cfg)
        return spec, trace, len(calls)

    def test_regridded_run_keeps_the_structural_laws(self, monkeypatch):
        spec, trace, regrids = self.run(monkeypatch, 1.05)
        _, plain, plain_regrids = self.run(monkeypatch, 10.0)
        assert regrids >= 1 and plain_regrids == 0
        kahler = max(trace.column("kahler_res"))
        assert kahler <= 1e-3
        assert kahler <= 2.0 * max(plain.column("kahler_res"))
        for slope in boundary_linear_check(spec, trace):
            assert slope.rel_error <= 0.01, slope

    def test_huge_threshold_never_regrids(self, monkeypatch):
        # threshold * min(a) overflows; the gate must read that as "no
        # regrid", not raise a warning or a floating-point halt.
        _, trace, regrids = self.run(monkeypatch, 1e308)
        assert regrids == 0 and len(trace.rows) > 1


class TestOneKernel:
    """Jets and right-hand sides come from the flow stage's own kernel."""

    @pytest.mark.parametrize("case", ["canonical", "two_factor"])
    def test_profile_jets_and_flow_rhs_equal_the_stage(self, case):
        if case == "canonical":
            spec, state = canonical_preset(32)
        else:
            spec = TWO_FACTOR
            state = build_kahler_profile(spec, math.pi, "sinusoidal",
                                         (2.0, 3.0), 32)
        # The end of a short run adds a nonuniform gauge a, so the chain
        # rule's a' term is exercised too.
        _, snaps = run_flow(spec, state, FlowConfig(t_end=0.05))
        assert np.ptp(snaps[-1].a) > 0.0
        for snap in (state, snaps[-1]):
            Y = np.vstack([snap.a, snap.h, snap.f])
            stencil = geo.Stencil(geo.field_parities(spec.r), snap.cells)
            ydot, (d1, d2), _ = _stage(Y, stencil,
                                       geo.RicciFeatures(spec, snap.cells),
                                       np.empty_like(Y))
            u_s, u_ss = geo.arclength_derivs(d1, d2, snap.a)
            jets = profile_jets(snap)
            assert np.array_equal(jets.h_s, u_s[1])
            assert np.array_equal(jets.h_ss, u_ss[1])
            assert np.array_equal(jets.f_s, u_s[2:])
            assert np.array_equal(jets.f_ss, u_ss[2:])
            adot, hdot, fdot = flow_rhs(spec, snap)
            assert np.array_equal(adot, ydot[0])
            assert np.array_equal(hdot, ydot[1])
            assert np.array_equal(fdot, ydot[2:])


def test_benchmark_hooks_see_every_stage(tmp_path):
    # perfbench/child.py counts and traces the flow through the module
    # attributes evolution._stage, _dt_bound, stacked_derivs and
    # _rhs_core; a stage or step that bypassed them would leave rhs_evals,
    # steps and the per-layer spans wrong without failing anything else.
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"flow": {"cells": 64, "t_end": 0.4},
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
    # The run traces every step and its final state, and the benchmark
    # counts steps through evolution._dt_bound, called once per step.
    trace_rows = len((tmp_path / "out" / "trace.csv").read_text()
                     .splitlines()) - 1
    assert doc["counts"]["steps"] == trace_rows - 1 > 0
    # The monitor probes, each directly under run_flow and called once per
    # flush of at most MONITOR_BLOCK rows.
    flushes = -(-trace_rows // evo.MONITOR_BLOCK)
    assert flushes > 1
    for probe in ("curvature_sup_proxy", "kahler_defect", "laplacian_f2",
                  "endpoint_even", "cumulative_from_left"):
        parents = [spans[parent][0] for name, parent in spans
                   if name == f"geometry.{probe}"]
        assert parents == ["evolution.run_flow"] * flushes, probe

