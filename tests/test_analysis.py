"""Singularity diagnostics on synthetic and short real traces."""

import dataclasses
import math

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.analysis import (FIBER_COLLAPSE, FULL_CONTRACTION,
                                 INDETERMINATE, NO_SINGULARITY,
                                 PARTIAL_CONTRACTION, TYPE_I, TYPE_II,
                                 FlowTrace, analyze_run,
                                 boundary_linear_check, boundary_columns,
                                 classify_degeneration,
                                 classify_singularity_type,
                                 estimate_singular_time, li_yau_monitor,
                                 schwarz_fit, trace_columns)
from bundleflow.evolution import FlowConfig, run_flow
from bundleflow.initial_data import canonical_preset

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))


def make_trace(t, kappa=1.0, h_max=1.0, f1sq_min=4.0, f1sq_max=None,
               left=None, right=None, liyau=1.0):
    """Single-factor trace with the given series; scalars broadcast."""
    t = np.asarray(t, float)
    n = t.size

    def col(v, fallback=None):
        if v is None:
            v = fallback
        v = np.asarray(v, float)
        return np.full(n, float(v)) if v.ndim == 0 else v.astype(float)

    kappa = col(kappa)
    h_max = col(h_max)
    fmin = col(f1sq_min)
    fmax = col(f1sq_max, fmin + 1.0)
    zeros = np.zeros(n)
    rows = np.column_stack([
        t, zeros, kappa, 0.5 * h_max, h_max, fmin, fmax,
        zeros, zeros, np.ones(n), col(liyau), np.full(n, math.pi)])
    boundary = np.column_stack([t, col(left, fmin), col(right, fmin)])
    trace = FlowTrace(r=1, rows=rows, boundary=boundary)
    trace.validate()
    return trace


def monitor_row(spec, state, name):
    """One column of the trace row that a zero-duration run records."""
    trace, _ = run_flow(spec, state, FlowConfig(cells=state.cells, t_end=0.0))
    return float(trace.column(name)[0])


class TestTraceContract:
    def test_column_orders(self):
        assert trace_columns(1) == [
            "t", "dt", "kappa", "h_min", "h_max", "f1sq_min", "f1sq_max",
            "kahler_res", "heat_res", "grad_sup_1", "liyau_sup_1",
            "arclength"]
        cols2 = trace_columns(2)
        assert len(cols2) == 16
        assert cols2[5:9] == ["f1sq_min", "f1sq_max", "f2sq_min", "f2sq_max"]
        assert cols2[-5:] == ["grad_sup_1", "grad_sup_2", "liyau_sup_1",
                              "liyau_sup_2", "arclength"]
        assert boundary_columns(2) == [
            "t", "f1sq_left", "f1sq_right", "f2sq_left", "f2sq_right"]

    def test_validate_rejects_bad_shapes_and_order(self):
        trace = make_trace(np.linspace(0.0, 1.0, 5))
        bad = FlowTrace(r=1, rows=trace.rows[:, :-1], boundary=trace.boundary)
        with pytest.raises(ValueError, match="column contract"):
            bad.validate()
        rows = trace.rows.copy()
        rows[2, 0] = rows[1, 0]
        with pytest.raises(ValueError, match="increasing"):
            FlowTrace(r=1, rows=rows, boundary=trace.boundary).validate()
        rows = trace.rows.copy()
        rows[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FlowTrace(r=1, rows=rows, boundary=trace.boundary).validate()
        with pytest.raises(ValueError, match="row counts"):
            FlowTrace(r=1, rows=trace.rows,
                      boundary=trace.boundary[:-1]).validate()


class TestResiduals:
    def test_kahler_residual_on_compatible_data(self):
        spec, state = canonical_preset(400)
        assert geo.kahler_defect(spec, geo.profile_jets(state)).max() <= 1e-8

    def test_heat_residual_on_compatible_data(self):
        spec, state = canonical_preset(128)
        assert monitor_row(spec, state, "heat_res") <= 1e-5


class TestBoundaryCheck:
    def test_exact_synthetic_slopes(self):
        t = np.linspace(0.0, 0.5, 26)
        trace = make_trace(t, left=np.full(t.size, 3.0), right=6.0 - 8.0 * t)
        slopes = boundary_linear_check(CANON, trace)
        assert len(slopes) == 2
        by_side = {s.side: s for s in slopes}
        assert by_side["left"].expected == 0.0
        assert by_side["left"].fitted == pytest.approx(0.0, abs=1e-12)
        assert by_side["right"].expected == -8.0
        assert by_side["right"].fitted == pytest.approx(-8.0, rel=1e-12)
        assert by_side["right"].rel_error <= 1e-12

    def test_needs_two_rows(self):
        trace = make_trace(np.array([0.0]))
        with pytest.raises(ValueError, match="two trace rows"):
            boundary_linear_check(CANON, trace)


class TestLiYau:
    def test_quantity_matches_closed_form(self):
        spec, state = canonical_preset(401)
        # 4 f_s^2 = 2 sin^2 s / (2 - cos s) equals 1 at the middle cell and
        # peaks at 8 - 4 sqrt(3) where cos s = 2 - sqrt(3).
        f_s = geo.profile_jets(state).f_s[0]
        assert 4.0 * f_s[200] ** 2 == pytest.approx(1.0, abs=1e-8)
        assert monitor_row(spec, state, "liyau_sup_1") \
            == pytest.approx(8.0 - 4.0 * math.sqrt(3.0), abs=1e-4)

    def test_monitor_flags_excursions(self):
        t = np.array([0.0, 1.0, 2.0])
        bound, exceeded = li_yau_monitor(make_trace(t, liyau=[1.0, 0.9, 0.8]))
        assert bound == 1.0 and exceeded == []
        bound, exceeded = li_yau_monitor(make_trace(t, liyau=[1.0, 1.2, 0.8]))
        assert exceeded == [1.0]
        bound, exceeded = li_yau_monitor(
            make_trace(t, liyau=[1.0, 1.2, 0.8]), c0=2.0)
        assert bound == 2.0 and exceeded == []


class TestSingularTime:
    def test_linear_boundary_floor(self):
        t = np.linspace(0.0, 0.5, 51)
        est = estimate_singular_time(make_trace(t, left=6.0 - 8.0 * t))
        assert est.t_hat == pytest.approx(0.75, rel=1e-12)
        assert est.t_floor == est.t_hat
        assert est.t_kappa is None

    def test_curvature_fallback(self):
        t = np.linspace(0.0, 0.4, 81)
        est = estimate_singular_time(make_trace(t, kappa=1.0 / (0.5 - t)))
        assert est.t_hat == est.t_kappa
        assert est.t_hat == pytest.approx(0.5, rel=1e-10)
        assert est.t_floor is None

    def test_earliest_floor_wins(self):
        t = np.linspace(0.0, 0.5, 51)
        trace = make_trace(t, left=6.0 - 8.0 * t, f1sq_min=1.0 - t,
                           kappa=1.0 / (0.9 - t))
        est = estimate_singular_time(trace)
        assert est.t_hat == pytest.approx(0.75, rel=1e-10)
        assert est.t_kappa == pytest.approx(0.9, rel=1e-8)
        assert est.t_hat == est.t_floor

    def test_roots_inside_window_are_ignored(self):
        t = np.linspace(0.0, 0.5, 51)
        est = estimate_singular_time(make_trace(t, left=0.8 - 2.0 * t))
        assert est.t_hat is None
        assert est.t_floor is None and est.t_kappa is None

    def test_constant_trace_reports_none(self):
        est = estimate_singular_time(make_trace(np.linspace(0.0, 1.0, 20)))
        assert est.t_hat is None and est.t_floor is None \
            and est.t_kappa is None
        est = estimate_singular_time(make_trace(np.array([0.0])))
        assert est.t_hat is None and est.t_floor is None \
            and est.t_kappa is None

    def test_time_translation_covariance(self):
        t = np.linspace(0.0, 0.5, 51)
        series = 6.0 - 8.0 * t
        base = estimate_singular_time(make_trace(t, left=series))
        shifted = estimate_singular_time(make_trace(t + 2.0, left=series))
        assert shifted.t_hat == pytest.approx(base.t_hat + 2.0, rel=1e-10)


class TestClassifier:
    def _tau_trace(self, power):
        tau = np.logspace(-6.0, -1.0, 200)
        t = (0.5 - tau)[::-1]
        kappa = (0.5 - t) ** (-power)
        return make_trace(t, kappa=kappa)

    def test_bounded_rescaled_curvature_is_type_one(self):
        trace = self._tau_trace(1.0)
        sup, verdict, plateau, growth = classify_singularity_type(trace, 0.5)
        assert verdict == TYPE_I
        assert sup == pytest.approx(1.0, rel=1e-10)
        assert plateau == pytest.approx(1.0, rel=1e-10)

    def test_unbounded_growth_is_type_two_suspect(self):
        trace = self._tau_trace(1.5)
        sup, verdict, plateau, growth = classify_singularity_type(trace, 0.5)
        assert verdict == TYPE_II
        # y = tau^(-1/2): about sqrt(10) across the final decade and about
        # 10 across the two-decade window, up to log-grid snapping.
        assert plateau == pytest.approx(math.sqrt(10.0), rel=5e-2)
        assert growth == pytest.approx(10.0, rel=5e-2)
        assert sup == pytest.approx(1e3, rel=1e-2)

    def test_no_estimate_gives_no_verdict(self):
        trace = make_trace(np.linspace(0.0, 1.0, 10))
        sup, verdict, plateau, growth = classify_singularity_type(trace, None)
        assert verdict == NO_SINGULARITY
        assert sup is None and plateau is None and growth is None


class TestSchwarz:
    def test_exact_linear_profile(self):
        t = np.linspace(0.0, 0.9, 90)
        trace = make_trace(t, f1sq_min=(1.0 - t) / 3.0)
        assert schwarz_fit(trace, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_constant_profile(self):
        t = np.linspace(0.0, 0.9, 90)
        trace = make_trace(t, f1sq_min=2.0)
        assert schwarz_fit(trace, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_without_estimate(self):
        trace = make_trace(np.linspace(0.0, 0.9, 10))
        assert schwarz_fit(trace, None) is None


class TestDegeneration:
    def test_fiber_collapse(self):
        t = np.linspace(0.0, 0.5, 5)
        trace = make_trace(t, h_max=np.linspace(1.0, 1e-2, 5), f1sq_min=3.0)
        assert classify_degeneration([], trace, 1e-3) == FIBER_COLLAPSE

    def test_full_contraction(self):
        t = np.linspace(0.0, 0.5, 5)
        ends = np.linspace(4.0, 1e-3, 5)
        trace = make_trace(t, left=ends, right=ends, f1sq_min=ends)
        assert classify_degeneration([], trace, 1e-3) == FULL_CONTRACTION

    def test_partial_contraction_two_factors(self):
        cols = trace_columns(2)
        t = np.array([0.0, 0.1, 0.2])
        rows = np.zeros((3, len(cols)))
        rows[:, cols.index("t")] = t
        rows[:, cols.index("h_max")] = 0.9
        rows[:, cols.index("f1sq_min")] = np.linspace(1.0, 1e-3, 3)
        rows[:, cols.index("f2sq_min")] = 2.0
        rows[:, cols.index("f1sq_max")] = 3.0
        rows[:, cols.index("f2sq_max")] = 3.0
        boundary = np.column_stack([
            t, np.linspace(1.0, 1e-3, 3), np.full(3, 3.0),
            np.full(3, 2.0), np.full(3, 2.0)])
        trace = FlowTrace(r=2, rows=rows, boundary=boundary)
        assert classify_degeneration([], trace, 1e-3) == PARTIAL_CONTRACTION

    def test_indeterminate_and_fallbacks(self):
        trace = make_trace(np.linspace(0.0, 0.5, 5))
        assert classify_degeneration([], trace, 1e-3) == INDETERMINATE
        empty = FlowTrace(r=1, rows=np.zeros((0, 12)),
                          boundary=np.zeros((0, 3)))
        assert classify_degeneration([], empty, 1e-3) == INDETERMINATE
        # With no rows the final snapshot decides.
        spec, state = canonical_preset(32)
        tiny = dataclasses.replace(state, h=1e-3 * state.h)
        assert classify_degeneration([tiny], empty, 1e-3) == FIBER_COLLAPSE


class TestRescale:
    def test_curvature_and_gradient_laws(self):
        # Multiplying the metric by K sends (a, h, f) to sqrt(K) times
        # themselves: curvature divides by K, the Li-Yau sup is invariant.
        spec, state = canonical_preset(64)
        K = 3.7
        root = math.sqrt(K)
        zoom = dataclasses.replace(state, a=root * state.a, h=root * state.h,
                                   f=root * state.f)
        base = geo.curvature_sup_proxy(spec, geo.profile_jets(state))
        assert geo.curvature_sup_proxy(spec, geo.profile_jets(zoom)) \
            == pytest.approx(base / K, rel=1e-10)
        assert monitor_row(spec, zoom, "liyau_sup_1") \
            == pytest.approx(monitor_row(spec, state, "liyau_sup_1"),
                             rel=1e-12)


class TestAnalyzeRun:
    def _collapse_trace(self):
        tau = np.logspace(np.log10(0.5), -5.0, 120)
        t = 0.5 - tau
        return t, tau, make_trace(
            t, kappa=1.0 / (2.0 * tau), h_max=np.sqrt(2.0 * tau),
            f1sq_min=3.0 + tau, left=6.0 - 6.0 * t, right=8.0 - 10.0 * t)

    def test_self_similar_collapse_report(self):
        t, tau, trace = self._collapse_trace()
        spec, proto = canonical_preset(16)
        snaps = [dataclasses.replace(proto, t=tv) for tv in (0.0, 0.3, 0.499)]
        report = analyze_run(trace, snaps, stop_floor=1e-3)
        assert report.t_hat == pytest.approx(0.5, rel=1e-10)
        assert report.t_floor == pytest.approx(0.5, rel=1e-10)
        assert report.t_kappa == pytest.approx(0.5, rel=1e-10)
        assert report.verdict == TYPE_I
        assert report.typei_sup == pytest.approx(0.5, rel=1e-10)
        assert report.schwarz_c == pytest.approx(0.5 / 3.5, rel=1e-10)
        assert report.case == FIBER_COLLAPSE
        assert len(report.rescale_factors) == 3
        assert report.rescale_factors[0] == pytest.approx(1.0, rel=1e-6)
        assert report.rescale_factors[1] == pytest.approx(2.5, rel=5e-2)
        assert report.rescale_factors[2] == pytest.approx(500.0, rel=5e-2)
        assert np.all(np.diff(report.rescale_factors) > 0.0)

    def test_quiet_run_reports_no_singularity(self):
        trace = make_trace(np.linspace(0.0, 1.0, 30))
        report = analyze_run(trace, [], stop_floor=1e-3)
        assert report.t_hat is None
        assert report.verdict == NO_SINGULARITY
        assert report.schwarz_c is None
        assert report.case == INDETERMINATE
        assert report.rescale_factors == []
