"""Singularity diagnostics on synthetic and short real traces."""

import math
import re

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.analysis import (FIBER_COLLAPSE, FULL_CONTRACTION,
                                 INDETERMINATE, NO_SINGULARITY,
                                 PARTIAL_CONTRACTION, TYPE_I, TYPE_II,
                                 FlowTrace, analyze_run, boundary_columns,
                                 classify_degeneration,
                                 classify_singularity_type,
                                 estimate_singular_time, schwarz_fit,
                                 trace_columns)
import bundleflow.evolution as evo
from bundleflow.evolution import FlowConfig, run_flow
from bundleflow.initial_data import (build_kahler_profile, calabi_preset,
                                     canonical_preset)
import reference as ref

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))


def make_trace(t, kappa=1.0, h_max=1.0, f1sq_min=4.0, f1sq_max=None,
               left=None, right=None):
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
        zeros, zeros, np.ones(n), np.full(n, math.pi), col(left, fmin),
        col(right, fmin)])
    trace = FlowTrace(r=1, rows=rows.tolist())
    trace.validate()
    return trace


def monitor_row(spec, state, name):
    """One column of the trace row that a zero-duration run records."""
    trace, _ = run_flow(spec, state, FlowConfig(t_end=0.0))
    return float(trace.column(name)[0])


class TestTraceContract:
    def test_column_orders(self):
        assert trace_columns(1) == [
            "t", "dt", "kappa", "h_min", "h_max", "f1sq_min", "f1sq_max",
            "kahler_res", "heat_res", "grad_sup_1", "arclength"]
        cols2 = trace_columns(2)
        assert len(cols2) == 14
        assert cols2[5:9] == ["f1sq_min", "f1sq_max", "f2sq_min", "f2sq_max"]
        assert cols2[-3:] == ["grad_sup_1", "grad_sup_2", "arclength"]
        assert boundary_columns(2) == [
            "t", "f1sq_left", "f1sq_right", "f2sq_left", "f2sq_right"]

    def test_validate_rejects_bad_shapes_and_order(self):
        trace = make_trace(np.linspace(0.0, 1.0, 5))
        bad = FlowTrace(r=1, rows=[row[:-1] for row in trace.rows])
        with pytest.raises(ValueError, match="column contract"):
            bad.validate()
        ragged = FlowTrace(r=1, rows=trace.rows[:2] + [trace.rows[2][:-1]])
        with pytest.raises(ValueError, match="column contract"):
            ragged.validate()
        rows = np.array(trace.rows)
        rows[2, 0] = rows[1, 0]
        with pytest.raises(ValueError, match="increasing"):
            FlowTrace(r=1, rows=rows.tolist()).validate()
        rows = np.array(trace.rows)
        rows[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FlowTrace(r=1, rows=rows.tolist()).validate()

    def test_validate_rejects_kappa_without_finite_reciprocal(self):
        # T_hat reads 1/kappa, which overflows below about 5.6e-309.
        tiny = np.finfo(float).tiny
        make_trace(np.linspace(0.0, 1.0, 5), kappa=tiny)
        trace = make_trace(np.linspace(0.0, 1.0, 5))
        rows = np.array(trace.rows)
        rows[3, trace.columns.index("kappa")] = 1e-320
        with pytest.raises(ValueError, match="trace column kappa must have "
                                             "a finite reciprocal"):
            FlowTrace(r=1, rows=rows.tolist()).validate()


class TestResiduals:
    def test_kahler_residual_on_compatible_data(self):
        spec, state = canonical_preset(400)
        assert geo.kahler_defect(spec, ref.profile_jets(state)).max() <= 1e-8

    def test_heat_residual_on_compatible_data(self):
        spec, state = canonical_preset(128)
        assert monitor_row(spec, state, "heat_res") <= 1e-5


class TestBoundaryCheck:
    def test_exact_synthetic_slopes(self):
        t = np.linspace(0.0, 0.5, 26)
        trace = make_trace(t, left=np.full(t.size, 3.0), right=6.0 - 8.0 * t)
        slopes = ref.boundary_linear_check(CANON, trace)
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
            ref.boundary_linear_check(CANON, trace)


class TestLiYau:
    def test_quantity_matches_closed_form(self):
        spec, state = canonical_preset(401)
        # 4 f_s^2 = 2 sin^2 s / (2 - cos s) equals 1 at the middle cell and
        # peaks at 8 - 4 sqrt(3) where cos s = 2 - sqrt(3).
        f_s = ref.profile_jets(state).f_s[0]
        assert 4.0 * f_s[200] ** 2 == pytest.approx(1.0, abs=1e-8)
        assert (4.0 * f_s * f_s).max() \
            == pytest.approx(8.0 - 4.0 * math.sqrt(3.0), abs=1e-4)


class TestSingularTime:
    # Uneven rows on [0, 0.49].  T_hat reads only kappa; for kappa =
    # C/(T - t) the reciprocal (T - t)/C is linear in t, so the secant of
    # the last two rows is exact.
    T_ROWS = np.sort(np.random.default_rng(3).uniform(0.0, 0.49, 40))
    # A kappa whose reciprocal is not linear, so T_hat is not 0.5.
    BENT = 1.0 / (0.5 - T_ROWS + 0.1 * (0.5 - T_ROWS) ** 2)

    def test_curvature_fallback(self):
        t = self.T_ROWS
        for T, C in ((0.5, 0.5), (0.5, 1.0), (0.75, 2.0), (3.0, 1e-3)):
            t_hat = estimate_singular_time(make_trace(t, kappa=C / (T - t)))
            assert isinstance(t_hat, float)
            assert t_hat == pytest.approx(T, rel=1e-12)

    def test_constant_trace_reports_none(self):
        t = np.linspace(0.0, 1.0, 20)
        assert estimate_singular_time(make_trace(t)) is None
        assert estimate_singular_time(make_trace(t, kappa=2.0 - t)) is None
        # Only the last two rows count: a kappa that rose and then fell.
        assert estimate_singular_time(
            make_trace(t, kappa=np.where(t < 1.0, 1.0 + t, 0.5))) is None
        assert estimate_singular_time(make_trace(np.array([0.0]))) is None

    def test_underflowing_increment_reports_none(self):
        # w falls from 1 to 1e-300, but the secant increment 1e-300 *
        # 1e-300 / 1 underflows to 0, which would put T_hat on the last
        # row; the report then reads no singularity at all.
        trace = make_trace([1e-300, 2e-300], kappa=[1.0, 1e300])
        assert estimate_singular_time(trace) is None
        report = analyze_run(trace, [1e-300, 2e-300], 1e-3)
        assert (report["T_hat"], report["verdict"],
                report["rescale_factors"]) == (None, NO_SINGULARITY, [])

    def test_time_translation_covariance(self):
        t, kappa = self.T_ROWS, self.BENT
        base = estimate_singular_time(make_trace(t, kappa=kappa))
        shifted = estimate_singular_time(make_trace(t + 2.0, kappa=kappa))
        assert shifted == pytest.approx(base + 2.0, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-3, 7.0, 1e4])
    def test_parabolic_rescaling(self, c):
        # t -> c t with kappa -> kappa / c, the flow's own rescaling.
        t, kappa = self.T_ROWS, self.BENT
        base = estimate_singular_time(make_trace(t, kappa=kappa))
        scaled = estimate_singular_time(make_trace(c * t, kappa=kappa / c))
        assert scaled == pytest.approx(c * base, rel=1e-12)


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

    def test_sparse_final_decade_falls_back_to_two_nearest_rows(self):
        # tau = 0.5, 0.1, 0.001: the final decade, tau <= 0.01, holds one
        # row, so the plateau compares the two rows nearest t_hat.
        trace = make_trace([0.0, 0.4, 0.499], kappa=[2.0, 10.0, 3000.0])
        sup, verdict, plateau, growth = classify_singularity_type(trace, 0.5)
        assert plateau == pytest.approx(3.0, rel=1e-9)
        assert verdict == TYPE_II
        assert sup == pytest.approx(3.0, rel=1e-9)
        assert growth == pytest.approx(3.0, rel=1e-9)

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
        assert classify_degeneration(trace, 1e-3) == FIBER_COLLAPSE

    def test_full_contraction(self):
        t = np.linspace(0.0, 0.5, 5)
        ends = np.linspace(4.0, 1e-3, 5)
        trace = make_trace(t, left=ends, right=ends, f1sq_min=ends)
        assert classify_degeneration(trace, 1e-3) == FULL_CONTRACTION

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
        rows = np.column_stack([
            rows, np.linspace(1.0, 1e-3, 3), np.full(3, 3.0),
            np.full(3, 2.0), np.full(3, 2.0)])
        trace = FlowTrace(r=2, rows=rows.tolist())
        assert classify_degeneration(trace, 1e-3) == PARTIAL_CONTRACTION

    def test_indeterminate_and_fallbacks(self):
        trace = make_trace(np.linspace(0.0, 0.5, 5))
        assert classify_degeneration(trace, 1e-3) == INDETERMINATE
        empty = FlowTrace(r=1, rows=[])
        assert classify_degeneration(empty, 1e-3) == INDETERMINATE


class TestReportReadsAgainstMasks:
    """The report's suffix-window and column-block reads give the mask,
    argsort and per-factor formulations of reference.py bit for bit on
    time-ordered traces, at every T_hat that estimate_singular_time can
    return: None, or a time past the last of at least two rows."""

    KINDS = ("none", "next", "singular", "beyond", "estimate")

    @staticmethod
    def _trace(rng):
        # Rows at t = 1 - tau on a log scale of tau, so 1 is the singular
        # time of kappa = C tau^-p; few rows leave wide gaps between them.
        r = int(rng.integers(1, 3))
        n = int(rng.integers(0, 41))
        cols = trace_columns(r) + boundary_columns(r)[1:]
        tau = np.sort(10.0 ** rng.uniform(-7.0, 0.0, n))[::-1]
        noise = rng.uniform(-0.5, 0.5, n) * rng.integers(0, 2)
        rows = np.ones((n, len(cols)))
        rows[:, cols.index("t")] = 1.0 - tau
        rows[:, cols.index("kappa")] = 10.0 ** rng.uniform(-1.0, 1.0) \
            * tau ** -rng.uniform(0.5, 2.0) * np.exp(noise)
        rows[:, cols.index("h_max")] = rng.choice([1e-4, 1.0])
        for name in cols[5:5 + 2 * r] + cols[-2 * r:]:
            rows[:, cols.index(name)] = rng.choice([1e-4, 1.0]) \
                * rng.uniform(0.5, 2.0, n)
        trace = FlowTrace(r=r, rows=rows.tolist())
        trace.validate()
        return trace

    @staticmethod
    def _t_hat(trace, kind, rng):
        t = trace.column("t")
        if kind == "none" or len(t) < 2:
            return None
        if kind == "estimate":
            return estimate_singular_time(trace)
        if kind == "next":
            # The nearest time past the last row: tau of one ulp there.
            return math.nextafter(t[-1], math.inf)
        if kind == "singular":
            return 1.0
        return 1.0 + rng.uniform(0.0, 1.0)

    def test_bit_identical_on_random_time_ordered_traces(self):
        rng = np.random.default_rng(29)
        seen = {"rows": set(), "r": set(), "sparse": 0, "verdicts": set(),
                "cases": set()}
        for _ in range(1500):
            trace = self._trace(rng)
            seen["rows"].add(len(trace.rows))
            seen["r"].add(trace.r)
            case = classify_degeneration(trace, 1e-3)
            assert case == ref.classify_degeneration_lists(trace, 1e-3)
            seen["cases"].add(case)
            # The precondition of the report's reads.
            estimate = estimate_singular_time(trace)
            assert estimate is None or estimate > trace.column("t")[-1]
            for kind in self.KINDS:
                t_hat = self._t_hat(trace, kind, rng)
                got = classify_singularity_type(trace, t_hat)
                want = ref.classify_singularity_type_masks(trace, t_hat)
                assert repr(got) == repr(want), (kind, t_hat, trace.rows)
                assert repr(schwarz_fit(trace, t_hat)) \
                    == repr(ref.schwarz_fit_loop(trace, t_hat))
                seen["verdicts"].add(got[1])
                if t_hat is not None:
                    tau = t_hat - np.asarray(trace.column("t"))
                    seen["sparse"] += (tau <= 10.0 * tau.min()).sum() < 2
        # Every row count, both r, all verdicts and labels, and a final
        # decade that holds one row were all exercised.
        assert seen["rows"] == set(range(41)) and seen["r"] == {1, 2}
        assert seen["verdicts"] == {TYPE_I, TYPE_II, NO_SINGULARITY}
        assert seen["cases"] == {FIBER_COLLAPSE, FULL_CONTRACTION,
                                 PARTIAL_CONTRACTION, INDETERMINATE}
        assert seen["sparse"] >= 100


class TestRescale:
    def test_curvature_and_gradient_laws(self):
        # Multiplying the metric by K sends (a, h, f) to sqrt(K) times
        # themselves: curvature divides by K, and sup |d(f^2)/ds| grows by
        # sqrt(K) since f_s is invariant.
        spec, state = canonical_preset(64)
        K = 3.7
        root = math.sqrt(K)
        zoom = geo.ProfileState(state.t, root * state.a, root * state.h,
                                root * state.f)
        base = geo.curvature_sup_proxy(spec, ref.profile_jets(state))
        assert geo.curvature_sup_proxy(spec, ref.profile_jets(zoom)) \
            == pytest.approx(base / K, rel=1e-10)
        assert monitor_row(spec, zoom, "grad_sup_1") \
            == pytest.approx(root * monitor_row(spec, state, "grad_sup_1"),
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
        rows = [0, 60, 119]
        report = analyze_run(trace, [float(t[i]) for i in rows],
                             stop_floor=1e-3)
        assert report["T_hat"] == pytest.approx(0.5, rel=1e-10)
        assert report["verdict"] == TYPE_I
        assert report["typeI_sup"] == pytest.approx(0.5, rel=1e-10)
        assert report["schwarz_C"] == pytest.approx(0.5 / 3.5, rel=1e-10)
        assert report["case"] == FIBER_COLLAPSE
        # Each factor is the kappa of its snapshot's own row.
        factors = report["rescale_factors"]
        kappa = trace.column("kappa")
        assert factors == [kappa[i] for i in rows]
        assert factors[0] == pytest.approx(1.0, rel=1e-12)
        assert factors[2] == pytest.approx(5e4, rel=1e-12)
        assert np.all(np.diff(factors) > 0.0)

    def test_snapshot_off_the_rows_is_refused(self):
        # The first time off the rows is named, also past T_hat.
        t, tau, trace = self._collapse_trace()
        off = float(0.5 * (t[3] + t[4]))
        for times, named in (([float(t[0]), off, 0.75], off),
                             ([float(t[0]), 0.75, off], 0.75)):
            with pytest.raises(ValueError, match=re.escape(
                    f"snapshot time {named!r} is not a trace row time")):
                analyze_run(trace, times, stop_floor=1e-3)

    def test_quiet_run_reports_no_singularity(self):
        trace = make_trace(np.linspace(0.0, 1.0, 30))
        report = analyze_run(trace, [], stop_floor=1e-3)
        assert report["T_hat"] is None
        assert report["verdict"] == NO_SINGULARITY
        assert report["schwarz_C"] is None
        assert report["case"] == INDETERMINATE
        assert report["rescale_factors"] == []


def deep_report(spec, state, stop_floor):
    """analyze_run's report on a run to stop_floor with a row every step."""
    cfg = FlowConfig(t_end=1.0, stop_floor=stop_floor,
                     trace_every=1, snapshot_every=10 ** 6)
    trace, snapshots = run_flow(spec, state, cfg)
    return analyze_run(trace, [s.t for s in snapshots], stop_floor)


class TestDeepRuns:
    """Kahler runs followed far into the singularity, which is Type I."""

    @pytest.mark.parametrize("setup", [
        lambda: canonical_preset(64),
        lambda: calabi_preset(48, n=2, k_lens=1, f0=6.0),
    ], ids=["canonical-64", "calabi-48"])
    def test_fiber_collapse_is_type_one_at_every_depth(self, setup):
        spec, state = setup()
        reports = [deep_report(spec, state, floor)
                   for floor in (1e-3, 1e-6, 1e-9)]
        assert [r["verdict"] for r in reports] == [TYPE_I] * 3
        assert [r["case"] for r in reports] == [FIBER_COLLAPSE] * 3
        t_hats = [r["T_hat"] for r in reports]
        assert max(t_hats) - min(t_hats) <= 1e-6, t_hats

    def test_section_root_the_run_has_passed(self, monkeypatch):
        # The left section of contract-64 reaches zero at t = 1/4; with the
        # residual gate off the run steps just past it before the floor.
        monkeypatch.setattr(evo, "RESIDUAL_GROWTH_MAX", 1e300)
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(1,))
        state = build_kahler_profile(spec, math.pi, "sinusoidal", (0.5,), 64)
        report = deep_report(spec, state, 1e-6)
        assert report["T_hat"] == pytest.approx(0.25, abs=1e-3)
        assert report["verdict"] == TYPE_I
        assert report["case"] == FULL_CONTRACTION
