"""Diagnostics on flow traces and snapshots.

Everything here is a pure function of recorded data: the trace column
contract, the check of the exact linear motion of the boundary values of
f_i^2, the Li-Yau gradient monitor, and the singularity toolbox
(singular-time estimation, Type I/II classification through the
scale-invariant quantity (T_hat - t) * kappa, Schwarz-type lower-bound
fitting, degeneration-case labeling, and the blow-up factor sequence).  The
residual columns of the trace are computed by evolution.run_flow.

Thresholds that calibrate verdicts (plateau factor, window decades, floor
multiple) are keyword parameters with documented defaults; finite runs
cannot observe a lim sup, so these are operational stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BundleSpec, endpoint_even

TYPE_I = "TypeI"
TYPE_II = "TypeII-suspect"
NO_SINGULARITY = "NoSingularity"

FIBER_COLLAPSE = "FiberCollapse"
FULL_CONTRACTION = "FullSectionContraction"
PARTIAL_CONTRACTION = "PartialContraction"
INDETERMINATE = "Indeterminate"

# Fits of "late" trace behavior use this trailing fraction of the time span.
LATE_FRACTION = 0.1


def trace_columns(r: int):
    """Fixed column order of trace rows for r base factors."""
    cols = ["t", "dt", "kappa", "h_min", "h_max"]
    for i in range(1, r + 1):
        cols += [f"f{i}sq_min", f"f{i}sq_max"]
    cols += ["kahler_res", "heat_res"]
    cols += [f"grad_sup_{i}" for i in range(1, r + 1)]
    cols += [f"liyau_sup_{i}" for i in range(1, r + 1)]
    cols.append("arclength")
    return cols


def boundary_columns(r: int):
    """Column order of the endpoint-value series."""
    cols = ["t"]
    for i in range(1, r + 1):
        cols += [f"f{i}sq_left", f"f{i}sq_right"]
    return cols


@dataclass
class FlowTrace:
    """Monitored scalar series of one run.

    ``rows`` has one line per recorded step with the columns of
    :func:`trace_columns`; ``boundary`` carries the extrapolated endpoint
    values of each f_i^2 against the same times.  h columns store h itself,
    f columns store f^2; gradient columns store sup |d(f^2)/ds|.
    """

    r: int
    rows: np.ndarray
    boundary: np.ndarray

    @property
    def columns(self):
        return trace_columns(self.r)

    @property
    def bcolumns(self):
        return boundary_columns(self.r)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def bcolumn(self, name: str) -> np.ndarray:
        return self.boundary[:, self.bcolumns.index(name)]

    def validate(self):
        """Raise ValueError on shape mismatch, non-finite data or t order."""
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError("trace rows do not match the column contract")
        if self.boundary.ndim != 2 \
                or self.boundary.shape[1] != len(self.bcolumns):
            raise ValueError("boundary rows do not match the column contract")
        if self.rows.shape[0] != self.boundary.shape[0]:
            raise ValueError("trace and boundary row counts differ")
        if not (np.isfinite(self.rows).all()
                and np.isfinite(self.boundary).all()):
            raise ValueError("trace contains non-finite entries")
        t = self.column("t")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("trace times must be strictly increasing")


@dataclass
class SingularTimeEstimate:
    """Consensus singular time with its two independent estimators.

    ``t_floor`` extrapolates the monitored floors (boundary f^2 laws, which
    are exactly linear, plus max h^2 and min f^2 late-window fits) to their
    first root; ``t_kappa`` extrapolates 1/kappa linearly.  The consensus
    prefers the floor value and falls back to the curvature fit.
    """

    t_hat: float
    t_floor: float
    t_kappa: float


@dataclass
class BoundarySlope:
    """Fitted against expected endpoint slope of one f_i^2 series."""

    factor: int
    side: str
    fitted: float
    expected: float
    error: float
    rel_error: float


@dataclass
class SingularityReport:
    """Aggregated singularity diagnostics of one run."""

    t_hat: float
    typei_sup: float
    verdict: str
    schwarz_c: float
    case: str
    rescale_factors: list = field(default_factory=list)
    t_floor: float = None
    t_kappa: float = None
    plateau_ratio: float = None
    growth_ratio: float = None


def boundary_linear_check(spec: BundleSpec, trace: FlowTrace):
    """Fit endpoint f_i^2 against t and compare with the exact linear law.

    The flow moves each boundary value of f_i^2 at the constant rate
    2 q_i - 2 k_i on the left end and -2 q_i - 2 k_i on the right.  Returns
    one BoundarySlope per factor and side; relative errors are normalized
    by 2(|q_i| + |k_i|), the natural scale of the two slopes.
    """
    if trace.boundary.shape[0] < 2:
        raise ValueError("need at least two trace rows to fit slopes")
    t = trace.bcolumn("t")
    out = []
    for i in range(1, trace.r + 1):
        q = spec.q[i - 1]
        k = spec.k[i - 1]
        scale = 2.0 * (abs(q) + abs(k))
        for side, expected in (("left", 2.0 * q - 2.0 * k),
                               ("right", -2.0 * q - 2.0 * k)):
            series = trace.bcolumn(f"f{i}sq_{side}")
            slope = float(np.polyfit(t, series, 1)[0])
            err = abs(slope - expected)
            out.append(BoundarySlope(
                factor=i, side=side, fitted=slope, expected=expected,
                error=err, rel_error=err / scale if scale > 0.0 else err))
    return out


def li_yau_monitor(trace: FlowTrace, c0: float = None):
    """Check sup Q_j along a trace against max(initial sup, c0).

    Returns (bound, list of times where some factor exceeds it).  With the
    default c0 = None the bound is just the initial sup, so the check is a
    pure monotonicity-style monitor; pass an explicit constant to allow a
    margin above the initial value.
    """
    if trace.rows.shape[0] == 0:
        return 0.0, []
    t = trace.column("t")
    sups = np.stack([trace.column(f"liyau_sup_{i}")
                     for i in range(1, trace.r + 1)])
    bound = float(sups[:, 0].max())
    if c0 is not None:
        bound = max(bound, float(c0))
    exceeded = np.flatnonzero((sups > bound * (1.0 + 1e-12)).any(axis=0))
    return bound, [float(t[j]) for j in exceeded]


def _late_mask(t: np.ndarray, fraction: float) -> np.ndarray:
    cut = t[-1] - fraction * (t[-1] - t[0])
    mask = t >= cut
    if mask.sum() < 2:
        mask = np.zeros_like(mask)
        mask[-2:] = True
    return mask


def _linear_root(t, y):
    """Root of the least-squares line through (t, y); None if not decaying.

    A series only counts as decaying when the fitted drop across the window
    is a meaningful fraction of the data scale; otherwise rounding noise on
    a flat series would extrapolate to an absurd faraway root.
    """
    slope, intercept = np.polyfit(t, y, 1)
    span = t[-1] - t[0]
    scale = max(float(np.abs(y).max()), 1e-300)
    if slope * span >= -1e-9 * scale:
        return None
    return float(-intercept / slope)


def estimate_singular_time(trace: FlowTrace) -> SingularTimeEstimate:
    """Extrapolate monitored decays to a singular-time estimate.

    Floor candidates: the boundary f_i^2 series fitted over the whole trace
    (their evolution is exactly linear), and late-window linear fits of
    max h^2 and each min f_i^2.  The earliest candidate root beyond the
    final trace time is t_floor.  Independently, 1/kappa is fitted late and
    its root gives t_kappa.  The consensus t_hat takes t_floor when
    available, else t_kappa, else None (no singularity indicated).
    """
    if trace.rows.shape[0] < 2:
        return SingularTimeEstimate(t_hat=None, t_floor=None, t_kappa=None)
    t = trace.column("t")
    t_last = t[-1]
    late = _late_mask(t, LATE_FRACTION)

    candidates = []
    for i in range(1, trace.r + 1):
        for side in ("left", "right"):
            root = _linear_root(t, trace.bcolumn(f"f{i}sq_{side}"))
            if root is not None and root > t_last:
                candidates.append(root)
        root = _linear_root(t[late], trace.column(f"f{i}sq_min")[late])
        if root is not None and root > t_last:
            candidates.append(root)
    h_sq = trace.column("h_max") ** 2
    root = _linear_root(t[late], h_sq[late])
    if root is not None and root > t_last:
        candidates.append(root)
    t_floor = min(candidates) if candidates else None

    t_kappa = None
    kappa = trace.column("kappa")
    if np.all(kappa > 0.0):
        root = _linear_root(t[late], 1.0 / kappa[late])
        if root is not None and root > t_last:
            t_kappa = root

    t_hat = t_floor if t_floor is not None else t_kappa
    return SingularTimeEstimate(t_hat=t_hat, t_floor=t_floor, t_kappa=t_kappa)


def classify_singularity_type(trace: FlowTrace, t_hat: float,
                              plateau_factor: float = 2.0,
                              decades: float = 2.0):
    """Type I/II verdict from the behavior of y = (t_hat - t) * kappa.

    The analysis window covers the final ``decades`` powers of ten of
    t_hat - t.  Verdict TypeI when y varies by less than plateau_factor
    across the final decade (a bounded, settled plateau), TypeII-suspect
    otherwise.  The endpoint growth ratio of y across the whole window is
    reported as supporting detail.

    Returns (typei_sup, verdict, plateau_ratio, growth_ratio).
    """
    if t_hat is None or trace.rows.shape[0] < 2:
        return None, NO_SINGULARITY, None, None
    t = trace.column("t")
    kappa = trace.column("kappa")
    tau = t_hat - t
    keep = tau > 0.0
    if keep.sum() < 2:
        return None, NO_SINGULARITY, None, None
    tau = tau[keep]
    y = (tau * kappa[keep])
    tau_min = tau.min()
    window = tau <= tau_min * 10.0 ** decades
    typei_sup = float(y[window].max())

    final_decade = tau <= tau_min * 10.0
    if final_decade.sum() < 2:
        final_decade = np.zeros_like(final_decade)
        final_decade[np.argsort(tau)[:2]] = True
    y_fin = y[final_decade]
    plateau_ratio = float(y_fin.max() / y_fin.min()) \
        if y_fin.min() > 0.0 else np.inf
    order = np.argsort(tau[window])
    y_ord = y[window][order]
    growth_ratio = float(y_ord[0] / y_ord[-1]) if y_ord[-1] > 0.0 else np.inf

    verdict = TYPE_I if plateau_ratio < plateau_factor else TYPE_II
    return typei_sup, verdict, plateau_ratio, float(growth_ratio)


def schwarz_fit(trace: FlowTrace, t_hat: float) -> float:
    """Smallest constant C with min f_j^2 >= (t_hat - t)/C on the trace.

    Computed as the max over factors and rows (with t < t_hat) of
    (t_hat - t) / min f_j^2; a finite positive C certifies the linear
    lower bound on the observed window.
    """
    if t_hat is None or trace.rows.shape[0] == 0:
        return None
    t = trace.column("t")
    keep = t < t_hat
    if not keep.any():
        return None
    best = 0.0
    for i in range(1, trace.r + 1):
        f2 = trace.column(f"f{i}sq_min")[keep]
        best = max(best, float(((t_hat - t[keep]) / f2).max()))
    return best


def classify_degeneration(snapshots, trace: FlowTrace, stop_floor: float,
                          floor_multiple: float = 10.0) -> str:
    """Label the degeneration pattern at the end of a run.

    A quantity counts as collapsed when it sits below floor_multiple *
    stop_floor at the final recorded time.  Fiber collapse: max h^2
    collapsed with every min f_i^2 comfortably above.  Section contraction:
    at one endpoint all (full) or some but not all (partial) of the f_i^2
    collapsed while the fiber stays noncollapsed.  Anything else is
    Indeterminate.
    """
    level = floor_multiple * stop_floor
    if trace.rows.shape[0] > 0:
        h2_max = float(trace.column("h_max")[-1]) ** 2
        f2_min = np.array([trace.column(f"f{i}sq_min")[-1]
                           for i in range(1, trace.r + 1)])
        ends = {side: np.array([trace.bcolumn(f"f{i}sq_{side}")[-1]
                                for i in range(1, trace.r + 1)])
                for side in ("left", "right")}
    elif snapshots:
        final = snapshots[-1]
        f2 = final.f ** 2
        h2_max = float((final.h ** 2).max())
        f2_min = f2.min(axis=1)
        ends = dict(zip(("left", "right"), endpoint_even(f2)))
    else:
        return INDETERMINATE

    if h2_max < level and np.all(f2_min > level):
        return FIBER_COLLAPSE
    for side in ("left", "right"):
        collapsed = ends[side] < level
        if collapsed.all() and h2_max > level:
            return FULL_CONTRACTION
        if collapsed.any() and not collapsed.all():
            return PARTIAL_CONTRACTION
    return INDETERMINATE


def analyze_run(trace: FlowTrace, snapshots, stop_floor: float,
                plateau_factor: float = 2.0, decades: float = 2.0,
                floor_multiple: float = 10.0) -> SingularityReport:
    """Full singularity report for one finished run.

    Combines the singular-time estimate, the Type I/II verdict, the Schwarz
    constant, the degeneration label, and the blow-up factor sequence
    K_i = kappa(t_i) at the snapshot times before t_hat.
    """
    est = estimate_singular_time(trace)
    typei_sup, verdict, plateau_ratio, growth_ratio = \
        classify_singularity_type(trace, est.t_hat,
                                  plateau_factor=plateau_factor,
                                  decades=decades)
    schwarz_c = schwarz_fit(trace, est.t_hat)
    case = classify_degeneration(snapshots, trace, stop_floor,
                                 floor_multiple=floor_multiple)
    rescale = []
    if est.t_hat is not None and trace.rows.shape[0] > 1:
        t = trace.column("t")
        kappa = trace.column("kappa")
        for snap in snapshots:
            if snap.t < est.t_hat:
                rescale.append(float(np.interp(snap.t, t, kappa)))
    return SingularityReport(
        t_hat=est.t_hat, typei_sup=typei_sup, verdict=verdict,
        schwarz_c=schwarz_c, case=case, rescale_factors=rescale,
        t_floor=est.t_floor, t_kappa=est.t_kappa,
        plateau_ratio=plateau_ratio, growth_ratio=growth_ratio)
