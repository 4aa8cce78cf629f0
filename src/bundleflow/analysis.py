"""Diagnostics on flow traces and snapshots.

Everything here is a pure function of recorded data: the trace column
contract and the singularity toolbox (singular-time estimation, Type I/II
classification through the scale-invariant quantity (T_hat - t) * kappa,
Schwarz-type lower-bound fitting, degeneration-case labeling, and the
blow-up factor sequence).
analyze_run combines them into the mapping that a run directory stores as
report.json.  The residual columns of the trace are computed by
evolution.run_flow.

A finite run cannot observe a lim sup, so the verdicts rest on three fixed
thresholds, the module constants PLATEAU_FACTOR, WINDOW_DECADES and
FLOOR_MULTIPLE.  They are operational stand-ins, calibrated at exactly
these values by the synthetic Type I/II models of the acceptance suite.
"""

import numpy as np

TYPE_I = "TypeI"
TYPE_II = "TypeII-suspect"
NO_SINGULARITY = "NoSingularity"

FIBER_COLLAPSE = "FiberCollapse"
FULL_CONTRACTION = "FullSectionContraction"
PARTIAL_CONTRACTION = "PartialContraction"
INDETERMINATE = "Indeterminate"

# Fits of "late" trace behavior use this trailing fraction of the time span.
LATE_FRACTION = 0.1
# TypeI when (T_hat - t) kappa varies by less than this factor across the
# final decade of T_hat - t.
PLATEAU_FACTOR = 2.0
# typeI_sup and growth_ratio are taken over the final WINDOW_DECADES
# powers of ten of T_hat - t.
WINDOW_DECADES = 2.0
# A quantity below FLOOR_MULTIPLE * stop_floor at the end of a run counts
# as collapsed in the degeneration label.
FLOOR_MULTIPLE = 10.0


def trace_columns(r: int):
    """Fixed column order of trace rows for r base factors."""
    cols = ["t", "dt", "kappa", "h_min", "h_max"]
    for i in range(1, r + 1):
        cols += [f"f{i}sq_min", f"f{i}sq_max"]
    cols += ["kahler_res", "heat_res"]
    cols += [f"grad_sup_{i}" for i in range(1, r + 1)]
    cols.append("arclength")
    return cols


def boundary_columns(r: int):
    """Column order of the endpoint-value series."""
    cols = ["t"]
    for i in range(1, r + 1):
        cols += [f"f{i}sq_left", f"f{i}sq_right"]
    return cols


class FlowTrace:
    """Monitored scalar series of one run.

    ``rows`` has one line per recorded step with the columns of
    :func:`trace_columns`; ``boundary`` carries the extrapolated endpoint
    values of each f_i^2 against the same times.  h columns store h itself,
    f columns store f^2 and ``grad_sup_i`` stores sup |d(f_i^2)/ds|.
    """

    def __init__(self, r, rows, boundary):
        self.r, self.rows, self.boundary = r, rows, boundary

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
        """Raise ValueError on a malformed trace.

        Malformed: shape mismatch, non-finite data, t order, or a kappa or
        f_i^2 bound that is not positive (the fits divide by them).
        """
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
        positive = ["kappa"] + [f"f{i}sq_{end}" for i in range(1, self.r + 1)
                                for end in ("min", "max")]
        for name in positive:
            if not np.all(self.column(name) > 0.0):
                raise ValueError(f"trace column {name} must be positive")
        t = self.column("t")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("trace times must be strictly increasing")


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


def estimate_singular_time(trace: FlowTrace):
    """Extrapolate monitored decays to a singular-time estimate.

    Floor candidates: the boundary f_i^2 series fitted over the whole trace
    (their evolution is exactly linear), and late-window linear fits of
    max h^2 and each min f_i^2.  The earliest candidate root beyond the
    final trace time is t_floor.  Independently, 1/kappa is fitted late and
    its root gives t_kappa.  The consensus t_hat takes t_floor when
    available, else t_kappa, else None (no singularity indicated).

    Returns (t_hat, t_floor, t_kappa).
    """
    if trace.rows.shape[0] < 2:
        return None, None, None
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
    return t_hat, t_floor, t_kappa


def classify_singularity_type(trace: FlowTrace, t_hat: float):
    """Type I/II verdict from the behavior of y = (t_hat - t) * kappa.

    The analysis window covers the final WINDOW_DECADES powers of ten of
    t_hat - t.  Verdict TypeI when y varies by less than PLATEAU_FACTOR
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
    window = tau <= tau_min * 10.0 ** WINDOW_DECADES
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

    verdict = TYPE_I if plateau_ratio < PLATEAU_FACTOR else TYPE_II
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


def classify_degeneration(trace: FlowTrace, stop_floor: float) -> str:
    """Label the degeneration pattern at the end of a run.

    A quantity counts as collapsed when it sits below FLOOR_MULTIPLE *
    stop_floor in the last trace row.  Fiber collapse: max h^2 collapsed
    with every min f_i^2 comfortably above.  Section contraction: at one
    endpoint all (full) or some but not all (partial) of the f_i^2
    collapsed while the fiber stays noncollapsed.  Anything else, and an
    empty trace, is Indeterminate.
    """
    if trace.rows.shape[0] == 0:
        return INDETERMINATE
    level = FLOOR_MULTIPLE * stop_floor
    h2_max = float(trace.column("h_max")[-1]) ** 2
    f2_min = np.array([trace.column(f"f{i}sq_min")[-1]
                       for i in range(1, trace.r + 1)])
    ends = {side: np.array([trace.bcolumn(f"f{i}sq_{side}")[-1]
                            for i in range(1, trace.r + 1)])
            for side in ("left", "right")}

    if h2_max < level and np.all(f2_min > level):
        return FIBER_COLLAPSE
    for side in ("left", "right"):
        collapsed = ends[side] < level
        if collapsed.all() and h2_max > level:
            return FULL_CONTRACTION
        if collapsed.any() and not collapsed.all():
            return PARTIAL_CONTRACTION
    return INDETERMINATE


def analyze_run(trace: FlowTrace, snapshot_times, stop_floor: float) -> dict:
    """Full singularity report for one finished run, as stored in report.json.

    Combines the singular-time estimate (T_hat, with its two estimators
    t_floor and t_kappa), the Type I/II verdict, the Schwarz constant, the
    degeneration label, and the blow-up factor sequence K_i = kappa(t_i) at
    the snapshot times t_i before T_hat.  A diagnostic that does not apply
    to the run is None.
    """
    t_hat, t_floor, t_kappa = estimate_singular_time(trace)
    typei_sup, verdict, plateau_ratio, growth_ratio = \
        classify_singularity_type(trace, t_hat)
    rescale = []
    if t_hat is not None and trace.rows.shape[0] > 1:
        t = trace.column("t")
        kappa = trace.column("kappa")
        rescale = [float(np.interp(ts, t, kappa)) for ts in snapshot_times
                   if ts < t_hat]
    return {
        "T_hat": t_hat,
        "typeI_sup": typei_sup,
        "verdict": verdict,
        "schwarz_C": schwarz_fit(trace, t_hat),
        "case": classify_degeneration(trace, stop_floor),
        "rescale_factors": rescale,
        "t_floor": t_floor,
        "t_kappa": t_kappa,
        "plateau_ratio": plateau_ratio,
        "growth_ratio": growth_ratio,
    }
