"""Diagnostics on flow traces and snapshots.

Everything here is a pure function of recorded data: the column contracts
of trace.csv and boundary.csv, the one time-ordered table of FlowTrace that
holds both, and the singularity toolbox (the singular time T_hat read off
the last two trace rows of 1/kappa, Type I/II classification through the
scale-invariant quantity (T_hat - t) * kappa, Schwarz-type lower-bound
fitting, degeneration-case labeling, and the blow-up factor sequence).
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
    """Monitored scalar series of one run, in one time-ordered table.

    ``rows`` has one line per recorded step.  Its columns are those of
    :func:`trace_columns` followed by the endpoint columns of
    :func:`boundary_columns` (all but its ``t``), the extrapolated endpoint
    values of each f_i^2; the two functions are the contracts of trace.csv
    and boundary.csv.  h columns store h itself, f columns store f^2 and
    ``grad_sup_i`` stores sup |d(f_i^2)/ds|.
    """

    def __init__(self, r, rows):
        self.r, self.rows = r, rows
        self.columns = trace_columns(r) + boundary_columns(r)[1:]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def validate(self):
        """Raise ValueError on a malformed trace.

        Malformed: shape mismatch, non-finite data, t order, a kappa or
        f_i^2 bound that is not positive (the analysis divides by them), or
        a kappa whose reciprocal overflows (T_hat reads 1/kappa).
        """
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError("trace rows do not match the column contract")
        if not np.isfinite(self.rows).all():
            raise ValueError("trace contains non-finite entries")
        positive = ["kappa"] + [f"f{i}sq_{end}" for i in range(1, self.r + 1)
                                for end in ("min", "max")]
        for name in positive:
            if not np.all(self.column(name) > 0.0):
                raise ValueError(f"trace column {name} must be positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(1.0 / self.column("kappa")).all():
                raise ValueError("trace column kappa must have a finite "
                                 "reciprocal")
        t = self.column("t")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("trace times must be strictly increasing")


def estimate_singular_time(trace: FlowTrace):
    """Singular time from the secant of w = 1/kappa through the last two rows.

    At the Type I rate kappa ~ C/(T - t), w is linear in t, so its zero

        T_hat = t_n + w_n (t_n - t_{n-1}) / (w_{n-1} - w_n)

    is exact with no fit.  Returns T_hat when the trace has two rows and w
    falls across the last two (so T_hat lies beyond the last row), else
    None (no singularity indicated).
    """
    if trace.rows.shape[0] < 2:
        return None
    t = trace.column("t")[-2:]
    w = 1.0 / trace.column("kappa")[-2:]
    if not w[1] < w[0]:
        return None
    return float(t[1] + w[1] * (t[1] - t[0]) / (w[0] - w[1]))


def classify_singularity_type(trace: FlowTrace, t_hat: float):
    """Type I/II verdict from the behavior of y = (t_hat - t) * kappa.

    The analysis window covers the final WINDOW_DECADES powers of ten of
    t_hat - t.  Verdict TypeI when y varies by less than PLATEAU_FACTOR
    across the final decade (a bounded, settled plateau), or across the
    last two rows when the final decade holds fewer, TypeII-suspect
    otherwise.  The endpoint growth ratio of y across the whole window is
    reported as supporting detail.  The rows before t_hat are a prefix of
    the time-ordered trace, and on it t_hat - t decreases, so the window
    and the final decade are suffixes of that prefix.

    Returns (typei_sup, verdict, plateau_ratio, growth_ratio).
    """
    if t_hat is None:
        return None, NO_SINGULARITY, None, None
    t = trace.column("t")
    n = int(np.searchsorted(t, t_hat))
    if n < 2:
        return None, NO_SINGULARITY, None, None
    tau = t_hat - t[:n]
    y = tau * trace.column("kappa")[:n]
    window = y[np.argmax(tau <= tau[-1] * 10.0 ** WINDOW_DECADES):]
    final = y[min(np.argmax(tau <= tau[-1] * 10.0), n - 2):]
    typei_sup = float(window.max())
    plateau_ratio = float(final.max() / final.min()) \
        if final.min() > 0.0 else np.inf
    growth_ratio = float(window[-1] / window[0]) \
        if window[0] > 0.0 else np.inf
    verdict = TYPE_I if plateau_ratio < PLATEAU_FACTOR else TYPE_II
    return typei_sup, verdict, plateau_ratio, growth_ratio


def schwarz_fit(trace: FlowTrace, t_hat: float) -> float:
    """Smallest constant C with min f_j^2 >= (t_hat - t)/C on the trace.

    Computed as the max over factors and rows (with t < t_hat) of
    (t_hat - t) / min f_j^2; a finite positive C certifies the linear
    lower bound on the observed window.
    """
    if t_hat is None:
        return None
    t = trace.column("t")
    n = int(np.searchsorted(t, t_hat))
    if n == 0:
        return None
    lo = trace.columns.index("f1sq_min")
    f2_min = trace.rows[:n, lo:lo + 2 * trace.r:2]
    return float(((t_hat - t[:n])[:, None] / f2_min).max())


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
    last = trace.rows[-1]
    col = trace.columns.index
    h2_max = float(last[col("h_max")]) ** 2
    lo, end = col("f1sq_min"), col("f1sq_left")
    if h2_max < level and np.all(last[lo:lo + 2 * trace.r:2] > level):
        return FIBER_COLLAPSE
    # The endpoint columns close the table, left and right alternating.
    for ends in (last[end::2], last[end + 1::2]):
        collapsed = ends < level
        if collapsed.all() and h2_max > level:
            return FULL_CONTRACTION
        if collapsed.any() and not collapsed.all():
            return PARTIAL_CONTRACTION
    return INDETERMINATE


def analyze_run(trace: FlowTrace, snapshot_times, stop_floor: float) -> dict:
    """Full singularity report for one finished run, as stored in report.json.

    Combines the singular time T_hat (the zero of the secant of 1/kappa
    through the last two trace rows), the Type I/II verdict, the Schwarz
    constant, the degeneration label, and the blow-up factor sequence
    K_i = kappa(t_i) at the snapshot times t_i before T_hat.  A diagnostic
    that does not apply to the run is None.
    """
    t_hat = estimate_singular_time(trace)
    typei_sup, verdict, plateau_ratio, growth_ratio = \
        classify_singularity_type(trace, t_hat)
    rescale = []
    if t_hat is not None:
        ts = np.asarray(snapshot_times, float)
        rescale = np.interp(ts[ts < t_hat], trace.column("t"),
                            trace.column("kappa")).tolist()
    return {
        "T_hat": t_hat,
        "typeI_sup": typei_sup,
        "verdict": verdict,
        "schwarz_C": schwarz_fit(trace, t_hat),
        "case": classify_degeneration(trace, stop_floor),
        "rescale_factors": rescale,
        "plateau_ratio": plateau_ratio,
        "growth_ratio": growth_ratio,
    }
