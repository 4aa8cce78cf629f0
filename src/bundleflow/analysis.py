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

import itertools
import math

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

    ``rows`` is a list with one list of Python floats per recorded step.
    Its columns are those of :func:`trace_columns` followed by the
    endpoint columns of :func:`boundary_columns` (all but its ``t``), the
    extrapolated endpoint values of each f_i^2; the two functions are the
    contracts of trace.csv and boundary.csv.  h columns store h itself, f
    columns store f^2 and ``grad_sup_i`` stores sup |d(f_i^2)/ds|.
    """

    def __init__(self, r, rows):
        self.r, self.rows = r, rows
        self.columns = trace_columns(r) + boundary_columns(r)[1:]

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def validate(self):
        """Raise ValueError on a malformed trace.

        Malformed: a row of another width, non-finite data, t order, a
        kappa or f_i^2 bound that is not positive (the analysis divides by
        them), or a kappa whose reciprocal overflows (T_hat reads 1/kappa).
        """
        width = len(self.columns)
        if any(len(row) != width for row in self.rows):
            raise ValueError("trace rows do not match the column contract")
        entries = itertools.chain.from_iterable(self.rows)
        if not all(map(math.isfinite, entries)):
            raise ValueError("trace contains non-finite entries")
        positive = ["kappa"] + [f"f{i}sq_{end}" for i in range(1, self.r + 1)
                                for end in ("min", "max")]
        for name in positive:
            if not all(v > 0.0 for v in self.column(name)):
                raise ValueError(f"trace column {name} must be positive")
        if not all(math.isfinite(1.0 / v) for v in self.column("kappa")):
            raise ValueError("trace column kappa must have a finite "
                             "reciprocal")
        t = self.column("t")
        if not all(b > a for a, b in zip(t, t[1:])):
            raise ValueError("trace times must be strictly increasing")


def _divide(a, b):
    """a / b for floats a > 0 and b >= 0: inf at b = 0, as numpy gives,
    where Python raises ZeroDivisionError."""
    return a / b if b else math.inf


def estimate_singular_time(trace: FlowTrace):
    """Singular time from the secant of w = 1/kappa through the last two rows.

    At the Type I rate kappa ~ C/(T - t), w is linear in t, so its zero

        T_hat = t_n + w_n (t_n - t_{n-1}) / (w_{n-1} - w_n)

    is exact with no fit.  Returns T_hat when the trace has two rows, w
    falls across the last two and T_hat lies beyond the last row (an
    increment that underflows to zero does not), else None (no
    singularity indicated).
    """
    if len(trace.rows) < 2:
        return None
    t = trace.column("t")[-2:]
    w = [_divide(1.0, k) for k in trace.column("kappa")[-2:]]
    if not w[1] < w[0]:
        return None
    t_hat = t[1] + w[1] * (t[1] - t[0]) / (w[0] - w[1])
    return t_hat if t_hat > t[1] else None


def classify_singularity_type(trace: FlowTrace, t_hat: float):
    """Type I/II verdict from the behavior of y = (t_hat - t) * kappa.

    ``t_hat`` is what estimate_singular_time returns for the trace: None,
    or a time past the last of at least two rows, so every row lies before
    it and t_hat - t decreases along the time-ordered rows.  The analysis
    window covers the final WINDOW_DECADES powers of ten of t_hat - t, a
    suffix of the rows.  Verdict TypeI when y varies by less than
    PLATEAU_FACTOR across the final decade (a bounded, settled plateau),
    or across the last two rows when the final decade holds fewer,
    TypeII-suspect otherwise.  The endpoint growth ratio of y across the
    whole window is reported as supporting detail.

    Returns (typei_sup, verdict, plateau_ratio, growth_ratio).
    """
    if t_hat is None:
        return None, NO_SINGULARITY, None, None
    tau = [t_hat - ti for ti in trace.column("t")]
    y = [a * k for a, k in zip(tau, trace.column("kappa"))]

    def suffix(decades):
        # The first row with tau within ``decades`` of the last; tau
        # decreases, so every later row is too.
        bound = tau[-1] * 10.0 ** decades
        return next((i for i, v in enumerate(tau) if v <= bound), 0)

    window = y[suffix(WINDOW_DECADES):]
    final = y[min(suffix(1.0), len(y) - 2):]
    typei_sup = max(window)
    low = min(final)
    plateau_ratio = max(final) / low if low > 0.0 else math.inf
    growth_ratio = window[-1] / window[0] if window[0] > 0.0 else math.inf
    verdict = TYPE_I if plateau_ratio < PLATEAU_FACTOR else TYPE_II
    return typei_sup, verdict, plateau_ratio, growth_ratio


def schwarz_fit(trace: FlowTrace, t_hat: float) -> float:
    """Smallest constant C with min f_j^2 >= (t_hat - t)/C on the trace.

    ``t_hat`` is what estimate_singular_time returns, so every row lies
    before it.  Computed as the max over factors and rows of
    (t_hat - t) / min f_j^2; a finite positive C certifies the linear
    lower bound on the observed window.
    """
    if t_hat is None:
        return None
    lo = trace.columns.index("f1sq_min")
    return max(_divide(t_hat - ti, f2)
               for ti, row in zip(trace.column("t"), trace.rows)
               for f2 in row[lo:lo + 2 * trace.r:2])


def classify_degeneration(trace: FlowTrace, stop_floor: float) -> str:
    """Label the degeneration pattern at the end of a run.

    A quantity counts as collapsed when it sits below FLOOR_MULTIPLE *
    stop_floor in the last trace row.  Fiber collapse: max h^2 collapsed
    with every min f_i^2 comfortably above.  Section contraction: at one
    endpoint all (full) or some but not all (partial) of the f_i^2
    collapsed while the fiber stays noncollapsed.  Anything else, and an
    empty trace, is Indeterminate.  max h^2 is h_max * h_max, which is
    inf where it overflows, and inf is not below the level.
    """
    if not trace.rows:
        return INDETERMINATE
    level = FLOOR_MULTIPLE * stop_floor
    last = trace.rows[-1]
    col = trace.columns.index
    h_max = last[col("h_max")]
    h2_max = h_max * h_max
    lo, end = col("f1sq_min"), col("f1sq_left")
    if h2_max < level and all(v > level
                              for v in last[lo:lo + 2 * trace.r:2]):
        return FIBER_COLLAPSE
    # The endpoint columns close the table, left and right alternating.
    for ends in (last[end::2], last[end + 1::2]):
        collapsed = [v < level for v in ends]
        if all(collapsed) and h2_max > level:
            return FULL_CONTRACTION
        if any(collapsed) and not all(collapsed):
            return PARTIAL_CONTRACTION
    return INDETERMINATE


def analyze_run(trace: FlowTrace, snapshot_times, stop_floor: float) -> dict:
    """Full singularity report for one finished run, as stored in report.json.

    Combines the singular time T_hat (the zero of the secant of 1/kappa
    through the last two trace rows), the Type I/II verdict, the Schwarz
    constant, the degeneration label, and the blow-up factor sequence
    K_i = kappa(t_i), the kappa of the trace row at each snapshot time t_i
    (T_hat lies past every row, so past every snapshot).  Raises
    ValueError naming the first snapshot time that is not a row time.  A
    diagnostic that does not apply to the run is None.  Everything is
    computed on Python floats, with numpy's results.
    """
    kappa_at = dict(zip(trace.column("t"), trace.column("kappa")))
    for ts in snapshot_times:
        if ts not in kappa_at:
            raise ValueError(f"snapshot time {ts!r} is not a trace row time")
    t_hat = estimate_singular_time(trace)
    typei_sup, verdict, plateau_ratio, growth_ratio = \
        classify_singularity_type(trace, t_hat)
    rescale = [] if t_hat is None else [kappa_at[ts] for ts in snapshot_times]
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
