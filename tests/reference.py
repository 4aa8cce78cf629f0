"""Single-state entry points to the production kernels, a snapshot file
read back as a ProfileState, the Kahler-form Ricci expressions that the
curvature tests check geometry.ricci_rows against, the fit of the exact
linear boundary laws of a trace, a least-squares formulation of the
smooth-closure checks, a weight-by-weight, row-by-row formulation of the
regrid's quartic resample, and mask-, sort- and per-factor formulations of the report's
Type I/II classifier, Schwarz fit and degeneration label.

The package ships only what its verbs call.  These helpers call the same
kernels on the arrays of one ProfileState or one set of Jets, so the tests
can compare them with closed forms, the coordinate Ricci oracle of
ansatz_oracle.py and each other.
"""

from collections import namedtuple

import numpy as np

import bundleflow.geometry as geo
from bundleflow.analysis import (FIBER_COLLAPSE, FLOOR_MULTIPLE,
                                 FULL_CONTRACTION, INDETERMINATE,
                                 NO_SINGULARITY, PARTIAL_CONTRACTION,
                                 PLATEAU_FACTOR, TYPE_I, TYPE_II,
                                 WINDOW_DECADES)
from bundleflow.cli import _snapshot_fields
from bundleflow.evolution import _check_finite_rhs, _stage
from bundleflow.initial_data import CLOSING_TOL, ClosingCheck

# Diagonal Ricci data in the canonical frame: Ric(nu, nu), Ric(zhat, zhat)
# and the horizontal coefficients rho_i with respect to g_i, so that the
# horizontal block is rho_i pi_i^* g_i.
Ricci = namedtuple("Ricci", "nn zz horiz")
# Fitted against expected endpoint slope of one f_i^2 series.
BoundarySlope = namedtuple("BoundarySlope",
                           "factor side fitted expected error rel_error")


def read_snapshot(path):
    """One stored snapshot file as a ProfileState, checked as the verbs
    check it."""
    t, a, h, f = _snapshot_fields(path)
    return geo.ProfileState(t=t, a=a, h=h, f=f)


def profile_jets(state):
    """Arclength jets of a state, by the stencils of a flow stage and the
    chain rule of the trace monitor."""
    rows = np.vstack([state.a, state.h, state.f])
    stencil = geo.Stencil(geo.field_parities(state.r), state.cells)
    u_s, u_ss = geo.arclength_derivs(*geo.stacked_derivs(rows, stencil),
                                     state.a)
    return geo.Jets(h=state.h, h_s=u_s[1], h_ss=u_ss[1],
                    f=state.f, f_s=u_s[2:], f_ss=u_ss[2:])


def _unit_lapse(jets):
    """The (Y, derivs) of geometry.ricci_rows for arclength jets: with
    a = 1 sigma is arclength, so the jets are the sigma derivatives."""
    one, zero = np.ones_like(jets.h), np.zeros_like(jets.h)
    return (np.vstack([one, jets.h, jets.f]),
            np.stack([np.vstack([zero, jets.h_s, jets.f_s]),
                      np.vstack([zero, jets.h_ss, jets.f_ss])]))


def ricci_full(spec, jets):
    """geometry.ricci_rows on the jets of one state, at a = 1."""
    rows = -geo.ricci_rows(*_unit_lapse(jets),
                           geo.RicciFeatures(spec, jets.h.size))
    return Ricci(nn=rows[0], zz=rows[1], horiz=rows[2:] * jets.f ** 2)


def ricci_kahler(spec, jets):
    """Ricci curvature via the Kahler-form simplifications.

        Ric(nu, nu) = Ric(zhat, zhat) = -lap log H + sum 2 n_i |grad log F_i|^2
        horizontal coefficient          = k_i - lap(F_i^2) / 2

    These expressions assume q_i H = (F_i^2)_s and share no code with
    ricci_rows.
    """
    n, k = spec.n, spec.k
    shape_h = jets.h_s / jets.h
    shape_f = jets.f_s / jets.f
    trace_l = shape_h + (2.0 * n * shape_f).sum(axis=0)
    lap_log_h = (jets.h_ss / jets.h - shape_h ** 2) + trace_l * shape_h
    mixed = -lap_log_h + (2.0 * n * shape_f ** 2).sum(axis=0)
    horiz = k - 0.5 * geo.laplacian_f2(spec, jets)
    return Ricci(nn=mixed, zz=mixed.copy(), horiz=horiz)


def flow_rhs(spec, state, jets=None):
    """Time derivatives (da/dt, dh/dt, df_i/dt) at a state.

    Without ``jets`` this is the flow's own _stage on the state, bit for
    bit the derivative a run computes there.  Exact arclength ``jets``
    replace the stencils: the rows come from ricci_rows at a = 1 and are
    multiplied by (a; h; f).  Either way the flow's _check_finite_rhs
    runs, so a non-finite derivative raises FlowHalt naming its component
    and cell.
    """
    ricci = geo.RicciFeatures(spec, state.cells)
    if jets is None:
        Y = np.vstack([state.a, state.h, state.f])
        stencil = geo.Stencil(geo.field_parities(state.r), state.cells)
        ydot = _stage(Y, stencil, ricci, np.empty_like(Y))[0]
    else:
        Y = np.vstack([state.a, jets.h, jets.f])
        ydot = Y * geo.ricci_rows(*_unit_lapse(jets), ricci)
    _check_finite_rhs(ydot, state.t)
    return ydot[0], ydot[1], ydot[2:]


def boundary_linear_check(spec, trace):
    """Fit endpoint f_i^2 against t and compare with the exact linear law.

    The flow moves each boundary value of f_i^2 at the constant rate
    2 q_i - 2 k_i on the left end and -2 q_i - 2 k_i on the right.  Returns
    one BoundarySlope per factor and side; relative errors are normalized
    by 2(|q_i| + |k_i|), the natural scale of the two slopes.
    """
    if len(trace.rows) < 2:
        raise ValueError("need at least two trace rows to fit slopes")
    t = trace.column("t")
    out = []
    for i in range(1, trace.r + 1):
        q = spec.q[i - 1, 0]
        k = spec.k[i - 1, 0]
        scale = 2.0 * (abs(q) + abs(k))
        for side, expected in (("left", 2.0 * q - 2.0 * k),
                               ("right", -2.0 * q - 2.0 * k)):
            series = trace.column(f"f{i}sq_{side}")
            slope = float(np.polyfit(t, series, 1)[0])
            err = abs(slope - expected)
            out.append(BoundarySlope(
                factor=i, side=side, fitted=slope, expected=expected,
                error=err, rel_error=err / scale if scale > 0.0 else err))
    return out


def closing_checks_polyfit(state):
    """initial_data.validate_closing as least-squares quartic fits.

    This is the formulation the closed-form END_QUARTIC table replaced: at
    each end np.polyfit fits a quartic in the distance from the end to the
    five samples of h, of a and of each f_i^2 nearest it, and np.polyval
    and np.interp read the fit and the samples at the ghost positions.
    Five points determine the quartic, so both give the same ClosingCheck
    list up to rounding.
    """
    checks = []
    h_scale = max(np.abs(state.h).max(), 1e-300)
    length = float(np.sum(state.a * state.dsigma))
    ghost_x = np.array([0.5, 1.5]) * state.dsigma
    sigma = geo.cell_centers(state.cells)

    for side in ("left", "right"):
        if side == "left":
            x = sigma[:5]
            take = slice(None, 5)
            orient = 1.0
        else:
            x = 1.0 - sigma[-5:][::-1]
            take = slice(None, -6, -1)
            orient = -1.0

        def check(name, residual):
            checks.append(
                ClosingCheck(name, side, residual, residual <= CLOSING_TOL))

        # Coefficients highest first: c[-1] is the value and c[-2] the
        # d/dsigma slope at the end (x = 0).
        h5 = state.h[take]
        c_h = np.polyfit(x, h5, 4).tolist()
        a_end = np.polyfit(x, state.a[take], 4).tolist()[-1]
        h_slope = orient * c_h[-2] / a_end
        check("fiber length H at end", abs(c_h[-1]) / h_scale)
        check("arclength slope of H", abs(h_slope - orient))
        mirror = np.polyval(c_h, -ghost_x)
        check("odd parity of h",
              np.abs(mirror + np.interp(ghost_x, x, h5)).max() / h_scale)

        for i in range(state.r):
            f2 = state.f[i] ** 2
            f2_5 = f2[take]
            f2_scale = max(np.abs(f2).max(), 1e-300)
            c_f = np.polyfit(x, f2_5, 4).tolist()
            f2_slope = orient * c_f[-2] / a_end
            check(f"end slope of f{i + 1}^2",
                  abs(f2_slope) * length / f2_scale)
            check(f"even parity of f{i + 1}^2",
                  np.abs(np.polyval(c_f, -ghost_x)
                         - np.interp(ghost_x, x, f2_5)).max() / f2_scale)
    return checks


def lagrange_resample_loops(x_src, u_src, x_tgt):
    """evolution._lagrange_resample with one pass per weight and per row:
    weight j of each window is the product over m != j, in m order, of
    (x - x_m) / (x_j - x_m), and each row is summed on its own."""
    centers = np.clip(np.searchsorted(x_src, x_tgt), 2, x_src.size - 3)
    idx = centers[:, None] + np.arange(-2, 3)[None, :]
    xw = x_src[idx]
    weights = np.ones_like(xw)
    for j in range(5):
        for m in range(5):
            if m != j:
                weights[:, j] *= ((x_tgt - xw[:, m])
                                  / (xw[:, j] - xw[:, m]))
    out = np.empty((u_src.shape[0], x_tgt.size))
    for row in range(u_src.shape[0]):
        out[row] = (u_src[row][idx] * weights).sum(axis=1)
    return out


def classify_singularity_type_masks(trace, t_hat):
    """analysis.classify_singularity_type on boolean masks of the rows
    before t_hat, of the window and of the final decade, with argsort to
    pick the two rows nearest t_hat when the final decade holds fewer and
    to order the window for the growth ratio.  This reads any row order;
    on a time-ordered trace it gives the same result bit for bit."""
    if t_hat is None or len(trace.rows) < 2:
        return None, NO_SINGULARITY, None, None
    t = np.asarray(trace.column("t"))
    kappa = np.asarray(trace.column("kappa"))
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


def schwarz_fit_loop(trace, t_hat):
    """analysis.schwarz_fit as a running max over the factors, each on the
    mask of the rows before t_hat."""
    if t_hat is None or len(trace.rows) == 0:
        return None
    t = np.asarray(trace.column("t"))
    keep = t < t_hat
    if not keep.any():
        return None
    best = 0.0
    for i in range(1, trace.r + 1):
        f2 = np.asarray(trace.column(f"f{i}sq_min"))[keep]
        best = max(best, float(((t_hat - t[keep]) / f2).max()))
    return best


def classify_degeneration_lists(trace, stop_floor):
    """analysis.classify_degeneration with the last row's f_i^2 floors and
    endpoint values gathered factor by factor, column by column."""
    if len(trace.rows) == 0:
        return INDETERMINATE
    level = FLOOR_MULTIPLE * stop_floor
    h_max = trace.column("h_max")[-1]
    h2_max = h_max * h_max
    f2_min = np.array([trace.column(f"f{i}sq_min")[-1]
                       for i in range(1, trace.r + 1)])
    ends = {side: np.array([trace.column(f"f{i}sq_{side}")[-1]
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
