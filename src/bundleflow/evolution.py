"""Method-of-lines integration of the reduced flow system.

The comoving coordinate sigma in (0,1) stays fixed while the gauge factor a
evolves together with h and the f_i, so the grid never moves even though the
interval's arclength does.  The right-hand sides are minus twice the
corresponding Ricci components of the ansatz metric, written on the profile
jets:

    da/dt  = a (h_ss/h + sum 2 n_i f_i,ss/f_i)
    dh/dt  = -sum n_i q_i^2 h^3/(2 f_i^4) + sum 2 n_i h_s f_i,s/f_i + h_ss
    df_i/dt = -k_i/f_i + f_i,s tr L + f_i,ss - f_i,s^2/f_i
              + q_i^2 h^2/(2 f_i^3)

with subscript s denoting arclength derivatives (converted from sigma
derivatives through a) and tr L the mean-curvature trace h_s/h +
sum 2 n_j f_j,s/f_j.

Time stepping is classic four-stage Runge-Kutta under a parabolic step
bound dt = cfl * min_cells (a dsigma)^2, further capped so that no f_i^2 or
h^2 moves by more than ten percent in a single step.  Runs halt at t_end or
when a monitored floor (min f_i^2 or max h^2) drops below stop_floor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import FlowTrace
from .geometry import (END_EVEN_WEIGHTS, EVEN, BundleSpec, Jets,
                       ProfileState, cell_centers, cumulative_from_left,
                       curvature_sup_proxy, field_parities, stacked_derivs,
                       stacked_parity, _resolve_jets)
# The monitor row computes these three inline; they stay importable from
# here because perfbench/child.py wraps them on this module.
from .geometry import endpoint_even, kahler_defect, laplacian_f2  # noqa: F401
from .initial_data import validate_closing

# A step this far below the requested horizon means the adaptive control
# has collapsed (floors approached faster than the monitors can resolve).
DT_UNDERFLOW = 1e-14
# Per-step cap on the relative change of any h^2 or f_i^2.
MAX_REL_CHANGE = 0.1


class FlowHalt(RuntimeError):
    """Abnormal stop during integration.

    When raised from run_flow the exception carries the partial results in
    its ``trace`` and ``snapshots`` attributes, so a caller can persist what
    was computed before the halt.
    """

    def __init__(self, message, trace=None, snapshots=None):
        super().__init__(message)
        self.trace = trace
        self.snapshots = snapshots


class InvalidInitialState(ValueError):
    """Initial data rejected before any stepping was attempted."""


@dataclass
class FlowConfig:
    """Run parameters for the time integration.

    ``stop_floor`` is the positive level at which the run halts: when the
    smallest f_i^2 or the largest h^2 falls below it the profile is about to
    degenerate and the explicit scheme loses its meaning.  ``trace_every``
    and ``snapshot_every`` are step cadences for monitoring rows and stored
    states; the final state is always recorded regardless of cadence.
    ``regrid_threshold`` bounds max(a)/min(a) before the optional
    resampling to uniform arclength kicks in.
    """

    cells: int = 400
    cfl: float = 0.2
    t_end: float = 1.0
    stop_floor: float = 1e-3
    snapshot_every: int = 100
    regrid_threshold: float = 10.0
    trace_every: int = 1

    def __post_init__(self):
        if int(self.cells) != self.cells or self.cells < 8:
            raise ValueError("cells must be an integer >= 8")
        self.cells = int(self.cells)
        if not 0.0 < self.cfl < 1.0:
            raise ValueError("cfl must lie strictly between 0 and 1")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if self.stop_floor <= 0.0:
            raise ValueError("stop_floor must be positive")
        for name in ("snapshot_every", "trace_every"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer")
            setattr(self, name, int(v))
        if self.regrid_threshold <= 1.0:
            raise ValueError("regrid_threshold must exceed 1")


def _rhs_core(a, h, f, h_s, h_ss, f_s, f_ss, n_col, k_col, q_col):
    """Right-hand sides from arclength jets; shared by every entry point."""
    fs_over_f = f_s / f
    sum_fsf = 2.0 * (n_col * fs_over_f).sum(axis=0)
    trl = h_s / h + sum_fsf
    twist = (q_col * q_col) * (h * h) / (2.0 * f ** 4)
    adot = a * (h_ss / h + 2.0 * (n_col * f_ss / f).sum(axis=0))
    hdot = -h * (n_col * twist).sum(axis=0) + h_s * sum_fsf + h_ss
    fdot = -k_col / f + f_s * trl + f_ss - f_s * fs_over_f + twist * f
    return adot, hdot, fdot


def flow_rhs(spec: BundleSpec, state: ProfileState, jets: Jets = None):
    """Time derivatives (da/dt, dh/dt, df_i/dt) at the given state.

    Ghost cells are populated internally by parity reflection; the caller
    is responsible for starting from data that closes smoothly (run_flow
    validates this once up front).  Raises FlowHalt naming the first
    offending component and cell if any derivative is non-finite.
    """
    jets = _resolve_jets(state, jets)
    n_col, k_col, q_col, _ = spec.factor_arrays()
    adot, hdot, fdot = _rhs_core(state.a, jets.h, jets.f, jets.h_s,
                                 jets.h_ss, jets.f_s, jets.f_ss,
                                 n_col, k_col, q_col)
    _check_finite_rhs(adot, hdot, fdot, state.t)
    return adot, hdot, fdot


def _check_finite_rhs(adot, hdot, fdot, t):
    if (np.isfinite(adot).all() and np.isfinite(hdot).all()
            and np.isfinite(fdot).all()):
        return
    for name, arr in [("a", adot), ("h", hdot)] + [
            (f"f{i + 1}", fdot[i]) for i in range(fdot.shape[0])]:
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise FlowHalt(f"non-finite flow RHS in component {name} "
                           f"at cell {bad[0]} (t = {t:.6g})")


def _stage(Y, dsigma, parities, n_col, k_col, q_col):
    """One RHS evaluation on the stacked array (a; h; f_1..f_r).

    Returns the stacked time derivative together with the arclength jets of
    h and the f_i, which the run loop reuses for its monitor columns.
    """
    d1, d2 = stacked_derivs(Y, parities, dsigma)
    a = Y[0]
    inv_a = 1.0 / a
    inv_a2 = inv_a * inv_a
    conv = d1[0] * inv_a2 * inv_a
    u_s = d1 * inv_a
    u_ss = d2 * inv_a2 - d1 * conv
    adot, hdot, fdot = _rhs_core(a, Y[1], Y[2:], u_s[1], u_ss[1],
                                 u_s[2:], u_ss[2:], n_col, k_col, q_col)
    ydot = np.empty_like(Y)
    ydot[0] = adot
    ydot[1] = hdot
    ydot[2:] = fdot
    return ydot, u_s, u_ss


def _dt_bound(a, h, f, hdot, fdot, cfl, dsigma):
    """Parabolic step bound with the ten-percent relative-change cap."""
    dt = cfl * (a.min() * dsigma) ** 2
    rate = 2.0 * max(np.abs(hdot / h).max(), np.abs(fdot / f).max())
    if rate > 0.0:
        dt = min(dt, MAX_REL_CHANGE / rate)
    return dt


def step_adaptive(spec: BundleSpec, state: ProfileState, cfg: FlowConfig,
                  rhs1=None, dt_max: float = None, rhs_fn=flow_rhs):
    """Advance one adaptive Runge-Kutta step; returns (new state, dt used).

    ``rhs1`` may pass a precomputed flow_rhs at the input state so callers
    that already evaluated it for monitoring do not pay twice.  ``rhs_fn``
    is an injection seam for integrator tests (for instance a zero RHS to
    confirm the fixed point); production callers leave it alone.
    """
    if rhs1 is None:
        rhs1 = rhs_fn(spec, state)
    adot, hdot, fdot = rhs1
    dt = _dt_bound(state.a, state.h, state.f, hdot, fdot, cfg.cfl,
                   state.dsigma)
    if dt_max is not None:
        dt = min(dt, dt_max)
    if dt < DT_UNDERFLOW * cfg.t_end:
        raise FlowHalt(f"time step underflow: dt = {dt:.3e} fell below "
                       f"{DT_UNDERFLOW:g} * t_end at t = {state.t:.6g}")

    def shifted(tau, da, dh, df):
        return dataclasses.replace(
            state, t=state.t + tau, a=state.a + tau * da,
            h=state.h + tau * dh, f=state.f + tau * df)

    k1 = rhs1
    k2 = rhs_fn(spec, shifted(0.5 * dt, *k1))
    k3 = rhs_fn(spec, shifted(0.5 * dt, *k2))
    k4 = rhs_fn(spec, shifted(dt, *k3))
    sixth = dt / 6.0
    new = dataclasses.replace(
        state, t=state.t + dt,
        a=state.a + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        h=state.h + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        f=state.f + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]))
    return new, dt


def arclength(state: ProfileState):
    """Cell-center arclength positions and the total interval length."""
    return cumulative_from_left(state.a, state.dsigma, EVEN)


def _lagrange_resample(x_src, u_src, x_tgt):
    """Quartic Lagrange interpolation through sliding 5-point windows.

    ``x_src`` must be strictly increasing; rows of ``u_src`` are resampled
    at ``x_tgt``.  Windows are clamped at the array ends, so callers pad
    with parity ghosts to keep endpoint windows well centered.
    """
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


def regrid_uniform(state: ProfileState) -> ProfileState:
    """Resample the profiles onto a uniform-arclength grid of the same size.

    The new gauge is a = S, constant, with S the current total arclength.
    h and the f_i are interpolated in arclength by quartic Lagrange windows
    through parity-extended samples; the time stamp is preserved.
    """
    s, total = arclength(state)
    s_ext = np.concatenate([[-s[1], -s[0]], s,
                            [2.0 * total - s[-1], 2.0 * total - s[-2]]])
    rows = np.vstack([state.h[None, :], state.f])
    ext = stacked_parity(rows, field_parities(state.r)[1:])
    s_tgt = (np.arange(state.cells) + 0.5) * (total / state.cells)
    resampled = _lagrange_resample(s_ext, ext, s_tgt)
    return dataclasses.replace(
        state, sigma=cell_centers(state.cells),
        a=np.full(state.cells, total), h=resampled[0], f=resampled[1:])


def run_flow(spec: BundleSpec, state0: ProfileState, cfg: FlowConfig):
    """Integrate from state0 until t_end or a stop_floor breach.

    Returns (FlowTrace, snapshots).  Trace rows are appended every
    ``trace_every`` steps and always at the final state; snapshots follow
    ``snapshot_every`` the same way, starting with the initial state.  The
    run refuses to start (InvalidInitialState) if state0 is nonpositive or
    fails the smooth-closure validation.  Abnormal halts raise FlowHalt
    with the partial trace and snapshots attached.
    """
    if state0.cells != cfg.cells:
        raise InvalidInitialState(
            f"state has {state0.cells} cells but config says {cfg.cells}")
    try:
        state0.validate()
    except ValueError as exc:
        raise InvalidInitialState(str(exc)) from exc
    closing = validate_closing(state0)
    if not closing.passed:
        bad = "; ".join(f"{c.side} {c.name} (residual {c.residual:.3g})"
                        for c in closing.failures())
        raise InvalidInitialState(f"initial data does not close: {bad}")

    n_col, k_col, q_col, _ = spec.factor_arrays()
    parities = field_parities(spec.r)
    dsigma = state0.dsigma
    sigma = state0.sigma
    Y = np.vstack([state0.a[None, :], state0.h[None, :], state0.f])
    t = state0.t
    t_end = state0.t + cfg.t_end
    rows, brows, snapshots = [], [], []
    step = 0
    last_snap = -1

    def current_state():
        return ProfileState(t=t, sigma=sigma, a=Y[0].copy(),
                            h=Y[1].copy(), f=Y[2:].copy())

    r = spec.r
    width = 8 + 4 * r
    two_n = 2.0 * n_col
    two_k = 2.0 * k_col
    w = END_EVEN_WEIGHTS

    def monitor_row(ydot, u_s, u_ss, dt_col):
        # Columns of analysis.trace_columns and boundary_columns from the
        # first stage's jets.  Each expression keeps the operation order of
        # kahler_defect, laplacian_f2 and endpoint_even, so the values
        # equal theirs bit for bit.
        h, f = Y[1], Y[2:]
        h_s, f_s, f_ss = u_s[1], u_s[2:], u_ss[2:]
        f2 = f * f
        two_f = 2.0 * f
        df2 = two_f * f_s
        tr_l = h_s / h + (two_n * f_s / f).sum(axis=0)
        lap_f2 = two_f * f_ss + 2.0 * f_s ** 2 + tr_l * 2.0 * f * f_s
        jets = Jets(h=h, h_s=h_s, h_ss=u_ss[1], f=f, f_s=f_s, f_ss=f_ss)
        row = np.empty(width)
        row[0] = t
        row[1] = dt_col
        row[2] = curvature_sup_proxy(spec, jets=jets)
        row[3] = h.min()
        row[4] = h.max()
        row[5:5 + 2 * r:2] = f2.min(axis=1)
        row[6:6 + 2 * r:2] = f2.max(axis=1)
        row[5 + 2 * r] = np.abs(q_col * h - df2).max()
        row[6 + 2 * r] = np.abs(two_f * ydot[2:] - lap_f2 + two_k).max()
        row[7 + 2 * r:7 + 3 * r] = np.abs(df2).max(axis=1)
        row[7 + 3 * r:7 + 4 * r] = (4.0 * f_s * f_s).max(axis=1)
        row[-1] = cumulative_from_left(Y[0], dsigma, EVEN)[1]
        rows.append(row)
        ends = (w[0] * f2[:, [0, -1]] + w[1] * f2[:, [1, -2]]
                + w[2] * f2[:, [2, -3]])
        brow = np.empty(1 + 2 * r)
        brow[0] = t
        brow[1:] = ends.ravel()
        brows.append(brow)

    try:
        while True:
            ydot, u_s, u_ss = _stage(Y, dsigma, parities, n_col, k_col,
                                     q_col)
            _check_finite_rhs(ydot[0], ydot[1], ydot[2:], t)
            fmin = Y[2:].min()
            h_absmax = np.abs(Y[1]).max()
            stop = (t >= t_end - DT_UNDERFLOW * max(t_end, 1.0)
                    or fmin * abs(fmin) < cfg.stop_floor
                    or h_absmax * h_absmax < cfg.stop_floor
                    or Y[0].min() <= 0.0)
            dt = 0.0
            if not stop:
                dt = _dt_bound(Y[0], Y[1], Y[2:], ydot[1], ydot[2:],
                               cfg.cfl, dsigma)
                if dt < DT_UNDERFLOW * cfg.t_end:
                    monitor_row(ydot, u_s, u_ss, 0.0)
                    raise FlowHalt(
                        f"time step underflow: dt = {dt:.3e} at t = {t:.6g}")
                dt = min(dt, t_end - t)
            if stop or step % cfg.trace_every == 0:
                monitor_row(ydot, u_s, u_ss, dt)
            if stop or step % cfg.snapshot_every == 0:
                if last_snap != step:
                    snapshots.append(current_state())
                    last_snap = step
            if stop:
                break

            half = 0.5 * dt
            k2 = _stage(Y + half * ydot, dsigma, parities, n_col, k_col,
                        q_col)[0]
            k3 = _stage(Y + half * k2, dsigma, parities, n_col, k_col,
                        q_col)[0]
            k4 = _stage(Y + dt * k3, dsigma, parities, n_col, k_col,
                        q_col)[0]
            Y = Y + (dt / 6.0) * (ydot + 2.0 * (k2 + k3) + k4)
            t += dt
            step += 1
            if Y[0].max() > cfg.regrid_threshold * Y[0].min():
                regridded = regrid_uniform(current_state())
                Y = np.vstack([regridded.a[None, :], regridded.h[None, :],
                               regridded.f])
    except FlowHalt as halt:
        halt.trace = _assemble_trace(spec.r, rows, brows)
        halt.snapshots = snapshots
        raise

    return _assemble_trace(spec.r, rows, brows), snapshots


def _assemble_trace(r, rows, brows):
    width = 8 + 4 * r
    if rows:
        rows_arr = np.array(rows, float)
        brows_arr = np.array(brows, float)
    else:
        rows_arr = np.zeros((0, width))
        brows_arr = np.zeros((0, 1 + 2 * r))
    return FlowTrace(r=r, rows=rows_arr, boundary=brows_arr)
