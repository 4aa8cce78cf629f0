"""Method-of-lines integration of the reduced flow system.

The comoving coordinate sigma in (0,1) stays fixed while the gauge factor a
evolves together with h and the f_i, so the grid never moves even though the
interval's arclength does.  Ricci flow preserves the ansatz, so the reduced
system is

    d/dt (a; h; f_i) = -(a Ric_nn; h Ric_zz; rho_i / f_i)

with the Ricci rows of geometry.ricci_rows evaluated on the arclength jets
of the profiles (converted from sigma derivatives through a).

Time stepping is the second-order Runge-Kutta-Legendre scheme RKL2
(Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014), an s-stage explicit
method built from RHS evaluations alone whose real-axis stability interval
grows as s^2.  The step is set by accuracy, not stability:
dt = min(MAX_REL_CHANGE, STEP_CAP dsigma^2) / rate with rate the largest
relative speed 2 max(|h_t/h|, |f_i,t/f_i|), so no h^2 or f_i^2 moves by
more than min(10%, STEP_CAP dsigma^2) in one step and the second-order time
error, of order dsigma^4, stays at the level of the fourth-order stencils.
The forward-Euler stability edge CFL_MAX (min a dsigma)^2 of the stencil
instead sets the stage count: s is the smallest s >= 2 with
(s^2 + s - 2)/4 CFL_MAX (min a dsigma)^2 >= dt.  Both sides scale as
dsigma^2, so s does not grow with resolution (about four).  Runs halt at
t_end, when a monitored floor (min f_i^2 or max h^2) drops below
stop_floor, or when a residual column of the monitor row grows past
RESIDUAL_GROWTH_MAX times its first-row value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import FlowTrace
from .geometry import (EVEN, BundleSpec, Jets, ProfileState, Stencil,
                       arclength_derivs, cell_centers, cumulative_from_left,
                       curvature_sup_proxy, endpoint_even, field_parities,
                       kahler_defect, laplacian_f2, ricci_coefficients,
                       ricci_rows, stacked_derivs, stacked_parity)
from .initial_data import validate_closing

# A step this far below the requested horizon means the adaptive control
# has collapsed (floors approached faster than the monitors can resolve).
DT_UNDERFLOW = 1e-14
# Per-step cap on the relative change of any h^2 or f_i^2.
MAX_REL_CHANGE = 0.1
# On fine grids the relative-change cap per step is STEP_CAP dsigma^2, so
# the O(dt^2) error of RKL2 shrinks as dsigma^4 like the stencil error.
STEP_CAP = 40.0
# A monitor row whose kahler_res or heat_res exceeds this multiple of the
# first row's value halts the run: healthy runs stay below about 8 (the
# Calabi collapse), while stages sized past the stability edge pass 500
# within a few hundred steps.
RESIDUAL_GROWTH_MAX = 100.0
# Forward-Euler stability edge of the five-point second difference with
# parity ghosts: its eigenvalues lie in [-16/3, 0] / (a dsigma)^2, so
# forward Euler is stable up to dt = (2 / (16/3)) (a dsigma)^2.  The RKL2
# stage count is sized from this step.
CFL_MAX = 0.375


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
    resampling to uniform arclength kicks in.  ``cfl`` is inert: it is
    still validated in (0, CFL_MAX] so that existing configs load, but the
    stage count is sized at the stability edge CFL_MAX itself.
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
        if not 0.0 < self.cfl <= CFL_MAX:
            raise ValueError(f"cfl must lie in (0, {CFL_MAX}]")
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


def _rhs_core(Y, jet_s, jet_ss, coef):
    """d/dt of Y = (a; h; f_1..f_r) from the arclength jets of (h; f_1..f_r):
    minus Y times the Ricci rows.  Every entry point ends here."""
    return -Y * ricci_rows(Y[1:], jet_s, jet_ss, coef)


def flow_rhs(spec: BundleSpec, state: ProfileState, jets: Jets):
    """Time derivatives (da/dt, dh/dt, df_i/dt) at the given state.

    ``jets`` are the arclength jets of ``state``: ``profile_jets(state)``,
    whose parity ghosts assume data that closes smoothly (run_flow
    validates this once up front), or exact analytic jets.  Raises FlowHalt
    naming the first offending component and cell if any derivative is
    non-finite.
    """
    Y = np.vstack([state.a, jets.h, jets.f])
    ydot = _rhs_core(Y, np.vstack([jets.h_s, jets.f_s]),
                     np.vstack([jets.h_ss, jets.f_ss]),
                     ricci_coefficients(spec))
    _check_finite_rhs(ydot, state.t)
    return ydot[0], ydot[1], ydot[2:]


def _check_finite_rhs(ydot, t):
    if np.isfinite(ydot).all():
        return
    names = ["a", "h"] + [f"f{i + 1}" for i in range(ydot.shape[0] - 2)]
    for name, row in zip(names, ydot):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise FlowHalt(f"non-finite flow RHS in component {name} "
                           f"at cell {bad[0]} (t = {t:.6g})")


def _stage(Y, stencil, coef):
    """One RHS evaluation on the stacked array (a; h; f_1..f_r).

    Returns the stacked time derivative together with the arclength jets of
    all rows, which the run loop reuses for its monitor columns.
    """
    u_s, u_ss = arclength_derivs(*stacked_derivs(Y, stencil), Y[0])
    return _rhs_core(Y, u_s[1:], u_ss[1:], coef), u_s, u_ss


def _check_residual_growth(row, first, r):
    """Raise FlowHalt when a residual column of the monitor row ``row``
    exceeds RESIDUAL_GROWTH_MAX times its value in the first row ``first``.
    A residual that starts at exactly zero has no scale and is not gated.
    """
    for col, name in ((5 + 2 * r, "kahler_res"), (6 + 2 * r, "heat_res")):
        if 0.0 < first[col] and row[col] > RESIDUAL_GROWTH_MAX * first[col]:
            raise FlowHalt(
                f"{name} grew to {row[col]:.3e} at t = {row[0]:.6g}, more "
                f"than {RESIDUAL_GROWTH_MAX:g} times its initial "
                f"{first[col]:.3e}: the integration has gone unstable")


def _dt_bound(Y, ydot, t, t_end, dsigma, dt_min):
    """Size and stage count (dt, s) of the next RKL2 step from Y = (a; h; f).

    dt = min(MAX_REL_CHANGE, STEP_CAP dsigma^2) / rate, with rate =
    2 max(|h_t/h|, |f_t/f|), or the forward-Euler step
    CFL_MAX (min a dsigma)^2 when nothing moves.  A dt below dt_min means
    the control has collapsed and raises FlowHalt; after that check dt is
    capped at t_end - t.  s is the smallest s >= 2 whose stability interval
    (s^2 + s - 2)/4 forward-Euler steps covers dt.
    """
    dt_euler = CFL_MAX * (Y[0].min() * dsigma) ** 2
    rate = 2.0 * max(np.abs(ydot[1] / Y[1]).max(),
                     np.abs(ydot[2:] / Y[2:]).max())
    dt = dt_euler
    if rate > 0.0:
        dt = min(MAX_REL_CHANGE, STEP_CAP * dsigma * dsigma) / rate
    if dt < dt_min:
        raise FlowHalt(f"time step underflow: dt = {dt:.3e} at t = {t:.6g}")
    dt = min(dt, t_end - t)
    s = 2
    while (s * s + s - 2) / 4.0 * dt_euler < dt:
        s += 1
    return dt, s


def rkl2_step(Y, ydot, dt, s, rhs):
    """Advance the stacked state Y by one s-stage RKL2 step of size dt.

    ``ydot`` is rhs(Y), the first stage, which the caller has already
    evaluated; the step makes s - 1 further calls of ``rhs``.  The
    recursion runs on the increments Y_j - Y, so a zero right-hand side
    returns Y unchanged bit for bit.
    """
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
        d, d_prev = (mu * d + nu * d_prev + mu_t * rhs(Y + d)
                     + gamma_t * ydot), d
    return Y + d


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


@np.errstate(over="raise", divide="raise", invalid="raise")
def run_flow(spec: BundleSpec, state0: ProfileState, cfg: FlowConfig):
    """Integrate from state0 until t_end or a stop_floor breach.

    Returns (FlowTrace, snapshots).  Trace rows are appended every
    ``trace_every`` steps and always at the final state; snapshots follow
    ``snapshot_every`` the same way, starting with the initial state.  The
    run refuses to start (InvalidInitialState) if state0 is nonpositive,
    fails the smooth-closure validation or overflows it.  Abnormal halts
    (a dt underflow, a non-finite RHS, a floating-point overflow, a trace
    row whose kahler_res or heat_res passes RESIDUAL_GROWTH_MAX times its
    first-row value) raise FlowHalt with the partial trace and snapshots
    attached.
    """
    if state0.cells != cfg.cells:
        raise InvalidInitialState(
            f"state has {state0.cells} cells but config says {cfg.cells}")
    try:
        state0.validate()
        closing = validate_closing(state0)
        coef = ricci_coefficients(spec)
        two_k = 2.0 * spec.factor_arrays()[1]
    except (ValueError, FloatingPointError) as exc:
        raise InvalidInitialState(str(exc)) from exc
    if not closing.passed:
        bad = "; ".join(f"{c.side} {c.name} (residual {c.residual:.3g})"
                        for c in closing.failures())
        raise InvalidInitialState(f"initial data does not close: {bad}")

    dsigma = state0.dsigma
    stencil = Stencil(field_parities(spec.r), cfg.cells, dsigma)
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

    def rhs(Yj):
        return _stage(Yj, stencil, coef)[0]

    dt_min = DT_UNDERFLOW * cfg.t_end
    r = spec.r

    def monitor_row(ydot, u_s, u_ss, dt_col):
        # Columns of analysis.trace_columns and boundary_columns from the
        # first stage's jets.
        h, f, f_s = Y[1], Y[2:], u_s[2:]
        f2 = f * f
        jets = Jets(h=h, h_s=u_s[1], h_ss=u_ss[1], f=f, f_s=f_s,
                    f_ss=u_ss[2:])
        row = np.empty(8 + 4 * r)
        row[0] = t
        row[1] = dt_col
        row[2] = curvature_sup_proxy(spec, jets=jets)
        row[3] = h.min()
        row[4] = h.max()
        row[5:5 + 2 * r:2] = f2.min(axis=1)
        row[6:6 + 2 * r:2] = f2.max(axis=1)
        row[5 + 2 * r] = kahler_defect(spec, jets=jets).max()
        row[6 + 2 * r] = np.abs(2.0 * f * ydot[2:] - laplacian_f2(spec, jets)
                                + two_k).max()
        row[7 + 2 * r:7 + 3 * r] = np.abs(2.0 * f * f_s).max(axis=1)
        row[7 + 3 * r:7 + 4 * r] = (4.0 * f_s * f_s).max(axis=1)
        row[-1] = cumulative_from_left(Y[0], dsigma, EVEN)[1]
        rows.append(row)
        brow = np.empty(1 + 2 * r)
        brow[0] = t
        brow[1::2], brow[2::2] = endpoint_even(f2)
        brows.append(brow)

    try:
        while True:
            ydot, u_s, u_ss = _stage(Y, stencil, coef)
            _check_finite_rhs(ydot, t)
            fmin = Y[2:].min()
            h_absmax = np.abs(Y[1]).max()
            stop = (t >= t_end - DT_UNDERFLOW * max(t_end, 1.0)
                    or fmin * abs(fmin) < cfg.stop_floor
                    or h_absmax * h_absmax < cfg.stop_floor
                    or Y[0].min() <= 0.0)
            dt = 0.0
            if not stop:
                try:
                    dt, s = _dt_bound(Y, ydot, t, t_end, dsigma, dt_min)
                except FlowHalt:
                    monitor_row(ydot, u_s, u_ss, 0.0)
                    raise
            if stop or step % cfg.trace_every == 0:
                monitor_row(ydot, u_s, u_ss, dt)
                _check_residual_growth(rows[-1], rows[0], r)
            if stop or step % cfg.snapshot_every == 0:
                if last_snap != step:
                    snapshots.append(current_state())
                    last_snap = step
            if stop:
                break

            Y = rkl2_step(Y, ydot, dt, s, rhs)
            t += dt
            step += 1
            # Python floats: a huge threshold overflows to inf, untrapped.
            if float(Y[0].max()) > cfg.regrid_threshold * float(Y[0].min()):
                regridded = regrid_uniform(current_state())
                Y = np.vstack([regridded.a[None, :], regridded.h[None, :],
                               regridded.f])
    except (FlowHalt, FloatingPointError) as exc:
        halt = exc if isinstance(exc, FlowHalt) else FlowHalt(
            f"floating-point {exc} at t = {t:.6g}")
        halt.trace = _assemble_trace(spec.r, rows, brows)
        halt.snapshots = snapshots
        raise halt

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
