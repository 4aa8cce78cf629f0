"""Method-of-lines integration of the reduced flow system.

The comoving coordinate sigma in (0,1) stays fixed while the gauge factor a
evolves together with h and the f_i, so the grid never moves even though the
interval's arclength does.  Ricci flow preserves the ansatz, so the reduced
system is

    d/dt (a; h; f_i) = -(a Ric_nn; h Ric_zz; rho_i / f_i)

which a stage evaluates as Y * (coef @ features) on the stacked state
Y = (a; h; f_i): stacked_derivs gives the (2, F, M) block of sigma
derivatives of every row, geometry.ricci_rows fills the features (Y''/Y,
every (u'/u)(Y'/Y), both over a^2, h^2/f_i^4 and 1/Y^2, u = (h; f_i))
from it into the buffer of the run's geometry.RicciFeatures, and one
product with the constant matrix coef of geometry.ricci_coefficients,
the chain rule for ds = a dsigma and the minus sign included, gives the
rows d/dt log Y.  The stage writes Y times them into the array it is
given.  It makes 13 numpy calls, the stencils included, plus two views
(the stencil product's transposed output and the h row), and forms no
arclength jets: the monitor converts the sigma derivatives of its traced
rows once per block.

Time stepping is the second-order Runge-Kutta-Legendre scheme RKL2
(Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014), an s-stage explicit
method built from RHS evaluations alone whose real-axis stability interval
grows as s^2.  The step is set by accuracy, not stability:
dt = min(MAX_REL_CHANGE, STEP_CAP dsigma^2) / rate with rate the largest
relative speed 2 max(|h_t/h|, |f_i,t/f_i|), read from the rows d/dt log Y
of the step's first stage.  So no h^2 or f_i^2 moves by more than
min(10%, STEP_CAP dsigma^2) in one step, and the second-order time error,
of order dsigma^4, stays at the level of the fourth-order stencils: on
canonical data at 64 cells and t = 0.3 it is 1.2 times the relative gap
to 128 cells (0.32 times at STEP_CAP 40, 5.3 times at 160).  A Calabi
collapse is the exception: there the time error dominates at STEP_CAP 40
and at 80.  The forward-Euler stability edge CFL_MAX (min a dsigma)^2 of
the stencil instead sets the stage count: s is the smallest s >= 2 with
(s^2 + s - 2)/4 CFL_MAX (min a dsigma)^2 >= dt.  Both sides scale as
dsigma^2, so s does not grow with resolution: six to seven RHS
evaluations per step (7.0 on a 48-cell Calabi collapse).  Runs halt at
t_end, when a monitored floor (min f_i^2 or max h^2) drops below
stop_floor, or when a residual column of the monitor row grows past
RESIDUAL_GROWTH_MAX times its first-row value.

A step evaluates its first stage into a fresh array, since a traced step
keeps it.  rkl2_step's zeroed (5, F, M) buffer holds that ydot, the
latest inner stage, which each stage writes in place, and three rotating
increments; the inner stages read Y + d from one array per step.  No
step writes into Y: rkl2_step returns a new array and a regrid restacks,
so snapshots and traced steps share Y's rows uncopied.  The min/max
pass, the stop tests, dt and the stage count run on Python floats, where
an overflow is a silent inf that each test reads correctly: an infinite
f_i^2 or h^2 is not below stop_floor, an infinite forward-Euler step
sets no stage limit (s = 2), and an infinite rate gives dt = 0, which
halts as a dt underflow.  Data that really leave the double range halt
in the stage, the monitor or the residual gate.

Every column of the one trace table, the endpoint values of each f_i^2
included, is filled in one place, _monitor_block.  A traced step only
keeps its state, time derivative and first-stage sigma derivatives; once
MONITOR_BLOCK = 64 rows are pending, the run ends or it halts, one call
each of arclength_derivs, curvature_sup_proxy, kahler_defect,
laplacian_f2, cumulative_from_left and endpoint_even fills them on the
stacked states, and one comparison with RESIDUAL_GROWTH_MAX times the
first row's residuals (inf where that overflows) gates the whole block.
Every cell is bit-identical to the row-by-row call, so artifacts are
byte-identical to a row-by-row monitor's.  A run halts at the first row
that raises a floating-point error (the row is dropped) or trips the gate
(the row is kept), and the snapshots from that row's step on are dropped:
the partial results of a monitor that fills and gates one row at a time,
reached up to MONITOR_BLOCK - 1 traced rows later.
"""

import functools

from . import _lazy_import
from .analysis import FlowTrace, boundary_columns, trace_columns
from .geometry import (EVEN, BundleSpec, Jets, ProfileState, RicciFeatures,
                       Stencil, arclength_derivs, cumulative_from_left,
                       curvature_sup_proxy, endpoint_even, field_parities,
                       kahler_defect, laplacian_f2, ricci_rows,
                       stacked_derivs, stacked_parity)
from .initial_data import validate_closing

np = _lazy_import("numpy")

# A step this far below the requested horizon means the adaptive control
# has collapsed (floors approached faster than the monitors can resolve).
DT_UNDERFLOW = 1e-14
# Per-step cap on the relative change of any h^2 or f_i^2.
MAX_REL_CHANGE = 0.1
# On fine grids the relative-change cap per step is STEP_CAP dsigma^2, so
# the O(dt^2) error of RKL2 shrinks as dsigma^4 like the stencil error.
# At 80 the time error on canonical data at 64 cells is 1.2 times the
# 64/128-cell spatial gap; it grows about 4x per doubling of the cap.
STEP_CAP = 80.0
# A monitor row whose kahler_res or heat_res exceeds this multiple of the
# first row's value halts the run: healthy runs stay below about 30 (27 on
# the Calabi collapse at 48 and 400 cells), while stages sized past the
# stability edge pass 500 within a few hundred steps.
RESIDUAL_GROWTH_MAX = 100.0
# Forward-Euler stability edge of the five-point second difference with
# parity ghosts: its eigenvalues lie in [-16/3, 0] / (a dsigma)^2, so
# forward Euler is stable up to dt = (2 / (16/3)) (a dsigma)^2.  The RKL2
# stage count is sized from this step.
CFL_MAX = 0.375
# Trace rows are filled in blocks of at most this many rows.
MONITOR_BLOCK = 64
# The trace columns that the residual gate reads.
RESIDUAL_COLUMNS = ("kahler_res", "heat_res")


class FlowHalt(RuntimeError):
    """Abnormal stop during integration.

    When raised from run_flow the exception carries the partial results in
    its ``trace`` and ``snapshots`` attributes, so a caller can persist what
    was computed before the halt.
    """

    trace = None
    snapshots = None


class InvalidInitialState(ValueError):
    """Initial data rejected before any stepping was attempted."""


class FlowConfig:
    """Run parameters for the time integration.

    ``stop_floor`` is the positive level at which the run halts: when the
    smallest f_i^2 or the largest h^2 falls below it the profile is about to
    degenerate and the explicit scheme loses its meaning.  ``trace_every``
    and ``snapshot_every`` are step cadences for monitoring rows and stored
    states; the final state gets both regardless of cadence, and every
    snapshot step gets a row too.
    ``regrid_threshold`` bounds max(a)/min(a) before the optional
    resampling to uniform arclength kicks in.  The grid is the initial
    state's own, and the stage count is sized at the stability edge
    CFL_MAX, so neither is a setting.
    """

    def __init__(self, t_end=1.0, stop_floor=1e-3, snapshot_every=100,
                 regrid_threshold=10.0, trace_every=1):
        self.t_end = t_end
        self.stop_floor, self.regrid_threshold = stop_floor, regrid_threshold
        self.snapshot_every, self.trace_every = snapshot_every, trace_every
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


def _rhs_core(Y, derivs, ricci, out):
    """d/dt of Y = (a; h; f_1..f_r) from the (2, F, M) block of its sigma
    derivatives, written into ``out``: Y times the rows d/dt log Y of
    ricci_rows, which are returned."""
    rates = ricci_rows(Y, derivs, ricci)
    np.multiply(Y, rates, out=out)
    return rates


def _check_finite_rhs(ydot, t):
    """Raise FlowHalt naming the first component and cell of the stacked
    time derivative ydot that is not finite."""
    if np.isfinite(ydot).all():
        return
    names = ["a", "h"] + [f"f{i + 1}" for i in range(ydot.shape[0] - 2)]
    for name, row in zip(names, ydot):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise FlowHalt(f"non-finite flow RHS in component {name} "
                           f"at cell {bad[0]} (t = {t:.6g})")


def _stage(Y, stencil, ricci, out):
    """One RHS evaluation on the stacked array (a; h; f_1..f_r).

    Writes the stacked time derivative into ``out`` and returns it
    together with the (2, F, M) block of sigma derivatives of all rows,
    which the run loop keeps for the monitor columns of a traced step,
    and the rows d/dt log Y, from which it takes the step's rate.
    """
    derivs = stacked_derivs(Y, stencil)
    return out, derivs, _rhs_core(Y, derivs, ricci, out)


def _monitor_block(spec, block, dsigma):
    """Trace rows of a block of monitor entries.

    Each entry is (t, dt, Y, ydot, derivs) with Y the stacked state of
    the row, ydot its time derivative and derivs the block of its first
    stage's sigma derivatives.  One call per block of arclength_derivs
    and of each geometry routine on the stacked states fills the columns
    of the trace table, those of trace_columns and then the endpoint
    columns of boundary_columns, each located by its name, bit-identical
    to the same calls row by row.  The operations run in the order
    arclength jets, f_i^2, kappa, kahler_res, heat_res, extrema,
    grad_sup_i, arclength, endpoints, so a one-entry block raises the
    first floating-point error of its row in that order.
    """
    t, dt, Y, ydot, derivs = zip(*block)
    Y, ydot, derivs = np.stack(Y), np.stack(ydot), np.stack(derivs)
    u_s, u_ss = arclength_derivs(derivs[:, 0], derivs[:, 1], Y[:, 0])
    h, f = Y[:, 1], Y[:, 2:]
    jets = Jets(h=h, h_s=u_s[:, 1], h_ss=u_ss[:, 1],
                f=f, f_s=u_s[:, 2:], f_ss=u_ss[:, 2:])
    r = spec.r
    f2 = f * f
    columns = trace_columns(r) + boundary_columns(r)[1:]
    col = columns.index
    f_lo, grad, end = col("f1sq_min"), col("grad_sup_1"), col("f1sq_left")
    rows = np.empty((len(block), len(columns)))
    rows[:, col("t")] = t
    rows[:, col("dt")] = dt
    rows[:, col("kappa")] = curvature_sup_proxy(spec, jets=jets)
    rows[:, col("kahler_res")] = kahler_defect(spec, jets=jets).max(
        axis=(-2, -1))
    rows[:, col("heat_res")] = np.abs(
        2.0 * f * ydot[:, 2:] - laplacian_f2(spec, jets)
        + 2.0 * spec.k).max(axis=(-2, -1))
    rows[:, col("h_min")] = h.min(axis=-1)
    rows[:, col("h_max")] = h.max(axis=-1)
    rows[:, f_lo:f_lo + 2 * r:2] = f2.min(axis=-1)
    rows[:, f_lo + 1:f_lo + 2 * r:2] = f2.max(axis=-1)
    rows[:, grad:grad + r] = np.abs(2.0 * f * jets.f_s).max(axis=-1)
    rows[:, col("arclength")] = cumulative_from_left(Y[:, 0], dsigma,
                                                     EVEN)[1]
    rows[:, end::2], rows[:, end + 1::2] = endpoint_even(f2)
    return rows


def _dt_bound(rates, a_min, t, t_end, dsigma, dt_min):
    """Size and stage count (dt, s) of the next RKL2 step of Y = (a; h; f).

    ``rates`` are the rows d/dt log Y of the step's first stage and
    ``a_min`` is the smallest lapse, Y[0].min().  dt = min(MAX_REL_CHANGE,
    STEP_CAP dsigma^2) / rate, with rate = 2 max(|h_t/h|, |f_t/f|), or the
    forward-Euler step CFL_MAX (a_min dsigma)^2 when nothing moves.  A dt
    below dt_min means the control has collapsed and raises FlowHalt;
    after that check dt is capped at t_end - t.  s is the smallest s >= 2
    whose stability interval (s^2 + s - 2)/4 forward-Euler steps covers dt.
    The scalars are Python floats, whose overflows are silent infs: an
    infinite forward-Euler step covers any dt, so s = 2, and an infinite
    rate gives dt = 0 and the dt-underflow halt.
    """
    x = a_min * dsigma
    dt_euler = CFL_MAX * (x * x)
    peak = float(np.abs(rates[1:]).max())
    dt = dt_euler
    if peak > 0.0:
        cap = min(MAX_REL_CHANGE, STEP_CAP * dsigma * dsigma)
        dt = cap / (2.0 * peak)
    if dt < dt_min:
        raise FlowHalt(f"time step underflow: dt = {dt:.3e} at t = {t:.6g}")
    dt = min(dt, t_end - t)
    s = 2
    while (s * s + s - 2) / 4.0 * dt_euler < dt:
        s += 1
    return dt, s


@functools.lru_cache(maxsize=64)
def _rkl2_weights(s):
    """Stage weights of an s-stage RKL2 step as (fixed, per_dt) arrays of
    shape (s + 1, 5): row j of fixed + dt per_dt is the coefficient row of
    stage j over the slots of rkl2_step's buffer."""
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1))
                           for j in range(3, s + 1)]
    fixed = np.zeros((s + 1, 5))
    per_dt = np.zeros((s + 1, 5))
    per_dt[1, 3] = w1 / 3.0
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        fixed[j, 2 + (j - 1) % 3] = mu
        fixed[j, 2 + (j - 2) % 3] = -(j - 1) / j * b[j] / b[j - 2]
        per_dt[j, 1] = mu * w1
        per_dt[j, 0] = -(1.0 - b[j - 1]) * mu * w1
    fixed.flags.writeable = per_dt.flags.writeable = False
    return fixed, per_dt


def rkl2_step(Y, ydot, dt, s, rhs):
    """Advance the stacked state Y by one s-stage RKL2 step of size dt.

    ``ydot`` is the first stage, the RHS at Y, which the caller has
    already evaluated; the step makes s - 1 further calls rhs(Yj, out),
    each of which writes the RHS at Yj into ``out``.  The recursion runs
    on the increments d_j = Y_j - Y, so a zero right-hand side returns Y
    unchanged bit for bit.  One zeroed (5, F, M) buffer holds ydot, the
    latest stage RHS, which each stage writes in place, and d_j in slot
    2 + j % 3; each update
    d_j = mu d_{j-1} + nu d_{j-2} + mu_t rhs(Y + d_{j-1}) + gamma_t ydot
    is one product of a weight row with the whole buffer.  The row's zero
    entry reads the slot being overwritten, so no slot may hold garbage.
    The stage input Y + d_{j-1} is formed in one array per step.
    """
    fixed, per_dt = _rkl2_weights(s)
    weights = fixed + dt * per_dt
    buf = np.zeros((5,) + Y.shape)
    flat = buf.reshape(5, -1)
    buf[0] = ydot
    np.multiply(ydot, weights[1, 3], out=buf[3])
    stage_in, stage_out = np.empty_like(Y), buf[1]
    for j in range(2, s + 1):
        rhs(np.add(Y, buf[2 + (j - 1) % 3], out=stage_in), stage_out)
        np.dot(weights[j], flat, out=flat[2 + j % 3])
    return Y + buf[2 + s % 3]


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
    idx = centers[:, None] + np.arange(-2, 3)
    xw = x_src[idx]
    weights = np.ones_like(xw)
    # Pass m multiplies every weight j != m by (x - x_m) / (x_j - x_m).
    for m in range(5):
        j = np.arange(5) != m
        weights[:, j] *= ((x_tgt - xw[:, m])[:, None]
                          / (xw[:, j] - xw[:, m, None]))
    return (u_src[:, idx] * weights).sum(axis=-1)


def regrid_uniform(state: ProfileState) -> ProfileState:
    """Resample the profiles onto a uniform-arclength grid of the same size.

    The new gauge is a = S, constant, with S the current total arclength.
    h and the f_i are interpolated in arclength by quartic Lagrange windows
    through parity-extended samples; the time stamp is preserved.
    """
    s, total = arclength(state)
    s_ext = np.concatenate([[-s[1], -s[0]], s,
                            [2.0 * total - s[-1], 2.0 * total - s[-2]]])
    rows = np.vstack([state.h, state.f])
    ext = stacked_parity(rows, field_parities(state.r)[1:])
    s_tgt = (np.arange(state.cells) + 0.5) * (total / state.cells)
    resampled = _lagrange_resample(s_ext, ext, s_tgt)
    return ProfileState(t=state.t, a=np.full(state.cells, total),
                        h=resampled[0], f=resampled[1:])


def run_flow(spec: BundleSpec, state0: ProfileState, cfg: FlowConfig):
    """Integrate from state0 until t_end or a stop_floor breach.

    Returns (FlowTrace, snapshots).  Snapshots are stored every
    ``snapshot_every`` steps, starting with the initial state, and always
    at the final state; trace rows are appended at those steps and every
    ``trace_every`` steps, so each snapshot's time is a row time.  The
    run refuses to start (InvalidInitialState) if state0 has fewer than 8
    cells, is nonpositive, fails the smooth-closure validation or
    overflows it.  Abnormal halts (a dt underflow, a non-finite RHS, a
    floating-point overflow, a trace row whose kahler_res or heat_res
    passes RESIDUAL_GROWTH_MAX times its first-row value) raise FlowHalt
    with the partial trace and snapshots attached.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        if state0.cells < 8:
            raise InvalidInitialState(
                f"state has {state0.cells} cells; the flow needs at least 8")
        try:
            state0.validate()
            failures = [c for c in validate_closing(state0) if not c.ok]
            ricci = RicciFeatures(spec, state0.cells)
        except (ValueError, FloatingPointError) as exc:
            raise InvalidInitialState(str(exc)) from exc
        if failures:
            bad = "; ".join(f"{c.side} {c.name} (residual {c.residual:.3g})"
                            for c in failures)
            raise InvalidInitialState(f"initial data does not close: {bad}")

        dsigma = state0.dsigma
        stencil = Stencil(field_parities(spec.r), state0.cells)
        Y = np.vstack([state0.a, state0.h, state0.f])
        t = state0.t
        t_end = state0.t + cfg.t_end
        blocks, pending, snapshots = [], [], []
        step = 0

        def current_state():
            # Y is never written in place, so a snapshot shares its rows.
            return ProfileState(t=t, a=Y[0], h=Y[1], f=Y[2:])

        def rhs(Yj, out):
            _stage(Yj, stencil, ricci, out)

        dt_min = DT_UNDERFLOW * cfg.t_end
        t_stop = t_end - DT_UNDERFLOW * max(t_end, 1.0)

        def take_row(ydot, derivs, dt_col):
            # Y, ydot and derivs are fresh arrays every step, so the entry
            # holds them without copying.
            pending.append((t, dt_col, Y, ydot, derivs))
            if len(pending) == MONITOR_BLOCK:
                flush()

        def drop_snapshots_from(t_row):
            snapshots[:] = [sn for sn in snapshots if sn.t < t_row]

        gate = [trace_columns(spec.r).index(name) for name in RESIDUAL_COLUMNS]

        def keep(rows):
            # The first row whose residual tripped is the last kept; a residual
            # that starts at zero has no scale and is not gated.
            first = (blocks[0] if blocks else rows)[0, gate]
            res = rows[:, gate]
            with np.errstate(over="ignore"):
                tripped = (first > 0.0) & (res > RESIDUAL_GROWTH_MAX * first)
            hits = np.flatnonzero(tripped.any(axis=1))
            if not hits.size:
                blocks.append(rows)
                return
            i = hits[0]
            blocks.append(rows[:i + 1])
            drop_snapshots_from(rows[i, 0])
            j = tripped[i].argmax()
            raise FlowHalt(f"{RESIDUAL_COLUMNS[j]} grew to {res[i, j]:.3e} "
                           f"at t = {rows[i, 0]:.6g}, more than "
                           f"{RESIDUAL_GROWTH_MAX:g} times its initial "
                           f"{first[j]:.3e}: the integration has gone "
                           f"unstable")

        def flush():
            # Halt at the first row that raises a floating-point error (then
            # dropped) or trips the gate (kept), as a row-by-row monitor would.
            if not pending:
                return
            try:
                keep(_monitor_block(spec, pending, dsigma))
            except FloatingPointError:
                for entry in pending:
                    try:
                        filled = _monitor_block(spec, [entry], dsigma)
                    except FloatingPointError as exc:
                        drop_snapshots_from(entry[0])
                        raise FlowHalt(f"floating-point {exc} at t = "
                                       f"{entry[0]:.6g}") from exc
                    keep(filled)
            finally:
                pending.clear()

        try:
            while True:
                # One min and one max pass per step serve the regrid gate (on
                # the state the last step produced), the stop tests and dt, on
                # Python floats, whose overflows are infs the tests read right.
                lo, hi = Y.min(axis=1).tolist(), Y.max(axis=1).tolist()
                if step and hi[0] > cfg.regrid_threshold * lo[0]:
                    regridded = regrid_uniform(current_state())
                    Y = np.vstack([regridded.a, regridded.h, regridded.f])
                    lo, hi = Y.min(axis=1).tolist(), Y.max(axis=1).tolist()
                ydot, derivs, rates = _stage(Y, stencil, ricci,
                                             np.empty_like(Y))
                _check_finite_rhs(ydot, t)
                f_min, h_max = min(lo[2:]), max(abs(lo[1]), abs(hi[1]))
                stop = (t >= t_stop
                        or f_min * abs(f_min) < cfg.stop_floor
                        or h_max * h_max < cfg.stop_floor
                        or lo[0] <= 0.0)
                dt = 0.0
                if not stop:
                    try:
                        dt, s = _dt_bound(rates, lo[0], t, t_end, dsigma,
                                          dt_min)
                    except FlowHalt:
                        take_row(ydot, derivs, 0.0)
                        raise
                snap = stop or step % cfg.snapshot_every == 0
                if snap or step % cfg.trace_every == 0:
                    take_row(ydot, derivs, dt)
                if snap:
                    snapshots.append(current_state())
                if stop:
                    break

                Y = rkl2_step(Y, ydot, dt, s, rhs)
                t += dt
                step += 1
            flush()
        except (FlowHalt, FloatingPointError) as exc:
            halt = exc if isinstance(exc, FlowHalt) else FlowHalt(
                f"floating-point {exc} at t = {t:.6g}")
            try:
                flush()
            except FlowHalt as row_halt:
                halt = row_halt
            halt.trace = _assemble_trace(spec.r, blocks)
            halt.snapshots = snapshots
            raise halt

        return _assemble_trace(spec.r, blocks), snapshots


def _assemble_trace(r, blocks):
    # The trace holds Python floats: the analysis computes on them.
    return FlowTrace(r=r, rows=[row for block in blocks
                                for row in block.tolist()])
