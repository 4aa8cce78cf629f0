"""Closed-form curvature of the circle-bundle ansatz.

The metric under study is

    g = ds^2 + H(s)^2 eta (x) eta + sum_i F_i(s)^2 pi_i^* g_i

on an interval times a principal circle bundle P over a product of
Kahler-Einstein manifolds (N_i, g_i), with Ric(g_i) = k_i g_i and connection
form eta twisted by  d eta = sum_i q_i pi_i^* omega_i.  Profiles are stored
against a fixed coordinate sigma in (0, 1) with ds = a dsigma, and every
tensor is reported in the canonical orthonormal frame

    { nu = d/ds,  zhat = unit fiber direction,  horizontal blocks per N_i },

in which all curvature operators of this family are block diagonal.  The
mixed Ricci components Ric(X, nu), Ric(X, zhat) and Ric(nu, zhat) vanish
identically and are never stored.

Numerics: the grid is cell centered (no node sits at sigma = 0 or 1, which
keeps H''/H-type quotients finite), derivatives are fourth-order centered
differences with two ghost cells per side filled by parity reflection about
each interval end (h odd; a and the f_i even).  That reflection realizes the
smooth-closure endpoint behavior of the family: H and its even s-derivatives
vanish at the ends while the F_i have vanishing odd derivatives there.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import _lazy_import

np = _lazy_import("numpy")

EVEN = 1.0
ODD = -1.0

# Stencil and quadrature weights on a uniform cell-centered grid, derived
# symbolically in tools/derive_anchors.py.  They are float tuples, so that
# importing the package touches no numpy; the tables used as matrices
# become arrays where a Stencil is built and in validate_closing.
END_EVEN_WEIGHTS = (150.0 / 128.0, -25.0 / 128.0, 3.0 / 128.0)
HALF_CELL_ODD = (625.0 / 2304.0, -37.0 / 4608.0, 13.0 / 23040.0)
HALF_CELL_EVEN = (401.0 / 720.0, -31.0 / 480.0, 11.0 / 1440.0)
# Five-point d/dsigma (over 12 dsigma) and d^2/dsigma^2 (over 12 dsigma^2).
FIVE_POINT_WEIGHTS = ((1.0, -8.0, 0.0, 8.0, -1.0),
                      (-1.0, 16.0, -30.0, 16.0, -1.0))
# The quartic through the five centers nearest an end, read off at the end:
# its value, dsigma times its inward slope, and its values at the ghost
# centers dsigma/2 and 3 dsigma/2 beyond the end.
END_QUARTIC = ((315 / 128, -105 / 32, 189 / 64, -45 / 32, 35 / 128),
               (-31 / 8, 229 / 24, -75 / 8, 37 / 8, -11 / 12),
               (5.0, -10.0, 10.0, -5.0, 1.0),
               (15.0, -40.0, 45.0, -24.0, 5.0))


class BundleSpec:
    """Discrete data of the bundle: base factors and circle twisting.

    Parameters
    ----------
    n : sequence of int
        Complex dimension of each Kahler-Einstein base factor N_i (>= 1).
    k : sequence of float
        Einstein constants, Ric(g_i) = k_i g_i.
    q : sequence of int
        Twisting integers of the circle bundle; all nonzero.
    lam : sequence of float, optional
        Bound on |Rm(N_i)| in the g_i norm, used by the sup-curvature proxy.
        Defaults to |k_i| per factor, which has the right order of magnitude
        for Einstein factors but is a heuristic; supply measured bounds when
        available.

    Each is stored as a read-only (r, 1) float column, the fields ``n``,
    ``k``, ``q`` and ``lam``, which broadcast against (r, M) rows.
    """

    def __init__(self, n, k, q, lam=None):
        n = tuple(int(v) for v in n)
        k = tuple(float(v) for v in k)
        q = tuple(int(v) for v in q)
        if len(n) < 1:
            raise ValueError("need at least one base factor")
        if not (len(n) == len(k) == len(q)):
            raise ValueError("n, k, q must have equal length")
        if any(v < 1 for v in n):
            raise ValueError("all n_i must be >= 1")
        if any(v == 0 for v in q):
            raise ValueError("all q_i must be nonzero")
        if lam is None:
            lam = tuple(abs(v) for v in k)
        else:
            lam = tuple(float(v) for v in lam)
            if len(lam) != len(n):
                raise ValueError("lam must match n in length")
            if any(v < 0 for v in lam):
                raise ValueError("all lam_i must be >= 0")
        columns = [np.array(v, float).reshape(-1, 1) for v in (n, k, q, lam)]
        for col in columns:
            col.flags.writeable = False
        self.n, self.k, self.q, self.lam = columns

    @property
    def r(self) -> int:
        """Number of base factors."""
        return len(self.n)


def cell_centers(cells: int) -> np.ndarray:
    """Cell-center coordinates (i + 1/2) / cells on (0, 1)."""
    if cells < 4:
        raise ValueError("need at least 4 cells")
    return (np.arange(cells) + 0.5) / cells


class ProfileState:
    """Radial profile functions on a cell-centered grid at one flow time.

    Arrays: ``a`` holds the radial lapse (ds = a dsigma) at the M cell
    centers cell_centers(M), M = len(a) >= 4, ``h`` the fiber length H, and
    ``f`` the (r, M) conformal factors F_i.  Shapes are checked on
    construction; positivity is checked by :meth:`validate` (mid-step
    integrator states may transiently be constructed before being
    validated).
    """

    def __init__(self, t, a, h, f):
        a = np.asarray(a, float)
        h = np.asarray(h, float)
        f = np.atleast_2d(np.asarray(f, float))
        if a.ndim != 1 or h.shape != a.shape:
            raise ValueError("a and h must be rows of one length")
        if f.ndim != 2 or f.shape[1] != a.size:
            raise ValueError("f must have shape (r, cells)")
        if a.size < 4:
            raise ValueError("need at least 4 cells")
        self.t = float(t)
        self.a, self.h, self.f = a, h, f

    @property
    def cells(self) -> int:
        return self.a.size

    @property
    def r(self) -> int:
        return self.f.shape[0]

    @property
    def dsigma(self) -> float:
        return 1.0 / self.cells

    def validate(self):
        """Raise ValueError if positivity or finiteness fails anywhere."""
        for name, arr in (("a", self.a), ("h", self.h), ("f", self.f)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        if np.any(self.a <= 0.0):
            raise ValueError("lapse a must be positive")
        if np.any(self.f <= 0.0):
            raise ValueError("conformal factors f must be positive")
        if np.any(self.h <= 0.0):
            raise ValueError("fiber length h must be positive at cell centers")


# ----------------------------------------------------------------------
# Grid calculus: parity ghosts, stencils, endpoint values, quadrature.
# ----------------------------------------------------------------------

def _ghosts(parity: np.ndarray, cells: int):
    """Gather index (M + 4,) and sign array (F, M + 4) of the parity
    extension: column j of the extension is sign[:, j] * rows[:, index[j]]."""
    index = np.concatenate([[1, 0], np.arange(cells), [cells - 1, cells - 2]])
    sign = np.ones((parity.size, cells + 4))
    sign[:, :2] = sign[:, -2:] = np.reshape(parity, (-1, 1))
    return index, sign


def stacked_parity(rows: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """Parity-extend fields; rows (F, M) -> (F, M + 4), parity (F, 1)."""
    index, sign = _ghosts(parity, rows.shape[1])
    return rows[:, index] * sign


class Stencil:
    """Per-run workspace of ``stacked_derivs`` (F fields, M cells): gather
    index and sign array of the parity ghosts, ghosted buffer (F, M + 4)
    that each call overwrites, read-only (F, 5, M) five-point window view
    of it, (2, 5) weights over dsigma = 1 / cells."""

    def __init__(self, parity: np.ndarray, cells: int):
        dsigma = 1.0 / cells
        self.index, self.sign = _ghosts(parity, cells)
        self.ghosted = np.empty(self.sign.shape)
        fields = self.sign.shape[0]
        row, col = self.ghosted.strides
        self.windows = np.lib.stride_tricks.as_strided(
            self.ghosted, (fields, 5, cells), (row, col, col),
            writeable=False)
        self.weights = np.array(FIVE_POINT_WEIGHTS) / np.array(
            [[12.0 * dsigma], [12.0 * dsigma * dsigma]])


def stacked_derivs(rows: np.ndarray, stencil: Stencil) -> np.ndarray:
    """First and second sigma-derivatives of stacked fields, as one
    (2, F, M) block: block[0] holds d/dsigma of every row, block[1]
    d^2/dsigma^2.

    Fourth-order five-point stencils evaluated with parity ghosts; exact to
    O(dsigma^4) for fields whose smooth extension has the stated parity.
    One gather and one sign product fill the ghosted buffer, and one
    product of the weights with its window view gives both derivatives.
    The product is written into a fresh contiguous block, so elementwise
    work on it, or on either derivative, skips numpy's strided loops.
    """
    ghosted = stencil.ghosted
    rows.take(stencil.index, axis=1, out=ghosted, mode="clip")
    np.multiply(ghosted, stencil.sign, out=ghosted)
    block = np.empty((2,) + rows.shape)
    np.matmul(stencil.weights, stencil.windows, out=block.transpose(1, 0, 2))
    return block


def arclength_derivs(d1: np.ndarray, d2: np.ndarray, a: np.ndarray):
    """Arclength (u_s, u_ss) = (u'/a, (u'' - u_s a')/a^2) from the sigma
    derivatives (F, M) of stacked fields whose row 0 is a, shape (M,).
    Leading batch axes, d1 (K, F, M) and a (K, M), pass through, each
    entry bit-identical to the one-stack call."""
    inv_a = 1.0 / a[..., None, :]
    u_s = d1 * inv_a
    return u_s, (d2 - u_s * d1[..., :1, :]) * (inv_a * inv_a)


def endpoint_even(u: np.ndarray):
    """Extrapolate even-parity cell fields to the interval ends.

    Fits c0 + c2 x^2 + c4 x^4 through the three cells nearest each end,
    along the last axis; returns (left values, right values), scalars for
    a single field.
    """
    w = END_EVEN_WEIGHTS
    left = w[0] * u[..., 0] + w[1] * u[..., 1] + w[2] * u[..., 2]
    right = w[0] * u[..., -1] + w[1] * u[..., -2] + w[2] * u[..., -3]
    return left, right


def cumulative_from_left(u: np.ndarray, dsigma: float, parity: float):
    """Cumulative integral of a cell field from sigma = 0.

    Returns (I, total) with I[..., i] the integral from 0 to the i-th cell
    center and ``total`` the integral over the full interval, along the
    last axis: a float for a single field, an array over any leading batch
    axes, each entry bit-identical to the single-field call.  The
    half-cell pieces at the ends use parity-specific weights (odd fields
    integrate to O(d^6) locally, even fields to O(d^5)); interior
    increments use the four-point center-to-center rule, so the composite
    result is fourth-order accurate.  arclength_row is the numpy-free
    form of the even single-field call that plot uses.
    """
    u = np.asarray(u, float)
    wh = HALF_CELL_ODD if parity == ODD else HALF_CELL_EVEN
    first = dsigma * (wh[0] * u[..., 0] + wh[1] * u[..., 1]
                      + wh[2] * u[..., 2])
    last = dsigma * (wh[0] * u[..., -1] + wh[1] * u[..., -2]
                     + wh[2] * u[..., -3])
    ux = np.concatenate([parity * u[..., :1], u, parity * u[..., -1:]],
                        axis=-1)
    inc = dsigma * (-ux[..., :-3] + 13.0 * ux[..., 1:-2]
                    + 13.0 * ux[..., 2:-1] - ux[..., 3:]) / 24.0
    cum = np.empty(u.shape)
    cum[..., 0] = first
    np.cumsum(inc, axis=-1, out=cum[..., 1:])
    cum[..., 1:] += first[..., None]
    total = cum[..., -1] + last
    return cum, float(total) if u.ndim == 1 else total


def arclength_row(a):
    """Cell-center arclengths of the lapse row a, as a list of floats.

    Bit-identical to cumulative_from_left(a, 1 / len(a), EVEN)[0]: the same
    weights and order of operations, and the sequential running sum of
    np.cumsum.  An overflow gives inf or nan entries, not an error.
    """
    u = [float(v) for v in a]
    dsigma = 1.0 / len(u)
    wh = HALF_CELL_EVEN
    first = dsigma * (wh[0] * u[0] + wh[1] * u[1] + wh[2] * u[2])
    ux = u[:1] + u + u[-1:]
    inc = (dsigma * (-u0 + 13.0 * u1 + 13.0 * u2 - u3) / 24.0
           for u0, u1, u2, u3 in zip(ux, ux[1:], ux[2:], ux[3:]))
    return [first] + [c + first for c in accumulate(inc)]


# ----------------------------------------------------------------------
# Arclength jets.
# ----------------------------------------------------------------------

class Jets(namedtuple("Jets", "h h_s h_ss f f_s f_ss")):
    """Values and first two arclength derivatives of the profiles.

    ``h`` has shape (M,), ``f`` shape (r, M); the suffixes _s and _ss denote
    d/ds and d^2/ds^2.  Jets can come from the grid (the arclength
    derivatives of a flow stage) or be filled with exact analytic
    derivatives for closed-form profiles, which is how the curvature
    operations are exercised against symbolic values.
    ``curvature_sup_proxy``, ``kahler_defect`` and ``laplacian_f2`` also
    take the jets of a stack of K states, h (K, M) and f (K, r, M).
    """

    __slots__ = ()

    @property
    def r(self) -> int:
        return self.f.shape[-2]


def field_parities(r: int) -> np.ndarray:
    """Parity column for the stacked field order (a, h, f_1..f_r)."""
    return np.array([EVEN, ODD] + [EVEN] * r).reshape(r + 2, 1)


# ----------------------------------------------------------------------
# Curvature.
# ----------------------------------------------------------------------

def ricci_coefficients(spec: BundleSpec) -> np.ndarray:
    """The constant matrix of ricci_rows, the flow's minus sign included.

    Its K = 2F + (r+1) F + r + F columns, F = r + 2, act on the features
    that ricci_rows fills from Y = (a; h; f_1..f_r) and its sigma
    derivatives, with u = (h; f_1..f_r), s = u_s/u and t = (1, 2 n_1, ..,
    2 n_r), so that tr L = t . s.  Before the sign flip the entries are
    the coefficients of ricci_rows' formulas:

        Y'/Y              F columns    unused
        Y''/Y / a^2       F columns    a''/a unused; on u_m''/u_m:
                                       Ric_nn: -t_m;  Ric_zz: -1 (m = 0);
                                       rho_m/f_m^2: -1 (m > 0)
        (u'/u)_m (Y'/Y)_j (r+1) F,     j = 0, -(u'/u)(a'/a) of u_ss/u: minus
        / a^2             m major      the u_m''/u_m column; j > 0, s_m s_j
                                       on the row of u_m (Ric_zz for m = 0,
                                       rho_m/f_m^2 else): delta_mj - t_j
        h^2/f_i^4         r columns    Ric_zz: n_i q_i^2/2;
                                       rho_i/f_i^2: -q_i^2/2
        1/Y^2             F columns    1/a^2, 1/h^2 unused;
                                       on 1/f_i^2, rho_i/f_i^2: k_i

    The unused columns are zero: ricci_rows fills them because the
    products that hold them fill whole blocks.  The F x K result maps
    the features to d/dt log (a; h; f_i); RicciFeatures holds it.
    """
    n, k, q = spec.n[:, 0], spec.k[:, 0], spec.q[:, 0]
    r1 = spec.r + 1
    fields = r1 + 1
    ss = 2 * fields                     # first (u'/u)_m (Y'/Y)_j column
    tw = ss + r1 * fields               # first h^2/f_i^4 column
    t = np.concatenate([[1.0], 2.0 * n])
    half_q2 = 0.5 * q * q
    ricci = np.zeros((fields, tw + spec.r + fields))
    lap = ricci[:, fields + 1:ss]       # the u''/u columns
    lap[0] = -t
    lap[1:] = -np.eye(r1)
    products = np.zeros((fields, r1, fields))
    products[:, :, 0] = -lap
    for m in range(r1):
        products[1 + m, m, 1:] = np.eye(r1)[m] - t
    ricci[:, ss:tw] = products.reshape(fields, -1)
    ricci[1, tw:tw + r1 - 1] = n * half_q2
    ricci[2:, tw:tw + r1 - 1] = -np.diag(half_q2)
    ricci[2:, -(r1 - 1):] = np.diag(k)
    return -ricci


class RicciFeatures:
    """Per-run workspace of ``ricci_rows`` for the stacked states of one
    spec on M cells: the constant (F, K) matrix ``coef`` of
    ricci_coefficients, F = r + 2, and the (K, M) feature buffer that
    each call overwrites, with the views of it that the call writes
    through, made once."""

    def __init__(self, spec: BundleSpec, cells: int):
        self.coef = ricci_coefficients(spec)
        fields = spec.r + 2
        ss = 2 * fields                 # first (u'/u)_m (Y'/Y)_j row
        tw = ss + (fields - 1) * fields  # first h^2/f_i^4 row
        self.buffer = np.empty((self.coef.shape[1], cells))
        log_d = self.buffer[:ss].reshape(2, fields, cells)
        inv2 = self.buffer[-fields:]
        self.views = (
            log_d, log_d[0, 1:, None], log_d[0],
            self.buffer[ss:tw].reshape(fields - 1, fields, cells),
            inv2, self.buffer[fields:tw], inv2[0], inv2[2:],
            self.buffer[tw:-fields])


def ricci_rows(Y, derivs, ricci: RicciFeatures):
    """Minus the Ricci curvature of the full metric, from a stacked state.

    ``Y`` holds the rows (a; h; f_1..f_r), ``derivs`` their first and
    second sigma derivatives as the (2, F, M) block of stacked_derivs and
    ``ricci`` the workspace of the spec and grid.  Returns the stacked
    rows -(Ric_nn; Ric_zz; rho_i / f_i^2) = d/dt log (a; h; f_i), with

        Ric(nu, nu)     = -h_ss/h - sum 2 n_i f_i,ss/f_i
        Ric(zhat, zhat) = sum n_i q_i^2 h^2/(2 f_i^4)
                          - (h_s/h) sum 2 n_i f_i,s/f_i - h_ss/h
        rho_i / f_i^2   = k_i/f_i^2 - (f_i,s/f_i) tr L - f_i,ss/f_i
                          + (f_i,s/f_i)^2 - q_i^2 h^2/(2 f_i^4)

    and tr L = h_s/h + sum 2 n_j f_j,s/f_j.  With the chain rule for
    ds = a dsigma,

        u_s/u = (u'/u) / a,    u_ss/u = (u''/u - (u'/u)(a'/a)) / a^2,

    every row is linear in the features of ricci_coefficients.  Five
    products fill them: Y'/Y and Y''/Y as one product of the block with
    1/Y, every (u'/u)(Y'/Y) as one outer product, 1/Y^2, and h^2/f_i^4
    as the square of h times 1/f_i^2.  One scaling by 1/a^2 and one
    product with the coefficient matrix then give every row, in eight
    numpy calls.
    """
    (log_d, log_u, log_y, products, inv2, scaled, inv_a2, inv_f2,
     twist2) = ricci.views
    inv = 1.0 / Y
    np.multiply(derivs, inv, out=log_d)
    np.multiply(log_u, log_y, out=products)
    np.multiply(inv, inv, out=inv2)
    np.multiply(scaled, inv_a2, out=scaled)
    twist = Y[1] * inv_f2               # h/f_i^2
    np.multiply(twist, twist, out=twist2)
    return np.dot(ricci.coef, ricci.buffer)


def _trace_l(n, j: Jets) -> np.ndarray:
    """Mean-curvature trace tr L = h_s/h + sum 2 n_i f_i,s/f_i."""
    return j.h_s / j.h + (2.0 * n * j.f_s / j.f).sum(axis=-2)


def laplacian_f2(spec: BundleSpec, jets: Jets) -> np.ndarray:
    """Laplacian of every f_i^2 directly from arclength jets, shape (r, M)
    for one state and (K, r, M) for a stack, each entry bit-identical to
    the one-state call."""
    f, f_s, f_ss = jets.f, jets.f_s, jets.f_ss
    return (2.0 * f * f_ss + 2.0 * f_s ** 2
            + _trace_l(spec.n, jets)[..., None, :] * 2.0 * f * f_s)


def kahler_defect(spec: BundleSpec, jets: Jets) -> np.ndarray:
    """Pointwise violation |q_i h - d(f_i^2)/ds| of the Kahler condition.

    Shape (r, M), or (K, r, M) for a stack, each entry bit-identical to the
    one-state call; identically zero exactly when the metric is Kahler for
    the bundle complex structure.
    """
    return np.abs(spec.q * jets.h[..., None, :] - 2.0 * jets.f * jets.f_s)


def curvature_sup_proxy(spec: BundleSpec, jets: Jets):
    """Computable surrogate for the sup over M of |Rm|.

    Maximum over cells and factor indices of
      |H''/H|, |F_i''/F_i|, |q_i^2 H^2/(4 F_i^4) - (H'/H)(F_i'/F_i)|,
      lam_i/F_i^2 + 3 q_i^2 H^2/(4 F_i^4) + (F_i'/F_i)^2,
      |F_i' F_j' / (F_i F_j)| for i != j,
    which covers every sectional class of the ansatz up to dimensional
    constants.  Under the metric rescaling (a, h, f) -> sqrt(K) (a, h, f)
    the proxy divides by K, as curvature must.  Returns a float for jets
    of one state; jets with leading batch axes, h (K, M) and f (K, r, M),
    give an array of K values, each bit-identical to the one-state call.
    """
    j = jets
    if spec.r != j.r:
        raise ValueError("spec and jets disagree on the number of factors")
    shape_h = j.h_s / j.h
    shape_f = j.f_s / j.f
    twist = spec.q ** 2 * j.h[..., None, :] ** 2 / (2.0 * j.f ** 4)
    kap = np.abs(j.h_ss / j.h)
    np.maximum(kap, np.abs(j.f_ss / j.f).max(axis=-2), out=kap)
    np.maximum(kap, np.abs(0.5 * twist
                           - shape_h[..., None, :] * shape_f).max(axis=-2),
               out=kap)
    np.maximum(kap, (spec.lam / j.f ** 2 + 1.5 * twist
                     + shape_f ** 2).max(axis=-2), out=kap)
    r = spec.r
    if r > 1:
        cross = np.abs(shape_f[..., :, None, :] * shape_f[..., None, :, :])
        off = ~np.eye(r, dtype=bool)
        np.maximum(kap, cross[..., off, :].max(axis=-2), out=kap)
    bad = ~np.isfinite(kap)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        where = f"cell {int(at[-1])}"
        if len(at) > 1:
            where += f" of stack entry {tuple(int(i) for i in at[:-1])}"
        raise ValueError(f"non-finite curvature proxy at {where}")
    sup = kap.max(axis=-1)
    return float(sup) if sup.ndim == 0 else sup

