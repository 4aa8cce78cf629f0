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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

EVEN = 1.0
ODD = -1.0

# Stencil and quadrature weights on a uniform cell-centered grid, derived
# symbolically in tools/derive_anchors.py.
END_EVEN_WEIGHTS = np.array([150.0, -25.0, 3.0]) / 128.0
HALF_CELL_ODD = np.array([625.0 / 2304.0, -37.0 / 4608.0, 13.0 / 23040.0])
HALF_CELL_EVEN = np.array([401.0 / 720.0, -31.0 / 480.0, 11.0 / 1440.0])
STEP_WEIGHTS = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
# Five-point d/dsigma (over 12 dsigma) and d^2/dsigma^2 (over 12 dsigma^2).
FIVE_POINT_WEIGHTS = np.array([[1.0, -8.0, 0.0, 8.0, -1.0],
                               [-1.0, 16.0, -30.0, 16.0, -1.0]])
# A Kahler defect above this marks ricci_kahler's output as advisory.
KAHLER_ADVISORY_TOL = 1e-6


@dataclass(frozen=True)
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
    """

    n: tuple
    k: tuple
    q: tuple
    lam: tuple = None

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        k = tuple(float(v) for v in self.k)
        q = tuple(int(v) for v in self.q)
        if len(n) < 1:
            raise ValueError("need at least one base factor")
        if not (len(n) == len(k) == len(q)):
            raise ValueError("n, k, q must have equal length")
        if any(v < 1 for v in n):
            raise ValueError("all n_i must be >= 1")
        if any(v == 0 for v in q):
            raise ValueError("all q_i must be nonzero")
        if self.lam is None:
            lam = tuple(abs(v) for v in k)
        else:
            lam = tuple(float(v) for v in self.lam)
            if len(lam) != len(n):
                raise ValueError("lam must match n in length")
            if any(v < 0 for v in lam):
                raise ValueError("all lam_i must be >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lam", lam)

    @property
    def r(self) -> int:
        """Number of base factors."""
        return len(self.n)

    def factor_arrays(self):
        """Per-factor constants as (r, 1) float columns for broadcasting."""
        shape = (self.r, 1)
        return (np.array(self.n, float).reshape(shape),
                np.array(self.k, float).reshape(shape),
                np.array(self.q, float).reshape(shape),
                np.array(self.lam, float).reshape(shape))


def cell_centers(cells: int) -> np.ndarray:
    """Cell-center coordinates (i + 1/2) / cells on (0, 1)."""
    if cells < 4:
        raise ValueError("need at least 4 cells")
    return (np.arange(cells) + 0.5) / cells


@dataclass(frozen=True)
class ProfileState:
    """Radial profile functions on a cell-centered grid at one flow time.

    Arrays: ``sigma`` holds the M cell centers, ``a`` the radial lapse
    (ds = a dsigma), ``h`` the fiber length H, and ``f`` the (r, M) conformal
    factors F_i.  Grid structure is checked on construction; positivity is
    checked by :meth:`validate` (mid-step integrator states may transiently
    be constructed before being validated).
    """

    t: float
    sigma: np.ndarray
    a: np.ndarray
    h: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, float)
        a = np.asarray(self.a, float)
        h = np.asarray(self.h, float)
        f = np.atleast_2d(np.asarray(self.f, float))
        m = sigma.size
        if m < 4:
            raise ValueError("need at least 4 cells")
        if a.shape != (m,) or h.shape != (m,):
            raise ValueError("a and h must match the grid length")
        if f.ndim != 2 or f.shape[1] != m:
            raise ValueError("f must have shape (r, cells)")
        d = 1.0 / m
        centers = (np.arange(m) + 0.5) * d
        if not np.allclose(sigma, centers, rtol=0.0, atol=1e-12):
            raise ValueError("sigma must be the uniform cell centers of (0,1)")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)

    @property
    def cells(self) -> int:
        return self.sigma.size

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

def stacked_parity(rows: np.ndarray, parity: np.ndarray,
                   out: np.ndarray = None) -> np.ndarray:
    """Parity-extend fields; rows (F, M) -> (F, M + 4), parity (F, 1)."""
    if out is None:
        out = np.empty((rows.shape[0], rows.shape[1] + 4))
    out[:, 2:-2] = rows
    np.multiply(rows[:, 1::-1], parity, out=out[:, :2])
    np.multiply(rows[:, :-3:-1], parity, out=out[:, -2:])
    return out


class Stencil:
    """Per-run workspace of ``stacked_derivs`` (F fields, M cells): parity
    column, ghosted buffer (F, M + 4) that each call overwrites, read-only
    (F, 5, M) five-point window view of it, (2, 5) weights over dsigma."""

    def __init__(self, parity: np.ndarray, cells: int, dsigma: float):
        self.parity = np.reshape(parity, (-1, 1))
        self.ghosted = np.empty((self.parity.size, cells + 4))
        row, col = self.ghosted.strides
        self.windows = as_strided(self.ghosted, (self.parity.size, 5, cells),
                                  (row, col, col), writeable=False)
        self.weights = FIVE_POINT_WEIGHTS / np.array(
            [[12.0 * dsigma], [12.0 * dsigma * dsigma]])


def stacked_derivs(rows: np.ndarray, stencil: Stencil):
    """First and second sigma-derivatives (d1, d2) of stacked fields.

    Fourth-order five-point stencils evaluated with parity ghosts; exact to
    O(dsigma^4) for fields whose smooth extension has the stated parity.
    One product of the weights with the window view gives both.
    """
    stacked_parity(rows, stencil.parity, stencil.ghosted)
    both = stencil.weights @ stencil.windows
    return both[:, 0], both[:, 1]


def arclength_derivs(d1: np.ndarray, d2: np.ndarray, a: np.ndarray):
    """Arclength (u_s, u_ss) = (u'/a, (u'' - u_s a')/a^2) from the sigma
    derivatives of stacked fields whose row 0 is a."""
    inv_a = 1.0 / a
    u_s = d1 * inv_a
    return u_s, (d2 - u_s * d1[0]) * (inv_a * inv_a)


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

    Returns (I, total) with I[i] the integral from 0 to the i-th cell center
    and ``total`` the integral over the full interval.  The half-cell pieces
    at the ends use parity-specific weights (odd fields integrate to
    O(d^6) locally, even fields to O(d^5)); interior increments use the
    four-point center-to-center rule, so the composite result is
    fourth-order accurate.
    """
    u = np.asarray(u, float)
    wh = HALF_CELL_ODD if parity == ODD else HALF_CELL_EVEN
    first = dsigma * (wh[0] * u[0] + wh[1] * u[1] + wh[2] * u[2])
    last = dsigma * (wh[0] * u[-1] + wh[1] * u[-2] + wh[2] * u[-3])
    ux = np.concatenate([[parity * u[0]], u, [parity * u[-1]]])
    inc = dsigma * (-ux[:-3] + 13.0 * ux[1:-2] + 13.0 * ux[2:-1]
                    - ux[3:]) / 24.0
    cum = np.empty(u.size)
    cum[0] = first
    np.cumsum(inc, out=cum[1:])
    cum[1:] += first
    return cum, float(cum[-1] + last)


# ----------------------------------------------------------------------
# Arclength jets.
# ----------------------------------------------------------------------

@dataclass
class Jets:
    """Values and first two arclength derivatives of the profiles.

    ``h`` has shape (M,), ``f`` shape (r, M); the suffixes _s and _ss denote
    d/ds and d^2/ds^2.  Jets can come from the grid (``profile_jets``) or be
    filled with exact analytic derivatives for closed-form profiles, which is
    how the curvature operations are exercised against symbolic values.
    """

    h: np.ndarray
    h_s: np.ndarray
    h_ss: np.ndarray
    f: np.ndarray
    f_s: np.ndarray
    f_ss: np.ndarray

    @property
    def cells(self) -> int:
        return self.h.size

    @property
    def r(self) -> int:
        return self.f.shape[0]


def field_parities(r: int) -> np.ndarray:
    """Parity column for the stacked field order (a, h, f_1..f_r)."""
    return np.array([EVEN, ODD] + [EVEN] * r).reshape(r + 2, 1)


def profile_jets(state: ProfileState) -> Jets:
    """Arclength jets of a state, by the same kernel as a flow stage."""
    rows = np.vstack([state.a[None, :], state.h[None, :], state.f])
    stencil = Stencil(field_parities(state.r), state.cells, state.dsigma)
    u_s, u_ss = arclength_derivs(*stacked_derivs(rows, stencil), state.a)
    return Jets(h=state.h, h_s=u_s[1], h_ss=u_ss[1],
                f=state.f, f_s=u_s[2:], f_ss=u_ss[2:])


# ----------------------------------------------------------------------
# Curvature.
# ----------------------------------------------------------------------

@dataclass
class RicciComponents:
    """Diagonal Ricci data in the canonical frame.

    ``nn`` is Ric(nu, nu), ``zz`` is Ric(zhat, zhat), and ``horiz`` holds the
    per-factor horizontal coefficients rho_i with respect to g_i (so the
    horizontal block is rho_i pi_i^* g_i).  ``advisory`` is set by the
    Kahler-form evaluation when the state is too far from Kahler for the
    simplified expressions to be trustworthy.
    """

    nn: object
    zz: object
    horiz: object
    advisory: bool = False


def ricci_coefficients(spec: BundleSpec):
    """Factor constants of ricci_rows: 2 n_i, n_i, q_i^2 / 2, k_i."""
    n_col, k_col, q_col, _ = spec.factor_arrays()
    return 2.0 * n_col[:, 0], n_col[:, 0], 0.5 * q_col * q_col, k_col


def ricci_rows(u, u_s, u_ss, coef):
    """Ricci curvature of the full metric from stacked jets.

    ``u`` holds the rows (h; f_1..f_r), ``u_s`` and ``u_ss`` their
    arclength derivatives and ``coef`` the output of ricci_coefficients.
    Returns the stacked rows (Ric_nn; Ric_zz; rho_i / f_i^2), with

        Ric(nu, nu)     = -h_ss/h - sum 2 n_i f_i,ss/f_i
        Ric(zhat, zhat) = sum n_i q_i^2 h^2/(2 f_i^4)
                          - (h_s/h) sum 2 n_i f_i,s/f_i - h_ss/h
        rho_i / f_i^2   = k_i/f_i^2 - (f_i,s/f_i) tr L - f_i,ss/f_i
                          + (f_i,s/f_i)^2 - q_i^2 h^2/(2 f_i^4)

    and tr L = h_s/h + sum 2 n_j f_j,s/f_j.  Both the flow right-hand side
    and ricci_full come from here; 1/f^4 is formed as (1/f^2)^2.
    """
    two_n, n, half_q2, k = coef
    inv = 1.0 / u
    shape = u_s * inv                   # h_s/h; f_i,s/f_i
    curv = u_ss * inv                   # h_ss/h; f_i,ss/f_i
    shape_f = shape[1:]
    inv_f2 = inv[1:] * inv[1:]
    fsum = two_n @ shape_f              # tr L - h_s/h
    twist = half_q2 * (u[0] * u[0]) * inv_f2 * inv_f2
    return -np.vstack([
        curv[0] + two_n @ curv[1:], curv[0] + shape[0] * fsum - n @ twist,
        curv[1:] + shape_f * (shape[0] + fsum - shape_f) + twist - k * inv_f2])


def _trace_l(n, j: Jets) -> np.ndarray:
    """Mean-curvature trace tr L = h_s/h + sum 2 n_i f_i,s/f_i."""
    return j.h_s / j.h + (2.0 * n * j.f_s / j.f).sum(axis=0)


def laplacian_f2(spec: BundleSpec, jets: Jets) -> np.ndarray:
    """Laplacian of every f_i^2 directly from arclength jets, shape (r, M)."""
    n = spec.factor_arrays()[0]
    f, f_s, f_ss = jets.f, jets.f_s, jets.f_ss
    return (2.0 * f * f_ss + 2.0 * f_s ** 2
            + _trace_l(n, jets) * 2.0 * f * f_s)


def ricci_full(spec: BundleSpec, jets: Jets) -> RicciComponents:
    """Ricci curvature of the full metric in the canonical frame.

    Valid for Kahler and non-Kahler profiles alike; the formulas are those
    of ricci_rows, with rho_i the horizontal coefficient with respect to
    g_i.  All mixed components vanish identically.  Non-finite output
    signals an invalid profile (for example h <= 0 at an interior cell).
    """
    rows = ricci_rows(np.vstack([jets.h, jets.f]),
                      np.vstack([jets.h_s, jets.f_s]),
                      np.vstack([jets.h_ss, jets.f_ss]),
                      ricci_coefficients(spec))
    return RicciComponents(nn=rows[0], zz=rows[1],
                           horiz=rows[2:] * jets.f ** 2)


def kahler_defect(spec: BundleSpec, jets: Jets) -> np.ndarray:
    """Pointwise violation |q_i h - d(f_i^2)/ds| of the Kahler condition.

    Shape (r, M); identically zero exactly when the metric is Kahler for the
    bundle complex structure.
    """
    q = spec.factor_arrays()[2]
    return np.abs(q * jets.h - 2.0 * jets.f * jets.f_s)


def ricci_kahler(spec: BundleSpec, jets: Jets) -> RicciComponents:
    """Ricci curvature via the Kahler-form simplifications.

        Ric(nu, nu) = Ric(zhat, zhat) = -lap log H + sum 2 n_i |grad log F_i|^2
        horizontal coefficient          = k_i - lap(F_i^2) / 2

    These expressions assume q_i H = (F_i^2)_s.  When the measured defect
    exceeds KAHLER_ADVISORY_TOL the result is still returned but flagged
    ``advisory=True``; it then has no curvature meaning and should only be
    used for residual monitoring.
    """
    j = jets
    n, k, _, _ = spec.factor_arrays()
    shape_h = j.h_s / j.h
    shape_f = j.f_s / j.f
    lap_log_h = (j.h_ss / j.h - shape_h ** 2) + _trace_l(n, j) * shape_h
    mixed = -lap_log_h + (2.0 * n * shape_f ** 2).sum(axis=0)
    horiz = k - 0.5 * laplacian_f2(spec, j)
    advisory = bool(kahler_defect(spec, j).max() > KAHLER_ADVISORY_TOL)
    return RicciComponents(nn=mixed, zz=mixed.copy(), horiz=horiz,
                           advisory=advisory)


def curvature_sup_proxy(spec: BundleSpec, jets: Jets) -> float:
    """Computable surrogate for the sup over M of |Rm|.

    Maximum over cells and factor indices of
      |H''/H|, |F_i''/F_i|, |q_i^2 H^2/(4 F_i^4) - (H'/H)(F_i'/F_i)|,
      lam_i/F_i^2 + 3 q_i^2 H^2/(4 F_i^4) + (F_i'/F_i)^2,
      |F_i' F_j' / (F_i F_j)| for i != j,
    which covers every sectional class of the ansatz up to dimensional
    constants.  Under the metric rescaling (a, h, f) -> sqrt(K) (a, h, f)
    the proxy divides by K, as curvature must.
    """
    j = jets
    if spec.r != j.r:
        raise ValueError("spec and jets disagree on the number of factors")
    _, _, q, lam = spec.factor_arrays()
    shape_h = j.h_s / j.h
    shape_f = j.f_s / j.f
    twist = q ** 2 * j.h ** 2 / (2.0 * j.f ** 4)
    kap = np.abs(j.h_ss / j.h)
    np.maximum(kap, np.abs(j.f_ss / j.f).max(axis=0), out=kap)
    np.maximum(kap, np.abs(0.5 * twist - shape_h * shape_f).max(axis=0),
               out=kap)
    np.maximum(kap, (lam / j.f ** 2 + 1.5 * twist + shape_f ** 2).max(axis=0),
               out=kap)
    r = shape_f.shape[0]
    if r > 1:
        cross = np.abs(shape_f[:, None, :] * shape_f[None, :, :])
        off = ~np.eye(r, dtype=bool)
        np.maximum(kap, cross[off].max(axis=0), out=kap)
    bad = ~np.isfinite(kap)
    if bad.any():
        raise ValueError(
            f"non-finite curvature proxy at cell {int(np.argmax(bad))}")
    return float(kap.max())

