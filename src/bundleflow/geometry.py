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

EVEN = 1.0
ODD = -1.0

# Stencil and quadrature weights on a uniform cell-centered grid, derived
# symbolically in tools/derive_anchors.py.
END_EVEN_WEIGHTS = np.array([150.0, -25.0, 3.0]) / 128.0
HALF_CELL_ODD = np.array([625.0 / 2304.0, -37.0 / 4608.0, 13.0 / 23040.0])
HALF_CELL_EVEN = np.array([401.0 / 720.0, -31.0 / 480.0, 11.0 / 1440.0])
STEP_WEIGHTS = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0


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
        Bound on |Rm(N_i)| in the g_i norm, used by the horizontal curvature
        estimate and the sup-curvature proxy.  Defaults to |k_i| per factor,
        which has the right order of magnitude for Einstein factors but is a
        heuristic; supply measured bounds when available.
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

    @property
    def dim(self) -> int:
        """Total real dimension: interval + circle fiber + base factors."""
        return 2 + 2 * sum(self.n)

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

    def with_fields(self, t=None, a=None, h=None, f=None) -> "ProfileState":
        """Copy with some fields replaced (grid is kept)."""
        return ProfileState(
            t=self.t if t is None else t,
            sigma=self.sigma,
            a=self.a if a is None else a,
            h=self.h if h is None else h,
            f=self.f if f is None else f,
        )


# ----------------------------------------------------------------------
# Grid calculus: parity ghosts, stencils, endpoint values, quadrature.
# ----------------------------------------------------------------------

def stacked_parity(rows: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """Parity-extend several fields at once; rows (F, M) -> (F, M + 4)."""
    nf, m = rows.shape
    out = np.empty((nf, m + 4))
    out[:, 2:-2] = rows
    p = parity.reshape(nf)
    out[:, 0] = p * rows[:, 1]
    out[:, 1] = p * rows[:, 0]
    out[:, -2] = p * rows[:, -1]
    out[:, -1] = p * rows[:, -2]
    return out


def stacked_derivs(rows: np.ndarray, parity: np.ndarray, dsigma: float):
    """First and second sigma-derivatives of stacked fields.

    Fourth-order five-point stencils evaluated with parity ghosts; exact to
    O(dsigma^4) for fields whose smooth extension has the stated parity.
    """
    e = stacked_parity(rows, parity)
    d1 = (e[..., :-4] - 8.0 * e[..., 1:-3]
          + 8.0 * e[..., 3:-1] - e[..., 4:]) / (12.0 * dsigma)
    d2 = (-e[..., :-4] + 16.0 * e[..., 1:-3] - 30.0 * e[..., 2:-2]
          + 16.0 * e[..., 3:-1] - e[..., 4:]) / (12.0 * dsigma * dsigma)
    return d1, d2


def diff_sigma(u: np.ndarray, parity: float, dsigma: float):
    """Sigma-derivatives (u', u'') of a single cellwise field."""
    d1, d2 = stacked_derivs(np.asarray(u, float)[None, :],
                            np.array([parity]), dsigma)
    return d1[0], d2[0]


def endpoint_even(u: np.ndarray):
    """Extrapolate an even-parity cell field to the interval ends.

    Fits c0 + c2 x^2 + c4 x^4 through the three cells nearest each end;
    returns (left value, right value).
    """
    w = END_EVEN_WEIGHTS
    left = w[0] * u[0] + w[1] * u[1] + w[2] * u[2]
    right = w[0] * u[-1] + w[1] * u[-2] + w[2] * u[-3]
    return float(left), float(right)


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
    """Arclength jets of a state by parity finite differences.

    The sigma-derivatives are converted with ds = a dsigma:
    u_s = u'/a and u_ss = u''/a^2 - u' a'/a^3.
    """
    rows = np.vstack([state.a[None, :], state.h[None, :], state.f])
    d1, d2 = stacked_derivs(rows, field_parities(state.r), state.dsigma)
    a = state.a
    inv_a = 1.0 / a
    inv_a2 = inv_a * inv_a
    chain = d1[0] * inv_a2 * inv_a      # a' / a^3
    h_s = d1[1] * inv_a
    h_ss = d2[1] * inv_a2 - d1[1] * chain
    f_s = d1[2:] * inv_a
    f_ss = d2[2:] * inv_a2 - d1[2:] * chain
    return Jets(h=state.h, h_s=h_s, h_ss=h_ss,
                f=state.f, f_s=f_s, f_ss=f_ss)


def _resolve_jets(state, jets):
    if jets is not None:
        return jets
    if state is None:
        raise ValueError("need a state or precomputed jets")
    return profile_jets(state)


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


@dataclass
class CurvatureField:
    """Pointwise curvature and estimate quantities over all cells.

    Shapes: (M,) for scalar slots, (r, M) for per-factor slots.  Mixed-frame
    Ricci components vanish identically for this family and have no slots.
    """

    shape_h: np.ndarray          # H'/H, shape operator eigenvalue on zhat
    shape_f: np.ndarray          # F_i'/F_i, eigenvalue on each N_i block
    shape_rate_h: np.ndarray     # d/ds of H'/H
    shape_rate_f: np.ndarray     # d/ds of F_i'/F_i
    sub_fiber: np.ndarray        # submersion Ric(zeta*, zeta*) on {s} x P
    sub_horiz: np.ndarray        # submersion horizontal coefficient, wrt g_s
    ric_nn: np.ndarray           # Ric(nu, nu)
    ric_zz: np.ndarray           # Ric(zhat, zhat)
    ric_horiz: np.ndarray        # rho_i wrt g_i
    kahler_nn: np.ndarray        # same slots via the Kahler-form expressions
    kahler_zz: np.ndarray
    kahler_horiz: np.ndarray
    oneill_b: np.ndarray         # B = sum_i (F_i'/F_i)^2
    liyau_q: np.ndarray          # Q_i = |grad f_i^2|^2 / f_i^2
    kappa_cell: np.ndarray       # per-cell sup-curvature proxy

    @property
    def kappa(self) -> float:
        return float(self.kappa_cell.max())


def _proxy_cells(lam, j: Jets, shape_h, shape_f, twist) -> np.ndarray:
    """Per-cell value of the sup-curvature proxy.

    Maximum over the sectional classes of the ansatz (radial-fiber,
    radial-horizontal, fiber-horizontal, intra-factor horizontal with the
    |Rm(N_i)| bound, cross-factor horizontal); ``twist`` is
    q_i^2 H^2 / (2 F_i^4).
    """
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
    return kap


def curvature_field(spec: BundleSpec, state: ProfileState = None,
                    jets: Jets = None) -> CurvatureField:
    """Evaluate every curvature slot at all cells.

    Works from grid jets of ``state`` or from caller-supplied ``jets`` (for
    closed-form profiles).  All expressions below are the pointwise formulas
    for the ansatz metric; the full-Ricci and Kahler-form routes are kept
    separate so they can be compared as a consistency check.
    """
    j = _resolve_jets(state, jets)
    n, k, q, lam = spec.factor_arrays()
    if spec.r != j.r:
        raise ValueError("spec and jets disagree on the number of factors")
    h, h_s, h_ss = j.h, j.h_s, j.h_ss
    f, f_s, f_ss = j.f, j.f_s, j.f_ss

    shape_h = h_s / h
    shape_f = f_s / f
    fsum = (2.0 * n * shape_f).sum(axis=0)
    tr_l = shape_h + fsum
    shape_rate_h = h_ss / h - shape_h ** 2
    shape_rate_f = f_ss / f - shape_f ** 2

    # Twist pressure q_i^2 H^2 / (2 F_i^4) drives both the submersion Ricci
    # of the hypersurfaces {s} x P and the fiber-horizontal coupling.
    twist = q ** 2 * h ** 2 / (2.0 * f ** 4)
    sub_fiber = (n * twist).sum(axis=0)
    sub_horiz = k / f ** 2 - twist

    ric_nn = -h_ss / h - (2.0 * n * f_ss / f).sum(axis=0)
    ric_zz = sub_fiber - shape_h * fsum - h_ss / h
    ric_horiz = (k / f ** 2 - shape_f * tr_l - f_ss / f
                 + shape_f ** 2 - twist) * f ** 2

    # Kahler-form route: Ric(nu,nu) = Ric(zhat,zhat) = -lap log H + 2 sum n B_i
    # and horizontal k_i - lap(F_i^2)/2, valid when q_i H = (F_i^2)_s.
    lap_log_h = shape_rate_h + tr_l * shape_h
    lap_f2 = 2.0 * f * f_ss + 2.0 * f_s ** 2 + tr_l * 2.0 * f * f_s
    kahler_nn = -lap_log_h + (2.0 * n * shape_f ** 2).sum(axis=0)
    kahler_horiz = k - 0.5 * lap_f2

    oneill_b = (shape_f ** 2).sum(axis=0)
    liyau_q = 4.0 * f_s ** 2          # ((f^2)_s)^2 / f^2

    kap = _proxy_cells(lam, j, shape_h, shape_f, twist)

    return CurvatureField(
        shape_h=shape_h, shape_f=shape_f,
        shape_rate_h=shape_rate_h, shape_rate_f=shape_rate_f,
        sub_fiber=sub_fiber, sub_horiz=sub_horiz,
        ric_nn=ric_nn, ric_zz=ric_zz, ric_horiz=ric_horiz,
        kahler_nn=kahler_nn, kahler_zz=kahler_nn.copy(),
        kahler_horiz=kahler_horiz,
        oneill_b=oneill_b, liyau_q=liyau_q, kappa_cell=kap)


def _check_cell(cell, m):
    if not -m <= cell < m:
        raise IndexError(f"cell {cell} out of range for {m} cells")


def shape_operator_eigs(state: ProfileState, cell: int, jets: Jets = None):
    """Eigenvalues of the shape operator of the hypersurface {s} x P.

    Returns (H'/H, array of F_i'/F_i); H'/H has multiplicity one (fiber
    direction) and each F_i'/F_i multiplicity 2 n_i.  The trace is
    H'/H + sum 2 n_i F_i'/F_i.
    """
    j = _resolve_jets(state, jets)
    _check_cell(cell, j.cells)
    eig_h = float(j.h_s[cell] / j.h[cell])
    eig_f = j.f_s[:, cell] / j.f[:, cell]
    if not (np.isfinite(eig_h) and np.all(np.isfinite(eig_f))):
        raise ValueError(f"non-finite shape eigenvalue at cell {cell}")
    return eig_h, eig_f


def radial_laplacian(spec: BundleSpec, state: ProfileState, u: np.ndarray,
                     cell: int = None, jets: Jets = None):
    """Laplace-Beltrami operator on a radial scalar, u'' + tr(L) u'.

    ``u`` is sampled at the cell centers and extended evenly (radial scalars
    of the closed-up manifold are even about the ends); derivatives are taken
    in arclength.  ``spec`` supplies the multiplicities entering tr L.  With
    ``cell`` None the full cell array is returned.
    """
    u = np.asarray(u, float)
    if u.shape != state.sigma.shape:
        raise ValueError("field length does not match the grid")
    j = _resolve_jets(state, jets)
    n = spec.factor_arrays()[0]
    d1, d2 = diff_sigma(u, EVEN, state.dsigma)
    a1, _ = diff_sigma(state.a, EVEN, state.dsigma)
    inv_a = 1.0 / state.a
    u_s = d1 * inv_a
    u_ss = d2 * inv_a ** 2 - d1 * a1 * inv_a ** 3
    tr_l = j.h_s / j.h + (2.0 * n * j.f_s / j.f).sum(axis=0)
    lap = u_ss + tr_l * u_s
    if cell is None:
        return lap
    _check_cell(cell, lap.size)
    return float(lap[cell])


def laplacian_f2(spec: BundleSpec, jets: Jets) -> np.ndarray:
    """Laplacian of every f_i^2 directly from arclength jets, shape (r, M)."""
    n = spec.factor_arrays()[0]
    f, f_s, f_ss = jets.f, jets.f_s, jets.f_ss
    tr_l = jets.h_s / jets.h + (2.0 * n * f_s / f).sum(axis=0)
    return 2.0 * f * f_ss + 2.0 * f_s ** 2 + tr_l * 2.0 * f * f_s


def submersion_ricci(spec: BundleSpec, state: ProfileState, cell: int = None,
                     jets: Jets = None):
    """Ricci curvature of the equidistant hypersurface {s} x P.

    Returns (fiber component, per-factor horizontal coefficients): the fiber
    slot is Ric(zeta*, zeta*) = sum n_i q_i^2 H^2 / (2 F_i^4) and the
    horizontal coefficient for factor i is k_i/F_i^2 - q_i^2 H^2/(2 F_i^4),
    both with respect to the induced submersion metric.  The twist terms come
    entirely from the non-integrability of the horizontal distribution.
    """
    j = _resolve_jets(state, jets)
    n, k, q, _ = spec.factor_arrays()
    twist = q ** 2 * j.h ** 2 / (2.0 * j.f ** 4)
    fiber = (n * twist).sum(axis=0)
    horiz = k / j.f ** 2 - twist
    if cell is None:
        return fiber, horiz
    _check_cell(cell, fiber.size)
    return float(fiber[cell]), horiz[:, cell]


def ricci_full(spec: BundleSpec, state: ProfileState = None, cell: int = None,
               jets: Jets = None) -> RicciComponents:
    """Ricci curvature of the full metric in the canonical frame.

    Valid for Kahler and non-Kahler profiles alike:

        Ric(nu, nu)     = -H''/H - sum 2 n_i F_i''/F_i
        Ric(zhat, zhat) = sum n_i q_i^2 H^2/(2 F_i^4)
                          - (H'/H) sum 2 n_i F_i'/F_i - H''/H
        rho_i / F_i^2   = k_i/F_i^2 - (F_i'/F_i) tr L - F_i''/F_i
                          + (F_i'/F_i)^2 - q_i^2 H^2/(2 F_i^4)

    with rho_i the horizontal coefficient with respect to g_i.  All mixed
    components vanish identically.  Non-finite output signals an invalid
    profile (for example h <= 0 at an interior cell).
    """
    j = _resolve_jets(state, jets)
    n, k, q, _ = spec.factor_arrays()
    h, h_s, h_ss = j.h, j.h_s, j.h_ss
    f, f_s, f_ss = j.f, j.f_s, j.f_ss
    shape_h = h_s / h
    shape_f = f_s / f
    fsum = (2.0 * n * shape_f).sum(axis=0)
    tr_l = shape_h + fsum
    twist = q ** 2 * h ** 2 / (2.0 * f ** 4)
    nn = -h_ss / h - (2.0 * n * f_ss / f).sum(axis=0)
    zz = (n * twist).sum(axis=0) - shape_h * fsum - h_ss / h
    horiz = (k / f ** 2 - shape_f * tr_l - f_ss / f + shape_f ** 2
             - twist) * f ** 2
    if cell is None:
        return RicciComponents(nn=nn, zz=zz, horiz=horiz)
    _check_cell(cell, nn.size)
    return RicciComponents(nn=float(nn[cell]), zz=float(zz[cell]),
                           horiz=horiz[:, cell])


def kahler_defect(spec: BundleSpec, state: ProfileState = None,
                  jets: Jets = None) -> np.ndarray:
    """Pointwise violation |q_i h - d(f_i^2)/ds| of the Kahler condition.

    Shape (r, M); identically zero exactly when the metric is Kahler for the
    bundle complex structure.
    """
    j = _resolve_jets(state, jets)
    q = spec.factor_arrays()[2]
    return np.abs(q * j.h - 2.0 * j.f * j.f_s)


def ricci_kahler(spec: BundleSpec, state: ProfileState = None,
                 cell: int = None, jets: Jets = None,
                 residual_tol: float = 1e-6) -> RicciComponents:
    """Ricci curvature via the Kahler-form simplifications.

        Ric(nu, nu) = Ric(zhat, zhat) = -lap log H + sum 2 n_i |grad log F_i|^2
        horizontal coefficient          = k_i - lap(F_i^2) / 2

    These expressions assume q_i H = (F_i^2)_s.  When the measured defect
    exceeds ``residual_tol`` the result is still returned but flagged
    ``advisory=True``; it then has no curvature meaning and should only be
    used for residual monitoring.
    """
    j = _resolve_jets(state, jets)
    n, k, _, _ = spec.factor_arrays()
    h, h_s, h_ss = j.h, j.h_s, j.h_ss
    f, f_s, f_ss = j.f, j.f_s, j.f_ss
    shape_h = h_s / h
    shape_f = f_s / f
    tr_l = shape_h + (2.0 * n * shape_f).sum(axis=0)
    lap_log_h = (h_ss / h - shape_h ** 2) + tr_l * shape_h
    mixed = -lap_log_h + (2.0 * n * shape_f ** 2).sum(axis=0)
    lap_f2 = 2.0 * f * f_ss + 2.0 * f_s ** 2 + tr_l * 2.0 * f * f_s
    horiz = k - 0.5 * lap_f2
    advisory = bool(kahler_defect(spec, jets=j).max() > residual_tol)
    if cell is None:
        return RicciComponents(nn=mixed, zz=mixed.copy(), horiz=horiz,
                               advisory=advisory)
    _check_cell(cell, mixed.size)
    return RicciComponents(nn=float(mixed[cell]), zz=float(mixed[cell]),
                           horiz=horiz[:, cell], advisory=advisory)


def oneill_quantities(spec: BundleSpec, state: ProfileState = None,
                      cell: int = None, jets: Jets = None):
    """Controlling quantity B = sum_i |grad log F_i|^2 of the A-tensor.

    For Kahler profiles the fiber-twist two-form contributes nothing extra,
    so |A|^2 is bounded by a dimensional constant times B.
    """
    j = _resolve_jets(state, jets)
    if spec.r != j.r:
        raise ValueError("spec and jets disagree on the number of factors")
    b = ((j.f_s / j.f) ** 2).sum(axis=0)
    if cell is None:
        return b
    _check_cell(cell, b.size)
    return float(b[cell])


def horizontal_rm_estimate(spec: BundleSpec, state: ProfileState = None,
                           cell: int = None, jets: Jets = None):
    """Magnitudes controlling the horizontal Riemann block per factor.

    Returns (base, twist) with base_i = lam_i / F_i^2 (the rescaled base
    curvature bound) and twist_i = q_i^2 H^2 / (4 F_i^4) (the correction from
    the fiber twist), both for unit horizontal vectors of the total metric.
    """
    j = _resolve_jets(state, jets)
    _, _, q, lam = spec.factor_arrays()
    base = lam / j.f ** 2
    twist = q ** 2 * j.h ** 2 / (4.0 * j.f ** 4)
    if cell is None:
        return base, twist
    _check_cell(cell, j.cells)
    return base[:, cell], twist[:, cell]


def curvature_sup_proxy(spec: BundleSpec, state: ProfileState = None,
                        jets: Jets = None) -> float:
    """Computable surrogate for the sup over M of |Rm|.

    Maximum over cells and factor indices of
      |H''/H|, |F_i''/F_i|, |q_i^2 H^2/(4 F_i^4) - (H'/H)(F_i'/F_i)|,
      lam_i/F_i^2 + 3 q_i^2 H^2/(4 F_i^4) + (F_i'/F_i)^2,
      |F_i' F_j' / (F_i F_j)| for i != j,
    which covers every sectional class of the ansatz up to dimensional
    constants.  Under the metric rescaling (a, h, f) -> sqrt(K) (a, h, f)
    the proxy divides by K, as curvature must.
    """
    j = _resolve_jets(state, jets)
    if spec.r != j.r:
        raise ValueError("spec and jets disagree on the number of factors")
    _, _, q, lam = spec.factor_arrays()
    twist = q ** 2 * j.h ** 2 / (2.0 * j.f ** 4)
    kap = _proxy_cells(lam, j, j.h_s / j.h, j.f_s / j.f, twist)
    bad = ~np.isfinite(kap)
    if bad.any():
        raise ValueError(
            f"non-finite curvature proxy at cell {int(np.argmax(bad))}")
    return float(kap.max())

