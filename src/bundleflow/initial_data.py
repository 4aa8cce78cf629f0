"""Construction and validation of initial profile states.

States built here satisfy the smooth-closure endpoint conditions (H -> 0
with unit arclength slope, even conformal factors) and, in Kahler mode, the
compatibility q_i H = d(F_i^2)/ds with the bundle complex structure, imposed
by integrating H with fourth-order quadrature.  Shipped presets:

``canonical``
    One CP^1 base factor with n = 1, k = 2, q = 2 and H = sin s on [0, pi],
    giving F^2 = 4 - 2 cos s.  Used as the reference instance throughout the
    test suite; its curvature values at s = pi/2 are simple rationals.

``calabi``
    The rotationally symmetric family on a CP^1-bundle over CP^(n-1) (lens
    twisting q = k_lens).  The default Einstein constant is the Fubini-Study
    value k = 2n in the normalization with Ric = 2(m+1) g on CP^m; pass k1
    to use another convention.  Default parameters put the run in the
    fiber-collapse regime: the CP^1 fibers shrink to a point while the base
    stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (BundleSpec, ProfileState, ODD, cell_centers,
                       cumulative_from_left)

# Endpoint validation tolerances.  Discretization error of the quartic
# endpoint fits is O(dsigma^4), orders below these; genuine closure
# violations (wrong slope, uneven factors) exceed them by orders.
SLOPE_TOL = 0.02
VALUE_TOL = 0.02
PARITY_TOL = 0.02


@dataclass
class ProfileTemplate:
    """Recipe for initial profiles on an interval of the given length.

    ``h_template`` names an analytic family for H(s): "sinusoidal" is
    (L/pi) sin(pi s / L), smooth-closing to all orders; "bump" is the
    polynomial s (L - s) / L with matched unit end slopes but nonvanishing
    second derivative at the ends (closes to second order only).  A numpy
    array of cell-center samples is also accepted.

    In ``kahler`` mode ``f0`` gives F_i^2 at the left end and the factors are
    built from the compatibility condition.  In ``general`` mode
    ``f_templates`` holds cell-center samples of each F_i^2 directly.
    """

    length: float
    h_template: object = "sinusoidal"
    f0: tuple = None
    mode: str = "kahler"
    f_templates: np.ndarray = None

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("interval length must be positive")
        if self.mode not in ("kahler", "general"):
            raise ValueError("mode must be 'kahler' or 'general'")


def sample_h(tmpl: ProfileTemplate, sigma: np.ndarray) -> np.ndarray:
    """Sample the fiber-length profile H at the cell centers."""
    length = tmpl.length
    s = length * sigma
    if isinstance(tmpl.h_template, str):
        if tmpl.h_template == "sinusoidal":
            return (length / math.pi) * np.sin(math.pi * s / length)
        if tmpl.h_template == "bump":
            return s * (length - s) / length
        raise ValueError(f"unknown h template '{tmpl.h_template}'")
    h = np.asarray(tmpl.h_template, float)
    if h.shape != sigma.shape:
        raise ValueError("sampled h template must match the cell count")
    return h


@dataclass
class ClosingCheck:
    """One endpoint condition: measured value, expectation and verdict."""

    name: str
    side: str
    value: float
    expected: float
    residual: float
    tol: float
    ok: bool


@dataclass
class ClosingReport:
    """Structured result of the smooth-closure validation."""

    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _one_sided_fit(x, y):
    """Interpolating quartic through the five samples nearest an endpoint.

    Used instead of the parity ghosts on purpose: the validation must not
    assume the parity it is checking.  Returns the fit value and first
    derivative at x = 0.
    """
    c = np.polyfit(x, y, 4)
    return float(np.polyval(c, 0.0)), float(np.polyval(np.polyder(c), 0.0))


def validate_closing(state: ProfileState) -> ClosingReport:
    """Check the smooth-closure endpoint conditions of a state.

    Per interval end: H extrapolates to 0 with arclength slope +1 (left) or
    -1 (right); each F_i^2 has vanishing end slope, measured in units of
    max F_i^2 per interval arclength so that the test does not depend on
    the interval's size; the samples near the end are consistent with an
    odd extension of h and an even extension of each f_i^2.  All endpoint
    values come from one-sided quartic fits, so no parity is assumed by
    the measurement itself.  Returns a structured report and never raises
    on failures.
    """
    report = ClosingReport()
    h_scale = max(np.abs(state.h).max(), 1e-300)
    # Midpoint rule: dsigma first, so the sum cannot overflow.
    length = float(np.sum(state.a * state.dsigma))
    ghost_x = np.array([0.5, 1.5]) * state.dsigma

    for side in ("left", "right"):
        if side == "left":
            x = state.sigma[:5]
            take = slice(None, 5)
            orient = 1.0
        else:
            x = 1.0 - state.sigma[-5:][::-1]
            take = slice(None, -6, -1)
            orient = -1.0
        h5 = state.h[take]
        a5 = state.a[take]

        h_end, h_slope_sig = _one_sided_fit(x, h5)
        a_end, _ = _one_sided_fit(x, a5)
        # d/dsigma toward increasing sigma, converted to arclength; the
        # right-end x axis points inward so the sign flips there.
        h_slope = orient * h_slope_sig / a_end
        expected_slope = orient
        report.checks.append(ClosingCheck(
            name="fiber length H at end", side=side, value=h_end,
            expected=0.0, residual=abs(h_end) / h_scale, tol=VALUE_TOL,
            ok=abs(h_end) / h_scale <= VALUE_TOL))
        report.checks.append(ClosingCheck(
            name="arclength slope of H", side=side, value=h_slope,
            expected=expected_slope, residual=abs(h_slope - expected_slope),
            tol=SLOPE_TOL, ok=abs(h_slope - expected_slope) <= SLOPE_TOL))

        # Parity of h: an odd extension satisfies h(-x) = -h(x); compare the
        # fit at the ghost positions with the mirrored interior samples.
        c_h = np.polyfit(x, h5, 4)
        mirror = np.polyval(c_h, -ghost_x)
        odd_res = np.abs(mirror + np.interp(ghost_x, x, h5)).max() / h_scale
        report.checks.append(ClosingCheck(
            name="odd parity of h", side=side, value=odd_res, expected=0.0,
            residual=odd_res, tol=PARITY_TOL, ok=odd_res <= PARITY_TOL))

        for i in range(state.r):
            f2 = state.f[i] ** 2
            f2_5 = f2[take]
            f2_scale = max(np.abs(f2).max(), 1e-300)
            f2_end, f2_slope_sig = _one_sided_fit(x, f2_5)
            f2_slope = orient * f2_slope_sig / a_end
            slope_res = abs(f2_slope) * length / f2_scale
            report.checks.append(ClosingCheck(
                name=f"end slope of f{i + 1}^2", side=side, value=f2_slope,
                expected=0.0, residual=slope_res, tol=SLOPE_TOL,
                ok=slope_res <= SLOPE_TOL))
            c_f = np.polyfit(x, f2_5, 4)
            even_res = (np.abs(np.polyval(c_f, -ghost_x)
                               - np.interp(ghost_x, x, f2_5)).max()
                        / f2_scale)
            report.checks.append(ClosingCheck(
                name=f"even parity of f{i + 1}^2", side=side,
                value=even_res, expected=0.0, residual=even_res,
                tol=PARITY_TOL, ok=even_res <= PARITY_TOL))
    return report


def build_kahler_profile(spec: BundleSpec, tmpl: ProfileTemplate,
                         cells: int) -> ProfileState:
    """Build a state satisfying q_i H = d(F_i^2)/ds exactly (to quadrature).

    The initial gauge is uniform arclength, a = length, so s = length *
    sigma.  Each F_i^2 is f0_i plus q_i times the running integral of H,
    evaluated with the fourth-order cell quadrature; the resulting defect
    |q_i h - (f_i^2)_sigma / a| measured by the difference stencils is
    O(dsigma^4).  Raises if some F_i^2 fails positivity, reporting the first
    offending arclength position.
    """
    if tmpl.mode != "kahler":
        raise ValueError("template mode must be 'kahler'")
    if tmpl.f0 is None:
        raise ValueError("kahler mode needs f0, the left-end values of F_i^2")
    f0 = tuple(float(v) for v in tmpl.f0)
    if len(f0) != spec.r:
        raise ValueError("f0 must supply one value per factor")
    if any(v <= 0.0 for v in f0):
        raise ValueError("f0 entries must be positive")

    sigma = cell_centers(cells)
    length = float(tmpl.length)
    a = np.full(cells, length)
    h = sample_h(tmpl, sigma)
    try:
        with np.errstate(over="raise"):
            running, total = cumulative_from_left(a * h, 1.0 / cells, ODD)
    except FloatingPointError:
        raise ValueError(f"length {length!r} is too large (the integral "
                         "of H overflows)") from None

    f = np.empty((spec.r, cells))
    for i in range(spec.r):
        qi = spec.q[i]
        f2 = f0[i] + qi * running
        end_value = f0[i] + qi * total
        bad = np.flatnonzero(f2 <= 0.0)
        if bad.size or end_value <= 0.0 or f0[i] <= 0.0:
            if bad.size:
                s_bad = length * sigma[bad[0]]
            else:
                s_bad = length
            raise ValueError(
                f"factor {i + 1}: F^2 drops to {min(f2.min(), end_value):.6g}"
                f" by s = {s_bad:.6g}; increase f0 or shorten the interval")
        f[i] = np.sqrt(f2)
    return ProfileState(t=0.0, sigma=sigma, a=a, h=h, f=f)


def build_general_profile(spec: BundleSpec, tmpl: ProfileTemplate,
                          cells: int) -> ProfileState:
    """Assemble a state from independent H and F_i^2 samples.

    No Kahler compatibility is imposed, but the smooth-closure validation
    must pass: templates whose factors have nonzero end slope or break the
    endpoint parity are rejected.
    """
    if tmpl.mode != "general":
        raise ValueError("template mode must be 'general'")
    if tmpl.f_templates is None:
        raise ValueError("general mode needs f_templates, samples of F_i^2")
    f2 = np.atleast_2d(np.asarray(tmpl.f_templates, float))
    if f2.shape != (spec.r, cells):
        raise ValueError("f_templates must have shape (r, cells)")
    if np.any(f2 <= 0.0):
        raise ValueError("f_templates must be positive everywhere")

    sigma = cell_centers(cells)
    a = np.full(cells, float(tmpl.length))
    h = sample_h(tmpl, sigma)
    state = ProfileState(t=0.0, sigma=sigma, a=a, h=h, f=np.sqrt(f2))
    report = validate_closing(state)
    if not report.passed:
        bad = "; ".join(f"{c.side} {c.name}" for c in report.failures())
        raise ValueError(f"template fails smooth closure: {bad}")
    return state


def canonical_preset(cells: int):
    """Reference instance: n = 1, k = 2, q = 2, H = sin s on [0, pi], f0 = 2.

    The resulting F^2 = 4 - 2 cos s ranges over [2, 6].  The |Rm| bound is
    pinned to lam = 1 so the sup-curvature proxy of the initial state equals
    1 exactly (attained by |H''/H|).  Returns (spec, state).
    """
    spec = BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))
    tmpl = ProfileTemplate(length=math.pi, h_template="sinusoidal",
                           f0=(2.0,), mode="kahler")
    return spec, build_kahler_profile(spec, tmpl, cells)


def calabi_preset(n: int, k_lens: int, cells: int, k1: float = None,
                  f0: float = None, length: float = math.pi):
    """Rotationally symmetric preset on a CP^1-bundle over CP^(n-1).

    ``n`` is the complex dimension of the total space (n >= 2), ``k_lens``
    the lens twisting (q_1 = k_lens).  ``k1`` defaults to the Fubini-Study
    Einstein constant 2n of CP^(n-1) in the Ric = 2(m+1) g normalization.
    ``f0`` defaults to a value strictly inside the fiber-collapse regime:
    with the sinusoidal template the fiber area decreases at the exact rate
    4 q_1 per unit time per twist, and both section sizes stay positive up
    to the collapse time when f0 > I0 (k1 - q1) / 2, where I0 = 2 L^2/pi^2
    is the initial integral of H.  Returns (spec, state).
    """
    for name, v in (("n", n), ("k_lens", k_lens)):
        if int(v) != v:
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    k_lens = int(k_lens)
    if k_lens < 1:
        raise ValueError("k_lens must be a positive integer")
    if k1 is None:
        k1 = 2.0 * n
    try:
        i0 = 2.0 * length ** 2 / math.pi ** 2
    except OverflowError:
        raise ValueError(f"length {length!r} is too large "
                         "(length ** 2 overflows)") from None
    if f0 is None:
        f0 = max(i0 * (k1 - k_lens), 2.0)
    spec = BundleSpec(n=(n - 1,), k=(k1,), q=(k_lens,))
    tmpl = ProfileTemplate(length=length, h_template="sinusoidal",
                           f0=(float(f0),), mode="kahler")
    return spec, build_kahler_profile(spec, tmpl, cells)


def _canonical_factory(cells, **params):
    if params:
        raise ValueError(f"canonical preset takes no parameters, "
                         f"got {sorted(params)}")
    return canonical_preset(cells)


def _calabi_factory(cells, **params):
    allowed = {"n", "k_lens", "k1", "f0", "length"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown calabi parameters {sorted(unknown)}")
    return calabi_preset(params.get("n", 2), params.get("k_lens", 1), cells,
                         k1=params.get("k1"), f0=params.get("f0"),
                         length=params.get("length", math.pi))


PRESETS = {
    "canonical": _canonical_factory,
    "calabi": _calabi_factory,
}
