"""Construction and validation of initial profile states.

A state describes a smooth metric only if it meets the smooth-closure
endpoint conditions (H -> 0 with unit arclength slope, even conformal
factors); validate_closing measures them on any state, reading each end off
the quartic through its five nearest samples by the constant END_QUARTIC
table, with no fits.  Kahler-mode states also satisfy the compatibility
q_i H = d(F_i^2)/ds with the bundle complex structure, imposed by
integrating H with fourth-order quadrature.  Shipped presets:

``canonical``
    One CP^1 base factor with n = 1, k = 2, q = 2 and H = sin s on [0, pi],
    giving F^2 = 4 - 2 cos s.  Used as the reference instance throughout the
    test suite; its curvature values at s = pi/2 are simple rationals.

``calabi``
    The rotationally symmetric family on a CP^1-bundle over CP^(n-1) (lens
    twisting q = k_lens).  The Einstein constant is the Fubini-Study value
    k = 2n in the normalization with Ric = 2(m+1) g on CP^m.  Default
    parameters put the run in the fiber-collapse regime: the CP^1 fibers
    shrink to a point while the base stays bounded.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _lazy_import
from .geometry import (END_QUARTIC, BundleSpec, ProfileState, ODD,
                       cell_centers, cumulative_from_left, field_parities)

np = _lazy_import("numpy")

# Bound on every endpoint residual.  Discretization error of the quartic
# through the five samples nearest an end is O(dsigma^4), orders below it;
# genuine closure violations (wrong slope, uneven factors) exceed it by
# orders.
CLOSING_TOL = 0.02


def sample_h(h_template, length: float, sigma: np.ndarray) -> np.ndarray:
    """Sample the fiber-length profile H at the cell centers.

    ``h_template`` names an analytic family for H(s) on [0, length]:
    "sinusoidal" is (L/pi) sin(pi s / L), smooth-closing to all orders;
    "bump" is the polynomial s (L - s) / L with matched unit end slopes but
    nonvanishing second derivative at the ends (closes to second order
    only).  A numpy array of cell-center samples is also accepted.
    """
    if length <= 0.0:
        raise ValueError("interval length must be positive")
    s = length * sigma
    if isinstance(h_template, str):
        if h_template == "sinusoidal":
            return (length / math.pi) * np.sin(math.pi * s / length)
        if h_template == "bump":
            return s * (length - s) / length
        raise ValueError(f"unknown h template '{h_template}'")
    h = np.asarray(h_template, float)
    if h.shape != sigma.shape:
        raise ValueError("sampled h template must match the cell count")
    return h


ClosingCheck = namedtuple("ClosingCheck", "name side residual ok")
ClosingCheck.__doc__ = \
    "One endpoint condition: its residual and whether that is in bounds."


def validate_closing(state: ProfileState):
    """Check the smooth-closure endpoint conditions of a state.

    Per interval end: H extrapolates to 0 with arclength slope +1 (left) or
    -1 (right); each F_i^2 has vanishing end slope, measured in units of
    max F_i^2 per interval arclength so that the test does not depend on
    the interval's size; the samples near the end are consistent with an
    odd extension of h and an even extension of each f_i^2.  All endpoint
    values are read off the quartic through the five samples nearest the
    end, by the constant END_QUARTIC table, not from the parity ghosts, so
    no parity is assumed by the measurement itself.  Returns the list of
    ClosingChecks, left end first, and never raises on failures.
    """
    rows = np.vstack([state.a, state.h, state.f ** 2])
    parity = field_parities(state.r)
    scale = np.maximum(np.abs(rows).max(axis=1), 1e-300)
    # Midpoint rule: dsigma first, so the sum cannot overflow.
    length = float(np.sum(state.a * state.dsigma))
    checks = []
    for side, near in (("left", rows[:, :5]), ("right", rows[:, :-6:-1])):
        # Per row: the end value, dsigma times the inward slope, and the
        # two ghost values.  The end value of a turns slopes into d/ds, and
        # a parity extension mirrors the nearest samples into the ghosts.
        end = np.array(END_QUARTIC) @ near.T
        slope = end[1] / state.dsigma / end[0, 0]
        mirror = np.abs(end[2:].T - parity * near[:, :2]).max(axis=1) / scale
        residuals = [("fiber length H at end", abs(end[0, 1]) / scale[1]),
                     ("arclength slope of H", abs(slope[1] - 1.0)),
                     ("odd parity of h", mirror[1])]
        for i in range(2, state.r + 2):
            residuals += [
                (f"end slope of f{i - 1}^2",
                 abs(slope[i]) * length / scale[i]),
                (f"even parity of f{i - 1}^2", mirror[i])]
        checks += [ClosingCheck(name, side, residual, residual <= CLOSING_TOL)
                   for name, residual in residuals]
    return checks


def build_kahler_profile(spec: BundleSpec, length: float, h_template,
                         f0, cells: int) -> ProfileState:
    """Build a state satisfying q_i H = d(F_i^2)/ds exactly (to quadrature).

    H is ``sample_h(h_template, length, ...)`` and ``f0`` gives F_i^2 at
    the left end.  The initial gauge is uniform arclength, a = length, so
    s = length * sigma.  Each F_i^2 is f0_i plus q_i times the running
    integral of H, evaluated with the fourth-order cell quadrature; the
    resulting defect |q_i h - (f_i^2)_sigma / a| measured by the difference
    stencils is O(dsigma^4).  Raises if some F_i^2 fails positivity,
    reporting the first offending arclength position.
    """
    sigma = cell_centers(cells)
    h = sample_h(h_template, length, sigma)
    f0 = tuple(float(v) for v in f0)
    if len(f0) != spec.r:
        raise ValueError("f0 must supply one value per factor")
    if any(v <= 0.0 for v in f0):
        raise ValueError("f0 entries must be positive")

    length = float(length)
    a = np.full(cells, length)
    try:
        with np.errstate(over="raise"):
            running, total = cumulative_from_left(a * h, 1.0 / cells, ODD)
    except FloatingPointError:
        raise ValueError(f"length {length!r} is too large (the integral "
                         "of H overflows)") from None

    f = np.empty((spec.r, cells))
    for i in range(spec.r):
        qi = spec.q[i, 0]
        f2 = f0[i] + qi * running
        end_value = f0[i] + qi * total
        bad = np.flatnonzero(f2 <= 0.0)
        if bad.size or end_value <= 0.0:
            if bad.size:
                s_bad = length * sigma[bad[0]]
            else:
                s_bad = length
            raise ValueError(
                f"factor {i + 1}: F^2 drops to {min(f2.min(), end_value):.6g}"
                f" by s = {s_bad:.6g}; increase f0 or shorten the interval")
        f[i] = np.sqrt(f2)
    return ProfileState(t=0.0, a=a, h=h, f=f)


def build_general_profile(spec: BundleSpec, length: float, h_template,
                          f_templates, cells: int) -> ProfileState:
    """Assemble a state from independent H and F_i^2 samples.

    H is ``sample_h(h_template, length, ...)`` and ``f_templates`` holds
    cell-center samples of each F_i^2, shape (r, cells).  No Kahler
    compatibility is imposed and closure is not checked here: run_flow
    refuses a state that fails validate_closing, such as one whose factors
    have nonzero end slope or break the endpoint parity.
    """
    sigma = cell_centers(cells)
    h = sample_h(h_template, length, sigma)
    f2 = np.atleast_2d(np.asarray(f_templates, float))
    if f2.shape != (spec.r, cells):
        raise ValueError("f_templates must have shape (r, cells)")
    if np.any(f2 <= 0.0):
        raise ValueError("f_templates must be positive everywhere")

    a = np.full(cells, float(length))
    return ProfileState(t=0.0, a=a, h=h, f=np.sqrt(f2))


def canonical_preset(cells: int):
    """Reference instance: n = 1, k = 2, q = 2, H = sin s on [0, pi], f0 = 2.

    The resulting F^2 = 4 - 2 cos s ranges over [2, 6].  The |Rm| bound is
    pinned to lam = 1 so the sup-curvature proxy of the initial state equals
    1 exactly (attained by |H''/H|).  Returns (spec, state).
    """
    spec = BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))
    return spec, build_kahler_profile(spec, math.pi, "sinusoidal", (2.0,),
                                      cells)


def calabi_preset(cells: int, *, n: int = 2, k_lens: int = 1,
                  f0: float = None, length: float = math.pi):
    """Rotationally symmetric preset on a CP^1-bundle over CP^(n-1).

    ``n`` is the complex dimension of the total space (n >= 2), ``k_lens``
    the lens twisting (q_1 = k_lens).  The Einstein constant k1 is the
    Fubini-Study value 2n of CP^(n-1) in the Ric = 2(m+1) g normalization.
    ``f0`` defaults to a value strictly inside the fiber-collapse regime:
    with the sinusoidal template the fiber area decreases at the exact rate
    4 per unit time whatever q_1 is, and both section sizes stay positive
    up to the collapse time when f0 > I0 (k1 - q1) / 2, where
    I0 = 2 L^2/pi^2 is the initial integral of H.  Returns (spec, state).
    """
    for name, v in (("n", n), ("k_lens", k_lens)):
        if int(v) != v:
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    k_lens = int(k_lens)
    if k_lens < 1:
        raise ValueError("k_lens must be a positive integer")
    k1 = 2.0 * n
    try:
        i0 = 2.0 * length ** 2 / math.pi ** 2
    except OverflowError:
        raise ValueError(f"length {length!r} is too large "
                         "(length ** 2 overflows)") from None
    if f0 is None:
        f0 = max(i0 * (k1 - k_lens), 2.0)
    spec = BundleSpec(n=(n - 1,), k=(k1,), q=(k_lens,))
    return spec, build_kahler_profile(spec, length, "sinusoidal",
                                      (float(f0),), cells)


PRESETS = {
    "canonical": canonical_preset,
    "calabi": calabi_preset,
}
