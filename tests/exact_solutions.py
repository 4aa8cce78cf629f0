"""Exact self-similar initial data of the reduced flow, built with numpy.

KE-N is the Kahler-Einstein metric of Koiso & Sakane (LNM 1201, 1986;
Osaka J. Math. 25, 1988) on N cells: the bundle n (1, 1), k (2, 2),
q (1, -1) with f0 (1, 3).  In the moment coordinate x = int h ds on [0, 2]
its profile is h^2 = Theta(x) = x (2 - x) g(x) with

    g(x) = (6 + 2x - x^2) / (2 (3 + 2x - x^2)).

Being Einstein with constant 1, it shrinks homothetically under the flow,
to 1 - 2t times the initial metric: the singular time is exactly 0.5, and
at t = 0 every entry of d/dt log (a; h; f) is -1.

The substitution x = 1 - cos psi makes the profile smooth on the closed
interval psi in [0, pi]: ds = dpsi / sqrt(g) and h = sin(psi) sqrt(g).  A
Chebyshev interpolant of 1 / sqrt(g) in psi, integrated exactly, gives
s(psi) and the length L = s(pi); Newton's method on s(psi) = L sigma
places the cell centres.
"""

import math

import numpy as np
from numpy.polynomial import Chebyshev

from bundleflow.geometry import BundleSpec
from bundleflow.initial_data import build_kahler_profile

KE_SPEC = BundleSpec(n=(1, 1), k=(2.0, 2.0), q=(1, -1))
KE_F0 = (1.0, 3.0)
KE_LENGTH = 3.2551287358321948

# 1 / sqrt(g) is analytic on [0, pi]; degree 60 resolves it to rounding.
CHEBYSHEV_DEGREE = 60
# Newton from psi = pi sigma converges quadratically: its step falls
# below 1e-15 by the fourth iteration.
NEWTON_STEPS = 6


def _root_g(psi):
    x = 1.0 - np.cos(psi)
    return np.sqrt((6.0 + 2.0 * x - x * x) / (2.0 * (3.0 + 2.0 * x - x * x)))


def ke_state(cells):
    """(length, initial state) of KE-N with N = ``cells``."""
    s_of = Chebyshev.interpolate(lambda psi: 1.0 / _root_g(psi),
                                 CHEBYSHEV_DEGREE,
                                 domain=[0.0, math.pi]).integ(lbnd=0.0)
    length = float(s_of(math.pi))
    sigma = (np.arange(cells) + 0.5) / cells
    psi = math.pi * sigma
    for _ in range(NEWTON_STEPS):
        psi -= (s_of(psi) - length * sigma) * _root_g(psi)
    h = np.sin(psi) * _root_g(psi)
    return length, build_kahler_profile(KE_SPEC, length, h, KE_F0, cells)
