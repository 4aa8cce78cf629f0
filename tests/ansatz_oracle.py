"""Independent Ricci oracle for the whole Wang ansatz.

The metric

    g = ds^2 + H^2 (dtheta + sum_i q_i A_i)^2 + sum_i F_i^2 g_i

lives on an interval times a circle bundle over N_1 x ... x N_r.  Here
each N_i is a product of n_i surfaces of Gauss curvature k_i, each with
the metric and potential

    (dx^2 + dy^2) / (1 + k_i rho^2/4)^2,
    A = (x dy - y dx) / (2 (1 + k_i rho^2/4)),

so that dA is the area form, A_i is the sum of the surfaces' potentials
and N_i is Kahler-Einstein with Ric = k_i g_i for every sign of k_i.

The Ricci tensor comes from coordinate Christoffel symbols at the base
origin, where the metric is diag(1, H^2, F_i^2, ...) and the orthonormal
frame is (d/ds, d/dtheta / H, d/dx / F_i, ...).  Only derivatives up to
second order enter there, so the metric is truncated at second order in
the base coordinates.  Its inverse at the origin is the diagonal one of
the orthonormal frame, and its first derivatives there are
-g^-1 (dg) g^-1.  H, F_i and their first two s-derivatives are plain
symbols, and d/ds is the derivation that maps each jet to the next.  The
oracle reads nothing from the package under test: it starts from the
metric alone.

References: M. Wang & M. Y. Wang, "Einstein metrics on S^2-bundles",
Math. Ann. 310 (1998), for the ansatz; O'Neill, "The fundamental
equations of a submersion", Michigan Math. J. 13 (1966), for the fiber
and twist terms.
"""

import functools
from collections import namedtuple

import numpy as np
import sympy as sp

# ricci: the (D, D) sympy matrix of Ric in coordinates at the base origin,
# ordered (s, theta, x_1, y_1, x_2, y_2, ...) with the surfaces of factor 1
# first; owner: the factor of each base direction; rows: the diagonal of
# oracle_rows, lambdified in (h, h_s, h_ss, f_1, f_1,s, f_1,ss, ...).
AnsatzOracle = namedtuple("AnsatzOracle", "ricci owner rows")


@functools.lru_cache(maxsize=None)
def ansatz_oracle(n, k, q):
    """The oracle of the ansatz with factors (n_i, k_i, q_i), as tuples."""
    fields = [sp.symbols("h0:4")] + [sp.symbols(f"f{i}_0:4")
                                      for i in range(len(n))]
    successor = {j[m]: j[m + 1] for j in fields for m in range(3)}
    owner = [i for i, ni in enumerate(n) for _ in range(2 * ni)]
    base = sp.symbols(f"x0:{len(owner)}")
    dim = 2 + len(base)

    def diff(expr, e):
        if e == 0:
            return sum(expr.diff(u) * du for u, du in successor.items())
        return expr.diff(base[e - 2]) if e > 1 else sp.S.Zero

    # dtheta + sum q_i A_i and the base metric to second order at 0:
    # A = (x dy - y dx)/2 + O(rho^3), (1 + k rho^2/4)^-2 = 1 - k rho^2/2 + ...
    conn = [sp.S.Zero, sp.S.One] + [sp.S.Zero] * len(base)
    g = sp.zeros(dim)
    g[0, 0] = 1
    for e in range(2, dim, 2):
        i, (x, y) = owner[e - 2], base[e - 2:e]
        conn[e], conn[e + 1] = -q[i] * y / 2, q[i] * x / 2
        g[e, e] = g[e + 1, e + 1] = (fields[i + 1][0] ** 2
                                     * (1 - k[i] * (x * x + y * y) / 2))
    g += fields[0][0] ** 2 * sp.Matrix(conn) * sp.Matrix(conn).T

    origin = {x: 0 for x in base}
    dg = [g.applyfunc(lambda u: diff(u, e)) for e in range(dim)]
    d1 = [m.xreplace(origin) for m in dg]
    d2 = [[m.applyfunc(lambda u: diff(u, e)).xreplace(origin) for m in dg]
          for e in range(dim)]
    g0 = [g[a, a].xreplace(origin) for a in range(dim)]

    def lower(d, a, b, c):
        return (d[b][a, c] + d[c][a, b] - d[a][b, c]) / 2

    R = range(dim)
    gamma = [[[lower(d1, a, b, c) / g0[a] for c in R] for b in R] for a in R]
    # d_e Gamma^a_bc, with d_e g^ad = -d_e g_ad / (g_aa g_dd) at the origin.
    dgamma = [[[[lower(d2[e], a, b, c) / g0[a]
                 - sum(d1[e][a, d] / (g0[a] * g0[d]) * lower(d1, d, b, c)
                       for d in R)
                 for c in R] for b in R] for a in R] for e in R]
    ricci = sp.Matrix(dim, dim, lambda b, d: sum(
        dgamma[a][a][d][b] - dgamma[d][a][a][b]
        + sum(gamma[a][a][e] * gamma[e][d][b]
              - gamma[a][d][e] * gamma[e][a][b] for e in R) for a in R))

    # d/dtheta has length H at the origin; d/ds and every d/dx unit length
    # in ds^2 and g_i.
    diagonal = [ricci[a, a] for a in R]
    diagonal[1] /= fields[0][0] ** 2
    jets = [u for j in fields for u in j[:3]]
    return AnsatzOracle(ricci, tuple(owner),
                        sp.lambdify(jets, diagonal, "numpy"))


def oracle_rows(n, k, q, jets):
    """Ric(nu, nu), Ric(zhat, zhat) and the horizontal coefficient of every
    base direction with respect to g_i, shape (2 + 2 sum n_i, M), at the
    arclength jets (h, h_s, h_ss of shape (M,); f, f_s, f_ss of (r, M))."""
    args = [jets.h, jets.h_s, jets.h_ss]
    for i in range(len(n)):
        args += [jets.f[i], jets.f_s[i], jets.f_ss[i]]
    rows = ansatz_oracle(n, k, q).rows(*args)
    return np.array(np.broadcast_arrays(*rows), float)
