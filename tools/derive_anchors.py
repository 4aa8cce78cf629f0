"""Symbolic derivation of the frozen expected values used by the test suite.

Everything here is computed with sympy from first principles (closed-form
profiles, Taylor expansions for the stencil weights) and printed.  The
numbers frozen into tests/ were produced by this script; rerun it to audit
them.  The independent curvature check lives in tests/ansatz_oracle.py.

Run:  python tools/derive_anchors.py
"""

import sympy as sp


def section(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


# ----------------------------------------------------------------------
# Reference instance: r=1, n=1, k=2, q=2, H = sin s on [0, pi],
# F^2 = 4 - 2 cos s (so that q H = d(F^2)/ds with F^2(0) = 2).
# ----------------------------------------------------------------------

s = sp.Symbol("s", positive=True)
n1, k1, q1, lam1 = 1, 2, 2, 1

H = sp.sin(s)
F2 = 4 - 2 * sp.cos(s)
F = sp.sqrt(F2)

Hp, Hpp = sp.diff(H, s), sp.diff(H, s, 2)
Fp, Fpp = sp.diff(F, s), sp.diff(F, s, 2)

shape_h = Hp / H                      # H'/H
shape_f = Fp / F                      # F'/F
trL = shape_h + 2 * n1 * shape_f

section("canonical instance, pointwise values at s = pi/2")
at = {s: sp.pi / 2}

def show(name, expr):
    val = sp.simplify(expr.subs(at))
    print(f"  {name:28s} = {val}  = {sp.nsimplify(val)}  ~ {float(val):.12g}")

show("H'/H", shape_h)
show("F'/F", shape_f)
show("tr L", trL)

lap_F2 = sp.diff(F2, s, 2) + trL * sp.diff(F2, s)
show("Laplacian of F^2", lap_F2)

ric_nn = -Hpp / H - 2 * n1 * Fpp / F
ric_zz = n1 * q1**2 * H**2 / (2 * F**4) - shape_h * 2 * n1 * shape_f - Hpp / H
rho = (k1 / F**2 - shape_f * trL - Fpp / F + shape_f**2
       - q1**2 * H**2 / (2 * F**4)) * F**2
show("Ric(nu,nu)", ric_nn)
show("Ric(zhat,zhat)", ric_zz)
show("rho_1 (horizontal, wrt base metric)", rho)

# Kahler-form expressions must agree slot by slot.
lap_logH = sp.diff(sp.log(H), s, 2) + trL * sp.diff(sp.log(H), s)
kahler_nn = -lap_logH + 2 * n1 * shape_f**2
kahler_rho = k1 - lap_F2 / 2
show("Kahler-form Ric(nu,nu)", kahler_nn)
show("Kahler-form horizontal", kahler_rho)
print("  identity Ric(nn)=Ric(zz) on Kahler profiles:",
      sp.simplify(ric_nn - ric_zz) == 0)
print("  identity full==Kahler (nn):", sp.simplify(ric_nn - kahler_nn) == 0)
print("  identity full==Kahler (rho):", sp.simplify(rho - kahler_rho) == 0)

Q = sp.diff(F2, s)**2 / F2
show("Li-Yau Q", Q)

section("curvature proxy over s in (0, pi)")
k1_t = sp.Abs(Hpp / H)
k2_t = sp.Abs(Fpp / F)
k3_t = sp.Abs(q1**2 * H**2 / (4 * F**4) - shape_h * shape_f)
k4_t = lam1 / F**2 + 3 * q1**2 * H**2 / (4 * F**4) + shape_f**2
for name, expr in [("kappa1", k1_t), ("kappa2", k2_t),
                   ("kappa3", k3_t), ("kappa4", k4_t)]:
    fn = sp.lambdify(s, expr, "math")
    vals = [fn(0.001 + 3.1405 * i / 2000) for i in range(2001)]
    print(f"  sup {name} ~ {max(vals):.6f}")
print("  kappa1 is identically 1 for H = sin s; proxy = 1.0")

section("flow right-hand sides at s = pi/2 (arclength gauge a = 1)")
fdot = (-k1 / F + Fp * trL + Fpp - Fp**2 / F + q1**2 * H**2 / (2 * F**3))
hdot = (-n1 * q1**2 * H**3 / (2 * F**4) + 2 * n1 * Hp * Fp / F + Hpp)
show("fdot", fdot)
show("hdot", hdot)
show("fdot check, (lap F^2 - 2k)/(2F)", (lap_F2 - 2 * k1) / (2 * F))
show("hdot check, -H*Ric(zhat,zhat)", -H * ric_zz)
show("adot check, -Ric(nu,nu) at a=1", -ric_nn)
print("  heat identity residual 2F*fdot - lapF2 + 2k:",
      sp.simplify(2 * F * fdot - lap_F2 + 2 * k1))

section("boundary laws (Kahler runs)")
# d/dt f_j^2 at an interval end equals lap(F^2) - 2k there; under the Kahler
# condition lap(F^2) -> 2q (left) and -2q (right) as H -> 0 with H' -> +-1.
left = sp.limit(lap_F2, s, 0)
right = sp.limit(lap_F2, s, sp.pi)
print("  lim lap F^2 at s=0  :", left, " (expect 2q = 4)")
print("  lim lap F^2 at s=pi :", right, " (expect -2q = -4)")
print("  left slope  2q - 2k :", 2 * q1 - 2 * k1)
print("  right slope -2q - 2k:", -2 * q1 - 2 * k1)
print("  F^2 endpoints:", F2.subs(s, 0), F2.subs(s, sp.pi))
print("  right-end root of 6 - 8t:", sp.Rational(6, 8))

section("fiber-area law and collapse times")
# For any Kahler run, d/dt (F2_right - F2_left) = -4q exactly, so the
# integral of H over the interval obeys I(t) = I0 - 4t.
L = sp.Symbol("L", positive=True)
I0 = sp.integrate((L / sp.pi) * sp.sin(sp.pi * s / L), (s, 0, L))
print("  I0 for sinusoidal template of length L:", sp.simplify(I0))
print("  at L = pi: I0 =", sp.simplify(I0.subs(L, sp.pi)),
      " collapse time I0/4 =", sp.simplify(I0.subs(L, sp.pi)) / 4)
# canonical run: left slope 0, right slope -8, fiber collapse at t = 1/2,
# before the right-end root 0.75, so the run ends there and T_hat ~ 0.5.
# calabi preset (n=2, k_lens=1, k=4, q=1, f0=6): left 2q-2k = -6 (root at 1),
# right -2q-2k = -10 with F2_R(0) = 8 (root at 0.8), fiber collapse at 0.5.
print("  calabi f0 condition f0 > I0*(k-q)/2 =", 2 * (4 - 1) / 2)

# ----------------------------------------------------------------------
# Finite-difference and quadrature stencil weights.
# ----------------------------------------------------------------------

section("stencil weights (uniform spacing d, cell centers at (i+1/2) d)")

d, x = sp.symbols("d x", positive=True)

def fit_weights(nodes, basis, functional):
    """Weights w with functional(u) = sum w_i u(node_i), exact on basis."""
    m = len(nodes)
    A = sp.Matrix([[b.subs(x, nd) for nd in nodes] for b in basis])
    rhs = sp.Matrix([functional(b) for b in basis])
    return sp.simplify(A.solve(rhs).T), None

# 5-point first/second derivative at the center node.
nodes5 = [-2 * d, -d, 0, d, 2 * d]
poly5 = [x**p for p in range(5)]
w1, _ = fit_weights(nodes5, poly5, lambda b: sp.diff(b, x).subs(x, 0))
w2, _ = fit_weights(nodes5, poly5, lambda b: sp.diff(b, x, 2).subs(x, 0))
print("  d/dx 5pt   :", [sp.nsimplify(w * 12 * d) for w in w1], "/ (12 d)")
print("  d2/dx2 5pt :", [sp.nsimplify(w * 12 * d**2) for w in w2], "/ (12 d^2)")

# Even-parity endpoint value: quartic in x^2 through the first three centers.
nodes3 = [d / 2, 3 * d / 2, 5 * d / 2]
even_basis = [sp.Integer(1), x**2, x**4]
we, _ = fit_weights(nodes3, even_basis, lambda b: b.subs(x, 0))
print("  even endpoint value:", [sp.nsimplify(w * 128) for w in we], "/ 128")

# Half-cell integrals int_0^{d/2} u dx from the first three centers.
wo, _ = fit_weights(nodes3, [x, x**3, x**5],
                    lambda b: sp.integrate(b, (x, 0, d / 2)))
print("  odd half-cell integral :", [sp.nsimplify(w / d) for w in wo], "* d")
wev, _ = fit_weights(nodes3, even_basis,
                     lambda b: sp.integrate(b, (x, 0, d / 2)))
print("  even half-cell integral:", [sp.nsimplify(w / d) for w in wev], "* d")

# Quartic through the five centers nearest an end (at x = 0): its value
# there, d times its slope there, and its values at the two ghost centers.
nodes_end = [(j + sp.Rational(1, 2)) * d for j in range(5)]
end_rows = [fit_weights(nodes_end, poly5, functional)[0]
            for functional in (lambda b: b.subs(x, 0),
                               lambda b: d * sp.diff(b, x).subs(x, 0),
                               lambda b: b.subs(x, -d / 2),
                               lambda b: b.subs(x, -3 * d / 2))]
for name, row in zip(("value", "d * slope", "ghost -d/2", "ghost -3d/2"),
                     end_rows):
    print(f"  end quartic {name:11s}:", [sp.nsimplify(w) for w in row])

# Center-to-center increment int_{x0}^{x0+d} from 4 surrounding centers.
nodes4 = [-d, 0, d, 2 * d]
wc, _ = fit_weights(nodes4, [x**p for p in range(4)],
                    lambda b: sp.integrate(b, (x, 0, d)))
print("  center-to-center integral:", [sp.nsimplify(w * 24 / d) for w in wc],
      "* d / 24")

print()
print("done")
