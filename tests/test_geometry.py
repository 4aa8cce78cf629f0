"""Curvature layer: frozen midpoint anchors, cross-form agreement,
stencil accuracy, and parabolic scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bundleflow.geometry as geo
from bundleflow.evolution import regrid_uniform
import reference as ref

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))
# An odd cell count puts a cell center exactly at sigma = 1/2 (s = pi/2).
CELLS = 401
MID = 200


def canonical_analytic_jets(cells):
    """Exact arclength jets of H = sin s, F^2 = 4 - 2 cos s on (0, pi)."""
    s = math.pi * geo.cell_centers(cells)
    h = np.sin(s)
    f2 = 4.0 - 2.0 * np.cos(s)
    f = np.sqrt(f2)
    f_s = np.sin(s) / f
    f_ss = (np.cos(s) - f_s ** 2) / f
    return geo.Jets(h=h, h_s=np.cos(s), h_ss=-np.sin(s),
                    f=f[None, :], f_s=f_s[None, :], f_ss=f_ss[None, :])


def canonical_state(cells):
    """Discrete canonical profile sampled directly from the closed forms."""
    sigma = geo.cell_centers(cells)
    s = math.pi * sigma
    return geo.ProfileState(
        t=0.0, a=np.full(cells, math.pi), h=np.sin(s),
        f=np.sqrt(4.0 - 2.0 * np.cos(s))[None, :])


# ----------------------------------------------------------------------
# Frozen anchors at s = pi/2 (exact rationals for the canonical data).


class TestMidpointAnchors:
    jets = canonical_analytic_jets(CELLS)

    def test_laplacian_of_f_squared(self):
        lap = geo.laplacian_f2(CANON, self.jets)
        assert lap[0, MID] == pytest.approx(1.0, rel=1e-12)

    def test_ricci_full(self):
        ric = ref.ricci_full(CANON, self.jets)
        assert ric.nn[MID] == pytest.approx(1.125, rel=1e-12)
        assert ric.zz[MID] == pytest.approx(1.125, rel=1e-12)
        assert ric.horiz[0, MID] == pytest.approx(1.5, rel=1e-12)

    def test_ricci_kahler_matches_anchors(self):
        ric = ref.ricci_kahler(CANON, self.jets)
        assert ric.nn[MID] == pytest.approx(1.125, rel=1e-12)
        assert ric.zz[MID] == pytest.approx(1.125, rel=1e-12)
        assert ric.horiz[0, MID] == pytest.approx(1.5, rel=1e-12)

    def test_sup_proxy_value_and_runner_up(self):
        # |H''/H| = 1 everywhere dominates; the largest competing class is
        # lam/F^2 + 3 q^2 H^2/(4 F^4) + (F'/F)^2 with sup 11/16 at F^2 = 8/3.
        assert geo.curvature_sup_proxy(CANON, jets=self.jets) \
            == pytest.approx(1.0, rel=1e-12)
        j = self.jets
        kappa4 = (CANON.lam[0] / j.f ** 2
                  + 3.0 * CANON.q[0] ** 2 * j.h ** 2 / (4.0 * j.f ** 4)
                  + (j.f_s / j.f) ** 2)
        assert kappa4.max() == pytest.approx(0.6875, abs=1e-4)


def test_cross_form_agreement_all_cells():
    jets = canonical_analytic_jets(CELLS)
    full = ref.ricci_full(CANON, jets=jets)
    kahler = ref.ricci_kahler(CANON, jets=jets)
    assert np.abs(full.nn - kahler.nn).max() <= 1e-10 * np.abs(full.nn).max()
    assert np.abs(full.zz - kahler.zz).max() <= 1e-10 * np.abs(full.zz).max()
    assert np.abs(full.horiz - kahler.horiz).max() \
        <= 1e-10 * np.abs(full.horiz).max()


def test_kahler_defect_of_constant_factor_profile():
    cells = 128
    sigma = geo.cell_centers(cells)
    state = geo.ProfileState(t=0.0, a=np.full(cells, math.pi),
                             h=np.sin(math.pi * sigma),
                             f=np.full((1, cells), 2.0))
    jets = ref.profile_jets(state)
    defect = geo.kahler_defect(CANON, jets)
    assert defect.max() == pytest.approx(2.0, rel=1e-3)


def test_two_factor_instance():
    spec = geo.BundleSpec(n=(1, 2), k=(2.0, 6.0), q=(1, -2))
    assert np.array_equal(spec.lam, [[2.0], [6.0]])
    cells = 256
    sigma = geo.cell_centers(cells)
    s = math.pi * sigma
    running = 1.0 - np.cos(s)  # integral of h = sin over arclength
    f1 = np.sqrt(2.0 + 1.0 * running)
    f2 = np.sqrt(8.0 - 2.0 * running)
    state = geo.ProfileState(t=0.0, a=np.full(cells, math.pi),
                             h=np.sin(s), f=np.vstack([f1, f2]))
    jets = ref.profile_jets(state)
    assert geo.kahler_defect(spec, jets).max() < 1e-5
    full = ref.ricci_full(spec, jets)
    kahler = ref.ricci_kahler(spec, jets)
    scale = np.abs(full.horiz).max()
    assert np.abs(full.nn - kahler.nn).max() < 1e-4
    assert np.abs(full.horiz - kahler.horiz).max() < 1e-4 * scale
    # The cross-factor sectional class must be covered by the proxy.
    cross = np.abs(jets.f_s[0] / jets.f[0] * jets.f_s[1] / jets.f[1])
    assert geo.curvature_sup_proxy(spec, jets) >= cross.max() - 1e-12


@pytest.mark.parametrize("r, lapse", [
    (1, "unit"), (2, "unit"), (3, "unit"),
    (1, "nonuniform"), (2, "nonuniform"), (3, "nonuniform")],
    ids=["1", "2", "3", "1-nonuniform", "2-nonuniform", "3-nonuniform"])
def test_ricci_rows_match_docstring_formulas(r, lapse):
    # The feature matrix against the per-row formulas of its docstring,
    # written out term by term on random positive rows and random sigma
    # derivatives.  A nonuniform lapse (random positive a and a') checks
    # the chain rule folded into the features against arclength jets
    # u_s = u'/a, u_ss = (u'' - u_s a')/a^2; a'' must not matter.
    rng = np.random.default_rng(r)
    spec = geo.BundleSpec(n=rng.integers(1, 4, r),
                          k=rng.uniform(-3.0, 3.0, r),
                          q=rng.choice([-3, -2, -1, 1, 2, 3], r))
    cells = 40
    u = rng.uniform(0.5, 2.0, (r + 1, cells))
    u1 = rng.uniform(-1.0, 1.0, (r + 1, cells))
    u2 = rng.uniform(-1.0, 1.0, (r + 1, cells))
    if lapse == "unit":
        a, a1 = np.ones(cells), np.zeros(cells)
    else:
        a, a1 = rng.uniform(0.5, 2.0, cells), rng.uniform(-1.0, 1.0, cells)
    a2 = rng.uniform(-1.0, 1.0, cells)
    u_s = u1 / a
    u_ss = (u2 - u_s * a1) / a ** 2
    h, h_s, h_ss = u[0], u_s[0], u_ss[0]
    f, f_s, f_ss = u[1:], u_s[1:], u_ss[1:]
    n, k, q = spec.n[:, 0], spec.k[:, 0], spec.q[:, 0]
    sum_f_s = sum(2 * n[i] * f_s[i] / f[i] for i in range(r))
    trace_l = h_s / h + sum_f_s
    twist = [q[i] ** 2 * h ** 2 / (2.0 * f[i] ** 4) for i in range(r)]
    expected = [
        -h_ss / h - sum(2 * n[i] * f_ss[i] / f[i] for i in range(r)),
        sum(n[i] * twist[i] for i in range(r)) - h_s / h * sum_f_s
        - h_ss / h]
    expected += [k[i] / f[i] ** 2 - f_s[i] / f[i] * trace_l
                 - f_ss[i] / f[i] + (f_s[i] / f[i]) ** 2 - twist[i]
                 for i in range(r)]
    coef = geo.ricci_coefficients(spec)
    fields = r + 2
    assert coef.shape == (fields, 2 * fields + (r + 1) * fields + r + fields)
    derivs = np.stack([np.vstack([a1, u1]), np.vstack([a2, u2])])
    rows = -geo.ricci_rows(np.vstack([a, u]), derivs,
                           geo.RicciFeatures(spec, cells))
    assert rows.shape == (r + 2, cells)
    for row, want in zip(rows, expected):
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


# ----------------------------------------------------------------------
# Grid calculus.


def test_stencils_exact_parity_trig():
    for cells in (64, 128):
        sigma = geo.cell_centers(cells)
        odd = np.sin(math.pi * sigma)
        even = np.cos(2.0 * math.pi * sigma)
        stencil = geo.Stencil(np.array([geo.ODD, geo.EVEN]), cells)
        (d1, e1), (d2, e2) = geo.stacked_derivs(np.vstack([odd, even]),
                                                stencil)
        assert np.abs(d1 - math.pi * np.cos(math.pi * sigma)).max() < 1e-5
        assert np.abs(d2 + math.pi ** 2 * odd).max() < 1e-4
        assert np.abs(
            e1 + 2.0 * math.pi * np.sin(2.0 * math.pi * sigma)).max() < 1e-4


def test_stencil_convergence_fourth_order():
    errs = []
    grids = (32, 64, 128, 256)
    for cells in grids:
        state = canonical_state(cells)
        jets = ref.profile_jets(state)
        exact = canonical_analytic_jets(cells)
        errs.append(max(np.abs(jets.h_ss - exact.h_ss).max(),
                        np.abs(jets.f_ss - exact.f_ss).max()))
    order = -np.polyfit(np.log(grids), np.log(errs), 1)[0]
    assert order > 3.5


def test_endpoint_even_exact_on_even_quartics():
    cells = 64
    sigma = geo.cell_centers(cells)
    u = 3.0 + sigma ** 2 - 0.5 * sigma ** 4
    left, _ = geo.endpoint_even(u)
    assert left == pytest.approx(3.0, abs=1e-12)
    v = 1.0 + (1.0 - sigma) ** 2 + (1.0 - sigma) ** 4
    _, right = geo.endpoint_even(v)
    assert right == pytest.approx(1.0, abs=1e-12)


def test_cumulative_quadrature():
    errs = []
    for cells in (64, 256):
        sigma = geo.cell_centers(cells)
        u = np.sin(math.pi * sigma)
        cum, total = geo.cumulative_from_left(u, 1.0 / cells, geo.ODD)
        exact = (1.0 - np.cos(math.pi * sigma)) / math.pi
        errs.append(max(np.abs(cum - exact).max(),
                        abs(total - 2.0 / math.pi)))
    assert errs[0] < 1e-7
    assert errs[1] < errs[0] / 200.0  # fourth order: 4^4 = 256 per quartering
    flat, flat_total = geo.cumulative_from_left(np.full(64, 2.5), 1.0 / 64,
                                                geo.EVEN)
    assert np.abs(flat - 2.5 * geo.cell_centers(64)).max() < 1e-12
    assert flat_total == pytest.approx(2.5, abs=1e-12)


def test_arclength_row_is_the_even_cumulative_integral():
    # Bit for bit on random positive lapses of many sizes and scales, so
    # plot draws the profiles at the arclengths the stepper computes.
    rng = np.random.default_rng(11)
    for _ in range(300):
        cells = int(rng.integers(4, 201))
        a = rng.uniform(0.1, 10.0, cells) * 10.0 ** rng.uniform(-8.0, 8.0)
        row = geo.arclength_row(a.tolist())
        assert all(type(s) is float for s in row)
        assert row == geo.cumulative_from_left(a, 1.0 / cells,
                                               geo.EVEN)[0].tolist()
    # 13 * 1e308 overflows: the row says so with non-finite entries.
    row = geo.arclength_row([1.0] * 5 + [1e308] + [1.0] * 26)
    assert not all(map(math.isfinite, row))


def test_proxy_rejects_nonfinite():
    jets = canonical_analytic_jets(65)
    h = jets.h.copy()
    h[32] = 0.0
    broken = geo.Jets(h=h, h_s=jets.h_s, h_ss=jets.h_ss, f=jets.f,
                      f_s=jets.f_s, f_ss=jets.f_ss)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="cell"):
            geo.curvature_sup_proxy(CANON, jets=broken)


# ----------------------------------------------------------------------
# Stacks of states (the trace monitor fills its rows a block at a time).

JET_FIELDS = ("h", "h_s", "h_ss", "f", "f_s", "f_ss")


def stack_jets(jets):
    return geo.Jets(**{name: np.stack([getattr(j, name) for j in jets])
                       for name in JET_FIELDS})


def stack_case(case):
    """A spec and five distinct states: smooth even perturbations of a
    canonical (r = 1) or two-factor (r = 2) profile, the latter optionally
    after a stretched gauge was resampled to uniform arclength."""
    cells = 64
    sigma = geo.cell_centers(cells)
    s = math.pi * sigma
    bump = np.cos(s)
    if case == "r1":
        spec, base = CANON, canonical_state(cells)
    else:
        spec = geo.BundleSpec(n=(1, 2), k=(2.0, 6.0), q=(1, -2))
        running = 1.0 - np.cos(s)
        base = geo.ProfileState(
            t=0.0, a=np.full(cells, math.pi), h=np.sin(s),
            f=np.vstack([np.sqrt(2.0 + running),
                         np.sqrt(8.0 - 2.0 * running)]))
        if case == "r2_regridded":
            base = regrid_uniform(geo.ProfileState(
                base.t, base.a * (1.0 + 0.3 * bump), base.h, base.f))
            assert np.ptp(base.a) == 0.0
    # Out of order, so that no stack entry's value follows from its
    # neighbours'.
    return spec, [geo.ProfileState(base.t, base.a * (1.0 + 0.02 * j * bump),
                                   base.h * (1.0 + 0.01 * j),
                                   base.f * (1.0 + 0.03 * j * bump))
                  for j in (3, 0, 4, 1, 2)]


@pytest.mark.parametrize("case", ["r1", "r2", "r2_regridded"])
def test_stacked_calls_equal_per_state_calls(case):
    spec, states = stack_case(case)
    jets = [ref.profile_jets(state) for state in states]
    kappa = geo.curvature_sup_proxy(spec, stack_jets(jets))
    assert kappa.shape == (len(states),)
    assert list(kappa) == [geo.curvature_sup_proxy(spec, j) for j in jets]
    assert len(set(kappa)) == len(states)
    assert list(kappa) not in (sorted(kappa), sorted(kappa)[::-1])
    for fn in (geo.kahler_defect, geo.laplacian_f2):
        stacked = fn(spec, stack_jets(jets))
        assert stacked.shape == (len(states), spec.r, states[0].cells)
        for entry, j in zip(stacked, jets):
            assert np.array_equal(entry, fn(spec, j)), fn.__name__
    dsigma = states[0].dsigma
    for parity, rows in ((geo.EVEN, [state.a for state in states]),
                         (geo.ODD, [state.h for state in states])):
        cum, total = geo.cumulative_from_left(np.stack(rows), dsigma, parity)
        assert cum.shape == (len(rows), states[0].cells)
        for row, row_cum, row_total in zip(rows, cum, total):
            want_cum, want_total = geo.cumulative_from_left(row, dsigma,
                                                            parity)
            assert isinstance(want_total, float)
            assert np.array_equal(row_cum, want_cum)
            assert row_total == want_total
    f2 = np.stack([state.f * state.f for state in states])
    left, right = geo.endpoint_even(f2)
    for rows, row_left, row_right in zip(f2, left, right):
        assert np.array_equal(row_left, geo.endpoint_even(rows)[0])
        assert np.array_equal(row_right, geo.endpoint_even(rows)[1])


def test_stacked_proxy_names_the_nonfinite_cell():
    jets = stack_jets([canonical_analytic_jets(65)] * 3)
    jets.h[1, 32] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError,
                           match=r"at cell 32 of stack entry \(1,\)$"):
            geo.curvature_sup_proxy(CANON, jets=jets)


# ----------------------------------------------------------------------
# Structural validation.


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        geo.BundleSpec(n=(1,), k=(2.0,), q=(0,))
    with pytest.raises(ValueError):
        geo.BundleSpec(n=(0,), k=(2.0,), q=(1,))
    with pytest.raises(ValueError):
        geo.BundleSpec(n=(), k=(), q=())
    with pytest.raises(ValueError):
        geo.BundleSpec(n=(1, 1), k=(2.0,), q=(1, 2))
    spec = geo.BundleSpec(n=(1,), k=(-4.0,), q=(3,))
    assert np.array_equal(spec.lam, [[4.0]])


def test_spec_columns_are_read_only():
    spec = geo.BundleSpec(n=(1, 2), k=(2.0, -6.0), q=(1, -2), lam=(0.5, 3.0))
    want = {"n": [[1.0], [2.0]], "k": [[2.0], [-6.0]], "q": [[1.0], [-2.0]],
            "lam": [[0.5], [3.0]]}
    for name, values in want.items():
        got = getattr(spec, name)
        assert got.dtype == float and np.array_equal(got, values)
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 9.0
    assert spec.r == 2


def test_profile_state_validation():
    cells = 16
    state = geo.ProfileState(t=0.0, a=np.ones(cells), h=np.ones(cells),
                             f=np.ones((1, cells)))
    state.validate()
    assert state.cells == cells and state.dsigma == 1.0 / cells
    # The grid is cell_centers(len(a)): h and the rows of f must match
    # len(a), and it needs at least 4 cells.
    for a, h, f in ((np.ones(3), np.ones(3), np.ones((1, 3))),
                    (state.a, state.h[1:], state.f),
                    (state.a, state.h, state.f[:, 1:])):
        with pytest.raises(ValueError):
            geo.ProfileState(0.0, a, h, f)
    a = state.a.copy()
    a[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        geo.ProfileState(state.t, a, state.h, state.f).validate()
    bad = geo.ProfileState(state.t, state.a, state.h, -state.f)
    with pytest.raises(ValueError):
        bad.validate()


# ----------------------------------------------------------------------
# Scaling laws (parabolic rescaling sends (a, h, f) to sqrt(K) times
# themselves; curvatures divide by K).


@given(st.floats(min_value=0.2, max_value=5.0))
def test_proxy_scaling_law(K):
    state = canonical_state(128)
    scaled = geo.ProfileState(state.t, math.sqrt(K) * state.a,
                              math.sqrt(K) * state.h, math.sqrt(K) * state.f)
    assert geo.curvature_sup_proxy(CANON, ref.profile_jets(scaled)) \
        == pytest.approx(
            geo.curvature_sup_proxy(CANON, ref.profile_jets(state)) / K,
            rel=1e-10)


@given(st.floats(min_value=0.2, max_value=5.0))
def test_ricci_and_oneill_scaling(K):
    state = canonical_state(128)
    scaled = geo.ProfileState(state.t, math.sqrt(K) * state.a,
                              math.sqrt(K) * state.h, math.sqrt(K) * state.f)
    ric = ref.ricci_full(CANON, ref.profile_jets(state))
    ric_k = ref.ricci_full(CANON, ref.profile_jets(scaled))
    assert ric_k.nn[64] == pytest.approx(ric.nn[64] / K, rel=1e-10)
    assert ric_k.zz[64] == pytest.approx(ric.zz[64] / K, rel=1e-10)
    # rho is reported against the fixed base metric g_i, so it carries the
    # K from F^2 and stays invariant: rho_K = rho.
    assert ric_k.horiz[0, 64] == pytest.approx(ric.horiz[0, 64], rel=1e-10)
