"""Curvature layer: frozen midpoint anchors, cross-form agreement,
stencil accuracy, and parabolic scaling laws."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bundleflow.geometry as geo

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
        t=0.0, sigma=sigma, a=np.full(cells, math.pi), h=np.sin(s),
        f=np.sqrt(4.0 - 2.0 * np.cos(s))[None, :])


# ----------------------------------------------------------------------
# Frozen anchors at s = pi/2 (exact rationals for the canonical data).


class TestMidpointAnchors:
    jets = canonical_analytic_jets(CELLS)

    def test_laplacian_of_f_squared(self):
        lap = geo.laplacian_f2(CANON, self.jets)
        assert lap[0, MID] == pytest.approx(1.0, rel=1e-12)

    def test_ricci_full(self):
        ric = geo.ricci_full(CANON, cell=MID, jets=self.jets)
        assert ric.nn == pytest.approx(1.125, rel=1e-12)
        assert ric.zz == pytest.approx(1.125, rel=1e-12)
        assert ric.horiz[0] == pytest.approx(1.5, rel=1e-12)
        assert not ric.advisory

    def test_ricci_kahler_matches_anchors(self):
        ric = geo.ricci_kahler(CANON, cell=MID, jets=self.jets)
        assert ric.nn == pytest.approx(1.125, rel=1e-12)
        assert ric.zz == pytest.approx(1.125, rel=1e-12)
        assert ric.horiz[0] == pytest.approx(1.5, rel=1e-12)
        assert not ric.advisory

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
    full = geo.ricci_full(CANON, jets=jets)
    kahler = geo.ricci_kahler(CANON, jets=jets)
    assert np.abs(full.nn - kahler.nn).max() <= 1e-10 * np.abs(full.nn).max()
    assert np.abs(full.zz - kahler.zz).max() <= 1e-10 * np.abs(full.zz).max()
    assert np.abs(full.horiz - kahler.horiz).max() \
        <= 1e-10 * np.abs(full.horiz).max()
    assert not kahler.advisory


def test_kahler_defect_of_constant_factor_profile():
    cells = 128
    sigma = geo.cell_centers(cells)
    state = geo.ProfileState(t=0.0, sigma=sigma, a=np.full(cells, math.pi),
                             h=np.sin(math.pi * sigma),
                             f=np.full((1, cells), 2.0))
    defect = geo.kahler_defect(CANON, state)
    assert defect.max() == pytest.approx(2.0, rel=1e-3)
    ric = geo.ricci_kahler(CANON, state)
    assert ric.advisory


def test_two_factor_instance():
    spec = geo.BundleSpec(n=(1, 2), k=(2.0, 6.0), q=(1, -2))
    assert spec.lam == (2.0, 6.0)
    cells = 256
    sigma = geo.cell_centers(cells)
    s = math.pi * sigma
    running = 1.0 - np.cos(s)  # integral of h = sin over arclength
    f1 = np.sqrt(2.0 + 1.0 * running)
    f2 = np.sqrt(8.0 - 2.0 * running)
    state = geo.ProfileState(t=0.0, sigma=sigma, a=np.full(cells, math.pi),
                             h=np.sin(s), f=np.vstack([f1, f2]))
    assert geo.kahler_defect(spec, state).max() < 1e-5
    full = geo.ricci_full(spec, state)
    kahler = geo.ricci_kahler(spec, state)
    scale = np.abs(full.horiz).max()
    assert np.abs(full.nn - kahler.nn).max() < 1e-4
    assert np.abs(full.horiz - kahler.horiz).max() < 1e-4 * scale
    # The cross-factor sectional class must be covered by the proxy.
    jets = geo.profile_jets(state)
    cross = np.abs(jets.f_s[0] / jets.f[0] * jets.f_s[1] / jets.f[1])
    assert geo.curvature_sup_proxy(spec, state) >= cross.max() - 1e-12


# ----------------------------------------------------------------------
# Grid calculus.


def test_stencils_exact_parity_trig():
    for cells in (64, 128):
        sigma = geo.cell_centers(cells)
        d = 1.0 / cells
        odd = np.sin(math.pi * sigma)
        even = np.cos(2.0 * math.pi * sigma)
        stencil = geo.Stencil(np.array([geo.ODD, geo.EVEN]), cells, d)
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
        jets = geo.profile_jets(state)
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


def test_cell_bounds_checked():
    state = canonical_state(64)
    with pytest.raises(IndexError):
        geo.ricci_kahler(CANON, state, cell=64)
    with pytest.raises(IndexError):
        geo.ricci_full(CANON, state, cell=400)


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
    assert spec.lam == (4.0,)


def test_profile_state_validation():
    cells = 16
    sigma = geo.cell_centers(cells)
    with pytest.raises(ValueError):
        geo.ProfileState(t=0.0, sigma=np.linspace(0, 1, cells),
                         a=np.ones(cells), h=np.ones(cells),
                         f=np.ones((1, cells)))
    state = geo.ProfileState(t=0.0, sigma=sigma, a=np.ones(cells),
                             h=np.ones(cells), f=np.ones((1, cells)))
    state.validate()
    bad = dataclasses.replace(state, f=-state.f)
    with pytest.raises(ValueError):
        bad.validate()


# ----------------------------------------------------------------------
# Scaling laws (parabolic rescaling sends (a, h, f) to sqrt(K) times
# themselves; curvatures divide by K).


@given(st.floats(min_value=0.2, max_value=5.0))
def test_proxy_scaling_law(K):
    state = canonical_state(128)
    scaled = dataclasses.replace(state, a=math.sqrt(K) * state.a,
                                 h=math.sqrt(K) * state.h,
                                 f=math.sqrt(K) * state.f)
    assert geo.curvature_sup_proxy(CANON, scaled) \
        == pytest.approx(geo.curvature_sup_proxy(CANON, state) / K,
                         rel=1e-10)


@given(st.floats(min_value=0.2, max_value=5.0))
def test_ricci_and_oneill_scaling(K):
    state = canonical_state(128)
    scaled = dataclasses.replace(state, a=math.sqrt(K) * state.a,
                                 h=math.sqrt(K) * state.h,
                                 f=math.sqrt(K) * state.f)
    ric = geo.ricci_full(CANON, state, cell=64)
    ric_k = geo.ricci_full(CANON, scaled, cell=64)
    assert ric_k.nn == pytest.approx(ric.nn / K, rel=1e-10)
    assert ric_k.zz == pytest.approx(ric.zz / K, rel=1e-10)
    # rho is reported against the fixed base metric g_i, so it carries the
    # K from F^2 and stays invariant: rho_K = rho.
    assert ric_k.horiz[0] == pytest.approx(ric.horiz[0], rel=1e-10)
