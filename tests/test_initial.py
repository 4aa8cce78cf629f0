"""Initial-data construction and smooth-closure validation."""

import math

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.evolution import FlowConfig, InvalidInitialState, run_flow
from bundleflow.initial_data import (PRESETS, build_general_profile,
                                     build_kahler_profile, calabi_preset,
                                     canonical_preset, sample_h,
                                     validate_closing)
import reference as ref

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))


def _state_from(h_fn, f2_fn, cells=128, length=math.pi):
    sigma = geo.cell_centers(cells)
    s = length * sigma
    return geo.ProfileState(t=0.0, a=np.full(cells, length),
                            h=h_fn(s), f=np.sqrt(f2_fn(s))[None, :])


def _general_state(f2_fn, cells=96):
    s = math.pi * geo.cell_centers(cells)
    return build_general_profile(CANON, math.pi, "sinusoidal",
                                 f2_fn(s)[None, :], cells)


# The states that the closure tests below check, by name.
CLOSING_STATES = {
    "canonical 128": lambda: canonical_preset(128)[1],
    "canonical 64": lambda: canonical_preset(64)[1],
    "bump": lambda: _state_from(lambda s: s * (math.pi - s) / math.pi,
                                lambda s: 4.0 + 0.0 * s),
    # H = s (pi - s) has |H'| = pi at the ends, not 1.
    "wrong end slope": lambda: _state_from(lambda s: s * (math.pi - s),
                                           lambda s: 4.0 + 0.0 * s),
    "nonvanishing h": lambda: _state_from(lambda s: 0.5 + 0.4 * np.sin(s),
                                          lambda s: 4.0 + 0.0 * s),
    "sloped factor": lambda: _state_from(np.sin, lambda s: 4.0 + np.sin(s)),
    "general constant factor": lambda: _general_state(
        lambda s: 4.0 + 0.0 * s),
    "general sloped factor": lambda: _general_state(
        lambda s: 4.0 + np.sin(s)),
    **{f"calabi length {length:g}":
       (lambda length=length: calabi_preset(16, length=length)[1])
       for length in (math.pi, 10.0, 1e3, 1e4, 1e6)},
}


def _failed(name):
    return {c.name for c in validate_closing(CLOSING_STATES[name]())
            if not c.ok}


class TestValidateClosing:
    def test_accepts_sinusoidal_kahler_data(self):
        checks = validate_closing(CLOSING_STATES["canonical 128"]())
        assert all(c.ok for c in checks), checks

    def test_accepts_bump_profile(self):
        assert not _failed("bump")

    def test_rejects_wrong_end_slope(self):
        assert "arclength slope of H" in _failed("wrong end slope")

    def test_rejects_nonvanishing_h(self):
        assert "fiber length H at end" in _failed("nonvanishing h")

    def test_rejects_sloped_factor(self):
        assert "end slope of f1^2" in _failed("sloped factor")

    @pytest.mark.parametrize("length", [math.pi, 10.0, 1e3, 1e4, 1e6])
    def test_factor_slope_check_is_scale_invariant(self, length):
        # The Calabi data has the same shape at every length, so it must
        # close, with the same end-slope residual, at every length.
        state = CLOSING_STATES[f"calabi length {length:g}"]()
        checks = validate_closing(state)
        assert all(c.ok for c in checks), checks
        slopes = [c.residual for c in checks
                  if c.name == "end slope of f1^2"]
        assert slopes == pytest.approx([1.985e-4] * 2, rel=1e-3)

    def test_report_lists_both_sides(self):
        checks = validate_closing(CLOSING_STATES["canonical 64"]())
        assert [c.side for c in checks] == ["left"] * 5 + ["right"] * 5
        assert len(checks) == 2 * (3 + 2)  # per side: 3 h + 2 f checks

    @pytest.mark.parametrize("name", sorted(CLOSING_STATES))
    def test_matches_least_squares_fits(self, name):
        # END_QUARTIC reads off the quartic that a least-squares fit to the
        # five end samples finds, so the checks agree with the fits'.
        state = CLOSING_STATES[name]()
        checks = validate_closing(state)
        expected = ref.closing_checks_polyfit(state)
        assert [(c.name, c.side, c.ok) for c in checks] \
            == [(c.name, c.side, c.ok) for c in expected]
        assert [c.residual for c in checks] \
            == pytest.approx([c.residual for c in expected], rel=0,
                             abs=1e-9)


def test_end_quartic_is_exact_on_quartics():
    # Value, dsigma times the inward slope and the two ghost values of a
    # quartic q(sigma), read from the five samples nearest either end.
    poly = np.polynomial.Polynomial([1.5, 2.0, -3.0, 5.0, -7.0])
    slope = poly.deriv()
    for cells in (8, 16, 400):
        sigma, d = geo.cell_centers(cells), 1.0 / cells
        for samples, end, inward in ((sigma[:5], 0.0, 1.0),
                                     (sigma[:-6:-1], 1.0, -1.0)):
            got = geo.END_QUARTIC @ poly(samples)
            want = [poly(end), inward * d * slope(end),
                    poly(end - inward * d / 2),
                    poly(end - inward * 3 * d / 2)]
            assert got == pytest.approx(want, rel=1e-12), (cells, end)


class TestKahlerBuild:
    def test_canonical_profile_brackets(self):
        spec, state = canonical_preset(400)
        f2 = state.f[0] ** 2
        assert f2[0] == pytest.approx(2.0, abs=1e-3)
        assert f2[-1] == pytest.approx(6.0, abs=1e-3)
        assert np.all(np.diff(f2) > 0.0)
        left, right = geo.endpoint_even(f2)
        assert left == pytest.approx(2.0, abs=1e-8)
        assert right == pytest.approx(6.0, abs=1e-8)

    def test_compatibility_defect_small(self):
        spec, state = canonical_preset(400)
        assert geo.kahler_defect(spec, ref.profile_jets(state)).max() <= 1e-8

    def test_negative_twist_profile(self):
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(-2,))
        state = build_kahler_profile(spec, math.pi, "sinusoidal", (6.0,),
                                     400)
        f2 = state.f[0] ** 2
        assert np.all(np.diff(f2) < 0.0)
        assert geo.kahler_defect(spec, ref.profile_jets(state)).max() <= 1e-8

    def test_rejects_positivity_loss_interior(self):
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(-2,))
        with pytest.raises(ValueError, match="s ="):
            build_kahler_profile(spec, math.pi, "sinusoidal", (2.0,), 200)

    def test_rejects_positivity_loss_at_right_endpoint(self):
        # All cell centers stay positive; only the closed right end dips
        # below zero, so the endpoint extrapolation must catch it.
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(-2,))
        with pytest.raises(ValueError, match="increase f0"):
            build_kahler_profile(spec, math.pi, "sinusoidal", (4.0 - 1e-5,),
                                 200)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length must be positive"):
            build_kahler_profile(CANON, -1.0, "sinusoidal", (2.0,), 64)
        with pytest.raises(ValueError, match="one value per factor"):
            build_kahler_profile(CANON, math.pi, "sinusoidal", (2.0, 3.0), 64)
        with pytest.raises(ValueError, match="positive"):
            build_kahler_profile(CANON, math.pi, "sinusoidal", (0.0,), 64)


class TestGeneralBuild:
    def test_constant_factor_accepted(self):
        state = CLOSING_STATES["general constant factor"]()
        assert np.allclose(state.f, 2.0)

    def test_sloped_factor_rejected(self):
        # The builder does not check closure; run_flow refuses to start.
        state = CLOSING_STATES["general sloped factor"]()
        with pytest.raises(InvalidInitialState,
                           match=r"does not close: left end slope of f1\^2 "
                                 r"\(residual "):
            run_flow(CANON, state, FlowConfig(t_end=0.01))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            build_general_profile(CANON, math.pi, "sinusoidal",
                                  np.full((2, 96), 4.0), 96)


class TestPresets:
    def test_canonical_spec(self):
        spec, state = canonical_preset(64)
        for name in ("n", "k", "q", "lam"):
            assert np.array_equal(getattr(spec, name), getattr(CANON, name))
        assert state.cells == 64

    def test_calabi_defaults(self):
        spec, state = calabi_preset(200)
        assert np.array_equal(np.hstack([spec.n, spec.k, spec.q]),
                              [[1, 4, 1]])
        f2 = state.f[0] ** 2
        assert f2[0] == pytest.approx(6.0, abs=1e-2)
        assert f2[-1] == pytest.approx(8.0, abs=1e-2)
        assert geo.kahler_defect(spec, ref.profile_jets(state)).max() <= 1e-8
        assert all(c.ok for c in validate_closing(state))

    def test_calabi_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n must be"):
            calabi_preset(64, n=1)
        with pytest.raises(ValueError, match="k_lens"):
            calabi_preset(64, k_lens=0)
        with pytest.raises(ValueError, match="n must be an integer"):
            calabi_preset(64, n=2.5)
        with pytest.raises(ValueError, match="k_lens must be an integer"):
            calabi_preset(64, k_lens=1.5)

    def test_registry_rejects_unknown_params(self):
        with pytest.raises(TypeError, match="'n'"):
            PRESETS["canonical"](64, n=3)
        with pytest.raises(TypeError, match="'twist'"):
            PRESETS["calabi"](64, twist=5)
        spec, state = PRESETS["calabi"](64, n=3, k_lens=2)
        assert np.array_equal(np.hstack([spec.n, spec.k, spec.q]),
                              [[2, 6, 2]])


def test_sample_h_templates():
    sigma = geo.cell_centers(64)
    h = sample_h("sinusoidal", 2.0, sigma)
    assert h.max() == pytest.approx(2.0 / math.pi, rel=1e-3)
    bump = sample_h("bump", 2.0, sigma)
    assert bump.max() == pytest.approx(0.5, rel=1e-3)
    explicit = sample_h(h, 2.0, sigma)
    assert np.array_equal(explicit, h)
    with pytest.raises(ValueError, match="unknown h template"):
        sample_h("sawtooth", 1.0, sigma)
    with pytest.raises(ValueError, match="cell count"):
        sample_h(h[:10], 1.0, sigma)
