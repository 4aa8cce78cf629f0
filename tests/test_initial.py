"""Initial-data construction and smooth-closure validation."""

import math

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.initial_data import (PRESETS, ProfileTemplate,
                                     build_general_profile,
                                     build_kahler_profile, calabi_preset,
                                     canonical_preset, sample_h,
                                     validate_closing)

CANON = geo.BundleSpec(n=(1,), k=(2.0,), q=(2,), lam=(1.0,))


def _state_from(h_fn, f2_fn, cells=128, length=math.pi):
    sigma = geo.cell_centers(cells)
    s = length * sigma
    return geo.ProfileState(t=0.0, sigma=sigma, a=np.full(cells, length),
                            h=h_fn(s), f=np.sqrt(f2_fn(s))[None, :])


class TestValidateClosing:
    def test_accepts_sinusoidal_kahler_data(self):
        _, state = canonical_preset(128)
        report = validate_closing(state)
        assert report.passed, report.failures()

    def test_accepts_bump_profile(self):
        state = _state_from(lambda s: s * (math.pi - s) / math.pi,
                            lambda s: 4.0 + 0.0 * s)
        assert validate_closing(state).passed

    def test_rejects_wrong_end_slope(self):
        # H = s (pi - s) has |H'| = pi at the ends, not 1.
        state = _state_from(lambda s: s * (math.pi - s),
                            lambda s: 4.0 + 0.0 * s)
        report = validate_closing(state)
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert "arclength slope of H" in names

    def test_rejects_nonvanishing_h(self):
        state = _state_from(lambda s: 0.5 + 0.4 * np.sin(s),
                            lambda s: 4.0 + 0.0 * s)
        report = validate_closing(state)
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert "fiber length H at end" in names

    def test_rejects_sloped_factor(self):
        state = _state_from(np.sin, lambda s: 4.0 + np.sin(s))
        report = validate_closing(state)
        assert not report.passed
        names = {c.name for c in report.failures()}
        assert "end slope of f1^2" in names

    @pytest.mark.parametrize("length", [math.pi, 10.0, 1e3, 1e4, 1e6])
    def test_factor_slope_check_is_scale_invariant(self, length):
        # The Calabi data has the same shape at every length, so it must
        # close, with the same end-slope residual, at every length.
        _, state = calabi_preset(2, 1, 16, length=length)
        report = validate_closing(state)
        assert report.passed, report.failures()
        slopes = [c.residual for c in report.checks
                  if c.name == "end slope of f1^2"]
        assert slopes == pytest.approx([1.985e-4] * 2, rel=1e-3)

    def test_report_lists_both_sides(self):
        _, state = canonical_preset(64)
        report = validate_closing(state)
        sides = {c.side for c in report.checks}
        assert sides == {"left", "right"}
        assert len(report.checks) == 2 * (3 + 2)  # per side: 3 h + 2 f checks


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
        assert geo.kahler_defect(spec, geo.profile_jets(state)).max() <= 1e-8

    def test_negative_twist_profile(self):
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(-2,))
        tmpl = ProfileTemplate(length=math.pi, f0=(6.0,), mode="kahler")
        state = build_kahler_profile(spec, tmpl, 400)
        f2 = state.f[0] ** 2
        assert np.all(np.diff(f2) < 0.0)
        assert geo.kahler_defect(spec, geo.profile_jets(state)).max() <= 1e-8

    def test_rejects_positivity_loss_interior(self):
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(-2,))
        tmpl = ProfileTemplate(length=math.pi, f0=(2.0,), mode="kahler")
        with pytest.raises(ValueError, match="s ="):
            build_kahler_profile(spec, tmpl, 200)

    def test_rejects_positivity_loss_at_right_endpoint(self):
        # All cell centers stay positive; only the closed right end dips
        # below zero, so the endpoint extrapolation must catch it.
        spec = geo.BundleSpec(n=(1,), k=(2.0,), q=(-2,))
        tmpl = ProfileTemplate(length=math.pi, f0=(4.0 - 1e-5,), mode="kahler")
        with pytest.raises(ValueError, match="increase f0"):
            build_kahler_profile(spec, tmpl, 200)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ProfileTemplate(length=-1.0, f0=(2.0,))
        with pytest.raises(ValueError):
            ProfileTemplate(length=1.0, mode="other")
        with pytest.raises(ValueError, match="one value per factor"):
            build_kahler_profile(
                CANON, ProfileTemplate(length=math.pi, f0=(2.0, 3.0)), 64)
        with pytest.raises(ValueError, match="positive"):
            build_kahler_profile(
                CANON, ProfileTemplate(length=math.pi, f0=(0.0,)), 64)
        with pytest.raises(ValueError, match="kahler"):
            build_kahler_profile(
                CANON,
                ProfileTemplate(length=math.pi, f0=(2.0,), mode="general",
                                f_templates=np.ones((1, 64))), 64)


class TestGeneralBuild:
    def test_constant_factor_accepted(self):
        tmpl = ProfileTemplate(length=math.pi, mode="general",
                               f_templates=np.full((1, 96), 4.0))
        state = build_general_profile(CANON, tmpl, 96)
        assert np.allclose(state.f, 2.0)

    def test_sloped_factor_rejected(self):
        s = math.pi * geo.cell_centers(96)
        tmpl = ProfileTemplate(length=math.pi, mode="general",
                               f_templates=(4.0 + np.sin(s))[None, :])
        with pytest.raises(ValueError, match="smooth closure"):
            build_general_profile(CANON, tmpl, 96)

    def test_shape_mismatch_rejected(self):
        tmpl = ProfileTemplate(length=math.pi, mode="general",
                               f_templates=np.full((2, 96), 4.0))
        with pytest.raises(ValueError, match="shape"):
            build_general_profile(CANON, tmpl, 96)


class TestPresets:
    def test_canonical_spec(self):
        spec, state = canonical_preset(64)
        assert spec == CANON
        assert state.cells == 64

    def test_calabi_defaults(self):
        spec, state = calabi_preset(2, 1, 200)
        assert spec.n == (1,)
        assert spec.k == (4.0,)
        assert spec.q == (1,)
        f2 = state.f[0] ** 2
        assert f2[0] == pytest.approx(6.0, abs=1e-2)
        assert f2[-1] == pytest.approx(8.0, abs=1e-2)
        assert geo.kahler_defect(spec, geo.profile_jets(state)).max() <= 1e-8
        assert validate_closing(state).passed

    def test_calabi_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n must be"):
            calabi_preset(1, 1, 64)
        with pytest.raises(ValueError, match="k_lens"):
            calabi_preset(2, 0, 64)
        with pytest.raises(ValueError, match="n must be an integer"):
            calabi_preset(2.5, 1, 64)
        with pytest.raises(ValueError, match="k_lens must be an integer"):
            calabi_preset(2, 1.5, 64)

    def test_registry_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="no parameters"):
            PRESETS["canonical"](64, n=3)
        with pytest.raises(ValueError, match="unknown calabi"):
            PRESETS["calabi"](64, twist=5)
        spec, state = PRESETS["calabi"](64, n=3, k_lens=2)
        assert spec.n == (2,)
        assert spec.k == (6.0,)
        assert spec.q == (2,)


def test_sample_h_templates():
    sigma = geo.cell_centers(64)
    tmpl = ProfileTemplate(length=2.0, h_template="sinusoidal", f0=(1.0,))
    h = sample_h(tmpl, sigma)
    assert h.max() == pytest.approx(2.0 / math.pi, rel=1e-3)
    bump = sample_h(ProfileTemplate(length=2.0, h_template="bump",
                                    f0=(1.0,)), sigma)
    assert bump.max() == pytest.approx(0.5, rel=1e-3)
    explicit = sample_h(ProfileTemplate(length=2.0, h_template=h,
                                        f0=(1.0,)), sigma)
    assert np.array_equal(explicit, h)
    with pytest.raises(ValueError, match="unknown h template"):
        sample_h(ProfileTemplate(length=1.0, h_template="sawtooth",
                                 f0=(1.0,)), sigma)
    with pytest.raises(ValueError, match="cell count"):
        sample_h(ProfileTemplate(length=1.0, h_template=h[:10],
                                 f0=(1.0,)), sigma)
