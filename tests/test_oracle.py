"""Cross-check curvature against an independent left-invariant-frame oracle.

The oracle computes the Ricci tensor of a cohomogeneity-one metric on
I x SU(2) symbolically from structure constants and the Koszul formula,
sharing no code with the production stencils.  A circle bundle over CP^1
with Chern number q and base scale k pulls back to such a metric, so the
production components evaluated on arbitrary profile jets must agree.
"""

import time

import numpy as np
import pytest

import bundleflow.geometry as geo
from bundleflow.initial_data import (ProfileTemplate, build_kahler_profile,
                                     canonical_preset)
from koszul_oracle import berger_ricci, profile_to_berger, round_sphere_residual


def _compare(spec, state, cells_to_check, tol):
    jets = geo.profile_jets(state)
    oracle = berger_ricci(*profile_to_berger(
        spec.k[0], spec.q[0], jets.f[0], jets.f_s[0], jets.f_ss[0],
        jets.h, jets.h_s, jets.h_ss))
    worst = 0.0
    ric = geo.ricci_full(spec, jets)
    for c in cells_to_check:
        rho_oracle = oracle["horiz_frame"][c] * state.f[0, c] ** 2
        for got, want in ((ric.nn[c], oracle["nn"][c]),
                          (ric.zz[c], oracle["fiber"][c]),
                          (ric.horiz[0, c], rho_oracle)):
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
    assert worst <= tol, f"worst relative disagreement {worst:.3e}"
    assert oracle["offdiag_max"].max() <= tol


def test_round_sphere_self_check():
    assert round_sphere_residual(64) < 1e-10


def test_oracle_matches_canonical_instance():
    start = time.perf_counter()
    spec, state = canonical_preset(64)
    cells = np.linspace(3, 60, 10).astype(int)
    _compare(spec, state, cells, 1e-8)
    assert time.perf_counter() - start < 10.0


def test_oracle_matches_second_instance():
    spec = geo.BundleSpec(n=(1,), k=(3.0,), q=(1,))
    state = build_kahler_profile(
        spec, ProfileTemplate(length=np.pi, f0=(2.5,)), 64)
    cells = np.linspace(3, 60, 10).astype(int)
    _compare(spec, state, cells, 1e-8)
