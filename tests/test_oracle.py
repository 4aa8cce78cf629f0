"""Cross-check curvature against the independent coordinate oracle.

tests/ansatz_oracle.py computes the Ricci tensor of the whole ansatz from
coordinate Christoffel symbols, with each base factor a product of
constant-curvature surfaces, and shares no code with the production
stencils.  geometry.ricci_rows must agree with it on random jets for every
shape of the ansatz (r >= 2, n_i >= 2, k_i <= 0, any twist) and on the
jets of real initial data.
"""

import ast
import time
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import bundleflow.geometry as geo
from bundleflow.initial_data import build_kahler_profile, canonical_preset
from ansatz_oracle import ansatz_oracle, oracle_rows
import reference as ref

# (n, k, q); the first is the canonical SU(2) instance.
CASES = [((1,), (2.0,), (2,)),
         ((1,), (-1.0,), (1,)),
         ((1,), (0.0,), (3,)),
         ((1, 1), (2.0, -1.0), (1, 2)),
         ((2,), (3.0,), (1,)),
         ((2, 1), (3.0, 0.0), (-2, 1))]


def _random_jets(r, cells=50, seed=0):
    rng = np.random.default_rng(seed)
    return geo.Jets(h=rng.uniform(0.5, 2.0, cells),
                    h_s=rng.uniform(-2.0, 2.0, cells),
                    h_ss=rng.uniform(-2.0, 2.0, cells),
                    f=rng.uniform(0.5, 2.0, (r, cells)),
                    f_s=rng.uniform(-2.0, 2.0, (r, cells)),
                    f_ss=rng.uniform(-2.0, 2.0, (r, cells)))


def _package_rows(spec, owner, jets):
    """ricci_full laid out like oracle_rows: one row per base direction."""
    ric = ref.ricci_full(spec, jets)
    return np.vstack([ric.nn, ric.zz, ric.horiz[list(owner)]])


def _assert_preserves_the_ansatz(oracle):
    """Every off-diagonal entry is identically 0, and all 2 n_i base
    directions of factor i carry the same coefficient rho_i."""
    ric, owner = oracle.ricci, oracle.owner
    for a in range(ric.rows):
        for b in range(a + 1, ric.rows):
            assert sp.cancel(ric[a, b]) == 0, (a, b)
    for e in range(1, len(owner)):
        if owner[e] == owner[e - 1]:
            assert sp.cancel(ric[e + 2, e + 2] - ric[e + 1, e + 1]) == 0, e


def _compare(spec, jets, cells, tol):
    n, q = (tuple(int(v) for v in col[:, 0]) for col in (spec.n, spec.q))
    k = tuple(float(v) for v in spec.k[:, 0])
    oracle = ansatz_oracle(n, k, q)
    _assert_preserves_the_ansatz(oracle)
    want = oracle_rows(n, k, q, jets)[:, cells]
    got = _package_rows(spec, oracle.owner, jets)[:, cells]
    worst = (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max()
    assert worst <= tol, f"worst relative disagreement {worst:.3e}"


@pytest.mark.parametrize("n, k, q", CASES)
def test_ricci_rows_match_oracle_on_random_jets(n, k, q):
    """At 1e-12 relative, with the oracle's Ricci diagonal and its base
    directions equal and its off-diagonal entries identically 0."""
    _compare(geo.BundleSpec(n, k, q), _random_jets(len(n)), slice(None),
             1e-12)


def test_fubini_study_self_check():
    """CP^2 is (n, k, q) = (1, 4, 2) with H = sin s cos s, F = sin s: the
    Fubini-Study metric, Einstein with Ric = 6 g in every frame slot."""
    s = np.linspace(0.05, np.pi / 2 - 0.05, 40)
    jets = geo.Jets(h=np.sin(s) * np.cos(s), h_s=np.cos(2 * s),
                    h_ss=-2 * np.sin(2 * s), f=np.sin(s)[None],
                    f_s=np.cos(s)[None], f_ss=-np.sin(s)[None])
    _assert_preserves_the_ansatz(ansatz_oracle((1,), (4.0,), (2,)))
    rows = oracle_rows((1,), (4.0,), (2,), jets)
    rows[2:] /= jets.f ** 2
    assert np.abs(rows - 6.0).max() <= 1e-12 * 6.0


@pytest.mark.parametrize("n, k, q", CASES)
def test_heat_defect_is_the_kahler_defect_product(n, k, q):
    """-2 rho_i - lap(f_i^2) + 2 k_i
    = (q_i h - 2 f_i f_i,s)(q_i h + 2 f_i f_i,s) / f_i^2."""
    spec = geo.BundleSpec(n, k, q)
    jets = _random_jets(len(n))
    rows = oracle_rows(n, k, q, jets)
    first = np.cumsum((0,) + n[:-1])
    rho = rows[2 + 2 * first]
    lhs = -2.0 * rho - geo.laplacian_f2(spec, jets) + 2.0 * spec.k
    twist, slope = spec.q * jets.h, 2.0 * jets.f * jets.f_s
    rhs = (twist - slope) * (twist + slope) / jets.f ** 2
    assert (np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs))).all()


def test_oracle_imports_nothing_from_the_package():
    """The oracle's value is that it shares no formula with ricci_rows."""
    path = Path(__file__).with_name("ansatz_oracle.py")
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"collections", "functools", "numpy", "sympy"}
    assert "bundleflow" not in path.read_text()


def test_oracle_matches_canonical_instance():
    start = time.perf_counter()
    spec, state = canonical_preset(64)
    cells = np.linspace(3, 60, 10).astype(int)
    _compare(spec, ref.profile_jets(state), cells, 1e-8)
    assert time.perf_counter() - start < 10.0


def test_oracle_matches_second_instance():
    spec = geo.BundleSpec(n=(1,), k=(3.0,), q=(1,))
    state = build_kahler_profile(spec, np.pi, "sinusoidal", (2.5,), 64)
    cells = np.linspace(3, 60, 10).astype(int)
    _compare(spec, ref.profile_jets(state), cells, 1e-8)
