"""The exact data of exact_solutions.py against the package's own RHS."""

import numpy as np
import pytest

from bundleflow.evolution import _stage
from bundleflow.geometry import RicciFeatures, Stencil, field_parities
from exact_solutions import KE_LENGTH, KE_SPEC, ke_state


def homothety_miss(state):
    """max |d/dt log Y + 1| of the flow's stage at ``state``."""
    Y = np.vstack([state.a, state.h, state.f])
    _, _, rates = _stage(Y, Stencil(field_parities(KE_SPEC.r), state.cells),
                         RicciFeatures(KE_SPEC, state.cells),
                         np.empty_like(Y))
    return float(np.max(np.abs(rates + 1.0)))


def test_ke_length():
    length, _ = ke_state(8)
    assert length == pytest.approx(KE_LENGTH, rel=0.0, abs=1e-12)


def test_ke_shrinks_homothetically_at_fourth_order():
    # The stencils are fourth order, so the miss falls about 16x per
    # doubling of cells (measured 2.9e-4, 1.9e-5 and 1.2e-6).
    miss = [homothety_miss(ke_state(cells)[1]) for cells in (32, 64, 128)]
    assert miss[1] <= 3e-5
    assert miss[0] >= 12.0 * miss[1]
    assert miss[1] >= 12.0 * miss[2]
