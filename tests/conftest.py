"""Inputs shared by several test modules."""

import numpy as np
import pytest

from mftk import Povm


@pytest.fixture
def tilted_basis():
    """Factory: the computational basis of C^d with its first two effects
    tilted by +-eps (|0><1| + |1><0|).

    Every post-processing of ``computational_povm(d)`` is diagonal, so it
    misses the tilted basis by exactly eps entrywise; the game ``povm_geq``
    reads off the least-squares residual proves only a miss of eps / d.
    With tol < eps <= d * tol the pair therefore reaches the LP fallback,
    which answers "does not hold".
    """

    def make(d: int, eps: float = 1.5e-8) -> Povm:
        effects = np.zeros((d, d, d), dtype=complex)
        effects[np.arange(d), np.arange(d), np.arange(d)] = 1.0
        effects[0, 0, 1] = effects[0, 1, 0] = eps
        effects[1, 0, 1] = effects[1, 1, 0] = -eps
        return Povm.from_matrices(d, effects)

    return make
