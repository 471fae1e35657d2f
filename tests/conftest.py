"""Inputs shared by several test modules."""

import numpy as np
import pytest

from mftk import OutcomeDistribution, Povm, ProbabilityTable, save_json, table_to_obj


@pytest.fixture
def tilted_basis():
    """Factory: the computational basis of C^d with its first two effects
    tilted by +-eps (|0><1| + |1><0|).

    Every post-processing of ``computational_povm(d)`` is diagonal, so it
    misses the tilted basis by exactly eps entrywise. The game ``povm_geq``
    reads off the least-squares residual proves a miss above tol < eps
    without the LP, and at d = 2 it proves eps itself. The backward pair,
    tilted basis to computational basis, reaches the LP fallback at d = 2
    and 4, which answers "does not hold".
    """

    def make(d: int, eps: float = 1.5e-8) -> Povm:
        effects = np.zeros((d, d, d), dtype=complex)
        effects[np.arange(d), np.arange(d), np.arange(d)] = 1.0
        effects[0, 0, 1] = effects[0, 1, 0] = eps
        effects[1, 0, 1] = effects[1, 1, 0] = -eps
        return Povm.from_matrices(d, effects)

    return make


@pytest.fixture
def contradictory_table_file(tmp_path):
    """Path of acceptance #8's table as JSON: A or B tells every pair of its
    four preparations apart with certainty, so d = 1..3 are ruled out."""
    rows = (((1, 0), (0, 1), (1, 0), (0, 1)), ((1, 0), (0, 1), (0, 1), (1, 0)))
    table = ProbabilityTable(4, ("A", "B"), tuple(
        tuple(OutcomeDistribution(("0", "1"), np.array(p, float)) for p in r) for r in rows))
    path = str(tmp_path / "contradictory.json")
    save_json(path, table_to_obj(table))
    return path
