"""Inputs shared by several test modules."""

import numpy as np
import pytest

from mftk import OutcomeDistribution, Povm, ProbabilityTable, random_povm, save_json, table_to_obj


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
def near_boundary_pairs():
    """Factory: the first ``count`` (z, x) pairs of the seed-19 corpus of
    pairs near the order's boundary, in its draw order.

    Each x post-processes a random z by a random column-stochastic mu and
    then tilts its first two effects by +-eps h, with h a traceless
    Hermitian matrix of entrywise max 1 and eps 0.3e-8 to 4e-8. These
    pairs sit within a few ``DECISION_ATOL`` of the boundary, where
    ``povm_geq`` may hand them to its LP fallback (trial 11 goes there).
    """

    def make(count: int) -> list[tuple[Povm, Povm]]:
        rng = np.random.default_rng(19)
        pairs = []
        for _ in range(count):
            d, n, nx = (int(rng.integers(2, 5)) for _ in range(3))
            z = random_povm(d, n, seed=int(rng.integers(1 << 30)))
            mu = rng.random((nx, n))
            mu /= mu.sum(0)
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = h + h.conj().T
            h -= np.trace(h) / d * np.eye(d)
            h /= np.abs(h).max()
            eps = rng.uniform(0.3, 4) * 1e-8
            x = np.einsum("xz,zij->xij", mu, z.matrices())
            x[0] += eps * h
            x[1] -= eps * h
            pairs.append((z, Povm.from_matrices(d, x)))
        return pairs

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
