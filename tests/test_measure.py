import numpy as np
import pytest

from mftk import (
    DensityMatrix,
    OutcomeDistribution,
    Povm,
    QuantumChannel,
    StochasticMatrix,
    apply_channel,
    basis_state,
    born_probabilities,
    compose_stochastic,
    computational_povm,
    maximally_mixed,
    post_process,
    pure_state,
    random_channel,
    random_povm,
    random_state,
    trivial_povm,
    validate_povm,
    xbasis_povm,
)
from mftk.errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
)


# ----------------------------------------------------------------- states

def test_density_matrix_accepts_valid():
    rho = DensityMatrix(dim=2, matrix=np.diag([0.7, 0.3]).astype(complex))
    assert rho.dim == 2
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9  # read-only


def test_density_matrix_rejections():
    with pytest.raises(NonHermitianError):
        DensityMatrix(dim=2, matrix=np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, matrix=np.diag([0.7, 0.7]))
    with pytest.raises(NotPositiveSemidefiniteError):
        DensityMatrix(dim=2, matrix=np.diag([1.5, -0.5]))
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(dim=3, matrix=np.eye(2) / 2)


def test_state_factories():
    np.testing.assert_allclose(basis_state(3, 1).matrix, np.diag([0, 1, 0]), atol=1e-15)
    np.testing.assert_allclose(maximally_mixed(4).matrix, np.eye(4) / 4)
    v = np.array([3.0, 4.0])  # unnormalized on purpose
    rho = pure_state(v)
    np.testing.assert_allclose(np.trace(rho.matrix), 1.0)
    np.testing.assert_allclose(rho.matrix, rho.matrix @ rho.matrix, atol=1e-12)


# ------------------------------------------------------------------ POVMs

def test_povm_container_and_labels():
    p = computational_povm(3)
    assert p.n_outcomes == 3
    assert p.labels == ("0", "1", "2")
    q = Povm.from_matrices(2, [np.eye(2) / 2, np.eye(2) / 2], labels=["h", "t"])
    assert q.labels == ("h", "t")
    with pytest.raises(ValueError):
        Povm(dim=2, effects=())
    with pytest.raises(DimensionMismatchError):
        Povm.from_matrices(3, [np.eye(2)])


def test_validate_povm_passes_good_measurements():
    assert validate_povm(computational_povm(2)).ok
    assert validate_povm(xbasis_povm()).ok
    assert validate_povm(trivial_povm(5)).ok


def test_validate_povm_flags_each_defect():
    bad_sum = Povm.from_matrices(2, [np.eye(2) * 0.6, np.eye(2) * 0.6])
    report = validate_povm(bad_sum)
    assert not report.ok
    assert report.violations[0].invariant == "completeness"
    assert report.violations[0].magnitude == pytest.approx(0.2, abs=1e-12)

    not_herm = Povm.from_matrices(2, [np.array([[0.5, 0.3], [0.0, 0.5]]), np.array([[0.5, -0.3], [0.0, 0.5]])])
    assert any(v.invariant == "hermiticity" for v in validate_povm(not_herm).violations)

    not_psd = Povm.from_matrices(2, [np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
    assert any(v.invariant == "positivity" for v in validate_povm(not_psd).violations)


def test_validate_povm_reports_effects_in_order_then_completeness():
    # 'a' is neither Hermitian nor PSD: only its Hermiticity is reported.
    mixed = Povm.from_matrices(2, [np.array([[0.5, 0.3], [0.0, -0.5]]), np.diag([-0.2, 0.3]),
                                   np.diag([0.5, 0.1])], labels=["a", "b", "c"])
    assert validate_povm(mixed).lines() == [
        "hermiticity: effect 'a' is not Hermitian (magnitude 3.000e-01)",
        "positivity: effect 'b' has eigenvalue -2.000e-01 (magnitude 2.000e-01)",
        "completeness: effect sum deviates from identity at entry (1, 1) (magnitude 1.100e+00)",
    ]


def test_validate_povm_atol_applies_to_positivity():
    tiny = Povm.from_matrices(2, [np.diag([1 + 1e-7, 0.5]), np.diag([-1e-7, 0.5])])
    expected = ["positivity: effect '1' has eigenvalue -1.000e-07 (magnitude 1.000e-07)"]
    assert validate_povm(tiny).lines() == expected
    assert validate_povm(tiny, atol=1e-8).lines() == expected
    assert validate_povm(tiny, atol=1e-6).ok


def test_povm_stack_is_built_once_and_read_only():
    p = computational_povm(3)
    stack = p.matrices()
    assert p.matrices() is stack
    assert not stack.flags.writeable
    assert np.array_equal(stack, np.stack([e.matrix for e in p.effects]))


# ---------------------------------------------------------- distributions

def test_outcome_distribution_clamps_round_off():
    q = OutcomeDistribution(labels=("a", "b"), probs=np.array([1.0 + 5e-13, -5e-13]))
    assert q.probs[1] == 0.0
    np.testing.assert_allclose(q.probs.sum(), 1.0)


def test_value_type_errors_print_plain_numbers():
    with pytest.raises(ValueError, match=r"^state trace 1\.5 differs from 1 beyond 1e-10$"):
        DensityMatrix(dim=2, matrix=np.diag([1.0, 0.5]))
    with pytest.raises(ValueError, match=r"^probabilities sum to 1\.1, not 1$"):
        OutcomeDistribution(labels=("a", "b"), probs=[0.5, 0.6])


def test_outcome_distribution_rejections():
    with pytest.raises(ValueError):
        OutcomeDistribution(labels=("a", "b"), probs=np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        OutcomeDistribution(labels=("a", "b"), probs=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        OutcomeDistribution(labels=("a",), probs=np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_types_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^probabilities must be finite$"):
        OutcomeDistribution(labels=("a", "b", "c"), probs=[bad, 0.5, 0.5])
    with pytest.raises(ValueError, match="^conditional probabilities must be finite$"):
        StochasticMatrix(2, 2, [[bad, 0.0], [0.0, 1.0]])


# --------------------------------------------------------------- channels

def test_channel_requires_trace_preservation():
    with pytest.raises(ValueError):
        QuantumChannel(2, 2, (np.eye(2) * 0.9,))
    phi = QuantumChannel.identity(3)
    rho = random_state(3, seed=0)
    np.testing.assert_allclose(apply_channel(phi, rho).matrix, rho.matrix, atol=1e-12)


def test_depolarizing_channel_erases():
    phi = QuantumChannel.depolarizing(2)
    rho = random_state(2, seed=1)
    np.testing.assert_allclose(apply_channel(phi, rho).matrix, np.eye(2) / 2, atol=1e-12)


def test_unitary_channel_action():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    rho = basis_state(2, 0)
    out = apply_channel(QuantumChannel.unitary(u), rho)
    np.testing.assert_allclose(out.matrix, basis_state(2, 1).matrix, atol=1e-15)


# ------------------------------------------------------------- stochastic

def test_stochastic_matrix_validation():
    StochasticMatrix(2, 3, np.array([[0.2, 0.5], [0.3, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        StochasticMatrix(2, 2, np.array([[0.9, 0.5], [0.3, 0.5]]))
    with pytest.raises(ValueError):
        StochasticMatrix(2, 2, np.array([[1.1, 0.5], [-0.1, 0.5]]))
    with pytest.raises(DimensionMismatchError):
        StochasticMatrix(3, 2, np.eye(2))


def test_stochastic_helpers_and_composition():
    ident = StochasticMatrix.identity(3)
    np.testing.assert_allclose(ident.entries, np.eye(3))
    det = StochasticMatrix.deterministic([2, 0, 2], 3, 3)
    np.testing.assert_allclose(det.entries[:, 0], [0, 0, 1])
    merged = compose_stochastic(StochasticMatrix.merge_all(3), det)
    np.testing.assert_allclose(merged.entries, np.ones((1, 3)))
    with pytest.raises(DimensionMismatchError):
        compose_stochastic(StochasticMatrix.identity(2), det)


# ------------------------------------------------------------- statistics

def test_born_basis_cases():
    q = born_probabilities(basis_state(2, 0), computational_povm(2))
    np.testing.assert_allclose(q.probs, [1.0, 0.0], atol=1e-15)
    q = born_probabilities(basis_state(2, 0), xbasis_povm())
    np.testing.assert_allclose(q.probs, [0.5, 0.5], atol=1e-15)
    with pytest.raises(DimensionMismatchError):
        born_probabilities(basis_state(3, 0), computational_povm(2))


def test_born_sums_to_one_on_random_pairs():
    for i in range(20):
        d = 2 + i % 3
        rho = random_state(d, seed=[20, i])
        povm = random_povm(d, 2 + i % 4, seed=[21, i])
        q = born_probabilities(rho, povm)
        np.testing.assert_allclose(q.probs.sum(), 1.0, atol=1e-12)


def test_post_process_commutes_with_born():
    # Relabeling then measuring equals measuring then relabeling.
    rng = np.random.default_rng(22)
    for i in range(10):
        z = random_povm(2, 4, seed=[23, i])
        raw = rng.uniform(size=(3, 4))
        lam = StochasticMatrix(4, 3, raw / raw.sum(axis=0, keepdims=True))
        rho = random_state(2, seed=[24, i])
        direct = born_probabilities(rho, post_process(z, lam)).probs
        indirect = lam.entries @ born_probabilities(rho, z).probs
        np.testing.assert_allclose(direct, indirect, atol=1e-12)


def test_post_process_shape_check():
    with pytest.raises(DimensionMismatchError):
        post_process(computational_povm(2), StochasticMatrix.identity(3))


# ----------------------------------------------------------------- random

def test_random_state_is_valid_and_seeded():
    a = random_state(3, seed=5)
    b = random_state(3, seed=5)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert np.trace(a.matrix).real == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [0, -1])
def test_random_state_rejects_a_nonpositive_dim(dim):
    with pytest.raises(ValueError, match=r"^dim must be >= 1$"):
        random_state(dim, seed=0)


def test_random_povm_is_valid():
    for i in range(10):
        p = random_povm(2 + i % 3, 2 + i % 4, seed=[6, i])
        assert validate_povm(p).ok


def test_random_channel_is_trace_preserving():
    for i in range(5):
        phi = random_channel(3, 2, seed=[7, i])
        total = sum(k.conj().T @ k for k in phi.kraus)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)


def test_value_types_take_transposed_complex_matrices():
    m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    assert np.array_equal(DensityMatrix(2, m.T).matrix, DensityMatrix(2, m.T.copy()).matrix)
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2)
    assert np.array_equal(QuantumChannel.unitary(u.T).kraus[0], u.T.copy())
    effects = np.array([[[0.5, 0.5j], [-0.5j, 0.5]], [[0.5, -0.5j], [0.5j, 0.5]]])
    views = [e.T for e in effects]
    copies = [e.T.copy() for e in effects]
    assert np.array_equal(Povm.from_matrices(2, views).matrices(),
                          Povm.from_matrices(2, copies).matrices())
    broken = m.copy()
    broken[0, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        DensityMatrix(2, broken.T)
