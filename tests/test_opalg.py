import numpy as np
import pytest

from mftk import opalg
from mftk.errors import DimensionMismatchError, NonHermitianError, NotPositiveSemidefiniteError


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_dagger_and_hermitize():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    np.testing.assert_allclose(opalg.dagger(m), m.conj().T)
    h = opalg.hermitize(m)
    assert opalg.is_hermitian(h)
    np.testing.assert_allclose(h, (m + m.conj().T) / 2)


def test_is_hermitian_tolerance():
    m = np.eye(2, dtype=complex)
    assert opalg.is_hermitian(m)
    m = m.copy()
    m[0, 1] = 1e-12
    assert opalg.is_hermitian(m)  # below 1e-10
    m[0, 1] = 1e-8
    assert not opalg.is_hermitian(m)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        opalg.as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        opalg.as_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_as_matrix_takes_transposed_and_strided_complex_input():
    m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    wide = np.zeros((2, 4), dtype=complex)
    wide[:, ::2] = m
    for view in (m.T, wide[:, ::2], np.asfortranarray(m)):
        assert np.array_equal(opalg.as_matrix(view), np.ascontiguousarray(view))
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
        broken = m.copy()
        broken[1, 0] = bad
        for view in (broken, broken.T, np.asfortranarray(broken)):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                opalg.as_matrix(view)


def test_freeze_is_read_only():
    m = opalg.freeze(np.eye(2))
    with pytest.raises(ValueError):
        m[0, 0] = 5.0


def test_tensor_matches_kron():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(opalg.tensor(a, b), np.kron(a, b))


def test_partial_trace_of_product():
    rng = np.random.default_rng(4)
    for d1, d2 in [(2, 2), (2, 3), (3, 4)]:
        a = random_hermitian(d1, rng)
        b = random_hermitian(d2, rng)
        joint = opalg.tensor(a, b)
        np.testing.assert_allclose(
            opalg.partial_trace(joint, d1, d2, keep="first"), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            opalg.partial_trace(joint, d1, d2, keep="second"), b * np.trace(a), atol=1e-12
        )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    m = random_hermitian(6, rng)
    for keep in ("first", "second"):
        reduced = opalg.partial_trace(m, 2, 3, keep=keep)
        np.testing.assert_allclose(np.trace(reduced), np.trace(m), atol=1e-12)


def test_partial_trace_shape_errors():
    with pytest.raises(DimensionMismatchError):
        opalg.partial_trace(np.eye(5), 2, 3, keep="first")
    with pytest.raises(ValueError):
        opalg.partial_trace(np.eye(6), 2, 3, keep="both")


def test_tensor_and_partial_trace_act_matrix_by_matrix_on_stacks():
    rng = np.random.default_rng(6)
    a = np.stack([random_hermitian(2, rng) for _ in range(4)])
    b = random_hermitian(3, rng)
    joint = opalg.tensor(a, b)  # the single b broadcasts against the stack
    assert joint.shape == (4, 6, 6)
    for k in range(4):
        assert np.array_equal(joint[k], opalg.tensor(a[k], b))
        np.testing.assert_allclose(joint[k], np.kron(a[k], b), rtol=1e-15)
        for keep in ("first", "second"):
            assert np.array_equal(opalg.partial_trace(joint, 2, 3, keep=keep)[k],
                                  opalg.partial_trace(joint[k], 2, 3, keep=keep))
    with pytest.raises(DimensionMismatchError):
        opalg.partial_trace(joint, 3, 3)


def test_eigensystem_matches_numpy():
    rng = np.random.default_rng(6)
    h = random_hermitian(4, rng)
    w, v = opalg.hermitian_eigensystem(h)
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    assert np.all(np.diff(w) >= 0)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        opalg.hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


def test_min_eigenvalue():
    h = np.diag([3.0, -0.25, 1.0]).astype(complex)
    assert opalg.min_eigenvalue(h) == pytest.approx(-0.25)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = g @ g.conj().T
    root = opalg.psd_sqrt(h)
    np.testing.assert_allclose(root @ root, h, atol=1e-10)


def test_psd_sqrt_clamps_round_off_but_rejects_real_negativity():
    # A tiny negative eigenvalue is round-off; a real one is an error.
    assert opalg.psd_sqrt(np.diag([1.0, -1e-9]).astype(complex))[1, 1] == 0
    with pytest.raises(NotPositiveSemidefiniteError):
        opalg.psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))


def test_psd_clip_projects_and_is_idempotent():
    h = np.diag([2.0, -0.5]).astype(complex)
    clipped = opalg.psd_clip(h)
    np.testing.assert_allclose(clipped, np.diag([2.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(opalg.psd_clip(clipped), clipped, atol=1e-12)


def test_hermitian_basis_orthonormal():
    for dim in (1, 2, 3, 4):
        basis = opalg.hermitian_basis(dim)
        assert len(basis.elements) == dim * dim
        for i, a in enumerate(basis.elements):
            assert opalg.is_hermitian(a)
            for j, b in enumerate(basis.elements):
                expected = 1.0 if i == j else 0.0
                assert np.trace(a @ b).real == pytest.approx(expected, abs=1e-12)


def test_hermitian_basis_is_built_once_per_dimension():
    basis = opalg.hermitian_basis(3)
    assert opalg.hermitian_basis(3) is basis
    assert opalg.hermitian_basis(2) is not basis
    assert not basis._transform.flags.writeable
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            opalg.hermitian_basis(dim)


def test_hermitian_basis_round_trip():
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        basis = opalg.hermitian_basis(dim)
        h = random_hermitian(dim, rng)
        coords = basis.coords(h)
        assert coords.dtype == float
        np.testing.assert_allclose(basis.matrix(coords), h, atol=1e-12)


def _coords_reference(basis, h):
    """Tr(B_k h) one element at a time: the definition of the coordinates."""
    return np.array([np.trace(b @ h).real for b in basis.elements])


def test_hermitian_basis_on_stacks():
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3, 4, 5):
        basis = opalg.hermitian_basis(dim)
        stack = np.stack([random_hermitian(dim, rng) for _ in range(6)])
        coords = basis.coords(stack)
        assert coords.shape == (6, dim * dim)
        for h, row in zip(stack, coords):
            np.testing.assert_allclose(row, _coords_reference(basis, h), rtol=0, atol=1e-12)
            np.testing.assert_allclose(basis.coords(h), row, rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.matrix(coords), stack, rtol=0, atol=1e-12)
        nested = basis.coords(stack.reshape(2, 3, dim, dim))
        np.testing.assert_allclose(nested.reshape(6, -1), coords, rtol=0, atol=1e-12)


def test_hermitian_basis_rejects_bad_stacks():
    basis = opalg.hermitian_basis(2)
    bad = np.zeros((3, 2, 2), dtype=complex)
    bad[1, 0, 1] = np.nan
    with pytest.raises(ValueError):
        basis.coords(bad)
    bad[1, 0, 1] = np.inf
    with pytest.raises(ValueError):
        basis.coords(bad)
    with pytest.raises(DimensionMismatchError):
        basis.coords(np.zeros((3, 3, 3)))
    with pytest.raises(DimensionMismatchError):
        basis.matrix(np.zeros((3, 9)))


def test_psd_clip_on_stacks():
    rng = np.random.default_rng(10)
    for dim in (1, 2, 3, 5):
        stack = np.stack([random_hermitian(dim, rng) for _ in range(5)])
        clipped = opalg.psd_clip(stack)
        assert clipped.shape == stack.shape
        for h, c in zip(stack, clipped):
            np.testing.assert_allclose(c, opalg.psd_clip(h), rtol=0, atol=1e-12)
            w, v = np.linalg.eigh(h)
            reference = (v * np.clip(w, 0.0, None)) @ v.conj().T
            np.testing.assert_allclose(c, reference, rtol=0, atol=1e-12)
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0, 1, 1] = np.nan
    with pytest.raises(ValueError):
        opalg.psd_clip(bad)
    with pytest.raises(ValueError):
        opalg.psd_clip(np.zeros((2, 2, 3)))


def test_normalize_effects_sums_to_identity():
    rng = np.random.default_rng(17)
    for d in range(1, 6):
        g = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
        effects, w = opalg.normalize_effects(g @ opalg.dagger(g))
        assert effects.shape == (4, d, d) and w.shape == (d,)
        assert np.all(np.diff(w) >= 0) and w[0] > 0
        assert np.max(np.abs(effects.sum(axis=0) - np.eye(d))) <= opalg.CHECK_ATOL
        for e in effects:
            assert opalg.is_hermitian(e)
            assert np.linalg.eigvalsh(e)[0] >= -opalg.CHECK_ATOL


def test_normalize_effects_on_batches():
    rng = np.random.default_rng(18)
    g = rng.standard_normal((3, 4, 3, 3)) + 1j * rng.standard_normal((3, 4, 3, 3))
    blocks = g @ opalg.dagger(g)
    effects, w = opalg.normalize_effects(blocks)
    assert effects.shape == (3, 4, 3, 3) and w.shape == (3, 3)
    for k in range(3):
        one_effects, one_w = opalg.normalize_effects(blocks[k])
        np.testing.assert_allclose(effects[k], one_effects, rtol=0, atol=1e-13)
        np.testing.assert_allclose(w[k], one_w, rtol=0, atol=1e-13)


def test_normalize_effects_reports_singular_sum():
    effects, w = opalg.normalize_effects(np.zeros((3, 2, 2), dtype=complex))
    assert w[0] == 0
    assert np.all(np.isfinite(effects))
