"""Dense complex operator algebra: tensor products, partial traces,
Hermitian eigensystems, PSD square roots, effect normalization, and
orthonormal Hermitian bases.

All functions are pure and operate on (or return) read-only complex
``numpy`` arrays; dimensions here are small (a few dozen at most), so
everything is dense and direct.

Default tolerances. Every verdict in the package is a residual compared
with one of these; each public ``tol``/``atol`` keyword defaults to one
of them, so a caller overrides a check without touching the others.
An override must be positive and finite (``check_tol``); a NaN or
infinite tolerance would pass every residual.

============== ======= ===================================================
name           value   used for
============== ======= ===================================================
ROUNDOFF_ATOL  1e-10   Hermiticity, state trace and positivity,
                       probability sums, the 1/d bound of reference
                       probabilities
CHECK_ATOL     1e-9    POVM completeness and effect positivity, channel
                       trace preservation, SIC overlaps, negativity of
                       the affine update, dilation and tuning residuals,
                       the agent's pointer match, the utility slack of
                       the Blackwell cross-check
DECISION_ATOL  1e-8    the post-processing order (``povm_geq``'s
                       witness gap, game bound and LP fallback) and
                       everything decided through it, and the negativity
                       floor of ``psd_sqrt`` and of reference-probability
                       inversion
PROB_CLAMP     1e-12   negative probabilities clamped to zero as round-off
FIT_TOL        1e-6    worst table entry a discovered model may miss by
============== ======= ===================================================
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NotPositiveSemidefiniteError

ROUNDOFF_ATOL = 1e-10
CHECK_ATOL = 1e-9
DECISION_ATOL = 1e-8
PROB_CLAMP = 1e-12
FIT_TOL = 1e-6


def check_tol(value: float, name: str = "tol") -> None:
    """Raise ``ValueError`` unless tolerance ``value`` (keyword ``name``) is positive and finite."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def freeze(m: np.ndarray) -> np.ndarray:
    """Return a read-only complex copy of ``m``."""
    out = np.array(m, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix has non-finite entries")
    return out


def as_matrix_stack(m) -> np.ndarray:
    """Coerce to a finite complex array of square matrices, shape (..., n, n)."""
    out = np.asarray(m, dtype=complex)
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix has non-finite entries")
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., n, n) stack."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, atol: float = ROUNDOFF_ATOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= atol


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize away round-off: (m + m†)/2, matrix by matrix on a stack."""
    m = np.asarray(m, dtype=complex)
    return (m + dagger(m)) / 2


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, or pairwise of two (..., n, n)
    stacks that broadcast against each other, with the row-major index
    convention (i_a, i_b) -> i_a * rows_b + i_b."""
    out = np.einsum("...ab,...cd->...acbd", as_matrix_stack(a), as_matrix_stack(b))
    n = out.shape[-4] * out.shape[-3]
    return out.reshape(*out.shape[:-4], n, n)


def partial_trace(m, dim_first: int, dim_second: int, keep: str = "first") -> np.ndarray:
    """Trace out one factor of an operator on a bipartite space, matrix by
    matrix on a (..., n, n) stack.

    Each matrix must be of size dim_first * dim_second; ``keep`` selects
    which factor the reduced operator lives on.
    """
    m = as_matrix_stack(m)
    n = dim_first * dim_second
    if m.shape[-2:] != (n, n):
        raise DimensionMismatchError(
            f"matrix is {m.shape[-2:]}, expected {(n, n)} for dims ({dim_first}, {dim_second})"
        )
    blocks = m.reshape(*m.shape[:-2], dim_first, dim_second, dim_first, dim_second)
    if keep == "first":
        return np.einsum("...ijkj->...ik", blocks)
    if keep == "second":
        return np.einsum("...ijil->...jl", blocks)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def hermitian_eigensystem(h, atol: float = ROUNDOFF_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and eigenvector columns of a Hermitian matrix."""
    h = as_matrix(h)
    if not is_hermitian(h, atol):
        raise NonHermitianError(
            f"matrix deviates from Hermiticity by {np.max(np.abs(h - dagger(h))):.3e}"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    return eigenvalues, eigenvectors


def min_eigenvalue(h) -> float:
    return float(hermitian_eigensystem(h)[0][0])


def psd_sqrt(h) -> np.ndarray:
    """Positive-semidefinite square root.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything lower raises.
    """
    eigenvalues, v = hermitian_eigensystem(h)
    if eigenvalues[0] < -DECISION_ATOL:
        raise NotPositiveSemidefiniteError(
            f"minimum eigenvalue {eigenvalues[0]:.3e} below {-DECISION_ATOL:.0e}"
        )
    root = np.sqrt(np.clip(eigenvalues, 0.0, None))
    return hermitize((v * root) @ dagger(v))


def psd_clip(h) -> np.ndarray:
    """Project Hermitian matrices onto the PSD cone (clip negative eigenvalues).

    Takes one matrix or a (..., n, n) stack, which is diagonalized in a
    single batched ``eigh`` call.
    """
    return _psd_clip(hermitize(as_matrix_stack(h)))


def _psd_clip(h: np.ndarray) -> np.ndarray:
    """``psd_clip`` without its checks, for a complex stack that is already
    finite and exactly Hermitian (as ``HermitianBasis._matrix`` returns)."""
    eigenvalues, v = np.linalg.eigh(h)
    clipped = np.clip(eigenvalues, 0.0, None)
    return hermitize((v * clipped[..., None, :]) @ dagger(v))


def ginibre_grams(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Ginibre Gram matrices G G^dag, shape (n, d, d); each complex Gaussian
    G is drawn from ``rng`` as its real and then its imaginary d x d part."""
    g = rng.standard_normal((n, 2, d, d))
    g = g[:, 0] + 1j * g[:, 1]
    return g @ dagger(g)


def normalize_effects(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Rescale PSD blocks B_j into effects S^{-1/2} B_j S^{-1/2} that sum
    to the identity, where S is the sum of the blocks.

    Takes a (..., n, d, d) stack and normalizes each set of n blocks on
    its own. Returns the hermitized effects and the ascending eigenvalues
    of each S, shape (..., d); a singular S (smallest eigenvalue near
    zero) leaves effects that do not sum to the identity, so callers that
    need a valid POVM check ``w[..., 0]``.
    """
    inv_root, w, _ = _sum_inverse_root(blocks)
    inv_root = inv_root[..., None, :, :]
    return hermitize(inv_root @ blocks @ inv_root), w


def _sum_inverse_root(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S^{-1/2} of the sum S of each set of n blocks in a (..., n, d, d) stack,
    with S's ascending eigenvalues w and eigenvector columns v. Eigenvalues
    are floored at 1e-300 before the root is taken."""
    w, v = np.linalg.eigh(hermitize(np.sum(blocks, axis=-3)))
    inv_root = (v / np.sqrt(np.clip(w, 1e-300, None))[..., None, :]) @ dagger(v)
    return inv_root, w, v


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal basis of the real vector space of d x d Hermitian matrices.

    Orthonormality is with respect to the trace inner product
    Tr(A B), so any Hermitian h satisfies h = sum_k Tr(B_k h) B_k with
    real coefficients. Both directions act on stacks: ``coords`` maps
    (..., d, d) to (..., d^2) and ``matrix`` maps back, each as one
    product with the same complex (d^2, d^2) transform.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    @functools.cached_property
    def _transform(self) -> np.ndarray:
        """Row k is the flattened element B_k; built on first use, read-only."""
        out = np.stack(self.elements).reshape(len(self.elements), -1)
        out.setflags(write=False)
        return out

    def coords(self, h) -> np.ndarray:
        """Real coefficients of one Hermitian matrix or of a (..., d, d) stack."""
        h = as_matrix_stack(h)
        d = self.dim
        if h.shape[-1] != d:
            raise DimensionMismatchError(f"matrices are {h.shape[-2:]}, basis is {d} x {d}")
        return self._coords(h)

    def matrix(self, coords) -> np.ndarray:
        """Reassemble Hermitian matrices from real coefficients of shape (..., d^2)."""
        coords = np.asarray(coords, dtype=float)
        d = self.dim
        if coords.ndim < 1 or coords.shape[-1] != d * d:
            raise DimensionMismatchError(
                f"coordinates have shape {coords.shape}, need (..., {d * d})"
            )
        return self._matrix(coords)

    def _coords(self, h: np.ndarray) -> np.ndarray:
        """``coords`` without its checks, for a finite complex (..., d, d) stack."""
        d = self.dim
        # Tr(B_k h) = sum_ij conj(B_k)_ij h_ij, since every B_k is Hermitian.
        return (h.reshape(*h.shape[:-2], d * d) @ self._transform.conj().T).real

    def _matrix(self, coords: np.ndarray) -> np.ndarray:
        """``matrix`` without its checks, for a real (..., d^2) array; the
        result is exactly Hermitian."""
        d = self.dim
        return (coords @ self._transform).reshape(*coords.shape[:-1], d, d)


@functools.lru_cache(maxsize=None, typed=True)
def hermitian_basis(dim: int) -> HermitianBasis:
    """Identity/sqrt(d) plus trace-normalized generalized Gell-Mann matrices,
    built once per dimension: equal ``dim`` gives the same immutable basis."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    elements = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for k in range(1, dim):
        d = np.zeros((dim, dim), dtype=complex)
        for j in range(k):
            d[j, j] = 1.0
        d[k, k] = -k
        elements.append(d / np.sqrt(k * (k + 1)))
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            elements.append(sym / np.sqrt(2))
            asym = np.zeros((dim, dim), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            elements.append(asym / np.sqrt(2))
    return HermitianBasis(dim=dim, elements=tuple(freeze(b) for b in elements))
