"""States, POVMs, channels, Born-rule statistics, and classical post-processing.

The value types here are frozen dataclasses wrapping read-only numpy
arrays. ``DensityMatrix``, ``QuantumChannel`` and ``StochasticMatrix``
validate their invariants on construction. ``Povm`` deliberately does
not: measurement files must be loadable even when broken so that
:func:`validate_povm` can report what is wrong with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opalg
from .errors import DimensionMismatchError, NonHermitianError, NotPositiveSemidefiniteError
from .opalg import CHECK_ATOL, PROB_CLAMP, ROUNDOFF_ATOL


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian operator."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = opalg.as_matrix(self.matrix)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"state matrix is {m.shape}, dim says {self.dim}")
        if not opalg.is_hermitian(m, ROUNDOFF_ATOL):
            raise NonHermitianError(f"state matrix is not Hermitian within {ROUNDOFF_ATOL:g}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > ROUNDOFF_ATOL:
            raise ValueError(f"state trace {tr!r} differs from 1 beyond {ROUNDOFF_ATOL:g}")
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -ROUNDOFF_ATOL:
            raise NotPositiveSemidefiniteError(f"state has eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", opalg.freeze(m))


def pure_state(vector) -> DensityMatrix:
    """Rank-1 density matrix of a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(dim=v.size, matrix=np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return pure_state(v)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(dim=dim, matrix=np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class Effect:
    """One labeled POVM element. Validity is checked by ``validate_povm``."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", opalg.freeze(opalg.as_matrix(self.matrix)))


@dataclass(frozen=True)
class Povm:
    """Ordered list of effects; houses a measurement."""

    dim: int
    effects: tuple[Effect, ...]

    def __post_init__(self):
        effects = tuple(self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        for e in effects:
            if e.matrix.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"effect {e.label!r} is {e.matrix.shape}, POVM dim is {self.dim}"
                )
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "_matrix_stack", opalg.freeze([e.matrix for e in effects]))

    @classmethod
    def from_matrices(cls, dim: int, matrices, labels=None) -> "Povm":
        matrices = list(matrices)
        if labels is None:
            labels = [str(i) for i in range(len(matrices))]
        return cls(dim=dim, effects=tuple(Effect(str(l), m) for l, m in zip(labels, matrices)))

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.effects)

    def matrices(self) -> np.ndarray:
        """Read-only stacked (n_outcomes, dim, dim) array of effect matrices,
        built once on construction."""
        return self._matrix_stack


def computational_povm(dim: int) -> Povm:
    """Projective measurement in the standard basis."""
    mats = []
    for k in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[k, k] = 1.0
        mats.append(m)
    return Povm.from_matrices(dim, mats)


def xbasis_povm() -> Povm:
    """Qubit projective measurement in the |+>, |-> basis."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    return Povm.from_matrices(
        2, [np.outer(plus, plus.conj()), np.outer(minus, minus.conj())], labels=["+", "-"]
    )


def trivial_povm(dim: int) -> Povm:
    """The minimally informative single-outcome measurement {identity}."""
    return Povm.from_matrices(dim, [np.eye(dim, dtype=complex)], labels=["1"])


@dataclass(frozen=True)
class OutcomeDistribution:
    """Labeled probability vector over measurement results.

    Entries in [-1e-12, 0) are clamped to zero and the vector is
    renormalized, keeping round-off out of downstream feasibility
    problems; anything more negative, or a total off from 1 beyond
    1e-10, is rejected.
    """

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != p.size:
            raise ValueError(f"{len(labels)} labels for {p.size} probabilities")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if p.min(initial=0.0) < -PROB_CLAMP:
            raise ValueError(f"negative probability {p.min():.3e}")
        total = p.sum()
        if abs(total - 1.0) > ROUNDOFF_ATOL:
            raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form."""

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(opalg.freeze(opalg.as_matrix(k)) for k in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatchError(
                    f"Kraus operator is {k.shape}, expected {(self.dim_out, self.dim_in)}"
                )
        total = sum(opalg.dagger(k) @ k for k in ops)
        residual = np.max(np.abs(total - np.eye(self.dim_in)))
        if residual > CHECK_ATOL:
            raise ValueError(f"channel is not trace preserving (residual {residual:.3e})")
        object.__setattr__(self, "kraus", ops)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls(dim, dim, (np.eye(dim, dtype=complex),))

    @classmethod
    def unitary(cls, u) -> "QuantumChannel":
        u = opalg.as_matrix(u)
        return cls(u.shape[0], u.shape[0], (u,))

    @classmethod
    def depolarizing(cls, dim: int) -> "QuantumChannel":
        """Fully depolarizing channel; sends every state to I/dim."""
        ops = []
        for i in range(dim):
            for j in range(dim):
                k = np.zeros((dim, dim), dtype=complex)
                k[i, j] = 1.0 / np.sqrt(dim)
                ops.append(k)
        return cls(dim, dim, tuple(ops))


@dataclass(frozen=True)
class StochasticMatrix:
    """Conditional probability table lambda(out | in), column-stochastic:
    entry [out, in] is the probability of ``out`` given input ``in``."""

    n_in: int
    n_out: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.n_out, self.n_in):
            raise DimensionMismatchError(
                f"entries are {m.shape}, expected {(self.n_out, self.n_in)}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("conditional probabilities must be finite")
        if m.min(initial=0.0) < -PROB_CLAMP:
            raise ValueError(f"negative conditional probability {m.min():.3e}")
        sums = m.sum(axis=0)
        worst = np.max(np.abs(sums - 1.0))
        if worst > ROUNDOFF_ATOL:
            raise ValueError(f"input column sums deviate from 1 by {worst:.3e}")
        m = np.clip(m, 0.0, None)
        m = m / m.sum(axis=0, keepdims=True)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls, n: int) -> "StochasticMatrix":
        return cls(n, n, np.eye(n))

    @classmethod
    def deterministic(cls, mapping, n_in: int, n_out: int) -> "StochasticMatrix":
        """Point mass on out = mapping[in] for each input."""
        m = np.zeros((n_out, n_in))
        for i in range(n_in):
            m[mapping[i], i] = 1.0
        return cls(n_in, n_out, m)

    @classmethod
    def merge_all(cls, n_in: int) -> "StochasticMatrix":
        """Conflate every input into a single output."""
        return cls(n_in, 1, np.ones((1, n_in)))


def compose_stochastic(outer: StochasticMatrix, inner: StochasticMatrix) -> StochasticMatrix:
    """Chain two post-processings: first ``inner``, then ``outer``."""
    if outer.n_in != inner.n_out:
        raise DimensionMismatchError(
            f"outer takes {outer.n_in} inputs, inner produces {inner.n_out} outputs"
        )
    return StochasticMatrix(inner.n_in, outer.n_out, outer.entries @ inner.entries)


@dataclass(frozen=True)
class Violation:
    invariant: str
    magnitude: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return ["valid"]
        return [f"{v.invariant}: {v.detail} (magnitude {v.magnitude:.3e})" for v in self.violations]


def validate_povm(p: Povm, atol: float = CHECK_ATOL) -> ValidationReport:
    """Check Hermiticity and positivity of every effect and completeness of
    the sum, each within ``atol``.

    Returns a report listing each violated invariant with its magnitude;
    the report is empty exactly when the POVM is valid.
    """
    opalg.check_tol(atol, "atol")
    stack = p.matrices()
    herm = np.max(np.abs(stack - opalg.dagger(stack)), axis=(1, 2))
    low = np.linalg.eigvalsh(opalg.hermitize(stack))[:, 0]
    found = []
    for e, h, w in zip(p.effects, herm, low):
        if h > atol:
            found.append(Violation("hermiticity", float(h), f"effect {e.label!r} is not Hermitian"))
        elif w < -atol:
            found.append(
                Violation("positivity", float(-w), f"effect {e.label!r} has eigenvalue {w:.3e}")
            )
    gap = np.abs(stack.sum(axis=0) - np.eye(p.dim))
    residual = float(np.max(gap))
    if residual > atol:
        row, col = np.unravel_index(int(np.argmax(gap)), gap.shape)
        found.append(Violation("completeness", residual,
                               f"effect sum deviates from identity at entry ({row}, {col})"))
    return ValidationReport(tuple(found))


def _born(effects: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Born probabilities Tr(rho_n E_x) of an (..., n, d, d) state stack under
    an (..., x, d, d) effect stack, shape (..., n, x)."""
    return np.einsum("...xij,...nji->...nx", effects, rhos).real


def born_probabilities(rho: DensityMatrix, p: Povm) -> OutcomeDistribution:
    """Outcome distribution Tr(rho E_j) of a measurement on a state."""
    if rho.dim != p.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != POVM dim {p.dim}")
    return OutcomeDistribution(labels=p.labels, probs=_born(p.matrices(), rho.matrix[None])[0])


def post_process(p: Povm, lam: StochasticMatrix, labels=None) -> Povm:
    """Classically post-process a measurement: E'_x = sum_z lambda(x|z) E_z."""
    if lam.n_in != p.n_outcomes:
        raise DimensionMismatchError(
            f"post-processing takes {lam.n_in} inputs, POVM has {p.n_outcomes} outcomes"
        )
    stack = p.matrices()
    new = np.einsum("xz,zij->xij", lam.entries, stack)
    return Povm.from_matrices(p.dim, list(new), labels=labels)


def kraus_action(kraus, m) -> np.ndarray:
    """sum_k K m K^dagger for one matrix or a (..., n, n) stack, summed in
    Kraus order."""
    return sum(k @ m @ opalg.dagger(k) for k in kraus)


def unit_trace(m) -> np.ndarray:
    """Divide each matrix of a (..., n, n) stack by its trace where that is
    off from 1 by more than ROUNDOFF_ATOL, and leave the others unchanged.
    A channel is trace preserving only within CHECK_ATOL, so its output can
    miss unit trace by more than a state allows."""
    tr = np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return np.where(np.abs(tr - 1.0) > ROUNDOFF_ATOL, m / tr, m)


def apply_channel(phi: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schroedinger-picture action: sum_k K rho K^dagger."""
    if rho.dim != phi.dim_in:
        raise DimensionMismatchError(f"state dim {rho.dim} != channel input dim {phi.dim_in}")
    out = kraus_action(phi.kraus, rho.matrix)
    return DensityMatrix(dim=phi.dim_out, matrix=unit_trace(opalg.hermitize(out)))


def random_state(dim: int, seed) -> DensityMatrix:
    """Ginibre-induced random density matrix, deterministic in the seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    m = opalg.ginibre_grams(np.random.default_rng(seed), 1, dim)[0]
    return DensityMatrix(dim=dim, matrix=m / np.trace(m).real)


def random_povm(dim: int, n_outcomes: int, seed) -> Povm:
    """Random POVM from Ginibre blocks, symmetrized to exact completeness."""
    if n_outcomes < 1:
        raise ValueError("n_outcomes must be >= 1")
    blocks = opalg.ginibre_grams(np.random.default_rng(seed), n_outcomes, dim)
    return Povm.from_matrices(dim, opalg.normalize_effects(blocks)[0])


def random_channel(dim: int, n_kraus: int, seed) -> QuantumChannel:
    """Random CPT map from a Haar-ish isometry (QR of a Ginibre block)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * n_kraus, dim)) + 1j * rng.standard_normal((dim * n_kraus, dim))
    q, _ = np.linalg.qr(g)
    ops = [q[k * dim : (k + 1) * dim, :] for k in range(n_kraus)]
    return QuantumChannel(dim, dim, tuple(ops))
