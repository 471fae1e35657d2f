"""Simulating a target-system measurement through an attached probe.

A measurement Z on a target system T can be realized indirectly: couple
T to a probe S prepared in a fixed state sigma, evolve the pair with a
channel Phi, and read a pointer measurement Y off the probe. The triple
(sigma, Phi, Y) simulates Z when

    Tr[rho Z_z] = Tr[Phi(sigma (x) rho) (Y_z (x) 1)]   for every rho.

Rather than sampling states, ``is_generalized_dilation`` decides this by
computing the measurement the triple actually induces on T and comparing
operators, which is equivalent to the for-all-states statement.
``naimark_construct`` produces a canonical such triple for any target
measurement, with a projective pointer reading. The probabilistic check
re-derives both sides of the defining equation through reference-
measurement (SIC) probabilities, as a cross-validation of the operator
route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opalg
from .errors import DimensionMismatchError, OutcomeCountMismatchError
from .measure import (
    DensityMatrix,
    Povm,
    QuantumChannel,
    basis_state,
    computational_povm,
    kraus_action,
    unit_trace,
)
from .opalg import CHECK_ATOL
from .sicrep import SicPovm, SicProbVector, build_sic, povm_to_conditional, urgleichung


@dataclass(frozen=True)
class DilationSpec:
    """Probe state, joint channel, and pointer measurement, probe first.

    The joint space is ordered probe (x) target: basis index
    s * dim_t + t.
    """

    sigma: DensityMatrix
    phi: QuantumChannel
    y: Povm
    dim_s: int
    dim_t: int

    def __post_init__(self):
        joint = self.dim_s * self.dim_t
        if self.sigma.dim != self.dim_s:
            raise DimensionMismatchError(f"probe state dim {self.sigma.dim} != dim_s {self.dim_s}")
        if self.y.dim != self.dim_s:
            raise DimensionMismatchError(f"pointer POVM dim {self.y.dim} != dim_s {self.dim_s}")
        if self.phi.dim_in != joint or self.phi.dim_out != joint:
            raise DimensionMismatchError(
                f"channel is {self.phi.dim_in}->{self.phi.dim_out}, expected {joint}->{joint}"
            )


def _moved_probe_states(spec: DilationSpec, rhos: np.ndarray) -> np.ndarray:
    """Probe marginals of Phi(sigma (x) rho), batched over target states."""
    n, d_s, d_t = len(rhos), spec.dim_s, spec.dim_t
    joint = np.einsum("ab,ncd->nacbd", spec.sigma.matrix, rhos).reshape(n, d_s * d_t, d_s * d_t)
    out = kraus_action(spec.phi.kraus, joint)
    return unit_trace(np.einsum("nsata->nst", out.reshape(n, d_s, d_t, d_s, d_t)))


def apply_apparatus(spec: DilationSpec, rho: DensityMatrix) -> DensityMatrix:
    """Post-interaction probe state: trace the target out of Phi(sigma (x) rho)."""
    if rho.dim != spec.dim_t:
        raise DimensionMismatchError(f"target state dim {rho.dim} != dim_t {spec.dim_t}")
    reduced = _moved_probe_states(spec, rho.matrix[None])[0]
    return DensityMatrix(dim=spec.dim_s, matrix=opalg.hermitize(reduced))


def _induced_effects(spec: DilationSpec, y: Povm) -> np.ndarray:
    """Effects Tr_S[(sigma (x) 1) Phi*(Y_z (x) 1)] induced on the target by
    reading pointer ``y`` off the apparatus, stacked (n, dim_t, dim_t)."""
    n, d_s, d_t = y.n_outcomes, spec.dim_s, spec.dim_t
    eye_t = np.eye(d_t, dtype=complex)
    lifted = np.einsum("xab,cd->xacbd", y.matrices(), eye_t).reshape(n, d_s * d_t, d_s * d_t)
    heis = kraus_action([opalg.dagger(k) for k in spec.phi.kraus], lifted)
    moved = np.kron(spec.sigma.matrix, eye_t) @ heis
    return opalg.hermitize(np.einsum("xsasb->xab", moved.reshape(n, d_s, d_t, d_s, d_t)))


def induced_povm(spec: DilationSpec) -> Povm:
    """The target-system measurement the apparatus actually performs.

    Z_z = Tr_S[(sigma (x) 1) Phi*(Y_z (x) 1)], with Phi* the
    Heisenberg-picture adjoint sum_k K^dagger (.) K. Reading the pointer
    on the moved probe gives exactly these statistics on any input.
    """
    return Povm.from_matrices(spec.dim_t, _induced_effects(spec, spec.y), labels=spec.y.labels)


@dataclass(frozen=True)
class DilationCheck:
    holds: bool
    residual: float


def is_generalized_dilation(
    y: Povm, z: Povm, spec: DilationSpec, tol: float = CHECK_ATOL
) -> DilationCheck:
    """Does reading y off the apparatus reproduce z on the target, for all states?

    Outcomes are paired by list position. Decided through operator
    equality of the induced measurement with z, which is equivalent to
    agreement of the two Born distributions on every input state.
    """
    if y.n_outcomes != z.n_outcomes:
        raise OutcomeCountMismatchError(
            f"pointer has {y.n_outcomes} outcomes, target has {z.n_outcomes}"
        )
    if z.dim != spec.dim_t:
        raise DimensionMismatchError(f"target POVM dim {z.dim} != dim_t {spec.dim_t}")
    if y.dim != spec.dim_s:
        raise DimensionMismatchError(f"pointer POVM dim {y.dim} != dim_s {spec.dim_s}")
    residual = float(np.max(np.abs(_induced_effects(spec, y) - z.matrices())))
    return DilationCheck(holds=residual <= tol, residual=residual)


def naimark_construct(z: Povm) -> DilationSpec:
    """Canonical apparatus for a target measurement: projective pointer,
    pure probe, unitary coupling.

    The probe dimension equals the outcome count n. The coupling
    extends the isometry |0>_S (x) |psi>_T -> sum_z |z>_S (x)
    sqrt(Z_z)|psi>_T to a unitary on the joint space by Gram-Schmidt
    over standard basis vectors in index order, so the output is
    reproducible.
    """
    n = z.n_outcomes
    d_t = z.dim
    joint = n * d_t
    w, v = np.linalg.eigh(opalg.hermitize(z.matrices()))
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ opalg.dagger(v)
    # Column t of the isometry stacks column t of every root. Adding onto
    # zeros (rather than assigning) stores -0.0 entries as +0.0.
    columns = np.zeros((joint, joint), dtype=complex)
    columns[:, :d_t] += roots.reshape(joint, d_t)
    filled = d_t
    for pivot in range(joint):
        if filled == joint:
            break
        cand = np.zeros(joint, dtype=complex)
        cand[pivot] = 1.0
        for j in range(filled):
            cand -= np.vdot(columns[:, j], cand) * columns[:, j]
        norm = np.linalg.norm(cand)
        if norm > 1e-7:
            columns[:, filled] = cand / norm
            filled += 1
    if filled != joint:
        raise RuntimeError("unitary completion failed")  # pragma: no cover
    return DilationSpec(
        sigma=basis_state(n, 0),
        phi=QuantumChannel.unitary(columns),
        y=computational_povm(n),
        dim_s=n,
        dim_t=d_t,
    )


@dataclass(frozen=True)
class PairResult:
    y: Povm
    z: Povm
    spec: DilationSpec
    residual: float


@dataclass(frozen=True)
class TuningCertificate:
    """Per-pair dilation residuals for a batch of (pointer, target) claims."""

    pairs: tuple[PairResult, ...]
    tol: float

    @property
    def vacuous(self) -> bool:
        return not self.pairs

    @property
    def tuned(self) -> bool:
        return all(p.residual <= self.tol for p in self.pairs)

    def residuals(self) -> tuple[float, ...]:
        return tuple(p.residual for p in self.pairs)


def verify_tuned(pairs, specs, tol: float = CHECK_ATOL) -> TuningCertificate:
    """Check a list of (y, z) measurement pairs against matching apparatus specs.

    The apparatus is tuned when every target measurement is reproduced
    by its paired pointer reading; an empty list is vacuously tuned and
    flagged as such.
    """
    pairs = list(pairs)
    specs = list(specs)
    if len(pairs) != len(specs):
        raise ValueError(f"{len(pairs)} pairs vs {len(specs)} specs")
    results = []
    for (y, z), spec in zip(pairs, specs):
        check = is_generalized_dilation(y, z, spec, tol)
        results.append(PairResult(y=y, z=z, spec=spec, residual=check.residual))
    return TuningCertificate(pairs=tuple(results), tol=tol)


@dataclass(frozen=True)
class ProbabilisticReport:
    max_gap: float
    holds: bool
    operator_holds: bool
    agrees: bool
    vacuous: bool
    n_states: int


def check_tuning_probabilistic(
    spec: DilationSpec,
    z: Povm,
    sics: tuple[SicPovm, SicPovm] | None = None,
    n_states: int = 50,
    seed: int = 0,
    tol: float = CHECK_ATOL,
) -> ProbabilisticReport:
    """Cross-check a dilation claim through reference-measurement probabilities.

    For random target states rho, the target side P(z) is computed by
    the affine update from the reference probabilities of rho, and the
    pointer side P(y) by the same update on the probe, using the moved
    probe state. ``sics`` supplies the (target, probe) reference
    measurements; built-in ones are used when omitted. The report
    records the worst |P(z) - P(y)| over states and whether that agrees
    with the operator-equality verdict at the same tolerance.
    """
    if n_states < 0:
        raise ValueError(f"n_states must be >= 0, got {n_states}")
    if sics is None:
        sics = (build_sic(spec.dim_t), build_sic(spec.dim_s))
    sic_t, sic_s = sics
    if sic_t.dim != spec.dim_t or sic_s.dim != spec.dim_s:
        raise DimensionMismatchError("reference measurements do not match (target, probe) dims")
    r_target = povm_to_conditional(sic_t, z)
    r_pointer = povm_to_conditional(sic_s, spec.y)
    operator = is_generalized_dilation(spec.y, z, spec, tol)

    # One batch of normalized Ginibre states; per-state reference
    # probabilities on both sides of the apparatus boundary.
    rng = np.random.default_rng([seed])
    g = (rng.standard_normal((n_states, spec.dim_t, spec.dim_t))
         + 1j * rng.standard_normal((n_states, spec.dim_t, spec.dim_t)))
    rhos = np.einsum("nij,nkj->nik", g, g.conj())
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    moved = _moved_probe_states(spec, rhos)
    probs_t = np.einsum("xij,nji->nx", sic_t.povm.matrices(), rhos).real
    probs_s = np.einsum("xij,nji->nx", sic_s.povm.matrices(), moved).real

    max_gap = 0.0
    for i in range(n_states):
        p_z = urgleichung(SicProbVector(dim=spec.dim_t, probs=probs_t[i]), r_target).probs
        p_y = urgleichung(SicProbVector(dim=spec.dim_s, probs=probs_s[i]), r_pointer).probs
        max_gap = max(max_gap, float(np.max(np.abs(p_z - p_y))))
    holds = max_gap <= tol
    return ProbabilisticReport(
        max_gap=max_gap,
        holds=holds,
        operator_holds=operator.holds,
        agrees=holds == operator.holds,
        vacuous=n_states == 0,
        n_states=n_states,
    )
