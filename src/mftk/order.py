"""Preference order on measurements and the decision problems behind it.

One measurement is at least as useful as another when the second's
statistics can be manufactured from the first's by classical
post-processing alone: X_x = sum_z lambda(x|z) Z_z for a column-
stochastic lambda. Deciding that is a small linear program once the
operator equalities are expanded in an orthonormal Hermitian basis,
which makes all data real. The decision-theoretic face of the same
order: an agent choosing an action after seeing an outcome can never
do better, for any utility and prior, with a post-processed
measurement than with the original.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import opalg
from .errors import DimensionMismatchError, SolverError
from .measure import (
    OutcomeDistribution,
    Povm,
    StochasticMatrix,
    born_probabilities,
)
from .opalg import CHECK_ATOL, DECISION_ATOL


def bayes_update(prior_h: float, prior_e: float, likelihood_e_given_h: float) -> float:
    """Posterior of a hypothesis after conditioning on observed evidence."""
    if prior_e <= 0:
        raise ValueError("evidence has zero prior probability; cannot condition on it")
    return likelihood_e_given_h * prior_h / prior_e


@dataclass(frozen=True)
class GeqResult:
    holds: bool
    witness: StochasticMatrix | None
    residual: float


def povm_geq(z: Povm, x: Povm, tol: float = DECISION_ATOL) -> GeqResult:
    """Can x be obtained from z by classical post-processing?

    Solves min t subject to |sum_z lambda(x|z) Z_z - X_x| <= t
    coordinatewise in the Hermitian-basis expansion, with lambda
    column-stochastic. The relation holds when the recovered witness
    reproduces x entrywise within ``tol``; the witness is returned so
    callers can re-verify it. The LP is always feasible and bounded, so
    a solver that stops without success raises ``SolverError`` rather
    than answering either way.
    """
    if z.dim != x.dim:
        raise DimensionMismatchError(f"dims differ: {z.dim} vs {x.dim}")
    basis = opalg.hermitian_basis(z.dim)
    z_coords = basis.coords(z.matrices())  # (nz, D)
    x_coords = basis.coords(x.matrices())  # (nx, D)
    nz, nx, ncoord = z.n_outcomes, x.n_outcomes, z_coords.shape[1]
    nvar = nx * nz + 1  # lambda entries (x-major) plus the slack t

    # Rows (x outcome, coordinate k, sign): +-(sum_z lambda(x|z) Z_z,k - X_x,k) <= t,
    # with lambda(x|.) in the x-th block of nz columns.
    blocks = np.zeros((nx, ncoord, nx, nz))
    blocks[np.arange(nx), :, np.arange(nx), :] = z_coords.T
    a_ub = np.empty((nx, ncoord, 2, nvar))
    a_ub[..., :-1] = blocks.reshape(nx, ncoord, 1, nx * nz) * [[1.0], [-1.0]]
    a_ub[..., -1] = -1.0
    result = linprog(
        c=np.eye(nvar)[-1],
        A_ub=a_ub.reshape(-1, nvar),
        b_ub=np.stack([x_coords, -x_coords], axis=-1).reshape(-1),
        A_eq=np.hstack([np.tile(np.eye(nz), nx), np.zeros((nz, 1))]),  # columns of lambda sum to 1
        b_eq=np.ones(nz),
        bounds=[(0.0, 1.0)] * (nx * nz) + [(0.0, None)],
        method="highs",
    )
    if not result.success:
        raise SolverError("linprog", result.status, result.message)
    lam = np.clip(result.x[: nx * nz].reshape(nx, nz), 0.0, None)
    lam = lam / lam.sum(axis=0, keepdims=True)
    witness = StochasticMatrix(n_in=nz, n_out=nx, entries=lam)
    rebuilt = np.einsum("xz,zij->xij", witness.entries, z.matrices())
    residual = float(np.max(np.abs(rebuilt - x.matrices())))
    if residual > tol:
        return GeqResult(holds=False, witness=None, residual=residual)
    return GeqResult(holds=True, witness=witness, residual=residual)


@dataclass(frozen=True)
class OrderVerdict:
    relation: str  # geq | leq | equivalent | incomparable
    witness_forward: StochasticMatrix | None
    witness_backward: StochasticMatrix | None
    residual_forward: float
    residual_backward: float


def compare(z: Povm, x: Povm, tol: float = DECISION_ATOL) -> OrderVerdict:
    """Classify the pair under the post-processing order."""
    fwd = povm_geq(z, x, tol)
    bwd = povm_geq(x, z, tol)
    if fwd.holds and bwd.holds:
        relation = "equivalent"
    elif fwd.holds:
        relation = "geq"
    elif bwd.holds:
        relation = "leq"
    else:
        relation = "incomparable"
    return OrderVerdict(
        relation=relation,
        witness_forward=fwd.witness,
        witness_backward=bwd.witness,
        residual_forward=fwd.residual,
        residual_backward=bwd.residual,
    )


def is_trivial_class(p: Povm, tol: float = DECISION_ATOL) -> bool:
    """True when every effect is a multiple of the identity.

    These are the measurements whose outcomes carry no information
    about the state: the equivalence class of the single-outcome
    measurement.
    """
    eye = np.eye(p.dim)
    for e in p.effects:
        scale = np.trace(e.matrix).real / p.dim
        if np.max(np.abs(e.matrix - scale * eye)) > tol:
            return False
    return True


def is_rank_one_povm(p: Povm, tol: float = DECISION_ATOL) -> bool:
    """True when every nonzero effect has rank one (eigenvalues above tol)."""
    for e in p.effects:
        w = np.linalg.eigvalsh(opalg.hermitize(e.matrix))
        if np.sum(w > tol) > 1:
            return False
    return True


@dataclass(frozen=True)
class DecisionModel:
    """One round of: nature draws w from the prior, the measurement
    reports x with probability q(x|w), the agent guesses w' and collects
    u(w', w)."""

    prior: OutcomeDistribution
    channel: StochasticMatrix
    utility: np.ndarray
    strategy: StochasticMatrix | None = None

    def __post_init__(self):
        u = np.asarray(self.utility, dtype=float)
        if u.ndim != 2:
            raise ValueError("utility must be a 2-D (guess, world) array")
        if not np.all(np.isfinite(u)):
            raise ValueError("utility entries must be finite")
        if self.channel.n_in != len(self.prior):
            raise DimensionMismatchError(
                f"channel conditions on {self.channel.n_in} worlds, prior has {len(self.prior)}"
            )
        if u.shape[1] != len(self.prior):
            raise DimensionMismatchError(
                f"utility scores {u.shape[1]} worlds, prior has {len(self.prior)}"
            )
        if self.strategy is not None:
            if self.strategy.n_in != self.channel.n_out:
                raise DimensionMismatchError("strategy conditions on the wrong outcome count")
            if self.strategy.n_out != u.shape[0]:
                raise DimensionMismatchError("strategy guesses outside the utility's rows")
        u.setflags(write=False)
        object.__setattr__(self, "utility", u)

    def gain_matrix(self) -> np.ndarray:
        """Entry [x, w'] = sum_w u(w', w) q(x|w) P(w)."""
        return _gains(self.channel.entries, self.prior.probs, self.utility)


def _gains(channel: np.ndarray, prior: np.ndarray, utilities: np.ndarray) -> np.ndarray:
    """``gain_matrix`` for one (guess, world) utility or a stack of them."""
    return (channel * prior[None, :]) @ utilities.swapaxes(-1, -2)


def _best_value(gain: np.ndarray) -> np.ndarray:
    """Best guess per outcome, summed over outcomes, for each gain matrix of a stack."""
    return gain.max(axis=-1).sum(axis=-1)


@dataclass(frozen=True)
class UMaxResult:
    value: float
    strategy: StochasticMatrix


def u_max(model: DecisionModel) -> UMaxResult:
    """Best attainable expected utility and a deterministic strategy reaching it.

    The objective is linear in the response kernel v(w'|x), so the
    maximum sits at a vertex: guess the w' maximizing the gain for each
    outcome x (lowest index on ties).
    """
    gain = model.gain_matrix()
    picks = np.argmax(gain, axis=1)
    value = float(_best_value(gain))
    strategy = StochasticMatrix.deterministic(
        picks, n_in=model.channel.n_out, n_out=model.utility.shape[0]
    )
    return UMaxResult(value=value, strategy=strategy)


def expected_utility(model: DecisionModel) -> float:
    """Expected utility of the model's own (fixed) strategy."""
    if model.strategy is None:
        raise ValueError("model carries no strategy; use u_max for the optimum")
    gain = model.gain_matrix()
    return float(np.sum(model.strategy.entries.T * gain))


def decision_model_for(
    povm: Povm, states, utility, prior: OutcomeDistribution | None = None
) -> DecisionModel:
    """Decision problem where the worlds are preparations of a state family."""
    states = list(states)
    if prior is None:
        prior = _uniform_prior(len(states))
    channel = _born_channel(povm, states)
    return DecisionModel(prior=prior, channel=channel, utility=np.asarray(utility, dtype=float))


def _uniform_prior(n_worlds: int) -> OutcomeDistribution:
    return OutcomeDistribution(
        labels=tuple(str(w) for w in range(n_worlds)), probs=np.full(n_worlds, 1.0 / n_worlds)
    )


def _born_channel(povm: Povm, states: list) -> StochasticMatrix:
    """Column w is the Born distribution of ``povm`` on ``states[w]``."""
    cols = [born_probabilities(rho, povm).probs for rho in states]
    return StochasticMatrix(n_in=len(states), n_out=povm.n_outcomes, entries=np.stack(cols, axis=1))


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    geq_holds: bool
    reversals: int
    violations: tuple[str, ...]
    vacuous: bool
    n_utilities: int


def blackwell_consistency(
    z: Povm,
    x: Povm,
    state_family,
    n_utilities: int = 20,
    seed: int = 0,
    tol: float = DECISION_ATOL,
) -> ConsistencyReport:
    """Cross-check the LP order against sampled decision problems.

    Worlds are the given states under a uniform prior. When the LP says
    z >= x, no sampled utility may give the x-measurement a strictly
    higher optimum (beyond slack); utilities where x does better are
    counted as reversals and are only consistent when the LP relation
    fails. Sampling cannot certify the converse direction, so absence
    of reversals never upgrades the verdict.
    """
    states = list(state_family)
    geq = povm_geq(z, x, tol).holds
    violations = []
    reversals = 0
    scores = ()  # (z side, x side) optimum per sampled utility
    if n_utilities:
        n_w = len(states)
        prior = _uniform_prior(n_w).probs
        utilities = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_utilities, n_w, n_w))
        scores = zip(*(_best_value(_gains(_born_channel(p, states).entries, prior, utilities))
                       for p in (z, x)))
    for i, (uz, ux) in enumerate(scores):
        if ux > uz + tol:
            reversals += 1
            if geq:
                violations.append(f"utility {i}: post-processed side scored {ux:.6f} > {uz:.6f}")
        elif geq and ux > uz + CHECK_ATOL:
            violations.append(f"utility {i}: monotonicity slack exceeded ({ux - uz:.3e})")
    return ConsistencyReport(
        consistent=not violations,
        geq_holds=geq,
        reversals=reversals,
        violations=tuple(violations),
        vacuous=n_utilities == 0,
        n_utilities=n_utilities,
    )


@dataclass(frozen=True)
class SetOrderResult:
    holds: bool
    assignments: tuple[int | None, ...]


def povm_set_geq(zs, xs, tol: float = DECISION_ATOL) -> SetOrderResult:
    """Is every member of xs post-processable from some single member of zs?

    ``assignments[j]`` is the index in zs of the first witnessing
    measurement for xs[j], or None.
    """
    zs = list(zs)
    xs = list(xs)
    assignments: list[int | None] = []
    holds = True
    for target in xs:
        found = None
        for i, source in enumerate(zs):
            if povm_geq(source, target, tol).holds:
                found = i
                break
        assignments.append(found)
        if found is None:
            holds = False
    return SetOrderResult(holds=holds, assignments=tuple(assignments))
