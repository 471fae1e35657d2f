"""Preference order on measurements and the decision problems behind it.

One measurement is at least as useful as another when the second's
statistics can be manufactured from the first's by classical
post-processing alone: X_x = sum_z lambda(x|z) Z_z for a column-
stochastic lambda. Expanded in an orthonormal Hermitian basis, where
all data are real, that is a question about a cone: is
b = (coords(X_x), 1) a non-negative combination of the columns
A[:, (x, z)] = (e_x (x) coords(Z_z), e_z)? ``povm_geq`` answers it by
non-negative least squares and re-verifies every answer without a
solver: a positive one by its stochastic witness, a negative one by a
guessing game that x wins and every post-processing of z loses, which
is Blackwell's theorem in Buscemi's quantum form (Blackwell, Ann. Math.
Stat. 24, 265 (1953); Buscemi, Commun. Math. Phys. 310, 625 (2012)).
A pair that neither settles, one within a few ``tol`` of the boundary,
goes to a linear program. The decision-theoretic face of the same
order: an agent choosing an action after seeing an outcome can never
do better, for any utility and prior, with a post-processed
measurement than with the original.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opalg
from .errors import DimensionMismatchError, SolverError
from .measure import (
    OutcomeDistribution,
    Povm,
    StochasticMatrix,
    born_probabilities,
)
from .opalg import CHECK_ATOL, DECISION_ATOL, ROUNDOFF_ATOL


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use to keep ``import mftk`` light."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def bayes_update(prior_h: float, prior_e: float, likelihood_e_given_h: float) -> float:
    """Posterior P(H|E) = P(E|H) P(H) / P(E) of a hypothesis after conditioning
    on observed evidence. Each argument must be a probability, and the
    beliefs coherent: P(E|H) P(H) = P(H and E) at most P(E), within
    ``ROUNDOFF_ATOL``; otherwise ``ValueError``. The quotient is clipped at
    1, so beliefs incoherent within that round-off still give a probability."""
    given = {"prior_h": prior_h, "prior_e": prior_e, "likelihood_e_given_h": likelihood_e_given_h}
    outside = ", ".join(f"{k}={v!r}" for k, v in given.items() if not 0.0 <= v <= 1.0)
    if outside:
        raise ValueError(f"probabilities must be finite and in [0, 1]: {outside}")
    if prior_e <= 0:
        raise ValueError("evidence has zero prior probability; cannot condition on it")
    joint = likelihood_e_given_h * prior_h
    if joint > prior_e + ROUNDOFF_ATOL:
        raise ValueError(f"incoherent beliefs: P(E|H) P(H) = {joint!r} exceeds P(E) = {prior_e!r}")
    return min(joint / prior_e, 1.0)


@dataclass(frozen=True)
class GeqResult:
    """Verdict of ``povm_geq``.

    ``witness`` is the stochastic matrix behind a positive answer, with
    ``residual`` its entrywise gap. ``certificate`` is the game behind a
    negative answer settled without the LP (read-only W_x, shape
    (n_x, d, d)), with ``residual`` the entrywise miss it proves; or None.
    ``verdict`` says which of the two was shown, or that neither was.
    """

    holds: bool
    witness: StochasticMatrix | None
    residual: float
    certificate: np.ndarray | None = None

    @property
    def verdict(self) -> str:
        """One of "holds", "ruled_out" (a game proves it) and "undecided"
        (the LP fallback's negative, which carries no proof)."""
        if self.holds:
            return "holds"
        return "undecided" if self.certificate is None else "ruled_out"


def povm_geq(z: Povm, x: Povm, tol: float = DECISION_ATOL) -> GeqResult:
    """Can x be obtained from z by classical post-processing?

    The decision is a non-negative least-squares problem: with the
    Hermitian-basis coordinates c_z of Z_z and the x-major vector lambda,
    minimize |A lambda - b| over lambda >= 0, where
    b = (coords(X_x), 1) and A[:, (x, z)] = (e_x (x) c_z, e_z). It is
    solved on the Gram matrix A^T A = I (x) C C^T + 1 1^T (x) I, with
    C = (c_z) and entries Tr(Z_z Z_z'), by block principal pivoting:
    every infeasible variable changes sides at once, one at a time as a
    backup against cycling, and a singular passive block (z's effects
    linearly dependent) is solved by least squares (Kim & Park, SIAM J.
    Sci. Comput. 33, 3261 (2011); Judice & Pires, Comput. Oper. Res. 21,
    587 (1994)). After 10 steps per variable, which a singular A^T A can
    cause, it starts again on A^T A + 10 eps Tr(A^T A) I.
    Whatever the solve returns, the answer rests only on a check made
    afterwards in matrix space, from the effects as given. The game is
    tried first, and the witness only when the game does not settle the
    pair:

    - **does not hold** when the residual r = b - A lambda proves it. Its
      basis part gives Hermitian test operators W_x, a game scored
      Tr(W_x E) for reporting x on effect E. For column-stochastic mu and
      D_x = sum_z mu(x|z) Z_z - X_x, sum_x mu(x|z) Tr(W_x Z_z) is at most
      max_x Tr(W_x Z_z), so the margin m = sum_x Tr(W_x X_x) -
      sum_z max_x Tr(W_x Z_z) is at most -sum_x Re Tr(W_x D_x) <=
      |W| max_xij |D_x,ij|, with |W| = sum_xij |W_x,ij|. Every
      post-processing of z thus misses x somewhere by at least m / |W|,
      which is ``residual``; the answer is "does not hold" when it
      exceeds ``tol``, and ``certificate`` holds the W_x. At an exact
      optimum m >= |r|^2, because A^T r <= 0 there and b^T r = |r|^2.
    - **holds** when lambda, column-normalized, is a witness whose
      entrywise gap max |sum_z lambda(x|z) Z_z - X_x| is at most ``tol``.
      ``residual`` is that gap. The witness is column-stochastic, so a
      game that proves a miss above ``tol`` proves that this witness
      misses by more than ``tol`` too: in exact arithmetic the two proofs
      exclude each other, so the order in which they are tried cannot
      change an answer. A negative only skips building a witness that
      would fail.
    - **otherwise** (a pair within a few ``tol`` of the boundary, a
      ``tol`` so large that the least-squares witness misses it while
      another would not, or a solve that gives up) a linear program
      decides: min t subject to |sum_z lambda(x|z) Z_z - X_x| <= t
      coordinatewise in the basis, with lambda column-stochastic. The
      relation holds when its witness reproduces x entrywise within
      ``tol``, and ``residual`` is that witness's gap either way. The LP
      is always feasible and bounded, so a solver that stops without
      success raises ``SolverError`` rather than answering either way.

    On every path ``holds == (residual <= tol)``. ``tol`` must be
    positive and finite; anything else raises ``ValueError`` before any
    solve.
    """
    if z.dim != x.dim:
        raise DimensionMismatchError(f"dims differ: {z.dim} vs {x.dim}")
    opalg.check_tol(tol)
    decided = _nnls_geq(z, x, tol)
    return decided if decided is not None else _lp_geq(z, x, tol)


def _nnls_geq(z: Povm, x: Povm, tol: float) -> GeqResult | None:
    """``povm_geq``'s answer from non-negative least squares, or None when
    neither the game nor the witness it yields settles the pair."""
    basis = opalg.hermitian_basis(z.dim)
    zm, xm = z.matrices(), x.matrices()
    z_coords, x_coords = basis._coords(zm), basis._coords(xm)  # (nz, D), (nx, D)
    nz, nx = len(z_coords), len(x_coords)
    gram = np.zeros((nx, nz, nx, nz))  # I (x) C C^T + 1 1^T (x) I, block by block
    gram[np.arange(nx), :, np.arange(nx), :] = z_coords @ z_coords.T
    gram[:, np.arange(nz), :, np.arange(nz)] += 1.0
    gram, h = gram.reshape(nx * nz, -1), (x_coords @ z_coords.T + 1.0).reshape(-1)
    lam = _nnls_gram(gram, h)
    if lam is None:  # the pivoting can cycle when z's effects are linearly dependent
        lam = _nnls_gram(gram + 10 * np.finfo(float).eps * np.trace(gram) * np.eye(len(h)), h)
    if lam is None:
        return None
    lam = lam.reshape(nx, nz)
    games = basis._matrix(x_coords - lam @ z_coords)  # W_x, from the residual's basis part
    margin = (np.einsum("xij,xji->", games, xm).real
              - np.einsum("xij,zji->xz", games, zm).real.max(axis=0).sum())
    scale = np.abs(games).sum()  # the dual of the entrywise max norm
    if margin > tol * scale:
        games.setflags(write=False)
        return GeqResult(holds=False, witness=None, residual=float(margin / scale),
                         certificate=games)
    totals = lam.sum(axis=0)
    if np.all(totals > 0):
        witness = StochasticMatrix(n_in=nz, n_out=nx, entries=lam / totals)
        gap = _witness_gap(witness, zm, xm)
        if gap <= tol:
            return GeqResult(holds=True, witness=witness, residual=gap)
    return None


def _nnls_gram(gram: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """argmin |A lambda - b| over lambda >= 0 from ``gram`` = A^T A and
    ``h`` = A^T b, by block principal pivoting (Kim & Park 2011) with the
    one-variable backup rule of Judice & Pires (1994) after 3 steps that
    do not shrink the infeasible count; see ``povm_geq``. Each passive
    block is solved on the sorted passive indices, by least squares when
    singular; other entries are exactly zero. The first step is known: at
    lambda = 0 every variable is a zero with gradient h, so the infeasible
    set is h > floor; each later one is found after the solve before it.
    None after 10n steps, or as soon as a passive set repeats under the
    backup rule: that rule maps each passive set to the next one, so a
    repeat is a cycle."""
    n = len(h)
    lam = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    floor = 10 * n * np.finfo(float).eps * max(1.0, float(np.max(np.abs(h))))
    fewest, grace = n + 1, 3
    seen = set()  # passive sets visited since the backup rule last took over
    infeasible = h > floor
    for _ in range(10 * n):
        count = np.count_nonzero(infeasible)
        if not count:
            return lam
        fewest, grace = (count, 3) if count < fewest else (fewest, grace - 1)
        if grace >= 0:
            seen.clear()
        else:  # backup rule: only the last infeasible index moves
            infeasible[:np.flatnonzero(infeasible)[-1]] = False
            key = (passive ^ infeasible).tobytes()
            if key in seen:
                return None
            seen.add(key)
        passive ^= infeasible
        idx = np.flatnonzero(passive)
        lam = np.zeros(n)
        try:
            lam[idx] = np.linalg.solve(gram[idx[:, None], idx], h[idx])
        except np.linalg.LinAlgError:  # z's effects are linearly dependent
            lam[idx] = np.linalg.lstsq(gram[idx[:, None], idx], h[idx])[0]
        infeasible = np.where(passive, lam <= 0, h - gram @ lam > floor)
    return None


def _witness_gap(witness: StochasticMatrix, zm: np.ndarray, xm: np.ndarray) -> float:
    """Entrywise max |sum_z witness(x|z) Z_z - X_x|."""
    rebuilt = np.einsum("xz,zij->xij", witness.entries, zm)
    return float(np.max(np.abs(rebuilt - xm)))


def _lp_geq(z: Povm, x: Povm, tol: float) -> GeqResult:
    """``povm_geq`` by the min-max LP; see there."""
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
    residual = _witness_gap(witness, z.matrices(), x.matrices())
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
    opalg.check_tol(tol)
    m = p.matrices()
    scale = np.trace(m, axis1=1, axis2=2).real / p.dim
    return bool(np.max(np.abs(m - scale[:, None, None] * np.eye(p.dim))) <= tol)


def is_rank_one_povm(p: Povm, tol: float = DECISION_ATOL) -> bool:
    """True when every nonzero effect has rank one (eigenvalues above tol)."""
    opalg.check_tol(tol)
    w = np.linalg.eigvalsh(opalg.hermitize(p.matrices()))
    return bool(np.all(np.sum(w > tol, axis=1) <= 1))


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
    if n_worlds < 1:
        raise ValueError("the state family is empty: a uniform prior needs at least one state")
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
    """Cross-check the post-processing order against sampled decision problems.

    Worlds are the given states under a uniform prior. When ``povm_geq``
    says z >= x, no sampled utility may give the x-measurement a strictly
    higher optimum (beyond slack); utilities where x does better are
    counted as reversals and are only consistent when the relation
    fails. Sampling cannot certify the converse direction, so absence
    of reversals never upgrades the verdict.
    """
    if n_utilities < 0:
        raise ValueError(f"n_utilities must be >= 0, got {n_utilities}")
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
    opalg.check_tol(tol)
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
