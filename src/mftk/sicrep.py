"""Symmetric informationally complete reference measurements.

A SIC in dimension d is a set of d^2 unit vectors with pairwise overlap
|<psi_i|psi_j>|^2 = 1/(d+1); the rank-1 projectors divided by d form a
POVM. Writing p(i) for the reference probabilities of a state and
r(j|i) for the conditional probabilities of a target measurement after
a reference outcome, the Born rule becomes an affine update of p

    q(j) = sum_i [(d+1) p(i) - 1/d] r(j|i)

which this module contrasts with the classical total-probability rule
q(j) = sum_i r(j|i) p(i). ``discover_system`` runs the inverse problem:
given a table of outcome distributions, find one quantum model (states
plus measurements in a fixed dimension) that reproduces all of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import opalg
from .errors import (
    DimensionMismatchError,
    InconsistentPairError,
    NonQuantumProbabilityError,
    UnsupportedDimensionError,
)
from .measure import (
    DensityMatrix,
    OutcomeDistribution,
    Povm,
    StochasticMatrix,
    _born,
    born_probabilities,
    validate_povm,
)
from .opalg import CHECK_ATOL, DECISION_ATOL, FIT_TOL, PROB_CLAMP, ROUNDOFF_ATOL


@dataclass(frozen=True)
class SicPovm:
    """Reference measurement: d^2 equiangular unit vectors, effects Pi_i / d."""

    dim: int
    fiducial_states: tuple[np.ndarray, ...]
    povm: Povm

    def __post_init__(self):
        d = self.dim
        vecs = tuple(opalg.freeze(np.asarray(v, dtype=complex).reshape(-1, 1)).reshape(-1)
                     for v in self.fiducial_states)
        if len(vecs) != d * d:
            raise ValueError(f"need {d * d} fiducial states, got {len(vecs)}")
        object.__setattr__(self, "fiducial_states", vecs)
        gram = np.abs(np.conj(vecs) @ np.transpose(vecs)) ** 2
        target = np.full((d * d, d * d), 1.0 / (d + 1))
        np.fill_diagonal(target, 1.0)
        worst = np.max(np.abs(gram - target))
        if worst > CHECK_ATOL:
            raise ValueError(f"fiducial overlaps deviate from equiangularity by {worst:.3e}")
        if self.povm.dim != d or self.povm.n_outcomes != d * d:
            raise DimensionMismatchError("effect list does not match the fiducial family")
        gaps = np.max(np.abs(self.povm.matrices() - self.projectors() / d), axis=(1, 2))
        for label, gap in zip(self.povm.labels, gaps):
            if gap > CHECK_ATOL:
                raise ValueError(f"effect {label!r} is not its fiducial projector / d")
        if np.max(np.abs(self.povm.matrices().sum(axis=0) - np.eye(d))) > CHECK_ATOL:
            raise ValueError("reference effects do not sum to the identity")

    def projectors(self) -> np.ndarray:
        """Stacked (d^2, d, d) rank-1 projectors |psi_i><psi_i|."""
        v = np.stack(self.fiducial_states)
        return v[:, :, None] * v.conj()[:, None, :]


def _tetrahedron_vectors() -> list[np.ndarray]:
    out = []
    for bloch in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]:
        bx, by, bz = np.array(bloch) / np.sqrt(3)
        theta = np.arccos(bz)
        phi = np.arctan2(by, bx)
        out.append(np.array([np.cos(theta / 2),
                             np.sin(theta / 2) * np.exp(1j * phi)]))
    return out


# Unit fiducial vectors whose shift/clock orbits are equiangular; those past
# d = 1 were found by least-squares minimization of the overlap deviations and
# frozen at double precision. The SicPovm constructor re-verifies them.
_FIDUCIALS = {
    1: np.ones(1, dtype=complex),
    3: np.array([0, 1, -1], dtype=complex) / np.sqrt(2),
    4: np.array([
        complex(-0.48079909639623813, 0.06890996895949696),
        complex(0.7502848558532066, 0.0),
        complex(-0.028543443725732625, -0.19915350650405086),
        complex(-0.29802920318270115, -0.2680634754635478),
    ]),
    5: np.array([
        complex(-0.08291070940495404, 0.3821543188382934),
        complex(-0.4089766790344367, 0.23972278237130715),
        complex(-0.13488291140882025, 0.10574437644805106),
        complex(0.2748296503132098, 0.13237662539004588),
        complex(0.7070535862973082, 0.0),
    ]),
}


def _weyl_heisenberg_orbit(d: int) -> list[np.ndarray]:
    fiducial = _FIDUCIALS[d]
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag([omega**k for k in range(d)])
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) @ fiducial
            for a in range(d) for b in range(d)]


@functools.lru_cache(maxsize=None)
def build_sic(d: int) -> SicPovm:
    """Built-in reference measurement for d in {1, 2, 3, 4, 5}.

    d=2 is the Bloch tetrahedron; the others are shift/clock orbits of
    stored fiducial vectors. Instances are immutable, so repeated calls
    share one cached object per dimension.
    """
    if d == 2:
        vecs = _tetrahedron_vectors()
    elif d in _FIDUCIALS:
        vecs = _weyl_heisenberg_orbit(d)
    else:
        raise UnsupportedDimensionError(f"no built-in fiducial for dimension {d}")
    povm = Povm.from_matrices(d, [np.outer(v, v.conj()) / d for v in vecs])
    return SicPovm(dim=d, fiducial_states=tuple(vecs), povm=povm)


@dataclass(frozen=True)
class SicProbVector:
    """Probabilities of the d^2 reference outcomes.

    Quantum states never assign more than 1/d to a reference outcome,
    so entries above that bound are rejected as non-quantum.
    """

    dim: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size != self.dim**2:
            raise DimensionMismatchError(f"expected {self.dim ** 2} entries, got {p.size}")
        if not np.all(np.isfinite(p)):
            raise ValueError("reference probabilities must be finite")
        if p.min(initial=0.0) < -PROB_CLAMP:
            raise ValueError(f"negative reference probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > ROUNDOFF_ATOL:
            raise ValueError(f"reference probabilities sum to {float(p.sum())!r}, not 1")
        if p.max() > 1.0 / self.dim + ROUNDOFF_ATOL:
            raise NonQuantumProbabilityError(
                f"non-quantum probability vector: entry {float(p.max())!r} exceeds 1/d"
            )
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def state_to_sic_probs(rho: DensityMatrix, sic: SicPovm) -> SicProbVector:
    """p(i) = Tr(rho Pi_i) / d."""
    return SicProbVector(dim=sic.dim, probs=born_probabilities(rho, sic.povm).probs)


def sic_probs_to_state(p: SicProbVector, sic: SicPovm) -> DensityMatrix:
    """Invert the reference map: rho = sum_i [(d+1) p(i) - 1/d] Pi_i.

    The result always has unit trace; it is a state only when it is
    positive semidefinite, and vectors failing that by more than 1e-8
    are rejected as non-quantum.
    """
    if p.dim != sic.dim:
        raise DimensionMismatchError(f"probability dim {p.dim} != reference dim {sic.dim}")
    d = sic.dim
    coeff = (d + 1) * p.probs - 1.0 / d
    rho = opalg.hermitize(np.einsum("i,ijk->jk", coeff, sic.projectors()))
    low = np.linalg.eigvalsh(rho)[0]
    if low < -DECISION_ATOL:
        raise NonQuantumProbabilityError(
            f"non-quantum probability vector: reconstructed operator has eigenvalue {low:.3e}"
        )
    rho = opalg.psd_clip(rho)
    return DensityMatrix(dim=d, matrix=rho / np.trace(rho).real)


def povm_to_conditional(sic: SicPovm, target: Povm) -> StochasticMatrix:
    """Characterize a measurement by r(j|i) = Tr(Pi_i D_j).

    Row j, column i: the probability of target outcome j when the
    system is left in the i-th fiducial state by the reference
    measurement.
    """
    if target.dim != sic.dim:
        raise DimensionMismatchError(f"target dim {target.dim} != reference dim {sic.dim}")
    r = _born(sic.projectors(), target.matrices())
    return StochasticMatrix(n_in=sic.dim**2, n_out=target.n_outcomes, entries=r)


def _affine_update(p: np.ndarray, r: np.ndarray, d: int) -> np.ndarray:
    """Rows q = r [(d+1) p - 1/d] for (n, d^2) p and an (m, d^2) table r, clipped at
    zero and renormalized, shape (n, m); a row with an entry below -1e-9 is rejected."""
    q = ((d + 1) * p - 1.0 / d) @ r.T
    bad = q.min(axis=1) < -CHECK_ATOL
    if bad.any():
        q = q[bad.argmax()]
        raise InconsistentPairError(f"inconsistent (p, r) pair: q({q.argmin()}) = {q.min():.3e}")
    q = np.clip(q, 0.0, None)
    return q / q.sum(axis=1, keepdims=True)


def _reference_prediction(sic: SicPovm, r: StochasticMatrix, rhos: np.ndarray) -> np.ndarray:
    """(n, m) outcome probabilities under table r of an (n, d, d) state stack."""
    return _affine_update(_born(sic.povm.matrices(), rhos), r.entries, sic.dim)


def urgleichung(p: SicProbVector, r: StochasticMatrix, labels=None) -> OutcomeDistribution:
    """Quantum update q(j) = sum_i [(d+1) p(i) - 1/d] r(j|i).

    The affine coefficients can be negative, so an arbitrary (p, r)
    pair may produce negative q; anything below -1e-9 is rejected as
    inconsistent rather than clamped.
    """
    d = p.dim
    if r.n_in != d * d:
        raise DimensionMismatchError(f"conditional table has {r.n_in} inputs, expected {d * d}")
    q = _affine_update(p.probs[None], r.entries, d)[0]
    if labels is None:
        labels = [str(j) for j in range(q.size)]
    return OutcomeDistribution(labels=tuple(labels), probs=q)


def classical_rule(p: SicProbVector, r: StochasticMatrix, labels=None) -> OutcomeDistribution:
    """Total-probability update q(j) = sum_i r(j|i) p(i)."""
    if r.n_in != p.probs.size:
        raise DimensionMismatchError(f"conditional table has {r.n_in} inputs, p has {p.probs.size}")
    q = r.entries @ p.probs
    if labels is None:
        labels = [str(j) for j in range(q.size)]
    return OutcomeDistribution(labels=tuple(labels), probs=q)


@dataclass(frozen=True)
class ProbabilityTable:
    """Outcome distributions q_{k,m} for every measurement k and preparation m."""

    n_preparations: int
    measurement_labels: tuple[str, ...]
    distributions: tuple[tuple[OutcomeDistribution, ...], ...]

    def __post_init__(self):
        labels = tuple(str(l) for l in self.measurement_labels)
        rows = tuple(tuple(row) for row in self.distributions)
        if len(rows) != len(labels):
            raise ValueError(f"{len(rows)} table rows for {len(labels)} measurements")
        for label, row in zip(labels, rows):
            if len(row) != self.n_preparations:
                raise ValueError(
                    f"measurement {label!r} has {len(row)} distributions, "
                    f"expected {self.n_preparations}"
                )
            counts = {len(q) for q in row}
            if len(counts) > 1:
                raise ValueError(f"measurement {label!r} rows disagree on outcome count")
        object.__setattr__(self, "measurement_labels", labels)
        object.__setattr__(self, "distributions", rows)

    @property
    def n_measurements(self) -> int:
        return len(self.measurement_labels)

    def as_arrays(self) -> list[np.ndarray]:
        """Per measurement, the (n_preparations, n_outcomes) matrix of q values."""
        return [np.stack([q.probs for q in row]) for row in self.distributions]

    @classmethod
    def from_model(cls, states, povms, labels=None) -> "ProbabilityTable":
        states = list(states)
        povms = list(povms)
        if labels is None:
            labels = [str(k) for k in range(len(povms))]
        rows = tuple(
            tuple(born_probabilities(rho, z) for rho in states) for z in povms
        )
        return cls(n_preparations=len(states), measurement_labels=tuple(labels),
                   distributions=rows)


@dataclass(frozen=True)
class DiscoveryResult:
    """Verdict of ``discover_system``.

    ``certificate`` is set only when the dimension was ruled out from the
    table alone: a dict with the ``bound`` ("rank" or "fidelity"), its
    ``value``, the ``limit`` that value exceeds, and the ``preparations``
    (0-based indices) it was computed on.
    """

    feasible: bool
    states: tuple[DensityMatrix, ...]
    povms: tuple[Povm, ...]
    residual: float
    restarts_used: int
    certificate: dict | None = None

    @property
    def verdict(self) -> str:
        """One of "found", "ruled_out" (proven impossible) and "not_found" (the search gave up)."""
        if self.feasible:
            return "found"
        return "not_found" if self.certificate is None else "ruled_out"

    @property
    def model(self):
        return self.states, self.povms


def _random_model(d, n_prep, counts, rng):
    """Random full-rank start: an (n_prep, d, d) state stack and one
    (n_k, d, d) effect stack per measurement, drawn as Ginibre Gram
    matrices, states first and then each effect set in order.
    """
    m = opalg.ginibre_grams(rng, n_prep, d)
    states = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    effect_sets = [opalg.normalize_effects(opalg.ginibre_grams(rng, n, d))[0] for n in counts]
    return states, effect_sets


def _project_states(m):
    """PSD-clip each matrix in an exactly Hermitian stack and renormalize
    its trace; a matrix with nothing positive left becomes maximally mixed."""
    d = m.shape[-1]
    out = opalg._psd_clip(m)
    traces = np.trace(out, axis1=-2, axis2=-1).real
    empty = traces <= 0
    out = out / np.where(empty, 1.0, traces)[..., None, None]
    out[empty] = np.eye(d) / d
    return out


def _project_effects(effects):
    """PSD-clip exactly Hermitian (..., n, d, d) effect sets, spread each
    set's completeness excess evenly over its n effects, and clip again."""
    d = effects.shape[-1]
    effects = opalg._psd_clip(effects)
    excess = (effects.sum(axis=-3) - np.eye(d)) / effects.shape[-3]
    return opalg._psd_clip(effects - excess[..., None, :, :])


def _repair_model(q_arrays, d, states, effect_sets):
    """Round a raw iterate to an exactly valid model.

    Returns (table residual, states, povms), or None when the iterate
    cannot be rounded.
    """
    try:
        fixed_states = tuple(DensityMatrix(dim=d, matrix=m) for m in _project_states(states))
    except ValueError:
        return None
    povms = []
    for effects in effect_sets:
        effects, w = opalg.normalize_effects(opalg.psd_clip(effects))
        if w[0] < 1e-12:
            return None
        povm = Povm.from_matrices(d, effects)
        if not validate_povm(povm).ok:
            return None
        povms.append(povm)
    return _model_residual(q_arrays, fixed_states, povms), fixed_states, tuple(povms)


def _model_residual(q_arrays, states, povms):
    """Worst |Tr(rho_m E_o) - q_mo| over the table: one Born product per
    measurement over the whole state stack."""
    rhos = np.stack([rho.matrix for rho in states])
    return max(float(np.max(np.abs(_born(z.matrices(), rhos) - q)))
               for z, q in zip(povms, q_arrays))


def _polish_unpack(xs, d, n_prep, counts, memo=None):
    """Models at a batch of polish parameter vectors, shape (..., P), each
    the real and imaginary parts of one d x d factor G per matrix.

    Returns the (..., N, d, d) factors G, the first n_prep Grams' traces t
    (floored at 1e-300), the states G G^dag / t and, per measurement, its
    Gram blocks A_j = G_j G_j^dag, S^{-1/2} with the eigenvalues and
    eigenvectors of S = sum_j A_j, and the effects S^{-1/2} A_j S^{-1/2}.
    A ``memo`` dict keeps the last result, because the polish takes each
    Jacobian where it last evaluated the residuals.
    """
    key = (xs.shape, xs.tobytes())
    if memo is not None and memo.get("key") == key:
        return memo["value"]
    half = xs.reshape(*xs.shape[:-1], -1, 2, d, d)
    gs = half[..., 0, :, :] + 1j * half[..., 1, :, :]
    grams = gs @ opalg.dagger(gs)
    traces = np.clip(np.trace(grams[..., :n_prep, :, :], axis1=-2, axis2=-1).real, 1e-300, None)
    measurements, at = [], n_prep
    for n in counts:
        a = grams[..., at:at + n, :, :]
        t, w, u = opalg._sum_inverse_root(a)
        root = t[..., None, :, :]
        measurements.append((a, t, w, u, opalg.hermitize(root @ a @ root)))
        at += n
    value = gs, traces, grams[..., :n_prep, :, :] / traces[..., None, None], measurements
    if memo is not None:
        memo.update(key=key, value=value)
    return value


def _polish_residuals(xs, d, n_prep, counts, q_arrays, memo=None):
    """Predicted minus tabulated probabilities at a batch of parameter
    vectors: shape (..., R), measurement by measurement, each row-major
    over (preparation, outcome)."""
    _, _, states, measurements = _polish_unpack(xs, d, n_prep, counts, memo)
    s = states.reshape(*states.shape[:-2], d * d).conj()
    parts = []
    for (*_, effects), q in zip(measurements, q_arrays):
        e = effects.reshape(*effects.shape[:-2], d * d)
        probs = (s @ np.swapaxes(e, -1, -2)).real
        parts.append((probs - q).reshape(*xs.shape[:-1], -1))
    return np.concatenate(parts, axis=-1)


def _polish_jacobian(x, d, n_prep, counts, q_arrays, memo=None):
    """Exact Jacobian of ``_polish_residuals`` at one parameter vector x, shape (R, P).

    Residual r_mo = Tr(rho_m E_o) - q_mo of a measurement depends only on
    the factor G_m of state m and on the factors G_j of the measurement's
    Gram blocks A_j = G_j G_j^dag. For a Hermitian M, the derivative of
    Tr(M G G^dag) along Re G is 2 Re(M G), and along Im G it is 2 Im(M G).
    - State block: rho_m = G_m G_m^dag / t_m gives M = (E_o - p_mo) / t_m.
    - Effect block: E_o = T A_o T with T = S^{-1/2}, S = sum_j A_j, gives
      M = delta_oj T rho_m T + C_mo, where C_mo = U (F o U^dag B_mo U) U^dag,
      B_mo = A_o T rho_m + rho_m T A_o, and U, lambda diagonalize S. F holds
      the Daleckii-Krein divided differences of lambda^{-1/2}, which in
      closed form -1 / (sqrt(l_i) sqrt(l_j) (sqrt(l_i) + sqrt(l_j))) need no
      case for equal eigenvalues.
    Each measurement's rows are filled in one pass over its stacks.
    """
    gs, traces, rhos, measurements = _polish_unpack(x, d, n_prep, counts, memo)
    g_states = gs[:n_prep, None]
    jac = np.zeros((n_prep * sum(counts), len(gs), 2, d, d))
    prep = np.arange(n_prep)
    row, at = 0, n_prep
    for n, (a, t, w, u, effects) in zip(counts, measurements):
        probs = _born(effects, rhos)
        d_states = 2 * (effects @ g_states - probs[..., None, None] * g_states)
        d_states /= traces[:, None, None, None]
        root = np.sqrt(np.clip(w, 1e-300, None))
        f = -1 / (root[:, None] * root[None, :] * (root[:, None] + root[None, :]))
        a_t_rho = a @ (t @ rhos)[:, None]  # (n_prep, n, d, d): A_o T rho_m
        b = a_t_rho + opalg.dagger(a_t_rho)
        c = u @ (f * (opalg.dagger(u) @ b @ u)) @ opalg.dagger(u)
        m = c[:, :, None] + np.eye(n)[:, :, None, None] * (t @ rhos @ t)[:, None, None]
        d_effects = 2 * m @ gs[at:at + n]  # (n_prep, n_o, n_j, d, d)
        block = jac[row:row + n_prep * n].reshape(n_prep, n, len(gs), 2, d, d)
        block[prep, :, prep] = np.stack([d_states.real, d_states.imag], axis=2)
        block[:, :, at:at + n] = np.stack([d_effects.real, d_effects.imag], axis=3)
        row += n_prep * n
        at += n
    return jac.reshape(row, -1)


def _levenberg_marquardt(residuals, jacobian, x, tol, max_nfev=3000):
    """Minimize ||r(x)||^2 / 2 from x by Levenberg-Marquardt steps with
    Nielsen's damping update (Marquardt, J. SIAM 11, 431 (1963); H. B.
    Nielsen, IMM-REP-1999-05, DTU (1999)); returns the last accepted x.

    ``residuals(x)`` is r, shape (R,), and ``jacobian(x)`` its (R, P) J. A
    step is -J^T (J J^T + mu I)^{-1} r, for mu > 0 the damped Gauss-Newton
    step -(J^T J + mu I)^{-1} J^T r, solved in R unknowns. Stops at the
    first x with max |r| <= tol, a cost decrease below 1e-14 of the cost, a
    step below 1e-14 (1e-14 + ||x||), max |J^T r| < 1e-12, or ``max_nfev``
    evaluations of r.
    """
    r = residuals(x)
    cost, nfev, mu, nu = r @ r / 2, 1, None, 2.0
    while np.max(np.abs(r)) > tol and nfev < max_nfev:
        jac = jacobian(x)
        g = jac.T @ r
        if np.max(np.abs(g)) < 1e-12:
            break
        gram = jac @ jac.T
        if mu is None:
            mu = 1e-3 * np.max(np.sum(jac * jac, axis=0))
        while nfev < max_nfev:
            damped = gram + mu * np.eye(len(gram))
            h = -jac.T @ np.linalg.solve(damped, r)
            if np.linalg.norm(h) < 1e-14 * (1e-14 + np.linalg.norm(x)):
                return x
            r_new, nfev = residuals(x + h), nfev + 1
            cost_new = r_new @ r_new / 2
            gain = (cost - cost_new) / (h @ (mu * h - g) / 2)
            if gain > 0:
                break
            mu, nu = mu * nu, 2 * nu
        else:
            break
        if cost - cost_new < 1e-14 * cost:
            return x + h
        x, r, cost = x + h, r_new, cost_new
        mu, nu = mu * max(1 / 3, 1 - (2 * gain - 1) ** 3), 2.0
    return x


def _polish_model(d, states, effect_sets, q_arrays, tol, max_nfev=3000):
    """Local least-squares refinement of a near-feasible iterate.

    The alternating stage slows to a crawl when the solution sits on the
    boundary of the PSD cone (pure states, projective effects), so finish
    with a factorized parametrization where every iterate is exactly a
    valid model: states as G G^dag / tr, effect sets as S^{-1/2}-normalized
    Gram blocks. On that parametrization the residuals are smooth, and
    ``_levenberg_marquardt`` on the exact ``_polish_jacobian`` converges
    locally fast. It stops at the first iterate within ``tol`` less 64 ulps
    of 1, so that rounding in ``_repair_model`` keeps it within ``tol``, or
    after ``max_nfev`` residual evaluations. Takes and returns an (n_prep,
    d, d) state stack and one (n_k, d, d) stack per measurement.
    """
    n_prep = len(states)
    counts = tuple(len(effects) for effects in effect_sets)
    w, v = np.linalg.eigh(opalg.hermitize(np.concatenate([states, *effect_sets])))
    factors = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    args = (d, n_prep, counts, q_arrays, {})  # {}: the memo of _polish_unpack
    x = np.stack([factors.real, factors.imag], axis=1).ravel()
    x = _levenberg_marquardt(lambda x: _polish_residuals(x, *args),
                             lambda x: _polish_jacobian(x, *args), x,
                             tol - 64 * np.finfo(float).eps, max_nfev)
    _, _, out_states, measurements = _polish_unpack(x, d, n_prep, counts)
    return opalg.hermitize(out_states), [effects for *_, effects in measurements]


# Early-polish budget: from restart 1's first iterate, fits took at most 26
# evaluations on 450 random tables and 10 on the benchmark pools (BENCH_26.json).
_EARLY_NFEV = 30


def _restart_batch(q_arrays, basis, restarts, max_iters, tol, seed):
    """Run the alternating descent of ``discover_system`` from the random
    starts of ``restarts`` (ascending restart indices) as one batch.

    Slot i of every stack holds restart ``restarts[i]``: the states are one
    (b, n_prep, d^2) coordinate array, and the measurements with equal
    outcome count n form one (b, K, n, d^2) array, so each step is taken by
    all restarts and all such measurements at once. Every slot keeps its own
    line-search masks, objective history, stall counter and hand-over, and
    leaves the batch where a run of its own would have stopped.

    A slot is decided, in one step, at two moments of its loop:
    - early, if it stays in the loop: its model is polished on a copy for
      at most ``_EARLY_NFEV`` evaluations and repaired; a miss leaves the
      slot as it was. Restart 0, which ``_search`` runs alone, is polished
      at its first iterate, however far off; every other restart at its
      first iterate within ``handover_radius`` of the table, since the
      batch runs only after restart 0 has failed, on tables where such
      attempts mostly miss. With ``max_iters`` 1 no slot stays, so none
      is polished early;
    - in the iteration it leaves (hand-over, stall or the last iteration):
      its model is polished without that budget if within
      ``handover_radius``, and repaired. An iterate that leaves is not
      polished from farther off, where the polish need not converge.
    A fit ends every later slot too. Yields (restart, repaired model or
    None) in restart order, ending at the first that fits within ``tol``.
    """
    handover_radius = 1e-2  # worst table miss from which the polish converges
    b = len(restarts)
    if b == 0:
        return
    d = basis.dim
    n_prep = len(q_arrays[0])
    counts = tuple(q.shape[1] for q in q_arrays)
    q_rows = np.hstack(q_arrays)  # row m: every table entry of preparation m
    sizes = list(dict.fromkeys(counts))
    groups = [[k for k, n in enumerate(counts) if n == size] for size in sizes]
    # Measurement k is ys[g][:, j]: group g of its outcome count, j-th in it.
    where = [(sizes.index(n), counts[:k].count(n)) for k, n in enumerate(counts)]
    q_groups = [np.stack([q_arrays[k] for k in ks]) for ks in groups]  # (K, n_prep, n)

    starts = [_random_model(d, n_prep, counts, np.random.default_rng([seed, r]))
              for r in restarts]
    x = basis._coords(np.stack([states for states, _ in starts]))
    ys = [basis._coords(np.array([[sets[k] for k in ks] for _, sets in starts]))
          for ks in groups]

    def model_at(i):
        return basis._matrix(x[i]), [basis._matrix(ys[g][i, j]) for g, j in where]

    live = np.ones(b, dtype=bool)
    prev_obj = np.full(b, np.inf)
    stall = np.zeros(b, dtype=int)
    tried = np.zeros(b, dtype=bool)  # slots that had their early polish
    results = [None] * b  # each slot's repaired model, once decided
    for it in range(max_iters):
        # Fit all states against fixed effects. Rows of e are effect
        # coordinates, so x @ e^T are the predicted probabilities. A state
        # whose step direction vanishes takes no further step.
        e = np.concatenate([ys[g][:, j] for g, j in where], axis=1)
        e_t = e.swapaxes(-1, -2)
        active = np.repeat(live[:, None], n_prep, axis=1)
        for _ in range(2):
            resid = x @ e_t - q_rows
            grad = resid @ e
            step_dir = grad @ e_t
            denom = np.sum(step_dir * step_dir, axis=-1)
            active &= denom > 0
            if not active.any():
                break
            step = np.sum(resid * step_dir, axis=-1)[active] / denom[active]
            moved = x[active] - step[:, None] * grad[active]
            x[active] = basis._coords(_project_states(basis._matrix(moved)))

        # Fit each measurement against fixed states; a measurement whose
        # step direction vanishes takes no further step.
        xs = x[:, None]
        for y, q in zip(ys, q_groups):
            active = np.repeat(live[:, None], y.shape[1], axis=1)
            for _ in range(2):
                resid = xs @ y.swapaxes(-1, -2) - q  # (b, K, m, j)
                grad = resid.swapaxes(-1, -2) @ xs  # (b, K, j, n_basis)
                dq = xs @ grad.swapaxes(-1, -2)
                denom = np.sum(dq * dq, axis=(-2, -1))
                active &= denom > 0
                if not active.any():
                    break
                step = np.sum(resid * dq, axis=(-2, -1))[active] / denom[active]
                moved = y[active] - step[:, None, None] * grad[active]
                y[active] = basis._coords(_project_effects(basis._matrix(moved)))

        resids = [xs @ y.swapaxes(-1, -2) - q for y, q in zip(ys, q_groups)]
        squares = [np.sum(r * r, axis=(-2, -1)) for r in resids]
        obj = sum(squares[g][:, j] for g, j in where)  # summed in measurement order
        worst = np.max([np.max(np.abs(r), axis=(-3, -2, -1)) for r in resids], axis=0)

        handover = (worst < handover_radius) & (it >= 25)  # to the full polish below
        stall = np.where(prev_obj - obj < 1e-14 + 1e-9 * obj, stall + 1, 0)
        stays = ~handover & (stall < 10) & (it + 1 < max_iters)
        early = live & ~tried & stays & ((worst < handover_radius) | (np.asarray(restarts) == 0))
        tried |= early
        for i in np.flatnonzero(early | (live & ~stays)):
            model = model_at(i)
            if early[i] or worst[i] < handover_radius:
                budget = (_EARLY_NFEV,) if early[i] else ()
                model = _polish_model(d, *model, q_arrays, tol, *budget)
            found = _repair_model(q_arrays, d, *model)
            results[i] = found  # a miss of the early polish is decided again on leaving
            if found is not None and found[0] <= tol:
                live[i:] = False
                break
        live &= stays
        prev_obj = obj
        if not live.any():
            break

    for restart, found in zip(restarts, results):
        yield restart, found
        if found is not None and found[0] <= tol:
            return


def _dimension_certificate(q_arrays, d, tol):
    """Proof from the table alone that no d-dimensional model reproduces it
    within ``tol`` entrywise, as ``DiscoveryResult.certificate``, or None.

    Q stacks the per-measurement (n, n_k) arrays into n rows and m columns.
    The rank bound compares sigma_{d^2+1}(Q) with tol sqrt(n m) plus the
    SVD's round-off. The fidelity bound evaluates n_S^2 / sum_{i,j in S} f_ij
    on the preparation subsets S met by greedily dropping the preparation
    with the most overlap mass, and compares the best with d plus its
    round-off. Both are derived in ``discover_system``.
    """
    q = np.hstack(q_arrays)
    n, m = q.shape
    eps = np.finfo(float).eps
    if d * d < min(n, m):
        sigma = np.linalg.svd(q, compute_uv=False)
        limit = tol * np.sqrt(n * m) + 4 * max(n, m) * eps * sigma[0]
        if sigma[d * d] > limit:
            return {"bound": "rank", "value": float(sigma[d * d]), "limit": float(limit),
                    "preparations": list(range(n))}
    roots = [np.sqrt(np.minimum(1.0, q_k + tol)) for q_k in q_arrays]
    f = np.minimum(1.0, np.min([(r @ r.T) ** 2 for r in roots], axis=0)).tolist()
    keep = list(range(n))
    mass = [sum(row) for row in f]  # overlap mass of each preparation inside keep
    best, subset = 0.0, keep
    while keep:
        value = len(keep) ** 2 / sum(mass[i] for i in keep)
        if value > best:
            best, subset = value, list(keep)
        drop = max(keep, key=lambda i: 2 * mass[i] - f[i][i])
        keep.remove(drop)
        for i in keep:
            mass[i] -= f[i][drop]
    limit = d * (1 + 4 * (n * n + m) * eps)
    if best > limit:
        return {"bound": "fidelity", "value": best, "limit": float(limit), "preparations": subset}
    return None


def discover_system(
    table: ProbabilityTable,
    d: int,
    *,
    max_iters: int = 500,
    tol: float = FIT_TOL,
    restarts: int = 20,
    seed: int = 0,
) -> DiscoveryResult:
    """Search for a dimension-d quantum model reproducing a probability table.

    The verdict (``DiscoveryResult.verdict``) says what was shown:
    - "found": a model reproduces every table entry within ``tol``. It is
      reported only after being rounded to an exactly valid model that
      still does, so it is sound by construction.
    - "ruled_out": no d-dimensional model can, proven from the table alone
      before any restart (``restarts_used`` 0, ``residual`` inf, and the
      proof in ``certificate``).
    - "not_found": no restart converged; ``residual`` is the best rounded
      model's. This proves nothing about d.

    Two bounds rule d out, in the spirit of dimension witnesses (Wehner,
    Christandl & Doherty, PRA 78, 062112 (2008); Gallego et al., PRL 105,
    230501 (2010)). Stack the table into Q, n preparations by m effect
    columns over all measurements; a model within ``tol`` has table P with
    |Q - P| <= tol entrywise.
    - Rank: P = S E factors through the d^2 real coordinates of a
      Hermitian operator, so rank P <= d^2, and
      ||Q - P||_2 <= ||Q - P||_F <= tol sqrt(n m). By Weyl's inequality
      sigma_{d^2+1}(Q) <= tol sqrt(n m); a larger value rules d out.
    - Fidelity: with f_ij = min_k (sum_o sqrt(min(1, q_ik(o) + tol)
      min(1, q_jk(o) + tol)))^2, capped at 1, Tr rho_i rho_j <=
      F(rho_i, rho_j) <= f_ij, since the fidelity is at most the classical
      fidelity of any measurement. And sum_ij Tr rho_i rho_j =
      Tr (sum_i rho_i)^2 >= n^2 / d by Cauchy-Schwarz. So d >= n^2 / sum_ij f_ij, on every
      subset of the preparations; ``_dimension_certificate`` tries the
      greedy subsets and rules d out when the bound exceeds d by more than
      its round-off.

    The search is alternating projected-gradient descent on the squared
    residual: with measurements fixed the objective is quadratic in each
    state, and an exact line search along the gradient is available;
    likewise for the effects with states fixed. The iterate lives in
    Hermitian-basis coordinates: one (n_prep, d^2) array for the states and
    one (n_k, d^2) array per measurement. States are projected back to the
    PSD unit-trace set by eigenvalue clipping and trace renormalization;
    effects by PSD clipping followed by spreading the completeness excess
    evenly. A restart is decided at two moments, each by a polish with
    ``_polish_model`` (a Levenberg-Marquardt run that stops at the first
    iterate within ``tol``) and a repair: early, with the polish capped at
    30 evaluations, where a miss leaves the descent unchanged (restart 1
    at its first iterate, each later restart at its first iterate within
    1e-2 of the table, and none when ``max_iters`` is 1); and at the
    iterate where the descent stops, with a full polish if within 1e-2.
    Restart 1 runs alone; if it fails, restarts 2..``restarts`` run as one
    batch (``_restart_batch``), and the answer is still the lowest-numbered
    restart that succeeds, so ``restarts_used`` and the best residual mean
    what a one-by-one run would give.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if min(max_iters, restarts) < 1:
        raise ValueError(f"max_iters and restarts must be >= 1, got {max_iters}, {restarts}")
    opalg.check_tol(tol)
    if table.n_measurements == 0:
        raise ValueError("probability table has no measurements")
    if table.n_preparations == 0:
        raise ValueError("probability table has no preparations")
    q_arrays = table.as_arrays()
    certificate = _dimension_certificate(q_arrays, d, tol)
    if certificate is not None:
        return DiscoveryResult(False, (), (), np.inf, 0, certificate)
    return _search(q_arrays, d, max_iters, tol, restarts, seed)


def _search(q_arrays, d, max_iters, tol, restarts, seed) -> DiscoveryResult:
    """The restarts of ``discover_system``: "found" or "not_found"."""
    basis = opalg.hermitian_basis(d)
    best = None  # (residual, states, povms)
    for batch in (range(1), range(1, restarts)):
        for restart, found in _restart_batch(q_arrays, basis, batch, max_iters, tol, seed):
            if found is None:
                continue
            if found[0] <= tol:
                return DiscoveryResult(True, found[1], found[2], found[0], restart + 1)
            if best is None or found[0] < best[0]:
                best = found

    if best is None:
        return DiscoveryResult(False, (), (), np.inf, restarts)
    return DiscoveryResult(False, best[1], best[2], best[0], restarts)
