import itertools
import warnings

import numpy as np
import pytest
import scipy.optimize

import mftk.order

from mftk import (
    DecisionModel,
    OutcomeDistribution,
    Povm,
    StochasticMatrix,
    bayes_update,
    blackwell_consistency,
    born_probabilities,
    build_sic,
    compare,
    compose_stochastic,
    computational_povm,
    decision_model_for,
    expected_utility,
    is_rank_one_povm,
    is_trivial_class,
    post_process,
    povm_geq,
    povm_set_geq,
    pure_state,
    random_povm,
    random_state,
    trivial_povm,
    u_max,
    xbasis_povm,
)
from mftk.errors import DimensionMismatchError, SolverError


def _random_stochastic(n_in, n_out, rng):
    raw = rng.uniform(size=(n_out, n_in))
    return StochasticMatrix(n_in, n_out, raw / raw.sum(axis=0, keepdims=True))


# ---------------------------------------------------------------- updating

def test_bayes_update_examples():
    assert bayes_update(0.5, 0.5, 0.5) == pytest.approx(0.5)  # independence
    assert bayes_update(0.5, 0.5, 1.0) == pytest.approx(1.0)
    assert bayes_update(0.3, 0.6, 0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        bayes_update(0.5, 0.0, 0.5)


@pytest.mark.parametrize("args, named", [
    ((-1.0, 0.5, 0.5), "prior_h=-1.0"),
    ((0.5, 1.5, 0.5), "prior_e=1.5"),
    ((0.5, 0.5, float("nan")), "likelihood_e_given_h=nan"),
    ((float("inf"), 0.5, 0.5), "prior_h=inf"),
])
def test_bayes_update_rejects_a_value_that_is_not_a_probability(args, named):
    with pytest.raises(ValueError, match=f"must be finite and in \\[0, 1\\]: {named}"):
        bayes_update(*args)


def test_bayes_update_rejects_evidence_less_likely_than_its_overlap_with_the_hypothesis():
    # P(E|H) P(H) is the probability of H and E together, which P(E) bounds:
    # P(H) = 0.9 and P(E|H) = 0.5 put it at 0.45, so P(E) = 0.1 is incoherent,
    # and the quotient would be a "posterior" of 4.5.
    with pytest.raises(ValueError, match="incoherent beliefs"):
        bayes_update(0.9, 0.1, 0.5)
    assert bayes_update(0.5, 0.25, 0.5) == 1.0  # at the bound, H is certain given E
    assert bayes_update(0.5, 0.25 - 1e-11, 0.5) == pytest.approx(1.0)  # within round-off
    with pytest.raises(ValueError, match="zero prior probability"):
        bayes_update(0.0, 0.0, 0.5)


@pytest.mark.parametrize("args", [(0.5, 0.25 - 1e-11, 0.5), (1.0, 1 - 5e-11, 1.0)])
def test_bayes_update_within_round_off_of_incoherent_returns_exactly_one(args):
    # The unclipped quotients are 1.00000000004 and 1.00000000005.
    joint = args[2] * args[0]
    assert joint / args[1] > 1.0
    assert bayes_update(*args) == 1.0


# ------------------------------------------------------------------- order

def test_geq_merge_and_trivial_targets():
    z = computational_povm(2)
    merged = post_process(z, StochasticMatrix.merge_all(2))
    result = povm_geq(z, merged)
    assert result.holds and result.residual < 1e-8

    result = povm_geq(z, trivial_povm(2))
    assert result.holds
    np.testing.assert_allclose(result.witness.entries, np.ones((1, 2)), atol=1e-6)


def test_geq_witness_soundness():
    rng = np.random.default_rng(60)
    for i in range(10):
        z = random_povm(2, 4, seed=[61, i])
        lam = _random_stochastic(4, 3, rng)
        x = post_process(z, lam)
        result = povm_geq(z, x)
        assert result.holds
        rebuilt = post_process(z, result.witness)
        for a, b in zip(rebuilt.effects, x.effects):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-8)


def test_z_vs_x_basis_incomparable_with_grid_oracle():
    z = computational_povm(2)
    x = xbasis_povm()
    assert not povm_geq(z, x).holds
    assert not povm_geq(x, z).holds
    # Exhaustive oracle: 2x2 column-stochastic matrices have two free
    # entries; no grid point comes close to reproducing x from z.
    zs = np.stack([e.matrix for e in z.effects])
    xs = np.stack([e.matrix for e in x.effects])
    best = np.inf
    for a in np.linspace(0, 1, 21):
        for b in np.linspace(0, 1, 21):
            lam = np.array([[a, b], [1 - a, 1 - b]])
            built = np.einsum("xz,zij->xij", lam, zs)
            best = min(best, np.max(np.abs(built - xs)))
    assert best > 0.1


def test_compare_relations():
    z = computational_povm(2)
    permuted = post_process(z, StochasticMatrix.deterministic([1, 0], 2, 2))
    assert compare(z, permuted).relation == "equivalent"
    assert compare(z, trivial_povm(2)).relation == "geq"
    assert compare(trivial_povm(2), z).relation == "leq"
    assert compare(z, build_sic(2).povm).relation == "incomparable"
    with pytest.raises(DimensionMismatchError):
        compare(z, computational_povm(3))


def test_geq_is_reflexive_and_transitive():
    rng = np.random.default_rng(62)
    for i in range(5):
        z = random_povm(2, 3, seed=[63, i])
        assert povm_geq(z, z).holds

        lam1 = _random_stochastic(3, 3, rng)
        lam2 = _random_stochastic(3, 2, rng)
        x = post_process(z, lam1)
        w = post_process(x, lam2)
        assert povm_geq(z, w).holds
        # The composed witness certifies the composite relation directly.
        composed = compose_stochastic(lam2, lam1)
        rebuilt = post_process(z, composed)
        for a, b in zip(rebuilt.effects, w.effects):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-8)


def _game_margin_and_bounds(games, z, x):
    """The game's margin, sum_x Tr(W_x X_x) - sum_z max_x Tr(W_x Z_z); its
    entrywise mass sum_x sum_ij |W_x,ij|, which times ``tol`` no margin
    exceeds while some post-processing of z comes within ``tol`` of x
    entrywise; and the older, looser scale d * sum_x |W_x|_1: recomputed
    with plain traces, sums and singular values."""
    won = sum(np.trace(w @ e).real for w, e in zip(games, x.matrices()))
    best_on_z = sum(max(np.trace(w @ e).real for w in games) for e in z.matrices())
    mass = sum(abs(w[i, j]) for w in games for i in range(z.dim) for j in range(z.dim))
    trace_norms = sum(np.linalg.svd(w, compute_uv=False).sum() for w in games)
    return won - best_on_z, mass, z.dim * trace_norms


def _check_certificate(result, z, x, tol=1e-8):
    """The game proves a miss above ``tol`` and the reported residual is no
    smaller than the bound the trace-norm scale would have proven."""
    margin, mass, trace_scale = _game_margin_and_bounds(result.certificate, z, x)
    assert margin > tol * mass
    assert mass <= trace_scale * (1 + 1e-12)
    assert result.residual >= margin / trace_scale * (1 - 1e-12)


def test_nnls_verdicts_match_the_lp_and_carry_their_proof(monkeypatch):
    lp_runs = []

    def counting_linprog(**kwargs):
        lp_runs.append(kwargs)
        return scipy.optimize.linprog(**kwargs)

    monkeypatch.setattr(mftk.order, "linprog", counting_linprog)
    rng = np.random.default_rng(70)
    pairs = []
    for d in range(1, 6):
        z, x = random_povm(d, 4, seed=[71, d]), random_povm(d, 3, seed=[72, d])
        copy = post_process(z, _random_stochastic(4, 2, rng))
        halves = z.matrices()[:1] / 2  # z with its first effect split in two equal ones
        duplicated = Povm.from_matrices(d, np.concatenate([halves, halves, z.matrices()[1:]]))
        pairs += [(z, x), (x, z), (z, copy), (copy, z), (trivial_povm(d), x), (x, trivial_povm(d)),
                  (duplicated, x), (duplicated, z), (z, duplicated)]
        if d > 1:
            pairs += [(build_sic(d).povm, z), (z, build_sic(d).povm)]
    settled_without_lp = 0
    for z, x in pairs:
        result = povm_geq(z, x)
        settled_without_lp += not lp_runs
        reference = mftk.order._lp_geq(z, x, 1e-8)
        lp_runs.clear()
        assert result.holds == reference.holds
        assert result.holds == (result.residual <= 1e-8)
        if result.holds:
            lam = result.witness.entries
            gap = np.max(np.abs(np.einsum("xz,zij->xij", lam, z.matrices()) - x.matrices()))
            assert lam.min() >= 0 and np.allclose(lam.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            assert gap <= 1e-8 and result.certificate is None
        else:
            assert not result.certificate.flags.writeable
            _check_certificate(result, z, x)
            # The game bounds every witness's gap from below, the LP's too.
            assert result.residual <= reference.residual + 1e-12
    assert settled_without_lp == len(pairs)


def _least_squares_problem(z, x):
    """Explicit A and b of ``povm_geq``'s least-squares problem, in real
    coordinates of this test's own (the real and imaginary parts of every
    entry): A[:, (x, z)] = (e_x (x) v(Z_z), e_z), b = (v(X_x), 1)."""
    def v(m):
        return np.concatenate([m.real.reshape(len(m), -1), m.imag.reshape(len(m), -1)], axis=1)

    zc, xc = v(z.matrices()), v(x.matrices())
    nz, nx = len(zc), len(xc)
    coords, sums = np.zeros((nx, zc.shape[1], nx, nz)), np.zeros((nz, nx, nz))
    for k in range(nx):
        coords[k, :, k, :] = zc.T
        sums[:, k, :] = np.eye(nz)
    a = np.concatenate([coords.reshape(-1, nx * nz), sums.reshape(nz, -1)])
    return a, np.concatenate([xc.reshape(-1), np.ones(nz)])


def test_nnls_solution_meets_the_optimality_conditions(monkeypatch):
    # Pairs whose Gram matrix is singular (duplicated effects, six qubit
    # effects) as well as full-rank ones; the solve is checked against the
    # Karush-Kuhn-Tucker conditions and scipy's NNLS on the explicit problem.
    seen, nnls_gram = [], mftk.order._nnls_gram

    def capturing(gram, h):
        seen.append((gram, h))
        return nnls_gram(gram, h)

    monkeypatch.setattr(mftk.order, "_nnls_gram", capturing)
    rng = np.random.default_rng(73)
    pairs = []
    for d in (2, 3, 4):
        z, x = random_povm(d, 4, seed=[74, d]), random_povm(d, 3, seed=[75, d])
        halves = z.matrices()[:1] / 2
        duplicated = Povm.from_matrices(d, np.concatenate([halves, halves, z.matrices()[1:]]))
        copy = post_process(duplicated, _random_stochastic(5, 3, rng))
        pairs += [(z, x), (x, z), (duplicated, x), (duplicated, copy), (z, build_sic(d).povm),
                  (build_sic(d).povm, z), (trivial_povm(d), x)]
    six = random_povm(2, 6, seed=76)
    pairs += [(six, post_process(six, _random_stochastic(6, 3, rng))), (six, build_sic(2).povm),
              (six, random_povm(2, 6, seed=77))]
    singular = 0
    for z, x in pairs:
        seen.clear()
        povm_geq(z, x)
        (gram, h), = seen
        a, b = _least_squares_problem(z, x)
        np.testing.assert_allclose(gram, a.T @ a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h, a.T @ b, rtol=0, atol=1e-12)
        # The block-built Gram is the Kronecker form bit for bit.
        zc = mftk.opalg.hermitian_basis(z.dim).coords(z.matrices())
        nx, nz = x.n_outcomes, z.n_outcomes
        kron = np.kron(np.eye(nx), zc @ zc.T) + np.kron(np.ones((nx, nx)), np.eye(nz))
        assert gram.tobytes() == kron.tobytes()
        singular += np.linalg.matrix_rank(a) < a.shape[1]
        lam = nnls_gram(a.T @ a, a.T @ b)
        gradient = a.T @ (b - a @ lam)
        floor = 10 * len(lam) * np.finfo(float).eps * max(1.0, np.max(np.abs(a.T @ b)))
        support = lam > 0
        assert np.all(support | (lam == 0.0))
        assert np.all(gradient[~support] <= floor)
        assert np.all(np.abs(gradient[support]) <= 1e-12)
        _, best = scipy.optimize.nnls(a, b)
        assert abs(np.linalg.norm(a @ lam - b) - best) <= 1e-12
    assert singular >= 9


def test_nnls_ends_within_its_cap_on_an_indefinite_matrix(monkeypatch):
    # No Gram matrix is indefinite, and on this one the pivoting cycles: the
    # solve must give up, at the latest after its 10 steps per variable,
    # without a warning.
    solves, solve = [], np.linalg.solve

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = mftk.order._nnls_gram(np.array([[1.0, -2.0], [-2.0, 1.0]]), np.array([1.0, 3.0]))
    assert lam is None
    assert 0 < len(solves) <= 20


def test_a_pair_on_which_the_pivoting_cycles_is_settled_without_the_lp(monkeypatch):
    # Six qubit effects are linearly dependent, so the Gram matrix is singular
    # and on this pair the pivoting cycles; the solve is repeated
    # on the Gram matrix plus round-off on its diagonal, which settles it.
    z, x = random_povm(2, 6, seed=117), random_povm(2, 2, seed=[117, 1])
    assert not mftk.order._lp_geq(z, x, 1e-8).holds
    solved, nnls_gram = [], mftk.order._nnls_gram

    def no_lp(**kwargs):
        raise AssertionError("the LP ran")

    def recording(gram, h):
        solved.append(nnls_gram(gram, h))
        return solved[-1]

    monkeypatch.setattr(mftk.order, "linprog", no_lp)
    monkeypatch.setattr(mftk.order, "_nnls_gram", recording)
    result = povm_geq(z, x)
    assert solved[0] is None and solved[1] is not None and not result.holds
    _check_certificate(result, z, x)


def test_a_cycle_under_the_backup_rule_ends_the_first_solve_at_once(monkeypatch):
    # On the pair above the passive set first repeats at step 8 (first seen
    # at step 6) under the one-variable backup rule. The first solve ends
    # there instead of running on to its 120-step cap, and the ridge retry
    # gives the verdict it gave when the cap ended the first solve: 130
    # solves then, bit for bit the same game. The residual is that game's
    # margin over its entrywise mass.
    solves, solve = [], np.linalg.solve

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    result = povm_geq(random_povm(2, 6, seed=117), random_povm(2, 2, seed=[117, 1]))
    assert len(solves) <= 20
    assert (result.holds, result.witness, result.residual) == (False, None, 0.13911721408594135)
    a, b = 0.05518311676150652 + 0.15539637466742187j, 0.05646561743341892 + 0.1566252085563086j
    game = [[[0.06692196398807063, a], [a.conjugate(), -0.051155858333091955]],
            [[-0.07401636923832813, -b], [-b.conjugate(), 0.04724696642175802]]]
    assert np.array_equal(result.certificate, np.array(game))


def test_the_game_proves_the_least_gap_between_the_qubit_bases():
    # Every post-processing of the standard basis is diagonal, so it misses
    # the diagonal basis's off-diagonal 1/2 by at least 1/2, and the uniform
    # post-processing misses by exactly that much.
    result = povm_geq(computational_povm(2), xbasis_povm())
    assert not result.holds and abs(result.residual - 0.5) <= 1e-15
    _check_certificate(result, computational_povm(2), xbasis_povm())


def test_the_game_proves_a_tilt_just_above_tol_without_the_lp(monkeypatch, tilted_basis):
    def no_lp(**kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(mftk.order, "linprog", no_lp)
    z, x = computational_povm(2), tilted_basis(2, eps=1.5e-8)
    result = povm_geq(z, x)
    assert not result.holds and result.certificate is not None
    assert abs(result.residual - 1.5e-8) <= 1e-20
    _check_certificate(result, z, x)


def test_a_negative_settled_by_the_game_builds_no_witness(monkeypatch):
    # The game is tried first: a pair it rules out builds no stochastic
    # matrix and measures no witness gap, while a holding pair does each once.
    gaps, built = [], []
    witness_gap, stochastic = mftk.order._witness_gap, mftk.order.StochasticMatrix

    def counting_gap(*args):
        gaps.append(args)
        return witness_gap(*args)

    def counting_stochastic(**kwargs):
        built.append(kwargs)
        return stochastic(**kwargs)

    monkeypatch.setattr(mftk.order, "_witness_gap", counting_gap)
    monkeypatch.setattr(mftk.order, "StochasticMatrix", counting_stochastic)
    result = povm_geq(computational_povm(2), xbasis_povm())
    assert (result.verdict, gaps, built) == ("ruled_out", [], [])
    assert abs(result.residual - 0.5) <= 1e-15
    z = random_povm(3, 4, seed=83)
    copy = post_process(z, _random_stochastic(4, 2, np.random.default_rng(84)))
    result = povm_geq(z, copy)
    assert result.verdict == "holds" and len(gaps) == len(built) == 1


def test_each_verdict_says_what_was_shown(near_boundary_pairs):
    z = random_povm(2, 3, seed=85)
    copy = post_process(z, _random_stochastic(3, 2, np.random.default_rng(86)))
    holding = povm_geq(z, copy)
    assert holding.verdict == "holds" and holding.witness is not None
    ruled_out = povm_geq(computational_povm(2), xbasis_povm())
    assert ruled_out.verdict == "ruled_out" and ruled_out.certificate is not None
    # Trial 11 of the boundary corpus (d = 2, eps = 2.746e-8) goes to the
    # LP, whose "does not hold" carries no proof.
    z, x = near_boundary_pairs(12)[11]
    assert mftk.order._nnls_geq(z, x, 1e-8) is None
    undecided = povm_geq(z, x)
    assert not undecided.holds and undecided.certificate is None
    assert undecided.verdict == "undecided"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(monkeypatch, tol):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the tolerance check")

    monkeypatch.setattr(mftk.order, "linprog", no_solve)
    monkeypatch.setattr(mftk.order, "_nnls_gram", no_solve)
    z, x = computational_povm(2), xbasis_povm()
    family = [pure_state(v) for v in build_sic(2).fiducial_states]
    for call in (lambda: povm_geq(z, x, tol), lambda: compare(z, x, tol),
                 lambda: blackwell_consistency(z, x, family, tol=tol)):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            call()


def test_trivial_class_predicate():
    assert is_trivial_class(trivial_povm(2))
    assert is_trivial_class(Povm.from_matrices(2, [np.eye(2) / 2, np.eye(2) / 2]))
    assert not is_trivial_class(computational_povm(2))


def test_trivial_class_members_are_equivalent_to_identity():
    coin = Povm.from_matrices(2, [np.eye(2) / 2, np.eye(2) / 2])
    assert compare(coin, trivial_povm(2)).relation == "equivalent"


def test_rank_one_predicate():
    assert is_rank_one_povm(computational_povm(2))
    assert is_rank_one_povm(build_sic(2).povm)
    assert not is_rank_one_povm(Povm.from_matrices(2, [np.eye(2) / 2, np.eye(2) / 2]))
    assert not is_rank_one_povm(trivial_povm(3))


def test_set_level_order():
    z = computational_povm(2)
    x = xbasis_povm()
    # A noisy relabel of x has off-diagonal effects, so only x (not z)
    # can produce it; the merged measurement is trivial, so the first
    # listed source wins.
    noisy_x = post_process(x, StochasticMatrix(2, 2, np.array([[0.8, 0.1], [0.2, 0.9]])))
    merged = post_process(z, StochasticMatrix.merge_all(2))
    result = povm_set_geq([z, x], [noisy_x, merged])
    assert result.holds
    assert result.assignments == (1, 0)
    assert not povm_set_geq([z], [x]).holds
    assert povm_set_geq([], []).holds  # vacuous


# --------------------------------------------------------------- decisions

def test_decision_model_validation():
    prior = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    channel = StochasticMatrix(2, 2, np.eye(2))
    DecisionModel(prior=prior, channel=channel, utility=np.eye(2))
    with pytest.raises(ValueError):
        DecisionModel(prior=prior, channel=channel, utility=np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        DecisionModel(prior=prior, channel=StochasticMatrix(3, 2, np.ones((2, 3)) / 2),
                      utility=np.eye(2))
    with pytest.raises(ValueError):
        DecisionModel(prior=prior, channel=channel, utility=np.array([[np.nan, 0], [0, 1]]))


def test_u_max_perfect_information():
    prior = OutcomeDistribution(("0", "1", "2"), np.full(3, 1 / 3))
    channel = StochasticMatrix(3, 3, np.eye(3))
    result = u_max(DecisionModel(prior=prior, channel=channel, utility=np.eye(3)))
    assert result.value == pytest.approx(1.0)
    np.testing.assert_allclose(result.strategy.entries, np.eye(3))


def test_u_max_worthless_measurement():
    prior = OutcomeDistribution(("0", "1"), np.array([0.3, 0.7]))
    channel = StochasticMatrix(2, 2, np.full((2, 2), 0.5))  # independent of w
    utility = np.array([[2.0, 0.0], [0.0, 1.0]])
    result = u_max(DecisionModel(prior=prior, channel=channel, utility=utility))
    assert result.value == pytest.approx(max(2.0 * 0.3, 1.0 * 0.7))


def test_u_max_frozen_example():
    prior = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    channel = StochasticMatrix(2, 2, np.array([[0.9, 0.2], [0.1, 0.8]]))
    result = u_max(DecisionModel(prior=prior, channel=channel, utility=np.eye(2)))
    assert result.value == pytest.approx(0.85, abs=1e-12)


def test_u_max_ties_break_to_lowest_guess():
    prior = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    channel = StochasticMatrix(2, 2, np.full((2, 2), 0.5))
    result = u_max(DecisionModel(prior=prior, channel=channel, utility=np.ones((2, 2))))
    np.testing.assert_allclose(result.strategy.entries[:, 0], [1, 0])


def test_u_max_beats_exhaustive_strategies():
    rng = np.random.default_rng(64)
    for _ in range(10):
        n_w = int(rng.integers(2, 5))
        n_x = int(rng.integers(2, 5))
        raw_prior = rng.uniform(size=n_w)
        prior = OutcomeDistribution(
            tuple(str(w) for w in range(n_w)), raw_prior / raw_prior.sum()
        )
        channel = _random_stochastic(n_w, n_x, rng)
        utility = rng.uniform(size=(n_w, n_w))
        model = DecisionModel(prior=prior, channel=channel, utility=utility)
        best = -np.inf
        for picks in itertools.product(range(n_w), repeat=n_x):
            total = 0.0
            for ix, guess in enumerate(picks):
                for w in range(n_w):
                    total += utility[guess, w] * channel.entries[ix, w] * prior.probs[w]
            best = max(best, total)
        assert u_max(model).value == pytest.approx(best, abs=1e-12)


def test_expected_utility_of_strategy():
    prior = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    channel = StochasticMatrix(2, 2, np.array([[0.9, 0.2], [0.1, 0.8]]))
    model = DecisionModel(prior=prior, channel=channel, utility=np.eye(2))
    opt = u_max(model)
    with_strategy = DecisionModel(
        prior=prior, channel=channel, utility=np.eye(2), strategy=opt.strategy
    )
    assert expected_utility(with_strategy) == pytest.approx(opt.value)
    worse = DecisionModel(
        prior=prior, channel=channel, utility=np.eye(2),
        strategy=StochasticMatrix.deterministic([1, 1], 2, 2),
    )
    assert expected_utility(worse) <= opt.value
    with pytest.raises(ValueError):
        expected_utility(model)


def test_decision_model_for_uses_born_statistics():
    states = [random_state(2, seed=[65, i]) for i in range(3)]
    z = computational_povm(2)
    model = decision_model_for(z, states, np.eye(3))
    for w, rho in enumerate(states):
        np.testing.assert_allclose(
            model.channel.entries[:, w], born_probabilities(rho, z).probs, atol=1e-12
        )


def test_decision_model_for_rejects_an_empty_state_family():
    with pytest.raises(ValueError, match="state family is empty"):
        decision_model_for(computational_povm(2), [], np.zeros((2, 0)))


# -------------------------------------------------------------- blackwell

def test_blackwell_witnessed_pair_is_monotone():
    rng = np.random.default_rng(66)
    z = random_povm(2, 3, seed=67)
    x = post_process(z, _random_stochastic(3, 2, rng))
    family = [pure_state(v) for v in build_sic(2).fiducial_states]
    report = blackwell_consistency(z, x, family, n_utilities=25, seed=2)
    assert report.consistent and report.geq_holds
    assert report.reversals == 0


def test_blackwell_reversal_requires_lp_infeasibility():
    family = [pure_state(v) for v in build_sic(2).fiducial_states]
    report = blackwell_consistency(
        computational_povm(2), xbasis_povm(), family, n_utilities=40, seed=3
    )
    assert report.consistent
    assert not report.geq_holds
    assert report.reversals > 0


def test_blackwell_vacuous():
    family = [pure_state(v) for v in build_sic(2).fiducial_states]
    report = blackwell_consistency(
        computational_povm(2), xbasis_povm(), family, n_utilities=0, seed=0
    )
    assert report.vacuous and report.consistent


def test_blackwell_rejects_an_empty_state_family():
    with pytest.raises(ValueError, match="state family is empty"):
        blackwell_consistency(computational_povm(2), xbasis_povm(), [], n_utilities=3)


def test_blackwell_rejects_a_negative_utility_count(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran before the argument check")

    monkeypatch.setattr(mftk.order, "linprog", no_lp)
    with pytest.raises(ValueError, match=r"^n_utilities must be >= 0, got -1$"):
        blackwell_consistency(computational_povm(2), xbasis_povm(),
                              [pure_state(v) for v in build_sic(2).fiducial_states],
                              n_utilities=-1)


def _failing_linprog(*args, **kwargs):
    return scipy.optimize.OptimizeResult(
        success=False, status=4, message="Numerical difficulties encountered.", x=None)


def test_solver_failure_is_raised_not_read_as_a_verdict(monkeypatch, tilted_basis):
    monkeypatch.setattr(mftk.order, "linprog", _failing_linprog)
    with pytest.raises(SolverError) as caught:
        compare(computational_povm(2), tilted_basis(2))
    assert caught.value.status == 4
    assert "Numerical difficulties" in str(caught.value)
