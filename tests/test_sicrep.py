import numpy as np
import pytest

from mftk import (
    OutcomeDistribution,
    Povm,
    ProbabilityTable,
    SicPovm,
    SicProbVector,
    StochasticMatrix,
    basis_state,
    born_probabilities,
    build_sic,
    classical_rule,
    computational_povm,
    discover_system,
    maximally_mixed,
    povm_to_conditional,
    pure_state,
    random_povm,
    random_state,
    sic_probs_to_state,
    state_to_sic_probs,
    trivial_povm,
    urgleichung,
    validate_povm,
)
from mftk import opalg, sicrep
from mftk.sicrep import (
    _born,
    _dimension_certificate,
    _polish_jacobian,
    _polish_residuals,
    _random_model,
    _repair_model,
    _restart_batch,
    _search,
)
from mftk.errors import (
    DimensionMismatchError,
    InconsistentPairError,
    NonQuantumProbabilityError,
    UnsupportedDimensionError,
)


# ------------------------------------------------------------ construction

def test_build_sic_d2_overlaps():
    sic = build_sic(2)
    assert sic.povm.n_outcomes == 4
    for i, a in enumerate(sic.fiducial_states):
        for j, b in enumerate(sic.fiducial_states):
            overlap = abs(np.vdot(a, b)) ** 2
            expected = 1.0 if i == j else 1.0 / 3.0
            assert overlap == pytest.approx(expected, abs=1e-12)
    assert validate_povm(sic.povm).ok


def test_build_sic_higher_dims_overlaps():
    for d in (3, 4, 5):
        sic = build_sic(d)
        assert sic.povm.n_outcomes == d * d
        for i, a in enumerate(sic.fiducial_states):
            for j, b in enumerate(sic.fiducial_states):
                expected = 1.0 if i == j else 1.0 / (d + 1)
                assert abs(np.vdot(a, b)) ** 2 == pytest.approx(expected, abs=1e-9)
        assert validate_povm(sic.povm).ok


def test_build_sic_dimension_one():
    # The one unit vector is its own shift/clock orbit, and the measurement
    # is the single trivial effect.
    sic = build_sic(1)
    assert sic.povm.matrices().tolist() == [[[1.0]]]
    assert validate_povm(sic.povm).ok
    p = state_to_sic_probs(basis_state(1, 0), sic)
    assert p.probs.tolist() == [1.0]


def test_build_sic_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError, match="no built-in fiducial"):
        build_sic(7)


def test_sic_povm_rejections_in_order():
    sic = build_sic(2)
    vecs, mats = sic.fiducial_states, list(sic.povm.matrices())
    with pytest.raises(ValueError, match=r"^need 4 fiducial states, got 3$"):
        SicPovm(dim=2, fiducial_states=vecs[:3], povm=sic.povm)
    repeated = (vecs[0], vecs[0], vecs[2], vecs[3])
    with pytest.raises(ValueError,
                       match=r"^fiducial overlaps deviate from equiangularity by 6\.667e-01$"):
        SicPovm(dim=2, fiducial_states=repeated, povm=sic.povm)
    swapped = Povm.from_matrices(2, [mats[0], mats[2], mats[1], mats[3]], labels="abcd")
    with pytest.raises(ValueError, match=r"^effect 'b' is not its fiducial projector / d$"):
        SicPovm(dim=2, fiducial_states=vecs, povm=swapped)
    # Each effect within 1e-9 of its projector / 2, the four together 3.6e-9 off.
    shifted = Povm.from_matrices(2, [m + 0.9e-9 * np.eye(2) for m in mats])
    with pytest.raises(ValueError, match=r"^reference effects do not sum to the identity$"):
        SicPovm(dim=2, fiducial_states=vecs, povm=shifted)
    accepted = SicPovm(dim=2, fiducial_states=vecs, povm=sic.povm)
    assert np.array_equal(accepted.projectors(), sic.projectors())


# ------------------------------------------------------- reference probs

def test_maximally_mixed_gives_uniform_probs():
    for d in (2, 3):
        p = state_to_sic_probs(maximally_mixed(d), build_sic(d))
        np.testing.assert_allclose(p.probs, np.full(d * d, 1.0 / d**2), atol=1e-12)


def test_zero_state_reference_probs():
    p = state_to_sic_probs(basis_state(2, 0), build_sic(2))
    hi = (1 + 1 / np.sqrt(3)) / 4
    lo = (1 - 1 / np.sqrt(3)) / 4
    np.testing.assert_allclose(p.probs, [hi, lo, lo, hi], atol=1e-12)


def test_pure_state_purity_identity():
    # sum_i p(i)^2 = 2 / (d (d+1)) for every pure state
    rng = np.random.default_rng(31)
    for d in (2, 3):
        sic = build_sic(d)
        for _ in range(20):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            p = state_to_sic_probs(pure_state(v), sic)
            assert float(p.probs @ p.probs) == pytest.approx(2 / (d * (d + 1)), abs=1e-9)


def test_sic_prob_vector_rejections():
    with pytest.raises(NonQuantumProbabilityError, match="non-quantum"):
        SicProbVector(dim=2, probs=np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        SicProbVector(dim=2, probs=np.array([0.5, 0.5, 0.1, -0.1]))
    with pytest.raises(DimensionMismatchError):
        SicProbVector(dim=2, probs=np.array([0.5, 0.5]))


def test_sic_prob_vector_errors_print_plain_numbers():
    with pytest.raises(ValueError, match=r"^reference probabilities sum to 1\.3, not 1$"):
        SicProbVector(dim=2, probs=np.array([0.5, 0.5, 0.2, 0.1]))
    with pytest.raises(NonQuantumProbabilityError, match=r"entry 0\.6 exceeds 1/d$"):
        SicProbVector(dim=2, probs=np.array([0.6, 0.4, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sic_prob_vector_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^reference probabilities must be finite$"):
        SicProbVector(dim=2, probs=np.array([bad, 0.5, 0.25, 0.25]))


def test_probs_state_round_trip():
    sic = build_sic(2)
    for i in range(10):
        rho = random_state(2, seed=[32, i])
        p = state_to_sic_probs(rho, sic)
        back = sic_probs_to_state(p, sic)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)
        again = state_to_sic_probs(back, sic)
        np.testing.assert_allclose(again.probs, p.probs, atol=1e-9)


def test_uniform_probs_give_maximally_mixed():
    sic = build_sic(3)
    p = SicProbVector(dim=3, probs=np.full(9, 1.0 / 9.0))
    np.testing.assert_allclose(sic_probs_to_state(p, sic).matrix, np.eye(3) / 3, atol=1e-12)


def test_non_quantum_reconstruction_rejected():
    sic = build_sic(2)
    # Extremal on two outcomes: valid probability vector, but the affine
    # inverse lands outside the state space.
    p = SicProbVector(dim=2, probs=np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(NonQuantumProbabilityError, match="non-quantum probability vector"):
        sic_probs_to_state(p, sic)


# ------------------------------------------------------------ conditionals

def test_conditional_of_trivial_target():
    sic = build_sic(2)
    r = povm_to_conditional(sic, trivial_povm(2))
    np.testing.assert_allclose(r.entries, np.ones((1, 4)), atol=1e-12)


def test_conditional_of_z_basis():
    r = povm_to_conditional(build_sic(2), computational_povm(2))
    hi = (1 + 1 / np.sqrt(3)) / 2
    lo = (1 - 1 / np.sqrt(3)) / 2
    np.testing.assert_allclose(r.entries[0], [hi, lo, lo, hi], atol=1e-12)
    np.testing.assert_allclose(r.entries[1], [lo, hi, hi, lo], atol=1e-12)


def test_conditional_of_sic_itself():
    for d in (2, 3):
        sic = build_sic(d)
        r = povm_to_conditional(sic, sic.povm)
        expected = (np.eye(d * d) + (1 - np.eye(d * d)) / (d + 1)) / d
        np.testing.assert_allclose(r.entries, expected, atol=1e-9)


def test_conditional_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        povm_to_conditional(build_sic(2), computational_povm(3))


# ------------------------------------------------------------ update rules

def test_urgleichung_uniform_coefficient_collapses():
    sic = build_sic(2)
    r = povm_to_conditional(sic, random_povm(2, 3, seed=33))
    p = SicProbVector(dim=2, probs=np.full(4, 0.25))
    q = urgleichung(p, r)
    np.testing.assert_allclose(q.probs, r.entries.mean(axis=1), atol=1e-12)


def test_urgleichung_frozen_qubit_values():
    sic = build_sic(2)
    p = state_to_sic_probs(basis_state(2, 0), sic)
    r = povm_to_conditional(sic, computational_povm(2))
    q = urgleichung(p, r)
    np.testing.assert_allclose(q.probs, [1.0, 0.0], atol=1e-9)


def test_urgleichung_equals_born_on_random_pairs():
    for i in range(20):
        for d in (2, 3):
            sic = build_sic(d)
            rho = random_state(d, seed=[34, d, i])
            target = random_povm(d, 2 + i % 4, seed=[35, d, i])
            via_reference = urgleichung(
                state_to_sic_probs(rho, sic), povm_to_conditional(sic, target)
            )
            direct = born_probabilities(rho, target)
            np.testing.assert_allclose(via_reference.probs, direct.probs, atol=1e-9)


def test_urgleichung_rejects_inconsistent_pair():
    # Zero weight on the first reference outcome makes its affine
    # coefficient -1/d; a conditional concentrated there goes negative.
    p = SicProbVector(dim=2, probs=np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))
    r = StochasticMatrix(4, 2, np.array([[1.0, 0, 0, 0], [0.0, 1, 1, 1]]))
    with pytest.raises(InconsistentPairError, match="inconsistent"):
        urgleichung(p, r)


def test_classical_rule_values():
    sic = build_sic(2)
    p = state_to_sic_probs(basis_state(2, 0), sic)
    r = povm_to_conditional(sic, computational_povm(2))
    q = classical_rule(p, r)
    np.testing.assert_allclose(q.probs, [2 / 3, 1 / 3], atol=1e-9)


def test_classical_rule_permutation():
    # A deterministic permutation conditional just permutes p.
    perm = [3, 0, 1, 2]
    r = StochasticMatrix.deterministic(perm, 4, 4)
    p = SicProbVector(dim=2, probs=np.array([0.4, 0.3, 0.2, 0.1]))
    q = classical_rule(p, r)
    expected = np.zeros(4)
    for i, j in enumerate(perm):
        expected[j] = p.probs[i]
    np.testing.assert_allclose(q.probs, expected, atol=1e-12)


# -------------------------------------------------------------- discovery

def _projective(u):
    d = u.shape[0]
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]


def _haar(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_probability_table_checks_shapes():
    q = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ProbabilityTable(n_preparations=2, measurement_labels=("A",), distributions=((q,),))
    with pytest.raises(ValueError):
        ProbabilityTable(
            n_preparations=1,
            measurement_labels=("A",),
            distributions=((q, q),),
        )


def test_table_from_model():
    states = [basis_state(2, 0), maximally_mixed(2)]
    table = ProbabilityTable.from_model(states, [computational_povm(2)], labels=["Z"])
    assert table.n_preparations == 2
    assert table.measurement_labels == ("Z",)
    np.testing.assert_allclose(table.distributions[0][0].probs, [1, 0], atol=1e-12)
    np.testing.assert_allclose(table.distributions[0][1].probs, [0.5, 0.5], atol=1e-12)


def test_discover_recovers_hidden_qubit_model():
    rng = np.random.default_rng(36)
    states = [random_state(2, seed=[37, m]) for m in range(3)]
    povms = [Povm.from_matrices(2, _projective(_haar(2, rng))) for _ in range(2)]
    table = ProbabilityTable.from_model(states, povms)
    result = discover_system(table, 2, seed=0)
    assert result.feasible
    assert result.residual < 1e-6
    # Soundness re-check, independent of the verdict's own bookkeeping.
    for fitted_povm, row in zip(result.povms, table.distributions):
        assert validate_povm(fitted_povm).ok
        for rho, q in zip(result.states, row):
            np.testing.assert_allclose(
                born_probabilities(rho, fitted_povm).probs, q.probs, atol=1e-6
            )


def test_discover_dimension_one_is_infeasible():
    # One state only in d=1, so distinct rows cannot all be matched.
    states = [basis_state(2, 0), basis_state(2, 1)]
    table = ProbabilityTable.from_model(states, [computational_povm(2)])
    result = discover_system(table, 1, seed=0, restarts=3)
    assert not result.feasible
    assert result.residual > 0.1


def test_discover_requires_positive_dimension():
    states = [basis_state(2, 0)]
    table = ProbabilityTable.from_model(states, [computational_povm(2)])
    with pytest.raises(ValueError):
        discover_system(table, 0)


@pytest.mark.parametrize("keyword", ["max_iters", "restarts"])
@pytest.mark.parametrize("value", [0, -1])
def test_discover_refuses_fewer_than_one_iteration_or_restart(keyword, value):
    # Without the check, max_iters=0 ran every restart without an iteration
    # and answered infeasible on a table restart 1 fits, and restarts=0 ran
    # one restart anyway.
    table = ProbabilityTable.from_model([basis_state(2, 0)], [computational_povm(2)])
    with pytest.raises(ValueError, match="^max_iters and restarts must be >= 1, got "):
        discover_system(table, 2, **{keyword: value})


@pytest.mark.parametrize("n_prep, labels, rows, empty", [
    (2, (), (), "no measurements"),
    (0, ("Z",), ((),), "no preparations"),
])
def test_discover_names_an_empty_table(n_prep, labels, rows, empty):
    table = ProbabilityTable(n_preparations=n_prep, measurement_labels=labels, distributions=rows)
    with pytest.raises(ValueError, match=empty):
        discover_system(table, 2)


def _central_differences(x, args, h=1e-6):
    # Column i is (r(x + h e_i) - r(x - h e_i)) / 2h, every point in one batch.
    steps = h * np.eye(x.size)
    f = _polish_residuals(np.vstack([x + steps, x - steps]), *args)
    return ((f[:x.size] - f[x.size:]) / (2 * h)).T


def _scalar_sum_point(rng, d, n_prep, counts):
    # Random state factors; every effect factor is a permutation matrix over
    # sqrt(n), so all G_j G_j^dag are the same multiple of I, and so is S.
    factors = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
               for _ in range(n_prep)]
    for n in counts:
        factors += [np.eye(d)[rng.permutation(d)] / np.sqrt(n) for _ in range(n)]
    factors = np.array(factors)
    return np.stack([factors.real, factors.imag], axis=1).ravel()


@pytest.mark.parametrize("d, n_prep, counts", [(2, 3, (2, 2)), (3, 4, (3, 3)), (4, 3, (4, 2, 3))],
                         ids=["d2", "d3", "d4"])
def test_polish_jacobian_matches_central_differences(d, n_prep, counts):
    rng = np.random.default_rng([41, d])
    n_params = (n_prep + sum(counts)) * 2 * d * d
    q_arrays = [rng.dirichlet(np.ones(n), size=n_prep) for n in counts]
    args = (d, n_prep, counts, q_arrays)
    degenerate = _scalar_sum_point(rng, d, n_prep, counts)
    half = degenerate.reshape(-1, 2, d, d)
    for at, n in zip(np.cumsum((n_prep,) + counts[:-1]), counts):
        g = half[at:at + n, 0] + 1j * half[at:at + n, 1]
        s = np.sum(g @ opalg.dagger(g), axis=0)
        assert np.array_equal(s, s[0, 0] * np.eye(d))  # every eigenvalue of S equal
    for x in [rng.standard_normal(n_params) for _ in range(3)] + [degenerate]:
        jac = _polish_jacobian(x, *args)
        reference = _central_differences(x, args)
        assert jac.shape == reference.shape == (n_prep * sum(counts), n_params)
        assert np.linalg.norm(jac - reference) <= 1e-6 * np.linalg.norm(reference)


def test_polish_residuals_batch_matches_single_points():
    rng = np.random.default_rng(42)
    d, n_prep, counts = 3, 4, (3, 2)
    q_arrays = [rng.dirichlet(np.ones(n), size=n_prep) for n in counts]
    xs = rng.standard_normal((5, (n_prep + sum(counts)) * 2 * d * d))
    batch = _polish_residuals(xs, d, n_prep, counts, q_arrays)
    for x, row in zip(xs, batch):
        np.testing.assert_allclose(_polish_residuals(x, d, n_prep, counts, q_arrays), row,
                                   rtol=0, atol=1e-13)


def _hidden_model_table(d, n_prep, trial):
    # The hidden qubit and qutrit tables of acceptance criterion 8.
    rng = np.random.default_rng([81, d, trial])
    states = [random_state(d, seed=[82, d, trial, m]) for m in range(n_prep)]
    povms = [Povm.from_matrices(d, _projective(_haar(d, rng))) for _ in range(2)]
    return ProbabilityTable.from_model(states, povms)


def test_discover_verdicts_are_pinned():
    # (feasible, restarts_used) as recorded before discovery ran on stacked
    # arrays: every hidden table is found on its first start.
    for d, n_prep, trials in ((2, 3, 20), (3, 4, 10)):
        for trial in range(trials):
            result = discover_system(_hidden_model_table(d, n_prep, trial), d, seed=trial)
            assert (result.feasible, result.restarts_used) == (True, 1), (d, trial)
            assert result.verdict == "found" and result.certificate is None
            assert result.residual < 1e-6

    # The contradictory table is ruled out before any restart; the search
    # itself, run regardless, still gives up after every restart.
    for s in range(3):
        result = discover_system(_contradictory_table(), 2, restarts=5, seed=s)
        assert (result.feasible, result.verdict, result.restarts_used) == (False, "ruled_out", 0)
        assert result.residual == np.inf and result.certificate["bound"] == "fidelity"
        searched = _search(_contradictory_table().as_arrays(), 2, 500, 1e-6, 5, s)
        assert (searched.feasible, searched.verdict, searched.restarts_used) == (
            False, "not_found", 5)
        # The best repaired model misses by (2 - sqrt 2) / 4 on every run.
        assert searched.residual == pytest.approx((2 - np.sqrt(2)) / 4, abs=1e-9)


def _contradictory_table():
    # Acceptance #8's table: A or B tells every pair of the four preparations
    # apart with certainty, so their states are pairwise orthogonal and no
    # model below dimension 4 holds them.
    rows_a = [[1, 0], [0, 1], [1, 0], [0, 1]]
    rows_b = [[1, 0], [0, 1], [0, 1], [1, 0]]
    return ProbabilityTable(
        n_preparations=4,
        measurement_labels=("A", "B"),
        distributions=tuple(
            tuple(OutcomeDistribution(("0", "1"), np.array(p, float)) for p in rows)
            for rows in (rows_a, rows_b)
        ),
    )


# (d, n_prep, trial, max_iters, restarts) -> (restarts_used, residual).
# restarts_used was recorded when restarts ran one after another; the
# residuals are those of the Levenberg-Marquardt polish, which stops at the
# first iterate within tol. Run alone, restart by restart, the first table
# fits at restarts 2, 4 and 5 of 5 and the second at restarts 4 and 5 of 6,
# so each has a failure before its first success and a later success that
# must not win.
_BATCH_ORDER_PINS = {
    (3, 4, 7, 8, 5): (2, 1.7757473130819434e-09),
    (2, 3, 2, 3, 6): (4, 9.109583920530184e-09),
}


@pytest.mark.parametrize("case", sorted(_BATCH_ORDER_PINS))
def test_batched_restarts_answer_with_the_lowest_success(case):
    d, n_prep, trial, max_iters, restarts = case
    used, residual = _BATCH_ORDER_PINS[case]
    table = _hidden_model_table(d, n_prep, trial)
    result = discover_system(table, d, max_iters=max_iters, restarts=restarts, seed=trial)
    assert (result.feasible, result.restarts_used, result.residual) == (True, used, residual)
    assert result.residual <= 1e-6
    # Every restart before the winner fails ...
    before = discover_system(table, d, max_iters=max_iters, restarts=used - 1, seed=trial)
    assert (before.feasible, before.restarts_used) == (False, used - 1)
    # ... and a later one would also fit.
    later = _restart_batch(table.as_arrays(), opalg.hermitian_basis(d), range(used, restarts),
                           max_iters, 1e-6, trial)
    assert any(found is not None and found[0] <= 1e-6 for _, found in later)


def _mixed_count_table():
    # Three orthogonal qutrit states, which no qubit model holds, seen
    # through measurements of 2, 3 and 2 outcomes: a qubit search steps two
    # stacks of measurements.
    states = [basis_state(3, m) for m in range(3)] + [random_state(3, seed=43)]
    povms = [random_povm(3, 2, seed=44), computational_povm(3), random_povm(3, 2, seed=45)]
    return ProbabilityTable.from_model(states, povms)


@pytest.mark.parametrize("make_table", [_contradictory_table, _mixed_count_table])
def test_each_restart_in_a_batch_runs_as_it_would_alone(make_table):
    table, basis = make_table(), opalg.hermitian_basis(2)
    together = list(_restart_batch(table.as_arrays(), basis, range(1, 5), 60, 1e-6, 3))
    alone = [next(_restart_batch(table.as_arrays(), basis, range(r, r + 1), 60, 1e-6, 3))
             for r in range(1, 5)]
    assert [r for r, _ in together] == [r for r, _ in alone] == [1, 2, 3, 4]
    for (_, a), (_, b) in zip(together, alone):
        assert a[0] > 1e-6 and a[0] == pytest.approx(b[0], rel=0, abs=1e-12)
        for rho_a, rho_b in zip(a[1], b[1]):
            np.testing.assert_allclose(rho_a.matrix, rho_b.matrix, rtol=0, atol=1e-12)


def test_hidden_tables_fit_within_twelve_iterations(monkeypatch):
    # A restart polishes its first iterate within 1e-2 of the table, so the
    # tables of test_discover_verdicts_are_pinned leave the loop within 12
    # iterations. An iteration projects the states twice, a repair once.
    calls = {"project": 0, "repair": 0}
    project, repair = sicrep._project_states, sicrep._repair_model

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sicrep, "_project_states", counted(project, "project"))
    monkeypatch.setattr(sicrep, "_repair_model", counted(repair, "repair"))
    for d, n_prep, trials in ((2, 3, 20), (3, 4, 10)):
        for trial in range(trials):
            calls.update(project=0, repair=0)
            result = discover_system(_hidden_model_table(d, n_prep, trial), d, seed=trial)
            assert (result.verdict, result.restarts_used) == ("found", 1)
            assert calls["project"] - calls["repair"] <= 2 * 12, (d, trial)


def _pure_qutrit_table(s):
    # Four pure qutrit states seen through two projective qutrit
    # measurements, drawn as bench/inputs.py draws its tables.
    rng = np.random.default_rng([1800, s])
    g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    psi = g[:, :, 0] / np.linalg.norm(g[:, :, 0], axis=1, keepdims=True)
    rhos = np.einsum("mi,mj->mij", psi, psi.conj())
    rows = []
    for _ in range(2):
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        q = np.einsum("mij,xji->mx", rhos, np.einsum("ik,jk->kij", u, u.conj())).real
        q = np.clip(q, 0, None)
        q /= q.sum(axis=1, keepdims=True)
        rows.append(tuple(OutcomeDistribution(("0", "1", "2"), p) for p in q))
    return ProbabilityTable(n_preparations=4, measurement_labels=("A", "B"),
                            distributions=tuple(rows))


def test_a_failed_early_polish_changes_nothing(monkeypatch):
    # Restart 1 of this qubit search misses with its budgeted early polish
    # and fits at its hand-over, with the residual it had before the early
    # attempt existed, bit for bit.
    budgets, evaluations = [], []
    polish = sicrep._polish_model

    def recording(*args):
        budgets.append(args[5:])
        evaluations.append(0)
        return polish(*args)

    def residuals(x, *args):
        evaluations[-1] += 1
        return _polish_residuals(x, *args)

    monkeypatch.setattr(sicrep, "_polish_model", recording)
    monkeypatch.setattr(sicrep, "_polish_residuals", residuals)
    result = discover_system(_pure_qutrit_table(51), 2)
    assert (result.verdict, result.restarts_used, result.residual) == (
        "found", 1, 3.928981101575246e-08)
    assert budgets == [(sicrep._EARLY_NFEV,), ()]
    assert sicrep._EARLY_NFEV == 30 and 0 < evaluations[0] <= 30


def _random_hidden_table(key):
    # d 2..4, 2..5 preparations, 2..3 measurements, each projective or a
    # random POVM of 2..d+1 outcomes; states all pure or all mixed.
    rng = np.random.default_rng(key)
    d, n_prep, n_meas = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
    g = rng.standard_normal((n_prep, d, d)) + 1j * rng.standard_normal((n_prep, d, d))
    if rng.random() < 0.5:
        g = g[:, :, :1]
    rhos = g @ g.conj().swapaxes(1, 2)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    rows = []
    for _ in range(n_meas):
        if rng.random() < 0.5:
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            effects = np.einsum("ik,jk->kij", u, u.conj())
        else:
            n = int(rng.integers(2, d + 2))
            h = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            blocks = h @ h.conj().swapaxes(1, 2)
            w, v = np.linalg.eigh(blocks.sum(axis=0))
            t = (v / np.sqrt(w)) @ v.conj().T
            effects = t @ blocks @ t
            effects = (effects + effects.conj().swapaxes(1, 2)) / 2
        q = np.clip(np.einsum("mij,xji->mx", rhos, effects).real, 0, None)
        q /= q.sum(axis=1, keepdims=True)
        labels = tuple(str(j) for j in range(q.shape[1]))
        rows.append(tuple(OutcomeDistribution(labels, p) for p in q))
    return d, ProbabilityTable(n_preparations=n_prep,
                               measurement_labels=tuple(f"M{k}" for k in range(n_meas)),
                               distributions=tuple(rows))


# key -> (max_iters, verdict, restarts_used, residual), as recorded when each
# restart was still decided in three places: a raw repair every 5th iteration,
# the early polish and a polish after the loop. [22, 1, 1] and [22, 1, 82] are
# found by a batch slot's full polish where its descent stops, [22, 1, 116] by
# a batch slot's early polish, and [22, 1, 93] by no restart.
_DECISION_PINS = {
    (22, 1, 1): (8, "found", 19, 1.0240914904285914e-08),
    (22, 1, 82): (8, "found", 3, 1.4867113179439784e-07),
    (22, 1, 93): (8, "not_found", 20, 0.011951116991352873),
    (22, 1, 116): (8, "found", 2, 3.345308114965917e-07),
    (22, 0, 267): (500, "found", 2, 4.805183535239177e-07),
}


@pytest.mark.parametrize("key", sorted(_DECISION_PINS))
def test_restart_decisions_are_pinned(key):
    max_iters, *pinned = _DECISION_PINS[key]
    d, table = _random_hidden_table(list(key))
    result = discover_system(table, d, max_iters=max_iters)
    assert [result.verdict, result.restarts_used, result.residual] == pinned


def _polish_start(monkeypatch):
    # The arguments of the one polish a hidden qutrit table reaches at the
    # discovery defaults, up to tol: the early, budgeted one, which fits.
    starts = []
    polish = sicrep._polish_model
    monkeypatch.setattr(sicrep, "_polish_model", lambda *args: starts.append(args) or polish(*args))
    assert discover_system(_hidden_model_table(3, 4, 1), 3, seed=1).feasible
    monkeypatch.undo()
    assert len(starts) == 1 and starts[0][4:] == (1e-6, sicrep._EARLY_NFEV)
    return starts[0][:5]


def _table_miss(d, states, effect_sets, q_arrays):
    return max(np.max(np.abs(_born(e, states) - q)) for e, q in zip(effect_sets, q_arrays))


def test_polish_stops_at_the_first_evaluation_within_tol(monkeypatch):
    # Within tol less the 64-ulp margin left for the rounding in repair.
    d, states, effect_sets, q_arrays, tol = _polish_start(monkeypatch)
    misses = []

    def recording(x, *args):
        r = _polish_residuals(x, *args)
        misses.append(np.max(np.abs(r)))
        return r

    monkeypatch.setattr(sicrep, "_polish_residuals", recording)
    out = sicrep._polish_model(d, states, effect_sets, q_arrays, tol)
    stop = tol - 64 * np.finfo(float).eps
    assert len(misses) > 2 and misses[-1] <= stop < min(misses[:-1])
    assert _table_miss(d, *out, q_arrays) == pytest.approx(misses[-1], rel=0, abs=1e-15)


def test_a_polish_ending_just_under_tol_still_fits_after_repair(monkeypatch):
    # With tol set to the miss of one of the polish's own iterates, a stop
    # at the first iterate within tol would land exactly on tol. Without
    # the 64-ulp margin, rounding in _repair_model pushed 2 of these 3 over.
    d, states, effect_sets, q_arrays, _ = _polish_start(monkeypatch)
    table = _hidden_model_table(3, 4, 1)
    misses = []

    def jacobian(x, *args):
        misses.append(np.max(np.abs(_polish_residuals(x, *args))))
        return _polish_jacobian(x, *args)

    monkeypatch.setattr(sicrep, "_polish_jacobian", jacobian)
    sicrep._polish_model(d, states, effect_sets, q_arrays, 1e-15)
    monkeypatch.undo()
    tols = [m for m in misses if m > 1e-11]  # above the polish's own floor
    assert len(tols) >= 3
    for tol in tols:
        out = sicrep._polish_model(d, states, effect_sets, q_arrays, tol)
        assert _repair_model(table.as_arrays(), d, *out)[0] <= tol


def test_polish_with_a_tiny_tol_still_converges(monkeypatch):
    d, states, effect_sets, q_arrays, _ = _polish_start(monkeypatch)
    out = sicrep._polish_model(d, states, effect_sets, q_arrays, 1e-15)
    assert _table_miss(d, *out, q_arrays) < 1e-11


def test_polish_cost_never_rises_between_accepted_iterates(monkeypatch):
    # A qubit fit of a qutrit table from a random start rejects some steps.
    # The Jacobian is taken once at every accepted iterate.
    q_arrays = _hidden_model_table(3, 4, 0).as_arrays()
    states, effect_sets = _random_model(2, 4, (3, 3), np.random.default_rng([5, 1]))
    tried, accepted = [], []

    def residuals(x, *args):
        r = _polish_residuals(x, *args)
        tried.append(r @ r / 2)
        return r

    def jacobian(x, *args):
        r = _polish_residuals(x, *args)
        accepted.append(r @ r / 2)
        return _polish_jacobian(x, *args)

    monkeypatch.setattr(sicrep, "_polish_residuals", residuals)
    monkeypatch.setattr(sicrep, "_polish_jacobian", jacobian)
    sicrep._polish_model(2, states, effect_sets, q_arrays, 1e-15)
    assert np.any(np.diff(tried) > 0)
    assert len(accepted) > 5 and np.all(np.diff(accepted) <= 0)


def test_polish_jacobian_reuses_the_last_residual_evaluation(monkeypatch):
    # The Jacobian is taken where the residuals were last evaluated, so with
    # a memo it diagonalizes no measurement's Gram sum again; at any other
    # point the memo is not used, and every result matches a memo-free call.
    rng = np.random.default_rng(7)
    d, n_prep, counts = 3, 4, (3, 2)
    q_arrays = [rng.dirichlet(np.ones(n), size=n_prep) for n in counts]
    x, y = rng.standard_normal((2, (n_prep + sum(counts)) * 2 * d * d))
    args = (d, n_prep, counts, q_arrays)
    fresh = [_polish_jacobian(z, *args) for z in (x, y)]
    roots, memo = [], {}
    inverse_root = opalg._sum_inverse_root
    monkeypatch.setattr(opalg, "_sum_inverse_root", lambda a: roots.append(1) or inverse_root(a))
    _polish_residuals(x, *args, memo)
    assert np.array_equal(_polish_jacobian(x + 0.0, *args, memo), fresh[0])
    assert len(roots) == len(counts)
    assert np.array_equal(_polish_jacobian(y, *args, memo), fresh[1])
    assert len(roots) == 2 * len(counts)


def test_levenberg_marquardt_returns_a_start_that_already_fits():
    def jacobian(x):
        raise AssertionError("a start within tol needs no step")

    x = np.array([0.5, -2.0, 3.0])
    assert sicrep._levenberg_marquardt(lambda z: z - x + 1e-7, jacobian, x, 1e-6) is x


def test_discovery_loop_skips_validation(monkeypatch):
    # The descent runs on unchecked kernels: calls to the checked public
    # entry points come from start-up and repair only, a few per restart
    # (a loop that called them on every step made 5775 such calls on this
    # run), while the loop clips through the kernel far more often.
    calls = {"checked": 0, "kernel": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(opalg, "as_matrix_stack", counted(opalg.as_matrix_stack, "checked"))
    monkeypatch.setattr(opalg, "psd_clip", counted(opalg.psd_clip, "checked"))
    monkeypatch.setattr(opalg, "_psd_clip", counted(opalg._psd_clip, "kernel"))
    for name in ("coords", "matrix"):
        method = getattr(opalg.HermitianBasis, name)
        monkeypatch.setattr(opalg.HermitianBasis, name, counted(method, "checked"))
    restarts = 5
    result = _search(_contradictory_table().as_arrays(), 2, 500, 1e-6, restarts, 0)
    assert (result.feasible, result.restarts_used) == (False, restarts)
    bound = 8 * restarts
    assert calls["checked"] <= bound
    assert calls["kernel"] > 5 * bound

    # A dimension ruled out by its certificate runs no restart at all.
    calls.update(checked=0, kernel=0)
    result = discover_system(_contradictory_table(), 2, restarts=restarts, seed=0)
    assert (result.verdict, result.restarts_used) == ("ruled_out", 0)
    assert calls == {"checked": 0, "kernel": 0}


def test_repair_rejects_a_vanishing_effect_set():
    states = [basis_state(2, 0), basis_state(2, 1)]
    table = ProbabilityTable.from_model(states, [computational_povm(2)])
    stack = np.array([rho.matrix for rho in states])
    assert _repair_model(table.as_arrays(), 2, stack, [np.zeros((2, 2, 2), dtype=complex)]) is None
    assert _repair_model(table.as_arrays(), 2, stack, [computational_povm(2).matrices()])[0] < 1e-12


# --------------------------------------------------- dimension certificates

def _stacked(table):
    # Row m: every outcome probability of preparation m, measurement by measurement.
    return np.array([np.concatenate([row[m].probs for row in table.distributions])
                     for m in range(table.n_preparations)])


def _overlap_bound(table, i, j, tol):
    # min over measurements of the classical fidelity of the tol-inflated rows.
    f = 1.0
    for row in table.distributions:
        a = np.minimum(1.0, row[i].probs + tol)
        b = np.minimum(1.0, row[j].probs + tol)
        f = min(f, float(np.sum(np.sqrt(a * b))) ** 2)
    return f


def _fidelity_bound(table, preparations, tol):
    total = sum(_overlap_bound(table, i, j, tol) for i in preparations for j in preparations)
    return len(preparations) ** 2 / total


def _assert_certificate_recomputes(cert, table, d, tol):
    n, m = _stacked(table).shape
    if cert["bound"] == "rank":
        assert cert["preparations"] == list(range(n))
        sigma = np.linalg.svd(_stacked(table), compute_uv=False)
        assert abs(cert["value"] - sigma[d * d]) <= 1e-12
        assert 0 <= cert["limit"] - tol * np.sqrt(n * m) <= 1e-12
    else:
        assert cert["bound"] == "fidelity"
        own = _fidelity_bound(table, cert["preparations"], tol)
        assert abs(cert["value"] - own) <= 1e-12
        assert 0 <= cert["limit"] - d <= 1e-12
    assert cert["value"] > cert["limit"]


def _noisy(table, eps, seed):
    # Each distribution mixed with its own random one, weight eps: the model
    # stays within eps of every entry, and the table is no model's table.
    rng = np.random.default_rng(seed)

    def shifted(q):
        w = rng.dirichlet(np.ones(len(q)))
        return OutcomeDistribution(q.labels, (1 - eps) * q.probs + eps * w)

    rows = tuple(tuple(shifted(q) for q in row) for row in table.distributions)
    return ProbabilityTable(table.n_preparations, table.measurement_labels, rows)


def _model_tables(d):
    # Tables of d-dimensional models: mixed and pure states, projective and
    # random POVMs, mixed outcome counts, enough preparations and outcomes for
    # the rank bound to apply, and orthogonal basis states, for which the
    # fidelity bound comes within 4 tol of d.
    rng = np.random.default_rng([47, d])
    mixed = [random_state(d, seed=[48, d, m]) for m in range(d * d + 2)]
    pure = [pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            for _ in range(d + 3)]
    basis = [basis_state(d, k) for k in range(d)]
    projective = [Povm.from_matrices(d, _projective(_haar(d, rng))) for _ in range(2)]
    counted = [random_povm(d, 2, seed=[49, d]), computational_povm(d),
               random_povm(d, 3, seed=[50, d])]
    wide = [random_povm(d, d * d + 1, seed=[51, d]), random_povm(d, 2, seed=[52, d])]
    return [ProbabilityTable.from_model(states, povms) for states, povms in (
        (mixed, wide), (mixed, counted), (pure, projective), (pure, counted + projective),
        (basis, [computational_povm(d)]), (basis + pure, projective + [computational_povm(d)]),
    )]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tables_of_d_dimensional_models_are_never_ruled_out_at_d(d):
    for k, table in enumerate(_model_tables(d)):
        for tol, shown in ((1e-6, table), (1e-6, _noisy(table, 1e-6, [53, d, k])),
                           (1e-3, _noisy(table, 1e-3, [54, d, k]))):
            assert _dimension_certificate(shown.as_arrays(), d, tol) is None
            n, m = _stacked(shown).shape
            if d * d < min(n, m):
                sigma = np.linalg.svd(_stacked(shown), compute_uv=False)
                assert sigma[d * d] <= tol * np.sqrt(n * m)
            assert _fidelity_bound(shown, range(n), tol) <= d


def test_contradictory_table_is_ruled_out_below_four_and_found_at_four():
    table = _contradictory_table()
    bounds = []
    for d in (1, 2, 3):
        result = discover_system(table, d)
        assert (result.feasible, result.verdict, result.restarts_used) == (False, "ruled_out", 0)
        assert result.residual == np.inf and result.states == () and result.povms == ()
        _assert_certificate_recomputes(result.certificate, table, d, 1e-6)
        bounds.append(result.certificate["bound"])
    # The table's rank is 3 <= 2^2, so only the fidelity bound reaches d = 2, 3.
    assert bounds == ["rank", "fidelity", "fidelity"]
    assert _fidelity_bound(table, range(4), 1e-6) == pytest.approx(16 / (4 + 12 * 4e-6), abs=1e-12)
    found = discover_system(table, 4)
    assert (found.verdict, found.certificate) == ("found", None)


def test_fidelity_certificate_names_the_subset_it_needs():
    # A fifth, maximally mixed preparation dilutes the full-set bound below
    # 3; dropping it recovers the four pairwise-orthogonal preparations.
    table = _contradictory_table()
    half = OutcomeDistribution(("0", "1"), np.array([0.5, 0.5]))
    table = ProbabilityTable(5, table.measurement_labels,
                             tuple(row + (half,) for row in table.distributions))
    assert 2 < _fidelity_bound(table, range(5), 1e-6) < 3
    cert = discover_system(table, 3).certificate
    assert cert["bound"] == "fidelity" and cert["preparations"] == [0, 1, 2, 3]
    _assert_certificate_recomputes(cert, table, 3, 1e-6)
