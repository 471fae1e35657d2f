"""Each array kernel against the per-item algorithm it replaced, written out
here, with exact equality: the kernels keep the arithmetic order, so their
outputs match bit for bit."""

import numpy as np
import pytest
import scipy.optimize

import mftk.order
from mftk import (
    DilationSpec,
    OutcomeDistribution,
    Povm,
    SicProbVector,
    StochasticMatrix,
    basis_state,
    blackwell_consistency,
    born_probabilities,
    build_sic,
    check_tuning_probabilistic,
    computational_povm,
    dagger,
    final_label,
    hermitian_basis,
    hermitize,
    induced_povm,
    is_generalized_dilation,
    is_rank_one_povm,
    is_trivial_class,
    naimark_construct,
    partial_trace,
    post_process,
    povm_geq,
    povm_to_conditional,
    pure_state,
    random_channel,
    random_povm,
    random_state,
    state_to_sic_probs,
    tensor,
    trivial_povm,
    u_max,
    urgleichung,
    validate_povm,
    xbasis_povm,
)
from mftk.agent import _final_set
from mftk.dilate import _moved_probe_states
from mftk.errors import DimensionMismatchError, InconsistentPairError
from mftk.measure import apply_channel, kraus_action
from mftk.opalg import CHECK_ATOL, DECISION_ATOL, ginibre_grams, normalize_effects
from mftk.sicrep import _affine_update


def _random_spec(d_s, d_t, n, n_kraus, seed):
    """A generic apparatus: mixed probe, many-Kraus channel, random pointer."""
    return DilationSpec(
        sigma=random_state(d_s, seed),
        phi=random_channel(d_s * d_t, n_kraus, seed + 1),
        y=random_povm(d_s, n, seed + 2),
        dim_s=d_s,
        dim_t=d_t,
    )


# ---------------------------------------------------------- channel action

def test_kraus_action_matches_accumulating_loop():
    for d, n_kraus, seed in [(1, 1, 0), (2, 3, 1), (3, 2, 2), (4, 5, 3)]:
        phi = random_channel(d, n_kraus, seed)
        rho = random_state(d, seed)
        expected = np.zeros((d, d), dtype=complex)
        for k in phi.kraus:
            expected += k @ rho.matrix @ dagger(k)
        assert np.array_equal(kraus_action(phi.kraus, rho.matrix), expected)
        assert np.array_equal(apply_channel(phi, rho).matrix, hermitize(expected))
        stack = np.stack([random_state(d, seed + s).matrix for s in range(4)])
        looped = [kraus_action(phi.kraus, m) for m in stack]
        assert np.array_equal(kraus_action(phi.kraus, stack), np.stack(looped))


# ------------------------------------------------------------ induced POVM

def _induced_reference(spec, y):
    eye_t = np.eye(spec.dim_t, dtype=complex)
    prior = tensor(spec.sigma.matrix, eye_t)
    mats = []
    for e in y.effects:
        lifted = tensor(e.matrix, eye_t)
        heis = np.zeros_like(lifted)
        for k in spec.phi.kraus:
            heis += dagger(k) @ lifted @ k
        mats.append(hermitize(partial_trace(prior @ heis, spec.dim_s, spec.dim_t, keep="second")))
    return np.stack(mats)


def test_induced_povm_matches_per_effect_partial_traces():
    specs = [naimark_construct(random_povm(d, n, seed=10 * d + n))
             for d, n in [(1, 1), (2, 2), (2, 4), (3, 5)]]
    specs += [_random_spec(2, 2, 3, 2, 5), _random_spec(3, 2, 4, 3, 6), _random_spec(2, 3, 2, 4, 7)]
    for spec in specs:
        expected = _induced_reference(spec, spec.y)
        got = induced_povm(spec)
        assert np.array_equal(got.matrices(), expected)
        signs = np.signbit(got.matrices().view(float))
        assert np.array_equal(signs, np.signbit(expected.view(float)))
        assert got.labels == spec.y.labels


def test_dilation_residual_with_a_foreign_pointer():
    spec = _random_spec(3, 2, 4, 3, 11)
    z = induced_povm(spec)
    other = random_povm(3, 4, seed=12)
    residual = float(np.max(np.abs(_induced_reference(spec, other) - z.matrices())))
    check = is_generalized_dilation(other, z, spec)
    assert check.residual == residual
    assert check.holds == (residual <= CHECK_ATOL)
    assert is_generalized_dilation(spec.y, z, spec).residual == 0.0


def test_dilation_rejects_pointer_of_the_wrong_dimension():
    spec = _random_spec(3, 2, 4, 3, 13)
    wrong = random_povm(2, 4, seed=14)
    with pytest.raises(DimensionMismatchError, match=r"^pointer POVM dim 2 != dim_s 3$"):
        is_generalized_dilation(wrong, induced_povm(spec), spec)


# ------------------------------------------------------------ POVM checks

def _validate_reference(p, atol):
    """validate_povm's per-effect loop, as report lines."""
    lines = []
    for e in p.effects:
        herm = float(np.max(np.abs(e.matrix - dagger(e.matrix))))
        if herm > atol:
            lines.append(f"hermiticity: effect {e.label!r} is not Hermitian (magnitude {herm:.3e})")
            continue
        low = float(np.linalg.eigvalsh(hermitize(e.matrix))[0])
        if low < -atol:
            lines.append(f"positivity: effect {e.label!r} has eigenvalue {low:.3e} "
                         f"(magnitude {-low:.3e})")
    gap = np.abs(sum(e.matrix for e in p.effects) - np.eye(p.dim))
    if float(np.max(gap)) > atol:
        row, col = np.unravel_index(int(np.argmax(gap)), gap.shape)
        lines.append(f"completeness: effect sum deviates from identity at entry ({row}, {col}) "
                     f"(magnitude {float(np.max(gap)):.3e})")
    return lines or ["valid"]


def _trivial_reference(p, tol):
    return all(np.max(np.abs(e.matrix - np.trace(e.matrix).real / p.dim * np.eye(p.dim))) <= tol
               for e in p.effects)


def _rank_one_reference(p, tol):
    return all(np.sum(np.linalg.eigvalsh(hermitize(e.matrix)) > tol) <= 1 for e in p.effects)


def test_povm_checks_match_per_effect_loops():
    rng = np.random.default_rng(17)
    povms = [computational_povm(3), xbasis_povm(), trivial_povm(4), build_sic(3).povm,
             post_process(random_povm(3, 4, seed=18), StochasticMatrix.merge_all(4))]
    for d in (1, 2, 3, 5, 9):
        for n in (1, 2, 4):
            m = random_povm(d, n, seed=[19, d, n]).matrices()
            g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            povms += [Povm.from_matrices(d, m + scale * g) for scale in (1e-9, 1e-3, 0.3)]
            povms.append(Povm.from_matrices(d, m + 0.3 * hermitize(g)))
    for p in povms:
        for tol in (CHECK_ATOL, 1e-6, 0.1):
            assert validate_povm(p, tol).lines() == _validate_reference(p, tol)
            assert is_trivial_class(p, tol) == _trivial_reference(p, tol)
            assert is_rank_one_povm(p, tol) == _rank_one_reference(p, tol)


# ---------------------------------------------------------- decision value

def _umax_reference(povm, states, utility):
    n = len(states)
    prior = OutcomeDistribution(tuple(str(w) for w in range(n)), np.full(n, 1.0 / n))
    cols = [born_probabilities(rho, povm).probs for rho in states]
    channel = StochasticMatrix(n, povm.n_outcomes, np.stack(cols, axis=1))
    gain = (channel.entries * prior.probs[None, :]) @ utility.T
    picks = np.argmax(gain, axis=1)
    return float(gain[np.arange(gain.shape[0]), picks].sum())


def _blackwell_reference(z, x, states, n_utilities, seed, tol=DECISION_ATOL):
    geq = povm_geq(z, x, tol).holds
    rng = np.random.default_rng(seed)
    n_w = len(states)
    violations = []
    reversals = 0
    for i in range(n_utilities):
        utility = rng.uniform(0.0, 1.0, size=(n_w, n_w))
        uz = _umax_reference(z, states, utility)
        ux = _umax_reference(x, states, utility)
        if ux > uz + tol:
            reversals += 1
            if geq:
                violations.append(f"utility {i}: post-processed side scored {ux:.6f} > {uz:.6f}")
        elif geq and ux > uz + CHECK_ATOL:
            violations.append(f"utility {i}: monotonicity slack exceeded ({ux - uz:.3e})")
    return (not violations, geq, reversals, tuple(violations))


def test_blackwell_reports_match_per_utility_loop():
    z2 = computational_povm(2)
    noisy = post_process(z2, StochasticMatrix(2, 2, np.array([[0.8, 0.2], [0.2, 0.8]])))
    qubit_states = [basis_state(2, 0), basis_state(2, 1), random_state(2, 3)]
    z3 = random_povm(3, 4, seed=21)
    coarse = post_process(z3, StochasticMatrix.merge_all(4))
    cases = [
        (z2, noisy, qubit_states, 7),
        (xbasis_povm(), z2, qubit_states, 8),  # reversal pair: the LP relation fails
        (z3, coarse, [random_state(3, s) for s in range(4)], 9),
        (random_povm(3, 3, seed=22), z3, [random_state(3, s) for s in range(5)], 10),
    ]
    reversed_somewhere = False
    for z, x, states, seed in cases:
        report = blackwell_consistency(z, x, states, n_utilities=40, seed=seed)
        expected = _blackwell_reference(z, x, states, 40, seed)
        got = (report.consistent, report.geq_holds, report.reversals, report.violations)
        assert got == expected
        assert report.n_utilities == 40 and not report.vacuous
        reversed_somewhere |= report.reversals > 0
    assert reversed_somewhere


def test_umax_matches_argmax_sum():
    states = [random_state(3, s) for s in range(4)]
    utility = np.random.default_rng(5).uniform(size=(3, 4))
    povm = random_povm(3, 5, seed=6)
    model = mftk.order.decision_model_for(povm, states, utility)
    assert u_max(model).value == _umax_reference(povm, states, utility)


def test_blackwell_without_utilities_builds_no_decision_problem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Born channel built for a vacuous check")

    monkeypatch.setattr(mftk.order, "born_probabilities", refuse)
    report = blackwell_consistency(computational_povm(2), xbasis_povm(), [basis_state(2, 0)],
                                   n_utilities=0)
    assert report.vacuous and report.consistent and report.reversals == 0


# ----------------------------------------------------- reference projectors

def test_sic_projectors_match_per_vector_outer_products():
    for d in range(2, 6):
        sic = build_sic(d)
        expected = np.stack([np.outer(v, v.conj()) for v in sic.fiducial_states])
        assert np.array_equal(sic.projectors(), expected)


# ---------------------------------------------------------- affine update

def _urgleichung_reference(p, r, d):
    q = r @ ((d + 1) * p - 1.0 / d)
    if q.min() < -CHECK_ATOL:
        raise InconsistentPairError(f"inconsistent (p, r) pair: q({q.argmin()}) = {q.min():.3e}")
    q = np.clip(q, 0.0, None)
    return q / q.sum()


def test_affine_update_matches_the_single_row_update():
    for d in range(2, 6):
        sic = build_sic(d)
        for seed in range(4):
            p = state_to_sic_probs(random_state(d, [d, seed]), sic)
            for n in (1, 2, d + 1, d * d):
                r = povm_to_conditional(sic, random_povm(d, n, seed=[d, seed, n]))
                expected = _urgleichung_reference(p.probs, r.entries, d)
                assert np.array_equal(_affine_update(p.probs[None], r.entries, d)[0], expected)
                labels = tuple(str(j) for j in range(n))
                got = urgleichung(p, r).probs
                assert np.array_equal(got, OutcomeDistribution(labels, expected).probs)


def test_affine_update_rejects_the_first_inconsistent_row():
    # Overlaps of (I +- 1.2 sigma_x) / 2 with the tetrahedron are all
    # non-negative, but states near the x axis give a negative q.
    sic = build_sic(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    z = Povm.from_matrices(2, [(np.eye(2) + 1.2 * sx) / 2, (np.eye(2) - 1.2 * sx) / 2])
    r = povm_to_conditional(sic, z).entries
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    states = [random_state(2, 61), pure_state(plus), pure_state(plus * [1, -1])]
    p = np.stack([state_to_sic_probs(rho, sic).probs for rho in states])
    with pytest.raises(InconsistentPairError) as first:
        _urgleichung_reference(p[1], r, 2)
    with pytest.raises(InconsistentPairError) as got:
        _affine_update(p, r, 2)
    assert str(got.value) == str(first.value)
    assert np.array_equal(_affine_update(p[:1], r, 2)[0], _urgleichung_reference(p[0], r, 2))


# ------------------------------------------------------ probabilistic check

def _probcheck_reference(spec, z, n_states, seed, tol):
    """The per-state loop: one reference-probability vector and one
    update per state and side, each normalized as its value type does."""
    sic_t, sic_s = build_sic(spec.dim_t), build_sic(spec.dim_s)
    r_target = povm_to_conditional(sic_t, z).entries
    r_pointer = povm_to_conditional(sic_s, spec.y).entries
    operator = is_generalized_dilation(spec.y, z, spec, tol)
    rhos = ginibre_grams(np.random.default_rng([seed]), n_states, spec.dim_t)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    moved = _moved_probe_states(spec, rhos)
    probs_t = np.einsum("xij,nji->nx", sic_t.povm.matrices(), rhos).real
    probs_s = np.einsum("xij,nji->nx", sic_s.povm.matrices(), moved).real

    def update(p, r, d):
        p = np.clip(p, 0.0, None)
        q = _urgleichung_reference(p / p.sum(), r, d)
        return q / q.sum()

    max_gap = 0.0
    for i in range(n_states):
        p_z = update(probs_t[i], r_target, spec.dim_t)
        p_y = update(probs_s[i], r_pointer, spec.dim_s)
        max_gap = max(max_gap, float(np.max(np.abs(p_z - p_y))))
    holds = max_gap <= tol
    return max_gap, holds, holds == operator.holds


def test_probabilistic_check_matches_the_per_state_loop():
    # The specs, states and tolerance of acceptance criterion 3. The loop
    # renormalized each side's reference probabilities and each result once
    # more, which the stack skips, so max_gap agrees to round-off, not bits.
    for d in (2, 3):
        for i in range(100):
            z = random_povm(d, 2 + i % 4, seed=[31, d, i])
            spec = naimark_construct(z)
            report = check_tuning_probabilistic(spec, z, n_states=50, seed=1000 * d + i, tol=1e-8)
            max_gap, holds, agrees = _probcheck_reference(spec, z, 50, 1000 * d + i, 1e-8)
            assert (report.holds, report.agrees) == (holds, agrees)
            assert abs(report.max_gap - max_gap) <= 1e-14


def test_probabilistic_check_builds_no_value_type_per_state(monkeypatch):
    built = []
    for cls in (SicProbVector, OutcomeDistribution):
        original = cls.__post_init__

        def spy(self, original=original, name=cls.__name__):
            built.append(name)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    z = random_povm(3, 4, seed=71)
    report = check_tuning_probabilistic(naimark_construct(z), z, n_states=50, seed=72)
    assert report.holds and report.agrees
    assert built == []
    SicProbVector(2, np.full(4, 0.25))
    assert built == ["SicProbVector"]


# --------------------------------------------------------------- order LP

def _lp_reference(z, x):
    basis = hermitian_basis(z.dim)
    z_coords = basis.coords(z.matrices())
    x_coords = basis.coords(x.matrices())
    nz, nx, ncoord = z.n_outcomes, x.n_outcomes, z_coords.shape[1]
    nvar = nx * nz + 1
    rows_ub, rhs_ub = [], []
    for ix in range(nx):
        for k in range(ncoord):
            row = np.zeros(nvar)
            row[ix * nz : (ix + 1) * nz] = z_coords[:, k]
            row[-1] = -1.0
            rows_ub.append(row.copy())
            rhs_ub.append(x_coords[ix, k])
            row[: nx * nz] *= -1.0
            rows_ub.append(row)
            rhs_ub.append(-x_coords[ix, k])
    rows_eq = []
    for iz in range(nz):
        row = np.zeros(nvar)
        row[iz::nz][:nx] = 1.0
        rows_eq.append(row)
    return np.array(rows_ub), np.array(rhs_ub), np.array(rows_eq)


def test_povm_geq_lp_matches_row_by_row_build(monkeypatch, tilted_basis):
    seen = []

    def recording_linprog(**kwargs):
        seen.append(kwargs)
        return scipy.optimize.linprog(**kwargs)

    monkeypatch.setattr(mftk.order, "linprog", recording_linprog)
    # The LP path itself, on every shape (a split qutrit basis, whose
    # effects are linearly dependent, among them), and povm_geq on pairs
    # at the boundary, the ones it hands to the LP.
    split = computational_povm(3).matrices() * [[[1.0]], [[1.0]], [[0.5]]]
    split = Povm.from_matrices(3, np.concatenate([split, split[2:]]))
    pairs = [
        (computational_povm(2), xbasis_povm()),
        (build_sic(2).povm, computational_povm(2)),
        (random_povm(3, 4, seed=31), random_povm(3, 2, seed=32)),
        (random_povm(4, 3, seed=33), random_povm(4, 5, seed=34)),
        (random_povm(1, 2, seed=35), random_povm(1, 1, seed=36)),
        (split, tilted_basis(3)),
    ]
    cases = [(mftk.order._lp_geq, z, x) for z, x in pairs]
    for d in (2, 4):
        cases.append((povm_geq, tilted_basis(d), computational_povm(d)))
    for solve, z, x in cases:
        solve(z, x, DECISION_ATOL)
        assert len(seen) == 1
        a_ub, b_ub, a_eq = _lp_reference(z, x)
        got = seen.pop()
        assert np.array_equal(got["A_ub"], a_ub)
        assert np.array_equal(np.signbit(got["A_ub"]), np.signbit(a_ub))
        assert np.array_equal(got["b_ub"], b_ub)
        assert np.array_equal(got["A_eq"], a_eq)


# ------------------------------------------------------------ random draws

def test_random_draws_match_the_per_matrix_loop():
    for dim in range(1, 6):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ dagger(g)
            assert np.array_equal(random_state(dim, seed).matrix, m / np.trace(m).real)
            for n in (1, 3, 6):
                rng = np.random.default_rng(seed)
                blocks = []
                for _ in range(n):
                    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                    blocks.append(g @ dagger(g))
                expected = normalize_effects(np.stack(blocks))[0]
                assert np.array_equal(random_povm(dim, n, seed).matrices(), expected)


# -------------------------------------------------------------- taxonomy

def _taxonomy_reference(case, mode, x_set, z_set):
    if case == "downgrade":
        if mode == "exclusive":
            return (tuple(z_set), "<"), "{Z}"
        return (tuple(x_set), "="), "{X}"
    if case == "duplicate":
        return (tuple(x_set), "="), "{X}"
    if case == "upgrade":
        return (tuple(z_set), ">"), "{Z}"
    if mode == "exclusive":
        return (tuple(z_set), "≠"), "{Z}"
    return (tuple(x_set) + tuple(z_set), "≠"), "{X,Z}"


def test_taxonomy_table_has_all_eight_rows():
    x_set = [computational_povm(2)]
    z_set = [xbasis_povm(), random_povm(2, 3, seed=41)]
    rows = [(c, m) for c in mftk.agent.CASES for m in mftk.agent.MODES]
    assert len(rows) == 8
    for case, mode in rows:
        final, label = _taxonomy_reference(case, mode, x_set, z_set)
        assert _final_set(case, mode, x_set, z_set) == final
        assert final_label(case, mode) == label
    for bad, message in [(("sideways", "inclusive"), "unknown case 'sideways'"),
                         (("upgrade", "both"), "unknown mode 'both'")]:
        with pytest.raises(ValueError, match=message):
            final_label(*bad)
        with pytest.raises(ValueError, match=message):
            _final_set(*bad, x_set, z_set)
