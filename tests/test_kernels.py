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
    StochasticMatrix,
    basis_state,
    blackwell_consistency,
    born_probabilities,
    build_sic,
    computational_povm,
    dagger,
    final_label,
    hermitian_basis,
    hermitize,
    induced_povm,
    is_generalized_dilation,
    naimark_construct,
    partial_trace,
    post_process,
    povm_geq,
    random_channel,
    random_povm,
    random_state,
    tensor,
    u_max,
    xbasis_povm,
)
from mftk.agent import _final_set
from mftk.errors import DimensionMismatchError
from mftk.measure import apply_channel, kraus_action
from mftk.opalg import CHECK_ATOL, DECISION_ATOL, normalize_effects


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


def test_povm_geq_lp_matches_row_by_row_build(monkeypatch):
    seen = []

    def recording_linprog(**kwargs):
        seen.append(kwargs)
        return scipy.optimize.linprog(**kwargs)

    monkeypatch.setattr(mftk.order, "linprog", recording_linprog)
    pairs = [
        (computational_povm(2), xbasis_povm()),
        (build_sic(2).povm, computational_povm(2)),
        (random_povm(3, 4, seed=31), random_povm(3, 2, seed=32)),
        (random_povm(4, 3, seed=33), random_povm(4, 5, seed=34)),
        (random_povm(1, 2, seed=35), random_povm(1, 1, seed=36)),
    ]
    for z, x in pairs:
        povm_geq(z, x)
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
