import numpy as np
import pytest

from mftk import (
    DensityMatrix,
    DilationSpec,
    Povm,
    QuantumChannel,
    apply_apparatus,
    apply_channel,
    basis_state,
    born_probabilities,
    build_sic,
    check_tuning_probabilistic,
    computational_povm,
    induced_povm,
    is_generalized_dilation,
    maximally_mixed,
    naimark_construct,
    random_povm,
    random_state,
    validate_povm,
    verify_tuned,
    xbasis_povm,
)
from mftk.errors import DimensionMismatchError, OutcomeCountMismatchError
from mftk.measure import unit_trace


def _swap(d):
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[j * d + i, i * d + j] = 1.0
    return u


def _identity_spec(dim_s=2, dim_t=2, sigma=None, y=None):
    return DilationSpec(
        sigma=sigma or maximally_mixed(dim_s),
        phi=QuantumChannel.identity(dim_s * dim_t),
        y=y or computational_povm(dim_s),
        dim_s=dim_s,
        dim_t=dim_t,
    )


def test_dilation_spec_validates_dimensions():
    with pytest.raises(DimensionMismatchError):
        DilationSpec(
            sigma=maximally_mixed(3),
            phi=QuantumChannel.identity(4),
            y=computational_povm(2),
            dim_s=2,
            dim_t=2,
        )
    with pytest.raises(DimensionMismatchError):
        DilationSpec(
            sigma=maximally_mixed(2),
            phi=QuantumChannel.identity(5),
            y=computational_povm(2),
            dim_s=2,
            dim_t=2,
        )


def test_apply_apparatus_identity_channel_returns_probe_state():
    spec = _identity_spec()
    rho = random_state(2, seed=40)
    out = apply_apparatus(spec, rho)
    np.testing.assert_allclose(out.matrix, spec.sigma.matrix, atol=1e-12)


def test_apply_apparatus_swap_moves_target_to_probe():
    spec = DilationSpec(
        sigma=basis_state(2, 0),
        phi=QuantumChannel.unitary(_swap(2)),
        y=computational_povm(2),
        dim_s=2,
        dim_t=2,
    )
    rho = random_state(2, seed=41)
    out = apply_apparatus(spec, rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_apply_apparatus_preserves_trace():
    for i in range(5):
        z = random_povm(2, 3, seed=[42, i])
        spec = naimark_construct(z)
        rho = random_state(2, seed=[43, i])
        out = apply_apparatus(spec, rho)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_induced_povm_identity_channel_is_trivial_class():
    spec = _identity_spec()
    got = induced_povm(spec)
    for effect, y_effect in zip(got.effects, spec.y.effects):
        scale = np.trace(spec.sigma.matrix @ y_effect.matrix).real
        np.testing.assert_allclose(effect.matrix, scale * np.eye(2), atol=1e-12)


def test_induced_povm_swap_transplants_pointer():
    spec = DilationSpec(
        sigma=maximally_mixed(2),
        phi=QuantumChannel.unitary(_swap(2)),
        y=xbasis_povm(),
        dim_s=2,
        dim_t=2,
    )
    got = induced_povm(spec)
    for a, b in zip(got.effects, xbasis_povm().effects):
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


def test_induced_povm_is_always_complete():
    for i in range(10):
        z = random_povm(2 + i % 2, 2 + i % 3, seed=[44, i])
        spec = naimark_construct(z)
        assert validate_povm(induced_povm(spec)).ok


def test_statistics_factor_through_the_moved_probe():
    # Measuring the target directly agrees with reading the pointer
    # off the post-interaction probe state.
    for i in range(5):
        z = random_povm(2, 3, seed=[45, i])
        spec = naimark_construct(z)
        rho = random_state(2, seed=[46, i])
        direct = born_probabilities(rho, z).probs
        probe_side = born_probabilities(apply_apparatus(spec, rho), spec.y).probs
        np.testing.assert_allclose(direct, probe_side, atol=1e-9)


def test_is_generalized_dilation_rejects_outcome_mismatch():
    spec = naimark_construct(computational_povm(2))
    with pytest.raises(OutcomeCountMismatchError):
        is_generalized_dilation(spec.y, random_povm(2, 3, seed=47), spec)


def test_identity_channel_fails_to_dilate_basis_measurement():
    spec = _identity_spec()
    check = is_generalized_dilation(spec.y, computational_povm(2), spec)
    assert not check.holds
    assert check.residual >= 0.5


def test_naimark_trivial_target():
    z = Povm.from_matrices(2, [np.eye(2)], labels=["1"])
    spec = naimark_construct(z)
    assert spec.dim_s == 1
    assert is_generalized_dilation(spec.y, z, spec).holds


def test_naimark_z_basis_and_sic():
    z = computational_povm(2)
    spec = naimark_construct(z)
    assert spec.dim_s == 2
    assert is_generalized_dilation(spec.y, z, spec).residual < 1e-12

    sic = build_sic(2).povm
    spec = naimark_construct(sic)
    assert spec.dim_s == 4
    assert is_generalized_dilation(spec.y, sic, spec).residual < 1e-9


def test_naimark_coupling_is_unitary():
    z = random_povm(3, 4, seed=48)
    spec = naimark_construct(z)
    (u,) = spec.phi.kraus
    np.testing.assert_allclose(u @ u.conj().T, np.eye(12), atol=1e-10)


def test_naimark_random_povms():
    for i in range(20):
        d = 2 + i % 2
        n = 2 + i % 4
        z = random_povm(d, n, seed=[49, i])
        spec = naimark_construct(z)
        check = is_generalized_dilation(spec.y, z, spec, tol=1e-9)
        assert check.holds, f"trial {i}: residual {check.residual}"


def test_verify_tuned_batches():
    targets = [random_povm(2, n, seed=[50, n]) for n in (2, 3)]
    specs = [naimark_construct(z) for z in targets]
    pairs = [(spec.y, z) for spec, z in zip(specs, targets)]
    cert = verify_tuned(pairs, specs)
    assert cert.tuned and not cert.vacuous
    assert all(r <= cert.tol for r in cert.residuals())

    # Corrupt the second claim by swapping two target effects.
    z = targets[1]
    swapped = Povm.from_matrices(2, [z.effects[1].matrix, z.effects[0].matrix, z.effects[2].matrix])
    bad_pairs = [pairs[0], (specs[1].y, swapped)]
    cert = verify_tuned(bad_pairs, specs)
    assert not cert.tuned
    assert cert.pairs[0].residual <= cert.tol
    assert cert.pairs[1].residual > cert.tol


def test_verify_tuned_empty_is_vacuous():
    cert = verify_tuned([], [])
    assert cert.vacuous and cert.tuned


def test_probabilistic_check_agrees_with_operator_route():
    z = random_povm(2, 3, seed=51)
    spec = naimark_construct(z)
    report = check_tuning_probabilistic(spec, z, n_states=30, seed=1, tol=1e-8)
    assert report.holds and report.operator_holds and report.agrees
    assert report.max_gap < 1e-8

    swapped = Povm.from_matrices(2, [z.effects[1].matrix, z.effects[0].matrix, z.effects[2].matrix])
    report = check_tuning_probabilistic(spec, swapped, n_states=30, seed=1, tol=1e-8)
    assert not report.holds and not report.operator_holds and report.agrees
    assert report.max_gap > 0.1


def test_probabilistic_check_vacuous_without_states():
    z = random_povm(2, 2, seed=52)
    spec = naimark_construct(z)
    report = check_tuning_probabilistic(spec, z, n_states=0, seed=0)
    assert report.vacuous
    assert report.max_gap == 0.0


def test_probabilistic_check_rejects_a_negative_state_count():
    z = random_povm(2, 2, seed=52)
    with pytest.raises(ValueError, match="n_states"):
        check_tuning_probabilistic(naimark_construct(z), z, n_states=-1)


def test_outputs_of_an_accepted_channel_are_states():
    # Trace preserving within CHECK_ATOL (residual 8e-10) but not within
    # the ROUNDOFF_ATOL that a state's trace is checked at.
    z = random_povm(2, 3, seed=54)
    exact = naimark_construct(z)
    phi = QuantumChannel(exact.phi.dim_in, exact.phi.dim_out,
                         (exact.phi.kraus[0] * np.sqrt(1 + 8e-10),))
    spec = DilationSpec(sigma=exact.sigma, phi=phi, y=exact.y,
                        dim_s=exact.dim_s, dim_t=exact.dim_t)
    assert is_generalized_dilation(spec.y, z, spec).holds

    rho = random_state(2, seed=55)
    joint = DensityMatrix(dim=phi.dim_in, matrix=np.kron(spec.sigma.matrix, rho.matrix))
    for out in (apply_channel(phi, joint), apply_apparatus(spec, rho)):
        assert abs(np.trace(out.matrix) - 1) < 1e-15
    report = check_tuning_probabilistic(spec, z, n_states=20, seed=3)
    assert report.holds and report.operator_holds and report.agrees

    # Outputs already within round-off of unit trace are left bit for bit.
    moved = apply_channel(exact.phi, joint).matrix
    np.testing.assert_array_equal(unit_trace(moved), moved)
