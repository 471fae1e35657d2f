"""The package's public names are part of its contract: adding a helper to
a module must not change them."""

import mftk

PUBLIC_NAMES = [
    "AgentState", "ConsistencyReport", "DecisionModel", "DensityMatrix", "DilationCheck",
    "DilationSpec", "DimensionMismatchError", "DiscoveryResult", "Effect", "ExtensionReport",
    "ExternalSystem", "GeqResult", "HermitianBasis", "InconsistentPairError",
    "NonHermitianError", "NonQuantumProbabilityError", "NotPositiveSemidefiniteError",
    "OrderVerdict", "OutcomeCountMismatchError", "OutcomeDistribution", "PairResult", "Povm",
    "ProbabilisticReport", "ProbabilityTable", "QuantumChannel", "SchemaError",
    "SetOrderResult", "SicPovm", "SicProbVector", "SolverError", "StochasticMatrix",
    "TuningCertificate", "TuningRequiredError", "UMaxResult", "UnsupportedDimensionError",
    "ValidationReport", "agent", "agent_from_obj", "agent_to_obj", "apply_apparatus",
    "apply_channel", "basis_state", "bayes_update", "blackwell_consistency",
    "born_probabilities", "build_sic", "certificate_from_obj", "certificate_to_obj",
    "channel_from_obj", "channel_to_obj", "check_tuning_probabilistic", "classical_rule",
    "classify_extension", "compare", "compose_stochastic", "computational_povm", "dagger",
    "decision_from_obj", "decision_model_for", "decision_to_obj", "deconstruct", "dilate",
    "dilation_from_obj", "dilation_to_obj", "discover_system", "distribution_to_obj",
    "dump_json", "errors", "expected_utility", "fileio", "final_label", "final_measurements",
    "hermitian_basis", "hermitize", "incorporate", "induced_povm", "is_generalized_dilation",
    "is_hermitian", "is_rank_one_povm", "is_trivial_class", "load_json", "maximally_mixed",
    "measure", "min_eigenvalue", "naimark_construct", "opalg", "order", "partial_trace",
    "post_process", "povm_from_obj", "povm_geq", "povm_set_geq", "povm_to_conditional",
    "povm_to_obj", "proxy_certificate", "psd_clip", "psd_sqrt", "pure_state", "random_channel",
    "random_povm", "random_state", "save_json", "sic_from_obj", "sic_probs_to_state",
    "sic_to_obj", "sicrep", "state_from_obj", "state_to_obj", "state_to_sic_probs",
    "stochastic_from_obj", "stochastic_to_obj", "table_from_obj", "table_to_obj", "tensor",
    "trivial_povm", "u_max", "urgleichung", "validate_povm", "verify_tuned", "xbasis_povm",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 120
    assert sorted(mftk.__all__) == PUBLIC_NAMES
