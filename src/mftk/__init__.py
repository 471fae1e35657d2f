"""Measurement formalism toolkit.

POVMs and quantum channels, SIC reference measurements and the two
probability-update rules, generalized dilations with a canonical
(Naimark) construction, the classical post-processing order with its
decision-theoretic face, and agent-boundary bookkeeping for
incorporating or deconstructing measurement apparatus.
"""

from .agent import (
    AgentState,
    ExtensionReport,
    ExternalSystem,
    classify_extension,
    deconstruct,
    final_label,
    final_measurements,
    incorporate,
    proxy_certificate,
)
from .dilate import (
    DilationCheck,
    DilationSpec,
    PairResult,
    ProbabilisticReport,
    TuningCertificate,
    apply_apparatus,
    check_tuning_probabilistic,
    induced_povm,
    is_generalized_dilation,
    naimark_construct,
    verify_tuned,
)
from .errors import (
    DimensionMismatchError,
    InconsistentPairError,
    NonHermitianError,
    NonQuantumProbabilityError,
    NotPositiveSemidefiniteError,
    OutcomeCountMismatchError,
    SchemaError,
    SolverError,
    TuningRequiredError,
    UnsupportedDimensionError,
)
from .fileio import (
    agent_from_obj,
    agent_to_obj,
    certificate_from_obj,
    certificate_to_obj,
    channel_from_obj,
    channel_to_obj,
    decision_from_obj,
    decision_to_obj,
    dilation_from_obj,
    dilation_to_obj,
    distribution_to_obj,
    dump_json,
    load_json,
    povm_from_obj,
    povm_to_obj,
    save_json,
    sic_from_obj,
    sic_to_obj,
    state_from_obj,
    state_to_obj,
    stochastic_from_obj,
    stochastic_to_obj,
    table_from_obj,
    table_to_obj,
)
from .measure import (
    DensityMatrix,
    Effect,
    OutcomeDistribution,
    Povm,
    QuantumChannel,
    StochasticMatrix,
    ValidationReport,
    apply_channel,
    basis_state,
    born_probabilities,
    compose_stochastic,
    computational_povm,
    maximally_mixed,
    post_process,
    pure_state,
    random_channel,
    random_povm,
    random_state,
    trivial_povm,
    validate_povm,
    xbasis_povm,
)
from .opalg import (
    HermitianBasis,
    dagger,
    hermitian_basis,
    hermitize,
    is_hermitian,
    min_eigenvalue,
    partial_trace,
    psd_clip,
    psd_sqrt,
    tensor,
)
from .order import (
    ConsistencyReport,
    DecisionModel,
    GeqResult,
    OrderVerdict,
    SetOrderResult,
    UMaxResult,
    bayes_update,
    blackwell_consistency,
    compare,
    decision_model_for,
    expected_utility,
    is_rank_one_povm,
    is_trivial_class,
    povm_geq,
    povm_set_geq,
    u_max,
)
from .sicrep import (
    DiscoveryResult,
    ProbabilityTable,
    SicPovm,
    SicProbVector,
    build_sic,
    classical_rule,
    discover_system,
    povm_to_conditional,
    sic_probs_to_state,
    state_to_sic_probs,
    urgleichung,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
