"""agreelab: joint outcome tables, common-knowledge closures, and agreement
verification across classical, quantum, and process-matrix backends.

``verify_agreement`` returns a :class:`SweepResult`: per-pair columns
(``q_a``, ``q_b``, ``steps``, ``ck_holds``) that read as a sequence of
:class:`CKReport`, each built when it is accessed. The same result carries
each axis's ``posteriors`` and answers ``singular_ok`` from its engine."""

from .agreement import (
    AnnouncementRound,
    CKReport,
    CKState,
    ProtocolTranscript,
    SweepResult,
    as_effective_state_space,
    attained_posteriors,
    ck_closure,
    ck_step,
    dynamic_protocol,
    initial_sets,
    is_common_knowledge,
    singular_disagreement_check,
    verify_agreement,
    violations,
)
from .classical import ClassicalModel, classical_ck_at, classical_posterior, embed_classical
from .errors import (
    AgreeLabError,
    BadWeights,
    DimensionMismatch,
    EmptyAxes,
    InvalidState,
    NegativeMass,
    NoConvergence,
    NotNormalized,
    ParameterOutOfRange,
    ParseError,
    ValidationError,
    ZeroMassCell,
    ZeroProbabilityConditioning,
)
from .joint import (
    DEFAULT_TOL,
    Event,
    JointDistribution,
    OutcomeSpace,
    conditional_prob,
    marginal,
    posterior_alice,
    posterior_bob,
    validate_joint,
)
from .process import (
    ProcessDiagnostics,
    ProcessMatrix,
    embed_definite_order,
    mix_processes,
    process_joint,
    validate_process,
)
from .quantum import (
    DensityMatrix,
    Instrument,
    InstrumentDiagnostics,
    QuantumScenario,
    block_rotation_scenario,
    choi_stack,
    closed_form_posteriors,
    sequential_joint,
    validate_instrument,
)
from .report import emit_report, emit_search_summary, parse_records
from .scenario import RunReport, Scenario, parse_scenario, run_scenario
from .search import FuzzSummary, fuzz_search

__version__ = "0.1.0"
