"""Deterministic round-based simulator for clustered wireless sensor networks
with type-1 and interval type-2 fuzzy cluster-head election."""

from .energy import (
    RadioParams,
    agg_energy,
    analytic_cluster_stats,
    optimal_cluster_count,
    rx_energy,
    threshold_distance,
    tx_energy,
)
from .fis1 import (
    AggregatedFuzzySet,
    DegenerateOutputError,
    LinguisticVariable,
    MembershipFunction,
    Rule1,
    RuleBase1,
    default_rulebase1,
    defuzz_coa,
    eval_fis1,
    infer_mamdani,
    mf_eval,
    triangular,
    trapezoidal,
)
from .fis2 import (
    FiringInterval,
    IntervalMF,
    ReducedInterval,
    Rule2,
    RuleBase2,
    default_rulebase2,
    eval_t2fis,
    firing_intervals,
    km_type_reduce,
    make_fou,
)
from .network import (
    Network,
    deploy,
    neighbor_count,
    network_from_positions,
    normalize_inputs,
)
from .protocols import (
    Cluster,
    Engines,
    ProtocolParams,
    RoundPlan,
    build_routes,
    ch_threshold,
    compete_final_chs,
    run_protocol_round,
)
from .rng import Xorshift64Star
from .simulator import (
    RoundMetrics,
    SimConfig,
    SimResult,
    apply_round_energy,
    lifetime_metrics,
    run_simulation,
)

__version__ = "0.1.0"
