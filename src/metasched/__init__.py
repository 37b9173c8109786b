"""Project scheduling optimization toolkit: critical path analysis,
resource-constrained scheduling, discrete time-cost trade-offs, and three
interchangeable metaheuristics with a reproducible benchmark harness."""

from .cpm import CpmResult, CpmRow, backward_pass, compute_cpm, forward_pass, makespan_for_modes
from .model import (
    Activity,
    ActivityOption,
    AoaArc,
    InstanceError,
    ModeVector,
    ProjectNetwork,
    TctpInstance,
    derive_precedence_from_nodes,
    induced_subnetwork,
    parse_aoa_instance,
    parse_tctp_instance,
    validate_network,
)
from .instances import list_bundled_instances, load_network, load_tctp
from .problems import modes_to_vector, rcpsp_problem, tctp_problem
from .rcpsp import (
    ResourceProfile,
    Schedule,
    SchedulingError,
    check_schedule,
    constrained_critical,
    is_precedence_feasible,
    random_activity_list,
    resource_profile,
    serial_sgs,
)
from .search import (
    GaConfig,
    RunResult,
    SaConfig,
    SearchProblem,
    TsConfig,
    run_ga,
    run_sa,
    run_ts,
    sa_accept_probability,
)
from .tctp import (
    ParetoArchive,
    ParetoPoint,
    TctpEvaluation,
    archive_insert,
    dominates,
    evaluate_mode_vector,
    min_direct_cost,
)

__version__ = "0.1.0"
