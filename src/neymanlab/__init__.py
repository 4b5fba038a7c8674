"""neymanlab: efficient covariate-stratified treatment allocation.

Variance bounds and efficient propensities for stratified randomized
experiments, sequential design rules that read a prefix of one shared
uniform stream, Monte Carlo estimator risk, and local likelihood-ratio
diagnostics, all behind a deterministic config-driven runner.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .allocation import (
    AllocationMap,
    BoundValue,
    DualCertificate,
    bound_from_duals,
    eval_bound_binary,
    eval_bound_general,
    kkt_residuals,
    neyman_allocation,
    solve_constrained,
)
from .config import (
    StudyConfig,
    config_digest,
    parse_config,
    parse_scenario,
    serialize_config,
    serialize_scenario,
)
from .designs import (
    DesignRule,
    DeterministicAlternation,
    FullTreatment,
    IidPropensity,
    MatchedPairs,
    StratifiedBlocks,
    TwoStageAdaptive,
)
from .engine import STREAMS, worker_pool
from .errors import (
    DegenerateReps,
    DivisionByZeroPropensity,
    EmptyArm,
    InfoExceedsTarget,
    NeymanlabError,
    ParseError,
    PropensityOutOfRange,
    RuleScenarioMismatch,
    SolverDiverged,
    UnboundedDual,
    ValidationError,
)
from .estimators import (
    AipwOracle,
    DiffMeans,
    Estimator,
    IpwHT,
    IpwHajek,
    RiskReport,
    StratifiedMeans,
    risk_by_design,
)
from .lan import LanReport, lan_by_design
from .runner import ReportBundle, run_study, write_bundle
from .scenario import (
    CLIP_EPS,
    ConstraintSpec,
    CovariateLaw,
    OutcomeModel,
    Scenario,
    Submodel,
    TreatmentFunctional,
    informations,
    least_favorable_submodel,
    tau_at,
)

# Every public name imported above, and nothing else.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
