"""Pump scheduling for lumped water networks: simulate, learn, retrieve, repair."""

__version__ = "0.1.0"

from .env import (
    AgentKind,
    sample_episode,
    sample_operational_episode,
)
from .errors import (
    NumericError,
    PumpschedError,
    SchemaError,
    TrainingError,
    ValidationError,
)
from .history import (
    DEFAULT_IMPERFECTION,
    HistoryArchive,
    RuleBasedController,
    generate_history,
    load_history,
    margins_for,
    run_controlled_day,
    save_history,
)
from .hybrid import (
    HybridCase,
    InjectionPlan,
    StrategyReport,
    build_case_pool,
    detect_violations,
    evaluate_strategies,
    inject,
)
from .metrics import (
    area_outside_boundary,
    compare,
    episode_cost,
    violation_count,
)
from .network import (
    DemandZoneSpec,
    NetworkTopology,
    PumpStationSpec,
    TankSpec,
    TariffSchedule,
    demands_from_rng,
    generate_synthetic_network,
    load_network,
    save_network,
    topology_from_dict,
    topology_to_dict,
)
from .policy import (
    PolicyParameters,
    init_policy,
    load_checkpoint,
    save_checkpoint,
)
from .query import build_index, recommend
from .simulate import Trajectory, simulate
from .training import EnvSpec, TrainConfig, policy_act_fn, train

__all__ = [
    "AgentKind",
    "DemandZoneSpec",
    "DEFAULT_IMPERFECTION",
    "EnvSpec",
    "HistoryArchive",
    "HybridCase",
    "InjectionPlan",
    "NetworkTopology",
    "NumericError",
    "PolicyParameters",
    "PumpschedError",
    "PumpStationSpec",
    "RuleBasedController",
    "SchemaError",
    "StrategyReport",
    "TankSpec",
    "TariffSchedule",
    "TrainConfig",
    "TrainingError",
    "Trajectory",
    "ValidationError",
    "area_outside_boundary",
    "build_case_pool",
    "build_index",
    "compare",
    "demands_from_rng",
    "detect_violations",
    "episode_cost",
    "evaluate_strategies",
    "generate_history",
    "generate_synthetic_network",
    "init_policy",
    "inject",
    "load_checkpoint",
    "load_history",
    "load_network",
    "margins_for",
    "policy_act_fn",
    "recommend",
    "run_controlled_day",
    "sample_episode",
    "sample_operational_episode",
    "save_checkpoint",
    "save_history",
    "save_network",
    "simulate",
    "topology_from_dict",
    "topology_to_dict",
    "train",
    "violation_count",
]
