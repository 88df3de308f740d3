"""Pump scheduling for lumped water networks: simulate, learn, retrieve, repair.

Every name in ``__all__`` but ``simulate`` is resolved on first use (PEP 562),
so a process loads only the layers it touches. ``simulate`` is bound at once:
it is also the name of the submodule, which the import system would otherwise
leave bound here once anything imports ``pumpsched.simulate``.
"""

import importlib

from .simulate import simulate

__version__ = "0.1.0"

_EXPORTS = {
    "env": ("AgentKind", "sample_episode"),
    "errors": (
        "NumericError",
        "PumpschedError",
        "SchemaError",
        "TrainingError",
        "ValidationError",
    ),
    "history": (
        "HistoryArchive",
        "RuleBasedController",
        "generate_history",
        "load_history",
        "margins_for",
        "run_controlled_day",
        "sample_operational_episode",
        "save_history",
    ),
    "hybrid": (
        "HybridCase",
        "InjectionPlan",
        "StrategyReport",
        "build_case_pool",
        "detect_violations",
        "evaluate_strategies",
        "inject",
    ),
    "metrics": ("area_outside_boundary", "compare", "episode_cost", "violation_count"),
    "network": (
        "DEFAULT_IMPERFECTION",
        "DemandZoneSpec",
        "NetworkTopology",
        "PumpStationSpec",
        "TankSpec",
        "TariffSchedule",
        "demands_from_rng",
        "generate_synthetic_network",
        "load_network",
        "save_network",
        "topology_from_dict",
        "topology_to_dict",
    ),
    "policy": (
        "PolicyParameters",
        "init_policy",
        "load_checkpoint",
        "policy_act_fn",
        "save_checkpoint",
    ),
    "query": ("build_index", "recommend"),
    "simulate": ("Trajectory", "simulate"),
    "training": ("EnvSpec", "TrainConfig", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
