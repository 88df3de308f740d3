"""Span tracing of the pumpsched layers, applied from outside the package.

``instrument(tracer)`` replaces the public functions of every layer module
(and a few methods and private helpers named below) with wrappers that record
a span: name, start, end, parent span and an optional tag taken from the
call's result. A function imported by name into another module (``step`` into
``env``, ``history`` and ``hybrid``; ``load_history`` into ``cli``; ...) is
rebound there too, so every call site is traced. Everything is restored when
the context exits.

``layer_metrics(spans)`` turns the spans into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "network",
    "simulate",
    "env",
    "policy",
    "nn",
    "training",
    "history",
    "query",
    "hybrid",
    "metrics",
)

# Private helpers worth a span of their own: the command bodies and the
# per-episode rollout loop.
PRIVATE = {
    "cli": ("_cmd_gen", "_cmd_train", "_cmd_eval", "_cmd_hybrid"),
    "training": ("_run_episode",),
}

# Methods traced on classes, by layer and class name.
METHODS = {
    "env": {"PumpSchedulingEnv": ("reset", "step", "trajectory")},
    "nn": {"MLP": ("forward", "backward"), "Adam": ("step",)},
    "history": {"RuleBasedController": ("act",)},
}

STRATEGY_NAMES = (  # pumpsched.hybrid.STRATEGY_NAMES, in report order
    "untargeted_0_2",
    "untargeted_12_14",
    "targeted",
    "dynamic_end",
    "dynamic_start_end",
)

# Tags recorded from a call's positional arguments and result, by span name.
TAGGERS = {
    "hybrid.predict_resume": lambda args, result: bool(result[1]),  # used_shift
    "hybrid.strategy_untargeted": lambda args, result: result.strategy,
    "hybrid.strategy_targeted": lambda args, result: result.strategy,
    "hybrid.strategy_dynamic_end": lambda args, result: result.strategy,
    "hybrid.strategy_dynamic_start_end": lambda args, result: result.strategy,
    "hybrid.build_case_pool": lambda args, result: len(result),
    "hybrid.evaluate_strategies": lambda args, result: result.n_cases,
    "training.collect_rollouts": lambda args, result: result.env_steps,
    "history.generate_history": lambda args, result: result.n_days,
    "history.save_history": lambda args, result: os.path.getsize(args[1]),
    "history.load_history": lambda args, result: os.path.getsize(args[0]),
}


class Tracer:
    """In-memory span recorder for one thread.

    Each span is a list ``[name, start, end, parent, tag]``; ``parent`` is the
    index of the enclosing span or -1, ``tag`` is None unless a tagger set it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tagger=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tagger is not None:
                rec[4] = tagger(args, result)
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every layer of the imported ``pumpsched`` package."""
    modules = {layer: importlib.import_module(f"pumpsched.{layer}") for layer in LAYERS}
    package = importlib.import_module("pumpsched")
    wrappers = {}  # original function -> wrapper
    undo = []  # (owner, attribute, original)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = tracer.wrap(name, obj, TAGGERS.get(name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", original))

    # Rebind each wrapped function wherever the package holds a reference.
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------------
# Span arithmetic


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time spent in other layers below it.

    Time in a same-layer child stays (``env.PumpSchedulingEnv.step`` keeps
    ``env.reward_dual``); time in the first other-layer span down each chain
    goes (it loses ``simulate.step``).
    """
    elsewhere = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children follow their parents
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            same = name.split(".", 1)[0] == spans[parent][0].split(".", 1)[0]
            elsewhere[parent] += elsewhere[i] if same else end - start
    return [(rec[2] - rec[1]) - away for rec, away in zip(spans, elsewhere)]


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced pass; 0 where a layer was not called.

    ``<fn>.s`` is seconds per call, ``<fn>.us_p50`` and the like are
    percentiles of the call's inclusive time, ``<layer>.self_s`` is the
    layer's total self time.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    in_layer: dict[str, list[float]] = defaultdict(list)
    tags: dict[str, list] = defaultdict(list)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for rec, own, mine in zip(spans, self_times(spans), layer_self_times(spans)):
        name = rec[0]
        durations[name].append(rec[2] - rec[1])
        in_layer[name].append(mine)
        self_by_layer[name.split(".", 1)[0]] += own
        if rec[4] is not None:
            tags[name].append((rec[4], rec[2] - rec[1]))

    def total(name):
        return sum(durations[name])

    def per_call(name):
        return _ratio(total(name), len(durations[name]))

    def p50(name, scale):
        return _quantile(durations[name], 0.5) * scale

    m: dict[str, float] = {}
    m["simulate.step.calls"] = len(durations["simulate.step"])
    m["simulate.step.us_p50"] = p50("simulate.step", 1e6)
    m["simulate.step.us_p99"] = _quantile(durations["simulate.step"], 0.99) * 1e6
    m["simulate.simulate.ms_p50"] = p50("simulate.simulate", 1e3)
    m["env.step.self_us_p50"] = (
        _quantile(in_layer["env.PumpSchedulingEnv.step"], 0.5) * 1e6
    )
    m["env.sample_operational_episode.ms_p50"] = p50(
        "env.sample_operational_episode", 1e3
    )
    m["policy.forward_batch.us_p50"] = p50("policy.forward_batch", 1e6)
    m["policy.deterministic_action.us_p50"] = p50("policy.deterministic_action", 1e6)

    iterations = len(durations["training.collect_rollouts"])
    rollout_steps = sum(steps for steps, _ in tags["training.collect_rollouts"])
    collect_s = total("training.collect_rollouts")
    update_s = total("training.ppo_update")
    m["training.iterations"] = iterations
    m["training.collect_rollouts.s"] = per_call("training.collect_rollouts")
    m["training.rollout_env_steps_per_s"] = _ratio(rollout_steps, collect_s)
    m["training.ppo_update.s_per_iter"] = _ratio(update_s, iterations)
    m["training.update_share"] = _ratio(update_s, total("training.train"))
    m["training.train.env_steps_per_s"] = _ratio(
        rollout_steps, total("training.train")
    )
    m["training.episode.ms_p50"] = p50("training._run_episode", 1e3)

    days = sum(n for n, _ in tags["history.generate_history"])
    m["history.generate_history.ms_per_day"] = _ratio(
        total("history.generate_history") * 1e3, days
    )
    m["history.run_controlled_day.ms_p50"] = p50("history.run_controlled_day", 1e3)
    for io in ("save_history", "load_history"):
        name = f"history.{io}"
        size = sum(b for b, _ in tags[name])
        m[f"{name}.s"] = per_call(name)
        m[f"{name}.mb_per_s"] = _ratio(size / 1e6, total(name))

    m["query.build_index.s"] = per_call("query.build_index")
    m["query.recommend.us_p50"] = p50("query.recommend", 1e6)

    cases = sum(n for n, _ in tags["hybrid.evaluate_strategies"])
    m["hybrid.build_case_pool.s"] = per_call("hybrid.build_case_pool")
    m["hybrid.case_pool.accept_ratio"] = _ratio(
        sum(n for n, _ in tags["hybrid.build_case_pool"]),
        len(durations["query.recommend"]),
    )
    m["hybrid.inject.calls"] = len(durations["hybrid.inject"])
    m["hybrid.inject.ms_p50"] = p50("hybrid.inject", 1e3)
    resumes = tags["hybrid.predict_resume"]
    m["hybrid.predict_resume.calls"] = len(resumes)
    m["hybrid.shift_hit_ratio"] = _ratio(sum(hit for hit, _ in resumes), len(resumes))
    per_strategy = defaultdict(float)
    for fn in ("untargeted", "targeted", "dynamic_end", "dynamic_start_end"):
        for strategy, seconds in tags[f"hybrid.strategy_{fn}"]:
            per_strategy[strategy] += seconds
    for strategy in STRATEGY_NAMES:
        m[f"hybrid.strategy.{strategy}.s_per_case"] = _ratio(
            per_strategy[strategy], cases
        )
    m["hybrid.evaluate_strategies.s_per_case"] = _ratio(
        total("hybrid.evaluate_strategies"), cases
    )

    for layer, seconds in self_by_layer.items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(spans)
    return m

