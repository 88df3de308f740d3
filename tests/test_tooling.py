"""The benchmark's span tracer still fits the package it instruments, the
package exports no name that it does not use itself and resolves each one
lazily, each CLI command loads only the layers it runs, and the CLI defines no
flag that its commands do not read."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pumpsched
from pumpsched import cli
from pumpsched import hybrid as hybrid_module

# The submodule: ``from pumpsched import simulate`` is the function.
simulate_module = importlib.import_module("pumpsched.simulate")

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(module):
    return {k: v for k, v in vars(module).items() if inspect.isfunction(v)}


# Names the tracer reads that the package no longer defines; their metrics
# read 0 until the benchmark stops reading them.
RETIRED = {"training._run_episode", "hybrid.predict_resume"}


def test_every_private_and_tagged_name_the_tracer_reads_exists():
    """``instrument`` skips a ``PRIVATE`` or ``TAGGERS`` name the package does
    not define, and the metric built on it reads 0 without a word, so every
    such name must resolve here but the ones listed as retired."""
    spans = _load_spans()
    names = {f"{layer}.{a}" for layer, attrs in spans.PRIVATE.items() for a in attrs}
    names |= set(spans.TAGGERS)
    missing = set()
    for name in names:
        layer, attr = name.split(".")
        if not hasattr(importlib.import_module(f"pumpsched.{layer}"), attr):
            missing.add(name)
    assert missing == RETIRED & names


def test_span_tracer_wraps_and_restores_the_package(world):
    """``bench/spans.py`` names classes and methods of the package by hand,
    so renaming one of them breaks the benchmark; entering and leaving its
    ``instrument`` context catches that here."""
    spans = _load_spans()
    before = (_functions(pumpsched), _functions(simulate_module))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert pumpsched.simulate is not before[0]["simulate"]
        schedule = np.full((96, world.n_stations), 0.5)
        demands = pumpsched.demands_from_rng(world, np.random.default_rng(0))
        pumpsched.simulate(world, world.compiled.initial_levels, schedule, demands)
    assert (_functions(pumpsched), _functions(simulate_module)) == before

    names = [rec[0] for rec in tracer.spans]
    assert names.count("simulate.step") == 96
    assert spans.layer_metrics(tracer.spans)["simulate.step.calls"] == 96


def test_span_tracer_times_every_hybrid_strategy(world, monkeypatch):
    """The benchmark times the strategies by their ``hybrid.strategy_*`` span
    names and the strategy tag of each result, and counts ``hybrid.inject``.
    Each case is rolled in one ``inject`` call, made by ``evaluate_strategies``
    itself, and only the two end searches run ``_best_end``, once per distinct
    winning start: dynamic_start_end reads dynamic_end's search when the hull
    start wins."""
    spans = _load_spans()
    archive = pumpsched.generate_history(world, days=40, seed=42)
    index = pumpsched.build_index(world, archive)
    # The hull start wins dynamic_start_end on the third case only.
    cases = pumpsched.build_case_pool(world, index, n_cases=3, seed=7)
    tracer = spans.Tracer()
    best_end, best_end_calls = hybrid_module._best_end, []

    def counted_best_end(*args):
        best_end_calls.append(len(tracer.spans))
        return best_end(*args)

    monkeypatch.setattr(hybrid_module, "_best_end", counted_best_end)
    with spans.instrument(tracer):
        report = pumpsched.evaluate_strategies(
            world, cases, lambda obs: np.full((len(obs), world.n_stations), 0.5)
        )
    records = tracer.spans
    strategies = {
        i: (rec[0].removeprefix("hybrid.strategy_"), rec[4])
        for i, rec in enumerate(records)
        if rec[0].startswith("hybrid.strategy_")
    }
    assert sorted(strategies.values()) == sorted(
        [
            ("dynamic_end", "dynamic_end"),
            ("dynamic_start_end", "dynamic_start_end"),
            ("targeted", "targeted"),
            ("untargeted", "untargeted_0_2"),
            ("untargeted", "untargeted_12_14"),
        ]
        * len(cases)
    )
    (evaluate,) = [
        i for i, rec in enumerate(records) if rec[0] == "hybrid.evaluate_strategies"
    ]
    injects = [i for i, rec in enumerate(records) if rec[0] == "hybrid.inject"]
    assert [records[i][3] for i in injects] == [evaluate] * len(cases)
    # Each case's inject comes before that case's five strategies.
    assert [sum(i < at for i in strategies) for at in injects] == [0, 5, 10]
    owners = [max(i for i in strategies if i < at) for at in best_end_calls]
    owner_names = [strategies[i][1] for i in owners]
    expected = []
    for case, outcome in zip(cases, report.outcomes["dynamic_start_end"]):
        expected.append("dynamic_end")
        if outcome.injection_start != case.hull[0]:
            expected.append("dynamic_start_end")
    assert owner_names == expected and len(expected) == 2 * len(cases) - 1

    metrics = spans.layer_metrics(records)
    assert metrics["hybrid.inject.calls"] == len(cases)
    for name in hybrid_module.STRATEGY_NAMES:
        assert metrics[f"hybrid.strategy.{name}.s_per_case"] > 0


def test_span_tracer_measures_a_training_iteration(tiny_world):
    """The benchmark's training metrics come from the ``collect_rollouts``
    span, tagged with the result's ``env_steps``, and from the traced ``nn``
    methods; a one-iteration run on the tiny world must produce all of them."""
    spans = _load_spans()
    spec = pumpsched.EnvSpec(topology=tiny_world)
    cfg = pumpsched.TrainConfig(total_env_steps=1, seed=0, batch_size=96)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = pumpsched.train(spec, cfg)
    assert [steps for steps, _ in result.curve] == [96]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["training.iterations"] == 1
    assert metrics["training.rollout_env_steps_per_s"] > 0
    # One batch of 96 transitions is one minibatch per epoch: an Adam step
    # and an actor and a critic backward pass each.
    names = [rec[0] for rec in tracer.spans]
    assert names.count("nn.Adam.step") == 4
    assert names.count("nn.MLP.backward") == 8


def _loaded_modules(code: str) -> list[str]:
    """The ``pumpsched`` and process pool modules a fresh process has loaded
    after running ``code``, whose output must end with them as a JSON list."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    listing = (
        "; import json, sys; print(json.dumps(sorted(m for m in sys.modules if "
        "m.startswith(('pumpsched', 'concurrent.futures', 'multiprocessing')))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code + listing], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


# What ``import pumpsched`` loads: it binds ``simulate`` at once (see its docstring).
BASE_LAYERS = [
    "pumpsched",
    "pumpsched.errors",
    "pumpsched.network",
    "pumpsched.simulate",
]


def test_cli_import_loads_no_process_pool_machinery():
    """Every CLI process pays for what ``import pumpsched.cli`` loads, and
    training runs in one process, so neither pool module belongs there; nor
    does any layer that not every command runs."""
    loaded = _loaded_modules("import pumpsched.cli")
    assert loaded == sorted([*BASE_LAYERS, "pumpsched.cli"])


def test_import_pumpsched_loads_only_the_simulator_and_its_inputs():
    assert _loaded_modules("import pumpsched") == BASE_LAYERS


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    """Each process runs one command and compiles the layers it imports, so a
    command that loads a layer it does not run makes every run of it slower;
    a stray top-level import in ``cli.py`` shows here."""
    out = tmp_path
    argvs = {
        "gen": ["gen", "--days", "30"],
        "train": ["train", "--network", out / "network.json", "--agent", "dual",
                  "--steps", "96", "--batch-size", "96"],
        "eval": ["eval", "--network", out / "network.json",
                 "--checkpoint", out / "checkpoint.json", "--episodes", "1"],
        "hybrid": ["hybrid", "--network", out / "network.json",
                   "--history", out / "history.csv",
                   "--checkpoint", out / "checkpoint.json", "--cases", "1"],
    }  # fmt: skip
    layers = {
        "gen": ["history"],
        "train": ["env", "metrics", "nn", "policy", "training"],
        "eval": ["env", "history", "metrics", "nn", "policy"],
        "hybrid": ["env", "history", "hybrid", "metrics", "nn", "policy", "query"],
    }
    for command, argv in argvs.items():
        argv = [*map(str, argv), "--out", str(out)]
        code = f"from pumpsched import cli; assert cli.main({argv!r}) == 0"
        expected = [*BASE_LAYERS, "pumpsched.cli"]
        expected += [f"pumpsched.{layer}" for layer in layers[command]]
        assert _loaded_modules(code) == sorted(expected), command


def test_package_exports_resolve_to_their_modules():
    """Each export is the object its layer modules bind to that name, and
    ``simulate`` stays the function after its submodule is imported again."""
    layers = [
        importlib.import_module(f"pumpsched.{path.stem}")
        for path in (ROOT / "src" / "pumpsched").glob("*.py")
        if path.stem != "__init__"
    ]
    for name in pumpsched.__all__:
        owners = [vars(m)[name] for m in layers if name in vars(m)]
        assert owners and all(o is getattr(pumpsched, name) for o in owners), name
    importlib.import_module("pumpsched.simulate")
    from pumpsched import simulate

    assert simulate is simulate_module.simulate
    with pytest.raises(AttributeError, match="no_such_name"):
        pumpsched.no_such_name  # noqa: B018


def test_every_exported_name_is_used_inside_the_package():
    """A public name that nothing in the package loads is code kept for the
    tests alone; ``__init__.py``'s own imports and ``__all__`` do not count."""
    loaded = set()
    for path in (ROOT / "src" / "pumpsched").glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            loaded |= {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
    assert set(pumpsched.__all__) - loaded == set()


def test_every_cli_flag_is_read_by_its_command():
    """A flag that no command reads as ``args.<dest>`` is a knob that does
    nothing, or a second path to values the commands read otherwise."""
    tree = ast.parse((ROOT / "src" / "pumpsched" / "cli.py").read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.ctx, ast.Load)
    }
    (commands,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    unread = {
        f"{name} {action.option_strings or action.dest}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        if not isinstance(action, (argparse._HelpAction, argparse._VersionAction))
        and action.dest not in read
    }
    assert unread == set()
