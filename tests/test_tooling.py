"""The benchmark's span tracer still fits the package it instruments."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import pumpsched
from pumpsched import simulate as simulate_module

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(module):
    return {k: v for k, v in vars(module).items() if inspect.isfunction(v)}


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
        demands = pumpsched.generate_demands(world, seed=0)
        pumpsched.simulate(world, world.initial_levels_array(), schedule, demands)
    assert (_functions(pumpsched), _functions(simulate_module)) == before

    names = [rec[0] for rec in tracer.spans]
    assert names.count("simulate.step") == 96
    assert spans.layer_metrics(tracer.spans)["simulate.step.calls"] == 96
