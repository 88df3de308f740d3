"""Tests of the benchmark itself: tiny runs, span arithmetic and failure counting.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from spans import Tracer, layer_metrics, layer_self_times, self_times
from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts and ratios of counts that later changes may claim on: they must
# repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = (
    "simulate.step.calls",
    "hybrid.inject.calls",
    "hybrid.predict_resume.calls",
    "hybrid.shift_hit_ratio",
    "hybrid.case_pool.accept_ratio",
    "training.iterations",
)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")  # fmt: skip
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "train_dual", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)  # fmt: skip
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    wl, sizes, env = WORKLOADS[workload], SIZES["tiny"], bench.child_env()
    inputs = tmp_path / "inputs"
    tally = bench.Tally()
    for i, argv in enumerate(wl.setup(inputs, 1, sizes)):
        assert tally.record(bench.run_cli(argv, tmp_path / f"setup{i}.log", env))
    counts = []
    for k in range(2):
        spans, _, _ = bench.traced_pass(wl, inputs, 1, sizes, tmp_path / f"traced{k}")
        metrics = layer_metrics(spans)
        counts.append({name: metrics[name] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["simulate.step.calls"] > 0
    if workload == "hybrid_repair":
        assert counts[0]["hybrid.inject.calls"] > 0
    if workload == "train_dual":
        assert counts[0]["training.iterations"] == 1


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, None],
        ["grandchild", 2.0, 3.0, 1, None],
        ["child", 5.0, 6.0, 0, None],
        ["overlap", 20.0, 30.0, -1, None],
        ["a", 19.0, 25.0, 4, None],  # starts before its parent: clipped
        ["b", 24.0, 27.0, 4, None],  # overlaps its sibling: counted once
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 3.0, 6.0, 3.0])


def test_tracer_records_nesting_and_layer_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("simulate.step", lambda: None)
    outer = tracer.wrap("env.PumpSchedulingEnv.step", lambda: inner())
    outer()
    outer()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("env.PumpSchedulingEnv.step", -1),
        ("simulate.step", 0),
        ("env.PumpSchedulingEnv.step", -1),
        ("simulate.step", 2),
    ]
    metrics = layer_metrics(tracer.spans)
    assert metrics["simulate.step.calls"] == 2
    assert metrics["simulate.self_s"] == 2.0  # two 1-tick inner spans
    assert metrics["env.self_s"] == 4.0  # two 3-tick outer spans less children


def test_fail_rate_counts_a_failing_command(tmp_path):
    env, tally = bench.child_env(), bench.Tally()
    gen = bench.run_cli(
        ["gen", "--days", "1", "--out", str(tmp_path / "gen")], tmp_path / "gen.log", env
    )
    missing = bench.run_cli(
        [
            "eval", "--network", str(tmp_path / "gen" / "network.json"),
            "--checkpoint", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "eval"),
        ],  # fmt: skip
        tmp_path / "eval.log",
        env,
    )
    assert tally.record(gen)
    assert not tally.record(missing)
    assert missing.returncode == 2
    assert (tally.attempted, tally.failed, tally.fail_rate) == (2, 1, 0.5)


def test_layer_self_time_keeps_same_layer_children():
    spans = [
        ["env.PumpSchedulingEnv.step", 0.0, 10.0, -1, None],
        ["simulate.step", 1.0, 4.0, 0, None],
        ["env.reward_dual", 5.0, 8.0, 0, None],
        ["policy.forward_batch", 6.0, 7.0, 2, None],
    ]
    assert layer_self_times(spans) == pytest.approx([6.0, 3.0, 2.0, 1.0])
    metrics = layer_metrics(spans)
    assert metrics["env.step.self_us_p50"] == pytest.approx(6.0e6)
    assert metrics["env.self_s"] == pytest.approx(6.0)
