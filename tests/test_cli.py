"""The command line contract, exercised through real ``pumpsched`` processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pumpsched.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """gen, a one-iteration dual training run, eval, hybrid and report.

    Seed 2 with a 120-day archive samples a hybrid case whose retrieved
    schedule violates the bounds only at the final state.
    """
    out = tmp_path_factory.mktemp("run")
    common = ("--seed", 2, "--out", out)
    network = ("--network", out / "network.json")
    checkpoint = ("--checkpoint", out / "checkpoint.json")
    results = {
        "gen": run_cli("gen", "--days", 120, *common),
        "train": run_cli(
            "train", *network, "--agent", "dual",
            "--steps", 960, "--batch-size", 960, *common,
        ),
        "eval": run_cli("eval", *network, *checkpoint, "--episodes", 1, *common),
        "hybrid": run_cli(
            "hybrid", *network, "--history", out / "history.csv", *checkpoint,
            "--cases", 2, *common,
        ),
        "report": run_cli("report", "--out", out),
    }
    return out, results


ARTIFACTS = {
    "gen": ("network.json", "history.csv", "demands.csv"),
    "train": ("checkpoint.json", "reward_curve.csv"),
    "eval": ("comparison.csv", "comparison.json"),
    "hybrid": ("strategy_report.json", "strategy_report.csv"),
    "report": (),
}


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_command_exits_zero_and_writes_artifacts(workflow, command):
    out, results = workflow
    result = results[command]
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    for name in ARTIFACTS[command]:
        assert (out / name).stat().st_size > 0, name


def test_hybrid_repairs_a_final_state_only_violation(workflow):
    out, results = workflow
    assert results["hybrid"].returncode == 0, results["hybrid"].stderr
    report = json.loads((out / "strategy_report.json").read_text())
    targeted = next(s for s in report if s["strategy"] == "targeted")
    final_only = [c for c in targeted["cases"] if c["during_states"] == [96, 96]]
    assert final_only and all(c["injection_start"] == 95 for c in final_only)


def test_missing_checkpoint_exits_two(workflow, tmp_path):
    out, _ = workflow
    result = run_cli(
        "eval", "--network", out / "network.json",
        "--checkpoint", tmp_path / "missing.json", "--out", tmp_path,
    )
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1


def _edit(obj, where, value):
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value


def _bad_network(where=None, value=None, steps=96):
    """``train`` on the workflow's network.json with one field replaced."""

    def build(out, tmp_path):
        doc = json.loads((out / "network.json").read_text())
        if where is not None:
            _edit(doc, where, value)
        network = tmp_path / "network.json"
        network.write_text(json.dumps(doc))
        return (
            "train", "--network", network, "--steps", steps, "--batch-size", 96,
            "--out", tmp_path,
        )

    return build


def _bad_artifact(name, text):
    """``report`` on a directory holding one hand-written artifact."""

    def build(out, tmp_path):
        (tmp_path / name).write_text(text)
        return ("report", "--out", tmp_path)

    return build


def _bad_checkpoint(edit):
    """``eval`` with the workflow's checkpoint.json edited in place by ``edit``."""

    def build(out, tmp_path):
        doc = json.loads((out / "checkpoint.json").read_text())
        edit(doc)
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        return (
            "eval", "--network", out / "network.json", "--checkpoint", checkpoint,
            "--episodes", 1, "--out", tmp_path,
        )

    return build


def _narrow_first_hidden_layer(doc):
    actor = doc["actor"]
    actor["weights"][0] = [row[:-1] for row in actor["weights"][0]]
    actor["biases"][0] = actor["biases"][0][:-1]


BAD_INPUTS = {
    "text_tariff": _bad_network(("tariff", 5), "cheap"),
    "tanks_not_a_list": _bad_network(("tanks",), 5),
    "infinite_max_flow": _bad_network(("stations", 0, "max_flow"), float("inf")),
    "hourly_dt": _bad_network(("dt_hours",), 1.0),
    "zero_steps": _bad_network(steps=0),
    "malformed_manifest": _bad_artifact("manifest.json", '{"command": '),
    "text_reward": _bad_artifact("reward_curve.csv", "steps,mean_reward\n96,abc\n"),
    "short_reward_row": _bad_artifact("reward_curve.csv", "steps,mean_reward\n96\n"),
    "comparison_of_numbers": _bad_artifact("comparison.json", "[1, 2]"),
    "comparison_text_area": _bad_artifact(
        "comparison.json", '[{"label": "policy", "mean_area": "low"}]'
    ),
    "strategy_report_of_strings": _bad_artifact(
        "strategy_report.json", '["targeted", "dynamic_end"]'
    ),
    "text_log_sigma": _bad_checkpoint(
        lambda doc: doc.update(log_sigma=["wide"] * len(doc["log_sigma"]))
    ),
    "short_log_sigma": _bad_checkpoint(
        lambda doc: doc.update(log_sigma=doc["log_sigma"][:-1])
    ),
    "unchained_hidden_layers": _bad_checkpoint(_narrow_first_hidden_layer),
    "unknown_agent": _bad_checkpoint(lambda doc: doc["meta"].update(agent="greedy")),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_one_with_a_one_line_error(workflow, tmp_path, case):
    out, _ = workflow
    argv = BAD_INPUTS[case](out, tmp_path)
    before = sorted(tmp_path.iterdir())
    result = run_cli(*argv)
    assert result.returncode == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert sorted(tmp_path.iterdir()) == before  # the command wrote nothing
