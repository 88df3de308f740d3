"""The command line contract, exercised through real ``pumpsched`` processes."""

import hashlib
import json
import os
import shutil
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
    "gen": ("network.json", "history.csv", "history.csv.arrays", "demands.csv"),
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


# SHA-256 of each canonical artifact the workflow writes, recorded with
# numpy 2.4.6 on x86-64. A refactor that keeps them all is
# byte-identical end to end.
WORKFLOW_DIGESTS = {
    "network.json": "d2c12fef163ed33d118b8df404c1616d265c307298ad688732c4a182c33c7a13",
    "history.csv": "25239ee406e601c6a3fa71355acc1e4ba71bcbedba8d1b31332890f9f47f22f8",
    "checkpoint.json": "72302aa56ef587818b6a9dc48d6310e12629e16ec28dcc81d17c18bb53a60c1c",
    "reward_curve.csv": "8a3eba9a0df9ef338aa2320bd335d893f47e5e4ce332b061894e9cacc11dedc0",
    "comparison.csv": "283e1e4a6835c4f4ab12805a89716ac6ed4ff56070850ff3db6f1e3fcaf54f32",
    "comparison.json": "ab64e1f87c9094bc6120cf0b0e6f7c4a4568294e01756dd9f8e9c034d0a23188",
    "strategy_report.csv": "9cd0dbd60869876445e71091a4890e348edae6bd303fb156c185f021979b9516",
    "strategy_report.json": "d951da524a8e9e17a9d0d8a4a75dda22917ee70a0c7c97e9f12d4f11ef386b07",
}


def test_workflow_artifacts_match_recorded_digests(workflow):
    out, _ = workflow
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in WORKFLOW_DIGESTS
    }
    assert digests == WORKFLOW_DIGESTS


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


def test_train_artifacts_do_not_depend_on_workers(workflow, tmp_path):
    """``--workers`` is accepted but has no effect on what ``train`` writes."""
    out, _ = workflow
    for workers in (1, 2):
        result = run_cli(
            "train", "--network", out / "network.json", "--agent", "dual",
            "--steps", 192, "--batch-size", 96, "--seed", 2,
            "--workers", workers, "--out", tmp_path / str(workers),
        )  # fmt: skip
        assert result.returncode == 0, result.stderr
    for name in ARTIFACTS["train"]:
        assert (tmp_path / "1" / name).read_bytes() == (
            tmp_path / "2" / name
        ).read_bytes(), name


def test_numeric_failure_in_train_prints_one_line(workflow, tmp_path):
    out, _ = workflow
    result = run_cli(
        "train", "--network", out / "network.json", "--agent", "dual",
        "--steps", 96, "--batch-size", 96, "--learning-rate", 1e300,
        "--out", tmp_path,
    )  # fmt: skip
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "numeric error: non-finite gradient during update"
    ]


def test_hybrid_rejects_an_edited_history_beside_its_stale_companion(
    workflow, tmp_path
):
    out, _ = workflow
    for name in ("history.csv", "history.csv.arrays"):
        shutil.copyfile(out / name, tmp_path / name)
    history = tmp_path / "history.csv"
    lines = history.read_bytes().split(b"\r\n")
    row = lines[1].split(b",")
    row[lines[0].split(b",").index(b"action_1")] = b"1.5"
    lines[1] = b",".join(row)
    history.write_bytes(b"\r\n".join(lines))
    result = run_cli(
        "hybrid", "--network", out / "network.json", "--history", history,
        "--checkpoint", out / "checkpoint.json", "--seed", 2, "--cases", 1,
        "--out", tmp_path / "out",
    )  # fmt: skip
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: {history} row 2: action outside [0, 1]"
    ]


def _edit(obj, where, value):
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value


def _bad_network(where=None, value=None, steps=96, extra=()):
    """``train`` on the workflow's network.json with one field replaced and
    ``extra`` flags appended."""

    def build(out, tmp_path):
        doc = json.loads((out / "network.json").read_text())
        if where is not None:
            _edit(doc, where, value)
        network = tmp_path / "network.json"
        network.write_text(json.dumps(doc))
        return (
            "train", "--network", network, "--steps", steps, "--batch-size", 96,
            "--out", tmp_path / "out", *extra,
        )

    return build


def _bad_artifact(name, text):
    """``report`` on a directory holding one hand-written artifact."""

    def build(out, tmp_path):
        (tmp_path / name).write_text(text)
        return ("report", "--out", tmp_path)

    return build


def _bad_checkpoint(edit, command="eval"):
    """``command`` with the workflow's checkpoint.json edited by ``edit``."""

    def build(out, tmp_path):
        doc = json.loads((out / "checkpoint.json").read_text())
        edit(doc)
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        inputs = _inputs(out, command, {"--checkpoint"})
        return (
            command, *inputs, "--checkpoint", checkpoint, "--out", tmp_path / "out",
        )

    return build


def _not_utf8(flag):
    """``hybrid`` on the workflow's inputs with ``flag``'s file broken mid-way
    by a byte that is not UTF-8 (``--config`` gets a JSON object so broken)."""

    def build(out, tmp_path):
        inputs = {
            "--network": out / "network.json",
            "--history": out / "history.csv",
            "--checkpoint": out / "checkpoint.json",
        }
        data = inputs[flag].read_bytes() if flag in inputs else b'{"cases": 1}'
        half = len(data) // 2
        inputs[flag] = tmp_path / "not_utf8"
        inputs[flag].write_bytes(data[:half] + b"\xff" + data[half:])
        flags = [item for pair in inputs.items() for item in pair]
        return (
            "hybrid", *flags, "--seed", 2, "--cases", 1, "--out", tmp_path / "out",
        )

    return build


def _inputs(out, command, skip=()):
    """Flags that run ``command`` on the workflow's inputs, minus ``skip``."""
    flags = {
        "gen": {"--days": 1},
        "eval": {"--network": out / "network.json",
                 "--checkpoint": out / "checkpoint.json", "--episodes": 1},
        "hybrid": {"--network": out / "network.json",
                   "--history": out / "history.csv",
                   "--checkpoint": out / "checkpoint.json", "--cases": 1},
    }[command]  # fmt: skip
    return tuple(x for flag, v in flags.items() if flag not in skip for x in (flag, v))


def _with(command, flag, value):
    """``command`` on the workflow's inputs with ``flag`` set to ``value``."""

    def build(out, tmp_path):
        inputs = _inputs(out, command, {flag})
        return (command, *inputs, flag, value, "--out", tmp_path / "out")

    return build


def _bad_config(command, doc):
    """``command`` on the workflow's inputs with the flag defaults ``doc`` from
    ``--config``; the flags ``doc`` sets are left off the command line."""

    def build(out, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        skip = {"--" + key.replace("_", "-") for key in doc}
        inputs = _inputs(out, command, skip)
        return (command, *inputs, "--config", config, "--out", tmp_path / "out")

    return build


def _gen_days(days):
    """``gen`` of ``days`` days into a directory that does not exist yet."""

    def build(out, tmp_path):
        return ("gen", "--days", days, "--out", tmp_path / "gen")

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
    "frame_skip_zero": _bad_network(extra=("--frame-skip", 0)),
    "frame_skip_negative": _bad_network(extra=("--frame-skip", -3)),
    "frame_skip_not_dividing_the_day": _bad_network(extra=("--frame-skip", 7)),
    "learning_rate_nan": _bad_network(extra=("--learning-rate", "nan")),
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
    "checkpoint_frame_skip_zero": _bad_checkpoint(
        lambda doc: doc["meta"].update(frame_skip=0)
    ),
    "hybrid_constraint_checkpoint": _bad_checkpoint(
        lambda doc: doc["meta"].update(agent="constraint"), "hybrid"
    ),
    "non_utf8_network": _not_utf8("--network"),
    "non_utf8_history": _not_utf8("--history"),
    "non_utf8_checkpoint": _not_utf8("--checkpoint"),
    "non_utf8_config": _not_utf8("--config"),
    # numpy rejects these archive sizes before allocating anything
    "gen_days_beyond_int64": _gen_days(10**20),
    "gen_days_too_big_to_allocate": _gen_days(10**17),
    "gen_zero_workers": _with("gen", "--workers", 0),
    "eval_zero_workers": _with("eval", "--workers", 0),
    "hybrid_zero_workers": _with("hybrid", "--workers", 0),
    "hybrid_zero_workers_from_config": _bad_config("hybrid", {"workers": 0}),
    "eval_zero_episodes": _with("eval", "--episodes", 0),
    "hybrid_zero_cases": _with("hybrid", "--cases", 0),
    "train_zero_workers": _bad_network(extra=("--workers", 0)),
    "eval_fractional_episodes_from_config": _bad_config("eval", {"episodes": 1.5}),
    "gen_fractional_days_from_config": _bad_config("gen", {"days": 2.5}),
    "hybrid_bool_cases_from_config": _bad_config("hybrid", {"cases": True}),
    "hybrid_text_workers_from_config": _bad_config("hybrid", {"workers": "2"}),
    "gen_text_imperfection_from_config": _bad_config("gen", {"imperfection": "x"}),
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
