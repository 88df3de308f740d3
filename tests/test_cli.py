"""The command line contract, exercised through real ``pumpsched`` processes."""

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    DEFAULT_IMPERFECTION,
    AgentKind,
    cli,
    save_checkpoint,
    save_network,
)
from pumpsched.env import closed_loop
from pumpsched.history import BURN_DAYS
from pumpsched.hybrid import (
    STRATEGY_NAMES,
    CaseOutcome,
    StrategyReport,
    save_strategy_report_json,
)
from pumpsched.metrics import compare, save_comparison_json
from pumpsched.policy import init_policy, policy_act_fn

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
    "gen": ("network.json", "history.csv", "history.csv.arrays"),
    "train": ("checkpoint.json", "checkpoint.json.arrays", "reward_curve.csv"),
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


# SHA-256 of each canonical artifact the workflow writes and of the binary
# files beside history.csv and checkpoint.json, recorded with numpy 2.4.6 on
# x86-64. A refactor that keeps them all is byte-identical end to end. The
# dual artifacts, checkpoint.json on, were recorded for the 8-input dual
# observation (levels, clock, current price), and the checkpoint's two files
# for version 2: the vector only in checkpoint.json.arrays, whose SHA-256 the
# shapes-only checkpoint.json records. The two reports, comparison.csv on,
# were recorded for percentages that all read (value - reference) /
# reference, pooled in the strategy report.
WORKFLOW_DIGESTS = {
    "network.json": "d2c12fef163ed33d118b8df404c1616d265c307298ad688732c4a182c33c7a13",
    "history.csv": "25239ee406e601c6a3fa71355acc1e4ba71bcbedba8d1b31332890f9f47f22f8",
    "history.csv.arrays": "9f320d1316acdd009a9d06a0c14117afeb11b690ce55dc67aa46603d633a9094",
    "checkpoint.json": "71cac2884bd0dbe1fced7c3ef61673aafda22c4c42ff5a4884b5063e67af00b9",
    "checkpoint.json.arrays": "9cef759f9b76025b7ecd37a3f7aef1f8af09a103a4e81e2c71c6c55a1649ce1e",
    "reward_curve.csv": "bdd77493ce8548379aab8c1f56a9a8ae4dc9f421fd433b25c93480f529878067",
    "comparison.csv": "a4785b0a8accd32070069a6650125d211af527b403d7113a4b205a443c85cbfe",
    "comparison.json": "5b8d8c4a73d22b16bb2c412be367b1c5ed27a3d9b6b1a910dbfad3f273a7c26f",
    "strategy_report.csv": "769fbd07af2b23d7e501eb404eabd5e8f6e50a36adfc14b2f71b042fa1894042",
    "strategy_report.json": "1f8b7ce4820447c4a15f7c8e0b56603cd5253922cc739cb78df0a1a5f75204b5",
}


def test_workflow_artifacts_match_recorded_digests(workflow):
    out, _ = workflow
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in WORKFLOW_DIGESTS
    }
    assert digests == WORKFLOW_DIGESTS


# SHA-256 of a three-iteration constraint run with frame skip 4, recorded as
# above. Batch 150 rolls 7 episodes of 24 decisions, 168 transitions, so each
# epoch ends on a short minibatch of 40; Adam's moments carry across the
# iterations and every lane draws a 24-decision day of noise.
MULTI_ITERATION_DIGESTS = {
    "checkpoint.json": "a4586e1f9d7222d22c87b364990b7b75f0ee82f50e289b07e84a7ec88da6de58",
    "checkpoint.json.arrays": "b354e06f80df45f660710ebb373b1bbcf92fc69f2d1eb626da237f9c4640ad16",
    "reward_curve.csv": "88b8a91d60ed3cb0325ee2f0d27354c2b0f9d7cfedc1522648efd20fbc411eb5",
}

# SHA-256 of a two-iteration dual run, recorded as above. Batch 960 rolls 10
# whole days, so each epoch ends on a short minibatch of 64 rows.
DUAL_TAIL_DIGESTS = {
    "checkpoint.json": "9ae1d592274778ed3bf8004a0776b3f925645fa4b9f0d11a94838679e6cd2111",
    "checkpoint.json.arrays": "8c51fe5374034b111e21f38b81eb0584e2c5779370329818775d3db4e29df8d2",
    "reward_curve.csv": "5842b2d8b0b41b5bb46ef7d830833cde6b4e9e4b8c8423d3fec593f91553f64d",
}


def _train_digests(world, out, *argv):
    """Run ``train`` on ``world`` into ``out``; the SHA-256 of its artifacts
    and the steps column of its reward curve."""
    save_network(world, out / "network.json")
    argv = ["train", "--network", out / "network.json", *argv, "--out", out]
    assert cli.main(list(map(str, argv))) == 0
    curve = (out / "reward_curve.csv").read_text().splitlines()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in MULTI_ITERATION_DIGESTS
    }
    return digests, [row.split(",")[0] for row in curve[1:]]


def test_multi_iteration_training_matches_recorded_digests(world, tmp_path):
    digests, steps = _train_digests(
        world, tmp_path, "--agent", "constraint", "--frame-skip", 4,
        "--steps", 3 * 7 * 96, "--batch-size", 150, "--seed", 5,
    )  # fmt: skip
    assert steps == ["672", "1344", "2016"]
    assert digests == MULTI_ITERATION_DIGESTS


def test_dual_training_with_a_short_last_minibatch_matches_recorded_digests(
    world, tmp_path
):
    digests, steps = _train_digests(
        world, tmp_path, "--agent", "dual", "--batch-size", 960, "--steps", 1920,
        "--seed", 3,
    )  # fmt: skip
    assert steps == ["960", "1920"]
    assert digests == DUAL_TAIL_DIGESTS


def test_hybrid_repairs_a_final_state_only_violation(workflow):
    out, results = workflow
    assert results["hybrid"].returncode == 0, results["hybrid"].stderr
    report = json.loads((out / "strategy_report.json").read_text())
    targeted = next(s for s in report if s["strategy"] == "targeted")
    final_only = [c for c in targeted["cases"] if c["during_states"] == [96, 96]]
    assert final_only and all(c["injection_start"] == 95 for c in final_only)


def test_missing_checkpoint_exits_two(workflow, tmp_path):
    """A missing checkpoint.json, or one whose arrays file is missing, is a
    file error."""
    out, _ = workflow
    shutil.copyfile(out / "checkpoint.json", tmp_path / "no_arrays.json")
    for checkpoint in ("missing.json", "no_arrays.json"):
        result = run_cli(
            "eval", "--network", out / "network.json",
            "--checkpoint", tmp_path / checkpoint, "--out", tmp_path / "out",
        )  # fmt: skip
        assert result.returncode == 2, checkpoint
        assert len(result.stderr.strip().splitlines()) == 1, checkpoint


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


def test_eval_and_hybrid_reject_an_edited_checkpoint_beside_its_stale_companion(
    workflow, tmp_path
):
    out, _ = workflow
    for name in ("checkpoint.json", "checkpoint.json.arrays"):
        shutil.copyfile(out / name, tmp_path / name)
    checkpoint = tmp_path / "checkpoint.json"
    doc = json.loads(checkpoint.read_text())
    doc["log_sigma"] = ["wide"]
    checkpoint.write_text(json.dumps(doc) + "\n")
    for command in ("eval", "hybrid"):
        inputs = _inputs(out, command, {"--checkpoint"})
        result = run_cli(
            command, *inputs, "--checkpoint", checkpoint, "--seed", 2,
            "--out", tmp_path / command,
        )  # fmt: skip
        assert result.returncode == 1, command
        assert result.stderr.splitlines() == [
            f"error: {checkpoint}: log_sigma: expected a shape, a length-1 list "
            "of positive integers"
        ], command


def test_manifests_list_the_companion_and_time_each_phase(workflow, tmp_path, capsys):
    """``train`` lists the checkpoint's companion; ``gen``, ``train``, ``eval``
    and ``hybrid`` time their phases, in run order, inside the wall clock;
    ``train`` also sums its collection and update seconds; and ``report``
    prints all of them if present."""
    out, results = workflow
    argv = ["gen", "--days", 2, "--out", tmp_path / "gen"]
    assert cli.main(list(map(str, argv))) == 0
    argv = [
        "train", "--network", out / "network.json", "--agent", "dual",
        "--steps", 96, "--batch-size", 96, "--out", tmp_path / "train",
    ]  # fmt: skip
    assert cli.main(list(map(str, argv))) == 0
    argv = [
        "eval", "--network", out / "network.json", "--episodes", 1,
        "--checkpoint", tmp_path / "train" / "checkpoint.json",
        "--out", tmp_path / "eval",
    ]  # fmt: skip
    assert cli.main(list(map(str, argv))) == 0
    manifests = {
        name: json.loads((path / "manifest.json").read_text())
        for name, path in (
            ("gen", tmp_path / "gen"), ("train", tmp_path / "train"),
            ("eval", tmp_path / "eval"), ("hybrid", out),
        )
    }  # fmt: skip
    assert manifests["train"]["artifacts"]["checkpoint_arrays"] == (
        "checkpoint.json.arrays"
    )
    assert list(manifests["gen"]["phase_seconds"]) == ["generate", "write_artifacts"]
    assert list(manifests["train"]["phase_seconds"]) == [
        "load_network", "train", "write_artifacts"
    ]  # fmt: skip
    assert list(manifests["eval"]["phase_seconds"]) == [
        "load_network", "load_checkpoint", "score", "write_artifacts"
    ]  # fmt: skip
    assert list(manifests["hybrid"]["phase_seconds"]) == [
        "load_network", "load_history", "load_checkpoint", "repair",
        "write_artifacts",
    ]  # fmt: skip
    for manifest in manifests.values():
        phases = manifest["phase_seconds"].values()
        assert min(phases) >= 0
        assert sum(phases) <= manifest["wall_clock_seconds"] + 1e-3
    # Training's collection and update time, summed over iterations, lie
    # inside its phase; only train's manifest has them.
    parts = manifests["train"]["train_seconds"]
    assert list(parts) == ["collect", "update"] and min(parts.values()) > 0
    assert sum(parts.values()) <= manifests["train"]["phase_seconds"]["train"] + 1e-3
    assert all("train_seconds" not in m for c, m in manifests.items() if c != "train")

    printed = results["report"].stdout.splitlines()
    assert [line for line in printed if line.startswith("  phase ")] == [
        f"  phase {name}: {seconds:.4f}s"
        for name, seconds in manifests["hybrid"]["phase_seconds"].items()
    ]
    capsys.readouterr()
    assert cli.main(["report", "--out", str(tmp_path / "train")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if "phase" in line] == [
        f"  phase {name}: {seconds:.4f}s"
        for name, seconds in manifests["train"]["phase_seconds"].items()
    ]
    assert [line for line in printed if line.startswith("  train ")] == [
        f"  train {name}: {seconds:.4f}s" for name, seconds in parts.items()
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
    """``report`` on a directory holding one hand-written artifact, ``text``
    or, given bytes, those bytes."""

    def build(out, tmp_path):
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / name).write_bytes(data)
        return ("report", "--out", tmp_path)

    return build


def _bad_checkpoint(edit, command="eval", arrays=None):
    """``command`` with the workflow's checkpoint.json edited by ``edit``,
    beside the workflow's arrays file or, given ``arrays``, the one that
    ``arrays(tmp_path)`` returns."""

    def build(out, tmp_path):
        doc = json.loads((out / "checkpoint.json").read_text())
        edit(doc)
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        source = arrays(tmp_path) if arrays else out / "checkpoint.json.arrays"
        shutil.copyfile(source, tmp_path / "checkpoint.json.arrays")
        inputs = _inputs(out, command, {"--checkpoint"})
        return (
            command, *inputs, "--checkpoint", checkpoint, "--out", tmp_path / "out",
        )

    return build


def _cut_network(part):
    """``hybrid`` on the workflow's archive and its network less its last
    ``part`` ("zones" or "stations"), with a dual checkpoint of the cut
    network's widths."""

    def build(out, tmp_path):
        doc = json.loads((out / "network.json").read_text())
        del doc[part][-1]
        network, checkpoint = tmp_path / "network.json", tmp_path / "checkpoint.json"
        network.write_text(json.dumps(doc))
        params = init_policy(8, len(doc["stations"]), np.random.default_rng(0))
        save_checkpoint(params, checkpoint, meta={"agent": "dual"})
        return (
            "hybrid", "--network", network, "--history", out / "history.csv",
            "--checkpoint", checkpoint, "--cases", 1, "--out", tmp_path / "out",
        )  # fmt: skip

    return build


def _not_utf8(flag):
    """``hybrid`` on the workflow's inputs with ``flag``'s file broken mid-way
    by a byte that is not UTF-8."""

    def build(out, tmp_path):
        inputs = {
            "--network": out / "network.json",
            "--history": out / "history.csv",
            "--checkpoint": out / "checkpoint.json",
        }
        data = inputs[flag].read_bytes()
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
        "train": {"--network": out / "network.json", "--steps": 96,
                  "--batch-size": 96},
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


def _gen_days(days):
    """``gen`` of ``days`` days into a directory that does not exist yet."""

    def build(out, tmp_path):
        return ("gen", "--days", days, "--out", tmp_path / "gen")

    return build


def _narrow_first_hidden_layer(doc):
    actor = doc["actor"]
    actor["weights"][0][1] -= 1
    actor["biases"][0][0] -= 1


def _other_runs_arrays(tmp_path):
    """The arrays file of another dual checkpoint of the workflow's widths."""
    other = tmp_path / "other" / "checkpoint.json"
    other.parent.mkdir()
    save_checkpoint(init_policy(8, 6, np.random.default_rng(0)), other)
    return f"{other}.arrays"


# Flags no command defines: a run's values come from its own flags alone.
# A prefix of a flag is no flag either: argparse takes no abbreviation.
UNKNOWN_FLAGS = {
    **{
        f"{command}_config_flag": _with(command, "--config", "config.json")
        for command in ("gen", "train", "eval", "hybrid")
    },
    "gen_misspelled_days": _with("gen", "--dayz", 5),
    "train_misspelled_batch_size": _with("train", "--batchsize", 96),
    "eval_misspelled_episodes": _with("eval", "--episods", 1),
    "hybrid_misspelled_history": _with("hybrid", "--histroy", "history.csv"),
    "gen_prefix_of_days": _with("gen", "--day", 5),
    "train_prefix_of_learning_rate": _with("train", "--learn", 0.1),
    "eval_prefix_of_episodes": _with("eval", "--episode", 1),
    "hybrid_prefix_of_history": _with("hybrid", "--hist", "history.csv"),
}

BAD_INPUTS = {
    "text_tariff": _bad_network(("tariff", 5), "cheap"),
    "tanks_not_a_list": _bad_network(("tanks",), 5),
    "infinite_max_flow": _bad_network(("stations", 0, "max_flow"), float("inf")),
    "hourly_dt": _bad_network(("dt_hours",), 1.0),
    "null_zone_id": _bad_network(("zones", 0, "id"), None),
    "bool_surface_area": _bad_network(("tanks", 0, "surface_area"), True),
    "zero_steps": _bad_network(steps=0),
    "frame_skip_zero": _bad_network(extra=("--frame-skip", 0)),
    "frame_skip_negative": _bad_network(extra=("--frame-skip", -3)),
    "frame_skip_not_dividing_the_day": _bad_network(extra=("--frame-skip", 7)),
    "learning_rate_nan": _bad_network(extra=("--learning-rate", "nan")),
    "malformed_manifest": _bad_artifact("manifest.json", '{"command": '),
    "text_phase_seconds": _bad_artifact(
        "manifest.json", '{"command": "eval", "phase_seconds": {"score": "slow"}}'
    ),
    "phase_seconds_not_an_object": _bad_artifact(
        "manifest.json", '{"command": "eval", "phase_seconds": [0.1, 0.2]}'
    ),
    "text_train_seconds": _bad_artifact(
        "manifest.json", '{"command": "train", "train_seconds": {"update": "slow"}}'
    ),
    "text_reward": _bad_artifact("reward_curve.csv", "steps,mean_reward\n96,abc\n"),
    "short_reward_row": _bad_artifact("reward_curve.csv", "steps,mean_reward\n96\n"),
    "non_utf8_reward_curve": _bad_artifact("reward_curve.csv", b"\xff\xfe\x00bad"),
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
    "checkpoint_beside_another_runs_arrays": _bad_checkpoint(
        lambda doc: None, arrays=_other_runs_arrays
    ),
    "checkpoint_version_1": _bad_checkpoint(lambda doc: doc.update(format_version=1)),
    "unknown_agent": _bad_checkpoint(lambda doc: doc["meta"].update(agent="greedy")),
    "checkpoint_frame_skip_zero": _bad_checkpoint(
        lambda doc: doc["meta"].update(frame_skip=0)
    ),
    "checkpoint_fractional_frame_skip": _bad_checkpoint(
        lambda doc: doc["meta"].update(frame_skip=4.7)
    ),
    "checkpoint_bool_frame_skip": _bad_checkpoint(
        lambda doc: doc["meta"].update(frame_skip=True)
    ),
    "hybrid_constraint_checkpoint": _bad_checkpoint(
        lambda doc: doc["meta"].update(agent="constraint"), "hybrid"
    ),
    # a plan starts at any step, so hybrid cannot hold actions for a window
    "hybrid_frame_skip_checkpoint": _bad_checkpoint(
        lambda doc: doc["meta"].update(frame_skip=4), "hybrid"
    ),
    # the archive was recorded on 18 zones and six stations
    "hybrid_archive_of_more_zones": _cut_network("zones"),
    "hybrid_archive_of_more_stations": _cut_network("stations"),
    "non_utf8_network": _not_utf8("--network"),
    "non_utf8_history": _not_utf8("--history"),
    "non_utf8_checkpoint": _not_utf8("--checkpoint"),
    # numpy rejects these archive sizes before allocating anything
    "gen_days_beyond_int64": _gen_days(10**20),
    "gen_days_too_big_to_allocate": _gen_days(10**17),
    # the allocator refuses these at once: they exceed any 64-bit address
    # space, so no overcommit policy lets them through
    "gen_days_refused_by_the_allocator": _gen_days(10**14),
    "train_batch_refused_by_the_allocator": _bad_network(
        extra=("--batch-size", 10**16)
    ),
    "gen_zero_workers": _with("gen", "--workers", 0),
    "eval_zero_workers": _with("eval", "--workers", 0),
    "hybrid_zero_workers": _with("hybrid", "--workers", 0),
    "eval_zero_episodes": _with("eval", "--episodes", 0),
    "hybrid_zero_cases": _with("hybrid", "--cases", 0),
    "train_zero_workers": _bad_network(extra=("--workers", 0)),
    **UNKNOWN_FLAGS,
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
    if case in UNKNOWN_FLAGS:
        assert lines[0].startswith("error: unrecognized arguments: --")
    assert sorted(tmp_path.iterdir()) == before  # the command wrote nothing


def test_zero_rated_power_fails_the_dual_reward_only(workflow, tmp_path):
    out, _ = workflow
    argv = _bad_network(("stations", 2, "rated_power"), 0.0)(out, tmp_path)
    constraint = run_cli(*argv, "--agent", "constraint")
    assert constraint.returncode == 0, constraint.stderr
    dual = run_cli(*argv, "--agent", "dual")
    assert dual.returncode == 1
    assert dual.stderr.splitlines() == [
        "error: dual reward needs strictly positive rated power on every station"
    ]


# ----------------------------------------------------------------------------
# eval as lanes of one day, run in process


def _dual_policy(world, seed=0):
    obs_dim = AgentKind.DUAL.obs_dim(world.n_tanks)
    return init_policy(obs_dim, world.n_stations, np.random.default_rng(seed))


def test_eval_lanes_score_each_episode_as_if_alone(world):
    policy = closed_loop(world, AgentKind.DUAL, policy_act_fn(_dual_policy(world)), 4)

    def scores(episodes):
        return cli._eval_scores(world, policy, 3, DEFAULT_IMPERFECTION, episodes)

    lanes = scores(range(5))
    assert sorted(lanes) == ["policy", "random", "rule_based"]
    for k in range(5):
        alone = scores(range(k, k + 1))
        for label, rows in lanes.items():
            assert rows.shape == (3, 5)  # area, count, cost per episode
            assert rows[:, k].tobytes() == alone[label][:, 0].tobytes(), (label, k)


@pytest.fixture
def eval_inputs(world, tmp_path):
    save_network(world, tmp_path / "network.json")
    save_checkpoint(
        _dual_policy(world), tmp_path / "checkpoint.json", meta={"agent": "dual"}
    )
    return (
        "eval", "--network", tmp_path / "network.json",
        "--checkpoint", tmp_path / "checkpoint.json", "--seed", 4,
    )  # fmt: skip


@pytest.mark.parametrize("episodes", [1, 5, 12])
def test_eval_rolls_a_fixed_number_of_days(
    eval_inputs, tmp_path, monkeypatch, episodes
):
    """Burn days, then the policy, rule-based and random days: each one
    ``run_day`` call for all episodes together."""
    modules = [
        importlib.import_module(f"pumpsched.{name}")
        for name in ("simulate", "history", "env", "cli", "hybrid", "training")
    ]
    original, calls = modules[0].run_day, []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, "run_day", None) is original:
            monkeypatch.setattr(module, "run_day", counted)
    argv = [*eval_inputs, "--episodes", episodes, "--out", tmp_path / "out"]
    assert cli.main(list(map(str, argv))) == 0
    assert len(calls) == BURN_DAYS + 3


def test_eval_in_passes_of_lanes_writes_the_same_comparison(
    eval_inputs, tmp_path, monkeypatch
):
    outputs = []
    for lanes in (512, 2):
        monkeypatch.setattr(cli, "_EVAL_LANES", lanes)
        out = tmp_path / f"lanes{lanes}"
        argv = [*eval_inputs, "--episodes", 5, "--out", out]
        assert cli.main(list(map(str, argv))) == 0
        outputs.append((out / "comparison.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_eval_and_hybrid_reject_a_checkpoint_of_another_width(workflow, tmp_path):
    """A checkpoint whose widths are not this network's for its agent (an older
    dual layout of 103 inputs, a constraint agent trained on five tanks, a dual
    agent for five stations) fails in one line before any rollout."""
    out, _ = workflow
    stale = [
        ("dual", 6 + 1 + 96, 6, ("eval", "hybrid")),
        ("constraint", 5, 6, ("eval",)),
        ("dual", 8, 5, ("eval", "hybrid")),
    ]
    for agent, width, stations, commands in stale:
        params = init_policy(width, stations, np.random.default_rng(0))
        checkpoint = tmp_path / f"{agent}{width}x{stations}.json"
        save_checkpoint(params, checkpoint, meta={"agent": agent})
        want = 8 if agent == "dual" else 6
        for command in commands:
            inputs = _inputs(out, command, {"--checkpoint"})
            result = run_cli(
                command, *inputs, "--checkpoint", checkpoint, "--seed", 2,
                "--out", tmp_path / command,
            )  # fmt: skip
            assert result.returncode == 1, command
            assert result.stderr.splitlines() == [
                f"error: {checkpoint}: checkpoint maps {width} inputs to "
                f"{stations} stations, but a {agent} agent on this network "
                f"maps {want} to 6; retrain it"
            ], command
            assert not (tmp_path / command).exists()


@pytest.mark.parametrize("policy_area, warned", [(2.5, True), (0.5, False)])
def test_report_warns_when_the_policy_is_worse_than_random(
    tmp_path, capsys, policy_area, warned
):
    rows = [
        {"label": "rule_based", "mean_area": 0.1, "mean_count": 1.0, "mean_cost": 9.0},
        {"label": "policy", "mean_area": policy_area, "mean_count": 2.0,
         "mean_cost": 8.0, "area_delta_pct": (policy_area - 0.1) * 1e3,
         "cost_delta_pct": -11.1},
        {"label": "random", "mean_area": 1.5, "mean_count": 3.0, "mean_cost": 7.0},
    ]  # fmt: skip
    (tmp_path / "comparison.json").write_text(json.dumps(rows))
    assert cli.main(["report", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    warnings = [line for line in printed if line.startswith("warning:")]
    assert warnings == (
        ["warning: the policy leaves more violation area than random control "
         "(2.500 > 1.500 m*h)"] if warned else []
    )  # fmt: skip
    # Every row is set against the reference: a percentage of a near-zero
    # reference area is followed by the difference of the mean areas, in m*h,
    # and a percentage the row lacks reads n/a.
    assert [line for line in printed if "vs reference" in line] == [
        "    vs reference: area n/a (+0.000 m*h), cost n/a",
        f"    vs reference: area {(policy_area - 0.1) * 1e3:+.1f}% "
        f"({policy_area - 0.1:+.3f} m*h), cost -11.1%",
        "    vs reference: area n/a (+1.400 m*h), cost n/a",
    ]
    # Against a reference area under 0.01 m*h, the difference leads and the
    # percentage follows it, marked as taken against so small a reference.
    rows[0]["mean_area"] = 0.005
    rows[2].update(mean_area=46.56, area_delta_pct=931100.0)
    (tmp_path / "comparison.json").write_text(json.dumps(rows))
    assert cli.main(["report", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if "vs reference" in line] == [
        "    vs reference: area +0.000 m*h (n/a of a reference under 0.01 m*h), "
        "cost n/a",
        f"    vs reference: area {policy_area - 0.005:+.3f} m*h "
        f"({(policy_area - 0.1) * 1e3:+.1f}% of a reference under 0.01 m*h), "
        "cost -11.1%",
        "    vs reference: area +46.555 m*h (+931100.0% of a reference under "
        "0.01 m*h), cost n/a",
    ]


def test_eval_prints_the_area_difference_after_the_percentage(
    workflow, tmp_path, capsys
):
    """Each line ends with the difference of the mean areas in m*h, the area
    percentage and the cost percentage, all of the same sign convention:
    (value - reference) / reference. The reference areas here are under
    0.01 m*h, so the difference leads and the percentage is marked as taken
    against so small a reference. Against hysteresis with perfect margins,
    whose mean area is 0, the area percentage reads n/a and the rest stays."""
    out, _ = workflow
    for reference, extra in (("near_zero", ()), ("zero", ("--imperfection", 0))):
        argv = [
            "eval", "--network", out / "network.json", "--checkpoint",
            out / "checkpoint.json", "--episodes", 4, "--seed", 1,
            "--out", tmp_path / reference, *extra,
        ]  # fmt: skip
        capsys.readouterr()
        assert cli.main(list(map(str, argv))) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = json.loads((tmp_path / reference / "comparison.json").read_text())
        if extra:
            assert rows[0]["mean_area"] == 0.0
            assert [row["area_delta_pct"] for row in rows] == [None, None, None]
        else:
            assert 0 < rows[0]["mean_area"] < 0.01
        assert len(printed) == len(rows)
        for line, row in zip(printed, rows):
            difference = row["mean_area"] - rows[0]["mean_area"]
            pct = row["area_delta_pct"]
            area = "n/a" if pct is None else f"{pct:+.1f}%"
            if pct is not None and difference != 0.0:
                assert (pct > 0) == (difference > 0)
            assert line.startswith(f"eval[{row['label']}]: ")
            assert line.endswith(
                f"  area {difference:+.3f} m*h ({area} of a reference under "
                f"0.01 m*h)  cost {row['cost_delta_pct']:+.1f}%"
            )


# ----------------------------------------------------------------------------
# one percent convention: (value - reference) / reference, pooled


def _percentages(name, rows):
    """(key, percentage, value, reference) of each ``*_pct`` key that a
    comparison.json or strategy_report.json holds."""
    for row in rows:
        assert not [k for case in row.get("cases", []) for k in case if "pct" in k]
        for key, pct in row.items():
            if not key.endswith("_pct"):
                continue
            if name == "comparison.json":
                column = "mean_" + key.removesuffix("_delta_pct")
                yield key, pct, row[column], rows[0][column]
            else:
                region = key.removeprefix("pooled_").removesuffix("_pct")
                mean = f"mean_{region}_area_"
                yield key, pct, row[mean + "hybrid"], row[mean + "baseline"]


def _assert_one_convention(out):
    keys = set()
    for name in ("comparison.json", "strategy_report.json"):
        rows = json.loads((out / name).read_text())
        for key, pct, value, reference in _percentages(name, rows):
            keys.add(key)
            if reference == 0.0:
                assert pct is None, key
            else:
                want = 100.0 * (value - reference) / reference
                assert pct == pytest.approx(want, rel=1e-12), key
    assert keys == {
        "area_delta_pct", "count_delta_pct", "cost_delta_pct",
        "pooled_during_pct", "pooled_post_pct",
    }  # fmt: skip


def _strategy_report(areas):
    """Every strategy with the same cases, one per (baseline during, hybrid
    during, baseline post, hybrid post) area tuple."""
    outcomes = {
        name: [
            CaseOutcome(k, name, 0, 8, (1, 8), (9, 96), *case)
            for k, case in enumerate(areas)
        ]
        for name in STRATEGY_NAMES
    }
    return StrategyReport(len(areas), outcomes)


def test_the_workflow_reports_every_percentage_by_one_rule(workflow):
    _assert_one_convention(workflow[0])


_AREA = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))


@settings(max_examples=50, deadline=None)
@given(
    labels=st.lists(st.tuples(_AREA, _AREA, _AREA), min_size=1, max_size=3),
    cases=st.lists(st.tuples(_AREA, _AREA, _AREA, _AREA), min_size=1, max_size=4),
)
def test_every_reported_percentage_follows_one_rule(tmp_path_factory, labels, cases):
    """Every ``*_pct`` the two reports write is 100 * (value - reference) /
    reference, and None exactly when the reference is 0."""
    out = tmp_path_factory.mktemp("pct")
    scores = {f"label{k}": np.array(row)[:, None] for k, row in enumerate(labels)}
    save_comparison_json(compare(scores), out / "comparison.json")
    save_strategy_report_json(_strategy_report(cases), out / "strategy_report.json")
    _assert_one_convention(out)


def test_strategy_headlines_are_pooled_with_the_area_change(tmp_path, capsys):
    """Post areas of 0.004 -> 0.35 and 3.9 -> 2.0 m*h: the mean of the two
    cases' percentages would read +4300.6%, but the pooled area falls by
    39.8%, 0.777 m*h per case, and that is the headline."""
    report = _strategy_report([(1.0, 0.5, 0.004, 0.35), (2.0, 1.0, 3.9, 2.0)])
    save_strategy_report_json(report, tmp_path / "strategy_report.json")
    assert cli.main(["report", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    text = "during -50.0% (-0.750 m*h per case), post -39.8% (-0.777 m*h per case)"
    assert printed[1:] == [f"  {name}: {text}" for name in STRATEGY_NAMES]


def test_hybrid_prints_the_headlines_report_renders(workflow):
    out, results = workflow
    summaries = json.loads((out / "strategy_report.json").read_text())
    texts = [(s["strategy"], cli._strategy_text(s)) for s in summaries]
    assert results["hybrid"].stdout.splitlines() == [
        f"hybrid[{name}]: {text}" for name, text in texts
    ]
    report = results["report"].stdout.splitlines()
    assert all(f"  {name}: {text}" in report for name, text in texts)


@pytest.mark.parametrize("source", ["flag", "equals"])
@pytest.mark.parametrize("command", ["gen", "train", "eval", "hybrid"])
def test_a_negative_seed_exits_one_with_a_one_line_error(
    tmp_path, capsys, command, source
):
    """numpy seeds only with non-negative integers, so a negative ``--seed``,
    given as its own word or joined by ``=``, fails in one line before any
    work."""
    inputs = {
        "gen": (),
        "train": ("--network", "network.json"),
        "eval": ("--network", "network.json", "--checkpoint", "checkpoint.json"),
        "hybrid": (
            "--network", "network.json", "--history", "history.csv",
            "--checkpoint", "checkpoint.json",
        ),
    }[command]  # fmt: skip
    seed = ("--seed", "-1") if source == "flag" else ("--seed=-1",)
    out = tmp_path / "out"
    assert cli.main([command, *inputs, *seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()
