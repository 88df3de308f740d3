"""The benchmark's workloads: the CLI commands they run and how outputs are checked.

Each workload builds its inputs from the seed with ``setup`` commands, then
repeats a pass of ``timed`` commands. A pass's canonical artifacts are hashed
into one digest; ``check`` rejects missing, unparseable or non-finite output.
Paths in the commands are absolute so they hold for a child process and for
an in-process call of ``pumpsched.cli.main`` alike.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import STRATEGY_NAMES

BATCH_SIZE = 960  # decisions per PPO update; 10 whole dual-agent days
CASE_POOL_STRIDE = 100  # hybrid --seed of case pool v is seed * stride + v

# Work sizes per scale. "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests short.
SIZES = {
    "full": {
        "train_steps": 2880,
        "ckpt_steps": 960,
        "archive_days": 120,
        "case_pools": 12,
        "gen_days": 30,
        "episodes": 4,
    },
    "tiny": {
        "train_steps": 960,
        "ckpt_steps": 960,
        "archive_days": 20,
        "case_pools": 2,
        "gen_days": 3,
        "episodes": 2,
    },
}


class CheckError(Exception):
    """A command's artifacts are missing, malformed or non-finite."""


@dataclass(frozen=True)
class Workload:
    """A workload's commands. ``timed`` takes a variant number: passes cycle
    through ``variants(sizes)`` inputs derived from the seed, so a workload
    whose cost is heavy-tailed in its input is measured on several of them."""

    name: str
    setup: Callable[[Path, int, dict], list[list[str]]]
    timed: Callable[[Path, Path, int, dict, int], list[list[str]]]
    variants: Callable[[dict], int]
    check: Callable[[Path, dict], float]  # returns the pass's units of work
    digest_files: tuple[str, ...]  # relative to the pass directory
    unit: str  # what one unit of work is
    # Per-command throughputs from each timed command's own seconds.
    named: Callable[[list[float], dict], dict[str, tuple[float, str]]]


def _gen(out: Path, seed: int, days: int) -> list[str]:
    return ["gen", "--seed", str(seed), "--days", str(days), "--out", str(out)]


def _train(network: Path, out: Path, seed: int, steps: int) -> list[str]:
    return [
        "train", "--seed", str(seed), "--workers", "1",
        "--network", str(network), "--agent", "dual", "--frame-skip", "1",
        "--batch-size", str(BATCH_SIZE), "--steps", str(steps), "--out", str(out),
    ]  # fmt: skip


# ----------------------------------------------------------------------------
# Output checks


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _finite(value, where: str) -> None:
    """Every number inside a JSON value must be finite."""
    if isinstance(value, dict):
        for v in value.values():
            _finite(v, where)
    elif isinstance(value, list):
        for v in value:
            _finite(v, where)
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckError(f"{where}: non-finite number {value!r}")


def _csv_rows(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _finite_cells(rows: list[list[str]], where: str) -> None:
    try:
        values = [float(cell) for row in rows for cell in row]
    except ValueError as exc:
        raise CheckError(f"{where}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"{where}: non-finite value")


def command_seconds(out: Path) -> float:
    """The command's own wall clock as its manifest records it."""
    manifest = _load_json(out / "manifest.json")
    seconds = manifest.get("wall_clock_seconds")
    if not isinstance(seconds, (int, float)) or not seconds > 0:
        raise CheckError(f"{out.name}/manifest.json: bad wall_clock_seconds")
    return float(seconds)


def _check_train(out: Path, steps: int) -> None:
    rows = _csv_rows(out / "reward_curve.csv")
    iterations = -(-steps // BATCH_SIZE)
    if not rows or rows[0] != ["steps", "mean_reward"] or len(rows) != iterations + 1:
        raise CheckError(f"reward_curve.csv: expected {iterations} iterations")
    _finite_cells(rows[1:], "reward_curve.csv")
    if int(rows[-1][0]) != iterations * BATCH_SIZE:
        raise CheckError("reward_curve.csv: step count does not match the budget")
    doc = _load_json(out / "checkpoint.json")
    _finite(doc, "checkpoint.json")
    meta = doc.get("meta", {})
    if meta.get("agent") != "dual" or meta.get("env_steps") != iterations * BATCH_SIZE:
        raise CheckError("checkpoint.json: wrong agent or step count in meta")


def _check_gen(out: Path, days: int) -> None:
    _finite(_load_json(out / "network.json"), "network.json")
    rows = _csv_rows(out / "history.csv")
    if len(rows) != days * 96 + 1 or any(len(r) != len(rows[0]) for r in rows):
        raise CheckError(f"history.csv: expected {days * 96} rows of equal width")
    _finite_cells(rows[1:], "history.csv")


def _check_eval(out: Path) -> None:
    rows = _load_json(out / "comparison.json")
    if [r.get("label") for r in rows] != ["rule_based", "policy", "random"]:
        raise CheckError("comparison.json: unexpected rows")
    _finite(rows, "comparison.json")
    for r in rows:
        for key in ("mean_area", "mean_count", "mean_cost"):
            if not isinstance(r.get(key), (int, float)):
                raise CheckError(f"comparison.json: {key} missing")


def _check_hybrid(out: Path, cases: int) -> None:
    report = _load_json(out / "strategy_report.json")
    if [s.get("strategy") for s in report] != list(STRATEGY_NAMES):
        raise CheckError("strategy_report.json: unexpected strategies")
    _finite(report, "strategy_report.json")
    if any(s.get("n_cases") != cases for s in report):
        raise CheckError(f"strategy_report.json: expected {cases} cases")


# ----------------------------------------------------------------------------
# Workloads


def _train_dual_setup(inputs: Path, seed: int, sizes: dict) -> list[list[str]]:
    return [_gen(inputs, seed, 1)]


def _train_dual_timed(inputs: Path, out: Path, seed: int, sizes: dict, variant: int):
    return [_train(inputs / "network.json", out, seed, sizes["train_steps"])]


def _train_env_steps(sizes: dict) -> float:
    """Env steps actually run: the budget rounded up to whole batches."""
    return float(-(-sizes["train_steps"] // BATCH_SIZE) * BATCH_SIZE)


def _train_dual_check(out: Path, sizes: dict) -> float:
    _check_train(out, sizes["train_steps"])
    return _train_env_steps(sizes)


def _with_checkpoint_setup(days_key: str | None):
    def setup(inputs: Path, seed: int, sizes: dict) -> list[list[str]]:
        days = sizes[days_key] if days_key else 1
        return [
            _gen(inputs, seed, days),
            _train(inputs / "network.json", inputs / "ckpt", seed, sizes["ckpt_steps"]),
        ]

    return setup


def _hybrid_timed(inputs: Path, out: Path, seed: int, sizes: dict, variant: int):
    # One case per pool, each variant sampling its own pool from the seed's
    # archive: a case's repair cost is heavy-tailed (0.2 s to 2.9 s), so the
    # benchmark takes the median over pools rather than a mean over the
    # cases of one pool.
    return [
        [
            "hybrid", "--seed", str(seed * CASE_POOL_STRIDE + variant), "--workers", "1",
            "--network", str(inputs / "network.json"),
            "--history", str(inputs / "history.csv"),
            "--checkpoint", str(inputs / "ckpt" / "checkpoint.json"),
            "--cases", "1", "--out", str(out),
        ]  # fmt: skip
    ]


def _hybrid_check(out: Path, sizes: dict) -> float:
    _check_hybrid(out, 1)
    return 1.0


def _archive_eval_timed(inputs: Path, out: Path, seed: int, sizes: dict, variant: int):
    return [
        _gen(out / "gen", seed, sizes["gen_days"]),
        [
            "eval", "--seed", str(seed), "--workers", "1",
            "--network", str(out / "gen" / "network.json"),
            "--checkpoint", str(inputs / "ckpt" / "checkpoint.json"),
            "--episodes", str(sizes["episodes"]), "--out", str(out / "eval"),
        ]  # fmt: skip
    ]


def _archive_eval_check(out: Path, sizes: dict) -> float:
    _check_gen(out / "gen", sizes["gen_days"])
    _check_eval(out / "eval")
    # Each eval episode simulates one day under each of three controllers.
    return float(sizes["gen_days"] + 3 * sizes["episodes"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_dual",
            setup=_train_dual_setup,
            timed=_train_dual_timed,
            variants=lambda sizes: 1,
            check=_train_dual_check,
            digest_files=("reward_curve.csv", "checkpoint.json"),
            unit="env step",
            named=lambda secs, sz: {
                "train_env_steps_per_s": (_train_env_steps(sz) / secs[0], "1/s")
            },
        ),
        Workload(
            name="hybrid_repair",
            setup=_with_checkpoint_setup("archive_days"),
            timed=_hybrid_timed,
            variants=lambda sizes: sizes["case_pools"],
            check=_hybrid_check,
            digest_files=("strategy_report.json",),
            unit="repaired case",
            named=lambda secs, sz: {"hybrid_s_per_case": (secs[0], "s")},
        ),
        Workload(
            name="archive_eval",
            setup=_with_checkpoint_setup(None),
            timed=_archive_eval_timed,
            variants=lambda sizes: 1,
            check=_archive_eval_check,
            digest_files=("gen/history.csv", "eval/comparison.json"),
            unit="simulated day",
            named=lambda secs, sz: {
                "gen_days_per_s": (sz["gen_days"] / secs[0], "1/s"),
                "eval_episodes_per_s": (sz["episodes"] / secs[1], "1/s"),
            },
        ),
    )
}


def digest(root: Path, files) -> str:
    """SHA-256 over the named files, each prefixed by its relative name."""
    h = hashlib.sha256()
    for rel in files:
        h.update(rel.encode() + b"\0")
        try:
            h.update((root / rel).read_bytes())
        except OSError as exc:
            raise CheckError(f"{rel}: {exc}") from None
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under ``root`` except the wall-clock manifests."""
    files = sorted(
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    return digest(root, files)
