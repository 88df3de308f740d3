"""Command line entry points.

Subcommands cover the full workflow: ``gen`` synthesizes a network plus an
operating archive, ``train`` fits a policy, ``eval`` scores a checkpoint
against rule-based and random control on held-out days, ``hybrid`` repairs
retrieved schedules by policy injection, and ``report`` renders whatever
artifacts an output directory holds.

A run's flags are its only input besides the files they name, parsed and
checked once by argparse, which takes no abbreviation of a flag; each
command's ``manifest.json`` records every value they resolved to under
``arguments``.

Each process runs one command, so each command imports the layers it runs at
the top of its ``_cmd_*`` function, before it starts its clock: a process
compiles only what its command uses, and ``wall_clock_seconds`` still
excludes imports. A helper called after the clock (``_load_agent``,
``_eval_scores``) imports names from layers its command has loaded.

Exit codes: 0 success, 1 validation or schema problem, 2 file I/O problem,
3 numeric failure during training or simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import NumericError, SchemaError, TrainingError, ValidationError
from .network import (
    DEFAULT_IMPERFECTION,
    STEPS_PER_DAY,
    NetworkTopology,
    _read_json,
    _seed_stream,
    generate_synthetic_network,
    load_network,
    save_network,
)

if TYPE_CHECKING:
    from .env import AgentKind
    from .policy import PolicyParameters

_EVAL_LANES = 256  # eval episodes rolled as lanes of one day per pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the validation exit code
    and takes no abbreviation of a long flag; subcommand parsers are made by
    this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ValidationError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master random seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility, must be >= 1; has no effect "
        "(rollouts run as lanes of one day in one process)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="pumpsched", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="synthesize a network and operating archive")
    _add_common(gen)
    gen.add_argument("--days", type=int, default=120, help="archive length in days")
    gen.add_argument(
        "--imperfection",
        type=float,
        default=DEFAULT_IMPERFECTION,
        help="hysteresis margin sloppiness in [0, 1]; 0 never violates",
    )
    gen.set_defaults(func=_cmd_gen)

    tr = subs.add_parser("train", help="train a pump scheduling policy")
    _add_common(tr)
    tr.add_argument("--network", required=True, help="network.json path")
    tr.add_argument(
        "--agent",
        choices=["constraint", "dual"],
        default="constraint",
        help="constraint: keep levels in band; dual: also minimize tariff cost",
    )
    tr.add_argument(
        "--frame-skip",
        type=int,
        default=1,
        help="hold each action for this many steps (must divide 96)",
    )
    tr.add_argument("--steps", type=int, default=300_000, help="env step budget")
    tr.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="decisions per update",
    )
    tr.add_argument("--learning-rate", type=float, default=3e-4)
    tr.set_defaults(func=_cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint on held-out days")
    _add_common(ev)
    ev.add_argument("--network", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--episodes", type=int, default=32)
    ev.add_argument(
        "--imperfection",
        type=float,
        default=DEFAULT_IMPERFECTION,
        help="margin sloppiness of the rule-based comparator",
    )
    ev.set_defaults(func=_cmd_eval)

    hy = subs.add_parser("hybrid", help="repair retrieved schedules by injection")
    _add_common(hy)
    hy.add_argument("--network", required=True)
    hy.add_argument("--history", required=True, help="operating archive CSV")
    hy.add_argument("--checkpoint", required=True, help="dual-objective checkpoint")
    hy.add_argument("--cases", type=int, default=16, help="violating days to collect")
    hy.add_argument(
        "--per-zone-demand",
        action="store_true",
        help="retrieve on per-zone demand volumes instead of the total",
    )
    hy.set_defaults(func=_cmd_hybrid)

    rp = subs.add_parser("report", help="summarize artifacts in an output directory")
    _add_common(rp)
    rp.set_defaults(func=_cmd_report)

    return parser


# ----------------------------------------------------------------------------
# Manifest


def _write_manifest(
    out: Path,
    command: str,
    args: argparse.Namespace,
    artifacts: dict[str, str],
    started: float,
    phase_ends: dict[str, float] | None = None,
    train_seconds: dict[str, float] | None = None,
) -> None:
    """``phase_ends`` maps each phase of the command, in order, to the
    ``time.time()`` it ended; the first began at ``started``.
    ``train_seconds`` names the parts of training, each with its seconds."""
    echo = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and not callable(v)
    }
    payload = {
        "command": command,
        "package_version": __version__,
        "arguments": echo,
        "artifacts": artifacts,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    if phase_ends:
        seconds = np.diff([started, *phase_ends.values()]).round(4).tolist()
        payload["phase_seconds"] = dict(zip(phase_ends, seconds))
    if train_seconds:
        payload["train_seconds"] = {k: round(v, 4) for k, v in train_seconds.items()}
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(payload, indent=2) + "\n")  # phases in run order
    os.replace(tmp, out / "manifest.json")


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------------
# gen


def _cmd_gen(args: argparse.Namespace) -> int:
    from .history import generate_history, save_history

    started, phase_ends = time.time(), {}
    topology = generate_synthetic_network(args.seed)
    archive = generate_history(
        topology, days=args.days, seed=args.seed, imperfection=args.imperfection
    )
    phase_ends["generate"] = time.time()
    out = _outdir(args)
    save_network(topology, out / "network.json")
    save_history(archive, out / "history.csv")
    phase_ends["write_artifacts"] = time.time()
    _write_manifest(
        out,
        "gen",
        args,
        {
            "network": "network.json",
            "history": "history.csv",
            "history_arrays": "history.csv.arrays",
        },
        started,
        phase_ends,
    )
    print(f"gen: network.json, history.csv ({args.days} days) -> {out}")
    return 0


# ----------------------------------------------------------------------------
# train


def _cmd_train(args: argparse.Namespace) -> int:
    from .env import AgentKind
    from .policy import save_checkpoint
    from .training import EnvSpec, TrainConfig, save_reward_curve, train

    started, phase_ends = time.time(), {}
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    topology = load_network(args.network)
    phase_ends["load_network"] = time.time()
    kind = AgentKind(args.agent)
    spec = EnvSpec(topology=topology, agent_kind=kind, frame_skip=args.frame_skip)
    cfg = TrainConfig(
        total_env_steps=args.steps,
        seed=args.seed,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
    )
    result = train(spec, cfg)
    phase_ends["train"] = time.time()
    out = _outdir(args)
    save_reward_curve(result.curve, out / "reward_curve.csv")
    meta = {
        "agent": args.agent,
        "frame_skip": args.frame_skip,
        "seed": args.seed,
        "env_steps": result.curve[-1][0] if result.curve else 0,
        "batch_size": args.batch_size,
    }
    save_checkpoint(result.params, out / "checkpoint.json", meta=meta)
    phase_ends["write_artifacts"] = time.time()
    _write_manifest(
        out,
        "train",
        args,
        {
            "checkpoint": "checkpoint.json",
            "checkpoint_arrays": "checkpoint.json.arrays",
            "reward_curve": "reward_curve.csv",
        },
        started,
        phase_ends,
        {"collect": result.collect_seconds, "update": result.update_seconds},
    )
    last = result.curve[-1] if result.curve else (0, float("nan"))
    print(
        f"train: {meta['env_steps']} env steps, final mean episode reward "
        f"{last[1]:.3f} -> {out / 'checkpoint.json'}"
    )
    return 0


# ----------------------------------------------------------------------------
# eval


def _load_agent(
    path: str, topology: NetworkTopology
) -> tuple[PolicyParameters, AgentKind, int]:
    """The checkpoint at ``path``, its agent kind and its frame skip, read from
    its meta. A malformed meta, or an input or output width that is not the
    agent's on this network, fails before any rollout."""
    from .env import AgentKind, _check_window
    from .policy import load_checkpoint

    params, meta = load_checkpoint(path)
    try:
        kind = AgentKind(meta.get("agent", "constraint"))
        frame_skip = meta.get("frame_skip", 1)
        if not (_is_number(frame_skip) and isinstance(frame_skip, int)):
            raise TypeError(f"frame_skip {json.dumps(frame_skip)} is not an integer")
        _check_window(frame_skip)
    except (TypeError, ValueError, ValidationError) as exc:
        raise SchemaError(f"{path}: bad checkpoint meta ({exc})") from None
    got = params.obs_dim, params.action_dim
    want = kind.obs_dim(topology.n_tanks), topology.n_stations
    if got != want:
        raise SchemaError(
            f"{path}: checkpoint maps {got[0]} inputs to {got[1]} stations, but "
            f"a {kind.value} agent on this network maps {want[0]} to {want[1]}; "
            "retrain it"
        )
    return params, kind, frame_skip


def _eval_scores(
    topology: NetworkTopology, policy, seed: int, imperfection: float, episodes: range
) -> dict[str, np.ndarray]:
    """Area, count and cost rows of the held-out days ``episodes`` per label:
    the rule-based controller, the ``policy`` callback of ``run_day`` and random
    control each roll them as lanes of one day, each scored on its own copy."""
    from .history import (
        RuleBasedController,
        run_controlled_day,
        sample_operational_episode,
    )
    from .metrics import area_outside_boundary, episode_cost, violation_count
    from .simulate import run_day

    rngs = [
        np.random.default_rng(_seed_stream(seed, "eval_episode", k)) for k in episodes
    ]
    levels, demands, margins = sample_operational_episode(
        topology, rngs, imperfection
    )
    shape = (STEPS_PER_DAY, topology.n_stations)
    schedules = np.array([rng.random(shape) for rng in rngs])
    rule = RuleBasedController(topology, margins)

    def day(act):
        return run_day(topology, levels, demands, act)

    trajs = {
        "rule_based": run_controlled_day(topology, levels, rule, demands),
        "policy": day(policy),
        "random": day(lambda t, _: schedules[:, t]),
    }
    bounds = topology.compiled.lower, topology.compiled.upper

    def score(lane):
        area = area_outside_boundary(lane, bounds)
        return area, violation_count(lane, bounds), episode_cost(lane)

    lanes = range(len(rngs))
    return {
        label: np.array([score(traj.lane(k)) for k in lanes]).T
        for label, traj in trajs.items()
    }


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import history  # noqa: F401  _eval_scores's layer, before the clock
    from .env import closed_loop
    from .metrics import compare, save_comparison_csv, save_comparison_json
    from .policy import policy_act_fn

    started, phase_ends = time.time(), {}
    topology = load_network(args.network)
    phase_ends["load_network"] = time.time()
    params, kind, frame_skip = _load_agent(args.checkpoint, topology)
    phase_ends["load_checkpoint"] = time.time()
    policy = closed_loop(topology, kind, policy_act_fn(params), frame_skip)
    if args.episodes < 1:
        raise ValidationError("--episodes must be >= 1")

    episodes = range(args.episodes)
    passes = [
        _eval_scores(topology, policy, args.seed, args.imperfection, part)
        for part in (episodes[k : k + _EVAL_LANES] for k in episodes[::_EVAL_LANES])
    ]
    scores = {label: np.hstack([p[label] for p in passes]) for label in passes[0]}
    rows = compare(scores)
    phase_ends["score"] = time.time()
    out = _outdir(args)
    save_comparison_csv(rows, out / "comparison.csv")
    save_comparison_json(rows, out / "comparison.json")
    phase_ends["write_artifacts"] = time.time()
    _write_manifest(
        out,
        "eval",
        args,
        {"comparison_csv": "comparison.csv", "comparison_json": "comparison.json"},
        started,
        phase_ends,
    )
    for row in rows:
        print(
            f"eval[{row.label}]: mean area {row.mean_area:.3f} m*h, "
            f"mean violations {row.mean_count:.1f}, mean cost {row.mean_cost:.2f}"
            f"  area {_area_text(row.area_delta_pct, row.mean_area, rows[0].mean_area)}"
            f"  cost {_pct_text(row.cost_delta_pct)}"
        )
    return 0


# ----------------------------------------------------------------------------
# hybrid


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from .env import AgentKind
    from .history import load_history
    from .hybrid import (
        build_case_pool,
        evaluate_strategies,
        save_strategy_report_csv,
        save_strategy_report_json,
    )
    from .policy import policy_act_fn
    from .query import build_index

    started, phase_ends = time.time(), {}
    topology = load_network(args.network)
    phase_ends["load_network"] = time.time()
    archive = load_history(args.history)
    phase_ends["load_history"] = time.time()
    params, kind, frame_skip = _load_agent(args.checkpoint, topology)
    phase_ends["load_checkpoint"] = time.time()
    # A plan may start at any step, so the policy must act at every step.
    if (kind, frame_skip) != (AgentKind.DUAL, 1):
        raise ValidationError(
            "hybrid injection needs a checkpoint trained with --agent dual "
            "--frame-skip 1"
        )
    index = build_index(topology, archive, per_zone_demand=args.per_zone_demand)
    cases = build_case_pool(topology, index, n_cases=args.cases, seed=args.seed)
    report = evaluate_strategies(topology, cases, policy_act_fn(params))
    phase_ends["repair"] = time.time()
    out = _outdir(args)
    save_strategy_report_json(report, out / "strategy_report.json")
    save_strategy_report_csv(report, out / "strategy_report.csv")
    phase_ends["write_artifacts"] = time.time()
    _write_manifest(
        out,
        "hybrid",
        args,
        {
            "strategy_report_json": "strategy_report.json",
            "strategy_report_csv": "strategy_report.csv",
        },
        started,
        phase_ends,
    )
    for s in report.to_json_obj():
        print(f"hybrid[{s['strategy']}]: {_strategy_text(s)}")
    return 0


# ----------------------------------------------------------------------------
# report


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _report_rows(
    path: Path, numbers: tuple[str, ...], optional_numbers: tuple[str, ...]
) -> list[dict]:
    """A report artifact's JSON list of objects, with the named numeric fields."""
    rows = _read_json(path)
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise SchemaError(f"{path}: expected a JSON list of objects")
    for i, row in enumerate(rows):
        for key in numbers + optional_numbers:
            value = row.get(key)
            if not (_is_number(value) or (value is None and key in optional_numbers)):
                raise SchemaError(f"{path} entry {i}: {key!r} must be a number")
    return rows


def _pct_text(value: float | None) -> str:
    return "n/a" if value is None else f"{value:+.1f}%"


_NEAR_ZERO_AREA = 0.01  # m*h; a percentage of a smaller reference says little


def _area_text(pct: float | None, area: float, reference: float) -> str:
    """A row's area change from the reference row's: its percentage, then the
    difference in m*h, or the difference first when the reference is under
    ``_NEAR_ZERO_AREA``."""
    if reference < _NEAR_ZERO_AREA:
        return (
            f"{area - reference:+.3f} m*h ({_pct_text(pct)} of a reference "
            f"under {_NEAR_ZERO_AREA} m*h)"
        )
    return f"{_pct_text(pct)} ({area - reference:+.3f} m*h)"


def _strategy_text(s: dict) -> str:
    """A strategy summary's pooled percent change of each region's area, each
    followed by the change of the mean area per case in m*h."""
    return ", ".join(
        f"{region} {_pct_text(s.get(f'pooled_{region}_pct'))} ("
        f"{s[f'mean_{region}_area_hybrid'] - s[f'mean_{region}_area_baseline']:+.3f}"
        " m*h per case)"
        for region in ("during", "post")
    )


def _cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    found = False

    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        found = True
        manifest = _read_json(manifest_path)
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("artifacts", {}), dict
        ):
            raise SchemaError(f"{manifest_path}: expected an object with artifacts")
        timings = {}
        for key in ("phase_seconds", "train_seconds"):
            timings[key] = manifest.get(key, {})
            if not isinstance(timings[key], dict) or not all(
                map(_is_number, timings[key].values())
            ):
                raise SchemaError(f"{manifest_path}: {key} must hold numbers")
        print(
            f"run: {manifest.get('command')} "
            f"(package {manifest.get('package_version')}, "
            f"{manifest.get('wall_clock_seconds')}s)"
        )
        for name, seconds in timings["phase_seconds"].items():
            print(f"  phase {name}: {seconds:.4f}s")
        for name, seconds in timings["train_seconds"].items():
            print(f"  train {name}: {seconds:.4f}s")
        for name, rel in manifest.get("artifacts", {}).items():
            print(f"  artifact {name}: {rel}")

    comparison_path = out / "comparison.json"
    if comparison_path.exists():
        found = True
        rows = _report_rows(
            comparison_path,
            ("mean_area", "mean_count", "mean_cost"),
            ("area_delta_pct", "cost_delta_pct"),
        )
        print("comparison to the first row (percent = (row - first) / first):")
        for row in rows:
            print(
                f"  {row.get('label')}: area {row['mean_area']:.3f} m*h, "
                f"violations {row['mean_count']:.1f}, cost {row['mean_cost']:.2f}"
            )
            change = _area_text(
                row.get("area_delta_pct"), row["mean_area"], rows[0]["mean_area"]
            )
            print(
                f"    vs reference: area {change}, "
                f"cost {_pct_text(row.get('cost_delta_pct'))}"
            )
        area = {row.get("label"): row["mean_area"] for row in rows}
        if {"policy", "random"} <= area.keys() and area["policy"] > area["random"]:
            print(
                "warning: the policy leaves more violation area than random "
                f"control ({area['policy']:.3f} > {area['random']:.3f} m*h)"
            )

    strategy_path = out / "strategy_report.json"
    if strategy_path.exists():
        found = True
        summaries = _report_rows(
            strategy_path,
            ("mean_during_area_baseline", "mean_during_area_hybrid",
             "mean_post_area_baseline", "mean_post_area_hybrid"),
            ("pooled_during_pct", "pooled_post_pct"),
        )
        print("injection strategies (pooled percent = (hybrid - baseline) / baseline):")
        for s in summaries:
            print(f"  {s.get('strategy')}: {_strategy_text(s)}")

    curve_path = out / "reward_curve.csv"
    if curve_path.exists():
        found = True
        from .training import load_reward_curve

        curve = load_reward_curve(curve_path)
        if curve:
            print(
                f"training: {curve[-1][0]} env steps, "
                f"mean episode reward {curve[0][1]:.3f} -> {curve[-1][1]:.3f}"
            )

    if not found:
        raise ValidationError(f"no artifacts found in {out}")
    return 0


# ----------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValidationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, TrainingError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
