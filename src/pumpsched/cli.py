"""Command line entry points.

Subcommands cover the full workflow: ``gen`` synthesizes a network plus an
operating archive, ``train`` fits a policy, ``eval`` scores a checkpoint
against rule-based and random control on held-out days, ``hybrid`` repairs
retrieved schedules by policy injection, and ``report`` renders whatever
artifacts an output directory holds.

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

import numpy as np

from . import __version__
from .env import AgentKind, closed_loop, sample_operational_episode
from .errors import NumericError, SchemaError, TrainingError, ValidationError
from .history import (
    DEFAULT_IMPERFECTION,
    RuleBasedController,
    generate_history,
    load_history,
    run_controlled_day,
    save_history,
)
from .hybrid import (
    build_case_pool,
    evaluate_strategies,
    save_strategy_report_csv,
    save_strategy_report_json,
)
from .metrics import (
    PoolResult,
    area_outside_boundary,
    compare,
    episode_cost,
    save_comparison_csv,
    save_comparison_json,
    violation_count,
)
from .network import (
    STEPS_PER_DAY,
    DemandSet,
    generate_demands,
    generate_synthetic_network,
    load_network,
    save_network,
)
from .policy import load_checkpoint, save_checkpoint
from .query import build_index
from .simulate import run_day, simulate
from .training import (
    EnvSpec,
    TrainConfig,
    policy_act_fn,
    save_reward_curve,
    train,
)

_EVAL_EPISODE_NAMESPACE = 5  # seed spawn-key namespace for held-out eval days


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the validation exit code."""

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
    sub.add_argument(
        "--config",
        default=None,
        help="JSON file of flag defaults for this subcommand",
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


def _apply_config_file(argv: list[str], parser: _Parser) -> None:
    """Pre-scan for --config and fold its JSON values into parser defaults."""
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--config", default=None)
    known, _ = scan.parse_known_args(argv)
    if known.config is None:
        return
    try:
        values = json.loads(Path(known.config).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"config file {known.config} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise SchemaError("config file must hold a JSON object of flag defaults")
    # Defaults land on every subparser holding a matching destination.
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for sub in action.choices.values():
            flags = {a.dest: a for a in sub._actions}  # noqa: SLF001
            usable = {k: v for k, v in values.items() if k in flags}
            for key, value in usable.items():
                _check_config_value(flags[key], value)
            sub.set_defaults(**usable)


def _check_config_value(action: argparse.Action, value) -> None:
    """Reject a --config value of another JSON type than its flag parses to;
    argparse converts only string defaults. A bool is no number."""
    if action.type is int:
        ok, want = _is_number(value) and isinstance(value, int), "an integer"
    elif action.type is float:
        ok, want = _is_number(value), "a number"
    elif action.nargs == 0:
        ok, want = isinstance(value, bool), "true or false"
    elif action.choices:
        ok, want = value in action.choices, "one of " + ", ".join(action.choices)
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        flag = action.option_strings[-1]
        raise ValidationError(
            f"config value {json.dumps(value)} for {flag} must be {want}"
        )


# ----------------------------------------------------------------------------
# Manifest


def _write_manifest(
    out: Path,
    command: str,
    args: argparse.Namespace,
    artifacts: dict[str, str],
    started: float,
) -> None:
    echo = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "command", "config") and not callable(v)
    }
    payload = {
        "command": command,
        "package_version": __version__,
        "arguments": echo,
        "artifacts": artifacts,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out / "manifest.json")


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------------
# gen


def _save_demand_forecast(demands: DemandSet, path: Path) -> None:
    import csv as _csv

    values = demands.as_array()
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["zone_id", "t", "demand"])
        for z, zone_id in enumerate(demands.zone_ids):
            for t in range(values.shape[1]):
                writer.writerow([zone_id, t, repr(float(values[z, t]))])


def _cmd_gen(args: argparse.Namespace) -> int:
    started = time.time()
    topology = generate_synthetic_network(args.seed)
    archive = generate_history(
        topology, days=args.days, seed=args.seed, imperfection=args.imperfection
    )
    out = _outdir(args)
    save_network(topology, out / "network.json")
    save_history(archive, out / "history.csv")
    forecast = generate_demands(topology, args.seed)
    _save_demand_forecast(forecast, out / "demands.csv")
    _write_manifest(
        out,
        "gen",
        args,
        {
            "network": "network.json",
            "history": "history.csv",
            "history_arrays": "history.csv.arrays",
            "demand_forecast": "demands.csv",
        },
        started,
    )
    print(
        f"gen: network.json, history.csv ({args.days} days), demands.csv -> {out}"
    )
    return 0


# ----------------------------------------------------------------------------
# train


def _cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    if args.frame_skip < 1:
        raise ValidationError("--frame-skip must be >= 1")
    topology = load_network(args.network)
    kind = AgentKind(args.agent)
    spec = EnvSpec(topology=topology, agent_kind=kind, frame_skip=args.frame_skip)
    cfg = TrainConfig(
        total_env_steps=args.steps,
        seed=args.seed,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
    )
    result = train(spec, cfg)
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
    _write_manifest(
        out,
        "train",
        args,
        {"checkpoint": "checkpoint.json", "reward_curve": "reward_curve.csv"},
        started,
    )
    last = result.curve[-1] if result.curve else (0, float("nan"))
    print(
        f"train: {meta['env_steps']} env steps, final mean episode reward "
        f"{last[1]:.3f} -> {out / 'checkpoint.json'}"
    )
    return 0


# ----------------------------------------------------------------------------
# eval


def _cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    topology = load_network(args.network)
    params, meta = load_checkpoint(args.checkpoint)
    try:
        kind = AgentKind(meta.get("agent", "constraint"))
        frame_skip = int(meta.get("frame_skip", 1))
        if frame_skip < 1:
            raise ValueError(f"frame_skip {frame_skip} is below 1")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{args.checkpoint}: bad checkpoint meta ({exc})") from None
    act_fn = policy_act_fn(params)
    bounds = topology.bounds_arrays()
    if args.episodes < 1:
        raise ValidationError("--episodes must be >= 1")

    pools: dict[str, dict[str, list[float]]] = {
        label: {"area": [], "count": [], "cost": []}
        for label in ("rule_based", "policy", "random")
    }
    for k in range(args.episodes):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=args.seed, spawn_key=(_EVAL_EPISODE_NAMESPACE, k)
            )
        )
        config, margins = sample_operational_episode(
            topology, rng, imperfection=args.imperfection
        )
        random_schedule = rng.random((STEPS_PER_DAY, topology.n_stations))

        controller = RuleBasedController(topology, margins)
        trajs = {
            "policy": run_day(
                topology,
                config.initial_levels,
                config.demands.as_array(),
                topology.tariff.as_array(),
                closed_loop(topology, kind, act_fn, frame_skip),
            ),
            "rule_based": run_controlled_day(
                topology, config.initial_levels, controller, config.demands
            ),
            "random": simulate(
                topology, config.initial_levels, random_schedule, config.demands
            ),
        }
        for label, traj in trajs.items():
            pools[label]["area"].append(area_outside_boundary(traj, bounds))
            pools[label]["count"].append(float(violation_count(traj, bounds)))
            pools[label]["cost"].append(episode_cost(traj))

    seeds = tuple(range(args.episodes))
    results = {
        label: PoolResult(
            label=label,
            episode_seeds=seeds,
            areas=np.array(vals["area"]),
            counts=np.array(vals["count"]),
            costs=np.array(vals["cost"]),
        )
        for label, vals in pools.items()
    }
    rows = compare(results["rule_based"], [results["policy"], results["random"]])
    out = _outdir(args)
    save_comparison_csv(rows, out / "comparison.csv")
    save_comparison_json(rows, out / "comparison.json")
    _write_manifest(
        out,
        "eval",
        args,
        {"comparison_csv": "comparison.csv", "comparison_json": "comparison.json"},
        started,
    )
    for row in rows:
        extra = ""
        if row.area_improvement_pct is not None:
            extra = (
                f"  area {row.area_improvement_pct:+.1f}%"
                f"  cost {row.cost_delta_pct:+.1f}%"
            )
        print(
            f"eval[{row.label}]: mean area {row.mean_area:.3f} m*h, "
            f"mean violations {row.mean_count:.1f}, "
            f"mean cost {row.mean_cost:.2f}{extra}"
        )
    return 0


# ----------------------------------------------------------------------------
# hybrid


def _cmd_hybrid(args: argparse.Namespace) -> int:
    started = time.time()
    topology = load_network(args.network)
    archive = load_history(args.history)
    params, meta = load_checkpoint(args.checkpoint)
    if meta.get("agent") != "dual":
        raise ValidationError(
            "hybrid injection needs a checkpoint trained with --agent dual"
        )
    index = build_index(topology, archive, per_zone_demand=args.per_zone_demand)
    cases = build_case_pool(topology, index, n_cases=args.cases, seed=args.seed)
    report = evaluate_strategies(topology, cases, policy_act_fn(params))
    out = _outdir(args)
    save_strategy_report_json(report, out / "strategy_report.json")
    save_strategy_report_csv(report, out / "strategy_report.csv")
    _write_manifest(
        out,
        "hybrid",
        args,
        {
            "strategy_report_json": "strategy_report.json",
            "strategy_report_csv": "strategy_report.csv",
        },
        started,
    )
    for s in report.to_json_obj():
        during, post = _pct_text(s["mean_during_pct"]), _pct_text(s["mean_post_pct"])
        print(f"hybrid[{s['strategy']}]: during {during}, post {post}")
    return 0


# ----------------------------------------------------------------------------
# report


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


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
        print(
            f"run: {manifest.get('command')} "
            f"(package {manifest.get('package_version')}, "
            f"{manifest.get('wall_clock_seconds')}s)"
        )
        for name, rel in manifest.get("artifacts", {}).items():
            print(f"  artifact {name}: {rel}")

    comparison_path = out / "comparison.json"
    if comparison_path.exists():
        found = True
        rows = _report_rows(
            comparison_path,
            ("mean_area", "mean_count", "mean_cost"),
            ("area_improvement_pct", "cost_delta_pct"),
        )
        print("comparison (first row is the reference):")
        for row in rows:
            print(
                f"  {row.get('label')}: area {row['mean_area']:.3f} m*h, "
                f"violations {row['mean_count']:.1f}, cost {row['mean_cost']:.2f}"
            )
            if row.get("area_improvement_pct") is not None:
                print(
                    f"    vs reference: area {_pct_text(row['area_improvement_pct'])}, "
                    f"cost {_pct_text(row.get('cost_delta_pct'))}"
                )

    strategy_path = out / "strategy_report.json"
    if strategy_path.exists():
        found = True
        summaries = _report_rows(
            strategy_path,
            ("n_during_pct_defined", "n_cases"),
            ("mean_during_pct", "mean_post_pct"),
        )
        print("injection strategies (negative percent = smaller violation area):")
        for s in summaries:
            print(
                f"  {s.get('strategy')}: during {_pct_text(s.get('mean_during_pct'))} "
                f"({s['n_during_pct_defined']}/{s['n_cases']} cases), "
                f"post {_pct_text(s.get('mean_post_pct'))}"
            )

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
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser = build_parser()
        _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
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
