"""pumpsched benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs are built from the seed
by ``setup`` CLI commands, three times over (``setup_s`` is their median).
Then passes of the workload's timed CLI commands run, each command in a
fresh ``python -m pumpsched.cli`` process, until ``--seconds`` are spent.
A fixed calibration job runs between set-up repeats and passes (see
``CALIBRATION``). Every
command's exit code and artifacts are checked and each pass's canonical
artifacts are hashed; a digest that differs between passes of the same
input counts as a failure, and one that differs from
``reference_digests.json`` is reported as ``digest_changed``.

End-to-end metrics are medians over passes:

- ``norm_wall_s``: wall time of a pass's commands, process start included,
  scaled to the calibration's reference speed;
- ``norm_work_per_s``: units of work (env steps, repaired cases, simulated
  days) per second of the commands' own time, as their manifests record it,
  scaled the same way;
- ``peak_rss_mb``: the largest max RSS among a pass's processes;
- ``setup_s``: the time to build the inputs, scaled the same way.

The unscaled figures (``raw_setup_s``, ``wall_s``, ``work_per_s``, the
per-command rates and ``fail_rate``) are printed and kept in the result file
as well.

With ``--trace 1`` every variant of the workload then runs once more in this
process through ``pumpsched.cli.main`` with every layer wrapped in spans
(see ``spans.py``); the per-layer metrics come from that pass, and the
tracing overhead is its wall time minus the untraced median.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``). A full record, with quartiles, the run environment and the
digests, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from spans import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckError, command_seconds, digest, tree_digest  # noqa: E402

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBES = 3
COMMAND_TIMEOUT_S = 150.0

# A fixed Python and numpy job that no program change can speed up. It runs
# in a fresh process between set-up repeats and passes, and each one's time
# is scaled by CALIBRATION_REF_S over the mean of the calibrations on either
# side of it.
# Other tenants of this 2-CPU host change its speed by up to 2x over phases
# of tens of seconds; a pass and its neighbouring calibrations feel the same
# phase, so the scaled times vary far less than the raw ones.
CALIBRATION = """
import csv, io
import numpy as np
a = np.linspace(0.0, 1.0, 36).reshape(6, 6)
x = np.ones(6)
rows = []
for i in range(12000):
    x = np.clip(a @ x * 0.5 + 0.1, 0.0, 1.0)
    rows.append([i] + [repr(float(v)) for v in x])
buf = io.StringIO()
csv.writer(buf).writerows(rows)
assert len(list(csv.reader(io.StringIO(buf.getvalue())))) == len(rows)
"""
CALIBRATION_REF_S = 0.30  # the calibration's time on a quiet host

# ROADMAP item 1's hand-measured baselines and the traced metric replacing each.
ROADMAP_BASELINES = (
    ("step", "55 us", "train_dual", "simulate.step.us_p50"),
    ("simulate day", "6.4 ms", "archive_eval", "simulate.simulate.ms_p50"),
    ("dual env episode", "8.0 ms", "train_dual", "training.episode.ms_p50"),
    ("rollout", "6.9k env-steps/s", "train_dual", "training.rollout_env_steps_per_s"),
    ("train", "3.4k env-steps/s", "train_dual", "training.train.env_steps_per_s"),
    ("generate_history", "1.0 s per 120 days", "archive_eval",
     "history.generate_history.ms_per_day"),
    ("save_history", "0.56 s per 120 days (11 MB/s)", "archive_eval",
     "history.save_history.mb_per_s"),
    ("load_history", "0.73 s per 120 days", "hybrid_repair", "history.load_history.s"),
    ("evaluate_strategies", "0.55 s per case", "hybrid_repair",
     "hybrid.evaluate_strategies.s_per_case"),
)  # fmt: skip


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad BENCHMARK.json)."""


@dataclass
class CommandResult:
    argv: list[str]
    returncode: int
    wall_s: float
    max_rss_mb: float
    error: str | None = None


@dataclass
class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, result: CommandResult) -> bool:
        self.attempted += 1
        if result.error is not None:
            self.errors.append(f"{result.argv[0]}: {result.error}")
        return result.error is None


@dataclass
class PassResult:
    variant: int
    wall_s: float  # all timed commands, process start included
    command_s: list[float]  # each command's own wall clock (its manifest)
    rss_mb: float  # largest max RSS of the pass's processes
    units: float
    digest: str
    speed: float = 1.0  # see speed()


# ----------------------------------------------------------------------------
# Child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def run_cli(argv: list[str], log: Path, env: dict[str, str]) -> CommandResult:
    """Run ``python -m pumpsched.cli ARGV``; its stdout and stderr go to ``log``."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "pumpsched.cli", *argv],
            stdout=out,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = CommandResult(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        result.error = f"exit {proc.returncode}: {' '.join(tail)}"
    return result


def probe(env: dict[str, str]) -> dict:
    """Time ``import pumpsched.cli`` in a fresh process and read its numpy build."""
    code = (
        "import time; t = time.perf_counter(); import pumpsched.cli; "
        "t = time.perf_counter() - t; import json, numpy; "
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'import_s': t, 'numpy': numpy.__version__, "
        "'blas': blas.get('name'), 'blas_version': blas.get('version')}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT_S,
    )  # fmt: skip
    if out.returncode != 0:
        raise BenchError(f"cannot import pumpsched.cli: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def calibrate(env: dict[str, str]) -> float:
    """Wall time of the CALIBRATION job in a fresh process."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", CALIBRATION], env=env, capture_output=True,
        timeout=COMMAND_TIMEOUT_S,
    )  # fmt: skip
    if out.returncode != 0:
        raise BenchError(f"calibration failed: {out.stderr.decode()[-500:]}")
    return time.perf_counter() - start


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or None


# ----------------------------------------------------------------------------
# Set-up and passes


def run_setup(
    workload, seed, sizes, work, env, tally, calibrations
) -> tuple[Path | None, list[float]]:
    """Build the inputs ``SETUP_REPEATS`` times; they must be identical.

    A calibration follows each repeat and is appended to ``calibrations``.
    """
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        inputs = work / f"inputs{k}"
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        ok = True
        for i, argv in enumerate(workload.setup(inputs, seed, sizes)):
            ok = tally.record(run_cli(argv, work / f"setup{k}-{i}.log", env)) and ok
        times.append(time.perf_counter() - start)
        calibrations.append(calibrate(env))
        if not ok:
            return None, times
        digests.append(tree_digest(inputs))
    if len(set(digests)) != 1:
        tally.errors.append("setup: inputs differ between repeats of the same seed")
        return None, times
    return work / "inputs0", times


def check_pass(workload, sizes, out: Path) -> tuple[float, str]:
    units = workload.check(out, sizes)
    return units, digest(out, workload.digest_files)


def run_pass(workload, inputs, seed, sizes, variant, out, env, tally) -> PassResult | None:
    out.mkdir(parents=True)
    wall, rss, ok = 0.0, 0.0, True
    argvs = workload.timed(inputs, out, seed, sizes, variant)
    for i, argv in enumerate(argvs):
        result = run_cli(argv, out.parent / f"{out.name}-{i}.log", env)
        ok = tally.record(result) and ok
        wall += result.wall_s
        rss = max(rss, result.max_rss_mb)
        if not ok:
            return None
    try:
        units, dig = check_pass(workload, sizes, out)
        command_s = [command_seconds(Path(a[a.index("--out") + 1])) for a in argvs]
    except CheckError as exc:
        tally.errors.append(f"{out.name}: {exc}")
        return None
    return PassResult(variant, wall, command_s, rss, units, dig)


def traced_pass(workload, inputs, seed, sizes, out) -> tuple[list, list[float], list[str]]:
    """Every variant once, in this process, with every layer traced.

    Returns the spans, each variant's wall time and each variant's digest.
    """
    from pumpsched import cli

    tracer = Tracer()
    walls, digests = [], []
    for variant in range(workload.variants(sizes)):
        vout = out / f"variant{variant}"
        vout.mkdir(parents=True)
        start = time.perf_counter()
        with instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
            for argv in workload.timed(inputs, vout, seed, sizes, variant):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash is one failed command
                    raise CheckError(f"traced {argv[0]} raised {exc!r}") from exc
                if code != 0:
                    raise CheckError(f"traced {argv[0]} exited {code}")
        walls.append(time.perf_counter() - start)
        digests.append(check_pass(workload, sizes, vout)[1])
    return tracer.spans, walls, digests


# ----------------------------------------------------------------------------
# Reporting


def summary(values: list[float]) -> dict:
    """Median and quartiles (exclusive method) of a sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med,) * 3
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def reference_digests(workload: str, seed: int) -> list[str] | None:
    """Per-variant digests recorded for this workload and seed, if any."""
    refs = json.loads((HERE / "reference_digests.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def speed(calibrations: list[float], i: int) -> float:
    """Host speed around the i-th timed step, from the calibrations either side."""
    return 2 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])


def measure(args, workload, sizes, work, env, tally):
    """Set up, then run passes for ``args.seconds``, a calibration between each.

    Returns the raw and scaled set-up times, the passes and the calibrations.
    """
    calibrations = [calibrate(env)]
    inputs, setup_raw = run_setup(
        workload, args.seed, sizes, work, env, tally, calibrations
    )
    setup_scaled = [t * speed(calibrations, i) for i, t in enumerate(setup_raw)]
    passes: list[PassResult] = []
    variants = workload.variants(sizes)
    start, last, k = time.perf_counter(), 0.0, 0
    while inputs is not None and (
        k == 0 or time.perf_counter() - start + last <= args.seconds
    ):
        t0 = time.perf_counter()
        result = run_pass(
            workload, inputs, args.seed, sizes, k % variants, work / f"pass{k}", env, tally
        )
        calibrations.append(calibrate(env))
        if result is not None:
            result.speed = speed(calibrations, len(calibrations) - 2)
            passes.append(result)
        last, k = time.perf_counter() - t0, k + 1
    first = {}
    for p in passes:
        if first.setdefault(p.variant, p.digest) != p.digest:
            tally.errors.append(f"variant {p.variant}: digest differs between passes")
    return setup_raw, setup_scaled, passes, calibrations


def end_to_end_metrics(setup_raw, setup_scaled, passes, calibrations, workload, sizes):
    """The contract's end-to-end metrics, and the raw figures behind them."""
    e2e = {
        "setup_s": summary(setup_scaled),
        "norm_wall_s": summary([p.wall_s * p.speed for p in passes]),
        "norm_work_per_s": summary(
            [p.units / sum(p.command_s) / p.speed for p in passes]
        ),
        "peak_rss_mb": summary([p.rss_mb for p in passes]),
    }
    raw = {
        "raw_setup_s": summary(setup_raw),
        "wall_s": summary([p.wall_s for p in passes]),
        "work_per_s": summary([p.units / sum(p.command_s) for p in passes]),
        "calibration_s": summary(calibrations),
    }
    per_pass = [workload.named(p.command_s, sizes) for p in passes]
    for name, (_, unit) in per_pass[0].items():
        raw[name] = {"unit": unit, **summary([n[name][0] for n in per_pass])}
    return e2e, raw


def traced_metrics(args, workload, sizes, work, passes, probes, tally) -> tuple[dict, list]:
    """Per-layer metrics and per-variant digests of one traced in-process pass."""
    inputs = work / "inputs0"
    variants = workload.variants(sizes)
    tally.attempted += variants * len(workload.timed(inputs, work, args.seed, sizes, 0))
    try:
        spans, walls, digests = traced_pass(
            workload, inputs, args.seed, sizes, work / "traced"
        )
    except CheckError as exc:
        tally.errors.append(str(exc))
        return {}, []
    untraced = {}
    for p in passes:
        untraced.setdefault(p.variant, []).append(sum(p.command_s))
        if p.digest != digests[p.variant]:
            tally.errors.append(f"variant {p.variant}: traced digest differs")
    per_layer = layer_metrics(spans)
    per_layer["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    # Overhead over the variants the untraced passes reached.
    per_layer["trace.overhead_s"] = sum(
        walls[v] - statistics.median(secs) for v, secs in untraced.items()
    ) / len(untraced)
    return per_layer, digests


def environment(args, probes, load_before) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": probes[0]["numpy"],
        "blas": f"{probes[0]['blas']} {probes[0]['blas_version']}",
        "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_revision": git_revision(),
        "platform": platform.platform(),
        "seed": args.seed,
    }


def run(args) -> dict:
    if not (SRC / "pumpsched" / "cli.py").is_file():
        raise BenchError(f"no pumpsched sources under {SRC}")
    contract = load_contract()
    workload, sizes, env = WORKLOADS[args.workload], SIZES[args.scale], child_env()
    load_before = os.getloadavg()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probes = [probe(env) for _ in range(IMPORT_PROBES if args.trace else 1)]
    tally = Tally()
    setup_raw, setup_scaled, passes, calibrations = measure(
        args, workload, sizes, work, env, tally
    )
    e2e, raw, per_layer, traced_digests = {}, {}, {}, []
    if passes:
        e2e, raw = end_to_end_metrics(
            setup_raw, setup_scaled, passes, calibrations, workload, sizes
        )
        if args.trace:
            per_layer, traced_digests = traced_metrics(
                args, workload, sizes, work, passes, probes, tally
            )

    digests = dict(enumerate(traced_digests))
    digests.update((p.variant, p.digest) for p in passes)
    ref = reference_digests(args.workload, args.seed) if args.scale == "full" else None
    changed = ref is not None and any(
        v >= len(ref) or d != ref[v] for v, d in digests.items()
    )
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "sizes": sizes,
        "unit_of_work": workload.unit,
        "environment": environment(args, probes, load_before),
        "digests": [digests.get(v) for v in range(max(digests, default=-1) + 1)],
        "digest_reference": ref, "digest_changed": changed,
        "end_to_end": e2e, "raw": raw, "per_layer": per_layer,
        "roadmap_baselines": [
            {"item": item, "was": was, "metric": metric, "value": per_layer[metric]}
            for item, was, wl, metric in ROADMAP_BASELINES
            if wl == args.workload and metric in per_layer
        ],
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_rate": tally.fail_rate, "errors": tally.errors,
    }  # fmt: skip

    section = "per_layer" if args.trace else "end_to_end"
    values = {k: v["value"] for k, v in e2e.items()} if not args.trace else per_layer
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in contract[section]
        if m["name"] in values
    }
    record["result"] = {
        "correct": tally.failed == 0 and len(metrics) == len(contract[section]),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_report(record: dict, contract: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"python {env['python']}, numpy {env['numpy']}, {env['blas']} "
        f"threads={BLAS_THREADS}, nproc {env['nproc']}, "
        f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}, "
        f"rev {env['git_revision'] or 'n/a'}"
    )
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units.update(raw_setup_s="s", wall_s="s", work_per_s="1/s", calibration_s="s")
    rows = [(name, units[name], s) for name, s in record["end_to_end"].items()]
    rows += [(name, s.get("unit", units.get(name)), s) for name, s in record["raw"].items()]
    for name, unit, s in rows:
        print(
            f"{name:24s} {s['value']:12.4f} {unit:6s} median of {s['n']:2d} "
            f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}]"
        )
    print(
        f"{'fail_rate':24s} {record['fail_rate']:12.4f} ratio  "
        f"({record['failed']}/{record['attempted']})"
    )
    for err in record["errors"]:
        print(f"  failure: {err}")
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name, value in record["per_layer"].items():
        print(f"{name:40s} {value:14.4f} {layer_units.get(name, '')}")
    ref = record["digest_reference"]
    status = "no reference" if ref is None else (
        "digest_changed" if record["digest_changed"] else "matches reference"
    )
    for variant, dig in enumerate(record["digests"]):
        print(f"digest[{variant}] {dig}")
    print(f"digests: {status}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=sorted(SIZES),
        default="full",
        help="work sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    # Fix BLAS threads here too: the traced pass imports numpy in this process.
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_report(record, load_contract())
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
