"""Merge traced results of every workload into one baseline file.

    python3 bench/baseline.py --seed 0 [--out bench/results/baseline.json]

Reads ``.bench_work/results/<workload>-seed<N>-trace1-full.json`` for each
workload (written by ``bench/run.py --trace 1``) and writes one file holding
ROADMAP item 1's hand-measured numbers next to the traced metric that now
replaces each, plus every workload's end-to-end and per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROADMAP_BASELINES, WORK
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def merge(seed: int) -> dict:
    records = {}
    for name in WORKLOADS:
        path = WORK / "results" / f"{name}-seed{seed}-trace1-full.json"
        records[name] = json.loads(path.read_text())
    return {
        "seed": seed,
        "environment": records["train_dual"]["environment"],
        "roadmap_baselines": [
            {
                "item": item,
                "was": was,
                "metric": metric,
                "workload": workload,
                "value": records[workload]["per_layer"][metric],
            }
            for item, was, workload, metric in ROADMAP_BASELINES
        ],
        "workloads": {
            name: {
                key: r[key]
                for key in ("sizes", "digests", "end_to_end", "raw", "per_layer",
                            "attempted", "failed")
            }  # fmt: skip
            for name, r in records.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(HERE / "results" / "baseline.json"))
    args = parser.parse_args(argv)
    try:
        doc = merge(args.seed)
    except (OSError, KeyError) as exc:
        print(f"baseline: missing traced result ({exc})", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for row in doc["roadmap_baselines"]:
        print(f"{row['item']:20s} was {row['was']:20s} {row['metric']} = {row['value']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
