"""Summarise paired perfbench runs of a parent commit and a change as one JSON file.

    python3 tools/bench_summary.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... --out BENCH_<n>.json

Each input is a record that `perfbench/run.py` wrote to
`perfbench/out/<workload>-seed<k>-trace<t>.json`.  Parent and change write
the same file name, so copy each record aside after its run.  A pair is one
parent record and one change record of the same workload, seed and trace
setting.  For each (workload, trace) group the summary gives, per metric, the
median and quartiles of both sides over the paired runs and the number of
pairs the change wins: by the metric's `better` direction in `BENCHMARK.json`,
ties counting for neither, null for a metric with no direction.  It also gives
the pair count, the seeds, the failed ops and whether every run was correct.
The machine is read from the records and must be the same in all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("python", "numpy", "cpu_count", "platform", "machine")


def load(paths: list[Path]) -> dict[tuple[str, int, int], dict]:
    records = {}
    for path in paths:
        record = json.loads(path.read_text())
        env = record["environment"]
        key = (env["workload"], env["trace"], env["seed"])
        if key in records:
            raise SystemExit(f"{path}: a second record for workload, trace, seed {key}")
        records[key] = record
    return records


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def better_directions() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarise(parent: dict, change: dict) -> dict:
    better = better_directions()
    machines = {
        tuple(r["environment"][k] for k in MACHINE_KEYS)
        for r in (*parent.values(), *change.values())
    }
    if len(machines) != 1:
        raise SystemExit(f"records come from {len(machines)} different machines")
    groups: dict[str, dict] = {}
    for workload, trace, seed in sorted(parent.keys() & change.keys()):
        group = groups.setdefault(f"{workload}/trace{trace}", {"seeds": [], "pairs": []})
        group["seeds"].append(seed)
        group["pairs"].append((parent[workload, trace, seed], change[workload, trace, seed]))
    out = {}
    for name, group in groups.items():
        pairs = group["pairs"]
        metrics = {}
        for metric, first in pairs[0][0]["metrics"].items():
            before = [p["metrics"][metric]["value"] for p, _ in pairs]
            after = [c["metrics"][metric]["value"] for _, c in pairs]
            direction = better.get(metric)
            sign = {"lower": 1, "higher": -1}.get(direction, 0)
            metrics[metric] = {
                "unit": first["unit"],
                "better": direction,
                "parent": quartiles(before),
                "change": quartiles(after),
                "change_wins": sum(sign * (a - b) < 0 for b, a in zip(before, after))
                if sign
                else None,
            }
        out[name] = {
            "pairs": len(pairs),
            "seeds": group["seeds"],
            "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
            "failed_ops": {
                "parent": sum(p["failed"] for p, _ in pairs),
                "change": sum(c["failed"] for _, c in pairs),
            },
            "metrics": metrics,
        }
    return {"machine": dict(zip(MACHINE_KEYS, machines.pop())), "workloads": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    summary = summarise(load(args.parent), load(args.change))
    if not summary["workloads"]:
        raise SystemExit("no parent record has a change record of the same workload, trace and seed")
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for name, group in summary["workloads"].items():
        print(f"{name}: {group['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
