"""Summarise benchmark records into one point of the bench trajectory.

    python3 perfbench/summarize.py --out perfbench/trajectory/<commit>.json

Reads every record in .bench_out/ (one per run). For each workload, it
gives every metric's median and quartiles over the runs, traced and
untraced apart. It also gives the spread, the interquartile range over
the median, which BENCHMARK.json's bounds are set against. A perf change
cites two such files, one per commit, made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / ".bench_out").glob("*-trace[01].json"))]
    if not records:
        parser.error("no records in .bench_out/")
    point = {"commits": sorted({r["commit"] for r in records}), "machine": records[0]["machine"],
             "workloads": {}}
    for r in records:
        entry = point["workloads"].setdefault(r["workload"], {})
        group = entry.setdefault("per_layer" if r["trace"] else "end_to_end",
                                 {"seeds": [], "seconds": r["seconds"], "failed": 0, "metrics": {}})
        group["seeds"].append(r["seed"])
        group["failed"] += r["failed"]
        for name, value in r["metrics"].items():
            group["metrics"].setdefault(name, []).append(value)
        entry.setdefault("inputs", r["inputs"])
    for entry in point["workloads"].values():
        for key in ("end_to_end", "per_layer"):
            if key in entry:
                entry[key]["metrics"] = {n: _stats(v) for n, v in entry[key]["metrics"].items()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
