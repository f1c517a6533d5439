"""dgcipher benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dgcipher source tree; it uses src/ and the test
fixtures, and builds nothing. Workloads: bulk-cascade, bulk-analysis,
short-messages (see perfbench/README.md). With --trace 0 it runs dgcipher
CLI subcommands as subprocesses and reports the end-to-end metrics; with
--trace 1 it times each module's functions in-process and reports the
per-layer metrics and the tracing overhead.

The full record (machine, Python, commit, seed, input properties, sample
counts, failures) is written to .bench_out/ and summarised on stderr. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import e2e
import layers
import reference as ref
import workloads

ROOT = Path(__file__).resolve().parent.parent
NEEDED = ("src/dgcipher/cli.py", str(workloads.CORPUS), str(ref.ORACLE))
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "analyze_s": "s", "crack_s": "s",
         "flatness_s": "s", "call_p50_ms": "ms", "call_cpu_p90_ms": "ms"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_mchar_s"):
        return "Mchar/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(("git", "-C", str(ROOT), "rev-parse", "HEAD"), env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: the running child is killed and reaped,
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a dgcipher source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    w = workloads.build(args.workload, args.seed, ROOT)
    oracle = ref.load_oracle(ROOT)
    exp = ref.Expected(w, oracle)
    key_file = ref.paper_key_file(oracle)
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{w.name}-{w.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = e2e.Runner(ROOT, work)
        e2e.prepare(runner, w, key_file)
        if args.trace:
            run = layers.LayerRun(ROOT, work, runner, w, exp, oracle, key_file)
            metrics, tracer = layers.measure(run, args.seconds)
            props = workloads.properties(w)
            metrics.update({f"input.{k}": v for k, v in props["counts"].items() if k != "non_ascii"})
            metrics["input.messages"] = props["messages"]
            metrics["ops.attempted"] = runner.attempted
            metrics["ops.failed"] = len(runner.failures)
            samples, calls = {}, []
        else:
            metrics, samples, calls = e2e.measure(runner, w, exp, ROOT / workloads.CORPUS, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": w.name,
        "seed": w.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "machine": machine(),
        "inputs": workloads.properties(w),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "error_rate": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:20],
        "metrics": metrics,
        "samples": samples,
        "calls": [dataclasses.astuple(c) for c in calls],
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{w.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n",
                                          encoding="utf-8")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:36} {value:>14.6g} {_unit(name)}{count}", file=sys.stderr)
    for reason in runner.failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)

    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
