"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a dgcipher source tree. It checks that:

- the same workload and seed give identical inputs, and another seed does not;
- every workload's inputs keep U+017F (long s), on which the oracle's
  str.upper disagrees with the documented letter rule, and the expected
  outputs follow the documented rule;
- a corrupted ciphertext letter and a wrong crack answer, fed through the
  real CLI calls and checks of one round, are counted as failed calls and
  raise the error rate.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import e2e
import reference as ref
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _corrupt_letter(text: str) -> str:
    i = next(i for i, c in enumerate(text) if c in workloads.LETTERS)
    return text[:i] + ("B" if text[i] != "B" else "C") + text[i + 1:]


def _wrong_number(text: str) -> str:
    return f"{(int(text) + 1) % len(workloads.UPPER)}\n"


def main() -> int:
    problems: list[str] = []

    for name in workloads.NAMES:
        a, b = workloads.build(name, 7, ROOT), workloads.build(name, 7, ROOT)
        if a != b:
            problems.append(f"{name}: seed 7 gave different inputs on two builds")
        if a == workloads.build(name, 8, ROOT):
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")
        if not any("ſ" in m for m in (*a.messages, a.text)):
            problems.append(f"{name}: inputs lost U+017F")

    oracle = ref.load_oracle(ROOT)
    if ref.periodic("ſ", ref.cascade_tables(oracle), False) != "ſ" or oracle.encrypt("ſ") == "ſ":
        problems.append("expected outputs do not follow the documented rule on U+017F")

    w = workloads.build("short-messages", 7, ROOT)
    w = dataclasses.replace(w, messages=w.messages[:1], batch=1)
    exp = ref.Expected(w, oracle)
    work = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = e2e.Runner(ROOT, work)
        e2e.prepare(runner, w, ref.paper_key_file(oracle))
        corpus = ROOT / workloads.CORPUS

        def faulty_round(r: int) -> list[e2e.Op]:
            ops = e2e.round_ops(w, exp, r, corpus)
            faults = {"encrypt": _corrupt_letter, "crack": _wrong_number}
            return [dataclasses.replace(op, check=lambda text, op=op: op.check(faults[op.kind](text)))
                    if op.kind in faults else op for op in ops]

        e2e.measure(runner, w, exp, corpus, 0, ops_of_round=faulty_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kinds = sorted(reason.split(":")[0] for reason in runner.failures)
    if kinds != ["crack", "encrypt"]:
        problems.append(f"injected faults counted as {kinds}, want ['crack', 'encrypt']")
    rate = len(runner.failures) / runner.attempted
    print(f"attempted {runner.attempted}, failed {len(runner.failures)}, error rate {rate:.4f}")
    for reason in runner.failures:
        print(f"  counted: {reason}")

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check passed" if not problems else f"{len(problems)} self-check problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
