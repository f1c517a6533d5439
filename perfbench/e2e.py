"""End-to-end measurement: dgcipher CLI subcommands run as subprocesses.

One client, closed loop: each call starts only after the previous one has
exited, one subprocess at a time. A call is timed from just before the
fork to the return of os.wait4, so interpreter start-up, import and
argument parsing are included; os.wait4 also gives the child's peak RSS.
Outputs are checked after the clock stops, and a wrong output or a non-zero
exit counts as a failed call.

A run is a sequence of rounds. Every round makes the same kinds of calls:
one keycheck, encrypt and decrypt in both index modes for each message of
the round's batch, then shift and vigenere (both directions), analyze,
crack on the shift ciphertext and flatness. Rounds repeat while the next
one would end, by the last round's length, less than half a round after the
run's time budget.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import reference as ref
from workloads import Workload

CALL_TIMEOUT_S = 60
SETUP_CALLS = 9
CASCADE_KINDS = ("encrypt", "decrypt", "encrypt_lo", "decrypt_lo")
THROUGHPUT = {f"{kind}_mchar_s": kind for kind in (*CASCADE_KINDS, "shift", "vigenere")}
PER_CALL = {"analyze_s": "analyze", "crack_s": "crack", "flatness_s": "flatness"}


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple[str, ...]
    chars: int  # input characters the call processes
    out: str  # output file, relative to the work directory
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Call:
    kind: str
    round: int
    wall: float  # seconds
    cpu: float  # seconds of user plus system time in the child
    rss_kb: int
    chars: int


class CallTimeout(Exception):
    """A CLI call did not exit within CALL_TIMEOUT_S; the run is abandoned."""


def _alarm(signum, frame):
    raise CallTimeout(f"a dgcipher call ran longer than {CALL_TIMEOUT_S} s")


class Runner:
    """Runs CLI calls one at a time and tallies checked outcomes."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.argv0 = (sys.executable, "-m", "dgcipher.cli")
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONUTF8": "1"}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op) -> tuple[float, os.struct_rusage]:
        """Run one call; return its wall seconds and the child's resource usage."""
        out = self.work / op.out
        out.unlink(missing_ok=True)
        previous = signal.signal(signal.SIGALRM, _alarm)
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                (*self.argv0, *op.args), cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            signal.alarm(CALL_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.record(self._verify(op, proc.returncode, out))
        return wall, usage

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    def _verify(self, op: Op, code: int, out: Path) -> str | None:
        if code != 0:
            stderr = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            return f"{op.kind}: exit {code}: {stderr.strip()[-200:]}"
        try:
            return op.check(out.read_bytes().decode("utf-8"))
        except (OSError, ValueError) as err:  # ValueError covers bad UTF-8 and unparseable numbers
            return f"{op.kind}: unreadable output: {err}"


KEYCHECK = Op("keycheck", ("keycheck", "--key", "key.txt", "--out", "keycheck.txt"), 0,
              "keycheck.txt", ref.check_keycheck)


def _check_key_file(text: str) -> str | None:
    return None if text.startswith("CASCADE-KEYS v1\n") else "keygen: not a key file"


def prepare(runner: Runner, w: Workload, key_file: str) -> None:
    """Write the input files, the paper key file and, by keygen, the flatness keyset."""
    for i, message in enumerate(w.messages):
        (runner.work / f"msg{i}.txt").write_text(message, encoding="utf-8", newline="")
    (runner.work / "text.txt").write_text(w.text, encoding="utf-8", newline="")
    (runner.work / "flat.txt").write_text(w.flat_text, encoding="utf-8", newline="")
    (runner.work / "key.txt").write_text(key_file, encoding="utf-8", newline="")
    keygen = ("keygen", "--seed", str(w.key_seed), "--out", "flat.keys")
    runner.run(Op("keygen", keygen, 0, "flat.keys", _check_key_file))


def round_ops(w: Workload, exp: ref.Expected, r: int, corpus: Path) -> list[Op]:
    """The calls of round r, in order; later calls read earlier outputs."""
    ops = [KEYCHECK]
    for j in range(w.batch):
        i = (r * w.batch + j) % len(w.messages)
        message = w.messages[i]
        for suffix, mode, want in (("", "all-chars", exp.cascade[i]), ("_lo", "letters-only", exp.cascade_lo[i])):
            ct, back = f"ct{suffix}{i}.txt", f"pt{suffix}{i}.txt"
            cascade = ("--key", "key.txt", "--index-mode", mode)
            ops.append(Op(f"encrypt{suffix}", ("encrypt", *cascade, "--in", f"msg{i}.txt", "--out", ct),
                          len(message), ct, partial(ref.check_equal, want=want, what=f"encrypt{suffix}")))
            ops.append(Op(f"decrypt{suffix}", ("decrypt", *cascade, "--in", ct, "--out", back),
                          len(message), back, partial(ref.check_equal, want=message, what=f"decrypt{suffix}")))
    n = len(w.text)
    shift = ("classical", "shift", "--k", str(w.shift_k))
    vigenere = ("classical", "vigenere", "--alphabet", "turkish29", "--key", w.vigenere_key)
    ops += [
        Op("shift", (*shift, "--in", "text.txt", "--out", "shift.txt"), n, "shift.txt",
           partial(ref.check_equal, want=exp.shift, what="shift")),
        Op("shift", (*shift, "--decrypt", "--in", "shift.txt", "--out", "shift.back.txt"), n, "shift.back.txt",
           partial(ref.check_equal, want=w.text, what="shift --decrypt")),
        Op("vigenere", (*vigenere, "--in", "text.txt", "--out", "vig.txt"), n, "vig.txt",
           partial(ref.check_equal, want=exp.vigenere, what="vigenere")),
        Op("vigenere", (*vigenere, "--decrypt", "--in", "vig.txt", "--out", "vig.back.txt"), n, "vig.back.txt",
           partial(ref.check_equal, want=w.text, what="vigenere --decrypt")),
        Op("analyze", ("analyze", "--in", "text.txt", "--out", "analyze.txt"), n, "analyze.txt",
           partial(ref.check_analyze, want=exp.counts)),
        Op("crack", ("crack", "--reference", str(corpus), "--in", "shift.txt", "--out", "crack.txt"), n,
           "crack.txt", partial(ref.check_crack, k=w.shift_k)),
        Op("flatness", ("flatness", "--key", "flat.keys", "--reference", str(corpus), "--in", "flat.txt",
                        "--out", "flatness.txt"), len(w.flat_text), "flatness.txt",
           partial(ref.check_flatness, letters=exp.flat_letters)),
    ]
    return ops


def measure(runner: Runner, w: Workload, exp: ref.Expected, corpus: Path, seconds: float,
            ops_of_round: Callable[[int], list[Op]] | None = None
            ) -> tuple[dict[str, float], dict[str, int], list[Call]]:
    """Run rounds for about `seconds`; return the end-to-end metrics, their sample counts and the calls."""
    ops_of_round = ops_of_round or (lambda r: round_ops(w, exp, r, corpus))
    runner.run(KEYCHECK)  # warm-up: bytecode cache and page cache
    setup = [runner.run(KEYCHECK)[0] for _ in range(SETUP_CALLS)]

    calls: list[Call] = []
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        for op in ops_of_round(r):
            wall, usage = runner.run(op)
            calls.append(Call(op.kind, r, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, op.chars))
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            break
    setup += [c.wall for c in calls if c.kind == "keycheck"]
    return (*_metrics(setup, calls, r), calls)


def _metrics(setup: list[float], calls: list[Call], rounds: int) -> tuple[dict[str, float], dict[str, int]]:
    by_round = [[c for c in calls if c.round == r] for r in range(rounds)]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(c.wall for c in rc) for rc in by_round),
        "peak_rss_mb": statistics.median(max(c.rss_kb for c in rc) for rc in by_round) / 1024,
    }
    samples = {"setup_s": len(setup), "wall_s": rounds, "peak_rss_mb": rounds}
    for name, kind in THROUGHPUT.items():
        rates = [sum(c.chars for c in rc if c.kind == kind) / sum(c.wall for c in rc if c.kind == kind) / 1e6
                 for rc in by_round]
        metrics[name] = statistics.median(rates)
        samples[name] = rounds
    for name, kind in PER_CALL.items():
        walls = [c.wall for c in calls if c.kind == kind]
        metrics[name] = statistics.median(walls)
        samples[name] = len(walls)
    cascade = [c for c in calls if c.kind in CASCADE_KINDS]
    metrics["call_p50_ms"] = statistics.median(c.wall for c in cascade) * 1e3
    # The tail of wall time is set by time the hypervisor steals, not by the
    # program, so the 90th percentile is taken over the child's CPU time.
    metrics["call_cpu_p90_ms"] = statistics.quantiles([c.cpu for c in cascade], n=10)[8] * 1e3
    samples["call_p50_ms"] = samples["call_cpu_p90_ms"] = len(cascade)
    return metrics, samples
