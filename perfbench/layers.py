"""Per-layer measurement: the benchmark's own code times calls into each
dgcipher module on the workload's inputs, in one process.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends. A run alternates untraced and traced passes over the same
calls; the tracing overhead is the median traced pass minus the median
untraced pass. Start-up layers are timed in child processes: the bare
interpreter by its wall time, the import of dgcipher.cli by the child
itself. Every call's result is checked against an expectation computed
without dgcipher, and a wrong one counts as a failed operation.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Iterator

import reference as ref
from e2e import CALL_TIMEOUT_S, Runner
from workloads import UPPER, Workload

CHUNK = 1 << 16
_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import dgcipher.cli; print(time.perf_counter() - t)"
)
SPAN_NAMES = (
    "text_model.tokenize", "text_model.render", "text_model.to_upper_tr",
    "keyset.parse", "keyset.serialize", "keyset.generate",
    "cascade.encrypt_all_chars", "cascade.decrypt_all_chars",
    "cascade.encrypt_letters_only", "cascade.decrypt_letters_only",
    "cascade.stream", "cascade.composite",
    "classical.shift", "classical.atbash", "classical.vigenere_tr29",
    "analysis.letter_frequencies", "analysis.build_reference_table", "analysis.rank_match_apply",
    "analysis.chi_squared", "analysis.crack_shift", "analysis.flatness_report",
    "cli.interpreter", "cli.import", "cli.build_parser", "cli.main",
    "oracle.encrypt",
)


class Tracer:
    """In-memory spans; disabled, it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end"] = time.perf_counter()

    def add(self, name: str, seconds: float) -> None:
        """Record a span measured inside a child process, ending now."""
        if self.enabled:
            end = time.perf_counter()
            self.spans.append({"id": len(self.spans), "name": name, "parent": self._open[-1],
                               "start": end - seconds, "end": end, "in_child": True})

    def totals(self, pass_id: int) -> dict[str, float]:
        """Seconds per span name among the children of one pass."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for s in self.spans:
            if s["parent"] == pass_id:
                out[s["name"]] += s["end"] - s["start"]
        return out


def _chunks(text: str) -> list[str]:
    return [text[i:i + CHUNK] for i in range(0, len(text), CHUNK)] or [""]


class LayerRun:
    def __init__(self, root: Path, work: Path, runner: Runner, w: Workload, exp: ref.Expected,
                 oracle: ModuleType, key_file: str):
        sys.path.insert(0, str(root / "src"))
        self.dg = {name: importlib.import_module(f"dgcipher.{name}")
                   for name in ("text_model", "keyset", "cascade", "classical", "analysis", "cli")}
        self.work, self.runner, self.w, self.exp, self.oracle = work, runner, w, exp, oracle
        self.key_file = key_file
        self.rows = [*oracle.G1, *oracle.G2, oracle.FINAL]
        self.seeded_file = (work / "flat.keys").read_text(encoding="utf-8")
        corpus = (root / "tests/fixtures/turkish_corpus.txt").read_text(encoding="utf-8")
        self.reference = self.dg["analysis"].build_reference_table(corpus)
        self.composites = [ref.cascade_image_row(oracle, rows) for rows in (oracle.G1, oracle.G2)]

    def check(self, what: str, ok: bool) -> None:
        self.runner.record(None if ok else f"{what}: wrong result")

    def _child(self, code: str) -> tuple[float, str]:
        start = time.perf_counter()
        done = subprocess.run((sys.executable, "-c", code), env=self.runner.env, cwd=self.work,
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        return time.perf_counter() - start, done.stdout if done.returncode == 0 else ""

    def one_pass(self, tr: Tracer) -> None:
        tm, ks, cas, cl, an, cli = (self.dg[n] for n in
                                    ("text_model", "keyset", "cascade", "classical", "analysis", "cli"))
        w, exp, check = self.w, self.exp, self.check
        with tr.span("pass"):
            with tr.span("keyset.parse"):
                keys = ks.parse_keyset(self.key_file)
            check("keyset.parse", [a.letters for _, a in keys.rows()] == self.rows)
            with tr.span("keyset.serialize"):
                text = ks.serialize_keyset(keys)
            check("keyset.serialize", text == self.key_file)
            with tr.span("keyset.generate"):
                seeded = ks.generate_keyset(w.key_seed)
            check("keyset.generate", ks.serialize_keyset(seeded, rng_name=ks.RNG_NAME) == self.seeded_file)

            modes = ((tm.IndexMode.ALL_CHARS, "all_chars", exp.cascade),
                     (tm.IndexMode.LETTERS_ONLY, "letters_only", exp.cascade_lo))
            for i, message in enumerate(w.messages):
                for mode, label, want in modes:
                    with tr.span(f"cascade.encrypt_{label}"):
                        ct = cas.encrypt_message(message, keys, mode)
                    check(f"cascade.encrypt_{label}", ct == want[i])
                    with tr.span(f"cascade.decrypt_{label}"):
                        pt = cas.decrypt_message(ct, keys, mode)
                    check(f"cascade.decrypt_{label}", pt == message)
                with tr.span("cascade.stream"):
                    streamed = "".join(cas.transform_stream(_chunks(message), keys))
                check("cascade.stream", streamed == exp.cascade[i])
                with tr.span("oracle.encrypt"):
                    self.oracle.encrypt(message)
                out = self.work / "main.out.txt"
                with tr.span("cli.main"):
                    code = cli.main(["encrypt", "--key", str(self.work / "key.txt"),
                                     "--in", str(self.work / f"msg{i}.txt"), "--out", str(out)])
                check("cli.main", code == 0 and out.read_bytes().decode("utf-8") == exp.cascade[i])
            with tr.span("cascade.composite"):
                rows = [cas.composite_table(g, keys).letters for g in tm.Group]
            check("cascade.composite", rows == self.composites)

            text = w.text
            with tr.span("text_model.tokenize"):
                units = tm.tokenize(text)
            with tr.span("text_model.render"):
                back = tm.render(units)
            check("text_model.render", back == text)
            with tr.span("text_model.to_upper_tr"):
                upper = tm.to_upper_tr(text)
            check("text_model.to_upper_tr", upper == text.translate(ref.TURKISH_I_UPPER).upper())

            with tr.span("classical.shift"):
                shifted = cl.shift_encrypt(text, w.shift_k)
            check("classical.shift", shifted == exp.shift)
            with tr.span("classical.atbash"):
                mirrored = cl.atbash(text)
            check("classical.atbash", mirrored == exp.atbash)
            with tr.span("classical.vigenere_tr29"):
                vig = cl.vigenere_encrypt(text, w.vigenere_key, cl.Alphabet.TURKISH29)
            check("classical.vigenere_tr29", vig == exp.vigenere)

            with tr.span("analysis.letter_frequencies"):
                table = an.letter_frequencies(text)
            check("analysis.letter_frequencies", dict(table.counts) == {c: exp.counts[c] for c in UPPER})
            with tr.span("analysis.build_reference_table"):
                streamed_table = an.build_reference_table(_chunks(text))
            check("analysis.build_reference_table", streamed_table == table)
            guess = an.rank_match_attack(shifted, self.reference)
            with tr.span("analysis.rank_match_apply"):
                recovered = guess.apply(shifted)
            check("analysis.rank_match_apply", recovered == ref.substitute(shifted, guess.mapping))
            with tr.span("analysis.chi_squared"):
                distance = an.chi_squared_distance(table, self.reference)
            check("analysis.chi_squared", abs(distance - ref.chi_squared(exp.counts, self.reference.counts)) < 1e-9)
            with tr.span("analysis.crack_shift"):
                cracked = an.crack_shift(shifted, self.reference)
            check("analysis.crack_shift", cracked.shift == w.shift_k)
            with tr.span("analysis.flatness_report"):
                report = an.flatness_report(w.flat_text, seeded, self.reference)
            check("analysis.flatness_report", report.total_letters == exp.flat_letters)

            with tr.span("cli.interpreter"):
                self._child("pass")
            wall, printed = self._child(_IMPORT_TIMER)
            check("cli.import", bool(printed))
            tr.add("cli.import", float(printed or wall))
            with tr.span("cli.build_parser"):
                cli.build_parser()


def measure(layers: LayerRun, seconds: float) -> tuple[dict[str, float], Tracer]:
    """Alternate untraced and traced passes for about `seconds`."""
    tracer = Tracer(enabled=True)
    untraced, traced, pass_ids = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        # Alternate which pass of a pair runs first, so warm-up favours neither.
        for traced_pass in (False, True) if len(traced) % 2 == 0 else (True, False):
            if traced_pass:
                pass_ids.append(len(tracer.spans))
            t0 = time.perf_counter()
            layers.one_pass(tracer if traced_pass else Tracer(enabled=False))
            (traced if traced_pass else untraced).append(time.perf_counter() - t0)
        now = time.perf_counter()
        if now - start + (now - pair_start) / 2 > seconds:
            break
    per_pass = [tracer.totals(pid) for pid in pass_ids]
    metrics = {f"{name}_s": statistics.median(p[name] for p in per_pass) for name in SPAN_NAMES}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, tracer
