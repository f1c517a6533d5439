"""Expected outputs, computed without dgcipher, and the checks that use them.

The cascade reference walks the tables of tests/oracle_table_walk.py, but
counts only the 58 exact letter forms as letters, which is the documented
text_model rule. The oracle's own encrypt() uppercases with str.upper,
which folds look-alikes such as U+017F into S, so it is timed as the
reference speed but not used as the expected output.

Every periodic substitution here (cascade, shift, atbash, Vigenère) is
applied with str.translate over strided slices, so computing the expected
outputs costs little next to the program under test.
"""

from __future__ import annotations

import importlib.util
import re
from collections import Counter
from pathlib import Path
from types import ModuleType

from workloads import LETTERS, LOWER, UPPER, Workload

ORACLE = Path("tests/oracle_table_walk.py")
ROW_LABELS = ("G1S1", "G1S2", "G1S3", "G2S1", "G2S2", "G2S3", "FINAL")
_FOLD = str.maketrans(LOWER, UPPER)


def load_oracle(root: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location("oracle_table_walk", root / ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paper_key_file(oracle: ModuleType) -> str:
    """The oracle's tables in the dgcipher key file format."""
    rows = [*oracle.G1, *oracle.G2, oracle.FINAL]
    body = "".join(f"{label}: {row}\n" for label, row in zip(ROW_LABELS, rows))
    return "CASCADE-KEYS v1\n" + body


def _table(images: str) -> dict[int, str]:
    """Case-aware translate table sending UPPER[j] to images[j]."""
    lower_images = images.translate(str.maketrans(UPPER, LOWER))
    return str.maketrans(UPPER + LOWER, images + lower_images)


def periodic(text: str, tables: list[dict[int, str]], letters_only: bool) -> str:
    """Apply tables[i % period] to the i-th position (or i-th letter)."""
    n = len(tables)
    if not letters_only:
        out = list(text)
        for r, table in enumerate(tables):
            out[r::n] = text[r::n].translate(table)
        return "".join(out)
    positions = [i for i, c in enumerate(text) if c in LETTERS]
    mapped = periodic("".join(text[i] for i in positions), tables, False)
    out = list(text)
    for i, c in zip(positions, mapped):
        out[i] = c
    return "".join(out)


def cascade_image_row(oracle: ModuleType, rows: list[str]) -> str:
    """One group's whole pipeline as the images of UPPER, walked by the oracle."""
    return "".join(oracle.walk(c, rows) for c in UPPER)


def cascade_tables(oracle: ModuleType) -> list[dict[int, str]]:
    return [_table(cascade_image_row(oracle, rows)) for rows in (oracle.G1, oracle.G2)]


def shift_table(k: int) -> dict[int, str]:
    return _table(UPPER[k:] + UPPER[:k])


ATBASH = _table(UPPER[::-1])


def vigenere_tables(key: str) -> list[dict[int, str]]:
    return [shift_table(UPPER.index(c)) for c in key]


def substitute(text: str, mapping: dict[str, str]) -> str:
    """Apply a letter-to-letter map to text, keeping case and passthrough."""
    return text.translate(_table("".join(mapping[c] for c in UPPER)))


TURKISH_I_UPPER = str.maketrans({"i": "İ", "ı": "I"})


def chi_squared(observed: Counter, expected: dict[str, int], floor: float = 1e-6) -> float:
    """Chi-squared distance between two letter count profiles, as analysis defines it."""
    n_obs, n_exp = sum(observed.values()), sum(expected.values())
    total = 0.0
    for c in UPPER:
        fe = expected.get(c, 0) / n_exp
        total += (observed.get(c, 0) / n_obs - fe) ** 2 / max(fe, floor)
    return total


class Expected:
    """Expected outputs for one workload, computed once before timing."""

    def __init__(self, w: Workload, oracle: ModuleType):
        tables = cascade_tables(oracle)
        self.cascade = [periodic(m, tables, False) for m in w.messages]
        self.cascade_lo = [periodic(m, tables, True) for m in w.messages]
        self.shift = periodic(w.text, [shift_table(w.shift_k)], False)
        self.atbash = periodic(w.text, [ATBASH], False)
        self.vigenere = periodic(w.text, vigenere_tables(w.vigenere_key), True)
        self.counts = count_letters(w.text)
        self.flat_letters = sum(count_letters(w.flat_text).values())


def count_letters(text: str) -> Counter:
    """Counts of the 29 canonical letters, case folded; passthrough ignored."""
    counts: Counter = Counter()
    for c, n in Counter(text).items():
        if c in LETTERS:
            counts[c.translate(_FOLD)] += n
    return counts


# --- checks of CLI output; each returns None or the reason it failed ---

def check_equal(got: str, want: str, what: str) -> str | None:
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"{what}: differs at char {at} (got {len(got)} chars, want {len(want)})"


def check_analyze(report: str, want: Counter) -> str | None:
    lines = report.splitlines()
    total = sum(want.values())
    if not lines or lines[0] != f"letters: {total}":
        return f"analyze: header {lines[:1]!r}, want 'letters: {total}'"
    got = {}
    for line in lines[1:]:
        fields = line.split()
        if len(fields) == 3:
            got[fields[0]] = int(fields[1])
    if got != {c: want.get(c, 0) for c in UPPER}:
        return "analyze: letter counts differ from a Counter of the input"
    return None


def check_crack(output: str, k: int) -> str | None:
    return None if output.strip() == str(k) else f"crack: answered {output.strip()!r}, shift was {k}"


_FLAT_FIELDS = re.compile(
    r"rank-match accuracy vs (shift|cascade) ciphertext:\s+([0-9.]+)|"
    r"chi-squared to reference, (shift|cascade) ciphertext:\s+([0-9.]+)"
)


def check_flatness(report: str, letters: int) -> str | None:
    if not report.startswith(f"letters analyzed: {letters}\n"):
        return f"flatness: first line {report.splitlines()[:1]!r}, want {letters} letters"
    values = [float(a or b) for _, a, _, b in _FLAT_FIELDS.findall(report)]
    if len(values) != 4 or not all(0.0 <= v for v in values) or max(values[:2]) > 1.0:
        return "flatness: report summary does not parse"
    return None


def check_keycheck(output: str) -> str | None:
    want = "".join(f"{label}: ok\n" for label in ROW_LABELS) + "keyset ok: 7 alphabets, 29 letters each\n"
    return None if output == want else "keycheck: unexpected report"
