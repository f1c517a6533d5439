"""Letter frequency analysis and the flatness experiment.

The tools here quantify the point of the cascade cipher: a single-alphabet
substitution drags the plaintext's frequency profile along with it, while
the two-group cascade flattens the profile enough that simple rank
matching stops working. No reference distribution is hardcoded; callers
build one from a corpus with build_reference_table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Mapping

from .cascade import encrypt_message
from .classical import shift_encrypt
from .errors import EmptyText, TooShort
from .keyset import CascadeKeySet
from .text_model import (
    ALPHABET,
    ALPHABET_SIZE,
    LOWERCASE,
    IndexMode,
    canonical_letters,
    substitution_table,
)

CHI_SQUARED_FLOOR = 1e-6


@dataclass(frozen=True)
class FrequencyTable:
    """Letter counts over a text; every canonical letter has an entry.

    Frequencies are derived from the integer counts on demand, so tables
    over a doubled corpus compare equal on .frequencies exactly.
    """

    counts: Mapping[str, int]
    total_letters: int

    def frequency(self, letter: str) -> float:
        return self.counts[letter] / self.total_letters

    @property
    def frequencies(self) -> dict[str, float]:
        return {letter: self.frequency(letter) for letter in ALPHABET}

    def ranked(self) -> list[str]:
        """Letters from most to least frequent; ties break in alphabet order."""
        return sorted(ALPHABET, key=lambda l: (-self.counts[l], ALPHABET.index(l)))


def _table_from_counts(counts: Counter[str]) -> FrequencyTable:
    """Fold per-character counts into the canonical letters; the rest is passthrough."""
    folded = {upper: counts[upper] + counts[lower] for upper, lower in zip(ALPHABET, LOWERCASE)}
    total = sum(folded.values())
    if total == 0:
        raise EmptyText("no letters to count")
    return FrequencyTable(counts=folded, total_letters=total)


def letter_frequencies(text: str) -> FrequencyTable:
    """Count canonical letters in a text; case and passthrough are ignored.

    Raises:
        EmptyText: the text contains no letters at all.
    """
    return _table_from_counts(Counter(text))


def build_reference_table(chunks: Iterable[str]) -> FrequencyTable:
    """Build a reference table from a corpus delivered in chunks.

    Accepts any iterable of strings (a plain string counts as one chunk),
    so a large corpus file can be streamed with constant memory.
    """
    if isinstance(chunks, str):
        chunks = [chunks]
    counts: Counter[str] = Counter()
    for chunk in chunks:
        counts.update(chunk)
    return _table_from_counts(counts)


@dataclass(frozen=True)
class SubstitutionGuess:
    """A guessed ciphertext-to-plaintext letter map from rank matching."""

    mapping: Mapping[str, str]

    def apply(self, text: str) -> str:
        """Rewrite a text through the guess, keeping passthrough and case."""
        table = substitution_table("".join(self.mapping), "".join(self.mapping.values()))
        return text.translate(table)


def rank_match_attack(ciphertext: str, reference: FrequencyTable) -> SubstitutionGuess:
    """Pair ciphertext letters with reference letters rank for rank.

    The most frequent ciphertext letter is guessed to be the most frequent
    reference letter, and so on down both rankings. Ties break in alphabet
    order, so the guess is deterministic.
    """
    observed = letter_frequencies(ciphertext)
    return SubstitutionGuess(
        mapping=dict(zip(observed.ranked(), reference.ranked()))
    )


def chi_squared_distance(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Chi-squared distance between two frequency profiles.

    Expected frequencies are floored at 1e-6 so letters absent from the
    reference cannot zero a denominator; identical tables score exactly 0.
    The measure is asymmetric: expected provides the denominators.
    """
    total = 0.0
    for letter in ALPHABET:
        fo = observed.frequency(letter)
        fe = expected.frequency(letter)
        total += (fo - fe) ** 2 / max(fe, CHI_SQUARED_FLOOR)
    return total


@dataclass(frozen=True)
class ShiftGuess:
    """Result of crack_shift: the best shift and its score context."""

    shift: int
    low_confidence: bool
    distances: tuple[float, ...]


def crack_shift(
    ciphertext: str, reference: FrequencyTable, *, min_letters: int = 100
) -> ShiftGuess:
    """Recover a shift cipher's k by chi-squared scoring of all 29 shifts.

    Each candidate k is scored by decrypting with it and comparing the
    letter profile to the reference; the smallest distance wins, ties
    going to the smallest k. Texts under min_letters letters still return
    a result, flagged low confidence.

    Raises:
        EmptyText: the ciphertext contains no letters.
    """
    observed = letter_frequencies(ciphertext)
    distances: list[float] = []
    for k in range(ALPHABET_SIZE):
        # Decrypting by k rotates the count row; no need to rewrite the text.
        decrypted = FrequencyTable(
            counts={
                ALPHABET[j]: observed.counts[ALPHABET[(j + k) % ALPHABET_SIZE]]
                for j in range(ALPHABET_SIZE)
            },
            total_letters=observed.total_letters,
        )
        distances.append(chi_squared_distance(decrypted, reference))
    best = min(range(ALPHABET_SIZE), key=lambda k: (distances[k], k))
    return ShiftGuess(
        shift=best,
        low_confidence=observed.total_letters < min_letters,
        distances=tuple(distances),
    )


@dataclass(frozen=True)
class FlatnessReport:
    """Side-by-side profile of a plaintext, its shift image, and its cascade image."""

    total_letters: int
    shift_k: int
    index_mode: IndexMode
    plain_table: FrequencyTable
    shift_table: FrequencyTable
    cascade_table: FrequencyTable
    shift_accuracy: float
    cascade_accuracy: float
    shift_chi_squared: float
    cascade_chi_squared: float

    def render_text(self) -> str:
        """Human-readable report."""
        lines = [
            f"letters analyzed: {self.total_letters}",
            f"shift amount: {self.shift_k}",
            f"index mode: {self.index_mode.value}",
            "",
            "letter  plain   shift   cascade",
        ]
        for letter in ALPHABET:
            lines.append(
                f"{letter:<7}"
                f"{self.plain_table.frequency(letter):<8.4f}"
                f"{self.shift_table.frequency(letter):<8.4f}"
                f"{self.cascade_table.frequency(letter):.4f}"
            )
        lines += [
            "",
            f"rank-match accuracy vs shift ciphertext:   {self.shift_accuracy:.4f}",
            f"rank-match accuracy vs cascade ciphertext: {self.cascade_accuracy:.4f}",
            f"chi-squared to reference, shift ciphertext:   {self.shift_chi_squared:.6f}",
            f"chi-squared to reference, cascade ciphertext: {self.cascade_chi_squared:.6f}",
        ]
        return "\n".join(lines) + "\n"

    def render_records(self) -> str:
        """Machine-readable report: tab-separated records."""
        lines = []
        for name, table in (
            ("plain", self.plain_table),
            ("shift", self.shift_table),
            ("cascade", self.cascade_table),
        ):
            for letter in ALPHABET:
                lines.append(
                    f"{name}\t{letter}\t{table.counts[letter]}\t{table.frequency(letter):.6f}"
                )
        lines.append(f"accuracy\tshift\t{self.shift_accuracy:.6f}")
        lines.append(f"accuracy\tcascade\t{self.cascade_accuracy:.6f}")
        lines.append(f"chi_squared\tshift\t{self.shift_chi_squared:.6f}")
        lines.append(f"chi_squared\tcascade\t{self.cascade_chi_squared:.6f}")
        return "\n".join(lines) + "\n"


def _rank_match_accuracy(ciphertext: str, plaintext: str, reference: FrequencyTable) -> float:
    """Fraction of letter positions a rank-match guess recovers correctly."""
    # Both ciphers keep every letter where it was, so the letters-only
    # strings of the recovered text and the plaintext line up.
    recovered = canonical_letters(rank_match_attack(ciphertext, reference).apply(ciphertext))
    wanted = canonical_letters(plaintext)
    return sum(map(eq, recovered, wanted)) / len(wanted)


def flatness_report(
    plaintext: str,
    keyset: CascadeKeySet,
    reference: FrequencyTable,
    *,
    mode: IndexMode = IndexMode.ALL_CHARS,
    shift_k: int = 3,
    min_letters: int = 1000,
) -> FlatnessReport:
    """Measure how much flatter the cascade leaves the letter profile.

    Encrypts the plaintext once with a plain shift and once with the
    cascade, then compares both ciphertexts: frequency tables, rank-match
    recovery accuracy against the true plaintext, and chi-squared distance
    to the reference profile.

    Raises:
        TooShort: fewer than min_letters letters of plaintext.
        EmptyText: no letters at all.
    """
    plain_table = letter_frequencies(plaintext)
    if plain_table.total_letters < min_letters:
        raise TooShort(
            f"need at least {min_letters} letters, got {plain_table.total_letters}"
        )
    shift_text = shift_encrypt(plaintext, shift_k)
    cascade_text = encrypt_message(plaintext, keyset, mode)
    shift_table = letter_frequencies(shift_text)
    cascade_table = letter_frequencies(cascade_text)
    return FlatnessReport(
        total_letters=plain_table.total_letters,
        shift_k=shift_k,
        index_mode=mode,
        plain_table=plain_table,
        shift_table=shift_table,
        cascade_table=cascade_table,
        shift_accuracy=_rank_match_accuracy(shift_text, plaintext, reference),
        cascade_accuracy=_rank_match_accuracy(cascade_text, plaintext, reference),
        shift_chi_squared=chi_squared_distance(shift_table, reference),
        cascade_chi_squared=chi_squared_distance(cascade_table, reference),
    )
