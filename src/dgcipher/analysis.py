"""Letter frequency analysis and the flatness experiment.

The tools here quantify the point of the cascade cipher: a single-alphabet
substitution drags the plaintext's frequency profile along with it, while
the two-group cascade flattens the profile enough that simple rank
matching stops working. No reference distribution is hardcoded; callers
build one from a corpus with build_reference_table.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import EmptyText, ShiftOutOfRange, TooShort
from .text_model import (
    ALPHABET,
    ALPHABET_SIZE,
    LETTERS,
    IndexMode,
    phase_counts,
    substitution_table,
    translate_stream,
)

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from .keyset import CascadeKeySet

CHI_SQUARED_FLOOR = 1e-6


class FrequencyTable(namedtuple("FrequencyTable", "counts total_letters")):
    """Letter counts over a text; every canonical letter has an entry.

    Frequencies are derived from the integer counts on demand, so tables
    over a doubled corpus compare equal on .frequencies exactly.
    """

    __slots__ = ()

    def frequency(self, letter: str) -> float:
        return self.counts[letter] / self.total_letters

    @property
    def frequencies(self) -> dict[str, float]:
        return {letter: self.frequency(letter) for letter in ALPHABET}

    def ranked(self) -> list[str]:
        """Letters from most to least frequent; ties break in alphabet order."""
        return sorted(ALPHABET, key=lambda l: -self.counts[l])


def _table_from_counts(counts: dict[str, int]) -> FrequencyTable:
    total = sum(counts.values())
    if total == 0:
        raise EmptyText("no letters to count")
    return FrequencyTable(counts=counts, total_letters=total)


def letter_frequencies(text: str) -> FrequencyTable:
    """Count canonical letters in a text; case and passthrough are ignored.

    Raises:
        EmptyText: the text contains no letters at all.
    """
    return build_reference_table(text)


def build_reference_table(chunks: Iterable[str]) -> FrequencyTable:
    """Build a reference table from a corpus delivered in chunks.

    Accepts any iterable of strings (a plain string counts as one chunk),
    so a large corpus file can be streamed with constant memory.
    """
    return _table_from_counts(dict(zip(ALPHABET, phase_counts(chunks)[0])))


class SubstitutionGuess(namedtuple("SubstitutionGuess", "mapping")):
    """A guessed ciphertext-to-plaintext letter map from rank matching."""

    __slots__ = ()

    def apply(self, text: str) -> str:
        """Rewrite a text through the guess, keeping passthrough and case."""
        table = substitution_table("".join(self.mapping), "".join(self.mapping.values()))
        return "".join(translate_stream([text], (table,)))


def rank_match_attack(ciphertext: str, reference: FrequencyTable) -> SubstitutionGuess:
    """Pair ciphertext letters with reference letters rank for rank.

    The most frequent ciphertext letter is guessed to be the most frequent
    reference letter, and so on down both rankings. Ties break in alphabet
    order, so the guess is deterministic.
    """
    return SubstitutionGuess(mapping=_rank_match(letter_frequencies(ciphertext), reference))


def _rank_match(observed: FrequencyTable, reference: FrequencyTable) -> dict[str, str]:
    return dict(zip(observed.ranked(), reference.ranked()))


def chi_squared_distance(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Chi-squared distance between two frequency profiles.

    Expected frequencies are floored at 1e-6 so letters absent from the
    reference cannot zero a denominator; identical tables score exactly 0.
    The measure is asymmetric: expected provides the denominators.
    """
    row = [observed.counts[letter] for letter in ALPHABET]
    return _chi_squared(row, observed.total_letters, expected)


def _chi_squared(row: Sequence[int], total: int, expected: FrequencyTable) -> float:
    # Chi-squared distance of a count row in alphabet order. The terms are
    # added one by one in alphabet order (sum() may round differently), so
    # every caller gets the same float for the same counts.
    distance = 0.0
    for n, letter in zip(row, ALPHABET):
        fe = expected.frequency(letter)
        distance += (n / total - fe) ** 2 / max(fe, CHI_SQUARED_FLOOR)
    return distance


class ShiftGuess(namedtuple("ShiftGuess", "shift low_confidence distances")):
    """Result of crack_shift: the best shift and its score context."""

    __slots__ = ()


def crack_shift(
    ciphertext: str | Iterable[str], reference: FrequencyTable, *, min_letters: int = 100
) -> ShiftGuess:
    """Recover a shift cipher's k by chi-squared scoring of all 29 shifts.

    Each candidate k is scored by decrypting with it and comparing the
    letter profile to the reference; the smallest distance wins, ties
    going to the smallest k. Texts under min_letters letters still return
    a result, flagged low confidence. The ciphertext may come as an
    iterable of chunks (a plain string counts as one chunk); only its
    letter counts are kept.

    Raises:
        EmptyText: the ciphertext contains no letters.
    """
    observed = build_reference_table(ciphertext)
    row = [observed.counts[letter] for letter in ALPHABET]
    # Decrypting by k rotates the count row; no need to rewrite the text.
    distances = [
        _chi_squared(row[k:] + row[:k], observed.total_letters, reference)
        for k in range(ALPHABET_SIZE)
    ]
    best = min(range(ALPHABET_SIZE), key=lambda k: (distances[k], k))
    return ShiftGuess(
        shift=best,
        low_confidence=observed.total_letters < min_letters,
        distances=tuple(distances),
    )


class FlatnessReport(namedtuple("FlatnessReport", (
    "total_letters shift_k index_mode plain_table shift_table cascade_table"
    " shift_accuracy cascade_accuracy shift_chi_squared cascade_chi_squared"
))):
    """Side-by-side profile of a plaintext, its shift image, and its cascade image."""

    __slots__ = ()

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


def _cipher_profile(
    phases: tuple[tuple[Sequence[int], str], ...], reference: FrequencyTable
) -> tuple[FrequencyTable, float]:
    """Letter table of a ciphertext and the share of its letters rank matching recovers.

    Each phase pairs the counts of the plaintext letters the cipher sends
    through one row, in alphabet order, with that row, which maps
    ALPHABET[j] to row[j]. The guess is the one rank_match_attack derives
    from the ciphertext; a letter is recovered when the guess maps its
    image back to it.
    """
    counts = dict.fromkeys(ALPHABET, 0)
    for plain, row in phases:
        for n, image in zip(plain, row):
            counts[image] += n
    table = _table_from_counts(counts)
    guess = _rank_match(table, reference)
    recovered = sum(
        n
        for plain, row in phases
        for letter, n, image in zip(ALPHABET, plain, row)
        if guess[image] == letter
    )
    return table, recovered / table.total_letters


def flatness_report(
    plaintext: str | Iterable[str],
    keyset: CascadeKeySet,
    reference: FrequencyTable,
    *,
    mode: IndexMode = IndexMode.ALL_CHARS,
    shift_k: int = 3,
    min_letters: int = 1000,
) -> FlatnessReport:
    """Measure how much flatter the cascade leaves the letter profile.

    Compares a plain shift by shift_k with the cascade: frequency tables
    of both ciphertexts, rank-match recovery accuracy against the true
    plaintext, and chi-squared distance to the reference profile.

    Both ciphers send each letter through a fixed row chosen by its phase
    (the cascade's by position parity, counted as `mode` says), so
    everything follows from the plaintext's letter counts per phase;
    neither ciphertext is built. The plaintext may come as an iterable of
    chunks (a plain string counts as one chunk); text_model.phase_counts
    sums the counts chunk by chunk with the phase carried over, so memory
    use is bounded by chunk size.

    Raises:
        EmptyText: no letters at all.
        TooShort: fewer than min_letters letters of plaintext.
        ShiftOutOfRange: shift_k outside 0..28.
    """
    even, odd = phase_counts(plaintext, 2, LETTERS if mode is IndexMode.LETTERS_ONLY else None)
    plain = [e + o for e, o in zip(even, odd)]
    plain_table = _table_from_counts(dict(zip(ALPHABET, plain)))
    if plain_table.total_letters < min_letters:
        raise TooShort(
            f"need at least {min_letters} letters, got {plain_table.total_letters}"
        )
    if not 0 <= shift_k < ALPHABET_SIZE:
        raise ShiftOutOfRange(f"shift must be in 0..{ALPHABET_SIZE - 1}: {shift_k}")
    shift_row = ALPHABET[shift_k:] + ALPHABET[:shift_k]
    shift_table, shift_accuracy = _cipher_profile(((plain, shift_row),), reference)
    group1, group2 = keyset.composite_rows
    cascade_table, cascade_accuracy = _cipher_profile(((even, group1), (odd, group2)), reference)
    return FlatnessReport(
        total_letters=plain_table.total_letters,
        shift_k=shift_k,
        index_mode=mode,
        plain_table=plain_table,
        shift_table=shift_table,
        cascade_table=cascade_table,
        shift_accuracy=shift_accuracy,
        cascade_accuracy=cascade_accuracy,
        shift_chi_squared=chi_squared_distance(shift_table, reference),
        cascade_chi_squared=chi_squared_distance(cascade_table, reference),
    )
