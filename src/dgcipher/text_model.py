"""Turkish text model: the 29-letter alphabet, case rules, and letter counting.

Every cipher in this package works over the canonical uppercase alphabet

    A B C Ç D E F G Ğ H I İ J K L M N O Ö P R S Ş T U Ü V Y Z

with zero-based letter indices. Characters outside that alphabet (digits,
punctuation, whitespace, and also Q, W, X) are passthrough: kept verbatim,
never enciphered.

Case is handled with the Turkish pairing of the two i letters: I/ı are the
dotless pair and İ/i the dotted pair, which is exactly where str.upper and
str.lower go wrong. Only the 29 uppercase letters and their 29 exact
lowercase forms count as letters; look-alikes from other scripts stay
passthrough.

Letter counting (phase_counts) works on Latin-5 bytes folded to uppercase
and keeps the phase rule of engine.translate_stream, so a period-p cipher's
statistics come from one pass over the plaintext.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from operator import add

from .errors import NonCanonicalSymbol

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

ALPHABET = "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ"
LOWERCASE = "abcçdefgğhıijklmnoöprsştuüvyz"
ALPHABET_SIZE = len(ALPHABET)

_INDEX = {letter: j for j, letter in enumerate(ALPHABET)}
_LOWER_INDEX = {letter: j for j, letter in enumerate(LOWERCASE)}

# The 58 letter forms that count as letters.
LETTERS = ALPHABET + LOWERCASE

# Letters are counted and substituted on Latin-5 bytes. Encoding with
# "replace" writes one "?" for each code point Latin-5 lacks (astral
# characters, lone surrogates, other scripts), so byte offsets equal str indices.
_LATIN5 = "iso8859_9"

# Latin-5 tables: lowercase letters to uppercase, and the bytes that are not letters.
_UPPER_BYTES = bytes.maketrans(LOWERCASE.encode(_LATIN5), ALPHABET.encode(_LATIN5))
_NOT_LETTER_BYTES = bytes(set(range(256)).difference(LETTERS.encode(_LATIN5)))
_ALPHABET_BYTES = ALPHABET.encode(_LATIN5)

_LOWER_SPECIAL = {"İ": "i", "I": "ı"}


def to_upper_tr(text: str) -> str:
    """Uppercase a string with the Turkish i rules (i -> İ, ı -> I)."""
    return text.replace("i", "İ").upper()  # str.upper maps ı to I itself


def to_lower_tr(text: str) -> str:
    """Lowercase a string with the Turkish i rules (İ -> i, I -> ı)."""
    # Per character: str.lower gives a final sigma by context ("ΑΣ" -> "ας").
    return "".join(_LOWER_SPECIAL.get(c, c.lower()) for c in text)


def canonical_letters(text: str) -> str:
    """The letters of a text in canonical uppercase, passthrough dropped."""
    return text.encode(_LATIN5, "replace").translate(_UPPER_BYTES, _NOT_LETTER_BYTES).decode(_LATIN5)


def phase_counts(
    chunks: Iterable[str], period: int = 1, letters: str | None = None
) -> list[list[int]]:
    """Count each canonical letter per phase over a text in chunks.

    The i-th counted character is in phase i % period, counted as
    engine.translate_stream counts: every character with letters None, or
    only those in letters (such as LETTERS). The phase is carried from
    one chunk to the next, and a plain string counts as one chunk.

    Returns period rows of ALPHABET_SIZE counts in ALPHABET order; a
    letter's lowercase form counts as the letter. Only the 58 exact letter
    forms count: each chunk is folded to uppercase on its Latin-5 bytes,
    where every code point Latin-5 lacks is a "?" and every other
    character outside the 58 is a non-letter byte.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    others = b"" if letters is None else bytes(set(range(256)).difference(letters.encode(_LATIN5)))
    rows = [[0] * ALPHABET_SIZE for _ in range(period)]
    phase = 0
    for chunk in chunks:
        folded = chunk.encode(_LATIN5, "replace").translate(_UPPER_BYTES, others)
        for r in range(period):
            # Byte j is in phase (phase + j) % period.
            part = folded[(r - phase) % period::period]
            rows[r] = list(map(add, rows[r], map(part.count, _ALPHABET_BYTES)))
        phase = (phase + len(folded)) % period
    return rows


def letter_index(letter: str) -> int:
    """Return the zero-based alphabet index of a canonical uppercase letter.

    Args:
        letter: one of the 29 canonical uppercase letters.

    Raises:
        NonCanonicalSymbol: for anything else, including lowercase forms.
    """
    try:
        return _INDEX[letter]
    except KeyError:
        raise NonCanonicalSymbol(f"not a canonical letter: {letter!r}") from None


def _check_row(row: str, duplicate: type[Exception], where: str = "") -> None:
    """Raise for the first letter of row that letter_index rejects or
    that repeats; a repeat raises duplicate, naming the letter."""
    seen = set()
    for letter in row:
        letter_index(letter)
        if letter in seen:
            raise duplicate(f"letter {letter} appears twice{where}")
        seen.add(letter)


# The per-character model below is on no cipher's path; tokenize and render
# stay for the benchmark's layer spans.


class LetterUnit(namedtuple("LetterUnit", "letter was_lowercase")):
    """One enciphered position: a canonical letter plus its original case."""

    __slots__ = ()


class Passthrough(namedtuple("Passthrough", "raw")):
    """One character that is copied through ciphers verbatim."""

    __slots__ = ()


def tokenize(message: str) -> list[LetterUnit | Passthrough]:
    """Split a message into letter units and passthrough characters."""
    return [
        LetterUnit(c, False) if c in _INDEX
        else LetterUnit(ALPHABET[_LOWER_INDEX[c]], True) if c in _LOWER_INDEX
        else Passthrough(c)
        for c in message
    ]


def render(units: Iterable[LetterUnit | Passthrough]) -> str:
    """Reassemble units into a string, restoring original letter case."""
    parts = []
    for unit in units:
        if isinstance(unit, LetterUnit):
            parts.append(to_lower_tr(unit.letter) if unit.was_lowercase else unit.letter)
        else:
            parts.append(unit.raw)
    return "".join(parts)


class IndexMode(Enum):
    """How message positions are counted when routing letters to groups."""

    ALL_CHARS = "all-chars"
    LETTERS_ONLY = "letters-only"


class Alphabet(Enum):
    """Working alphabet for the running-key cipher (classical.vigenere_*)."""

    ENGLISH26 = "english26"
    TURKISH29 = "turkish29"


class Group(Enum):
    """The two substitution pipelines of the cascade cipher."""

    GROUP1 = 1
    GROUP2 = 2
