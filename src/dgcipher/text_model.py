"""Turkish text model: the 29-letter alphabet, case rules, and tokenization.

Every cipher in this package works over the canonical uppercase alphabet

    A B C Ç D E F G Ğ H I İ J K L M N O Ö P R S Ş T U Ü V Y Z

with zero-based letter indices. Characters outside that alphabet (digits,
punctuation, whitespace, and also Q, W, X) are passthrough: kept verbatim,
never enciphered.

Case is handled with the Turkish pairing of the two i letters: I/ı are the
dotless pair and İ/i the dotted pair, which is exactly where str.upper and
str.lower go wrong. Only the 29 uppercase letters and their 29 exact
lowercase forms count as letters; look-alikes from other scripts stay
passthrough, so tokenize/render round-trips any string unchanged.

Every letter-wise cipher in the package is a periodic substitution: the
i-th letter (or character) goes through tables[i % p]. substitution_table
builds one case-aware str.translate table and translate_periodic applies a
tuple of them, so no cipher walks a message one character at a time.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from enum import Enum
from itertools import accumulate

from .errors import NonCanonicalSymbol

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Sequence

ALPHABET = "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ"
LOWERCASE = "abcçdefgğhıijklmnoöprsştuüvyz"
ALPHABET_SIZE = len(ALPHABET)

_INDEX = {letter: j for j, letter in enumerate(ALPHABET)}
_LOWER_INDEX = {letter: j for j, letter in enumerate(LOWERCASE)}

# Regex sources, compiled on first use by re's own cache so that importing
# the package compiles no regex. LETTER_RUNS has one capturing group, so
# re.split keeps the runs at the odd indices of its result.
LETTER_RUNS = f"([{ALPHABET}{LOWERCASE}]+)"
_NON_LETTERS = f"[^{ALPHABET}{LOWERCASE}]+"
_FOLD_UPPER = str.maketrans(LOWERCASE, ALPHABET)

# str <-> native-order UTF-32 code points; surrogatepass lets lone
# surrogates through.
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"

_UPPER_SPECIAL = {"i": "İ", "ı": "I"}
_LOWER_SPECIAL = {"İ": "i", "I": "ı"}


def to_upper_tr(text: str) -> str:
    """Uppercase a string with the Turkish i rules (i -> İ, ı -> I)."""
    return "".join(_UPPER_SPECIAL.get(c, c.upper()) for c in text)


def to_lower_tr(text: str) -> str:
    """Lowercase a string with the Turkish i rules (İ -> i, I -> ı)."""
    return "".join(_LOWER_SPECIAL.get(c, c.lower()) for c in text)


def strip_passthrough(text: str) -> str:
    """The letters of a text in their own case, passthrough dropped."""
    return re.sub(_NON_LETTERS, "", text)


def canonical_letters(text: str) -> str:
    """The letters of a text in canonical uppercase, passthrough dropped."""
    return strip_passthrough(text).translate(_FOLD_UPPER)


def substitution_table(
    source: str, image: str, lower: Callable[[str], str] = to_lower_tr
) -> dict[int, int]:
    """Build a case-aware str.translate table sending source[j] to image[j].

    Both rows hold uppercase letters. The table also sends the lowercase
    form of source[j] to the lowercase form of image[j], with lowercase
    forms taken by `lower`: the Turkish rules by default (I pairs with ı,
    İ with i; str.lower would turn İ into two code points). Characters
    outside the table pass through str.translate unchanged.
    """
    return str.maketrans(source + lower(source), image + lower(image))


def translate_periodic(
    text: str,
    tables: Sequence[dict[int, int]],
    phase: int = 0,
    runs: str | None = None,
) -> tuple[str, int]:
    """Send the i-th counted character of text through tables[(phase + i) % p].

    With runs None every character is counted. With a regex (one capturing
    group, such as LETTER_RUNS) only the characters inside its matches are
    counted and translated; everything between them is copied verbatim.

    Returns the output and the phase for the text that follows, so a
    stream translated chunk by chunk equals the whole text translated once.
    """
    period = len(tables)
    if runs is None:
        return _strided(text, tables, phase), (phase + len(text)) % period
    parts = re.split(runs, text)
    letters = "".join(parts[1::2])
    mapped = _strided(letters, tables, phase)
    ends = list(accumulate(map(len, parts[1::2])))
    parts[1::2] = [mapped[start:end] for start, end in zip([0, *ends], ends)]
    return "".join(parts), (phase + len(letters)) % period


def _strided(text: str, tables: Sequence[dict[int, int]], phase: int) -> str:
    # Characters r, r + p, r + 2p, ... share a table: one translate each,
    # written as UTF-32 code points into one buffer that is decoded once.
    # A memoryview cast to "I" does what array("I") would without loading
    # the array extension module on every call of the CLI.
    period = len(tables)
    out = bytearray(4 * len(text))
    code_points = memoryview(out).cast("I")
    for r in range(min(period, len(text))):
        mapped = text[r::period].translate(tables[(phase + r) % period])
        code_points[r::period] = memoryview(mapped.encode(_UTF32, "surrogatepass")).cast("I")
    return out.decode(_UTF32, "surrogatepass")


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


def letter_at(index: int) -> str:
    """Return the canonical letter at a zero-based alphabet index."""
    if not 0 <= index < ALPHABET_SIZE:
        raise NonCanonicalSymbol(f"letter index out of range: {index}")
    return ALPHABET[index]


class LetterUnit(namedtuple("LetterUnit", "letter was_lowercase")):
    """One enciphered position: a canonical letter plus its original case."""

    __slots__ = ()


class Passthrough(namedtuple("Passthrough", "raw")):
    """One character that is copied through ciphers verbatim."""

    __slots__ = ()


MessageUnit = LetterUnit | Passthrough


def to_canonical(char: str) -> MessageUnit:
    """Classify a single character as a letter unit or passthrough."""
    if char in _INDEX:
        return LetterUnit(char, was_lowercase=False)
    if char in _LOWER_INDEX:
        return LetterUnit(ALPHABET[_LOWER_INDEX[char]], was_lowercase=True)
    return Passthrough(char)


def tokenize(message: str) -> list[MessageUnit]:
    """Split a message into letter units and passthrough characters."""
    return [to_canonical(c) for c in message]


def render(units: Iterable[MessageUnit]) -> str:
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


def group_for_position(position: int, mode: IndexMode, letter_ordinal: int) -> Group:
    """Route one message position to a cascade group.

    Positions are counted zero-based; routing is by the parity of the
    one-based index. Odd one-based indices go to GROUP1, even to GROUP2.

    Args:
        position: zero-based index over all characters of the message.
        mode: which counter drives the routing.
        letter_ordinal: zero-based index over letters only (passthrough
            characters do not advance it).
    """
    index = position if mode is IndexMode.ALL_CHARS else letter_ordinal
    return Group.GROUP1 if (index + 1) % 2 else Group.GROUP2
