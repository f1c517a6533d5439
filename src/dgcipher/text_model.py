"""Turkish text model: the 29-letter alphabet, case rules, and the substitution engine.

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

Every letter-wise cipher in the package is a periodic substitution: the
i-th letter (or character) goes through tables[i % p]. substitution_table
builds one case-aware bytes.translate table over Latin-5 (ISO-8859-9),
which holds the 58 Turkish letter forms and the 52 ASCII letters in one
byte each, and translate_periodic applies a tuple of them to the text's
Latin-5 bytes, so no cipher walks a message one character at a time.
Counted over all characters, each strided slice takes one translate.
Counted over letters, period two picks each byte from the text translated
by either table; any other period translates the letters alone and
scatters them back through one "%c" template. translate_stream carries
the phase from one chunk of a text to the next. Letter counting
(phase_counts) works on the same Latin-5 bytes, folded to uppercase,
and keeps the same phase rule: it counts each letter per phase, so a
period-p cipher's statistics come from one pass over the plaintext.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import accumulate, chain, count, islice
from operator import add, getitem

from .errors import NonCanonicalSymbol

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator, Sequence

ALPHABET = "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ"
LOWERCASE = "abcçdefgğhıijklmnoöprsştuüvyz"
ALPHABET_SIZE = len(ALPHABET)

_INDEX = {letter: j for j, letter in enumerate(ALPHABET)}
_LOWER_INDEX = {letter: j for j, letter in enumerate(LOWERCASE)}

# The 58 letter forms that count as letters.
LETTERS = ALPHABET + LOWERCASE

# The engine works on Latin-5 bytes. Encoding with "replace" writes one "?"
# for each code point Latin-5 lacks (astral characters, lone surrogates,
# other scripts), so byte offsets equal str indices.
_LATIN5 = "iso8859_9"

# Latin-5 tables: lowercase letters to uppercase, and the bytes that are not letters.
_UPPER_BYTES = bytes.maketrans(LOWERCASE.encode(_LATIN5), ALPHABET.encode(_LATIN5))
_NOT_LETTER_BYTES = bytes(set(range(256)).difference(LETTERS.encode(_LATIN5)))
_ALPHABET_BYTES = ALPHABET.encode(_LATIN5)

_UPPER_SPECIAL = {"i": "İ", "ı": "I"}
_LOWER_SPECIAL = {"İ": "i", "I": "ı"}


def to_upper_tr(text: str) -> str:
    """Uppercase a string with the Turkish i rules (i -> İ, ı -> I)."""
    return "".join(_UPPER_SPECIAL.get(c, c.upper()) for c in text)


def to_lower_tr(text: str) -> str:
    """Lowercase a string with the Turkish i rules (İ -> i, I -> ı)."""
    return "".join(_LOWER_SPECIAL.get(c, c.lower()) for c in text)


def canonical_letters(text: str) -> str:
    """The letters of a text in canonical uppercase, passthrough dropped."""
    return text.encode(_LATIN5, "replace").translate(_UPPER_BYTES, _NOT_LETTER_BYTES).decode(_LATIN5)


def phase_counts(
    chunks: Iterable[str], period: int = 1, letters: str | None = None
) -> list[list[int]]:
    """Count each canonical letter per phase over a text in chunks.

    The i-th counted character is in phase i % period, counted as
    translate_periodic counts: every character with letters None, or
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


def substitution_table(
    source: str, image: str, lower: Callable[[str], str] = to_lower_tr
) -> bytes:
    """Build a case-aware bytes.translate table sending source[j] to image[j].

    Both rows hold uppercase letters. The table also sends the lowercase
    form of source[j] to the lowercase form of image[j], with lowercase
    forms taken by `lower`: the Turkish rules by default (I pairs with ı,
    İ with i; str.lower would turn İ into two code points). The table is
    over the Latin-5 bytes of the letters; every other byte maps to itself.
    """
    return bytes.maketrans(
        (source + lower(source)).encode(_LATIN5), (image + lower(image)).encode(_LATIN5)
    )


def translate_periodic(
    text: str,
    tables: Sequence[bytes],
    phase: int = 0,
    letters: str | None = None,
) -> tuple[str, int]:
    """Send the i-th counted character of text through tables[(phase + i) % p].

    The tables come from substitution_table. With letters None every
    character is counted. With a string of letters (such as LETTERS) only
    those characters are counted and translated; everything else is copied
    verbatim.

    Returns the output and the phase for the text that follows, so a
    stream translated chunk by chunk equals the whole text translated once.
    """
    period = len(tables)
    data = text.encode(_LATIN5, "replace")
    if letters is None:
        out, counted = _strided(data, tables, phase), len(data)
    elif period == 2:  # counted is then the letter count's parity
        out, counted = _by_parity(data, tables, phase, letters.encode(_LATIN5))
    else:
        out, counted = _scattered(data, tables, phase, letters.encode(_LATIN5))
    return _decode(out, text), (phase + counted) % period


def translate_stream(
    chunks: Iterable[str], tables: Sequence[bytes], letters: str | None = None
) -> Iterator[str]:
    """translate_periodic over a text delivered in chunks, yielding output chunks.

    The phase is carried from one chunk to the next: one stream is one
    text, however it is split, so memory use is bounded by chunk size.
    """
    phase = 0
    for chunk in chunks:
        out, phase = translate_periodic(chunk, tables, phase, letters)
        yield out


def _strided(data: bytes, tables: Sequence[bytes], phase: int) -> bytearray:
    # Bytes r, r + p, r + 2p, ... share a table: one translate each,
    # written into one buffer.
    period = len(tables)
    if period >= len(data):
        # At most one byte per residue: one pass sends each through its table.
        return bytearray(map(getitem, chain(islice(tables, phase, None), tables), data))
    out = bytearray(len(data))
    for r in range(period):
        out[r::period] = data[r::period].translate(tables[(phase + r) % period])
    return out


def _by_parity(
    data: bytes, tables: Sequence[bytes], phase: int, letters: bytes
) -> tuple[bytes, int]:
    # Period two over letters. Each byte's letter flag (0 or 1) sits at
    # bits 8i..8i+7 of one integer; XORed with itself shifted down by 1, 2,
    # 4, ... bytes, byte i holds the parity of the letters from i on, and
    # byte 0 that of all of them. No bit crosses into the next byte, so
    # times 255 it is a 0x00/0xFF mask. A byte whose parity from i on
    # equals the total has an even number of letters before it and takes
    # tables[phase]; a passthrough byte is the same under both tables.
    size = len(data)
    flags = data.translate(bytes(byte in letters for byte in range(256)))
    parity = int.from_bytes(flags, "little")
    step = 8
    while step < 8 * size:
        parity ^= parity >> step
        step <<= 1
    total = parity & 1
    same = int.from_bytes(data.translate(tables[phase ^ total]), "little")
    other = int.from_bytes(data.translate(tables[phase ^ total ^ 1]), "little")
    chosen = same ^ ((same ^ other) & parity * 255)
    return chosen.to_bytes(size, "little"), total


def _scattered(
    data: bytes, tables: Sequence[bytes], phase: int, letters: bytes
) -> tuple[bytes, int]:
    # Any period over letters: translate the letters alone, then put them
    # back with one C-level format. The template is the text with "%"
    # escaped and each letter byte turned into "%c".
    others = bytes(byte for byte in range(256) if byte not in letters)
    mapped = _strided(data.translate(None, others), tables, phase)
    marker = letters[:1]
    template = data.replace(b"%", b"%%").translate(
        bytes.maketrans(letters, marker * len(letters))
    ).replace(marker, b"%c")
    return template % tuple(mapped), len(mapped)


def _decode(data: bytes | bytearray, text: str) -> str:
    # Every "?" of the output stands where text had "?" or a character
    # Latin-5 lacks; put the latter back.
    mapped = data.decode(_LATIN5)
    replaced = mapped.count("?") - text.count("?")
    if not replaced:
        return mapped
    if 8 * replaced < len(text):
        # A few: take each from text. The k-th "?" follows k earlier ones
        # and the first k + 1 pieces between them.
        pieces = mapped.split("?")
        at = map(add, accumulate(map(len, pieces[:-1])), count())
        return "".join(chain.from_iterable(zip(pieces, map(text.__getitem__, at)))) + pieces[-1]
    # Many: choose every character at once, between the UTF-32 code units
    # of mapped and of text, under a mask that is 0xFFFFFFFF where data
    # holds "?". Per character of text this costs about a ninth of what
    # the path above spends per character it puts back.
    lanes = data.translate(bytes(byte == ord("?") for byte in range(256)))
    mask = int.from_bytes(lanes.decode("latin-1").encode("utf-32-le"), "little") * 0xFFFFFFFF
    new = int.from_bytes(mapped.encode("utf-32-le"), "little")
    old = int.from_bytes(text.encode("utf-32-le", "surrogatepass"), "little")
    chosen = new ^ ((new ^ old) & mask)
    return chosen.to_bytes(4 * len(text), "little").decode("utf-32-le", "surrogatepass")


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
