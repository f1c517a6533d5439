"""The periodic-substitution engine of the cascade and the classical ciphers.

Every letter-wise cipher in the package is a periodic substitution: the
i-th letter (or character) goes through tables[i % p]. substitution_table
builds one case-aware bytes.translate table over Latin-5 (ISO-8859-9),
which holds the 58 Turkish letter forms and the 52 ASCII letters in one
byte each, and translate_stream, the engine's one entry, applies a tuple
of them to the Latin-5 bytes of a text in chunks, carrying the phase from
one chunk to the next, so no cipher walks a message one character at a
time. Counted over all characters, each strided slice takes one
translate. Counted over letters, each non-letter byte is widened to p
bytes, putting every letter on the stride of its phase, unless that adds
over _MAX_FILLER times the chunk; then the letters alone are translated
and scattered back through one "%c" template.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, islice
from operator import add, getitem

from .text_model import _LATIN5, to_lower_tr

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator, Sequence


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


# A letters-only chunk is widened unless its fillers would add more than
# this many times its length (Vernam; keys over about 25 letters at 16%
# passthrough); it then takes the "%c" template. On a 64 KiB chunk of bulk
# text with 16% passthrough (Python 3.11.7, 2-vCPU VM) widening took 2.36
# against the template's 3.08 ms at period 32, 2.85 against 2.86 at 40 and
# 3.55 against 3.11 at 48: the bound is below the crossover.
_MAX_FILLER = 4


def translate_stream(
    chunks: Iterable[str], tables: Sequence[bytes], letters: str | None = None
) -> Iterator[str]:
    """Send the i-th counted character of a text through tables[i % p],
    chunk by chunk, yielding one output chunk per input chunk.

    The tables come from substitution_table. With letters None every
    character is counted. With a string of letters (such as LETTERS) only
    those characters are counted and translated; everything else is copied
    verbatim. The phase is carried from one chunk to the next: one stream
    is one text, however it is split, so memory use is bounded by chunk size.
    """
    period = len(tables)
    if letters is not None:
        letter_bytes = letters.encode(_LATIN5)
        # Letters kept and every other byte 0x00, and the reverse.
        marks = bytes(byte if byte in letter_bytes else 0 for byte in range(256))
        others = bytes(0 if byte in letter_bytes else byte for byte in range(256))
    phase = 0
    for chunk in chunks:
        data = chunk.encode(_LATIN5, "replace")
        if letters is None:
            out, counted = _strided(data, tables, phase), len(data)
        else:
            marked = data.translate(marks)
            counted = len(data) - marked.count(0)
            if (period - 1) * (len(data) - counted) <= _MAX_FILLER * len(data):
                out = _widened(data, marked, tables, phase, others)
            else:
                out = _scattered(data, marked, tables, phase, letter_bytes)
        phase = (phase + counted) % period
        yield _decode(out, chunk)


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


def _widened(data: bytes, marked: bytes, tables: Sequence[bytes], phase: int, others: bytes) -> bytes:
    # A non-letter byte (0x00 in marked) followed by p - 1 fillers 0x01
    # puts a letter at widened byte j in phase (phase + j) % p. The tables
    # keep 0x00 and 0x01 and send letters to letters; with the fillers
    # dropped (bytes delete faster than bytearray), one OR restores data's non-letters.
    wide = marked.replace(b"\0", b"\0" + b"\1" * (len(tables) - 1))
    mapped = bytes(_strided(wide, tables, phase)).translate(None, b"\1")
    chosen = int.from_bytes(mapped, "little") | int.from_bytes(data.translate(others), "little")
    return chosen.to_bytes(len(data), "little")


def _scattered(data: bytes, marked: bytes, tables: Sequence[bytes], phase: int, letters: bytes) -> bytes:
    # Translate the letters alone, then put them back with one C-level
    # format: the text with "%" escaped and each letter byte turned into "%c".
    mapped = _strided(marked.translate(None, b"\0"), tables, phase)
    marker = letters[:1]
    template = data.replace(b"%", b"%%").translate(bytes.maketrans(letters, marker * len(letters)))
    return template.replace(marker, b"%c") % tuple(mapped)


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
