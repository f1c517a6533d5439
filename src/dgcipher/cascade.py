"""The dual-group cascade cipher.

Each letter of a message is routed by position parity to one of two
pipelines (odd one-based positions to GROUP1, even to GROUP2). A pipeline
pushes the letter through its three stage alphabets in order, then the
shared final alphabet replaces the result with its cyclic predecessor in
that row: find the staged letter in the final row and emit the letter one
position earlier, wrapping from the first position to the last.

Because every step is a fixed bijection, each group collapses to a single
composite permutation, which the keyset computes once
(CascadeKeySet.composite_rows) and composite_table() exposes. The whole
cipher is therefore a period-two substitution: each composite row becomes
a case-aware byte table, and text_model.translate_periodic sends the even
zero-based positions (or letter ordinals) through the GROUP1 table and
the odd ones through the GROUP2 table.

Passthrough characters are copied verbatim and, in ALL_CHARS mode, still
advance the position counter; in LETTERS_ONLY mode only letters advance
it. Case survives: lowercase plaintext letters come back as lowercase
ciphertext letters.
"""

from __future__ import annotations

from .keyset import CascadeKeySet, SubstitutionAlphabet
from .text_model import (
    ALPHABET,
    LETTERS,
    Group,
    IndexMode,
    letter_index,
    substitution_table,
    translate_periodic,
)

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

_ROW = {Group.GROUP1: 0, Group.GROUP2: 1}


def encrypt_letter(letter: str, group: Group, keyset: CascadeKeySet) -> str:
    """Encrypt one canonical letter through the given group's pipeline."""
    return keyset.composite_rows[_ROW[group]][letter_index(letter)]


def decrypt_letter(letter: str, group: Group, keyset: CascadeKeySet) -> str:
    """Invert encrypt_letter: the letter the group's pipeline sends here."""
    return keyset.inverse_rows[_ROW[group]][letter_index(letter)]


def transform_stream(
    chunks: Iterable[str],
    keyset: CascadeKeySet,
    mode: IndexMode = IndexMode.ALL_CHARS,
    *,
    decrypt: bool = False,
) -> Iterator[str]:
    """Transform a message delivered in chunks, yielding output chunks.

    The position counters are global across the stream: one stream is one
    message, however it is split, so memory use is bounded by chunk size.
    """
    rows = keyset.inverse_rows if decrypt else keyset.composite_rows
    tables = tuple(substitution_table(ALPHABET, row) for row in rows)
    letters = LETTERS if mode is IndexMode.LETTERS_ONLY else None
    phase = 0
    for chunk in chunks:
        out, phase = translate_periodic(chunk, tables, phase, letters)
        yield out


def encrypt_message(
    message: str, keyset: CascadeKeySet, mode: IndexMode = IndexMode.ALL_CHARS
) -> str:
    """Encrypt a whole message, preserving passthrough characters and case."""
    return "".join(transform_stream([message], keyset, mode))


def decrypt_message(
    message: str, keyset: CascadeKeySet, mode: IndexMode = IndexMode.ALL_CHARS
) -> str:
    """Invert encrypt_message under the same keyset and index mode."""
    return "".join(transform_stream([message], keyset, mode, decrypt=True))


def composite_table(group: Group, keyset: CascadeKeySet) -> SubstitutionAlphabet:
    """Collapse one group's full pipeline into a single substitution alphabet.

    Constructing the result revalidates that the pipeline is a bijection.
    """
    return SubstitutionAlphabet(keyset.composite_rows[_ROW[group]])
