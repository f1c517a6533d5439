"""The dual-group cascade cipher.

Each letter of a message is routed by position parity to one of two
pipelines (odd one-based positions to GROUP1, even to GROUP2). A pipeline
pushes the letter through its three stage alphabets in order, then the
shared final alphabet replaces the result with its cyclic predecessor in
that row: find the staged letter in the final row and emit the letter one
position earlier, wrapping from the first position to the last.

Because every step is a fixed bijection, each group collapses to a single
composite permutation, which the keyset computes
(CascadeKeySet.composite_rows) and composite_table() exposes. The whole
cipher is therefore a period-two substitution: each composite row becomes
a case-aware byte table (read backwards, from row to alphabet, to
decrypt), and engine.translate_stream sends the even zero-based
positions (or letter ordinals) through the GROUP1 table and the odd ones
through the GROUP2 table.

Passthrough characters are copied verbatim and, in ALL_CHARS mode, still
advance the position counter; in LETTERS_ONLY mode only letters advance
it. Case survives: lowercase plaintext letters come back as lowercase
ciphertext letters.
"""

from __future__ import annotations

from .engine import substitution_table, translate_stream
from .keyset import CascadeKeySet, SubstitutionAlphabet
from .text_model import ALPHABET, LETTERS, Group, IndexMode

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator


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
    pairs = ((row, ALPHABET) if decrypt else (ALPHABET, row) for row in keyset.composite_rows)
    tables = tuple(substitution_table(*pair) for pair in pairs)
    return translate_stream(chunks, tables, LETTERS if mode is IndexMode.LETTERS_ONLY else None)


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
    return SubstitutionAlphabet(keyset.composite_rows[group.value - 1])
