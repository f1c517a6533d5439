"""Classical substitution ciphers over the 29-letter Turkish alphabet.

Shift, atbash, vigenere and vernam keep passthrough characters in place
and preserve letter case. Shift, atbash and vigenere also come as
*_stream functions, which check their arguments at once and then
transform a text delivered in chunks. The grid and transposition ciphers
are in `grids`, so a substitution call does not load them. A one-time-pad
key for vernam is drawn from a seed with the cascade key material.
"""

from __future__ import annotations

from .errors import EmptyKey, KeyLetterOutsideAlphabet, KeyTooShort, ShiftOutOfRange
from .text_model import (
    _LATIN5,
    ALPHABET,
    ALPHABET_SIZE,
    LETTERS,
    Alphabet,
    canonical_letters,
    substitution_table,
    to_lower_tr,
    translate_stream,
)

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

_ASCII_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_ASCII_LETTERS = _ASCII_UPPER + _ASCII_UPPER.lower()


# --- shift (rotation) ---

def shift_stream(chunks: Iterable[str], k: int, *, decrypt: bool = False) -> Iterator[str]:
    """shift_encrypt (or, with decrypt, shift_decrypt) over chunks of one text."""
    if not 0 <= k < ALPHABET_SIZE:
        raise ShiftOutOfRange(f"shift must be in 0..{ALPHABET_SIZE - 1}: {k}")
    k = -k % ALPHABET_SIZE if decrypt else k
    return translate_stream(chunks, (substitution_table(ALPHABET, ALPHABET[k:] + ALPHABET[:k]),))


def shift_encrypt(message: str, k: int) -> str:
    """Rotate every letter k places forward in the alphabet, modulo 29."""
    return "".join(shift_stream([message], k))


def shift_decrypt(message: str, k: int) -> str:
    """Invert shift_encrypt with the same k."""
    return "".join(shift_stream([message], k, decrypt=True))


# --- atbash (alphabet reversal) ---

def atbash_stream(chunks: Iterable[str]) -> Iterator[str]:
    """atbash over chunks of one text."""
    return translate_stream(chunks, (substitution_table(ALPHABET, ALPHABET[::-1]),))


def atbash(message: str) -> str:
    """Mirror every letter across the alphabet; its own inverse."""
    return "".join(atbash_stream([message]))


# --- vigenere (running key) ---

def _checked_key(key: str, alphabet: Alphabet) -> str:
    """A key's characters with whitespace dropped; each must be a letter.

    Membership is strict: english26 takes ASCII letters only, so Turkish
    dotless/dotted i never fold into ASCII I, and turkish29 takes exactly
    the 29 canonical letters and their lowercase forms.
    """
    kept = "".join(key.split())
    outside = kept.lstrip(LETTERS if alphabet is Alphabet.TURKISH29 else _ASCII_LETTERS)
    if outside:
        raise KeyLetterOutsideAlphabet(f"key character {outside[0]!r} is outside the alphabet")
    return kept


def _running_key(
    chunks: Iterable[str], key_letters: str, alphabet: Alphabet, sign: int
) -> Iterator[str]:
    """Run checked key letters over chunks; the letters are folded to uppercase here."""
    if not key_letters:
        raise EmptyKey("key contains no letters")
    if alphabet is Alphabet.ENGLISH26:
        letters, lower, counted, upper = _ASCII_UPPER, str.lower, _ASCII_LETTERS, str.upper
    else:
        letters, lower, counted, upper = ALPHABET, to_lower_tr, LETTERS, canonical_letters
    row, key = letters.encode(_LATIN5), upper(key_letters).encode(_LATIN5)
    # One table per letter the key holds, by its Latin-5 byte: bytes, unlike
    # a str, are searched and iterated without making 1-character strings.
    tables = {}
    for j, byte in enumerate(row):
        if byte in key:
            k = sign * j % len(row)
            tables[byte] = substitution_table(letters, letters[k:] + letters[:k], lower)
    # Period len(key), counted over letters: passthrough does not consume a key letter.
    return translate_stream(chunks, list(map(tables.__getitem__, key)), counted)


def vigenere_stream(
    chunks: Iterable[str], key: str, alphabet: Alphabet = Alphabet.ENGLISH26, *, decrypt: bool = False
) -> Iterator[str]:
    """vigenere_encrypt (or, with decrypt, vigenere_decrypt) over chunks of one text."""
    return _running_key(chunks, _checked_key(key, alphabet), alphabet, -1 if decrypt else 1)


def vigenere_encrypt(message: str, key: str, alphabet: Alphabet = Alphabet.ENGLISH26) -> str:
    """Shift each letter by the next key letter's index, cycling the key.

    The key advances on enciphered letters only. With ENGLISH26 the case
    rules are plain ASCII; with TURKISH29 the Turkish i rules apply.
    """
    return "".join(vigenere_stream([message], key, alphabet))


def vigenere_decrypt(message: str, key: str, alphabet: Alphabet = Alphabet.ENGLISH26) -> str:
    """Invert vigenere_encrypt with the same key and alphabet."""
    return "".join(vigenere_stream([message], key, alphabet, decrypt=True))


# --- vernam (one-time running key) ---

def _vernam(message: str, key: str, sign: int) -> str:
    letters = _checked_key(key, Alphabet.TURKISH29)
    needed = len(canonical_letters(message))
    if needed > len(letters):
        raise KeyTooShort(f"message has {needed} letters, key has {len(letters)}")
    if not needed:
        return message
    # A running key as long as the message is a Vigenère key that never repeats;
    # only the part of the key it uses is folded.
    return "".join(_running_key([message], letters[:needed], Alphabet.TURKISH29, sign))


def vernam_encrypt(message: str, key: str) -> str:
    """Add key letter indices to message letter indices, modulo 29.

    Every message letter consumes one key letter; the key must be at least
    as long (in letters) as the message. Whitespace in the key is ignored.
    """
    return _vernam(message, key, +1)


def vernam_decrypt(message: str, key: str) -> str:
    """Invert vernam_encrypt with the same key."""
    return _vernam(message, key, -1)

