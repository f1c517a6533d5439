"""Grid and transposition ciphers over the 29-letter Turkish alphabet.

Playfair, polybius, rail fence and scytale work on the letters alone and
emit canonical uppercase, because their preprocessing already discards
the original spacing.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import ceil

from .errors import (
    CircumferenceOutOfRange,
    DuplicateGridLetter,
    EmptyKeyword,
    GridTooLarge,
    LetterNotInGrid,
    MalformedDigitPair,
    NonCanonicalSymbol,
    OddLengthCiphertext,
    RailsOutOfRange,
    WrongLength,
)
from .text_model import ALPHABET, LETTERS, _check_row, canonical_letters, to_upper_tr


# --- playfair (5x5 digram cipher) ---

# 29 letters fold into 25 cells: S/Ş, U/Ü and V/Y/Z share one each. Two
# letters share a cell exactly when they fold to the same letter, which is
# the cell's representative.
_FOLD = str.maketrans("ŞÜYZ", "SUVV")


class PlayfairSpec(namedtuple("PlayfairSpec", "keyword padding", defaults=("M",))):
    """Parameters for the digram cipher: a keyword and a padding letter."""

    __slots__ = ()


def playfair_build(keyword: str) -> str:
    """The 25 cell representatives of the 5x5 table, row by row: keyword
    cells first (deduplicated, order kept), then every remaining cell in
    canonical order."""
    keyword_letters = canonical_letters(keyword)
    if not keyword_letters:
        raise EmptyKeyword("keyword contains no letters")
    return "".join(dict.fromkeys((keyword_letters + ALPHABET).translate(_FOLD)))


# A folded letter, then the next one unless it shares the first one's cell.
_DIGRAM = re.compile(r"(.)((?!\1).)?")


def _playfair_padded(folded: str, pad: str) -> str:
    # A filler goes after a letter whose neighbor shares its cell and after a
    # trailing letter: the padding, or a spare (A, or B when the padding is A)
    # after a letter in the padding's own cell.
    spare = "B" if pad == "A" else "A"
    return _DIGRAM.sub(lambda m: m[0] if m[2] else m[1] + (spare if m[1] == pad else pad), folded)


def _padding_letter(spec: PlayfairSpec) -> str:
    folded = to_upper_tr(spec.padding)
    if len(folded) != 1 or folded not in ALPHABET:
        raise NonCanonicalSymbol(f"padding must be one letter: {spec.padding!r}")
    return folded


def _playfair(message: str, spec: PlayfairSpec, shift: int) -> str:
    # Encryption (shift +1) pads the letters into digrams; decryption
    # (shift -1) takes them two by two.
    cells = playfair_build(spec.keyword)
    letters = canonical_letters(message).translate(_FOLD)
    if shift > 0:
        letters = _playfair_padded(letters, _padding_letter(spec).translate(_FOLD))
    elif len(letters) % 2:
        raise OddLengthCiphertext(f"{len(letters)} letters cannot form digrams")
    where = {letter: divmod(i, 5) for i, letter in enumerate(cells)}
    out: list[str] = []
    for a, b in zip(letters[::2], letters[1::2]):
        (ra, ca), (rb, cb) = where[a], where[b]
        if ra == rb:
            ca, cb = (ca + shift) % 5, (cb + shift) % 5
        elif ca == cb:
            ra, rb = (ra + shift) % 5, (rb + shift) % 5
        else:
            ca, cb = cb, ca
        out.append(cells[ra * 5 + ca] + cells[rb * 5 + cb])
    return "".join(out)


def playfair_encrypt(message: str, spec: PlayfairSpec) -> str:
    """Encrypt digrams: same row moves right, same column moves down,
    otherwise swap columns. Output letters are the cell representatives."""
    return _playfair(message, spec, +1)


def playfair_decrypt(message: str, spec: PlayfairSpec) -> str:
    """Invert playfair_encrypt digram by digram (left/up/swap columns).

    Decryption emits cell representatives, so merged letters come back as
    S, U or V. Fillers inserted on encryption are kept.
    """
    return _playfair(message, spec, -1)


# --- polybius (coordinate grid) ---

class PolybiusSpec(namedtuple("PolybiusSpec", "rows cols grid")):
    """A rows x cols letter grid, row-major, short last row allowed."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, grid: str) -> PolybiusSpec:
        if rows < 1 or cols < 1:
            raise WrongLength(f"grid needs positive dimensions: {rows}x{cols}")
        if rows > 9 or cols > 9:
            raise GridTooLarge("digit pairs cannot address rows or columns past 9")
        _check_row(grid, DuplicateGridLetter, " in the grid")
        if not (rows - 1) * cols < len(grid) <= rows * cols:
            raise WrongLength(f"{len(grid)} letters do not fill {rows} rows of {cols}")
        return super().__new__(cls, rows, cols, grid)


def canonical_grid() -> PolybiusSpec:
    """The whole alphabet in five rows of six, as in the worked examples."""
    return PolybiusSpec(rows=5, cols=6, grid=ALPHABET)


def _codes(spec: PolybiusSpec) -> dict[str, str]:
    # Each grid letter's "<row><col>" code, 1-based.
    return {
        letter: f"{where // spec.cols + 1}{where % spec.cols + 1}"
        for where, letter in enumerate(spec.grid)
    }


# Between two adjacent letters, where polybius_encode joins their codes with "-".
_LETTER_GAP = re.compile(f"(?<=[{LETTERS}])(?=[{LETTERS}])")


def polybius_encode(message: str, spec: PolybiusSpec | None = None) -> str:
    """Encode each letter as "<row><col>" (1-based digits).

    Codes of consecutive letters are joined with "-"; passthrough
    characters are kept verbatim and break the joined runs. Digits or
    dashes already present in the message make the output ambiguous to
    decode, so keep them out of messages that must round-trip.
    """
    spec = spec or canonical_grid()
    missing = canonical_letters(message).translate(str.maketrans("", "", spec.grid))
    if missing:
        raise LetterNotInGrid(f"letter {missing[0]} is not in the grid")
    codes = _codes(spec)
    pairs = zip(LETTERS, canonical_letters(LETTERS))
    table = str.maketrans({form: codes[letter] for form, letter in pairs if letter in codes})
    return _LETTER_GAP.sub("-", message).translate(table)


def polybius_decode(code: str, spec: PolybiusSpec | None = None) -> str:
    """Decode digit pairs back to letters; "-" separators are dropped and
    any other character passes through verbatim."""
    letters = {pair: letter for letter, pair in _codes(spec or canonical_grid()).items()}

    def decode_token(token: re.Match[str]) -> str:
        # Tokens come left to right, so the first bad one raises.
        if token[0] == "-":
            return ""
        if len(token[0]) == 1:
            raise MalformedDigitPair(f"lone digit at position {token.start()}")
        try:
            return letters[token[0]]
        except KeyError:
            raise MalformedDigitPair(f"no grid cell at {token[0]}") from None

    # ASCII digits only: other Unicode digits pass through.
    return re.sub("[0-9]{1,2}|-", decode_token, code)


# --- rail fence and scytale (transpositions) ---

def _reorder(letters: str, order: list[int], decrypt: bool) -> str:
    # Encryption reads the letter at each position of order in turn;
    # decryption puts each letter back at its position.
    if decrypt:
        return "".join(letter for _, letter in sorted(zip(order, letters)))
    return "".join(letters[i] for i in order)


def _rail_fence(message: str, rails: int, decrypt: bool) -> str:
    if rails < 1:
        raise RailsOutOfRange(f"rails must be at least 1: {rails}")
    letters = canonical_letters(message)
    # The zigzag repeats every 2 * rails - 2 letters; at step r of a cycle
    # it is on rail min(r, cycle - r). Rails are read top to bottom.
    cycle = max(2 * rails - 2, 1)
    order = sorted(range(len(letters)), key=lambda i: min(i % cycle, cycle - i % cycle))
    return _reorder(letters, order, decrypt)


def rail_fence_encrypt(message: str, rails: int) -> str:
    """Write the letters in a zigzag over the rails, read rail by rail."""
    return _rail_fence(message, rails, False)


def rail_fence_decrypt(message: str, rails: int) -> str:
    """Invert rail_fence_encrypt; the original spacing is not restored."""
    return _rail_fence(message, rails, True)


def _scytale(message: str, circumference: int, decrypt: bool) -> str:
    if circumference < 1:
        raise CircumferenceOutOfRange(f"circumference must be at least 1: {circumference}")
    letters = canonical_letters(message)
    cols = ceil(len(letters) / circumference)
    return _reorder(letters, sorted(range(len(letters)), key=lambda i: i % cols), decrypt)


def scytale_encrypt(message: str, circumference: int) -> str:
    """Fill circumference rows in row-major order, read column by column."""
    return _scytale(message, circumference, False)


def scytale_decrypt(message: str, circumference: int) -> str:
    """Invert scytale_encrypt for the same circumference."""
    return _scytale(message, circumference, True)
