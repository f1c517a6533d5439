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
    PaddingInSameCellAsNeighbor,
    RailsOutOfRange,
    WrongLength,
)
from .text_model import ALPHABET, LETTERS, _check_row, canonical_letters, to_upper_tr


# --- playfair (5x5 digram cipher) ---

# 29 letters fold into 25 cells: three cells hold the merged letters
# S/Ş, U/Ü and V/Y/Z; the first member is the cell's representative.
_MERGED = {
    "S": ("S", "Ş"), "Ş": ("S", "Ş"),
    "U": ("U", "Ü"), "Ü": ("U", "Ü"),
    "V": ("V", "Y", "Z"), "Y": ("V", "Y", "Z"), "Z": ("V", "Y", "Z"),
}
_CELL_OF = {letter: _MERGED.get(letter, (letter,)) for letter in ALPHABET}
_CELLS_CANONICAL = tuple(
    _CELL_OF[letter] for letter in ALPHABET if _CELL_OF[letter][0] == letter
)


class PlayfairSpec(namedtuple("PlayfairSpec", "keyword padding", defaults=("M",))):
    """Parameters for the digram cipher: a keyword and a padding letter."""

    __slots__ = ()


class PlayfairTable(namedtuple("PlayfairTable", "cells")):
    """A 5x5 arrangement of the 25 letter cells, row by row."""

    __slots__ = ()

    def position_of(self, letter: str) -> tuple[int, int]:
        try:
            return divmod(self.cells.index(_CELL_OF[letter]), 5)
        except (KeyError, ValueError):
            raise LetterNotInGrid(f"letter {letter!r} has no cell") from None

    def representative_at(self, row: int, col: int) -> str:
        return self.cells[row * 5 + col][0]

    def same_cell(self, a: str, b: str) -> bool:
        return self.position_of(a) == self.position_of(b)


def playfair_build(keyword: str) -> PlayfairTable:
    """Build the table: keyword cells first (deduplicated, order kept),
    then every remaining cell in canonical order."""
    keyword_letters = canonical_letters(keyword)
    if not keyword_letters:
        raise EmptyKeyword("keyword contains no letters")
    ordered: list[tuple[str, ...]] = []
    for letter in keyword_letters:
        cell = _CELL_OF[letter]
        if cell not in ordered:
            ordered.append(cell)
    ordered.extend(cell for cell in _CELLS_CANONICAL if cell not in ordered)
    return PlayfairTable(tuple(ordered))


def _playfair_pairs(
    letters: str, padding: str, where: dict[str, tuple[int, int]]
) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    i = 0
    while i < len(letters):
        a = letters[i]
        if i + 1 < len(letters) and where[a] != where[letters[i + 1]]:
            pairs.append((a, letters[i + 1]))
            i += 2
            continue
        # Same-cell neighbor or trailing single letter: pair with padding.
        if where[a] == where[padding]:
            raise PaddingInSameCellAsNeighbor(
                f"padding {padding!r} shares a cell with {a!r}"
            )
        pairs.append((a, padding))
        i += 1
    return pairs


def _padding_letter(spec: PlayfairSpec) -> str:
    folded = to_upper_tr(spec.padding)
    if len(folded) != 1 or folded not in ALPHABET:
        raise NonCanonicalSymbol(f"padding must be one letter: {spec.padding!r}")
    return folded


def _playfair_map(
    pair: tuple[str, str], table: PlayfairTable, where: dict[str, tuple[int, int]], shift: int
) -> tuple[str, str]:
    (ra, ca), (rb, cb) = where[pair[0]], where[pair[1]]
    if ra == rb:
        return table.representative_at(ra, (ca + shift) % 5), table.representative_at(rb, (cb + shift) % 5)
    if ca == cb:
        return table.representative_at((ra + shift) % 5, ca), table.representative_at((rb + shift) % 5, cb)
    return table.representative_at(ra, cb), table.representative_at(rb, ca)


def _playfair(message: str, spec: PlayfairSpec, shift: int) -> str:
    # Encryption (shift +1) pads the letters into digrams; decryption
    # (shift -1) takes them two by two.
    table = playfair_build(spec.keyword)
    letters = canonical_letters(message)
    # position_of searches the cells; one call looks each letter up once.
    where = {letter: table.position_of(letter) for letter in ALPHABET}
    if shift > 0:
        pairs = _playfair_pairs(letters, _padding_letter(spec), where)
    elif len(letters) % 2:
        raise OddLengthCiphertext(f"{len(letters)} letters cannot form digrams")
    else:
        pairs = zip(letters[::2], letters[1::2])
    return "".join("".join(_playfair_map(p, table, where, shift)) for p in pairs)


def playfair_encrypt(message: str, spec: PlayfairSpec) -> str:
    """Encrypt digrams: same row moves right, same column moves down,
    otherwise swap columns. Output letters are the cell representatives."""
    return _playfair(message, spec, +1)


def playfair_decrypt(message: str, spec: PlayfairSpec) -> str:
    """Invert playfair_encrypt digram by digram (left/up/swap columns).

    Decryption emits cell representatives, so merged letters come back as
    S, U or V. Padding letters inserted on encryption are kept.
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


def polybius_encode(message: str, spec: PolybiusSpec | None = None) -> str:
    """Encode each letter as "<row><col>" (1-based digits).

    Codes of consecutive letters are joined with "-"; passthrough
    characters are kept verbatim and break the joined runs. Digits or
    dashes already present in the message make the output ambiguous to
    decode, so keep them out of messages that must round-trip.
    """
    codes = _codes(spec or canonical_grid())

    def encode_run(run: re.Match[str]) -> str:
        try:
            return "-".join([codes[letter] for letter in canonical_letters(run[0])])
        except KeyError as missing:
            raise LetterNotInGrid(f"letter {missing.args[0]} is not in the grid") from None

    return re.sub(f"[{LETTERS}]+", encode_run, message)


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
