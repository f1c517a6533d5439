"""Classical ciphers over the 29-letter Turkish alphabet.

Substitution ciphers (shift, atbash, vigenere, vernam) keep passthrough
characters in place and preserve letter case. Grid and transposition
ciphers (playfair, polybius, rail fence, scytale) work on the letters
alone and emit canonical uppercase, because their preprocessing already
discards the original spacing.
"""

from __future__ import annotations

import string
from math import ceil
from typing import Iterable, NamedTuple

from .errors import (
    CircumferenceOutOfRange,
    DuplicateGridLetter,
    EmptyKey,
    EmptyKeyword,
    GridTooLarge,
    KeyLetterOutsideAlphabet,
    KeyTooShort,
    LetterNotInGrid,
    MalformedDigitPair,
    NonCanonicalSymbol,
    OddLengthCiphertext,
    PaddingInSameCellAsNeighbor,
    RailsOutOfRange,
    ShiftOutOfRange,
    WrongLength,
)
from .keyset import SplitMix64
from .text_model import (
    ALPHABET,
    ALPHABET_SIZE,
    LETTER_RUNS,
    Alphabet,
    LetterUnit,
    canonical_letters,
    substitution_table,
    to_canonical,
    to_lower_tr,
    to_upper_tr,
    translate_periodic,
)


def _substitute(message: str, image: str) -> str:
    """Send each letter ALPHABET[j] to image[j], keeping passthrough and case."""
    return message.translate(substitution_table(ALPHABET, image))


# --- shift (rotation) ---

def _check_shift(k: int) -> None:
    if not 0 <= k < ALPHABET_SIZE:
        raise ShiftOutOfRange(f"shift must be in 0..{ALPHABET_SIZE - 1}: {k}")


def shift_encrypt(message: str, k: int) -> str:
    """Rotate every letter k places forward in the alphabet, modulo 29."""
    _check_shift(k)
    return _substitute(message, ALPHABET[k:] + ALPHABET[:k])


def shift_decrypt(message: str, k: int) -> str:
    """Invert shift_encrypt with the same k."""
    _check_shift(k)
    return shift_encrypt(message, (ALPHABET_SIZE - k) % ALPHABET_SIZE)


# --- atbash (alphabet reversal) ---

def atbash(message: str) -> str:
    """Mirror every letter across the alphabet; its own inverse."""
    return _substitute(message, ALPHABET[::-1])


# --- vigenere (running key) ---

def _classify(char: str, alphabet: Alphabet) -> LetterUnit | None:
    """Canonical letter of char in the chosen alphabet, or None.

    Membership is strict: english26 takes ASCII letters only, so Turkish
    dotless/dotted i never fold into ASCII I, and turkish29 takes exactly
    the 29 canonical letters and their lowercase forms.
    """
    if alphabet is Alphabet.TURKISH29:
        unit = to_canonical(char)
        return unit if isinstance(unit, LetterUnit) else None
    if "A" <= char <= "Z":
        return LetterUnit(char, False)
    if "a" <= char <= "z":
        return LetterUnit(char.upper(), True)
    return None


def _key_letters(key: str, alphabet: Alphabet) -> str:
    """Canonicalize a key: whitespace is ignored, anything else must be a letter."""
    kept: list[str] = []
    for char in key:
        if char.isspace():
            continue
        unit = _classify(char, alphabet)
        if unit is None:
            raise KeyLetterOutsideAlphabet(f"key character {char!r} is outside the alphabet")
        kept.append(unit.letter)
    if not kept:
        raise EmptyKey("key contains no letters")
    return "".join(kept)


_ENGLISH_RUNS = "([A-Za-z]+)"


def _vigenere(message: str, key: str, alphabet: Alphabet, sign: int) -> str:
    if alphabet is Alphabet.ENGLISH26:
        letters, lower, runs = string.ascii_uppercase, str.lower, _ENGLISH_RUNS
    else:
        letters, lower, runs = ALPHABET, to_lower_tr, LETTER_RUNS
    key_letters = _key_letters(key, alphabet)
    tables = {}
    for letter in set(key_letters):
        k = sign * letters.index(letter) % len(letters)
        tables[letter] = substitution_table(letters, letters[k:] + letters[:k], lower)
    # Period len(key), counted over letters: passthrough does not consume a key letter.
    return translate_periodic(message, [tables[c] for c in key_letters], 0, runs)[0]


def vigenere_encrypt(message: str, key: str, alphabet: Alphabet = Alphabet.ENGLISH26) -> str:
    """Shift each letter by the next key letter's index, cycling the key.

    The key advances on enciphered letters only. With ENGLISH26 the case
    rules are plain ASCII; with TURKISH29 the Turkish i rules apply.
    """
    return _vigenere(message, key, alphabet, +1)


def vigenere_decrypt(message: str, key: str, alphabet: Alphabet = Alphabet.ENGLISH26) -> str:
    """Invert vigenere_encrypt with the same key and alphabet."""
    return _vigenere(message, key, alphabet, -1)


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


class PlayfairSpec(NamedTuple):
    """Parameters for the digram cipher: a keyword and a padding letter."""

    keyword: str
    padding: str = "M"


class PlayfairTable:
    """A 5x5 arrangement of the 25 letter cells."""

    __slots__ = ("cells", "_where")

    def __init__(self, cells: Iterable[tuple[str, ...]]):
        self.cells = tuple(cells)
        self._where = {
            letter: divmod(i, 5) for i, cell in enumerate(self.cells) for letter in cell
        }

    def position_of(self, letter: str) -> tuple[int, int]:
        try:
            return self._where[letter]
        except KeyError:
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
    return PlayfairTable(ordered)


def _playfair_pairs(letters: str, padding: str, table: PlayfairTable) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    i = 0
    while i < len(letters):
        a = letters[i]
        if i + 1 < len(letters) and not table.same_cell(a, letters[i + 1]):
            pairs.append((a, letters[i + 1]))
            i += 2
            continue
        # Same-cell neighbor or trailing single letter: pair with padding.
        if table.same_cell(a, padding):
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


def _playfair_map(pair: tuple[str, str], table: PlayfairTable, shift: int) -> tuple[str, str]:
    (ra, ca), (rb, cb) = table.position_of(pair[0]), table.position_of(pair[1])
    if ra == rb:
        return table.representative_at(ra, (ca + shift) % 5), table.representative_at(rb, (cb + shift) % 5)
    if ca == cb:
        return table.representative_at((ra + shift) % 5, ca), table.representative_at((rb + shift) % 5, cb)
    return table.representative_at(ra, cb), table.representative_at(rb, ca)


def playfair_encrypt(message: str, spec: PlayfairSpec) -> str:
    """Encrypt digrams: same row moves right, same column moves down,
    otherwise swap columns. Output letters are the cell representatives."""
    table = playfair_build(spec.keyword)
    padding = _padding_letter(spec)
    pairs = _playfair_pairs(canonical_letters(message), padding, table)
    return "".join("".join(_playfair_map(p, table, +1)) for p in pairs)


def playfair_decrypt(message: str, spec: PlayfairSpec) -> str:
    """Invert playfair_encrypt digram by digram (left/up/swap columns).

    Decryption emits cell representatives, so merged letters come back as
    S, U or V. Padding letters inserted on encryption are kept.
    """
    table = playfair_build(spec.keyword)
    letters = canonical_letters(message)
    if len(letters) % 2:
        raise OddLengthCiphertext(f"{len(letters)} letters cannot form digrams")
    pairs = [(letters[i], letters[i + 1]) for i in range(0, len(letters), 2)]
    return "".join("".join(_playfair_map(p, table, -1)) for p in pairs)


# --- polybius (coordinate grid) ---

_DIGITS = "0123456789"


class _PolybiusGrid(NamedTuple):
    """The fields of PolybiusSpec, which checks them on construction."""

    rows: int
    cols: int
    grid: str


class PolybiusSpec(_PolybiusGrid):
    """A rows x cols letter grid, row-major, short last row allowed."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, grid: str) -> PolybiusSpec:
        if rows < 1 or cols < 1:
            raise WrongLength(f"grid needs positive dimensions: {rows}x{cols}")
        if rows > 9 or cols > 9:
            raise GridTooLarge("digit pairs cannot address rows or columns past 9")
        seen: set[str] = set()
        for letter in grid:
            if letter not in ALPHABET:
                raise NonCanonicalSymbol(f"not a canonical letter: {letter!r}")
            if letter in seen:
                raise DuplicateGridLetter(f"letter {letter} appears twice in the grid")
            seen.add(letter)
        if not (rows - 1) * cols < len(grid) <= rows * cols:
            raise WrongLength(f"{len(grid)} letters do not fill {rows} rows of {cols}")
        return super().__new__(cls, rows, cols, grid)


def canonical_grid() -> PolybiusSpec:
    """The whole alphabet in five rows of six, as in the worked examples."""
    return PolybiusSpec(rows=5, cols=6, grid=ALPHABET)


def polybius_encode(message: str, spec: PolybiusSpec | None = None) -> str:
    """Encode each letter as "<row><col>" (1-based digits).

    Codes of consecutive letters are joined with "-"; passthrough
    characters are kept verbatim and break the joined runs. Digits or
    dashes already present in the message make the output ambiguous to
    decode, so keep them out of messages that must round-trip.
    """
    spec = spec or canonical_grid()
    out: list[str] = []
    run: list[str] = []
    for char in message:
        unit = to_canonical(char)
        if isinstance(unit, LetterUnit):
            where = spec.grid.find(unit.letter)
            if where < 0:
                raise LetterNotInGrid(f"letter {unit.letter} is not in the grid")
            run.append(f"{where // spec.cols + 1}{where % spec.cols + 1}")
        else:
            if run:
                out.append("-".join(run))
                run.clear()
            out.append(unit.raw)
    if run:
        out.append("-".join(run))
    return "".join(out)


def polybius_decode(code: str, spec: PolybiusSpec | None = None) -> str:
    """Decode digit pairs back to letters; "-" separators are dropped and
    any other character passes through verbatim."""
    spec = spec or canonical_grid()
    out: list[str] = []
    i = 0
    while i < len(code):
        char = code[i]
        if char in _DIGITS:
            if i + 1 >= len(code) or code[i + 1] not in _DIGITS:
                raise MalformedDigitPair(f"lone digit at position {i}")
            row, col = int(code[i]), int(code[i + 1])
            where = (row - 1) * spec.cols + (col - 1)
            if not (1 <= row <= spec.rows and 1 <= col <= spec.cols) or where >= len(spec.grid):
                raise MalformedDigitPair(f"no grid cell at {row}{col}")
            out.append(spec.grid[where])
            i += 2
        elif char == "-":
            i += 1
        else:
            out.append(char)
            i += 1
    return "".join(out)


# --- rail fence (zigzag transposition) ---

def _rail_pattern(count: int, rails: int) -> list[int]:
    pattern: list[int] = []
    rail, step = 0, 1
    for _ in range(count):
        pattern.append(rail)
        if rail == 0:
            step = 1
        elif rail == rails - 1:
            step = -1
        rail += step
    return pattern


def rail_fence_encrypt(message: str, rails: int) -> str:
    """Write the letters in a zigzag over the rails, read rail by rail."""
    if rails < 1:
        raise RailsOutOfRange(f"rails must be at least 1: {rails}")
    letters = canonical_letters(message)
    if rails == 1:
        return letters
    fence: list[list[str]] = [[] for _ in range(rails)]
    for letter, rail in zip(letters, _rail_pattern(len(letters), rails)):
        fence[rail].append(letter)
    return "".join("".join(rail) for rail in fence)


def rail_fence_decrypt(message: str, rails: int) -> str:
    """Invert rail_fence_encrypt; the original spacing is not restored."""
    if rails < 1:
        raise RailsOutOfRange(f"rails must be at least 1: {rails}")
    letters = canonical_letters(message)
    if rails == 1:
        return letters
    pattern = _rail_pattern(len(letters), rails)
    counts = [pattern.count(r) for r in range(rails)]
    rail_iters = []
    start = 0
    for count in counts:
        rail_iters.append(iter(letters[start:start + count]))
        start += count
    return "".join(next(rail_iters[rail]) for rail in pattern)


# --- scytale (rod transposition) ---

def scytale_encrypt(message: str, circumference: int) -> str:
    """Fill circumference rows in row-major order, read column by column."""
    if circumference < 1:
        raise CircumferenceOutOfRange(f"circumference must be at least 1: {circumference}")
    letters = canonical_letters(message)
    if not letters:
        return ""
    cols = ceil(len(letters) / circumference)
    return "".join(
        letters[row * cols + col]
        for col in range(cols)
        for row in range(circumference)
        if row * cols + col < len(letters)
    )


def scytale_decrypt(message: str, circumference: int) -> str:
    """Invert scytale_encrypt for the same circumference."""
    if circumference < 1:
        raise CircumferenceOutOfRange(f"circumference must be at least 1: {circumference}")
    letters = canonical_letters(message)
    if not letters:
        return ""
    cols = ceil(len(letters) / circumference)
    plain: list[str] = [""] * len(letters)
    source = iter(letters)
    for col in range(cols):
        for row in range(circumference):
            where = row * cols + col
            if where < len(letters):
                plain[where] = next(source)
    return "".join(plain)


# --- vernam (one-time running key) ---

def _vernam(message: str, key: str, sign: int) -> str:
    key_letters = _key_letters(key, Alphabet.TURKISH29) if any(not c.isspace() for c in key) else ""
    needed = len(canonical_letters(message))
    if needed > len(key_letters):
        raise KeyTooShort(f"message has {needed} letters, key has {len(key_letters)}")
    if not needed:
        return message
    # A running key as long as the message is a Vigenère key that never repeats.
    return _vigenere(message, key_letters[:needed], Alphabet.TURKISH29, sign)


def vernam_encrypt(message: str, key: str) -> str:
    """Add key letter indices to message letter indices, modulo 29.

    Every message letter consumes one key letter; the key must be at least
    as long (in letters) as the message. Whitespace in the key is ignored.
    """
    return _vernam(message, key, +1)


def vernam_decrypt(message: str, key: str) -> str:
    """Invert vernam_encrypt with the same key."""
    return _vernam(message, key, -1)


def otp_keygen(length: int, seed: int) -> str:
    """Generate a deterministic uniform letter key of the given length."""
    if length < 0:
        raise ValueError(f"length must not be negative: {length}")
    rng = SplitMix64(seed)
    return "".join(ALPHABET[rng.below(ALPHABET_SIZE)] for _ in range(length))
