"""Key material: cascade keysets and one-time-pad keys.

A cascade keyset is seven substitution alphabets: three chained stages per
group plus one final alphabet shared by both groups. Each alphabet is a
bijection on the 29 canonical letters, so there are (29!)**7 keysets
(about 4.2e216). Each group collapses to one composite permutation, and
(29!)**5 keysets give each pair of them, so there are only (29!)**2
distinct ciphers (about 7.8e61, or 205.6 bits). Keysets and one-time-pad
keys are drawn from one 64-bit seed rule (splitmix64, below).

Key files use a small line format:

    CASCADE-KEYS v1
    # rng: splitmix64
    G1S1: BSYKADMRŞÇOZENCGHIFİLĞÖVPTUÜJ
    ...
    FINAL: DÖJASZBNÜLCRŞEÇYĞFITHGİOKVMPU

The header line comes first; comment lines start with '#'; the seven rows
follow in the fixed order G1S1, G1S2, G1S3, G2S1, G2S2, G2S3, FINAL. Row
letters may be separated by any number of spaces (not tabs); the spaces
are dropped before the row is validated. Serialization is byte stable:
same keyset in, same bytes out, single newline endings, no trailing
whitespace.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BadHeader, CipherError, DuplicateLetter, MissingRow, SeedOutOfRange, WrongLength
from .text_model import ALPHABET, ALPHABET_SIZE, _check_row

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

HEADER = "CASCADE-KEYS v1"
ROW_LABELS = ("G1S1", "G1S2", "G1S3", "G2S1", "G2S2", "G2S3", "FINAL")
RNG_NAME = "splitmix64"

_MASK64 = (1 << 64) - 1


class SubstitutionAlphabet(namedtuple("SubstitutionAlphabet", "letters")):
    """A bijection on the 29 letters, stored as its image row.

    letters[j] is the image of the canonical letter with index j, so the
    row is also how one line of a key file reads.

    Raises:
        WrongLength: not exactly 29 letters.
        NonCanonicalSymbol: a letter is not a canonical uppercase letter.
        DuplicateLetter: a letter repeats.
    """

    __slots__ = ()

    def __new__(cls, letters: str) -> SubstitutionAlphabet:
        if len(letters) != ALPHABET_SIZE:
            raise WrongLength(f"expected {ALPHABET_SIZE} letters, got {len(letters)}")
        _check_row(letters, DuplicateLetter)
        return super().__new__(cls, letters)


class CascadeKeySet(namedtuple("CascadeKeySet", "group1 group2 final")):
    """Seven alphabets: three stages per group plus the shared final one."""

    __slots__ = ()

    def __new__(
        cls,
        group1: tuple[SubstitutionAlphabet, SubstitutionAlphabet, SubstitutionAlphabet],
        group2: tuple[SubstitutionAlphabet, SubstitutionAlphabet, SubstitutionAlphabet],
        final: SubstitutionAlphabet,
    ) -> CascadeKeySet:
        if len(group1) != 3 or len(group2) != 3:
            raise WrongLength("each group needs exactly 3 stage alphabets")
        return super().__new__(cls, group1, group2, final)

    def rows(self) -> Iterator[tuple[str, SubstitutionAlphabet]]:
        """Yield (label, alphabet) pairs in key file order."""
        return zip(ROW_LABELS, (*self.group1, *self.group2, self.final))

    @property
    def composite_rows(self) -> tuple[str, str]:
        """Each group's whole pipeline as one image row, (GROUP1, GROUP2).

        Entry j is the image of ALPHABET[j]: the letter pushed through the
        group's three stages, then replaced by its cyclic predecessor in
        the final row.
        """
        final = self.final.letters
        predecessor = str.maketrans(final, final[-1] + final[:-1])
        rows = []
        for stages in (self.group1, self.group2):
            row = ALPHABET
            for stage in stages:
                row = row.translate(str.maketrans(ALPHABET, stage.letters))
            rows.append(row.translate(predecessor))
        return tuple(rows)


# The worked-example keyset bundled with the toolkit. The CLI accepts it
# under the reserved key name "paper".
_EXAMPLE_ROWS = (
    "BSYKADMRŞÇOZENCGHIFİLĞÖVPTUÜJ",
    "AZCGHJNBÖÇLŞĞÜİPIKTYREVDFSUOM",
    "PIVKZCHNGSUDAFİREÜJĞŞLTYBÖÇOM",
    "SAŞZRÖÇEİJKTYONPBMHÜDVLUIGCFĞ",
    "ŞVHÖÇDAJLİREPIZCFNĞÜKTYBGSUOM",
    "ZŞNIDYSMHÇVRLĞCÜPKGBUÖJFATİOE",
    "DÖJASZBNÜLCRŞEÇYĞFITHGİOKVMPU",
)


def _from_rows(rows: Sequence[SubstitutionAlphabet]) -> CascadeKeySet:
    # The seven alphabets in key file order.
    return CascadeKeySet(tuple(rows[0:3]), tuple(rows[3:6]), rows[6])


def example_keyset() -> CascadeKeySet:
    """Return the built-in worked-example keyset."""
    return _from_rows([SubstitutionAlphabet(row) for row in _EXAMPLE_ROWS])


class SplitMix64:
    """splitmix64 pseudo random generator.

    The algorithm is tiny and frozen on purpose: a seed recorded next to a
    key file must regenerate the identical keyset or one-time pad on any
    platform, forever. It takes no seed outside 64 unsigned bits (raising
    SeedOutOfRange), so no two recorded seeds can stand for one stream.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise SeedOutOfRange(f"seed must fit in 64 unsigned bits: {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Return a uniform integer in [0, bound) without modulo bias."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


def _shuffled_row(rng: SplitMix64) -> SubstitutionAlphabet:
    # Swap-based shuffle from the highest index down; each prefix draw is
    # unbiased, so all 29! rows are equally likely.
    row = list(ALPHABET)
    for i in range(ALPHABET_SIZE - 1, 0, -1):
        j = rng.below(i + 1)
        row[i], row[j] = row[j], row[i]
    return SubstitutionAlphabet("".join(row))


def generate_keyset(seed: int) -> CascadeKeySet:
    """Generate the seven alphabets deterministically from a 64-bit seed."""
    rng = SplitMix64(seed)
    return _from_rows([_shuffled_row(rng) for _ in range(7)])


def otp_keygen(length: int, seed: int) -> str:
    """Generate a deterministic uniform letter key of the given length."""
    if length < 0:
        raise ValueError(f"length must not be negative: {length}")
    rng = SplitMix64(seed)
    return "".join(ALPHABET[rng.below(ALPHABET_SIZE)] for _ in range(length))


def keyspace_size() -> int:
    """Return the number of distinct keysets, (29!)**7, exactly."""
    return math.factorial(ALPHABET_SIZE) ** 7


def serialize_keyset(keyset: CascadeKeySet, rng_name: str | None = None) -> str:
    """Write a keyset in the key file format.

    Args:
        keyset: the keyset to write.
        rng_name: if given, recorded as a '# rng: <name>' comment so a
            generated file carries its provenance.
    """
    lines = [HEADER]
    if rng_name:
        lines.append(f"# rng: {rng_name}")
    lines.extend(f"{label}: {alphabet.letters}" for label, alphabet in keyset.rows())
    return "\n".join(lines) + "\n"


def parse_keyset(text: str) -> CascadeKeySet:
    """Parse a key file back into a keyset.

    Comment and blank lines are ignored. The seven rows must appear in
    order; letters inside a row may be separated by any number of spaces.

    Raises:
        BadHeader: first line is not the format header, or content follows
            the FINAL row.
        MissingRow: a row is absent, mislabeled, or out of order.
        WrongLength / NonCanonicalSymbol / DuplicateLetter: a row is not a
            valid alphabet; the message names the offending row.
    """
    lines = text.split("\n")
    if lines[0].strip() != HEADER:
        raise BadHeader(f"expected {HEADER!r}, found {lines[0].strip()!r}")

    body = [
        line.strip()
        for line in lines[1:]
        if line.strip() and not line.lstrip().startswith("#")
    ]
    rows: list[SubstitutionAlphabet] = []
    for expected, line in zip(ROW_LABELS, body):
        label, _, payload = line.partition(":")
        if label.strip() != expected:
            raise MissingRow(f"expected row {expected}, found {line!r}")
        try:
            rows.append(SubstitutionAlphabet(payload.replace(" ", "")))
        except CipherError as err:
            raise type(err)(f"in {expected}: {err}") from None
    if len(rows) < len(ROW_LABELS):
        raise MissingRow(f"expected row {ROW_LABELS[len(rows)]}, found end of file")
    if len(body) > len(ROW_LABELS):
        raise BadHeader(f"unexpected content after FINAL row: {body[len(ROW_LABELS)]!r}")
    return _from_rows(rows)
