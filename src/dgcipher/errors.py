"""Exception types shared across the toolkit.

Everything raised on bad data (as opposed to programming mistakes) derives
from CipherError so callers, including the CLI, can catch one base class.
"""


class CipherError(Exception):
    """Base class for data errors raised by this package."""


# Alphabet and keyset validation.

class WrongLength(CipherError):
    """A letter row or grid does not have a workable size."""


class DuplicateLetter(CipherError):
    """A letter row repeats a letter, so it cannot be a bijection."""


class NonCanonicalSymbol(CipherError):
    """A character is not one of the 29 canonical uppercase letters."""


# Key file parsing.

class BadHeader(CipherError):
    """The key file does not start with the expected format header."""


class MissingRow(CipherError):
    """A required key file row is absent or out of order."""


class SeedOutOfRange(CipherError):
    """A key generation seed does not fit in 64 unsigned bits."""


# Classical cipher parameters and inputs.

class ShiftOutOfRange(CipherError):
    """A shift amount lies outside 0..28."""


class EmptyKey(CipherError):
    """A running key contains no letters."""


class KeyLetterOutsideAlphabet(CipherError):
    """A key contains a character that is not in the working alphabet."""


class EmptyKeyword(CipherError):
    """A grid keyword contains no letters."""


class OddLengthCiphertext(CipherError):
    """A digram ciphertext contains an odd number of letters."""


class LetterNotInGrid(CipherError):
    """A message letter has no cell in the chosen grid."""


class DuplicateGridLetter(CipherError):
    """A grid places the same letter in two cells."""


class GridTooLarge(CipherError):
    """A grid dimension cannot be addressed by one digit."""


class MalformedDigitPair(CipherError):
    """A coordinate code is not a valid row and column digit pair."""


class RailsOutOfRange(CipherError):
    """A rail count is below 1."""


class CircumferenceOutOfRange(CipherError):
    """A rod circumference is below 1."""


class KeyTooShort(CipherError):
    """A one-time key has fewer letters than the message."""


# Frequency analysis.

class EmptyText(CipherError):
    """The input contains no letters to analyze."""


class TooShort(CipherError):
    """The input has too few letters for the requested analysis."""
