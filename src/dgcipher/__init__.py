"""dgcipher: a dual-group cascade cipher toolkit for Turkish text.

The package bundles one period-two polyalphabetic substitution cipher (the
cascade), eight classical ciphers adapted to the 29-letter Turkish
alphabet, letter frequency analysis tools, and a command line front end.

Every public name is importable from the package, but its module is only
loaded when the name is first used (PEP 562), so a CLI call pays for the
modules its subcommand runs and no more. For the same reason the records
are `collections.namedtuple` subclasses, and no call path imports
`dataclasses` (which imports `inspect`) or `typing`: either would add
milliseconds to every call.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "FlatnessReport",
        "FrequencyTable",
        "ShiftGuess",
        "SubstitutionGuess",
        "build_reference_table",
        "chi_squared_distance",
        "crack_shift",
        "flatness_report",
        "letter_frequencies",
        "rank_match_attack",
    ),
    "cascade": (
        "composite_table",
        "decrypt_message",
        "encrypt_message",
        "transform_stream",
    ),
    "classical": (
        "atbash",
        "shift_decrypt",
        "shift_encrypt",
        "vernam_decrypt",
        "vernam_encrypt",
        "vigenere_decrypt",
        "vigenere_encrypt",
    ),
    "errors": (
        "BadHeader",
        "CipherError",
        "CircumferenceOutOfRange",
        "DuplicateGridLetter",
        "DuplicateLetter",
        "EmptyKey",
        "EmptyKeyword",
        "EmptyText",
        "GridTooLarge",
        "KeyLetterOutsideAlphabet",
        "KeyTooShort",
        "LetterNotInGrid",
        "MalformedDigitPair",
        "MissingRow",
        "NonCanonicalSymbol",
        "OddLengthCiphertext",
        "PaddingInSameCellAsNeighbor",
        "RailsOutOfRange",
        "SeedOutOfRange",
        "ShiftOutOfRange",
        "TooShort",
        "WrongLength",
    ),
    "grids": (
        "PlayfairSpec",
        "PlayfairTable",
        "PolybiusSpec",
        "canonical_grid",
        "playfair_build",
        "playfair_decrypt",
        "playfair_encrypt",
        "polybius_decode",
        "polybius_encode",
        "rail_fence_decrypt",
        "rail_fence_encrypt",
        "scytale_decrypt",
        "scytale_encrypt",
    ),
    "keyset": (
        "CascadeKeySet",
        "SubstitutionAlphabet",
        "example_keyset",
        "generate_keyset",
        "keyspace_size",
        "otp_keygen",
        "parse_keyset",
        "serialize_keyset",
    ),
    "text_model": (
        "ALPHABET",
        "ALPHABET_SIZE",
        "Alphabet",
        "LOWERCASE",
        "Group",
        "IndexMode",
        "letter_index",
        "to_lower_tr",
        "to_upper_tr",
    ),
}
# Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
