from __future__ import annotations

import pathlib
import random

import pytest
from hypothesis import settings

from dgcipher import build_reference_table, example_keyset

settings.register_profile("suite", deadline=None)
# A deeper run of the same properties: pytest --hypothesis-profile=thorough.
settings.register_profile("thorough", settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def corpus_path() -> pathlib.Path:
    return FIXTURES / "turkish_corpus.txt"


@pytest.fixture(scope="session")
def corpus_text(corpus_path: pathlib.Path) -> str:
    return corpus_path.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def reference(corpus_text: str):
    return build_reference_table(corpus_text)


@pytest.fixture(scope="session")
def keyset():
    return example_keyset()


@pytest.fixture(scope="session")
def every_character() -> str:
    """Every BMP code point (lone surrogates included), astral characters,
    "?" next to characters Latin-5 lacks (long s, Kelvin sign, Cyrillic)
    and the six Latin-1 letters Latin-5 lacks, followed by the same
    characters in a seeded shuffle, so that letters also sit next to every
    kind of passthrough."""
    extras = "\U00010000\U0001f600\U0001f1f9\U0001f1f7\U0010ffff?ſ?\u212a?ж??ÐÝÞðýþ?Ð?þ"
    ordered = "".join(map(chr, range(0x10000))) + extras
    shuffled = list(ordered)
    random.Random(20261018).shuffle(shuffled)
    return ordered + "".join(shuffled)
