"""Seeded workload inputs for the dgcipher benchmark.

Every input is built from the bundled Turkish corpus by a random.Random
seeded with the workload name and the seed, so one seed always gives the
same inputs. Nothing here imports dgcipher: a change to the package cannot
change what the benchmark feeds it.

Each workload sends three kinds of input through the CLI:

- ``messages``: each one goes through cascade encrypt and decrypt in both
  index modes, as its own subprocess per call;
- ``text``: the input of classical shift and vigenere, analyze and crack;
- ``flat_text``: the input of flatness, a prefix of ``text`` (flatness
  costs about ten times more per character than the other commands).

Every workload runs every command, so every end-to-end metric exists on
every workload; what differs is which input is large.
"""

from __future__ import annotations

import random
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

CORPUS = Path("tests/fixtures/turkish_corpus.txt")

UPPER = "ABCÇDEFGĞHIİJKLMNOÖPRSŞTUÜVYZ"
LOWER = "abcçdefgğhıijklmnoöprsştuüvyz"
LETTERS = frozenset(UPPER + LOWER)
_TO_UPPER = str.maketrans(LOWER, UPPER)
_TO_LOWER = str.maketrans(UPPER, LOWER)

# Characters the cipher passes through: digits, punctuation, the ASCII
# letters Q/W/X, emoji (4-byte UTF-8) and look-alikes that str.upper folds
# into the alphabet (U+017F long s, U+212A Kelvin sign) or that come from
# another script (Cyrillic a/e/o).
_PASSTHROUGH = (
    "1923", "2024", "3,14", "%40", "42", "07:30", "(", ")", "!", "?", "-", "\"", "'", "…",
    "QR", "Wi-Fi", "Xerox", "WWW", "qwx", "🙂", "🔐", "🇹🇷", "ſ", "ſehir", "K", "аео",
)

BULK_CHARS = 1 << 18
SLICE_CHARS = 1 << 13
FLAT_CHARS = 1 << 16
SHORT_POOL = 48
SHORT_BATCH = 8
# Geometric ladder from 3 to 1024 characters: 3 7 16 37 84 193 445 1024.
SHORT_LADDER = [round(3 * (1024 / 3) ** (j / (SHORT_BATCH - 1))) for j in range(SHORT_BATCH)]

NAMES = ("bulk-cascade", "bulk-analysis", "short-messages")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    messages: tuple[str, ...]
    batch: int  # messages per round; rounds walk the pool cyclically
    text: str
    flat_text: str
    shift_k: int
    vigenere_key: str
    key_seed: int  # keygen seed of the flatness keyset


def _sentences(corpus: str) -> list[str]:
    return re.split(r"(?<=[.!?;])\s+", corpus.strip())


def _styled(rng: random.Random, sentence: str) -> str:
    """Mostly as written; some all-caps, title-case or lowercase sentences."""
    roll = rng.random()
    if roll < 0.12:
        return sentence.translate(_TO_UPPER)
    if roll < 0.22:
        return " ".join(w[:1].translate(_TO_UPPER) + w[1:] for w in sentence.split(" "))
    if roll < 0.27:
        return sentence[:1].translate(_TO_LOWER) + sentence[1:]
    return sentence


def _prose(rng: random.Random, sentences: list[str], chars: int, passthrough_rate: float) -> str:
    """Mixed-case prose of exactly ``chars`` characters."""
    parts: list[str] = []
    size = 0
    while size < chars:
        words = _styled(rng, rng.choice(sentences)).split(" ")
        for i in range(len(words)):
            if rng.random() < passthrough_rate:
                words[i] = rng.choice((words[i] + " ", "")) + rng.choice(_PASSTHROUGH)
        sentence = " ".join(words)
        sep = "\n\n" if rng.random() < 0.1 else " "
        parts.append(sentence + sep)
        size += len(sentence) + len(sep)
    return "".join(parts)[:chars]


def build(name: str, seed: int, root: Path) -> Workload:
    """Build one workload's inputs; the same name and seed give equal inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    sentences = _sentences((root / CORPUS).read_text(encoding="utf-8"))
    shift_k = rng.randrange(1, len(UPPER))
    vigenere_key = "".join(rng.choice(UPPER) for _ in range(rng.randrange(4, 13)))
    key_seed = rng.getrandbits(64)
    if name == "short-messages":
        # Each batch holds one message of every length on the ladder, in a
        # seeded order, so every round sends the same number of characters.
        lengths = [n for _ in range(SHORT_POOL // SHORT_BATCH) for n in rng.sample(SHORT_LADDER, SHORT_BATCH)]
        messages = tuple(_prose(rng, sentences, n, 0.08) for n in lengths)
        text = "\n".join(messages)
        return Workload(name, seed, messages, SHORT_BATCH, text, text, shift_k, vigenere_key, key_seed)
    big = _prose(rng, sentences, BULK_CHARS, 0.02)
    small = big[:SLICE_CHARS]
    if name == "bulk-cascade":
        messages, text, flat_text = (big,), small, small
    else:
        messages, text, flat_text = (small,), big, big[:FLAT_CHARS]
    return Workload(name, seed, messages, 1, text, flat_text, shift_k, vigenere_key, key_seed)


def counts(texts: list[str]) -> dict[str, int]:
    """Character class counts over the given texts."""
    joined = "".join(texts)
    letters = sum(1 for c in joined if c in LETTERS)
    return {
        "chars": len(joined),
        "bytes": len(joined.encode("utf-8")),
        "letters": letters,
        "lowercase": sum(1 for c in joined if c in LOWER),
        "passthrough": len(joined) - letters,
        "non_ascii": sum(1 for c in joined if ord(c) > 127),
    }


def properties(w: Workload) -> dict:
    """Input counts and shares that a change helping only some inputs can cite.

    Counts cover every input file but the flatness prefix: the messages and
    the text.
    """
    c = counts([*w.messages, w.text])
    lengths = sorted(len(m) for m in w.messages)
    return {
        "counts": c,
        "messages": len(w.messages),
        "letter_share": c["letters"] / c["chars"],
        "lowercase_share_of_letters": c["lowercase"] / c["letters"],
        "passthrough_share": c["passthrough"] / c["chars"],
        "non_ascii_share": c["non_ascii"] / c["chars"],
        "message_chars": {
            "min": lengths[0],
            "p50": statistics.median(lengths),
            "p90": lengths[int(0.9 * (len(lengths) - 1))],
            "max": lengths[-1],
        },
        "text_chars": len(w.text),
        "flat_text_chars": len(w.flat_text),
        "shift_k": w.shift_k,
        "vigenere_key_letters": len(w.vigenere_key),
    }
