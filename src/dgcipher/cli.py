"""Command line interface for the toolkit.

Exit codes: 0 on success, 1 on usage errors (unknown commands or flags,
malformed flag values), 2 on data errors (unreadable files, invalid UTF-8,
malformed keys or ciphertext). Transformed payload goes to stdout or the
--out file only; warnings and verbose notes go to stderr.

All text I/O is strict UTF-8 with no newline translation, so piping
encrypt into decrypt reproduces the input byte for byte.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, TextIO

from .analysis import build_reference_table, crack_shift, flatness_report
from .cascade import transform_stream
from .classical import (
    Alphabet,
    PlayfairSpec,
    PolybiusSpec,
    atbash,
    canonical_grid,
    otp_keygen,
    playfair_decrypt,
    playfair_encrypt,
    polybius_decode,
    polybius_encode,
    rail_fence_decrypt,
    rail_fence_encrypt,
    scytale_decrypt,
    scytale_encrypt,
    shift_decrypt,
    shift_encrypt,
    vernam_decrypt,
    vernam_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from .errors import CipherError
from .keyset import RNG_NAME, example_keyset, generate_keyset, parse_keyset, serialize_keyset
from .text_model import ALPHABET, IndexMode

_CHUNK_SIZE = 1 << 16
_PAPER_KEY_NAME = "paper"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data
    errors, so usage problems are rerouted to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must not be negative")
    return value


@contextmanager
def _text_in(path: str | None) -> Iterator[TextIO]:
    """Open a UTF-8 input; '-' or no path reads stdin. No newline translation."""
    if path in (None, "-"):
        wrapper = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="strict", newline="")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        with open(path, encoding="utf-8", errors="strict", newline="") as handle:
            yield handle


@contextmanager
def _text_out(path: str | None) -> Iterator[TextIO]:
    """Open a UTF-8 output; '-' or no path writes stdout."""
    if path in (None, "-"):
        wrapper = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
        try:
            yield wrapper
            wrapper.flush()
        finally:
            wrapper.detach()
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _read_chunks(handle: TextIO) -> Iterator[str]:
    while True:
        chunk = handle.read(_CHUNK_SIZE)
        if not chunk:
            return
        yield chunk


def _write_all(path: str | None, pieces: Iterable[str]) -> None:
    with _text_out(path) as out:
        for piece in pieces:
            out.write(piece)


def _resolve_keyset(name: str):
    if name == _PAPER_KEY_NAME:
        return example_keyset()
    with open(name, encoding="utf-8", errors="strict", newline="") as handle:
        return parse_keyset(handle.read())


def _letter_table(path: str | None):
    """Letter counts of a UTF-8 file (or stdin), read in chunks."""
    with _text_in(path) as handle:
        return build_reference_table(_read_chunks(handle))


# --- command implementations ---

def _cmd_cascade(args: argparse.Namespace, *, decrypt: bool) -> int:
    keyset = _resolve_keyset(args.key)
    mode = IndexMode(args.index_mode)
    if args.verbose:
        print(f"key: {args.key}", file=sys.stderr)
        print(f"index mode: {mode.value}", file=sys.stderr)
    with _text_in(args.infile) as source:
        _write_all(
            args.outfile,
            transform_stream(_read_chunks(source), keyset, mode, decrypt=decrypt),
        )
    return 0


def _cmd_keygen(args: argparse.Namespace) -> int:
    if args.otp_length is not None:
        payload = otp_keygen(args.otp_length, args.seed) + "\n"
    else:
        payload = serialize_keyset(generate_keyset(args.seed), rng_name=RNG_NAME)
    _write_all(args.outfile, [payload])
    return 0


def _cmd_keycheck(args: argparse.Namespace) -> int:
    keyset = _resolve_keyset(args.key)
    lines = [f"{label}: ok" for label, _ in keyset.rows()]
    lines.append(f"keyset ok: 7 alphabets, {len(ALPHABET)} letters each")
    _write_all(args.outfile, ["\n".join(lines) + "\n"])
    return 0


def _polybius_spec(args: argparse.Namespace, parser: _Parser) -> PolybiusSpec:
    given = (args.grid, args.rows, args.cols)
    if all(v is None for v in given):
        return canonical_grid()
    if any(v is None for v in given):
        parser.error("--grid, --rows and --cols must be given together")
    return PolybiusSpec(rows=args.rows, cols=args.cols, grid=args.grid)


def _cmd_classical(args: argparse.Namespace, parser: _Parser) -> int:
    with _text_in(args.infile) as source:
        text = source.read()
    decrypt = args.decrypt
    cipher = args.cipher
    trailing = ""
    if cipher == "shift":
        result = (shift_decrypt if decrypt else shift_encrypt)(text, args.k)
    elif cipher == "atbash":
        result = atbash(text)
    elif cipher == "vigenere":
        op = vigenere_decrypt if decrypt else vigenere_encrypt
        result = op(text, args.key, Alphabet(args.alphabet))
    elif cipher == "playfair":
        spec = PlayfairSpec(keyword=args.keyword, padding=args.padding)
        result = (playfair_decrypt if decrypt else playfair_encrypt)(text, spec)
        trailing = "\n"
    elif cipher == "polybius":
        spec = _polybius_spec(args, parser)
        result = (polybius_decode if decrypt else polybius_encode)(text, spec)
    elif cipher == "railfence":
        op = rail_fence_decrypt if decrypt else rail_fence_encrypt
        result = op(text, args.rails)
        trailing = "\n"
    elif cipher == "scytale":
        op = scytale_decrypt if decrypt else scytale_encrypt
        result = op(text, args.circumference)
        trailing = "\n"
    else:  # vernam
        if args.key_file is not None:
            with open(args.key_file, encoding="utf-8", errors="strict", newline="") as handle:
                key = handle.read()
        else:
            key = args.key
        result = (vernam_decrypt if decrypt else vernam_encrypt)(text, key)
    # Letters-only ciphers drop the input's own newline, so add one back.
    _write_all(args.outfile, [result + (trailing if result else "")])
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    table = _letter_table(args.infile)
    if args.format == "records":
        lines = [
            f"{letter}\t{table.counts[letter]}\t{table.frequency(letter):.6f}"
            for letter in ALPHABET
        ]
    else:
        lines = [f"letters: {table.total_letters}"]
        lines += [
            f"{letter}  {table.counts[letter]:>8}  {table.frequency(letter):.6f}"
            for letter in ALPHABET
        ]
    _write_all(args.outfile, ["\n".join(lines) + "\n"])
    return 0


def _cmd_crack(args: argparse.Namespace) -> int:
    reference = _letter_table(args.reference)
    with _text_in(args.infile) as source:
        text = source.read()
    guess = crack_shift(text, reference, min_letters=args.min_letters)
    if guess.low_confidence:
        print(
            f"warning: fewer than {args.min_letters} letters; low confidence",
            file=sys.stderr,
        )
    if args.verbose:
        for k, distance in enumerate(guess.distances):
            print(f"shift {k}: {distance:.6f}", file=sys.stderr)
    _write_all(args.outfile, [f"{guess.shift}\n"])
    return 0


def _cmd_flatness(args: argparse.Namespace) -> int:
    keyset = _resolve_keyset(args.key)
    reference = _letter_table(args.reference)
    with _text_in(args.infile) as source:
        text = source.read()
    report = flatness_report(text, keyset, reference, mode=IndexMode(args.index_mode))
    rendered = report.render_records() if args.format == "records" else report.render_text()
    _write_all(args.outfile, [rendered])
    return 0


# --- parser construction ---

def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", metavar="PATH", help="input file (default: stdin)")
    parser.add_argument("--out", dest="outfile", metavar="PATH", help="output file (default: stdout)")


def _add_index_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--index-mode",
        choices=[m.value for m in IndexMode],
        default=IndexMode.ALL_CHARS.value,
        help="count positions over all characters or over letters only",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="dgcipher", description="Dual-group cascade cipher toolkit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for name, decrypt in (("encrypt", False), ("decrypt", True)):
        sub = commands.add_parser(name, help=f"{name} text with a cascade keyset")
        sub.add_argument(
            "--key",
            required=True,
            help=f"key file path, or {_PAPER_KEY_NAME!r} for the built-in example keyset",
        )
        _add_index_mode(sub)
        _add_io_flags(sub)
        sub.add_argument("--verbose", action="store_true", help="echo settings to stderr")
        sub.set_defaults(handler=lambda args, _p, d=decrypt: _cmd_cascade(args, decrypt=d))

    keygen = commands.add_parser("keygen", help="generate a key file from a seed")
    keygen.add_argument("--seed", required=True, type=_seed_value, help="64-bit unsigned seed")
    keygen.add_argument(
        "--otp-length",
        type=_nonnegative,
        metavar="N",
        help="emit a one-time letter key of length N instead of a keyset",
    )
    _add_io_flags(keygen)
    keygen.set_defaults(handler=lambda args, _p: _cmd_keygen(args))

    keycheck = commands.add_parser("keycheck", help="validate a key file")
    keycheck.add_argument("--key", required=True, help="key file path, or 'paper'")
    _add_io_flags(keycheck)
    keycheck.set_defaults(handler=lambda args, _p: _cmd_keycheck(args))

    classical = commands.add_parser("classical", help="run one of the classical ciphers")
    ciphers = classical.add_subparsers(dest="cipher", required=True, metavar="CIPHER")

    def cipher_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = ciphers.add_parser(name, help=help_text)
        sub.add_argument("--decrypt", action="store_true", help="invert the cipher")
        _add_io_flags(sub)
        sub.set_defaults(handler=lambda args, p: _cmd_classical(args, p))
        return sub

    shift = cipher_parser("shift", "rotate letters by a fixed amount")
    shift.add_argument("--k", required=True, type=int, help="shift amount, 0..28")

    cipher_parser("atbash", "mirror letters across the alphabet (self-inverse)")

    vigenere = cipher_parser("vigenere", "running-key letter shifts")
    vigenere.add_argument("--key", required=True, help="key letters")
    vigenere.add_argument(
        "--alphabet",
        choices=[a.value for a in Alphabet],
        default=Alphabet.ENGLISH26.value,
        help="working alphabet",
    )

    playfair = cipher_parser("playfair", "5x5 digram cipher")
    playfair.add_argument("--keyword", required=True, help="table keyword")
    playfair.add_argument("--padding", default="M", help="padding letter (default M)")

    polybius = cipher_parser("polybius", "coordinate grid code")
    polybius.add_argument("--grid", help="row-major grid letters (default: full alphabet)")
    polybius.add_argument("--rows", type=int, help="grid rows")
    polybius.add_argument("--cols", type=int, help="grid columns")

    railfence = cipher_parser("railfence", "zigzag transposition")
    railfence.add_argument("--rails", required=True, type=int, help="rail count")

    scytale = cipher_parser("scytale", "rod transposition")
    scytale.add_argument("--circumference", required=True, type=int, help="rod circumference")

    vernam = cipher_parser("vernam", "one-time running key, modular addition")
    vernam_key = vernam.add_mutually_exclusive_group(required=True)
    vernam_key.add_argument("--key", help="key letters")
    vernam_key.add_argument("--key-file", metavar="PATH", help="file holding the key letters")

    analyze = commands.add_parser("analyze", help="letter frequency table of the input")
    analyze.add_argument(
        "--format", choices=["text", "records"], default="text",
        help="human table or tab-separated records",
    )
    _add_io_flags(analyze)
    analyze.set_defaults(handler=lambda args, _p: _cmd_analyze(args))

    crack = commands.add_parser("crack", help="recover a shift cipher's shift amount")
    crack.add_argument("--reference", required=True, metavar="PATH", help="reference corpus file")
    crack.add_argument(
        "--min-letters", type=_nonnegative, default=100,
        help="letters needed for a confident answer (default 100)",
    )
    crack.add_argument("--verbose", action="store_true", help="print all 29 distances to stderr")
    _add_io_flags(crack)
    crack.set_defaults(handler=lambda args, _p: _cmd_crack(args))

    flatness = commands.add_parser(
        "flatness", help="compare shift and cascade ciphertext letter profiles"
    )
    flatness.add_argument("--key", required=True, help="key file path, or 'paper'")
    flatness.add_argument("--reference", required=True, metavar="PATH", help="reference corpus file")
    flatness.add_argument(
        "--format", choices=["text", "records"], default="text",
        help="human report or tab-separated records",
    )
    _add_index_mode(flatness)
    _add_io_flags(flatness)
    flatness.set_defaults(handler=lambda args, _p: _cmd_flatness(args))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except CipherError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"error: invalid UTF-8: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
