"""Command line interface for the toolkit.

Exit codes: 0 on success, 1 on usage errors (unknown commands or flags,
malformed flag values, --in and --out naming one file), 2 on data errors
(unreadable files, invalid UTF-8, malformed keys or ciphertext).
Transformed payload goes to stdout or the --out file only; warnings and
verbose notes go to stderr. An --out file is replaced only when the
command succeeds; after a failure it is as it was.

All text I/O is strict UTF-8 with no newline translation, so piping
encrypt into decrypt reproduces the input byte for byte. Invalid UTF-8 is
reported with the input's name and the absolute offset of the bad byte.
"""

from __future__ import annotations

import argparse
import codecs
import io
import os
import stat
import sys
from contextlib import contextmanager

from .errors import CipherError
from .text_model import ALPHABET, Alphabet, IndexMode

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence
    from typing import BinaryIO, TextIO

    from .classical import PolybiusSpec

# Only errors and text_model load with the CLI. Each handler imports the
# modules it runs, so a call spends start-up time on those alone.

_CHUNK_SIZE = 1 << 16
_PAPER_KEY_NAME = "paper"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data
    errors, so usage problems are rerouted to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _BadUtf8(Exception):
    """An input is not valid UTF-8; the message names it and the byte offset."""


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


def _decode_chunks(stream: BinaryIO, name: str) -> Iterator[str]:
    """Decode a byte stream as strict UTF-8, chunk by chunk, with no newline
    translation. A sequence split across two reads is carried over."""
    offset, pending = 0, b""
    while True:
        data = stream.read(_CHUNK_SIZE)
        buffered = pending + data
        try:
            text, used = codecs.utf_8_decode(buffered, "strict", not data)
        except UnicodeDecodeError as err:
            raise _BadUtf8(f"invalid UTF-8 in {name} at byte {offset + err.start}") from None
        offset += used
        pending = buffered[used:]
        if text:
            yield text
        if not data:
            return


def _input_chunks(path: str | None) -> Iterator[str]:
    """Decode a UTF-8 input in chunks; '-' or no path reads stdin."""
    if path in (None, "-"):
        yield from _decode_chunks(sys.stdin.buffer, "<stdin>")
    else:
        with open(path, "rb") as handle:
            yield from _decode_chunks(handle, path)


def _read_file(path: str) -> str:
    with open(path, "rb") as handle:
        return "".join(_decode_chunks(handle, path))


@contextmanager
def _text_out(path: str | None) -> Iterator[TextIO]:
    """Open a UTF-8 output; '-' or no path writes stdout.

    A file is written under a temporary name in its own directory and
    renamed over the target only when the command succeeds, so a failed
    command leaves the target as it was. The target keeps its permissions.
    """
    if path in (None, "-"):
        wrapper = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
        try:
            yield wrapper
            wrapper.flush()
        finally:
            wrapper.detach()
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # A device or pipe cannot be renamed over; write it in place.
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    temp = f"{target}.{os.getpid()}.tmp"
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write_all(path: str | None, pieces: Iterable[str]) -> None:
    with _text_out(path) as out:
        for piece in pieces:
            out.write(piece)


def _same_file(infile: str | None, outfile: str | None) -> bool:
    if infile in (None, "-") or outfile in (None, "-"):
        return False
    try:
        return os.path.samefile(infile, outfile)
    except OSError:  # either file is missing: they cannot be one file
        return False


def _resolve_keyset(name: str):
    from .keyset import example_keyset, parse_keyset

    if name == _PAPER_KEY_NAME:
        return example_keyset()
    return parse_keyset(_read_file(name))


def _letter_table(path: str | None):
    """Letter counts of a UTF-8 file (or stdin), read in chunks."""
    from .analysis import build_reference_table

    return build_reference_table(_input_chunks(path))


# --- command implementations ---

def _cmd_cascade(args: argparse.Namespace, *, decrypt: bool) -> int:
    from .cascade import transform_stream

    keyset = _resolve_keyset(args.key)
    mode = IndexMode(args.index_mode)
    if args.verbose:
        print(f"key: {args.key}", file=sys.stderr)
        print(f"index mode: {mode.value}", file=sys.stderr)
    _write_all(
        args.outfile,
        transform_stream(_input_chunks(args.infile), keyset, mode, decrypt=decrypt),
    )
    return 0


def _cmd_keygen(args: argparse.Namespace) -> int:
    from .keyset import RNG_NAME, generate_keyset, serialize_keyset

    if args.otp_length is not None:
        from .classical import otp_keygen

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
    from .classical import PolybiusSpec, canonical_grid

    given = (args.grid, args.rows, args.cols)
    if all(v is None for v in given):
        return canonical_grid()
    if any(v is None for v in given):
        parser.error("--grid, --rows and --cols must be given together")
    return PolybiusSpec(rows=args.rows, cols=args.cols, grid=args.grid)


def _cmd_classical(args: argparse.Namespace, parser: _Parser) -> int:
    from .classical import (
        PlayfairSpec,
        atbash,
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

    text = "".join(_input_chunks(args.infile))
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
        key = _read_file(args.key_file) if args.key_file is not None else args.key
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
    from .analysis import crack_shift

    reference = _letter_table(args.reference)
    text = "".join(_input_chunks(args.infile))
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
    from .analysis import flatness_report

    keyset = _resolve_keyset(args.key)
    reference = _letter_table(args.reference)
    report = flatness_report(
        _input_chunks(args.infile), keyset, reference, mode=IndexMode(args.index_mode)
    )
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


# Every command, and every classical cipher. build_parser skips the
# subparsers that parsing argv does not consult.
_COMMANDS = ("encrypt", "decrypt", "keygen", "keycheck", "classical", "analyze", "crack", "flatness")
_CIPHERS = ("shift", "atbash", "vigenere", "playfair", "polybius", "railfence", "scytale", "vernam")


def _builds(name: str, argv: Sequence[str], names: Sequence[str]) -> bool:
    # argparse consults only the subparser that argv's first token names,
    # and lists them all only when that token names none of them.
    return not argv or argv[0] not in names or argv[0] == name


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """Build the dgcipher argument parser.

    With argv, only the parts that parsing argv consults are built: the
    subparser of the command its first token names and, for classical,
    of the cipher its second token names. Parsing argv, and any help or
    error it prints, is the same as with the full parser.
    """
    parser = _Parser(prog="dgcipher", description="Dual-group cascade cipher toolkit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for name, decrypt in (("encrypt", False), ("decrypt", True)):
        if not _builds(name, argv, _COMMANDS):
            continue
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

    if _builds("keygen", argv, _COMMANDS):
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

    if _builds("keycheck", argv, _COMMANDS):
        keycheck = commands.add_parser("keycheck", help="validate a key file")
        keycheck.add_argument("--key", required=True, help="key file path, or 'paper'")
        _add_io_flags(keycheck)
        keycheck.set_defaults(handler=lambda args, _p: _cmd_keycheck(args))

    if _builds("classical", argv, _COMMANDS):
        _add_classical(commands, argv[1:])

    if _builds("analyze", argv, _COMMANDS):
        analyze = commands.add_parser("analyze", help="letter frequency table of the input")
        analyze.add_argument(
            "--format", choices=["text", "records"], default="text",
            help="human table or tab-separated records",
        )
        _add_io_flags(analyze)
        analyze.set_defaults(handler=lambda args, _p: _cmd_analyze(args))

    if _builds("crack", argv, _COMMANDS):
        crack = commands.add_parser("crack", help="recover a shift cipher's shift amount")
        crack.add_argument("--reference", required=True, metavar="PATH", help="reference corpus file")
        crack.add_argument(
            "--min-letters", type=_nonnegative, default=100,
            help="letters needed for a confident answer (default 100)",
        )
        crack.add_argument("--verbose", action="store_true", help="print all 29 distances to stderr")
        _add_io_flags(crack)
        crack.set_defaults(handler=lambda args, _p: _cmd_crack(args))

    if _builds("flatness", argv, _COMMANDS):
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


def _add_classical(commands, argv: Sequence[str]) -> None:
    classical = commands.add_parser("classical", help="run one of the classical ciphers")
    ciphers = classical.add_subparsers(dest="cipher", required=True, metavar="CIPHER")

    def cipher_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = ciphers.add_parser(name, help=help_text)
        sub.add_argument("--decrypt", action="store_true", help="invert the cipher")
        _add_io_flags(sub)
        sub.set_defaults(handler=lambda args, p: _cmd_classical(args, p))
        return sub

    if _builds("shift", argv, _CIPHERS):
        shift = cipher_parser("shift", "rotate letters by a fixed amount")
        shift.add_argument("--k", required=True, type=int, help="shift amount, 0..28")

    if _builds("atbash", argv, _CIPHERS):
        cipher_parser("atbash", "mirror letters across the alphabet (self-inverse)")

    if _builds("vigenere", argv, _CIPHERS):
        vigenere = cipher_parser("vigenere", "running-key letter shifts")
        vigenere.add_argument("--key", required=True, help="key letters")
        vigenere.add_argument(
            "--alphabet",
            choices=[a.value for a in Alphabet],
            default=Alphabet.ENGLISH26.value,
            help="working alphabet",
        )

    if _builds("playfair", argv, _CIPHERS):
        playfair = cipher_parser("playfair", "5x5 digram cipher")
        playfair.add_argument("--keyword", required=True, help="table keyword")
        playfair.add_argument("--padding", default="M", help="padding letter (default M)")

    if _builds("polybius", argv, _CIPHERS):
        polybius = cipher_parser("polybius", "coordinate grid code")
        polybius.add_argument("--grid", help="row-major grid letters (default: full alphabet)")
        polybius.add_argument("--rows", type=int, help="grid rows")
        polybius.add_argument("--cols", type=int, help="grid columns")

    if _builds("railfence", argv, _CIPHERS):
        railfence = cipher_parser("railfence", "zigzag transposition")
        railfence.add_argument("--rails", required=True, type=int, help="rail count")

    if _builds("scytale", argv, _CIPHERS):
        scytale = cipher_parser("scytale", "rod transposition")
        scytale.add_argument("--circumference", required=True, type=int, help="rod circumference")

    if _builds("vernam", argv, _CIPHERS):
        vernam = cipher_parser("vernam", "one-time running key, modular addition")
        vernam_key = vernam.add_mutually_exclusive_group(required=True)
        vernam_key.add_argument("--key", help="key letters")
        vernam_key.add_argument("--key-file", metavar="PATH", help="file holding the key letters")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if _same_file(args.infile, args.outfile):
        parser.error(f"--in and --out name the same file: {args.outfile}")
    try:
        return args.handler(args, parser)
    except CipherError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except _BadUtf8 as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
