"""The classical command: one subcommand per classical cipher. A call
loads `classical` for shift, atbash, vigenere and vernam, and `grids` for
the grid and transposition ciphers."""

from __future__ import annotations

import argparse

from .cli_io import _add_io_flags, _input_chunks, _read_file, _write_all
from .text_model import Alphabet

_CIPHERS = ("shift", "atbash", "vigenere", "playfair", "polybius", "railfence", "scytale", "vernam")


def _polybius_spec(args: argparse.Namespace, parser: argparse.ArgumentParser):
    from .grids import PolybiusSpec, canonical_grid

    given = (args.grid, args.rows, args.cols)
    if all(v is None for v in given):
        return canonical_grid()
    if any(v is None for v in given):
        parser.error("--grid, --rows and --cols must be given together")
    return PolybiusSpec(rows=args.rows, cols=args.cols, grid=args.grid)


def _cmd_classical(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    chunks = _input_chunks(args.infile)
    decrypt = args.decrypt
    cipher = args.cipher
    # The substitution ciphers stream their input chunk by chunk.
    if cipher in ("shift", "atbash", "vigenere"):
        from .classical import atbash_stream, shift_stream, vigenere_stream

        if cipher == "shift":
            pieces = shift_stream(chunks, args.k, decrypt=decrypt)
        elif cipher == "atbash":
            pieces = atbash_stream(chunks)
        else:
            pieces = vigenere_stream(chunks, args.key, Alphabet(args.alphabet), decrypt=decrypt)
        _write_all(args.outfile, pieces)
        return 0
    text = "".join(chunks)
    # Letters-only ciphers drop the input's own newline, so add one back.
    trailing = "" if cipher in ("polybius", "vernam") else "\n"
    if cipher == "vernam":
        from .classical import vernam_decrypt, vernam_encrypt

        key = _read_file(args.key_file) if args.key_file is not None else args.key
        result = (vernam_decrypt if decrypt else vernam_encrypt)(text, key)
    else:
        from . import grids

        if cipher == "playfair":
            spec = grids.PlayfairSpec(keyword=args.keyword, padding=args.padding)
            result = (grids.playfair_decrypt if decrypt else grids.playfair_encrypt)(text, spec)
        elif cipher == "polybius":
            spec = _polybius_spec(args, parser)
            result = (grids.polybius_decode if decrypt else grids.polybius_encode)(text, spec)
        elif cipher == "railfence":
            op = grids.rail_fence_decrypt if decrypt else grids.rail_fence_encrypt
            result = op(text, args.rails)
        else:  # scytale
            op = grids.scytale_decrypt if decrypt else grids.scytale_encrypt
            result = op(text, args.circumference)
    _write_all(args.outfile, [result + (trailing if result else "")])
    return 0


def add_commands(commands, names, argv) -> None:
    """Add the classical subparser and, under it, the subparsers of the
    ciphers: only the one argv's first token names, if it names one."""
    classical = commands.add_parser("classical", help="run one of the classical ciphers")
    ciphers = classical.add_subparsers(dest="cipher", required=True, metavar="CIPHER")
    built = argv[:1] if argv and argv[0] in _CIPHERS else _CIPHERS

    def cipher_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = ciphers.add_parser(name, help=help_text)
        sub.add_argument("--decrypt", action="store_true", help="invert the cipher")
        _add_io_flags(sub)
        sub.set_defaults(handler=lambda args, p: _cmd_classical(args, p))
        return sub

    if "shift" in built:
        shift = cipher_parser("shift", "rotate letters by a fixed amount")
        shift.add_argument("--k", required=True, type=int, help="shift amount, 0..28")

    if "atbash" in built:
        cipher_parser("atbash", "mirror letters across the alphabet (self-inverse)")

    if "vigenere" in built:
        vigenere = cipher_parser("vigenere", "running-key letter shifts")
        vigenere.add_argument("--key", required=True, help="key letters")
        vigenere.add_argument(
            "--alphabet",
            choices=[a.value for a in Alphabet],
            default=Alphabet.ENGLISH26.value,
            help="working alphabet",
        )

    if "playfair" in built:
        playfair = cipher_parser("playfair", "5x5 digram cipher")
        playfair.add_argument("--keyword", required=True, help="table keyword")
        playfair.add_argument("--padding", default="M", help="padding letter (default M)")

    if "polybius" in built:
        polybius = cipher_parser("polybius", "coordinate grid code")
        polybius.add_argument("--grid", help="row-major grid letters (default: full alphabet)")
        polybius.add_argument("--rows", type=int, help="grid rows")
        polybius.add_argument("--cols", type=int, help="grid columns")

    if "railfence" in built:
        railfence = cipher_parser("railfence", "zigzag transposition")
        railfence.add_argument("--rails", required=True, type=int, help="rail count")

    if "scytale" in built:
        scytale = cipher_parser("scytale", "rod transposition")
        scytale.add_argument("--circumference", required=True, type=int, help="rod circumference")

    if "vernam" in built:
        vernam = cipher_parser("vernam", "one-time running key, modular addition")
        vernam_key = vernam.add_mutually_exclusive_group(required=True)
        vernam_key.add_argument("--key", help="key letters")
        vernam_key.add_argument("--key-file", metavar="PATH", help="file holding the key letters")
