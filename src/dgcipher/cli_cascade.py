"""The cascade commands: encrypt, decrypt, keygen and keycheck."""

from __future__ import annotations

import argparse
import sys

from .cli_io import (
    _PAPER_KEY_NAME,
    _add_index_mode,
    _add_io_flags,
    _input_chunks,
    _nonnegative,
    _resolve_keyset,
    _write_all,
)
from .text_model import ALPHABET, IndexMode


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


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
    from .keyset import RNG_NAME, generate_keyset, otp_keygen, serialize_keyset

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


def add_commands(commands, names, argv) -> None:
    """Add the subparsers of the commands in names, in the help's order."""
    for name, decrypt in (("encrypt", False), ("decrypt", True)):
        if name not in names:
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

    if "keygen" in names:
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

    if "keycheck" in names:
        keycheck = commands.add_parser("keycheck", help="validate a key file")
        keycheck.add_argument("--key", required=True, help="key file path, or 'paper'")
        _add_io_flags(keycheck)
        keycheck.set_defaults(handler=lambda args, _p: _cmd_keycheck(args))
