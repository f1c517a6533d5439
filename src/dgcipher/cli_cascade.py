"""The cascade commands: encrypt, decrypt, keygen and keycheck."""

from __future__ import annotations

import argparse
import sys

from .cli_io import _INDEX_MODE, _IO, _OUT, _input_chunks, _nonnegative, _resolve_keyset
from .text_model import ALPHABET, IndexMode


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _cmd_cascade(args: argparse.Namespace, _parser: argparse.ArgumentParser):
    from .cascade import transform_stream

    keyset = _resolve_keyset(args.key)
    mode = IndexMode(args.index_mode)
    if args.verbose:
        print(f"key: {args.key}", file=sys.stderr)
        print(f"index mode: {mode.value}", file=sys.stderr)
    decrypt = args.command == "decrypt"
    return transform_stream(_input_chunks(args.infile), keyset, mode, decrypt=decrypt)


def _cmd_keygen(args: argparse.Namespace, _parser: argparse.ArgumentParser):
    from .keyset import RNG_NAME, generate_keyset, otp_keygen, serialize_keyset

    if args.otp_length is not None:
        payload = otp_keygen(args.otp_length, args.seed) + "\n"
    else:
        payload = serialize_keyset(generate_keyset(args.seed), rng_name=RNG_NAME)
    return [payload]


def _cmd_keycheck(args: argparse.Namespace, _parser: argparse.ArgumentParser):
    keyset = _resolve_keyset(args.key)
    lines = [f"{label}: ok" for label, _ in keyset.rows()]
    lines.append(f"keyset ok: 7 alphabets, {len(ALPHABET)} letters each")
    return ["\n".join(lines) + "\n"]


_COMMANDS = {
    **{name: (f"{name} text with a cascade keyset", _cmd_cascade, {
        "--key": dict(required=True, help="key file path, or 'paper' for the built-in example keyset"),
        **_INDEX_MODE,
        **_IO,
        "--verbose": dict(action="store_true", help="echo settings to stderr"),
    }) for name in ("encrypt", "decrypt")},
    "keygen": ("generate a key file from a seed", _cmd_keygen, {
        "--seed": dict(required=True, type=_seed_value, help="64-bit unsigned seed"),
        "--otp-length": dict(
            type=_nonnegative, metavar="N",
            help="emit a one-time letter key of length N instead of a keyset",
        ),
        **_OUT,
    }),
    "keycheck": ("validate a key file", _cmd_keycheck, {
        "--key": dict(required=True, help="key file path, or 'paper'"),
        **_OUT,
    }),
}
