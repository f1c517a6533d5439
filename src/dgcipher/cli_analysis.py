"""The analysis commands: analyze, crack and flatness."""

from __future__ import annotations

import argparse
import sys

from .cli_io import _INDEX_MODE, _IO, _REFERENCE, _input_chunks, _nonnegative, _resolve_keyset
from .errors import EmptyText
from .text_model import ALPHABET, IndexMode, phase_counts


def _cmd_analyze(args: argparse.Namespace, _parser: argparse.ArgumentParser):
    # Counted here rather than through analysis.FrequencyTable, so that
    # the call compiles no analysis module.
    counts = phase_counts(_input_chunks(args.infile))[0]
    total = sum(counts)
    if total == 0:
        raise EmptyText("no letters to count")
    if args.format == "records":
        lines = [f"{letter}\t{n}\t{n / total:.6f}" for letter, n in zip(ALPHABET, counts)]
    else:
        lines = [f"letters: {total}"]
        lines += [f"{letter}  {n:>8}  {n / total:.6f}" for letter, n in zip(ALPHABET, counts)]
    return ["\n".join(lines) + "\n"]


def _cmd_crack(args: argparse.Namespace, _parser: argparse.ArgumentParser):
    from .analysis import build_reference_table, crack_shift

    reference = build_reference_table(_input_chunks(args.reference))
    guess = crack_shift(_input_chunks(args.infile), reference, min_letters=args.min_letters)
    if guess.low_confidence:
        print(
            f"warning: fewer than {args.min_letters} letters; low confidence",
            file=sys.stderr,
        )
    if args.verbose:
        for k, distance in enumerate(guess.distances):
            print(f"shift {k}: {distance:.6f}", file=sys.stderr)
    return [f"{guess.shift}\n"]


def _cmd_flatness(args: argparse.Namespace, _parser: argparse.ArgumentParser):
    from .analysis import build_reference_table, flatness_report

    keyset = _resolve_keyset(args.key)
    reference = build_reference_table(_input_chunks(args.reference))
    report = flatness_report(
        _input_chunks(args.infile), keyset, reference, mode=IndexMode(args.index_mode)
    )
    return [report.render_records() if args.format == "records" else report.render_text()]


_COMMANDS = {
    "analyze": ("letter frequency table of the input", _cmd_analyze, {
        "--format": dict(
            choices=["text", "records"], default="text", help="human table or tab-separated records"
        ),
        **_IO,
    }),
    "crack": ("recover a shift cipher's shift amount", _cmd_crack, {
        **_REFERENCE,
        "--min-letters": dict(
            type=_nonnegative, default=100, help="letters needed for a confident answer (default 100)"
        ),
        "--verbose": dict(action="store_true", help="print all 29 distances to stderr"),
        **_IO,
    }),
    "flatness": ("compare shift and cascade ciphertext letter profiles", _cmd_flatness, {
        "--key": dict(required=True, help="key file path, or 'paper'"),
        **_REFERENCE,
        "--format": dict(
            choices=["text", "records"], default="text", help="human report or tab-separated records"
        ),
        **_INDEX_MODE,
        **_IO,
    }),
}
