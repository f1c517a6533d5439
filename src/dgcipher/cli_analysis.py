"""The analysis commands: analyze, crack and flatness."""

from __future__ import annotations

import argparse
import sys

from .cli_io import _add_index_mode, _add_io_flags, _input_chunks, _nonnegative, _resolve_keyset, _write_all
from .errors import EmptyText
from .text_model import ALPHABET, IndexMode, phase_counts


def _letter_table(path: str | None):
    """Letter counts of a UTF-8 file (or stdin), read in chunks."""
    from .analysis import build_reference_table

    return build_reference_table(_input_chunks(path))


def _cmd_analyze(args: argparse.Namespace) -> int:
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
    _write_all(args.outfile, ["\n".join(lines) + "\n"])
    return 0


def _cmd_crack(args: argparse.Namespace) -> int:
    from .analysis import crack_shift

    reference = _letter_table(args.reference)
    guess = crack_shift(_input_chunks(args.infile), reference, min_letters=args.min_letters)
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


def add_commands(commands, names, argv) -> None:
    """Add the subparsers of the commands in names, in the help's order."""
    if "analyze" in names:
        analyze = commands.add_parser("analyze", help="letter frequency table of the input")
        analyze.add_argument(
            "--format", choices=["text", "records"], default="text",
            help="human table or tab-separated records",
        )
        _add_io_flags(analyze)
        analyze.set_defaults(handler=lambda args, _p: _cmd_analyze(args))

    if "crack" in names:
        crack = commands.add_parser("crack", help="recover a shift cipher's shift amount")
        crack.add_argument("--reference", required=True, metavar="PATH", help="reference corpus file")
        crack.add_argument(
            "--min-letters", type=_nonnegative, default=100,
            help="letters needed for a confident answer (default 100)",
        )
        crack.add_argument("--verbose", action="store_true", help="print all 29 distances to stderr")
        _add_io_flags(crack)
        crack.set_defaults(handler=lambda args, _p: _cmd_crack(args))

    if "flatness" in names:
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
