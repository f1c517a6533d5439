"""Command line interface for the toolkit.

Exit codes: 0 on success, 1 on usage errors (unknown commands or flags,
malformed flag values, --in and --out naming one file, an --in or stdin
that is the non-empty regular file stdout writes to, two of --key,
--key-file, --reference and --in reading stdin), 2 on data errors
(unreadable input, output that cannot be written, invalid UTF-8,
malformed keys or ciphertext). '-' reads stdin for every input flag.
Transformed payload goes to stdout or the --out file only; warnings and
verbose notes go to stderr. Each command is a (help, handler, flags)
record in its family module's _COMMANDS table, which cli_io._add_commands
turns into a subparser; a command is added as one record there and a flag
as one entry of its flags. Each handler takes (args, parser) and returns
its output as an iterable of strings, which main writes. An
--out file is replaced only when the command succeeds; after a failure it
is as it was. An --out naming the file stdout is open on, as /dev/stdout
does, is written as stdout. A write error, a stdout that cannot take the
output too, names the --out path as given, or <stdout>. A reader that
closes the output early, as `head` does, ends the call quietly with exit
141, however Python buffers its own streams.

All text I/O is strict UTF-8 with no newline translation, so piping
encrypt into decrypt reproduces the input byte for byte. Invalid UTF-8 is
reported with the input's name and the absolute offset of the bad byte. A
data error in a key file, --reference or --key-file names it, as given or
<stdin>.

Run as a process (`python -m dgcipher.cli`, or the `dgcipher` script),
the CLI freezes the collector's heap on every exit path, so interpreter
exit skips the collector's final sweep over all the call loaded. Exit
still runs atexit handlers and flushes the standard streams, which
`os._exit` would skip; every file a call opens is closed before main
returns. main itself leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from importlib import import_module

from .cli_io import _BadInput, _add_commands, _check_inputs, _chosen, _write_output
from .errors import CipherError

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence

# Each command's family module, in the help's order. A call compiles its
# family's module, and its handler imports what it runs. No module imports
# this one: under `python -m` it would load a second time.
_FAMILIES = {
    **dict.fromkeys(("encrypt", "decrypt", "keygen", "keycheck"), "cli_cascade"),
    "classical": "cli_classical",
    **dict.fromkeys(("analyze", "crack", "flatness"), "cli_analysis"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data
    errors, so usage problems are rerouted to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """Build the dgcipher argument parser.

    With argv, only the parts that parsing argv consults are built: the
    family module and subparser of the command its first token names and,
    for classical, of the cipher its second token names (cli_io._chosen).
    Parsing argv, and any help or error it prints, is the same as with the
    full parser.
    """
    parser = _Parser(prog="dgcipher", description="Dual-group cascade cipher toolkit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for module in dict.fromkeys(_FAMILIES[name] for name in _chosen(_FAMILIES, argv)):
        _add_commands(commands, import_module(f".{module}", __package__)._COMMANDS, argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    _check_inputs(args, parser)
    try:
        _write_output(args.outfile, args.handler(args, parser))
    except BrokenPipeError:
        return 141
    except CipherError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except (_BadInput, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _entry() -> None:
    """The process entry: exit with main's code, the heap frozen on every path."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    _entry()
