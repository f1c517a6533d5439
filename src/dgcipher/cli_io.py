"""What the CLI's command modules share: UTF-8 input and output, key-file
resolution, the flags and flag types more than one command takes, and
_add_commands, the one builder of the subparsers of a family's _COMMANDS
table of (help, handler, flags) records."""

from __future__ import annotations

import argparse
import codecs
import errno
import os
import stat
import sys

from .errors import CipherError
from .text_model import IndexMode

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from typing import BinaryIO, TextIO

_CHUNK_SIZE = 1 << 16
_PAPER_KEY_NAME = "paper"
# The flags naming a file that a command reads, in the order a usage error
# names them. classical's --key holds key letters, not a path.
_INPUT_FLAGS = {"key": "--key", "key_file": "--key-file", "reference": "--reference", "infile": "--in"}

# The flags more than one command takes, as add_argument keywords by flag;
# a record merges in the ones it takes, in the order its help lists them.
_OUT = {"--out": dict(dest="outfile", metavar="PATH", help="output file (default: stdout)")}
_IO = {"--in": dict(dest="infile", metavar="PATH", help="input file (default: stdin)"), **_OUT}
_INDEX_MODE = {"--index-mode": dict(
    choices=[m.value for m in IndexMode],
    default=IndexMode.ALL_CHARS.value,
    help="count positions over all characters or over letters only",
)}
_REFERENCE = {"--reference": dict(required=True, metavar="PATH", help="reference corpus file")}
_DECRYPT = {"--decrypt": dict(action="store_true", help="invert the cipher")}
_ONE_OF = "one of"


class _BadInput(Exception):
    """An input is unreadable or not UTF-8; the message names it and any byte offset."""


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
            raise _BadInput(f"invalid UTF-8 in {name} at byte {offset + err.start}") from None
        offset += used
        pending = buffered[used:]
        if text:
            yield text
        if not data:
            return


def _std_fd(stream: TextIO | None) -> int:
    # None (closed at start-up; its number may be reused), closed, or with no descriptor (StringIO).
    try:
        return stream.fileno()
    except (AttributeError, ValueError):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF)) from None


def _input_name(path: str | None) -> str:
    """An input's name in messages: the path as given, or <stdin>."""
    return "<stdin>" if path in (None, "-") else path


def _input_chunks(path: str | None) -> Iterator[str]:
    """Decode a UTF-8 input in chunks; '-' or no path reads stdin. A read
    error is raised as _BadInput, so _write_output can tell it from its own."""
    stdin = path in (None, "-")
    name = _input_name(path)
    try:
        with open(_std_fd(sys.stdin) if stdin else path, "rb", closefd=not stdin) as handle:
            yield from _decode_chunks(handle, name)
    except OSError as err:
        raise _BadInput(OSError(err.errno, err.strerror, name)) from None


def _named(path: str, call, *args):
    """call(*args) on the contents of the input at path; a CipherError names that input."""
    try:
        return call(*args)
    except CipherError as err:
        raise type(err)(f"{_input_name(path)}: {err}") from None


def _stat(target: str | TextIO | None) -> os.stat_result | None:
    """Stat a path or a standard stream: None for a path that cannot be
    stat'ed, and for a stream closed or with no descriptor."""
    try:
        return os.stat(target) if isinstance(target, str) else os.fstat(_std_fd(target))
    except (OSError, ValueError):
        return None


def _is_file(info: os.stat_result | None, target: str | TextIO | None) -> bool:
    """Whether info is the file that target, a path or a standard stream, names."""
    other = None if info is None else _stat(target)
    return other is not None and os.path.samestat(info, other)


def _write_output(path: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces as UTF-8 to path; '-' or no path writes stdout, and
    so does a path naming the file stdout is open on, as /dev/stdout does.

    A regular file is written under a temporary name in its own directory
    and renamed over the target only when every piece is written, so a
    failed command leaves the target as it was. The target keeps its
    permissions. Stdout, a device or a pipe is written in place through one
    buffered file, which retries short writes: a reader that closes early
    raises BrokenPipeError, and an output that cannot take the rest raises
    an OSError. An OSError names the output as given, or <stdout>: the
    inputs the pieces are made from report their own errors as _BadInput.
    """
    given = path not in (None, "-")
    try:
        try:
            info = os.stat(path) if given else None
        except FileNotFoundError:
            info = None
        stdout = not given or _is_file(info, sys.stdout)
        if stdout or info is not None and not stat.S_ISREG(info.st_mode):
            target = _std_fd(sys.stdout) if stdout else path
            with open(target, "w", encoding="utf-8", newline="", closefd=not stdout) as handle:
                handle.writelines(pieces)
            return
        target = os.path.realpath(path)
        temp = f"{target}.{os.getpid()}.tmp"
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
            if info is not None:
                os.chmod(temp, stat.S_IMODE(info.st_mode))
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as err:
        raise OSError(err.errno, err.strerror, path if given else "<stdout>") from None


def _check_inputs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Refuse --in and --out naming one file; an --in (a path, or stdin)
    that is the non-empty regular file stdout writes to, which would read
    its own output back without end, as `--in f.txt >> f.txt` does (after
    the shell's `> f.txt` it is empty); and two inputs that both read
    stdin: '-' (or --in left out), or a path naming stdin's pipe, tty or
    socket. A regular file opened again by path (Linux opens /dev/stdin
    anew) reads from its own offset, so it may be read twice. The paths
    given are stat'ed here, and --out again when it is written."""
    named = {flag: getattr(args, dest, None) for dest, flag in _INPUT_FLAGS.items()}
    if "cipher" in args or named["--key"] == _PAPER_KEY_NAME:
        del named["--key"]  # key letters, or the built-in keyset: no file
    if "infile" in args and args.infile is None:
        named["--in"] = "-"
    infos = {flag: _stat(path) for flag, path in named.items() if path not in (None, "-")}
    to_stdout = args.outfile in (None, "-")
    if not to_stdout and _is_file(infos.get("--in"), args.outfile):
        parser.error(f"--in and --out name the same file: {args.outfile}")
    stdin = named["--in"] == "-"
    source = _stat(sys.stdin) if stdin else infos.get("--in")
    if (
        source is not None
        and stat.S_ISREG(source.st_mode)
        and source.st_size
        and _is_file(source, sys.stdout)
        and (to_stdout or _is_file(source, args.outfile))
    ):
        parser.error(f"input file is output file: {'<stdin>' if stdin else named['--in']}")
    stdin_paths = [
        flag
        for flag, info in infos.items()
        if info is not None and not stat.S_ISREG(info.st_mode) and _is_file(info, sys.stdin)
    ]
    readers = [flag for flag, path in named.items() if path == "-" or flag in stdin_paths]
    if len(readers) > 1:
        parser.error(f"{readers[0]} and {readers[1]} both read stdin")


def _resolve_keyset(name: str):
    from .keyset import example_keyset, parse_keyset

    if name == _PAPER_KEY_NAME:
        return example_keyset()
    return _named(name, parse_keyset, "".join(_input_chunks(name)))


def _chosen(table, argv):
    """The names in table that parsing argv consults: the one argv's first
    token names, or, as for --help or a typo, every one."""
    return argv[:1] if argv and argv[0] in table else table


def _add_commands(subparsers, table, argv) -> None:
    """Add the subparser of each (help, handler, flags) record in table that
    argv chooses, in the table's order. flags maps a flag to its add_argument
    keywords; _ONE_OF to the flags of a group exactly one of which is given;
    and a name with no dash, as classical's "cipher", to a table of its own,
    whose records argv[1:] chooses."""
    for name in _chosen(table, argv):
        help_text, handler, flags = table[name]
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        for flag, keywords in flags.items():
            if flag == _ONE_OF:
                group = sub.add_mutually_exclusive_group(required=True)
                for one, one_keywords in keywords.items():
                    group.add_argument(one, **one_keywords)
            elif not flag.startswith("-"):
                below = sub.add_subparsers(dest=flag, required=True, metavar=flag.upper())
                _add_commands(below, keywords, argv[1:])
            else:
                sub.add_argument(flag, **keywords)
