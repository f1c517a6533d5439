"""What the CLI's command modules share: UTF-8 input and output, key-file
resolution, and the flags and flag types more than one command takes."""

from __future__ import annotations

import argparse
import codecs
import io
import os
import stat
import sys
from contextlib import contextmanager

from .text_model import IndexMode

# Annotation-only names; `typing` is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from typing import BinaryIO, TextIO

_CHUNK_SIZE = 1 << 16
_PAPER_KEY_NAME = "paper"


class _BadUtf8(Exception):
    """An input is not valid UTF-8; the message names it and the byte offset."""


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
