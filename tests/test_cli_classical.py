"""`dgcipher classical` against the library, cipher by cipher.

Each of the eight ciphers runs both ways, on stdin and with --in/--out,
and must print what its library function returns. playfair, railfence and
scytale drop the input's own newline with its other passthrough, so they
add one to non-empty output; polybius and vernam keep the input's own.
Each cipher has a data error (exit 2) and a usage error (exit 1), and
reports a bad flag or key before it reads any input.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from dgcipher import (
    Alphabet,
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

CMD = [sys.executable, "-m", "dgcipher.cli"]
# No digits: polybius must decode its own output.
TEXT = "Gazi Üniversitesi, Ankara.\nTeknik Eğitim Fakültesi — çöüğış!\n"
SPEC = PlayfairSpec("kriptografi")
OTP = "gizlianahtar" * 8
# A call that reads stdin waits until the write end closes, which these
# tests do only after the call has exited or the timeout has passed.
TIMEOUT = 10

# (flags, encrypt, decrypt, whether non-empty output ends with an added newline)
CIPHERS = [
    pytest.param(
        ("shift", "--k", "3"), lambda t: shift_encrypt(t, 3), lambda t: shift_decrypt(t, 3), False,
        id="shift",
    ),
    pytest.param(("atbash",), atbash, atbash, False, id="atbash"),
    pytest.param(
        ("vigenere", "--key", "Kalem", "--alphabet", "turkish29"),
        lambda t: vigenere_encrypt(t, "Kalem", Alphabet.TURKISH29),
        lambda t: vigenere_decrypt(t, "Kalem", Alphabet.TURKISH29),
        False,
        id="vigenere",
    ),
    pytest.param(
        ("playfair", "--keyword", "kriptografi"),
        lambda t: playfair_encrypt(t, SPEC), lambda t: playfair_decrypt(t, SPEC), True,
        id="playfair",
    ),
    pytest.param(("polybius",), polybius_encode, polybius_decode, False, id="polybius"),
    pytest.param(
        ("railfence", "--rails", "3"),
        lambda t: rail_fence_encrypt(t, 3), lambda t: rail_fence_decrypt(t, 3), True,
        id="railfence",
    ),
    pytest.param(
        ("scytale", "--circumference", "4"),
        lambda t: scytale_encrypt(t, 4), lambda t: scytale_decrypt(t, 4), True,
        id="scytale",
    ),
    pytest.param(
        ("vernam", "--key", OTP), lambda t: vernam_encrypt(t, OTP), lambda t: vernam_decrypt(t, OTP), False,
        id="vernam",
    ),
]


def run(*args: str, stdin: bytes = b"") -> tuple[int, bytes, bytes]:
    done = subprocess.run([*CMD, "classical", *args], input=stdin, capture_output=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def run_with_stdin_open(*args: str) -> tuple[int, bytes, bytes]:
    """Run with a stdin pipe whose write end stays open: a call that reads
    its input waits for it, so one that must fail first has to exit
    within the timeout."""
    argv = [*CMD, "classical", *args]
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as call:
        try:
            code = call.wait(timeout=TIMEOUT)
        finally:
            call.kill()
        return code, call.stdout.read(), call.stderr.read()


def cli_output(op, text: str, newline: bool) -> str:
    result = op(text)
    return result + "\n" if newline and result else result


@pytest.mark.parametrize("decrypt", [False, True], ids=["encrypt", "decrypt"])
@pytest.mark.parametrize("flags, encrypt, decrypt_op, newline", CIPHERS)
class TestAgainstTheLibrary:
    @staticmethod
    def case(flags, encrypt, decrypt_op, newline, decrypt):
        """The call's flags, its input and the output the library gives."""
        if decrypt:
            return (*flags, "--decrypt"), encrypt(TEXT), cli_output(decrypt_op, encrypt(TEXT), newline)
        return flags, TEXT, cli_output(encrypt, TEXT, newline)

    def test_stdin(self, flags, encrypt, decrypt_op, newline, decrypt):
        argv, source, want = self.case(flags, encrypt, decrypt_op, newline, decrypt)
        assert run(*argv, stdin=source.encode()) == (0, want.encode(), b"")

    def test_in_and_out_files(self, tmp_path: pathlib.Path, flags, encrypt, decrypt_op, newline, decrypt):
        argv, source, want = self.case(flags, encrypt, decrypt_op, newline, decrypt)
        (tmp_path / "in.txt").write_bytes(source.encode())
        target = tmp_path / "out.txt"
        assert run(*argv, "--in", str(tmp_path / "in.txt"), "--out", str(target)) == (0, b"", b"")
        assert target.read_bytes() == want.encode()


@pytest.mark.parametrize("flags, encrypt, decrypt_op, newline", CIPHERS)
@pytest.mark.parametrize(
    "source", ["Gazi Üniversitesi", "?! 42\n", ""], ids=["no-newline", "no-letters", "empty"]
)
def test_output_newline(flags, encrypt, decrypt_op, newline, source):
    code, out, err = run(*flags, stdin=source.encode())
    assert (code, err) == (0, b"")
    assert out.decode() == cli_output(encrypt, source, newline)
    # The rule itself, not only agreement with the library.
    letters = any(char.isalpha() for char in source)
    if newline:
        assert out.endswith(b"\n") is letters and out.count(b"\n") == letters
    else:
        assert out.endswith(b"\n") is source.endswith("\n")


# (flags, input, stderr): each cipher's data error, exit 2.
DATA_ERRORS = [
    pytest.param(("shift", "--k", "40"), b"A", "ShiftOutOfRange: shift must be in 0..28: 40", id="shift"),
    pytest.param(("atbash",), b"Gazi\xff", "invalid UTF-8 in <stdin> at byte 4", id="atbash"),
    pytest.param(
        ("vigenere", "--key", "K3"), b"A",
        "KeyLetterOutsideAlphabet: key character '3' is outside the alphabet", id="vigenere",
    ),
    pytest.param(
        ("playfair", "--keyword", "123"), b"A", "EmptyKeyword: keyword contains no letters", id="playfair"
    ),
    pytest.param(
        ("polybius", "--decrypt"), b"11-7", "MalformedDigitPair: lone digit at position 3", id="polybius"
    ),
    pytest.param(
        ("railfence", "--rails", "0"), b"A", "RailsOutOfRange: rails must be at least 1: 0", id="railfence"
    ),
    pytest.param(
        ("scytale", "--circumference", "0"), b"A",
        "CircumferenceOutOfRange: circumference must be at least 1: 0", id="scytale",
    ),
    pytest.param(
        ("vernam", "--key", "K"), b"TT", "KeyTooShort: message has 2 letters, key has 1", id="vernam"
    ),
]


@pytest.mark.parametrize("flags, source, message", DATA_ERRORS)
def test_data_error_exits_two(flags, source, message):
    assert run(*flags, stdin=source) == (2, b"", f"error: {message}\n".encode())


# (flags, the error line's message): each cipher's usage error, exit 1.
USAGE_ERRORS = [
    pytest.param(("shift",), "the following arguments are required: --k", id="shift"),
    pytest.param(("atbash", "--k", "3"), "unrecognized arguments: --k 3", id="atbash"),
    pytest.param(
        ("vigenere", "--key", "K", "--alphabet", "latin"),
        "argument --alphabet: invalid choice: 'latin' (choose from 'english26', 'turkish29')",
        id="vigenere",
    ),
    pytest.param(("playfair",), "the following arguments are required: --keyword", id="playfair"),
    pytest.param(
        ("polybius", "--grid", "KALEMS"), "--grid, --rows and --cols must be given together", id="polybius"
    ),
    pytest.param(("railfence", "--rails", "x"), "argument --rails: invalid int value: 'x'", id="railfence"),
    pytest.param(("scytale",), "the following arguments are required: --circumference", id="scytale"),
    pytest.param(
        ("vernam", "--key", "K", "--key-file", "k"), "argument --key-file: not allowed with argument --key",
        id="vernam",
    ),
]


@pytest.mark.parametrize("flags, message", USAGE_ERRORS)
def test_usage_error_exits_one(flags, message):
    code, out, err = run(*flags, stdin=b"A")
    assert (code, out) == (1, b"")
    # argparse's quotes around choices differ between Python versions.
    assert err.decode().replace('"', "'").endswith(f"error: {message}\n")


def test_polybius_partial_grid_flags_fail_before_the_input_is_read():
    code, out, err = run_with_stdin_open("polybius", "--grid", "KALEMS")
    assert (code, out) == (1, b"")
    assert err.endswith(b"error: --grid, --rows and --cols must be given together\n")


def test_vernam_missing_key_file_fails_before_the_message_is_read(tmp_path: pathlib.Path):
    missing = str(tmp_path / "k.txt")
    code, out, err = run_with_stdin_open("vernam", "--key-file", missing)
    assert (code, out) == (2, b"")
    assert err.decode() == f"error: [Errno 2] No such file or directory: {missing!r}\n"


@pytest.mark.parametrize(
    "flags, name",
    [
        (("shift", "--k", "40"), "ShiftOutOfRange"),
        (("vigenere", "--key", "K3"), "KeyLetterOutsideAlphabet"),
        (("playfair", "--keyword", "123"), "EmptyKeyword"),
        (("playfair", "--keyword", "kalem", "--padding", "12"), "NonCanonicalSymbol"),
        (("polybius", "--grid", "KALEMS", "--rows", "1", "--cols", "3"), "WrongLength"),
        (("railfence", "--rails", "0"), "RailsOutOfRange"),
        (("scytale", "--circumference", "0"), "CircumferenceOutOfRange"),
        (("vernam", "--key", "K3"), "KeyLetterOutsideAlphabet"),
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_bad_key_fails_before_the_input_is_read(flags, name):
    code, out, err = run_with_stdin_open(*flags)
    assert (code, out) == (2, b"")
    assert err.startswith(f"error: {name}: ".encode())
