from __future__ import annotations

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from dgcipher import (
    ALPHABET,
    LOWERCASE,
    Alphabet,
    atbash,
    encrypt_message,
    example_keyset,
    generate_keyset,
    parse_keyset,
    serialize_keyset,
    shift_decrypt,
    shift_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from dgcipher.cli import build_parser, main
from dgcipher.text_model import canonical_letters

CMD = [sys.executable, "-m", "dgcipher.cli"]
COMMANDS = ("encrypt", "decrypt", "keygen", "keycheck", "classical", "analyze", "crack", "flatness")
CIPHERS = ("shift", "atbash", "vigenere", "playfair", "polybius", "railfence", "scytale", "vernam")


def run(*args: str, stdin: bytes = b"") -> tuple[int, bytes, bytes]:
    done = subprocess.run([*CMD, *args], input=stdin, capture_output=True)
    return done.returncode, done.stdout, done.stderr


class TestCascadeCommands:
    def test_encrypt_with_builtin_keyset(self):
        code, out, err = run("encrypt", "--key", "paper", stdin="AA".encode())
        assert (code, err) == (0, b"")
        assert out.decode() == "VĞ"

    def test_index_mode_flag(self):
        code, out, _ = run(
            "encrypt", "--key", "paper", "--index-mode", "letters-only",
            stdin="A A".encode(),
        )
        assert code == 0
        assert out.decode() == "V Ğ"

    def test_pipe_roundtrip_is_byte_exact(self):
        message = "İstanbul'da sağanak!\r\nikinci satır; çöüğış 😀 3.14\n\nson".encode()
        code, encrypted, _ = run("encrypt", "--key", "paper", stdin=message)
        assert code == 0
        assert encrypted != message
        code, decrypted, _ = run("decrypt", "--key", "paper", stdin=encrypted)
        assert code == 0
        assert decrypted == message

    def test_file_input_and_output(self, tmp_path: pathlib.Path):
        source = tmp_path / "plain.txt"
        target = tmp_path / "cipher.txt"
        source.write_text("Mikroişlemci", encoding="utf-8")
        code, out, _ = run(
            "encrypt", "--key", "paper", "--in", str(source), "--out", str(target)
        )
        assert (code, out) == (0, b"")
        assert target.read_text(encoding="utf-8") == "Frpfgrçaaınr"

    def test_verbose_notes_go_to_stderr(self):
        code, out, err = run("encrypt", "--key", "paper", "--verbose", stdin=b"AA")
        assert code == 0
        assert out.decode() == "VĞ"
        assert b"index mode" in err

    def test_generated_key_file_roundtrip(self, tmp_path: pathlib.Path):
        key_file = tmp_path / "test.keys"
        code, _, _ = run("keygen", "--seed", "7", "--out", str(key_file))
        assert code == 0
        message = "Gazi Üniversitesi".encode()
        code, encrypted, _ = run("encrypt", "--key", str(key_file), stdin=message)
        assert code == 0
        code, decrypted, _ = run("decrypt", "--key", str(key_file), stdin=encrypted)
        assert code == 0
        assert decrypted == message

    def test_missing_key_file(self, tmp_path: pathlib.Path):
        missing = tmp_path / "nope.keys"
        code, out, err = run("encrypt", "--key", str(missing), stdin=b"AA")
        assert code == 2
        assert out == b""
        assert b"nope.keys" in err

    def test_corrupt_key_file_names_the_row(self, tmp_path: pathlib.Path):
        text = serialize_keyset(generate_keyset(1))
        lines = text.splitlines()
        row = lines[6]
        lines[6] = row[:-1] + row[len("G2S3: ")]  # repeat the row's first letter
        bad = tmp_path / "bad.keys"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run("encrypt", "--key", str(bad), stdin=b"AA")
        assert code == 2
        assert b"DuplicateLetter" in err
        assert b"G2S3" in err

    def test_invalid_utf8_input(self):
        code, _, err = run("encrypt", "--key", "paper", stdin=b"\xff\xfe\xa1")
        assert code == 2
        assert b"UTF-8" in err

    def test_usage_errors_exit_one(self):
        assert run()[0] == 1
        assert run("frobnicate")[0] == 1
        assert run("encrypt", stdin=b"AA")[0] == 1
        assert run("encrypt", "--key", "paper", "--index-mode", "words")[0] == 1


class TestFileSafety:
    def test_same_file_in_and_out_is_refused(self, tmp_path: pathlib.Path):
        target = tmp_path / "f.txt"
        target.write_bytes("Gazi Üniversitesi".encode())
        # A second spelling of the same path is caught too.
        code, out, err = run(
            "encrypt", "--key", "paper", "--in", str(target),
            "--out", str(tmp_path / "." / "f.txt"),
        )
        assert (code, out) == (1, b"")
        assert b"same file" in err
        assert target.read_bytes() == "Gazi Üniversitesi".encode()

    @pytest.mark.parametrize(
        "flags, name",
        [
            pytest.param(("--in", "{target}"), "{target}", id="in-path"),
            pytest.param((), "<stdin>", id="stdin"),
            pytest.param(
                ("--out", "/dev/stdout"), "<stdin>", id="stdin-out-dev-stdout",
                marks=pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout"),
            ),
        ],
    )
    def test_input_that_stdout_appends_to_is_refused(
        self, tmp_path: pathlib.Path, flags: tuple[str, ...], name: str
    ):
        # As `--in f.txt >> f.txt` or `< f.txt >> f.txt`, which on a file
        # larger than the output buffer read their own output back without
        # end; the timeout turns such a hang into a failure.
        target = tmp_path / "f.txt"
        target.write_bytes("Gazi Üniversitesi".encode())
        argv = [*CMD, "encrypt", "--key", "paper", *(f.format(target=target) for f in flags)]
        with open(target, "rb") as source, open(target, "ab") as sink:
            done = subprocess.run(argv, stdin=source, stdout=sink, stderr=subprocess.PIPE, timeout=10)
        assert done.returncode == 1
        assert done.stderr.endswith(f"error: input file is output file: {name.format(target=target)}\n".encode())
        assert target.read_bytes() == "Gazi Üniversitesi".encode()

    def test_input_that_stdout_truncated_gives_empty_output(self, tmp_path: pathlib.Path):
        # As `--in f.txt > f.txt`: the shell has emptied the input already.
        target = tmp_path / "f.txt"
        target.write_bytes("Gazi Üniversitesi".encode())
        with open(target, "wb") as sink:
            done = subprocess.run(
                [*CMD, "encrypt", "--key", "paper", "--in", str(target)],
                stdout=sink, stderr=subprocess.PIPE, timeout=10,
            )
        assert (done.returncode, done.stderr) == (0, b"")
        assert target.read_bytes() == b""

    # One failing call per command. The encrypt call fails after its first
    # chunks are written; "{dir}" stands for the test's directory.
    ENCRYPT_BAD_UTF8 = ("encrypt", "--key", "paper", "--in", "{dir}/bad.txt")

    @pytest.mark.parametrize(
        "existing, argv, message",
        [
            pytest.param(True, ENCRYPT_BAD_UTF8, b"invalid UTF-8", id="True"),
            pytest.param(False, ENCRYPT_BAD_UTF8, b"invalid UTF-8", id="False"),
            pytest.param(
                True, ("decrypt", "--key", "{dir}/corrupt.keys", "--in", "{dir}/short.txt"), b"BadHeader",
                id="decrypt-corrupt-key",
            ),
            pytest.param(
                True, ("keycheck", "--key", "{dir}/corrupt.keys"), b"BadHeader", id="keycheck-corrupt-key"
            ),
            pytest.param(
                True, ("analyze", "--in", "{dir}/letterless.txt"), b"EmptyText", id="analyze-no-letters"
            ),
            pytest.param(
                True, ("crack", "--reference", "{dir}/missing.txt", "--in", "{dir}/short.txt"),
                b"missing.txt", id="crack-missing-reference",
            ),
            pytest.param(
                True,
                ("flatness", "--key", "paper", "--reference", "{dir}/short.txt", "--in", "{dir}/short.txt"),
                b"TooShort", id="flatness-short-text",
            ),
            pytest.param(
                True, ("classical", "vernam", "--key", "K", "--in", "{dir}/short.txt"), b"KeyTooShort",
                id="vernam-short-key",
            ),
            pytest.param(
                True, ("classical", "polybius", "--decrypt", "--in", "{dir}/digit.txt"),
                b"MalformedDigitPair", id="polybius-lone-digit",
            ),
        ],
    )
    def test_failed_run_leaves_no_partial_output(
        self, tmp_path: pathlib.Path, existing: bool, argv: tuple[str, ...], message: bytes
    ):
        (tmp_path / "bad.txt").write_bytes(b"Mikroislemci " * 20000 + b"\xff tail")
        (tmp_path / "corrupt.keys").write_text("not a key file\n", encoding="utf-8")
        (tmp_path / "letterless.txt").write_bytes(b"1234 ?!\n")
        (tmp_path / "short.txt").write_text("Az harf", encoding="utf-8")
        (tmp_path / "digit.txt").write_bytes(b"1")
        target = tmp_path / "out.txt"
        if existing:
            target.write_bytes(b"previous contents")
        names = sorted(p.name for p in tmp_path.iterdir())
        code, _, err = run(*(a.format(dir=tmp_path) for a in argv), "--out", str(target))
        assert code == 2
        assert message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        if existing:
            assert target.read_bytes() == b"previous contents"

    def test_output_error_names_the_out_path_as_given(self, tmp_path: pathlib.Path):
        target = tmp_path / "no_such_dir" / "k.keys"
        code, out, err = run("keygen", "--seed", "1", "--out", str(target))
        assert (code, out) == (2, b"")
        assert err.decode() == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_error_names_the_output(self):
        code, out, err = run("keygen", "--seed", "1", "--out", "/dev/full")
        assert (code, out) == (2, b"")
        assert err == b"error: [Errno 28] No space left on device: '/dev/full'\n"
        with open("/dev/full", "wb") as full:
            done = subprocess.run([*CMD, "keygen", "--seed", "1"], stdout=full, stderr=subprocess.PIPE)
        assert done.returncode == 2
        assert done.stderr == b"error: [Errno 28] No space left on device: '<stdout>'\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "command", [("encrypt", "--key", "paper"), ("classical", "scytale", "--circumference", "4")],
        ids=["encrypt", "scytale"],
    )
    def test_reader_closing_the_output_early_ends_quietly(
        self, tmp_path: pathlib.Path, corpus_text: str, command: tuple[str, ...], unbuffered: str
    ):
        # As `dgcipher encrypt … | head -c 10`: several 64 KiB pieces are
        # still to come when the reader goes; scytale writes one piece of
        # 460 KB. An empty PYTHONUNBUFFERED leaves Python's buffering on.
        source = tmp_path / "plain.txt"
        source.write_text(corpus_text * 60, encoding="utf-8")
        argv = [*CMD, *command, "--in", str(source)]
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as call:
            assert len(call.stdout.read(10)) == 10
            call.stdout.close()
            assert (call.stderr.read(), call.wait()) == (b"", 141)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_that_cannot_take_the_output_is_a_data_error(
        self, tmp_path: pathlib.Path, corpus_text: str, unbuffered: str
    ):
        # A non-blocking pipe that nobody reads takes 64 KiB; the rest of
        # the output must not be dropped in silence.
        source = tmp_path / "plain.txt"
        source.write_text(corpus_text * 60, encoding="utf-8")
        argv = [*CMD, "classical", "railfence", "--rails", "3", "--in", str(source)]
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        try:
            os.set_blocking(write_end, False)
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
            os.close(read_end)
        assert done.returncode == 2
        assert done.stderr.startswith(b"error: ")
        assert done.stderr.endswith(b"'<stdout>'\n")

    @pytest.mark.parametrize(
        "fd, command, name",
        [(0, ("encrypt", "--key", "paper"), "<stdin>"), (1, ("keygen", "--seed", "1"), "<stdout>")],
        ids=["stdin", "stdout"],
    )
    def test_closed_standard_stream_is_a_data_error(self, fd: int, command: tuple[str, ...], name: str):
        done = subprocess.run(
            [*CMD, *command], stdin=subprocess.DEVNULL, capture_output=True, preexec_fn=lambda: os.close(fd)
        )
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.decode() == f"error: [Errno 9] Bad file descriptor: {name!r}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_naming_a_stdout_pipe_writes_stdout(self):
        code, out, err = run("keygen", "--seed", "1", "--out", "/dev/stdout")
        assert (code, out, err) == (0, *run("keygen", "--seed", "1")[1:])

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("mode", ["wb", "ab"])
    def test_out_naming_a_stdout_file_writes_in_place(self, tmp_path: pathlib.Path, mode: str):
        # As `(echo header; dgcipher … --out /dev/stdout; echo trailer) > log.txt`,
        # or `>>`: the file is not replaced, so neither line is lost.
        log = tmp_path / "log.txt"
        log.write_bytes(b"old\n")
        with open(log, mode) as shared:
            shared.write(b"header\n")
            shared.flush()
            done = subprocess.run(
                [*CMD, "keygen", "--seed", "1", "--out", "/dev/stdout"], stdout=shared, stderr=subprocess.PIPE
            )
            shared.write(b"trailer\n")
        assert (done.returncode, done.stderr) == (0, b"")
        kept = b"old\n" if mode == "ab" else b""
        assert log.read_bytes() == kept + b"header\n" + run("keygen", "--seed", "1")[1] + b"trailer\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.txt"]

    def test_out_file_needs_no_stdout(self, tmp_path: pathlib.Path):
        target = tmp_path / "k.keys"
        done = subprocess.run(
            [*CMD, "keygen", "--seed", "1", "--out", str(target)],
            stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert target.read_bytes() == run("keygen", "--seed", "1")[1]

    def test_out_file_keeps_its_permissions_and_symlink(self, tmp_path: pathlib.Path):
        source = tmp_path / "plain.txt"
        source.write_text("Mikroişlemci", encoding="utf-8")
        target = tmp_path / "cipher.txt"
        target.write_bytes(b"old")
        target.chmod(0o600)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code, _, _ = run("encrypt", "--key", "paper", "--in", str(source), "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "Frpfgrçaaınr"
        assert target.stat().st_mode & 0o777 == 0o600

    def test_decode_error_names_the_input_and_absolute_offset(self, tmp_path: pathlib.Path):
        source = tmp_path / "bad.txt"
        source.write_bytes(b"a" * 200000 + b"\xff")
        code, _, err = run("encrypt", "--key", "paper", "--in", str(source))
        assert code == 2
        assert f"invalid UTF-8 in {source} at byte 200000".encode() in err

        # A two-byte letter cut by the 64 KiB read boundary is not an error;
        # one cut by the end of the input is, at the offset where it starts.
        text = "a" * 65535 + "ş" + "b" * 10
        code, out, err = run("encrypt", "--key", "paper", stdin=text.encode())
        assert (code, err) == (0, b"")
        assert out.decode() == encrypt_message(text, example_keyset())
        code, _, err = run("decrypt", "--key", "paper", stdin=text.encode()[:-11])
        assert code == 2
        assert b"invalid UTF-8 in <stdin> at byte 65535" in err


def stream_without_descriptor(text: str, closed: bool) -> io.StringIO:
    stream = io.StringIO(text)
    if closed:
        stream.close()
    return stream


class TestStandardStreamWithoutDescriptor:
    """cli.main called in-process while stdout or stdin has no file
    descriptor (an io.StringIO, as capsys or a notebook sets), open or
    closed, fails as a data error naming a bad descriptor, as a stream
    closed at start-up does."""

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_stdout(self, closed: bool):
        out, err = stream_without_descriptor("", closed), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["keygen", "--seed", "1"])
        assert code == 2
        assert closed or out.getvalue() == ""
        assert err.getvalue() == "error: [Errno 9] Bad file descriptor: '<stdout>'\n"

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_stdin(self, tmp_path: pathlib.Path, monkeypatch: pytest.MonkeyPatch, closed: bool):
        target = tmp_path / "f.txt"
        monkeypatch.setattr(sys, "stdin", stream_without_descriptor("Gazi", closed))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["encrypt", "--key", "paper", "--out", str(target)])
        assert code == 2
        assert err.getvalue() == "error: [Errno 9] Bad file descriptor: '<stdin>'\n"
        assert list(tmp_path.iterdir()) == []


class TestKeygen:
    def test_deterministic_bytes(self):
        first = run("keygen", "--seed", "424242")
        second = run("keygen", "--seed", "424242")
        assert first == second
        assert first[0] == 0
        assert first[1].startswith(b"CASCADE-KEYS v1\n# rng: splitmix64\n")

    def test_output_parses_back(self):
        code, out, _ = run("keygen", "--seed", "31337")
        assert code == 0
        assert parse_keyset(out.decode()) == generate_keyset(31337)

    def test_seeds_differ(self):
        assert run("keygen", "--seed", "1")[1] != run("keygen", "--seed", "2")[1]

    def test_otp_length(self):
        code, out, _ = run("keygen", "--seed", "9", "--otp-length", "40")
        assert code == 0
        assert out.endswith(b"\n")
        assert len(out.decode().strip()) == 40

    def test_keygen_and_keycheck_take_no_input_flag(self):
        assert run("keygen", "--seed", "1", "--in", "x")[0] == 1
        assert run("keycheck", "--key", "paper", "--in", "x")[0] == 1

    def test_bad_seeds_are_usage_errors(self):
        assert run("keygen", "--seed", "-1")[0] == 1
        assert run("keygen", "--seed", str(2**64))[0] == 1
        assert run("keygen", "--seed", "ten")[0] == 1

    def test_keycheck(self):
        code, out, _ = run("keycheck", "--key", "paper")
        assert code == 0
        assert b"FINAL: ok" in out
        assert b"keyset ok" in out

    def test_keycheck_rejects_bad_file(self, tmp_path: pathlib.Path):
        bad = tmp_path / "bad.keys"
        bad.write_text("not a key file\n", encoding="utf-8")
        code, _, err = run("keycheck", "--key", str(bad))
        assert code == 2
        assert b"BadHeader" in err


class TestClassicalCommands:
    def test_shift(self):
        code, out, _ = run("classical", "shift", "--k", "3", stdin="Gazi".encode())
        assert code == 0
        assert out.decode() == "Içcl"

    def test_shift_decrypt(self):
        code, out, _ = run(
            "classical", "shift", "--k", "3", "--decrypt", stdin="Içcl".encode()
        )
        assert code == 0
        assert out.decode() == "Gazi"

    def test_shift_out_of_range_is_a_data_error(self):
        code, _, err = run("classical", "shift", "--k", "40", stdin=b"A")
        assert code == 2
        assert b"ShiftOutOfRange" in err

    def test_atbash(self):
        code, out, _ = run("classical", "atbash", stdin="Bugün".encode())
        assert code == 0
        assert out.decode() == "Ydsçj"

    def test_vigenere_default_alphabet(self):
        code, out, _ = run(
            "classical", "vigenere", "--key", "Kale", stdin=b"TaarruzDokuzda"
        )
        assert code == 0
        assert out == b"DalvbukHykfdna"

    def test_vigenere_turkish(self):
        message = "Hücum şafakta".encode()
        code, out, _ = run(
            "classical", "vigenere", "--key", "gizli", "--alphabet", "turkish29",
            stdin=message,
        )
        assert code == 0
        code, back, _ = run(
            "classical", "vigenere", "--key", "gizli", "--alphabet", "turkish29",
            "--decrypt", stdin=out,
        )
        assert code == 0
        assert back == message

    def test_playfair(self):
        code, out, _ = run(
            "classical", "playfair", "--keyword", "kriptografi", stdin="ODTÜ".encode()
        )
        assert code == 0
        assert out == b"ACPV\n"

    def test_polybius(self):
        code, out, _ = run("classical", "polybius", stdin="Gazi".encode())
        assert code == 0
        assert out == b"22-11-55-26"

    def test_polybius_custom_grid(self):
        code, out, _ = run(
            "classical", "polybius", "--grid", "KALEMS", "--rows", "2", "--cols", "3",
            stdin="elmas".encode(),
        )
        assert code == 0
        assert out == b"21-13-22-12-23"

    def test_polybius_partial_grid_flags_are_usage_errors(self):
        code, _, _ = run("classical", "polybius", "--grid", "KALEMS", stdin=b"a")
        assert code == 1

    def test_railfence(self):
        sentence = "Gazi Üniversitesi Teknik Eğitim Fakültesi".encode()
        code, out, _ = run("classical", "railfence", "--rails", "2", stdin=sentence)
        assert code == 0
        assert out.decode() == "GZÜİESTSTKİEİİFKLEİAİNVRİEİENKĞTMAÜTS\n"

    def test_scytale(self):
        code, out, _ = run(
            "classical", "scytale", "--circumference", "2", stdin=b"ABCDEF"
        )
        assert code == 0
        assert out == b"ADBECF\n"

    def test_empty_letters_means_empty_output(self):
        code, out, _ = run("classical", "railfence", "--rails", "3", stdin=b"?!")
        assert code == 0
        assert out == b""

    def test_vernam_inline_key(self):
        code, out, _ = run("classical", "vernam", "--key", "K", stdin=b"T")
        assert code == 0
        assert out == b"G"

    def test_vernam_key_file(self, tmp_path: pathlib.Path):
        key_file = tmp_path / "otp.key"
        code, out, _ = run("keygen", "--seed", "77", "--otp-length", "64")
        key_file.write_bytes(out)
        message = "Çok gizli mesaj".encode()
        code, encrypted, _ = run(
            "classical", "vernam", "--key-file", str(key_file), stdin=message
        )
        assert code == 0
        code, decrypted, _ = run(
            "classical", "vernam", "--key-file", str(key_file), "--decrypt",
            stdin=encrypted,
        )
        assert code == 0
        assert decrypted == message

    def test_vernam_requires_exactly_one_key_source(self):
        assert run("classical", "vernam", stdin=b"T")[0] == 1
        assert run(
            "classical", "vernam", "--key", "K", "--key-file", "x", stdin=b"T"
        )[0] == 1

    def test_vernam_short_key_is_a_data_error(self):
        code, _, err = run("classical", "vernam", "--key", "K", stdin=b"TT")
        assert code == 2
        assert b"KeyTooShort" in err


class TestStreamedClassical:
    # Shift, atbash and vigenere read 64 KiB at a time. The first read ends
    # inside the two bytes of "ş", and 46,811 letters before it is no
    # multiple of the key's five letters, so the key phase must carry over.
    TEXT = ("abc%d e" * 9363)[:65535] + "ş" + "Üniversite ığ, %s %(k)c.\n" * 5000
    CALLS = [
        (("shift", "--k", "7"), lambda t: shift_encrypt(t, 7)),
        (("shift", "--k", "7", "--decrypt"), lambda t: shift_decrypt(t, 7)),
        (("atbash",), atbash),
        (("atbash", "--decrypt"), atbash),
        (("vigenere", "--key", "Kalem"), lambda t: vigenere_encrypt(t, "Kalem")),
        (("vigenere", "--key", "Kalem", "--decrypt"), lambda t: vigenere_decrypt(t, "Kalem")),
        (
            ("vigenere", "--key", "Kalem", "--alphabet", "turkish29"),
            lambda t: vigenere_encrypt(t, "Kalem", Alphabet.TURKISH29),
        ),
        (
            ("vigenere", "--key", "Kalem", "--alphabet", "turkish29", "--decrypt"),
            lambda t: vigenere_decrypt(t, "Kalem", Alphabet.TURKISH29),
        ),
    ]

    def test_input_is_cut_inside_a_letter_after_a_partial_key(self):
        data = self.TEXT.encode()
        assert len(data) > 2 * 65536
        assert data[65535:65537] == "ş".encode()
        assert len(canonical_letters(self.TEXT[:65535])) % 5

    @pytest.mark.parametrize("argv, whole", CALLS)
    def test_streamed_output_equals_the_whole_text_function(self, argv, whole):
        code, out, err = run("classical", *argv, stdin=self.TEXT.encode())
        assert (code, err) == (0, b"")
        got, want = out.decode(), whole(self.TEXT)
        # The first differing index, not a diff of two 190,536-char strings.
        assert len(got) == len(want)
        assert next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None) is None

    @pytest.mark.parametrize("argv", [argv for argv, _ in CALLS])
    def test_bad_utf8_after_the_first_chunk_leaves_out_untouched(
        self, tmp_path: pathlib.Path, argv: tuple[str, ...]
    ):
        source = tmp_path / "bad.txt"
        source.write_bytes(self.TEXT.encode()[:200000] + b"\xff tail")
        target = tmp_path / "out.txt"
        target.write_bytes(b"previous contents")
        code, out, err = run(
            "classical", *argv, "--in", str(source), "--out", str(target)
        )
        assert (code, out) == (2, b"")
        assert f"invalid UTF-8 in {source} at byte 200000".encode() in err
        assert target.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "out.txt"]


class TestAnalysisCommands:
    def test_analyze_text(self):
        code, out, _ = run("analyze", stdin="Akif kasaba gitti ve et aldı.".encode())
        assert code == 0
        lines = out.decode().splitlines()
        assert lines[0] == "letters: 23"
        assert any(line.startswith("A") and "0.217391" in line for line in lines)

    def test_analyze_records(self):
        code, out, _ = run(
            "analyze", "--format", "records", stdin="Akif kasaba gitti ve et aldı.".encode()
        )
        assert code == 0
        lines = out.decode().splitlines()
        assert len(lines) == 29
        letter, count, freq = lines[0].split("\t")
        assert (letter, count, freq) == ("A", "5", "0.217391")

    def test_analyze_without_letters_is_a_data_error(self):
        code, _, err = run("analyze", stdin=b"123")
        assert code == 2
        assert b"EmptyText" in err

    def test_analyze_streams_input_longer_than_one_chunk(self, corpus_text: str):
        text = (corpus_text * 40)[: 3 * 65536 + 11]
        counts = {c: text.count(c) + text.count(l) for c, l in zip(ALPHABET, LOWERCASE)}
        total = sum(counts.values())
        want = [f"letters: {total}"] + [
            f"{c}  {n:>8}  {n / total:.6f}" for c, n in counts.items()
        ]
        code, out, err = run("analyze", stdin=text.encode())
        assert (code, err) == (0, b"")
        assert out.decode() == "\n".join(want) + "\n"

        code, out, err = run("analyze", stdin=b"1234 " * 20000)
        assert (code, out) == (2, b"")
        assert b"EmptyText" in err

    # Dotless and dotted i in both cases, a long s, a Kelvin sign, a
    # Cyrillic a, a character Latin-5 lacks next to a "?", an astral
    # character and Q, W, X: 26 letters. The outputs are those of the
    # str.count version of the counter.
    MIXED = "Çağrı İzmir\u2019e gitti; ĞÜŞÖ ıi Iİ ſK\u212a \u0430? 42\U0001f642 Qwx b.\n"
    MIXED_RECORDS = (
        "A\t1\t0.038462\nB\t1\t0.038462\nC\t0\t0.000000\nÇ\t1\t0.038462\nD\t0\t0.000000\n"
        "E\t1\t0.038462\nF\t0\t0.000000\nG\t1\t0.038462\nĞ\t2\t0.076923\nH\t0\t0.000000\n"
        "I\t3\t0.115385\nİ\t6\t0.230769\nJ\t0\t0.000000\nK\t1\t0.038462\nL\t0\t0.000000\n"
        "M\t1\t0.038462\nN\t0\t0.000000\nO\t0\t0.000000\nÖ\t1\t0.038462\nP\t0\t0.000000\n"
        "R\t2\t0.076923\nS\t0\t0.000000\nŞ\t1\t0.038462\nT\t2\t0.076923\nU\t0\t0.000000\n"
        "Ü\t1\t0.038462\nV\t0\t0.000000\nY\t0\t0.000000\nZ\t1\t0.038462\n"
    )
    MIXED_TEXT = (
        "letters: 26\n"
        "A         1  0.038462\nB         1  0.038462\nC         0  0.000000\n"
        "Ç         1  0.038462\nD         0  0.000000\nE         1  0.038462\n"
        "F         0  0.000000\nG         1  0.038462\nĞ         2  0.076923\n"
        "H         0  0.000000\nI         3  0.115385\nİ         6  0.230769\n"
        "J         0  0.000000\nK         1  0.038462\nL         0  0.000000\n"
        "M         1  0.038462\nN         0  0.000000\nO         0  0.000000\n"
        "Ö         1  0.038462\nP         0  0.000000\nR         2  0.076923\n"
        "S         0  0.000000\nŞ         1  0.038462\nT         2  0.076923\n"
        "U         0  0.000000\nÜ         1  0.038462\nV         0  0.000000\n"
        "Y         0  0.000000\nZ         1  0.038462\n"
    )

    def test_analyze_output_is_frozen(self):
        for fmt, want in (("text", self.MIXED_TEXT), ("records", self.MIXED_RECORDS)):
            code, out, err = run("analyze", "--format", fmt, stdin=self.MIXED.encode())
            assert (code, err) == (0, b"")
            assert out.decode() == want
        for stdin in (b"", "12 \u017f\u212a \u0430?\n".encode()):
            code, out, err = run("analyze", stdin=stdin)
            assert (code, out, err) == (2, b"", b"error: EmptyText: no letters to count\n")

    def test_crack_recovers_shift(self, corpus_path: pathlib.Path, corpus_text: str):
        ciphertext = shift_encrypt(corpus_text[:900], 7)
        code, out, err = run(
            "crack", "--reference", str(corpus_path), stdin=ciphertext.encode()
        )
        assert code == 0
        assert out == b"7\n"
        assert err == b""

    def test_crack_warns_on_short_input(self, corpus_path: pathlib.Path):
        code, out, err = run(
            "crack", "--reference", str(corpus_path), stdin="Kısa metin".encode()
        )
        assert code == 0
        assert b"low confidence" in err
        assert out.endswith(b"\n")

    def test_crack_verbose_lists_all_distances(self, corpus_path: pathlib.Path, corpus_text: str):
        ciphertext = shift_encrypt(corpus_text[:900], 4)
        code, out, err = run(
            "crack", "--reference", str(corpus_path), "--verbose",
            stdin=ciphertext.encode(),
        )
        assert code == 0
        assert out == b"4\n"
        assert len(err.decode().splitlines()) == 29

    @pytest.mark.parametrize(
        "argv",
        [
            ("crack", "--reference", "-"),
            ("crack", "--reference", "-", "--in", "-"),
            ("flatness", "--key", "paper", "--reference", "-"),
        ],
        ids=["crack", "crack-in-dash", "flatness"],
    )
    def test_reference_and_input_cannot_both_read_stdin(self, corpus_text: str, argv: tuple[str, ...]):
        code, out, err = run(*argv, stdin=corpus_text.encode())
        assert (code, out) == (1, b"")
        assert err.endswith(b"error: --reference and --in both read stdin\n")

    def test_reference_from_stdin(self, tmp_path: pathlib.Path, corpus_text: str):
        source = tmp_path / "cipher.txt"
        source.write_text(shift_encrypt(corpus_text[:900], 7), encoding="utf-8")
        code, out, err = run("crack", "--reference", "-", "--in", str(source), stdin=corpus_text.encode())
        assert (code, out, err) == (0, b"7\n", b"")

    def test_flatness_text(self, corpus_path: pathlib.Path, corpus_text: str):
        code, out, _ = run(
            "flatness", "--key", "paper", "--reference", str(corpus_path),
            stdin=corpus_text.encode(),
        )
        assert code == 0
        assert b"rank-match accuracy" in out

    def test_flatness_records(self, corpus_path: pathlib.Path, corpus_text: str):
        code, out, _ = run(
            "flatness", "--key", "paper", "--reference", str(corpus_path),
            "--format", "records", stdin=corpus_text.encode(),
        )
        assert code == 0
        assert len(out.decode().splitlines()) == 3 * 29 + 4

    def test_flatness_needs_a_long_text(self, corpus_path: pathlib.Path):
        code, _, err = run(
            "flatness", "--key", "paper", "--reference", str(corpus_path),
            stdin="Az harf".encode(),
        )
        assert code == 2
        assert b"TooShort" in err



def needs(path: str):
    return pytest.mark.skipif(not os.path.exists(path), reason=f"needs {path}")


STDIN_PATHS = [pytest.param(path, marks=needs(path), id=path) for path in ("/dev/stdin", "/dev/fd/0")]


class TestOneInputReadsStdin:
    """An input reads stdin when it is '-' (or --in left out), or a path
    naming the pipe, tty or socket stdin is open on. A call in which two
    inputs read stdin is a usage error, before anything is read or written."""

    # "{}" is the stdin spelling under test, "{corpus}" the corpus file.
    @pytest.mark.parametrize("spelling", ["-", *STDIN_PATHS])
    @pytest.mark.parametrize("infile", [(), ("--in", "-")], ids=["in-omitted", "in-dash"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("encrypt", "--key", "{}"), "--key"),
            (("flatness", "--key", "{}", "--reference", "{corpus}"), "--key"),
            (("classical", "vernam", "--key-file", "{}"), "--key-file"),
            (("crack", "--reference", "{}"), "--reference"),
            (("flatness", "--key", "paper", "--reference", "{}"), "--reference"),
        ],
        ids=["encrypt-key", "flatness-key", "vernam-key-file", "crack-reference", "flatness-reference"],
    )
    def test_second_stdin_reader_is_refused(
        self, tmp_path: pathlib.Path, corpus_path: pathlib.Path, corpus_text: str,
        argv: tuple[str, ...], flag: str, infile: tuple[str, ...], spelling: str,
    ):
        target = tmp_path / "out.txt"
        target.write_bytes(b"previous contents")
        argv = tuple(a.format(spelling, corpus=corpus_path) for a in argv)
        code, out, err = run(*argv, *infile, "--out", str(target), stdin=corpus_text.encode())
        assert (code, out) == (1, b"")
        assert err.endswith(f"error: {flag} and --in both read stdin\n".encode())
        assert target.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_the_first_two_readers_are_named(self, corpus_text: str):
        code, out, err = run("flatness", "--key", "-", "--reference", "-", stdin=corpus_text.encode())
        assert (code, out) == (1, b"")
        assert err.endswith(b"error: --key and --reference both read stdin\n")

    @needs("/dev/stdin")
    @pytest.mark.parametrize(
        "argv, feed, flag",
        [
            (("encrypt", "--key", "/dev/stdin"), ("keygen", "--seed", "7"), "--key"),
            (
                ("classical", "vernam", "--key-file", "/dev/stdin"),
                ("keygen", "--seed", "7", "--otp-length", "64"),
                "--key-file",
            ),
            (("crack", "--reference", "/dev/stdin"), None, "--reference"),
        ],
        ids=["encrypt-key", "vernam-key-file", "crack-reference"],
    )
    def test_piped_key_or_reference_is_refused(
        self, corpus_text: str, argv: tuple[str, ...], feed: tuple[str, ...] | None, flag: str
    ):
        # As `dgcipher keygen --seed 7 | dgcipher encrypt --key /dev/stdin`,
        # which read the key file and then an empty message.
        stdin = corpus_text.encode() if feed is None else run(*feed)[1]
        code, out, err = run(*argv, stdin=stdin)
        assert (code, out) == (1, b"")
        assert err.endswith(f"error: {flag} and --in both read stdin\n".encode())

    @pytest.mark.parametrize("spelling", ["-", *STDIN_PATHS])
    @pytest.mark.parametrize(
        "argv, keygen",
        [
            (("encrypt", "--key"), ("--seed", "7")),
            (("classical", "vernam", "--key-file"), ("--seed", "77", "--otp-length", "64")),
        ],
        ids=["encrypt-key", "vernam-key-file"],
    )
    def test_piped_key_with_a_file_input(
        self, tmp_path: pathlib.Path, argv: tuple[str, ...], keygen: tuple[str, ...], spelling: str
    ):
        source = tmp_path / "plain.txt"
        source.write_text("Çok gizli mesaj", encoding="utf-8")
        key_file = tmp_path / "k.keys"
        key_file.write_bytes(run("keygen", *keygen)[1])
        want = run(*argv, str(key_file), "--in", str(source))
        assert want[0] == 0
        assert run(*argv, spelling, "--in", str(source), stdin=key_file.read_bytes()) == want

    @needs("/dev/stdin")
    @pytest.mark.parametrize("infile", [True, False], ids=["in-file", "in-omitted"])
    def test_reference_naming_a_regular_stdin_file(
        self, tmp_path: pathlib.Path, corpus_path: pathlib.Path, corpus_text: str, infile: bool
    ):
        # A regular file opened again by path reads from its own offset,
        # so it and descriptor 0 each read it whole.
        source = tmp_path / "cipher.txt"
        source.write_text(shift_encrypt(corpus_text[:900], 7), encoding="utf-8")
        argv = [*CMD, "crack", "--reference", "/dev/stdin", *(("--in", str(source)) if infile else ())]
        with open(corpus_path, "rb") as stdin:
            done = subprocess.run(argv, stdin=stdin, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"7\n" if infile else b"0\n", b"")

    @pytest.mark.parametrize(
        "argv",
        [
            ("encrypt", "--key", "{}"),
            ("classical", "vernam", "--key-file", "{}"),
            ("crack", "--reference", "{}"),
        ],
        ids=["encrypt-key", "vernam-key-file", "crack-reference"],
    )
    def test_missing_file_is_a_data_error_naming_it(self, tmp_path: pathlib.Path, argv: tuple[str, ...]):
        missing = str(tmp_path / "nope.txt")
        code, out, err = run(*(a.format(missing) for a in argv), stdin=b"AA")
        assert (code, out) == (2, b"")
        assert err.decode() == f"error: [Errno 2] No such file or directory: {missing!r}\n"

class TestDataErrorsNameTheFile:
    """A data error in the contents of a --key file, a --reference or a
    vernam --key-file starts with its name as given, or <stdin> for '-'.
    Errors about --in and about inline key letters name no file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("encrypt", "--key", "{}"),
            ("decrypt", "--key", "{}"),
            ("keycheck", "--key", "{}"),
            ("flatness", "--key", "{}", "--reference", "{corpus}"),
        ],
        ids=["encrypt", "decrypt", "keycheck", "flatness"],
    )
    def test_key_file(self, tmp_path: pathlib.Path, corpus_path: pathlib.Path, argv: tuple[str, ...]):
        short = tmp_path / "short.keys"
        short.write_text("CASCADE-KEYS v1\n", encoding="utf-8")
        code, out, err = run(*(a.format(short, corpus=corpus_path) for a in argv), stdin=b"AA")
        assert (code, out) == (2, b"")
        assert err.decode() == f"error: MissingRow: {short}: expected row G1S1, found end of file\n"

    def test_key_file_row_error_and_stdin_key(self, tmp_path: pathlib.Path):
        lines = serialize_keyset(generate_keyset(1)).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("G1S1:"))
        lines[row] = lines[row][:-1]  # G1S1 loses its last letter
        bad = "\n".join(lines) + "\n"
        (tmp_path / "bad.keys").write_text(bad, encoding="utf-8")
        (tmp_path / "plain.txt").write_text("Gazi", encoding="utf-8")
        want = "WrongLength: {}: in G1S1: expected 29 letters, got 28"
        code, out, err = run("keycheck", "--key", str(tmp_path / "bad.keys"))
        assert (code, out, err.decode()) == (2, b"", f"error: {want.format(tmp_path / 'bad.keys')}\n")
        code, out, err = run("encrypt", "--key", "-", "--in", str(tmp_path / "plain.txt"), stdin=bad.encode())
        assert (code, out, err.decode()) == (2, b"", f"error: {want.format('<stdin>')}\n")

    @pytest.mark.parametrize("argv", [("crack",), ("flatness", "--key", "paper")], ids=["crack", "flatness"])
    def test_reference(self, tmp_path: pathlib.Path, corpus_path: pathlib.Path, argv: tuple[str, ...]):
        letterless = tmp_path / "letterless.txt"
        letterless.write_bytes(b"12 ?!\n")
        code, out, err = run(*argv, "--reference", str(letterless), stdin="Gazi".encode())
        assert (code, out) == (2, b"")
        assert err.decode() == f"error: EmptyText: {letterless}: no letters to count\n"
        code, out, err = run(*argv, "--reference", "-", "--in", str(corpus_path), stdin=b"12")
        assert (code, out, err) == (2, b"", b"error: EmptyText: <stdin>: no letters to count\n")
        # A letterless --in keeps its message.
        code, out, err = run("crack", "--reference", str(corpus_path), "--in", str(letterless))
        assert (code, out, err) == (2, b"", b"error: EmptyText: no letters to count\n")

    def test_vernam_key_file(self, tmp_path: pathlib.Path):
        key = tmp_path / "otp.key"
        key.write_text("K3\n", encoding="utf-8")
        code, out, err = run("classical", "vernam", "--key-file", str(key), stdin=b"TT")
        assert (code, out) == (2, b"")
        assert err.decode() == f"error: KeyLetterOutsideAlphabet: {key}: key character '3' is outside the alphabet\n"
        key.write_text("K\n", encoding="utf-8")
        code, out, err = run("classical", "vernam", "--key-file", str(key), stdin=b"TT")
        assert (code, out) == (2, b"")
        assert err.decode() == f"error: KeyTooShort: {key}: message has 2 letters, key has 1\n"
        code, out, err = run("classical", "vernam", "--key-file", "-", "--in", str(key), stdin=b"K3")
        assert (code, out) == (2, b"")
        assert err == b"error: KeyLetterOutsideAlphabet: <stdin>: key character '3' is outside the alphabet\n"
        # Inline key letters name no file.
        code, out, err = run("classical", "vernam", "--key", "K", stdin=b"TT")
        assert (code, out, err) == (2, b"", b"error: KeyTooShort: message has 2 letters, key has 1\n")


def parse(parser, argv: list[str]) -> tuple[object, str, str]:
    """What parsing argv returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
            result = {name: value for name, value in args.items() if name != "handler"}
            result["handler"] = "handler" in args
        except SystemExit as done:
            result = ("exit", done.code)
    return result, out.getvalue(), err.getvalue()


def subparsers(parser) -> dict:
    """The subparsers a parser holds, by name, in the help's order."""
    return parser._subparsers._group_actions[0].choices


class TestParserForOneCommand:
    """build_parser(argv) builds only the subparsers argv names; parsing
    argv, help and errors must match the parser with every command."""

    ARGVS = [
        [], ["-h"], ["--help"], ["bogus"], ["--in", "x", "encrypt"], ["-h", "encrypt"],
        ["encryp"], ["classical"], ["classical", "-h"], ["classical", "bogus"],
        ["classical", "shif"], ["classical", "shift", "--k", "x"],
        ["classical", "shift", "--k", "3", "--in", "a.txt"],
        ["classical", "vernam", "--key", "A", "--key-file", "k"],
        ["classical", "vigenere", "--key", "anahtar", "--alphabet", "turkish29", "--decrypt"],
        ["encrypt", "--key", "paper", "--index-mode", "letters-only", "--verbose"],
        ["encrypt", "--key", "paper", "--bogus"], ["encrypt", "--key", "paper", "extra"],
        ["decrypt", "--key"], ["keygen", "--seed", "-1"], ["keygen", "--seed", "7", "--otp-length", "9"],
        ["crack", "--reference", "r.txt", "--min-letters", "5", "--verbose"],
        ["flatness", "--key", "paper", "--reference", "r.txt", "--format", "records"],
        ["analyze", "--format", "csv"], ["analyze", "encrypt"],
        *([command] for command in COMMANDS),
        *([command, "--help"] for command in COMMANDS),
        *(["classical", cipher] for cipher in CIPHERS),
        *(["classical", cipher, "--help"] for cipher in CIPHERS),
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_as_the_full_parser(self, argv: list[str]):
        assert parse(build_parser(argv), argv) == parse(build_parser(), argv)

    @pytest.mark.parametrize(
        ("argv", "commands", "ciphers"),
        [
            (["encrypt", "--key", "paper"], ("encrypt",), None),
            (["classical", "shift", "--k", "3"], ("classical",), ("shift",)),
            (["--help"], COMMANDS, CIPHERS),
            (["bogus"], COMMANDS, CIPHERS),
            (["classical", "bogus"], ("classical",), CIPHERS),
        ],
        ids=["encrypt", "classical shift", "--help", "bogus", "classical bogus"],
    )
    def test_builds_only_the_subparsers_argv_names(
        self, argv: list[str], commands: tuple[str, ...], ciphers: tuple[str, ...] | None
    ):
        built = subparsers(build_parser(argv))
        assert tuple(built) == commands
        assert (tuple(subparsers(built["classical"])) if "classical" in built else None) == ciphers
