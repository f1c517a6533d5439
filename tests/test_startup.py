"""Start-up guard: a CLI call imports only the modules its subcommand runs,
and its process ends without the collector's final sweep.

Each case runs the CLI in a child interpreter and compares the modules it
ends with against those of a bare `python -c pass`, so only what the call
itself added counts.
"""

from __future__ import annotations

import ast
import gc
import os
import pathlib
import subprocess
import sys

import pytest

import dgcipher
import dgcipher.cli
from dgcipher import (
    ALPHABET,
    CascadeKeySet,
    FrequencyTable,
    PlayfairSpec,
    PolybiusSpec,
    ShiftGuess,
    SubstitutionAlphabet,
    SubstitutionGuess,
    canonical_grid,
    example_keyset,
    flatness_report,
    generate_keyset,
    letter_frequencies,
    rank_match_attack,
    serialize_keyset,
)
from dgcipher.text_model import LetterUnit, Passthrough

_MODULES = "import sys; sys.stdout.write(' '.join(sys.modules))"
# Runs the CLI as `python -m dgcipher.cli` does; each use below adds what
# to do once the CLI has exited.
_RUN_CLI = (
    "import runpy, sys\n"
    "sys.argv = ['dgcipher', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('dgcipher.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as done:\n"
)
_CLI_THEN_MODULES = _RUN_CLI + "    if done.code:\n        raise\n" + f"{_MODULES}\n"
# Reports, on stderr's last line, the exit code and the frozen object count.
_CLI_THEN_FREEZE_COUNT = (
    "import gc\n" + _RUN_CLI + "    print(done.code, gc.get_freeze_count(), file=sys.stderr)\n"
)
# Sweeps what the freeze left and exits with the CLI's code: a file that
# only the sweep would close warns here.
_CLI_THEN_SWEEP = (
    "import gc\n" + _RUN_CLI + "    code = done.code\n" "gc.unfreeze()\n" "gc.collect()\n" "sys.exit(code)\n"
)
_SWEEP_CHILD = (sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _CLI_THEN_SWEEP)
# Children may run in another directory, so the package path must be absolute.
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(pathlib.Path(dgcipher.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    ),
}
_HEAVY = {"dgcipher.classical", "dgcipher.analysis", "dataclasses"}
_NO_CIPHERS = {"dgcipher.cascade", "dgcipher.classical", "dataclasses"}
_SUBSTITUTION = {"dgcipher.analysis", "dgcipher.keyset", "dgcipher.cascade", "dataclasses", "string"}
# A call loads the command module of its own family alone, the grid
# ciphers only when it runs one, and analysis only for crack and flatness.
_CASCADE_FAMILY = _HEAVY | {"dgcipher.grids", "dgcipher.cli_classical", "dgcipher.cli_analysis"}
_ANALYSIS_FAMILY = _NO_CIPHERS | {"dgcipher.cli_cascade", "dgcipher.cli_classical"}
_SUBSTITUTION_CALL = _SUBSTITUTION | {"dgcipher.grids", "dgcipher.cli_cascade", "dgcipher.cli_analysis"}
_GRID_CALL = _SUBSTITUTION_CALL - {"dgcipher.grids"}
# The command module a call of each command loads, and the grid ciphers.
_FAMILY = {
    **dict.fromkeys(("encrypt", "decrypt", "keygen", "keycheck"), "dgcipher.cli_cascade"),
    "classical": "dgcipher.cli_classical",
    **dict.fromkeys(("analyze", "crack", "flatness"), "dgcipher.cli_analysis"),
}
_GRID_CIPHERS = ("playfair", "polybius", "railfence", "scytale")


def _modules(
    code: str, *args: str, cwd: pathlib.Path | None = None, flags: tuple[str, ...] = ()
) -> set[str]:
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_ENV,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return _modules(_MODULES)


@pytest.fixture(scope="module")
def bare_no_site() -> set[str]:
    return _modules(_MODULES, flags=("-S",))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory: pytest.TempPathFactory, corpus_text: str) -> pathlib.Path:
    root = tmp_path_factory.mktemp("startup")
    (root / "msg.txt").write_text("Gazi Üniversitesi, Ankara.\n", encoding="utf-8")
    (root / "corpus.txt").write_text(corpus_text, encoding="utf-8")
    (root / "key.txt").write_text(serialize_keyset(generate_keyset(7)), encoding="utf-8")
    # Valid UTF-8 for more than one 64 KiB chunk, then a bad byte: a call
    # writing stdout has written output when the error comes.
    (root / "bad.txt").write_bytes(b"Gazi " * 20_000 + b"\xff")
    return root


@pytest.mark.parametrize(
    "argv, absent",
    [
        ("encrypt --key paper --in msg.txt --out out.txt", _CASCADE_FAMILY),
        ("encrypt --key key.txt --index-mode letters-only --in msg.txt --out out.txt", _CASCADE_FAMILY),
        ("decrypt --key key.txt --in msg.txt --out out.txt", _CASCADE_FAMILY),
        ("keycheck --key key.txt --out out.txt", _CASCADE_FAMILY),
        ("keygen --seed 7 --out out.txt", _CASCADE_FAMILY),
        ("analyze --in msg.txt --out out.txt", _ANALYSIS_FAMILY),
        ("crack --reference corpus.txt --in msg.txt --out out.txt", _ANALYSIS_FAMILY),
        ("flatness --key paper --reference corpus.txt --in corpus.txt --out out.txt", _ANALYSIS_FAMILY),
        ("classical vigenere --key anahtar --in msg.txt --out out.txt", _SUBSTITUTION_CALL),
        (
            "flatness --key key.txt --index-mode letters-only --format records"
            " --reference corpus.txt --in corpus.txt --out out.txt",
            _ANALYSIS_FAMILY,
        ),
        ("classical shift --k 3 --in msg.txt --out out.txt", _SUBSTITUTION_CALL),
        ("classical atbash --decrypt --in msg.txt --out out.txt", _SUBSTITUTION_CALL),
        ("classical playfair --keyword kalem --in msg.txt --out out.txt", _GRID_CALL),
        ("classical polybius --in msg.txt --out out.txt", _GRID_CALL),
        ("classical railfence --rails 3 --in msg.txt --out out.txt", _GRID_CALL),
        ("classical scytale --circumference 4 --in msg.txt --out out.txt", _GRID_CALL),
        # A one-time pad is key material: keyset draws it, classical stays unloaded.
        ("keygen --seed 7 --otp-length 9 --out out.txt", _CASCADE_FAMILY),
    ],
)
def test_cli_call_loads_only_what_it_runs(bare, workdir, argv: str, absent: set[str]):
    command, *rest = argv.split()
    added = _modules(_CLI_THEN_MODULES, command, *rest, cwd=workdir) - bare
    assert {"dgcipher.text_model", _FAMILY[command]} <= added
    assert ("dgcipher.grids" in added) is (rest[0] in _GRID_CIPHERS)
    # analyze counts letters with text_model alone.
    assert ("dgcipher.analysis" in added) is (command in ("crack", "flatness"))
    # Only the calls that substitute load the engine.
    substitutes = command in ("encrypt", "decrypt") or rest[0] in ("shift", "atbash", "vigenere")
    assert ("dgcipher.engine" in added) is substitutes
    # Run as __main__, the CLI module would load a second time if imported.
    assert added & (absent | {"dgcipher.cli"}) == set()


@pytest.mark.parametrize(
    "argv",
    [
        "encrypt --key paper --in msg.txt --out out.txt",
        "decrypt --key key.txt --index-mode letters-only --in msg.txt --out out.txt",
        "keycheck --key key.txt --out out.txt",
        "keygen --seed 7 --out out.txt",
    ],
)
def test_cascade_calls_import_no_typing(bare_no_site, workdir, argv: str):
    # Run without site: a site-packages .pth file may import typing before
    # any package code runs, which would hide an import made here.
    added = _modules(_CLI_THEN_MODULES, *argv.split(), cwd=workdir, flags=("-S",)) - bare_no_site
    assert "dgcipher.keyset" in added
    assert "typing" not in added


@pytest.mark.parametrize(
    "argv, module",
    [
        ("classical shift --k 3 --in msg.txt --out out.txt", "dgcipher.classical"),
        (
            "classical vigenere --key anahtar --alphabet turkish29 --in msg.txt --out out.txt",
            "dgcipher.classical",
        ),
        ("classical playfair --keyword kalem --in msg.txt --out out.txt", "dgcipher.grids"),
        ("analyze --in msg.txt --out out.txt", "dgcipher.cli_analysis"),
        ("crack --reference corpus.txt --in msg.txt --out out.txt", "dgcipher.analysis"),
        (
            "flatness --key paper --reference corpus.txt --in corpus.txt --out out.txt",
            "dgcipher.analysis",
        ),
    ],
)
def test_classical_and_analysis_calls_import_no_typing(
    bare_no_site, workdir, argv: str, module: str
):
    added = _modules(_CLI_THEN_MODULES, *argv.split(), cwd=workdir, flags=("-S",)) - bare_no_site
    assert module in added
    assert "typing" not in added


@pytest.mark.parametrize(
    "argv, code",
    [
        ("keygen --seed 7 --out out.txt", 0),
        ("encrypt --key paper --no-such-flag", 1),
        ("--help", 0),
        ("classical vigenere --help", 0),
        ("encrypt --key paper --in bad.txt", 2),
    ],
    ids=["success", "usage-error", "help", "subcommand-help", "data-error"],
)
def test_every_exit_of_the_process_freezes_the_heap(workdir, argv: str, code: int):
    done = subprocess.run(
        [sys.executable, "-c", _CLI_THEN_FREEZE_COUNT, *argv.split()],
        capture_output=True, text=True, cwd=workdir, env=_ENV,
    )
    exit_code, frozen = done.stderr.splitlines()[-1].split()
    assert int(exit_code) == code
    assert int(frozen) > 0


def test_main_in_process_leaves_the_collector_alone(tmp_path: pathlib.Path):
    state = gc.isenabled(), gc.get_freeze_count()
    assert dgcipher.cli.main(["keygen", "--seed", "7", "--out", str(tmp_path / "k.keys")]) == 0
    with pytest.raises(SystemExit):
        dgcipher.cli.main(["encrypt", "--no-such-flag"])
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def test_console_script_and_python_m_run_one_entry():
    # Python 3.10 has no tomllib, so the script line is read as text.
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]")[1].split("[")[0]
    assert scripts.strip() == 'dgcipher = "dgcipher.cli:_entry"'
    module = ast.parse(pathlib.Path(dgcipher.cli.__file__).read_text(encoding="utf-8"))
    (run_as_main,) = [
        node.body
        for node in module.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(statement) for statement in run_as_main] == ["_entry()"]
    assert callable(dgcipher.cli._entry)


@pytest.mark.parametrize(
    "argv, code",
    [
        ("encrypt --key key.txt --in msg.txt", 0),
        ("decrypt --key paper --index-mode letters-only --in msg.txt --out out.txt", 0),
        ("keycheck --key key.txt", 0),
        ("keygen --seed 7 --otp-length 9 --out out.txt", 0),
        ("classical vigenere --key anahtar --in msg.txt", 0),
        ("classical playfair --keyword kalem --in msg.txt --out out.txt", 0),
        ("classical vernam --key K --in msg.txt", 2),
        ("analyze --in msg.txt", 0),
        ("crack --reference corpus.txt --in msg.txt", 0),
        ("crack --reference no_such.txt --in msg.txt", 2),
        ("flatness --key paper --reference corpus.txt --in corpus.txt", 0),
        ("encrypt --key paper --in bad.txt", 2),
        ("encrypt --key paper --in bad.txt --out out.txt", 2),
        ("--help", 0),
        ("encrypt --key paper --no-such-flag", 1),
    ],
)
def test_no_file_waits_for_the_final_sweep(workdir, argv: str, code: int):
    done = subprocess.run(
        [*_SWEEP_CHILD, *argv.split()],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=workdir, env=_ENV,
    )
    assert done.returncode == code
    assert b"ResourceWarning" not in done.stderr


def test_no_file_waits_for_the_final_sweep_after_the_reader_goes(workdir, corpus_text: str):
    (workdir / "long.txt").write_text(corpus_text * 60, encoding="utf-8")
    argv = [*_SWEEP_CHILD, "encrypt", "--key", "paper", "--in", "long.txt"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=workdir, env=_ENV
    ) as call:
        assert len(call.stdout.read(10)) == 10
        call.stdout.close()
        assert call.wait(timeout=30) == 141
        assert b"ResourceWarning" not in call.stderr.read()


def test_importing_the_package_loads_no_submodule(bare):
    added = _modules(f"import dgcipher; {_MODULES}") - bare
    assert {m for m in added if m.startswith("dgcipher.")} == set()


class TestLazyPackage:
    def test_every_public_name_resolves(self):
        for name in dgcipher.__all__:
            assert getattr(dgcipher, name) is not None
        assert set(dgcipher.__all__) <= set(dir(dgcipher))

    def test_star_import(self):
        namespace: dict = {}
        exec("from dgcipher import *", namespace)
        assert set(dgcipher.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            dgcipher.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from dgcipher import no_such_name", {})


def _records(reference):
    """(make, fields, hashable) for each record type; make() builds a fresh equal value."""
    plain = "Gazi Üniversitesi Mühendislik Fakültesi " * 30
    return [
        (lambda: LetterUnit("Ç", True), ("letter", "was_lowercase"), True),
        (lambda: Passthrough("!"), ("raw",), True),
        (lambda: SubstitutionAlphabet(ALPHABET), ("letters",), True),
        (example_keyset, ("group1", "group2", "final"), True),
        (lambda: letter_frequencies(plain), ("counts", "total_letters"), False),
        (lambda: rank_match_attack(plain, reference), ("mapping",), False),
        (lambda: ShiftGuess(3, False, (0.5, 0.25)), ("shift", "low_confidence", "distances"), True),
        (
            lambda: flatness_report(plain, example_keyset(), reference, min_letters=10),
            (
                "total_letters", "shift_k", "index_mode", "plain_table", "shift_table",
                "cascade_table", "shift_accuracy", "cascade_accuracy", "shift_chi_squared",
                "cascade_chi_squared",
            ),
            False,
        ),
        (lambda: PlayfairSpec("KALEM"), ("keyword", "padding"), True),
        (canonical_grid, ("rows", "cols", "grid"), True),
    ]


class TestRecords:
    def test_value_semantics_and_immutability(self, reference):
        for make, fields, hashable in _records(reference):
            a, b = make(), make()
            assert not hasattr(a, "__dict__")
            assert a == b and not a != b
            assert a is not b
            assert repr(a) == (
                f"{type(a).__name__}("
                + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
                + ")"
            )
            if hashable:
                assert hash(a) == hash(b)
            for field in (*fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(a, field, None)
            assert a == b

    def test_records_with_different_fields_differ(self):
        assert LetterUnit("A", True) != LetterUnit("A", False)
        assert generate_keyset(1) != generate_keyset(2)
        assert PlayfairSpec("KALEM") != PlayfairSpec("KALEM", "X")
        assert FrequencyTable({"A": 1}, 1) != FrequencyTable({"A": 2}, 2)
        assert SubstitutionGuess({"A": "B"}) != SubstitutionGuess({"A": "C"})

    def test_keyset_checks_group_length_and_is_read_only(self):
        keyset = example_keyset()
        with pytest.raises(dgcipher.WrongLength):
            CascadeKeySet(group1=keyset.group1[:2], group2=keyset.group2, final=keyset.final)
        for name in ("composite_rows", "group1"):
            with pytest.raises(AttributeError):
                setattr(keyset, name, ())
            with pytest.raises(AttributeError):
                delattr(keyset, name)
        assert keyset == example_keyset()

    def test_polybius_spec_checks_its_grid(self):
        with pytest.raises(dgcipher.WrongLength):
            PolybiusSpec(rows=2, cols=3, grid="KA")
        assert PolybiusSpec(2, 3, "KALEMS") == PolybiusSpec(rows=2, cols=3, grid="KALEMS")
