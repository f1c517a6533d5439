"""The CLI's argument table, frozen.

test_cli.TestParserForOneCommand checks that a parser built for one argv
matches the full parser; this file checks the full parser itself against
a literal: every command and cipher in order with its help, and every
action's option strings, dest, default, choices, required, metavar, help
and type. Formatted help is not compared, as its layout differs between
Python versions.
"""

from __future__ import annotations

import argparse

from dgcipher.cli import build_parser

HELP = ("-h --help", "help", argparse.SUPPRESS, None, False, None, "show this help message and exit", None)

# (command path, its help, its actions, its mutually exclusive groups)
FROZEN = [
    ("", None, [
        HELP,
        (
            "", "command", None,
            ("encrypt", "decrypt", "keygen", "keycheck", "classical", "analyze", "crack", "flatness"),
            True, "COMMAND", None, None,
        ),
    ], []),
    ("encrypt", "encrypt text with a cascade keyset", [
        HELP,
        (
            "--key", "key", None, None, True, None,
            "key file path, or 'paper' for the built-in example keyset", None,
        ),
        (
            "--index-mode", "index_mode", "all-chars", ("all-chars", "letters-only"), False, None,
            "count positions over all characters or over letters only", None,
        ),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--verbose", "verbose", False, None, False, None, "echo settings to stderr", None),
    ], []),
    ("decrypt", "decrypt text with a cascade keyset", [
        HELP,
        (
            "--key", "key", None, None, True, None,
            "key file path, or 'paper' for the built-in example keyset", None,
        ),
        (
            "--index-mode", "index_mode", "all-chars", ("all-chars", "letters-only"), False, None,
            "count positions over all characters or over letters only", None,
        ),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--verbose", "verbose", False, None, False, None, "echo settings to stderr", None),
    ], []),
    ("keygen", "generate a key file from a seed", [
        HELP,
        ("--seed", "seed", None, None, True, None, "64-bit unsigned seed", "_seed_value"),
        (
            "--otp-length", "otp_length", None, None, False, "N",
            "emit a one-time letter key of length N instead of a keyset", "_nonnegative",
        ),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
    ], []),
    ("keycheck", "validate a key file", [
        HELP,
        ("--key", "key", None, None, True, None, "key file path, or 'paper'", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
    ], []),
    ("classical", "run one of the classical ciphers", [
        HELP,
        (
            "", "cipher", None,
            ("shift", "atbash", "vigenere", "playfair", "polybius", "railfence", "scytale", "vernam"),
            True, "CIPHER", None, None,
        ),
    ], []),
    ("classical shift", "rotate letters by a fixed amount", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--k", "k", None, None, True, None, "shift amount, 0..28", "int"),
    ], []),
    ("classical atbash", "mirror letters across the alphabet (self-inverse)", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
    ], []),
    ("classical vigenere", "running-key letter shifts", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--key", "key", None, None, True, None, "key letters", None),
        (
            "--alphabet", "alphabet", "english26", ("english26", "turkish29"), False, None,
            "working alphabet", None,
        ),
    ], []),
    ("classical playfair", "5x5 digram cipher", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--keyword", "keyword", None, None, True, None, "table keyword", None),
        ("--padding", "padding", "M", None, False, None, "padding letter (default M)", None),
    ], []),
    ("classical polybius", "coordinate grid code", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        (
            "--grid", "grid", None, None, False, None,
            "row-major grid letters (default: full alphabet)", None,
        ),
        ("--rows", "rows", None, None, False, None, "grid rows", "int"),
        ("--cols", "cols", None, None, False, None, "grid columns", "int"),
    ], []),
    ("classical railfence", "zigzag transposition", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--rails", "rails", None, None, True, None, "rail count", "int"),
    ], []),
    ("classical scytale", "rod transposition", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--circumference", "circumference", None, None, True, None, "rod circumference", "int"),
    ], []),
    ("classical vernam", "one-time running key, modular addition", [
        HELP,
        ("--decrypt", "decrypt", False, None, False, None, "invert the cipher", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
        ("--key", "key", None, None, False, None, "key letters", None),
        ("--key-file", "key_file", None, None, False, "PATH", "file holding the key letters", None),
    ], [(("key", "key_file"), True)]),
    ("analyze", "letter frequency table of the input", [
        HELP,
        (
            "--format", "format", "text", ("text", "records"), False, None,
            "human table or tab-separated records", None,
        ),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
    ], []),
    ("crack", "recover a shift cipher's shift amount", [
        HELP,
        ("--reference", "reference", None, None, True, "PATH", "reference corpus file", None),
        (
            "--min-letters", "min_letters", 100, None, False, None,
            "letters needed for a confident answer (default 100)", "_nonnegative",
        ),
        ("--verbose", "verbose", False, None, False, None, "print all 29 distances to stderr", None),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
    ], []),
    ("flatness", "compare shift and cascade ciphertext letter profiles", [
        HELP,
        ("--key", "key", None, None, True, None, "key file path, or 'paper'", None),
        ("--reference", "reference", None, None, True, "PATH", "reference corpus file", None),
        (
            "--format", "format", "text", ("text", "records"), False, None,
            "human report or tab-separated records", None,
        ),
        (
            "--index-mode", "index_mode", "all-chars", ("all-chars", "letters-only"), False, None,
            "count positions over all characters or over letters only", None,
        ),
        ("--in", "infile", None, None, False, "PATH", "input file (default: stdin)", None),
        ("--out", "outfile", None, None, False, "PATH", "output file (default: stdout)", None),
    ], []),
]


def _walk(parser: argparse.ArgumentParser, path: str = "", help_text: str | None = None):
    rows, subparsers = [], []
    for action in parser._actions:
        rows.append((
            " ".join(action.option_strings),
            action.dest,
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.required,
            action.metavar,
            action.help,
            None if action.type is None else action.type.__name__,
        ))
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            subparsers += [
                (f"{path} {name}".lstrip(), helps[name], sub) for name, sub in action.choices.items()
            ]
    groups = [
        (tuple(action.dest for action in group._group_actions), group.required)
        for group in parser._mutually_exclusive_groups
    ]
    yield path, help_text, rows, groups
    for name, help_text, sub in subparsers:
        yield from _walk(sub, name, help_text)


def test_full_parser_matches_the_frozen_table():
    assert list(_walk(build_parser())) == FROZEN
