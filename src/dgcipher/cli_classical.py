"""The classical command: one record per cipher in _CIPHERS, holding its help,
its function and its flags. A function takes the parsed args, the input chunks
and the parser; it loads only its cipher's module and checks flags and key first."""

from .cli_io import _add_io_flags, _input_chunks
from .text_model import Alphabet


def _whole_text(args, encrypt, decrypt, key, chunks, end: str = "") -> list[str]:
    op = decrypt if args.decrypt else encrypt
    op("", key)  # a bad key fails here, before the input is read
    result = op("".join(chunks), key)
    return [result + end if result else ""]


def _shift(args, chunks, _parser):
    from .classical import shift_stream
    return shift_stream(chunks, args.k, decrypt=args.decrypt)


def _atbash(_args, chunks, _parser):
    from .classical import atbash_stream
    return atbash_stream(chunks)


def _vigenere(args, chunks, _parser):
    from .classical import vigenere_stream
    return vigenere_stream(chunks, args.key, Alphabet(args.alphabet), decrypt=args.decrypt)


# playfair, railfence and scytale keep only the letters, so they add back a newline.
def _playfair(args, chunks, _parser):
    from .grids import PlayfairSpec, playfair_decrypt, playfair_encrypt
    spec = PlayfairSpec(args.keyword, args.padding)
    return _whole_text(args, playfair_encrypt, playfair_decrypt, spec, chunks, "\n")


def _polybius(args, chunks, parser):
    from .grids import PolybiusSpec, polybius_decode, polybius_encode
    if (args.grid, args.rows, args.cols).count(None) in (1, 2):
        parser.error("--grid, --rows and --cols must be given together")
    spec = None if args.grid is None else PolybiusSpec(args.rows, args.cols, args.grid)
    return _whole_text(args, polybius_encode, polybius_decode, spec, chunks)


def _railfence(args, chunks, _parser):
    from .grids import rail_fence_decrypt, rail_fence_encrypt
    return _whole_text(args, rail_fence_encrypt, rail_fence_decrypt, args.rails, chunks, "\n")


def _scytale(args, chunks, _parser):
    from .grids import scytale_decrypt, scytale_encrypt
    return _whole_text(args, scytale_encrypt, scytale_decrypt, args.circumference, chunks, "\n")


def _vernam(args, chunks, _parser):
    from .classical import vernam_decrypt, vernam_encrypt
    key = args.key if args.key_file is None else "".join(_input_chunks(args.key_file))
    return _whole_text(args, vernam_encrypt, vernam_decrypt, key, chunks)


# A flag maps to its add_argument keywords; exactly one flag under _ONE_OF is given.
_ONE_OF = "one of"
_CIPHERS = {
    "shift": ("rotate letters by a fixed amount", _shift, {
        "--k": dict(required=True, type=int, help="shift amount, 0..28"),
    }),
    "atbash": ("mirror letters across the alphabet (self-inverse)", _atbash, {}),
    "vigenere": ("running-key letter shifts", _vigenere, {
        "--key": dict(required=True, help="key letters"),
        "--alphabet": dict(
            choices=[a.value for a in Alphabet], default=Alphabet.ENGLISH26.value, help="working alphabet"
        ),
    }),
    "playfair": ("5x5 digram cipher", _playfair, {
        "--keyword": dict(required=True, help="table keyword"),
        "--padding": dict(default="M", help="padding letter (default M)"),
    }),
    "polybius": ("coordinate grid code", _polybius, {
        "--grid": dict(help="row-major grid letters (default: full alphabet)"),
        "--rows": dict(type=int, help="grid rows"),
        "--cols": dict(type=int, help="grid columns"),
    }),
    "railfence": ("zigzag transposition", _railfence, {
        "--rails": dict(required=True, type=int, help="rail count"),
    }),
    "scytale": ("rod transposition", _scytale, {
        "--circumference": dict(required=True, type=int, help="rod circumference"),
    }),
    "vernam": ("one-time running key, modular addition", _vernam, {_ONE_OF: {
        "--key": dict(help="key letters"),
        "--key-file": dict(metavar="PATH", help="file holding the key letters"),
    }}),
}


def _cmd_classical(args, parser):
    return _CIPHERS[args.cipher][1](args, _input_chunks(args.infile), parser)


def add_commands(commands, names, argv) -> None:
    """Add the classical subparser and, under it, the subparsers of the
    ciphers: only the one argv's first token names, if it names one."""
    classical = commands.add_parser("classical", help="run one of the classical ciphers")
    ciphers = classical.add_subparsers(dest="cipher", required=True, metavar="CIPHER")
    for name in argv[:1] if argv and argv[0] in _CIPHERS else _CIPHERS:
        help_text, _, flags = _CIPHERS[name]
        sub = ciphers.add_parser(name, help=help_text)
        sub.add_argument("--decrypt", action="store_true", help="invert the cipher")
        _add_io_flags(sub)
        sub.set_defaults(handler=_cmd_classical)
        for flag, keywords in flags.items():
            if flag == _ONE_OF:
                group = sub.add_mutually_exclusive_group(required=True)
                for one, one_keywords in keywords.items():
                    group.add_argument(one, **one_keywords)
            else:
                sub.add_argument(flag, **keywords)
