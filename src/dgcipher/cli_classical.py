"""The classical command: its one record in _COMMANDS holds, under "cipher",
_CIPHERS, a (help, handler, flags) record per cipher. A handler takes the
parsed args and the parser, as every command's does; it loads only its
cipher's module and checks flags and key before it reads --in. A cipher is
added as one record here; a flag, as one entry of its record's flags."""

from .cli_io import _DECRYPT, _IO, _ONE_OF, _input_chunks
from .text_model import Alphabet


def _whole_text(args, encrypt, decrypt, key, end: str = "") -> list[str]:
    op = decrypt if args.decrypt else encrypt
    op("", key)  # a bad key fails here, before the input is read
    result = op("".join(_input_chunks(args.infile)), key)
    return [result + end if result else ""]


def _shift(args, _parser):
    from .classical import shift_stream
    return shift_stream(_input_chunks(args.infile), args.k, decrypt=args.decrypt)


def _atbash(args, _parser):
    from .classical import atbash_stream
    return atbash_stream(_input_chunks(args.infile))


def _vigenere(args, _parser):
    from .classical import vigenere_stream
    chunks = _input_chunks(args.infile)
    return vigenere_stream(chunks, args.key, Alphabet(args.alphabet), decrypt=args.decrypt)


# playfair, railfence and scytale keep only the letters, so they add back a newline.
def _playfair(args, _parser):
    from .grids import PlayfairSpec, playfair_decrypt, playfair_encrypt
    spec = PlayfairSpec(args.keyword, args.padding)
    return _whole_text(args, playfair_encrypt, playfair_decrypt, spec, "\n")


def _polybius(args, parser):
    from .grids import PolybiusSpec, polybius_decode, polybius_encode
    if (args.grid, args.rows, args.cols).count(None) in (1, 2):
        parser.error("--grid, --rows and --cols must be given together")
    spec = None if args.grid is None else PolybiusSpec(args.rows, args.cols, args.grid)
    return _whole_text(args, polybius_encode, polybius_decode, spec)


def _railfence(args, _parser):
    from .grids import rail_fence_decrypt, rail_fence_encrypt
    return _whole_text(args, rail_fence_encrypt, rail_fence_decrypt, args.rails, "\n")


def _scytale(args, _parser):
    from .grids import scytale_decrypt, scytale_encrypt
    return _whole_text(args, scytale_encrypt, scytale_decrypt, args.circumference, "\n")


def _vernam(args, _parser):
    from .classical import vernam_decrypt, vernam_encrypt
    key = args.key if args.key_file is None else "".join(_input_chunks(args.key_file))
    return _whole_text(args, vernam_encrypt, vernam_decrypt, key)


# Every cipher takes --decrypt, --in and --out before its own flags.
_CIPHERS = {name: (text, run, {**_DECRYPT, **_IO, **flags}) for name, (text, run, flags) in {
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
}.items()}

# No handler of its own: the chosen cipher's subparser sets it.
_COMMANDS = {"classical": ("run one of the classical ciphers", None, {"cipher": _CIPHERS})}
