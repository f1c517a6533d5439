from __future__ import annotations

import random
import re
import string
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dgcipher import (
    ALPHABET,
    LOWERCASE,
    Alphabet,
    CircumferenceOutOfRange,
    DuplicateGridLetter,
    EmptyKey,
    EmptyKeyword,
    GridTooLarge,
    KeyLetterOutsideAlphabet,
    KeyTooShort,
    LetterNotInGrid,
    MalformedDigitPair,
    NonCanonicalSymbol,
    OddLengthCiphertext,
    PaddingInSameCellAsNeighbor,
    PlayfairSpec,
    PolybiusSpec,
    RailsOutOfRange,
    ShiftOutOfRange,
    WrongLength,
    atbash,
    canonical_grid,
    otp_keygen,
    playfair_build,
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
    to_lower_tr,
    to_upper_tr,
    vernam_decrypt,
    vernam_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from dgcipher import text_model
from dgcipher.classical import atbash_stream, shift_stream, vigenere_stream
from dgcipher.text_model import canonical_letters

LETTER_CHARS = ALPHABET + LOWERCASE
MESSAGE_CHARS = LETTER_CHARS + " .,!?\n"

messages = st.text(alphabet=st.sampled_from(MESSAGE_CHARS), max_size=60)
ascii_messages = st.text(
    alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz ,."),
    max_size=60,
)

SENTENCE = "Gazi Üniversitesi Teknoloji Fakültesi Mikroişlemciler dersi"


def canon_letters(message: str) -> str:
    return canonical_letters(message)


TURKISH = (ALPHABET, LOWERCASE)
ENGLISH = (string.ascii_uppercase, string.ascii_lowercase)
# Dotless and dotted i, and look-alikes of letters: long s (str.upper
# gives S), Kelvin sign (str.lower gives k) and Cyrillic a.
TRICKY = "ıİiIſ\u212aаsSkK"
tricky_texts = st.text(
    alphabet=st.characters() | st.sampled_from(LETTER_CHARS + string.ascii_letters + TRICKY),
    max_size=40,
)


# Lone surrogates, which st.characters() never draws, astral characters
# and letters of both alphabets.
UNPAIRED = "Gazi\ud800 \U0001f600Ü\udfffni\ud83d\ude00vers\udbffite\ud83d"
unpaired_texts = st.text(
    alphabet=st.characters(categories=["Cs"])
    | st.characters(min_codepoint=0x10000)
    | st.sampled_from(LETTER_CHARS + string.ascii_letters + " "),
    max_size=40,
)


PERCENT_TEXTS = [
    "%", "%%", "%c", "%s", "%(k)s", "%%c%c%s%(k)s%", "a%b", "%Gazi%", "%%İş%%",
    "%ç%ı%", "100% İyi, %d %r %a %x %%%", "%(Ş)c" + TRICKY + "%",
]
percent_texts = st.text(alphabet=st.sampled_from("%%%c(k)sdS İış" + LETTER_CHARS), max_size=40)


def per_letter(message: str, image_index, alphabet: tuple[str, str] = TURKISH) -> str:
    """Reference substitution, one character at a time: the i-th letter,
    at index j of its case's row, becomes the letter at image_index(i, j)
    of the same row; everything else is copied."""
    out, i = [], 0
    for ch in message:
        row = next((r for r in alphabet if ch in r), None)
        if row is None:
            out.append(ch)
            continue
        out.append(row[image_index(i, row.index(ch))])
        i += 1
    return "".join(out)


def check_vigenere(message: str, alphabet: tuple[str, str], shifts: list[int]) -> None:
    upper, _ = alphabet
    n = len(upper)
    key = "".join(upper[k % n] for k in shifts)
    which = Alphabet.TURKISH29 if alphabet is TURKISH else Alphabet.ENGLISH26

    def shifted(sign: int):
        return lambda i, j: (j + sign * upper.index(key[i % len(key)])) % n

    encrypted = vigenere_encrypt(message, key, which)
    assert encrypted == per_letter(message, shifted(+1), alphabet)
    assert vigenere_decrypt(message, key, which) == per_letter(message, shifted(-1), alphabet)
    assert vigenere_decrypt(encrypted, key, which) == message


class TestPerLetterEquivalence:
    @given(tricky_texts, st.integers(min_value=0, max_value=28))
    @example(TRICKY, 3)
    def test_shift(self, message: str, k: int):
        assert shift_encrypt(message, k) == per_letter(message, lambda i, j: (j + k) % 29)
        assert shift_decrypt(message, k) == per_letter(message, lambda i, j: (j - k) % 29)

    @given(tricky_texts)
    @example(TRICKY)
    def test_atbash(self, message: str):
        assert atbash(message) == per_letter(message, lambda i, j: 28 - j)

    @given(
        tricky_texts,
        st.sampled_from([TURKISH, ENGLISH]),
        st.lists(st.integers(min_value=0, max_value=28), min_size=1, max_size=60),
    )
    @example(TRICKY, TURKISH, [5] * 7)  # one repeated key letter
    @example(TRICKY, ENGLISH, list(range(26)) * 2)  # key longer than the text
    @example("a" + TRICKY + "b", TURKISH, list(range(29)) * 2)
    def test_vigenere(self, message: str, alphabet: tuple[str, str], shifts: list[int]):
        check_vigenere(message, alphabet, shifts)

    @given(
        unpaired_texts,
        st.sampled_from([TURKISH, ENGLISH]),
        st.lists(st.integers(min_value=0, max_value=28), min_size=1, max_size=15),
    )
    @example(UNPAIRED, TURKISH, list(range(13)))
    @example(UNPAIRED, ENGLISH, [3])
    def test_vigenere_keeps_surrogates_and_astral_characters(
        self, message: str, alphabet: tuple[str, str], shifts: list[int]
    ):
        check_vigenere(message, alphabet, shifts)

    def test_every_code_point(self, every_character: str):
        message = every_character
        assert shift_encrypt(message, 3) == per_letter(message, lambda i, j: (j + 3) % 29)
        assert shift_decrypt(message, 3) == per_letter(message, lambda i, j: (j - 3) % 29)
        assert atbash(message) == per_letter(message, lambda i, j: 28 - j)
        # Periods one, two and thirteen, over each alphabet's letters.
        for alphabet in (TURKISH, ENGLISH):
            for shifts in ([3], [5, 17], list(range(2, 15))):
                check_vigenere(message, alphabet, shifts)

    @given(tricky_texts, st.integers(min_value=0, max_value=2**32))
    @example(TRICKY, 0)
    def test_vernam(self, message: str, seed: int):
        key = otp_keygen(len(message) + 3, seed)
        want = per_letter(message, lambda i, j: (j + ALPHABET.index(key[i])) % 29)
        assert vernam_encrypt(message, key) == want

    def test_vernam_of_a_long_text(self, corpus_text: str):
        # The key is as long as the message, so every letter has a table of
        # its own. The key mixes case and whitespace, which are ignored.
        message = corpus_text * (1 + 120_000 // len(canonical_letters(corpus_text)))
        key = otp_keygen(len(canonical_letters(message)), 3)
        assert len(key) >= 100_000
        key_text = to_lower_tr(key[:50_000]) + " \n\t" + key[50_000:]

        def shifted(sign: int):
            return lambda i, j: (j + sign * ALPHABET.index(key[i])) % 29

        encrypted = vernam_encrypt(message, key_text)
        assert encrypted == per_letter(message, shifted(+1))
        assert vernam_decrypt(message, key_text) == per_letter(message, shifted(-1))

    # Over letters, every period but two puts the translated letters back
    # through a "%" format template, so "%" and format syntax must come
    # out as themselves, wherever they stand.
    @pytest.mark.parametrize("message", PERCENT_TEXTS)
    def test_percent_signs(self, message: str):
        for alphabet in (TURKISH, ENGLISH):
            for period in (1, 3, 5, 13):
                check_vigenere(message, alphabet, list(range(2, 2 + period)))
        key = otp_keygen(len(message), 11)
        want = per_letter(message, lambda i, j: (j + ALPHABET.index(key[i])) % 29)
        assert vernam_encrypt(message, key) == want

    @given(
        percent_texts,
        st.sampled_from([TURKISH, ENGLISH]),
        st.lists(st.integers(min_value=0, max_value=28), min_size=1, max_size=15),
    )
    def test_percent_heavy_texts(self, message: str, alphabet: tuple[str, str], shifts: list[int]):
        check_vigenere(message, alphabet, shifts)


# Keys of letters that both alphabets take, periods one to twelve.
shared_keys = st.text(
    st.sampled_from("ABCDEFGHIJKLMNOPRSTUVYZabcdefghjklmnoprstuvyz"), min_size=1, max_size=12
)


class TestStreams:
    @given(tricky_texts, st.lists(st.integers(min_value=0, max_value=40), max_size=4), shared_keys)
    @example("a%b" + TRICKY + "Gazi", [1, 2, 3], "Kalem")
    # An empty chunk and a chunk with no letters carry the phase unchanged.
    @example("Ab!?  C%d", [2, 2, 6], "Kalem")
    @example("Ğ🙂..ş İı", [0, 1, 4, 4], "Kalem")
    # Every chunk starts and ends with passthrough, at periods one and two.
    @example("!Abc? .dE, ?Ğ!", [5, 6, 11], "K")
    @example("!Abc? .dE, ?Ğ!", [5, 6, 11], "Ka")
    def test_any_split_equals_the_whole_text(self, message: str, cuts: list[int], key: str):
        pieces = [message[a:b] for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), len(message)])]
        for decrypt in (False, True):
            shift_op = shift_decrypt if decrypt else shift_encrypt
            assert "".join(shift_stream(pieces, 5, decrypt=decrypt)) == shift_op(message, 5)
            for alphabet in Alphabet:
                op = vigenere_decrypt if decrypt else vigenere_encrypt
                streamed = vigenere_stream(pieces, key, alphabet, decrypt=decrypt)
                assert "".join(streamed) == op(message, key, alphabet)
        assert "".join(atbash_stream(pieces)) == atbash(message)

    def test_chunks_may_alternate_between_template_and_widening(self, monkeypatch: pytest.MonkeyPatch):
        # With a 10-letter key, a chunk of mostly passthrough takes the "%c"
        # template and a chunk of mostly letters is widened.
        taken = []
        for name in ("_scattered", "_widened"):
            kernel = getattr(text_model, name)
            monkeypatch.setattr(
                text_model, name, lambda *args, name=name, kernel=kernel: taken.append(name) or kernel(*args)
            )
        key = "KALEMİŞÇĞÖ"
        pieces = ["1, 2! Şu? 3; " * 5 + "%", "Gazi Üniversitesi Teknoloji" * 3, "?? 4: ç ...", "Mikroişlemci"]
        message = "".join(pieces)
        for sign, op in ((+1, vigenere_encrypt), (-1, vigenere_decrypt)):
            taken.clear()
            streamed = "".join(vigenere_stream(pieces, key, Alphabet.TURKISH29, decrypt=sign < 0))
            assert taken == ["_scattered", "_widened", "_scattered", "_widened"]
            assert streamed == per_letter(message, lambda i, j: (j + sign * ALPHABET.index(key[i % 10])) % 29)
            assert streamed == op(message, key, Alphabet.TURKISH29)

    def test_a_long_key_is_not_widened(self, corpus_text: str):
        # Widening a 64 KiB chunk of text for a 5,000-letter key would take
        # about 50 MB; the template keeps the peak near the chunk's size.
        chunk = (corpus_text * (1 + (1 << 16) // len(corpus_text)))[: 1 << 16]
        key = "".join(random.Random(5000).choices(ALPHABET, k=5000))
        tracemalloc.start()
        try:
            (out,) = vigenere_stream([chunk], key, Alphabet.TURKISH29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert out == per_letter(chunk, lambda i, j: (j + ALPHABET.index(key[i % 5000])) % 29)

    def test_arguments_are_checked_before_any_chunk_is_read(self):
        def chunks():
            raise AssertionError("read")
            yield ""

        with pytest.raises(ShiftOutOfRange):
            shift_stream(chunks(), 29)
        with pytest.raises(EmptyKey):
            vigenere_stream(chunks(), " ")
        with pytest.raises(KeyLetterOutsideAlphabet):
            vigenere_stream(chunks(), "ş", Alphabet.ENGLISH26)


class TestShift:
    def test_three_places(self):
        assert shift_encrypt("Gazi", 3) == "Içcl"

    def test_wraps_past_z(self):
        assert shift_encrypt("Z", 3) == "C"
        assert shift_encrypt("z", 1) == "a"

    def test_zero_is_identity(self):
        assert shift_encrypt(SENTENCE, 0) == SENTENCE

    def test_shift_out_of_range(self):
        for k in (-1, 29, 100):
            with pytest.raises(ShiftOutOfRange):
                shift_encrypt("A", k)
            with pytest.raises(ShiftOutOfRange):
                shift_decrypt("A", k)

    @given(messages, st.integers(min_value=0, max_value=28))
    def test_roundtrip(self, message: str, k: int):
        assert shift_decrypt(shift_encrypt(message, k), k) == message

    @given(messages, st.integers(min_value=0, max_value=28))
    def test_complementary_shifts_cancel(self, message: str, k: int):
        once = shift_encrypt(message, k)
        assert shift_encrypt(once, (29 - k) % 29) == message


class TestAtbash:
    def test_known_word(self):
        assert atbash("Bugün") == "Ydsçj"

    def test_edges(self):
        assert atbash("A") == "Z"
        assert atbash("Z") == "A"
        assert atbash("ı") == "ö"

    @given(messages)
    def test_involution(self, message: str):
        assert atbash(atbash(message)) == message


class TestVigenere:
    def test_known_vector(self):
        assert vigenere_encrypt("TaarruzDokuzda", "Kale") == "DalvbukHykfdna"

    def test_passthrough_does_not_consume_key(self):
        assert vigenere_encrypt("Taarruz Dokuzda", "Kale") == "Dalvbuk Hykfdna"

    def test_single_letters(self):
        assert vigenere_encrypt("T", "K") == "D"

    def test_key_a_is_identity(self):
        text = "Taarruz Dokuzda, saat 05.30!"
        assert vigenere_encrypt(text, "A") == text
        assert vigenere_encrypt(text, "a", Alphabet.TURKISH29) == text

    def test_turkish_letters_pass_through_in_english_mode(self):
        text = "ığüşçöİ"
        assert vigenere_encrypt(text, "B") == text

    def test_single_letter_key_equals_shift(self):
        text = "Mikroişlemciler dersi"
        assert vigenere_encrypt(text, "Ç", Alphabet.TURKISH29) == shift_encrypt(text, 3)

    def test_key_case_and_spacing_ignored(self):
        assert vigenere_encrypt("deneme", "k a L e") == vigenere_encrypt("deneme", "KALE")

    def test_empty_key(self):
        with pytest.raises(EmptyKey):
            vigenere_encrypt("abc", "  ")

    def test_key_outside_alphabet(self):
        with pytest.raises(KeyLetterOutsideAlphabet):
            vigenere_encrypt("abc", "Kale1")
        with pytest.raises(KeyLetterOutsideAlphabet):
            vigenere_encrypt("abc", "Çelik")  # english26 has no Ç
        with pytest.raises(KeyLetterOutsideAlphabet):
            vigenere_encrypt("abc", "Quark", Alphabet.TURKISH29)

    @pytest.mark.parametrize(
        "key, alphabet, first",
        [
            ("Ka1leÇ", Alphabet.ENGLISH26, "1"),
            ("Ka le Çİ", Alphabet.ENGLISH26, "Ç"),
            ("Kale Qİ9", Alphabet.TURKISH29, "Q"),
            ("Kaleж?", Alphabet.TURKISH29, "ж"),
            ("Kale?ж", Alphabet.TURKISH29, "?"),
        ],
    )
    def test_key_error_names_the_first_character_outside(self, key: str, alphabet: Alphabet, first: str):
        want = f"^key character {re.escape(repr(first))} is outside the alphabet$"
        with pytest.raises(KeyLetterOutsideAlphabet, match=want):
            vigenere_encrypt("abc", key, alphabet)
        if alphabet is Alphabet.TURKISH29:
            with pytest.raises(KeyLetterOutsideAlphabet, match=want):
                vernam_encrypt("abc", key)

    @given(ascii_messages, st.text(alphabet=st.sampled_from("KALEmn"), min_size=1, max_size=8))
    def test_roundtrip_english(self, message: str, key: str):
        assert vigenere_decrypt(vigenere_encrypt(message, key), key) == message

    @given(messages, st.text(alphabet=st.sampled_from(ALPHABET), min_size=1, max_size=8))
    def test_roundtrip_turkish(self, message: str, key: str):
        encrypted = vigenere_encrypt(message, key, Alphabet.TURKISH29)
        assert vigenere_decrypt(encrypted, key, Alphabet.TURKISH29) == message


def playfair_reference(message: str, spec: PlayfairSpec) -> str | None:
    """Digram stream the decrypted text must equal: representatives of the
    original letters plus inserted padding. None if padding cannot be used."""
    table = playfair_build(spec.keyword)
    letters = canon_letters(message)
    stream: list[str] = []
    i = 0
    while i < len(letters):
        a = letters[i]
        if i + 1 < len(letters) and not table.same_cell(a, letters[i + 1]):
            stream += [a, letters[i + 1]]
            i += 2
            continue
        if table.same_cell(a, spec.padding.upper()):
            return None
        stream += [a, spec.padding.upper()]
        i += 1
    return "".join(table.representative_at(*table.position_of(l)) for l in stream)


class TestPlayfair:
    def test_table_layout(self):
        table = playfair_build("kriptografi")
        rows = ["".join(table.representative_at(r, c) for c in range(5)) for r in range(5)]
        assert rows == ["KRİPT", "OGAFB", "CÇDEĞ", "HIJLM", "NÖSUV"]
        # A keyword of merged letters takes each cell once, by its representative.
        table = playfair_build("ŞEYZÜ")
        rows = ["".join(table.representative_at(r, c) for c in range(5)) for r in range(5)]
        assert rows == ["SEVUA", "BCÇDF", "GĞHIİ", "JKLMN", "OÖPRT"]

    def test_known_vectors(self):
        spec = PlayfairSpec("kriptografi")
        assert playfair_encrypt("ODTÜ", spec) == "ACPV"
        assert playfair_encrypt("KR", spec) == "Rİ"
        assert playfair_decrypt("AC", spec) == "OD"
        assert playfair_decrypt("ACPV", spec) == "ODTU"
        spec = PlayfairSpec("ŞEYZÜ")
        assert playfair_encrypt("Yüzyıl Şehri", spec) == "UAULUHJVVĞTI"
        assert playfair_decrypt("UAULUHJVVĞTI", spec) == "VUVMVILSEHRİ"

    def test_merged_letters_share_cells(self):
        table = playfair_build("kriptografi")
        assert table.same_cell("S", "Ş")
        assert table.same_cell("U", "Ü")
        assert table.same_cell("V", "Y") and table.same_cell("Y", "Z")
        assert not table.same_cell("A", "B")

    def test_same_cell_digram_gets_padding(self):
        spec = PlayfairSpec("kriptografi")
        assert playfair_encrypt("SŞA", spec) == playfair_encrypt("SMŞA", spec)

    def test_trailing_letter_gets_padding(self):
        spec = PlayfairSpec("kriptografi")
        assert playfair_encrypt("ODA", spec) == playfair_encrypt("ODAM", spec)

    def test_padding_conflict(self):
        with pytest.raises(PaddingInSameCellAsNeighbor):
            playfair_encrypt("AMM", PlayfairSpec("kriptografi"))
        with pytest.raises(PaddingInSameCellAsNeighbor):
            playfair_encrypt("S", PlayfairSpec("kriptografi", padding="Ş"))
        # The message names the letters as given, not their cells' representatives.
        with pytest.raises(PaddingInSameCellAsNeighbor, match=r"^padding 'S' shares a cell with 'Ş'$"):
            playfair_encrypt("Ş", PlayfairSpec("kriptografi", padding="S"))
        with pytest.raises(PaddingInSameCellAsNeighbor, match=r"^padding 'V' shares a cell with 'Z'$"):
            playfair_encrypt("AYZ", PlayfairSpec("kriptografi", padding="V"))

    # "KR" opens the row of the kriptografi table, so a bare search finds it.
    @pytest.mark.parametrize("letter", ["", "AB", "KR", "x", "ş", "Q"])
    def test_position_of_needs_one_uppercase_letter(self, letter: str):
        with pytest.raises(LetterNotInGrid, match=f"^letter {letter!r} has no cell$"):
            playfair_build("kriptografi").position_of(letter)

    def test_empty_keyword(self):
        with pytest.raises(EmptyKeyword):
            playfair_build("42!")

    def test_bad_padding(self):
        with pytest.raises(NonCanonicalSymbol):
            playfair_encrypt("AB", PlayfairSpec("kriptografi", padding="X"))

    def test_odd_ciphertext(self):
        with pytest.raises(OddLengthCiphertext):
            playfair_decrypt("ABC", PlayfairSpec("kriptografi"))

    def test_no_digram_maps_to_itself(self):
        table = playfair_build("kriptografi")
        reps = [table.representative_at(r, c) for r in range(5) for c in range(5)]
        spec = PlayfairSpec("kriptografi")
        for a in reps:
            for b in reps:
                if table.same_cell(a, b):
                    continue
                assert playfair_encrypt(a + b, spec) != a + b

    @given(
        st.text(alphabet=st.sampled_from(MESSAGE_CHARS), max_size=40),
        st.sampled_from(["kriptografi", "Gazi", "müjde", "ab"]),
        st.sampled_from("MKB"),
    )
    def test_roundtrip_up_to_padding_and_merges(self, message: str, keyword: str, padding: str):
        spec = PlayfairSpec(keyword, padding)
        expected = playfair_reference(message, spec)
        if expected is None:
            with pytest.raises(PaddingInSameCellAsNeighbor):
                playfair_encrypt(message, spec)
            return
        assert playfair_decrypt(playfair_encrypt(message, spec), spec) == expected


class TestPolybius:
    def test_known_word(self):
        assert polybius_encode("Gazi") == "22-11-55-26"

    def test_known_sentence(self):
        assert (
            polybius_encode("Gazi Üniversitesi")
            == "22-11-55-26 52-35-26-53-16-43-44-26-46-16-44-26"
        )

    def test_decode_inverse(self):
        assert polybius_decode("22-11-55-26") == "GAZİ"
        assert polybius_decode("22-11-55-26 52-35-26") == "GAZİ ÜNİ"

    def test_passthrough_breaks_runs(self):
        assert polybius_encode("ab, ba") == "11-12, 12-11"

    def test_custom_grid(self):
        spec = PolybiusSpec(rows=2, cols=3, grid="KALEMS")
        assert polybius_encode("elmas", spec) == "21-13-22-12-23"
        assert polybius_decode("21-13-22-12-23", spec) == "ELMAS"

    def test_short_last_row(self):
        spec = PolybiusSpec(rows=2, cols=3, grid="KALEM")
        assert polybius_encode("m", spec) == "22"
        with pytest.raises(MalformedDigitPair):
            polybius_decode("23", spec)

    def test_letter_not_in_grid(self):
        spec = PolybiusSpec(rows=2, cols=3, grid="KALEMS")
        with pytest.raises(LetterNotInGrid):
            polybius_encode("zar", spec)

    def test_lone_digit(self):
        with pytest.raises(MalformedDigitPair, match=r"^lone digit at position 3$"):
            polybius_decode("22-1")
        with pytest.raises(MalformedDigitPair, match=r"^lone digit at position 0$"):
            polybius_decode("2")
        with pytest.raises(MalformedDigitPair, match=r"^lone digit at position 6$"):
            polybius_decode("22-11-5 x 57")  # the first bad token is reported

    def test_out_of_grid_pair(self):
        with pytest.raises(MalformedDigitPair, match=r"^no grid cell at 57$"):
            polybius_decode("57")  # col 7 is outside the 6-column default grid
        with pytest.raises(MalformedDigitPair, match=r"^no grid cell at 56$"):
            polybius_decode("56")  # row 5 holds only 5 of its 6 cells
        with pytest.raises(MalformedDigitPair, match=r"^no grid cell at 00$"):
            polybius_decode("ab 001")
        with pytest.raises(MalformedDigitPair, match=r"^no grid cell at 57$"):
            polybius_decode("22-11 57-2")  # the first bad token is reported

    def test_only_ascii_digits_are_decoded(self):
        # Arabic-Indic and extended Arabic-Indic digits pass through
        assert polybius_decode("22 \u0661\u0662-11 \u06f3") == "G \u0661\u0662A \u06f3"

    def test_grid_validation(self):
        with pytest.raises(GridTooLarge):
            PolybiusSpec(rows=10, cols=3, grid=ALPHABET)
        with pytest.raises(WrongLength):
            PolybiusSpec(rows=0, cols=3, grid="KAL")
        with pytest.raises(WrongLength):
            PolybiusSpec(rows=2, cols=3, grid="KA")
        with pytest.raises(WrongLength):
            PolybiusSpec(rows=2, cols=3, grid="KALEMSİ")
        with pytest.raises(DuplicateGridLetter):
            PolybiusSpec(rows=2, cols=3, grid="KALEMK")
        with pytest.raises(NonCanonicalSymbol):
            PolybiusSpec(rows=2, cols=3, grid="KALEMX")

    def test_canonical_grid_shape(self):
        spec = canonical_grid()
        assert (spec.rows, spec.cols, spec.grid) == (5, 6, ALPHABET)

    @given(st.text(alphabet=st.sampled_from(LETTER_CHARS + " ,!?"), max_size=60))
    def test_roundtrip(self, message: str):
        assert polybius_decode(polybius_encode(message)) == to_upper_tr(message)

    @staticmethod
    def per_run(message: str, spec: PolybiusSpec) -> str:
        codes = {letter: f"{i // spec.cols + 1}{i % spec.cols + 1}" for i, letter in enumerate(spec.grid)}
        return re.sub(
            f"[{LETTER_CHARS}]+", lambda run: "-".join(codes[c] for c in canonical_letters(run[0])), message
        )

    def test_encode_is_the_per_run_rule(self, every_character: str):
        assert polybius_encode(every_character) == self.per_run(every_character, canonical_grid())

    @given(
        st.sampled_from([PolybiusSpec(3, 3, "KALEMSİNÖ"), PolybiusSpec(2, 3, "ELMAS")]),
        st.text(alphabet=st.sampled_from("KALEMSİNÖkalemsinö BZbz-12%ж\U0001f600"), max_size=40),
    )
    def test_encode_on_partial_grids(self, spec: PolybiusSpec, message: str):
        missing = [c for c in canonical_letters(message) if c not in spec.grid]
        if missing:
            with pytest.raises(LetterNotInGrid, match=f"^letter {missing[0]} is not in the grid$"):
                polybius_encode(message, spec)
        else:
            assert polybius_encode(message, spec) == self.per_run(message, spec)


class TestRailFence:
    SENTENCE = "Gazi Üniversitesi Teknik Eğitim Fakültesi"
    FENCED = "GZÜİESTSTKİEİİFKLEİAİNVRİEİENKĞTMAÜTS"

    def test_known_sentence(self):
        assert rail_fence_encrypt(self.SENTENCE, 2) == self.FENCED

    def test_known_sentence_decrypts_with_19_18_split(self):
        letters = canon_letters(self.SENTENCE)
        assert len(letters) == 37
        assert rail_fence_decrypt(self.FENCED, 2) == letters
        # rails=2 reads the first 19 letters as the top rail, the rest below
        assert self.FENCED[:19] == letters[0::2]
        assert self.FENCED[19:] == letters[1::2]

    def test_two_rails_splits_odd_and_even_positions(self):
        assert rail_fence_encrypt("ABCÇDE", 2) == "ACDBÇE"

    def test_one_rail_keeps_order(self):
        assert rail_fence_encrypt("Gazi Üni", 1) == "GAZİÜNİ"
        assert rail_fence_decrypt("GAZİÜNİ", 1) == "GAZİÜNİ"

    def test_rails_out_of_range(self):
        with pytest.raises(RailsOutOfRange):
            rail_fence_encrypt("AB", 0)
        with pytest.raises(RailsOutOfRange):
            rail_fence_decrypt("AB", -2)

    def test_more_rails_than_letters(self):
        assert rail_fence_encrypt("ABC", 10) == "ABC"
        assert rail_fence_decrypt("ABC", 10) == "ABC"

    @given(messages, st.integers(min_value=1, max_value=9))
    def test_roundtrip(self, message: str, rails: int):
        letters = canon_letters(message)
        assert rail_fence_decrypt(rail_fence_encrypt(message, rails), rails) == letters


class TestScytale:
    def test_known_small_vector(self):
        assert scytale_encrypt("ABCDEF", 2) == "ADBECF"
        assert scytale_decrypt("ADBECF", 2) == "ABCDEF"

    def test_uneven_fill(self):
        assert scytale_encrypt("ABCDE", 2) == "ADBEC"
        assert scytale_decrypt("ADBEC", 2) == "ABCDE"

    def test_circumference_one_keeps_order(self):
        assert scytale_encrypt("Gazi Üni", 1) == "GAZİÜNİ"

    def test_out_of_range(self):
        with pytest.raises(CircumferenceOutOfRange):
            scytale_encrypt("AB", 0)
        with pytest.raises(CircumferenceOutOfRange):
            scytale_decrypt("AB", 0)

    def test_empty(self):
        assert scytale_encrypt("", 4) == ""
        assert scytale_decrypt("?!", 4) == ""

    @given(messages, st.integers(min_value=1, max_value=9))
    def test_roundtrip(self, message: str, circumference: int):
        letters = canon_letters(message)
        encrypted = scytale_encrypt(message, circumference)
        assert scytale_decrypt(encrypted, circumference) == letters


class TestVernam:
    def test_single_letter(self):
        assert vernam_encrypt("T", "K") == "G"

    def test_case_and_passthrough(self):
        assert vernam_encrypt("t!", "K") == "g!"

    def test_key_too_short(self):
        with pytest.raises(KeyTooShort):
            vernam_encrypt("ABC", "AB")
        with pytest.raises(KeyTooShort):
            vernam_encrypt("A", "")

    def test_whitespace_in_key_ignored(self):
        assert vernam_encrypt("AB", "K G") == vernam_encrypt("AB", "KG")

    def test_key_outside_alphabet(self):
        with pytest.raises(KeyLetterOutsideAlphabet):
            vernam_encrypt("AB", "Q9")

    def test_key_longer_than_message_is_fine(self):
        assert vernam_decrypt(vernam_encrypt("AB", "KGJRL"), "KGJRL") == "AB"

    @given(messages, st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_with_generated_key(self, message: str, seed: int):
        key = otp_keygen(len(message) + 4, seed)
        assert vernam_decrypt(vernam_encrypt(message, key), key) == message


class TestOtpKeygen:
    def test_length_and_alphabet(self):
        key = otp_keygen(200, seed=1)
        assert len(key) == 200
        assert set(key) <= set(ALPHABET)

    def test_deterministic(self):
        assert otp_keygen(50, seed=9) == otp_keygen(50, seed=9)
        assert otp_keygen(50, seed=9) != otp_keygen(50, seed=10)
        # A pad recorded by its seed must regenerate identically forever.
        assert otp_keygen(29, seed=424242) == "USFĞTPZTŞÇZMSUYĞRRRPÇEATĞÇEBÖ"

    def test_zero_length(self):
        assert otp_keygen(0, seed=3) == ""

    def test_negative_length(self):
        with pytest.raises(ValueError):
            otp_keygen(-1, seed=3)
