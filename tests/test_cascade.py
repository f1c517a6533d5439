from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle_table_walk as oracle
from dgcipher import (
    ALPHABET,
    LOWERCASE,
    CascadeKeySet,
    Group,
    IndexMode,
    SubstitutionAlphabet,
    composite_table,
    decrypt_message,
    encrypt_message,
    example_keyset,
    generate_keyset,
    letter_index,
    parse_keyset,
    serialize_keyset,
    transform_stream,
)

LETTER_CHARS = ALPHABET + LOWERCASE
MESSAGE_CHARS = LETTER_CHARS + " .,!?0123456789\n"

messages = st.text(alphabet=st.sampled_from(MESSAGE_CHARS), max_size=80)
# Any Unicode, with letters and look-alikes of letters (long s, Kelvin
# sign, Cyrillic a) drawn often.
letter_heavy = st.text(
    alphabet=st.characters() | st.sampled_from(LETTER_CHARS + "ſ\u212aаİ "), max_size=80
)

# Lone surrogates, which st.characters() never draws, astral characters
# and letters; the example holds a surrogate pair split by a letter and
# one written as two code points.
UNPAIRED = "Gazi\ud800 \U0001f600Ü\udfffni\ud83d\ude00vers\udbffite\ud83d"
unpaired_texts = st.text(
    alphabet=st.characters(categories=["Cs"])
    | st.characters(min_codepoint=0x10000)
    | st.sampled_from(LETTER_CHARS + " "),
    max_size=60,
)

# A strict table walk over the oracle's tables: only the 58 exact letter
# forms are letters. oracle.encrypt itself uppercases with str.upper, which
# turns U+017F (long s) into S, so it is not used as the reference here.
STRICT_UPPER = {oracle.lower(c): c for c in oracle.ABC}
STRICT_UPPER.update({c: c for c in oracle.ABC})
UNWALK = {
    rows_id: {oracle.walk(c, rows): c for c in oracle.ABC}
    for rows_id, rows in ((1, oracle.G1), (2, oracle.G2))
}


def strict_walk(text: str, letters_only: bool, decrypt: bool = False) -> str:
    out, seen_letters = [], 0
    for position, ch in enumerate(text):
        up = STRICT_UPPER.get(ch)
        if up is None:
            out.append(ch)
            continue
        index = seen_letters if letters_only else position
        group = 1 if (index + 1) % 2 else 2
        if decrypt:
            image = UNWALK[group][up]
        else:
            image = oracle.walk(up, oracle.G1 if group == 1 else oracle.G2)
        out.append(image if ch == up else oracle.lower(image))
        seen_letters += 1
    return "".join(out)


def identity_keyset() -> CascadeKeySet:
    ident = SubstitutionAlphabet(ALPHABET)
    return CascadeKeySet((ident, ident, ident), (ident, ident, ident), ident)


class TestLetterMaps:
    # composite_rows[0] is GROUP1's image of each letter, [1] GROUP2's.
    def test_known_letter_images(self, keyset: CascadeKeySet):
        group1, group2 = keyset.composite_rows
        assert group1[letter_index("A")] == "V"
        assert group2[letter_index("A")] == "Ğ"
        assert group1[letter_index("M")] == "F"

    def test_decrypt_inverts_encrypt(self, keyset: CascadeKeySet):
        # A letter at position 0 takes GROUP1's row, at position 1 GROUP2's.
        for position, row in enumerate(keyset.composite_rows):
            for letter, image in zip(ALPHABET, row):
                message = "A" * position + letter
                ciphertext = encrypt_message(message, keyset)
                assert ciphertext[position] == image
                assert decrypt_message(ciphertext, keyset) == message

    def test_identity_stages_leave_only_the_final_step(self):
        group1, group2 = identity_keyset().composite_rows
        # with identity stages the output is the cyclic predecessor
        assert group1[letter_index("A")] == "Z"
        assert group2[letter_index("B")] == "A"
        assert encrypt_message("ABC", identity_keyset()) == "ZAB"


class TestCompositeTable:
    def test_matches_letterwise_encryption(self, keyset: CascadeKeySet):
        for group, row in zip(Group, keyset.composite_rows):
            assert composite_table(group, keyset).letters == row

    def test_known_group1_composite(self, keyset: CascadeKeySet):
        assert composite_table(Group.GROUP1, keyset).letters == "VLNDMAYREBĞCJPKFOGŞIUÖÇZİSTÜH"

    def test_identity_keyset_composite_is_rotation(self):
        table = composite_table(Group.GROUP1, identity_keyset())
        assert table.letters == "Z" + ALPHABET[:-1]

    def test_letter_a_has_two_distinct_images(self, keyset: CascadeKeySet):
        image1 = composite_table(Group.GROUP1, keyset).letters[letter_index("A")]
        image2 = composite_table(Group.GROUP2, keyset).letters[letter_index("A")]
        assert (image1, image2) == ("V", "Ğ")
        assert image1 != image2

    def test_composites_are_permutations(self):
        for seed in range(20):
            ks = generate_keyset(seed)
            for group in Group:
                letters = composite_table(group, ks).letters
                assert sorted(letters) == sorted(ALPHABET)


class TestCollapse:
    """Only the two composite rows matter: (29!)**5 keysets give each cipher."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=lambda seed: "paper" if seed is None else f"seed{seed}")
    def test_equivalent_keyset_is_the_same_cipher(self, seed: int | None, corpus_text: str):
        keyset = example_keyset() if seed is None else generate_keyset(seed)
        # Identity S2, S3 and FINAL: FINAL's predecessor step then undoes
        # an S1 that sends each letter to its composite image's successor.
        identity = SubstitutionAlphabet(ALPHABET)
        successor = str.maketrans(ALPHABET, ALPHABET[1:] + ALPHABET[0])
        first = [SubstitutionAlphabet(row.translate(successor)) for row in keyset.composite_rows]
        equivalent = CascadeKeySet(
            (first[0], identity, identity), (first[1], identity, identity), identity
        )
        assert equivalent.composite_rows == keyset.composite_rows
        for mode in IndexMode:
            assert encrypt_message(corpus_text, equivalent, mode) == encrypt_message(corpus_text, keyset, mode)
        key_file = serialize_keyset(equivalent)
        assert parse_keyset(key_file) == equivalent
        assert key_file != serialize_keyset(keyset)


class TestMessages:
    def test_adjacent_same_letters_diverge(self, keyset: CascadeKeySet):
        assert encrypt_message("AA", keyset) == "VĞ"

    def test_index_modes_differ_on_spaced_text(self, keyset: CascadeKeySet):
        assert encrypt_message("A A", keyset) == "V V"
        assert encrypt_message("A A", keyset, IndexMode.LETTERS_ONLY) == "V Ğ"

    def test_case_is_preserved(self, keyset: CascadeKeySet):
        assert encrypt_message("aa", keyset) == "vğ"
        assert encrypt_message("Aa", keyset) == "Vğ"

    def test_passthrough_only(self, keyset: CascadeKeySet):
        assert encrypt_message("404 :: !?", keyset) == "404 :: !?"

    def test_empty(self, keyset: CascadeKeySet):
        assert encrypt_message("", keyset) == ""
        assert decrypt_message("", keyset) == ""

    def test_leading_passthrough_shifts_parity_in_all_chars_mode(self, keyset: CascadeKeySet):
        spaced = encrypt_message(" A", keyset)
        flush = encrypt_message("A", keyset)
        assert spaced == " Ğ"
        assert flush == "V"

    def test_known_sentence_both_modes(self, keyset: CascadeKeySet):
        plain = "Gazi Üniversitesi"
        assert encrypt_message(plain, keyset) == "Rğhr Üorttujcvajc"
        assert encrypt_message(plain, keyset, IndexMode.LETTERS_ONLY) == "Rğhr Sgceaförztör"


class TestOracleAgreement:
    PHRASES = [
        "Mikroişlemci",
        "Gazi Üniversitesi",
        "A A",
        "Çift grup, tek alfabe!",
        "birinci ikinci üçüncü 123",
        "ŞÜphe yok: İZ bırakır.",
    ]

    def test_against_independent_table_walk(self, keyset: CascadeKeySet):
        for phrase in self.PHRASES:
            assert encrypt_message(phrase, keyset) == oracle.encrypt(phrase)
            assert encrypt_message(phrase, keyset, IndexMode.LETTERS_ONLY) == oracle.encrypt(
                phrase, letters_only=True
            )

    def test_random_strings_agree_with_oracle(self, keyset: CascadeKeySet):
        rng = random.Random(20260817)
        for _ in range(300):
            text = "".join(rng.choice(MESSAGE_CHARS) for _ in range(rng.randrange(60)))
            assert encrypt_message(text, keyset) == oracle.encrypt(text)
            assert encrypt_message(text, keyset, IndexMode.LETTERS_ONLY) == oracle.encrypt(
                text, letters_only=True
            )


class TestStrictTableWalk:
    def check(self, text: str) -> None:
        keyset = example_keyset()
        for mode in IndexMode:
            letters_only = mode is IndexMode.LETTERS_ONLY
            assert encrypt_message(text, keyset, mode) == strict_walk(text, letters_only)
            assert decrypt_message(text, keyset, mode) == strict_walk(text, letters_only, True)

    @given(st.text())
    def test_any_text(self, text: str):
        self.check(text)

    @given(letter_heavy)
    def test_letter_heavy_text(self, text: str):
        self.check(text)

    @given(unpaired_texts)
    @example(UNPAIRED)
    def test_surrogates_and_astral_characters_pass_through(self, text: str):
        self.check(text)
        keyset = example_keyset()
        for mode in IndexMode:
            assert decrypt_message(encrypt_message(text, keyset, mode), keyset, mode) == text

    def test_every_code_point(self, every_character: str):
        self.check(every_character)
        # The same characters, sparse among letters and spaces.
        self.check("".join(c + "Gazi Üniversitesi, " for c in every_character[::16]))

    def test_every_code_point_in_odd_chunks(self, every_character: str):
        # The phase is carried across chunks of odd lengths, so cuts fall
        # both after an even and after an odd number of letters.
        keyset = example_keyset()
        sizes, cuts = [1, 3, 4097, 333, 65535, 7], [0]
        while cuts[-1] < len(every_character):
            cuts.append(cuts[-1] + sizes[len(cuts) % len(sizes)])
        chunks = [every_character[a:b] for a, b in zip(cuts, cuts[1:])]
        for mode in IndexMode:
            letters_only = mode is IndexMode.LETTERS_ONLY
            for decrypt in (False, True):
                got = "".join(transform_stream(chunks, keyset, mode, decrypt=decrypt))
                assert got == strict_walk(every_character, letters_only, decrypt)

    def test_long_s_passes_through(self, keyset: CascadeKeySet):
        for mode in IndexMode:
            assert encrypt_message("ſ", keyset, mode) == "ſ"
            letters_only = mode is IndexMode.LETTERS_ONLY
            assert encrypt_message("aſa", keyset, mode) == strict_walk("aſa", letters_only)
        # The loose oracle disagrees: str.upper folds the long s into S.
        assert oracle.encrypt("ſ") != "ſ"


class TestRoundTrip:
    @given(messages, st.integers(min_value=0, max_value=2**32))
    def test_decrypt_recovers_message(self, message: str, seed: int):
        ks = generate_keyset(seed)
        for mode in IndexMode:
            assert decrypt_message(encrypt_message(message, ks, mode), ks, mode) == message

    @given(messages)
    def test_passthrough_positions_survive(self, message: str):
        keyset = example_keyset()
        encrypted = encrypt_message(message, keyset)
        assert len(encrypted) == len(message)
        for got, was in zip(encrypted, message):
            if was not in LETTER_CHARS:
                assert got == was


class TestStreaming:
    @given(
        st.text(alphabet=st.sampled_from(MESSAGE_CHARS + "ſ"), max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=8),
        st.sampled_from(IndexMode),
        st.booleans(),
    )
    # Cuts inside a letter run, inside a passthrough run, an empty chunk
    # (repeated cut) and odd-length chunks.
    @example("Gazi  Üniversitesi!! 2024", [2, 5, 5, 12, 19, 20], IndexMode.LETTERS_ONLY, False)
    @example("Gazi  Üniversitesi!! 2024", [1, 4, 5, 5, 19], IndexMode.ALL_CHARS, True)
    def test_chunking_does_not_change_output(
        self, message: str, cuts: list[int], mode: IndexMode, decrypt: bool
    ):
        keyset = example_keyset()
        cuts = sorted(min(c, len(message)) for c in cuts)
        pieces = [message[a:b] for a, b in zip([0, *cuts], [*cuts, len(message)])]
        whole = "".join(transform_stream([message], keyset, mode, decrypt=decrypt))
        assert "".join(transform_stream(pieces, keyset, mode, decrypt=decrypt)) == whole

    def test_decrypt_stream(self, keyset: CascadeKeySet):
        message = "akış halinde çözülür"
        encrypted = encrypt_message(message, keyset)
        chunks = [encrypted[:5], encrypted[5:9], encrypted[9:]]
        assert "".join(transform_stream(chunks, keyset, decrypt=True)) == message
