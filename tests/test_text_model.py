from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgcipher import (
    ALPHABET,
    ALPHABET_SIZE,
    LOWERCASE,
    NonCanonicalSymbol,
    letter_index,
    to_lower_tr,
    to_upper_tr,
)
from dgcipher.text_model import (
    LETTERS,
    LetterUnit,
    Passthrough,
    phase_counts,
    render,
    substitution_table,
    tokenize,
    translate_stream,
)


class TestAlphabet:
    def test_size(self):
        assert len(ALPHABET) == ALPHABET_SIZE == 29
        assert len(LOWERCASE) == 29

    def test_known_positions(self):
        assert letter_index("A") == 0
        assert letter_index("I") == 10
        assert letter_index("İ") == 11
        assert letter_index("Z") == 28

    def test_letter_index_inverts_alphabet(self):
        for j, letter in enumerate(ALPHABET):
            assert letter_index(letter) == j

    def test_foreign_letters_rejected(self):
        for bad in ("Q", "W", "X", "a", "1", " "):
            with pytest.raises(NonCanonicalSymbol):
                letter_index(bad)


class TestCaseFolding:
    def test_dotted_and_dotless_pairs(self):
        assert to_upper_tr("i") == "İ"
        assert to_upper_tr("ı") == "I"
        assert to_lower_tr("İ") == "i"
        assert to_lower_tr("I") == "ı"

    def test_words(self):
        assert to_upper_tr("mikroişlemci") == "MİKROİŞLEMCİ"
        assert to_lower_tr("DİYARBAKIR") == "diyarbakır"

    def test_non_letters_untouched(self):
        assert to_upper_tr("a1b2?") == "A1B2?"

    def test_upper_is_the_per_character_rule(self, every_character: str):
        special = {"i": "İ", "ı": "I"}
        assert to_upper_tr(every_character) == "".join(special.get(c, c.upper()) for c in every_character)

    def test_lower_has_no_final_sigma(self):
        # str.lower would give "ας": a final sigma by context.
        assert to_lower_tr("ΑΣ") == "ασ"

    @given(st.sampled_from(LOWERCASE))
    def test_roundtrip_on_alphabet(self, ch: str):
        assert to_lower_tr(to_upper_tr(ch)) == ch


class TestCanonical:
    def test_upper_maps_to_itself(self):
        assert tokenize(ALPHABET) == [LetterUnit(letter, False) for letter in ALPHABET]

    def test_lower_maps_with_flag(self):
        assert tokenize(LOWERCASE) == [LetterUnit(up, True) for up in ALPHABET]

    def test_outside_alphabet(self):
        # U+017F (long s) uppercases to S in Unicode; it must still pass through
        look_alikes = "qW3!ſ"
        assert tokenize(look_alikes) == [Passthrough(ch) for ch in look_alikes]


class TestTokenize:
    def test_mixed_message(self):
        units = tokenize("Gazi Üniversitesi")
        assert len(units) == 17
        assert units[0] == LetterUnit("G", False)
        assert units[1] == LetterUnit("A", True)
        assert units[4] == Passthrough(" ")
        assert units[5] == LetterUnit("Ü", False)

    def test_digits_and_symbols_pass_through(self):
        units = tokenize("42!")
        assert all(isinstance(u, Passthrough) for u in units)

    def test_empty(self):
        assert tokenize("") == []
        assert render([]) == ""

    @given(st.text())
    def test_render_inverts_tokenize(self, message: str):
        assert render(tokenize(message)) == message


# Any code point, lone surrogates included, and the letters, the i forms
# and look-alikes of letters (long s, Kelvin sign, Cyrillic a) often.
any_texts = st.text(
    st.characters(exclude_categories=()) | st.sampled_from(LETTERS + "ıİiIſ\u212a\u0430?")
)


def per_char_phase_counts(text: str, period: int, letters: str | None) -> list[list[int]]:
    rows = [[0] * ALPHABET_SIZE for _ in range(period)]
    counted = [c for c in text if letters is None or c in letters]
    for i, c in enumerate(counted):
        if c in LETTERS:
            rows[i % period][LETTERS.index(c) % ALPHABET_SIZE] += 1
    return rows


class TestLetterCounts:
    @given(
        any_texts,
        st.lists(st.integers(min_value=0, max_value=60)),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([None, LETTERS]),
    )
    def test_matches_a_per_character_count_over_any_split(
        self, text: str, cuts: list[int], period: int, letters: str | None
    ):
        bounds = [0, *sorted(min(cut, len(text)) for cut in cuts), len(text)]
        chunks = [text[start:stop] for start, stop in zip(bounds, bounds[1:])]
        assert phase_counts(chunks, period, letters) == per_char_phase_counts(text, period, letters)


class TestGrouping:
    # GROUP1's table sends A to B and GROUP2's sends A to C, so the output
    # shows the group each position was routed to.
    TABLES = (substitution_table("A", "B"), substitution_table("A", "C"))

    def test_all_chars_alternates_on_raw_position(self):
        assert list(translate_stream(["AA A"], self.TABLES)) == ["BC C"]

    def test_letters_only_uses_letter_ordinal(self):
        # raw position 3 says even slot, letter ordinal 0 says odd slot
        assert list(translate_stream(["!!!A A"], self.TABLES, LETTERS)) == ["!!!B C"]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_alternation(self, i: int):
        (out,) = translate_stream(["." * i + "AA"], self.TABLES)
        assert out[-2] != out[-1]
