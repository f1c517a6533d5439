from __future__ import annotations

import random
import re
from operator import eq

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dgcipher import (
    ALPHABET,
    LOWERCASE,
    EmptyText,
    FlatnessReport,
    FrequencyTable,
    IndexMode,
    ShiftOutOfRange,
    SubstitutionGuess,
    TooShort,
    atbash,
    build_reference_table,
    chi_squared_distance,
    crack_shift,
    encrypt_message,
    example_keyset,
    flatness_report,
    generate_keyset,
    letter_frequencies,
    rank_match_attack,
    shift_encrypt,
    to_lower_tr,
    to_upper_tr,
)
from dgcipher.text_model import canonical_letters

FREQ_SENTENCE = "Akif kasaba gitti ve et aldı."

lettered_texts = st.text(
    alphabet=st.sampled_from(ALPHABET + LOWERCASE + " ,.!"), max_size=200
).filter(lambda s: any(c in ALPHABET + LOWERCASE for c in s))
# Dotless and dotted i, and look-alikes of letters: long s (str.upper
# gives S), Kelvin sign (str.lower gives k) and Cyrillic a.
TRICKY = "ıİiIſ\u212aаsSkK"
tricky_texts = st.text(
    alphabet=st.characters() | st.sampled_from(ALPHABET + LOWERCASE + TRICKY), max_size=60
)


def per_char_counts(text: str) -> dict[str, int]:
    """Reference letter count, one character at a time."""
    counts = dict.fromkeys(ALPHABET, 0)
    for ch in text:
        if ch in ALPHABET:
            counts[ch] += 1
        elif ch in LOWERCASE:
            counts[ALPHABET[LOWERCASE.index(ch)]] += 1
    return counts


def per_char_apply(text: str, mapping: dict[str, str]) -> str:
    """Reference rank-match rewrite, one character at a time."""
    out = []
    for ch in text:
        if ch in ALPHABET:
            out.append(mapping[ch])
        elif ch in LOWERCASE:
            out.append(LOWERCASE[ALPHABET.index(mapping[ALPHABET[LOWERCASE.index(ch)]])])
        else:
            out.append(ch)
    return "".join(out)


def flatness_from_ciphertexts(
    plaintext: str,
    keyset,
    reference: FrequencyTable,
    *,
    mode: IndexMode,
    shift_k: int,
    min_letters: int,
) -> FlatnessReport:
    """Reference flatness report: build both ciphertexts, count them and
    rank-match them against the reference."""
    plain_counts = per_char_counts(plaintext)
    total = sum(plain_counts.values())
    if total == 0:
        raise EmptyText("no letters to count")
    if total < min_letters:
        raise TooShort(f"need at least {min_letters} letters, got {total}")
    wanted = canonical_letters(plaintext)

    def profile(ciphertext: str) -> tuple[FrequencyTable, float]:
        recovered = canonical_letters(rank_match_attack(ciphertext, reference).apply(ciphertext))
        table = FrequencyTable(per_char_counts(ciphertext), total)
        return table, sum(map(eq, recovered, wanted)) / len(wanted)

    shift_table, shift_accuracy = profile(shift_encrypt(plaintext, shift_k))
    cascade_table, cascade_accuracy = profile(encrypt_message(plaintext, keyset, mode))
    return FlatnessReport(
        total_letters=total,
        shift_k=shift_k,
        index_mode=mode,
        plain_table=FrequencyTable(plain_counts, total),
        shift_table=shift_table,
        cascade_table=cascade_table,
        shift_accuracy=shift_accuracy,
        cascade_accuracy=cascade_accuracy,
        shift_chi_squared=chi_squared_distance(shift_table, reference),
        cascade_chi_squared=chi_squared_distance(cascade_table, reference),
    )


def assert_same_flatness(plaintext: str, keyset, reference: FrequencyTable, **options) -> None:
    """flatness_report equals the reference: the same record, renderings and errors."""
    try:
        want = flatness_from_ciphertexts(plaintext, keyset, reference, **options)
    except (EmptyText, TooShort) as error:
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            flatness_report(plaintext, keyset, reference, **options)
        return
    got = flatness_report(plaintext, keyset, reference, **options)
    assert got == want
    assert repr(got) == repr(want)
    assert got.render_text() == want.render_text()
    assert got.render_records() == want.render_records()


class TestPerCharEquivalence:
    @given(tricky_texts)
    @example(TRICKY)
    def test_letter_frequencies(self, text: str):
        counts = per_char_counts(text)
        if not any(counts.values()):
            with pytest.raises(EmptyText):
                letter_frequencies(text)
            return
        table = letter_frequencies(text)
        assert dict(table.counts) == counts
        assert table.total_letters == sum(counts.values())
        assert build_reference_table([text[:7], "", text[7:]]) == table

    @given(tricky_texts, st.integers(min_value=0, max_value=2**32))
    @example(TRICKY, 0)
    def test_substitution_guess_apply(self, text: str, seed: int):
        images = list(ALPHABET)
        random.Random(seed).shuffle(images)
        mapping = dict(zip(ALPHABET, images))
        assert SubstitutionGuess(mapping).apply(text) == per_char_apply(text, mapping)

    def test_substitution_guess_apply_every_code_point(self, every_character: str):
        images = list(ALPHABET)
        random.Random(7).shuffle(images)
        mapping = dict(zip(ALPHABET, images))
        assert SubstitutionGuess(mapping).apply(every_character) == per_char_apply(
            every_character, mapping
        )


class TestLetterFrequencies:
    def test_counts_and_total(self):
        table = letter_frequencies(FREQ_SENTENCE)
        assert table.total_letters == 23
        assert table.counts["A"] == 5
        assert table.frequency("A") == 5 / 23

    def test_dotless_i_is_not_a(self):
        table = letter_frequencies("aldı")
        assert table.counts["I"] == 1
        assert table.counts["A"] == 1

    def test_case_folds_together(self):
        table = letter_frequencies("AaBab")
        assert table.counts["A"] == 3
        assert table.counts["B"] == 2

    def test_every_letter_has_an_entry(self):
        table = letter_frequencies("merhaba")
        assert set(table.counts) == set(ALPHABET)
        assert table.counts["J"] == 0

    def test_empty_text(self):
        with pytest.raises(EmptyText):
            letter_frequencies("")
        with pytest.raises(EmptyText):
            letter_frequencies("123 ?!")

    def test_doubling_keeps_frequencies_exactly(self):
        once = letter_frequencies(FREQ_SENTENCE)
        twice = letter_frequencies(FREQ_SENTENCE + "\n" + FREQ_SENTENCE)
        assert twice.total_letters == 2 * once.total_letters
        assert twice.frequencies == once.frequencies

    @given(lettered_texts)
    def test_frequencies_sum_to_one(self, text: str):
        table = letter_frequencies(text)
        assert sum(table.frequencies.values()) == pytest.approx(1.0, abs=1e-9)

    @given(lettered_texts)
    def test_substitution_permutes_the_count_multiset(self, text: str):
        plain = letter_frequencies(text)
        mixed = letter_frequencies(atbash(text))
        assert sorted(plain.counts.values()) == sorted(mixed.counts.values())


class TestBuildReferenceTable:
    def test_plain_string_is_one_chunk(self, corpus_text: str):
        assert build_reference_table(corpus_text) == build_reference_table([corpus_text])

    def test_chunking_is_invisible(self, corpus_text: str):
        pieces = [corpus_text[i : i + 997] for i in range(0, len(corpus_text), 997)]
        assert build_reference_table(pieces) == build_reference_table(corpus_text)

    def test_corpus_is_large_and_complete(self, reference: FrequencyTable):
        assert reference.total_letters >= 5000
        assert all(reference.counts[letter] > 0 for letter in ALPHABET)

    def test_corpus_top_letter(self, reference: FrequencyTable):
        assert reference.ranked()[0] == "A"

    def test_top_letter_is_stable_across_halves(self, corpus_text: str):
        half = len(corpus_text) // 2
        first = letter_frequencies(corpus_text[:half])
        second = letter_frequencies(corpus_text[half:])
        assert first.ranked()[0] == second.ranked()[0] == "A"


class TestRanking:
    def test_ties_break_in_alphabet_order(self):
        table = letter_frequencies("ba")
        assert table.ranked()[:2] == ["A", "B"]
        assert table.ranked()[2] == "C"

    def test_rank_match_recovers_identity_on_the_corpus(
        self, corpus_text: str, reference: FrequencyTable
    ):
        guess = rank_match_attack(corpus_text, reference)
        assert guess.apply(corpus_text) == corpus_text

    def test_rank_match_inverts_atbash_on_the_corpus(
        self, corpus_text: str, reference: FrequencyTable
    ):
        ciphertext = atbash(corpus_text)
        recovered = rank_match_attack(ciphertext, reference).apply(ciphertext)
        hits = sum(1 for got, want in zip(recovered, corpus_text) if got == want)
        assert hits / len(corpus_text) > 0.95

    def test_apply_keeps_case_and_passthrough(self, reference: FrequencyTable):
        guess = rank_match_attack("aBc!", reference)
        rewritten = guess.apply("aBc!")
        assert rewritten[3] == "!"
        assert rewritten[0] == to_lower_tr(rewritten[0])
        assert rewritten[1] == to_upper_tr(rewritten[1])


class TestChiSquared:
    def test_identical_tables_score_zero(self, reference: FrequencyTable):
        assert chi_squared_distance(reference, reference) == 0.0

    def test_asymmetric(self):
        a = letter_frequencies("AAAB")
        b = letter_frequencies("AABB")
        assert chi_squared_distance(a, b) != chi_squared_distance(b, a)

    def test_zero_expected_is_floored_not_infinite(self):
        observed = letter_frequencies("AB")
        expected = letter_frequencies("A")
        distance = chi_squared_distance(observed, expected)
        assert distance == pytest.approx(0.5**2 / 1e-6 + 0.5**2 / 1.0)


class TestCrackShift:
    def test_recovers_every_shift(self, corpus_text: str, reference: FrequencyTable):
        sample = corpus_text[:800]
        for k in (0, 1, 13, 28):
            guess = crack_shift(shift_encrypt(sample, k), reference)
            assert guess.shift == k
            assert not guess.low_confidence

    def test_distances_cover_all_shifts(self, corpus_text: str, reference: FrequencyTable):
        guess = crack_shift(corpus_text[:500], reference)
        assert len(guess.distances) == 29
        assert guess.distances[guess.shift] == min(guess.distances)

    def test_short_text_is_flagged(self, reference: FrequencyTable):
        guess = crack_shift("Kısa metin", reference, min_letters=100)
        assert guess.low_confidence

    def test_min_letters_is_tunable(self, reference: FrequencyTable):
        guess = crack_shift("Kısa metin", reference, min_letters=5)
        assert not guess.low_confidence

    def test_uniform_text_ties_to_smallest_shift(self, reference: FrequencyTable):
        guess = crack_shift(ALPHABET, reference)
        assert guess.shift == 0
        assert guess.distances == tuple([guess.distances[0]] * 29)

    def test_empty(self, reference: FrequencyTable):
        with pytest.raises(EmptyText):
            crack_shift("?!", reference)


class TestFlatnessReport:
    def test_requires_enough_letters(self, reference: FrequencyTable):
        with pytest.raises(TooShort):
            flatness_report("Az harf", example_keyset(), reference, min_letters=1000)

    def test_cascade_flattens_rank_matching(
        self, corpus_text: str, reference: FrequencyTable
    ):
        report = flatness_report(corpus_text, example_keyset(), reference)
        assert report.total_letters >= 5000
        assert report.shift_k == 3
        assert report.index_mode is IndexMode.ALL_CHARS
        assert report.cascade_accuracy < report.shift_accuracy

    def test_tables_agree_with_direct_counts(
        self, corpus_text: str, reference: FrequencyTable
    ):
        report = flatness_report(corpus_text, example_keyset(), reference)
        assert report.plain_table == letter_frequencies(corpus_text)
        assert report.shift_table == letter_frequencies(shift_encrypt(corpus_text, 3))

    def test_render_text(self, corpus_text: str, reference: FrequencyTable):
        report = flatness_report(corpus_text, example_keyset(), reference)
        text = report.render_text()
        assert "rank-match accuracy" in text
        assert text.count("\n") == 29 + 10

    def test_render_records(self, corpus_text: str, reference: FrequencyTable):
        report = flatness_report(corpus_text, example_keyset(), reference)
        lines = report.render_records().splitlines()
        assert len(lines) == 3 * 29 + 4
        for line in lines[: 3 * 29]:
            name, letter, count, freq = line.split("\t")
            assert name in {"plain", "shift", "cascade"}
            assert letter in ALPHABET
            int(count)
            float(freq)

    def test_letters_only_mode_also_flattens(
        self, corpus_text: str, reference: FrequencyTable
    ):
        report = flatness_report(
            corpus_text, example_keyset(), reference, mode=IndexMode.LETTERS_ONLY
        )
        assert report.index_mode is IndexMode.LETTERS_ONLY
        assert report.cascade_accuracy < report.shift_accuracy


class TestFlatnessFromCounts:
    """flatness_report counts the plaintext per phase; the reference builds
    both ciphertexts. Every field, float and rendering must agree."""

    @given(
        lettered_texts | tricky_texts | st.text(),
        st.sampled_from(IndexMode),
        st.integers(min_value=0, max_value=28),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=12),
    )
    @example("Gazi Üniversitesi, Ankara!", IndexMode.LETTERS_ONLY, 3, 0, 0)
    @example(" aA bB ıI iİ ſ", IndexMode.ALL_CHARS, 28, 1, 1)
    def test_matches_report_from_ciphertexts(
        self, reference: FrequencyTable, text: str, mode: IndexMode, shift_k: int, seed: int,
        min_letters: int,
    ):
        options = dict(mode=mode, shift_k=shift_k, min_letters=min_letters)
        assert_same_flatness(text, generate_keyset(seed), reference, **options)

    @pytest.mark.parametrize("mode", list(IndexMode))
    def test_corpus(self, corpus_text: str, reference: FrequencyTable, mode: IndexMode):
        cases = ((3, example_keyset()), (0, generate_keyset(5)), (28, generate_keyset(6)))
        for shift_k, keyset in cases:
            assert_same_flatness(
                corpus_text, keyset, reference, mode=mode, shift_k=shift_k, min_letters=1000
            )

    @given(
        lettered_texts | tricky_texts,
        st.lists(st.integers(min_value=0, max_value=200), max_size=8),
        st.sampled_from(IndexMode),
    )
    def test_chunks_give_the_report_of_one_string(
        self, reference: FrequencyTable, text: str, cuts: list[int], mode: IndexMode
    ):
        cuts = sorted(min(c, len(text)) for c in cuts)
        chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        options = dict(mode=mode, shift_k=5, min_letters=0)
        try:
            want = flatness_report(text, generate_keyset(3), reference, **options)
        except EmptyText:
            with pytest.raises(EmptyText):
                flatness_report(iter(chunks), generate_keyset(3), reference, **options)
            return
        assert flatness_report(iter(chunks), generate_keyset(3), reference, **options) == want

    @pytest.mark.parametrize("mode", list(IndexMode))
    def test_corpus_in_odd_chunks(self, corpus_text: str, reference: FrequencyTable, mode: IndexMode):
        sizes, cuts = [1, 7, 333, 4097], [0]
        while cuts[-1] < len(corpus_text):
            cuts.append(cuts[-1] + sizes[len(cuts) % len(sizes)])
        chunks = (corpus_text[a:b] for a, b in zip(cuts, cuts[1:]))
        keyset = generate_keyset(11)
        want = flatness_report(corpus_text, keyset, reference, mode=mode)
        got = flatness_report(chunks, keyset, reference, mode=mode)
        assert got == want
        assert got.render_text() == want.render_text()
        assert got.render_records() == want.render_records()

    def test_errors_come_in_order(self, reference: FrequencyTable):
        keyset = example_keyset()
        with pytest.raises(EmptyText):
            flatness_report("123 ?!", keyset, reference, shift_k=99, min_letters=5)
        with pytest.raises(TooShort):
            flatness_report("Az harf", keyset, reference, shift_k=99)
        for k in (-1, 29):
            # The shift is checked before the keyset is used.
            with pytest.raises(ShiftOutOfRange, match=rf"^shift must be in 0\.\.28: {k}$"):
                flatness_report("Az harf", None, reference, shift_k=k, min_letters=1)
