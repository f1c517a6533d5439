from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgcipher import (
    ALPHABET,
    LOWERCASE,
    BadHeader,
    CascadeKeySet,
    DuplicateLetter,
    MissingRow,
    NonCanonicalSymbol,
    SeedOutOfRange,
    SubstitutionAlphabet,
    WrongLength,
    example_keyset,
    generate_keyset,
    keyspace_size,
    otp_keygen,
    parse_keyset,
    serialize_keyset,
)
from dgcipher.keyset import RNG_NAME, ROW_LABELS, SplitMix64

EXAMPLE_TEXT = (
    "CASCADE-KEYS v1\n"
    "G1S1: BSYKADMRŞÇOZENCGHIFİLĞÖVPTUÜJ\n"
    "G1S2: AZCGHJNBÖÇLŞĞÜİPIKTYREVDFSUOM\n"
    "G1S3: PIVKZCHNGSUDAFİREÜJĞŞLTYBÖÇOM\n"
    "G2S1: SAŞZRÖÇEİJKTYONPBMHÜDVLUIGCFĞ\n"
    "G2S2: ŞVHÖÇDAJLİREPIZCFNĞÜKTYBGSUOM\n"
    "G2S3: ZŞNIDYSMHÇVRLĞCÜPKGBUÖJFATİOE\n"
    "FINAL: DÖJASZBNÜLCRŞEÇYĞFITHGİOKVMPU\n"
)

# `dgcipher keygen --seed 424242`: a seed regenerates its keyset forever.
SEED_424242_TEXT = (
    "CASCADE-KEYS v1\n"
    "# rng: splitmix64\n"
    "G1S1: GMĞHLİFBSÜNPEYCÇZOVJŞKARÖTDIU\n"
    "G1S2: EGHKTOYŞRVÜMCUJIÇZİPNLDĞBSAFÖ\n"
    "G1S3: TBLCNPIÖZADMÇRİUFYEJHĞKSŞGOVÜ\n"
    "G2S1: GLZJAUTVÇPÖIMDCNİRBKYOŞFHÜSEĞ\n"
    "G2S2: UCSPBŞHIOTYEAİLMFĞGRDÇÜJNVKZÖ\n"
    "G2S3: TVJĞCÖHİRGYAÇKBNLUMISFÜZEPOŞD\n"
    "FINAL: PİSHÜFBNUITKVOŞZÖRMDĞALÇEJCGY\n"
)


class TestSubstitutionAlphabet:
    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            SubstitutionAlphabet(ALPHABET[:-1])
        with pytest.raises(WrongLength):
            SubstitutionAlphabet(ALPHABET + "A")

    def test_duplicate_letter(self):
        with pytest.raises(DuplicateLetter):
            SubstitutionAlphabet("A" * 29)
        with pytest.raises(DuplicateLetter):
            SubstitutionAlphabet(ALPHABET[:-1] + "A")

    def test_foreign_symbol(self):
        with pytest.raises(NonCanonicalSymbol):
            SubstitutionAlphabet(ALPHABET[:-1] + "Q")
        with pytest.raises(NonCanonicalSymbol):
            SubstitutionAlphabet(LOWERCASE)


class TestExampleKeyset:
    def test_rows_are_permutations(self, keyset: CascadeKeySet):
        for _, row in keyset.rows():
            assert sorted(row.letters) == sorted(ALPHABET)

    def test_row_labels_in_order(self, keyset: CascadeKeySet):
        assert [label for label, _ in keyset.rows()] == list(ROW_LABELS)

    def test_known_rows(self, keyset: CascadeKeySet):
        assert keyset.final.letters == "DÖJASZBNÜLCRŞEÇYĞFITHGİOKVMPU"
        assert keyset.group2[0].letters == "SAŞZRÖÇEİJKTYONPBMHÜDVLUIGCFĞ"

    def test_instances_equal(self):
        assert example_keyset() == example_keyset()


class TestSplitMix64:
    def test_stream_is_deterministic(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(2**64 - 1)
        for _ in range(100):
            assert 0 <= rng.next_u64() < 2**64

    def test_below_respects_bound(self):
        rng = SplitMix64(7)
        draws = [rng.below(29) for _ in range(2000)]
        assert min(draws) == 0
        assert max(draws) == 28


class TestGenerateKeyset:
    def test_deterministic(self):
        assert generate_keyset(42) == generate_keyset(42)

    def test_seeded_keyset_is_frozen(self):
        assert serialize_keyset(generate_keyset(424242), rng_name=RNG_NAME) == SEED_424242_TEXT

    def test_seed_changes_keys(self):
        assert generate_keyset(1) != generate_keyset(2)

    def test_rows_valid(self):
        ks = generate_keyset(987654321)
        for _, row in ks.rows():
            assert sorted(row.letters) == sorted(ALPHABET)

    def test_rows_differ_within_keyset(self):
        ks = generate_keyset(11)
        letters = [row.letters for _, row in ks.rows()]
        assert len(set(letters)) == 7

    def test_seed_range(self):
        with pytest.raises(SeedOutOfRange):
            generate_keyset(-1)
        with pytest.raises(SeedOutOfRange):
            generate_keyset(2**64)
        generate_keyset(2**64 - 1)
        with pytest.raises(SeedOutOfRange):
            otp_keygen(1, -1)
        with pytest.raises(SeedOutOfRange):
            otp_keygen(1, 2**64)

    def test_otp_keygen_same_stream_family(self):
        key = otp_keygen(64, seed=5)
        assert len(key) == 64
        assert set(key) <= set(ALPHABET)
        assert key == otp_keygen(64, seed=5)
        assert key != otp_keygen(64, seed=6)


class TestSerialization:
    def test_example_serializes_to_known_text(self, keyset: CascadeKeySet):
        assert serialize_keyset(keyset) == EXAMPLE_TEXT

    def test_serialization_is_byte_stable(self):
        ks = generate_keyset(3)
        assert serialize_keyset(ks) == serialize_keyset(ks)
        assert serialize_keyset(ks).endswith("\n")
        assert "\r" not in serialize_keyset(ks)

    def test_rng_comment(self, keyset: CascadeKeySet):
        text = serialize_keyset(keyset, rng_name="splitmix64")
        lines = text.splitlines()
        assert lines[0] == "CASCADE-KEYS v1"
        assert lines[1] == "# rng: splitmix64"
        assert parse_keyset(text) == keyset

    def test_parse_roundtrip(self, keyset: CascadeKeySet):
        assert parse_keyset(serialize_keyset(keyset)) == keyset

    def test_parse_accepts_spaced_letters(self, keyset: CascadeKeySet):
        spaced = "\n".join(
            line if not line.startswith(("G", "F"))
            else line.split(": ")[0] + ": " + " ".join(line.split(": ")[1])
            for line in EXAMPLE_TEXT.splitlines()
        ) + "\n"
        assert parse_keyset(spaced) == keyset
        # Any run of spaces between letters is accepted, not just one.
        irregular = EXAMPLE_TEXT.replace(": ", ":   ").replace("Ç", "  Ç ").replace("M", "M   ")
        assert parse_keyset(irregular) == keyset

    def test_parse_rejects_tabs_inside_a_row(self):
        # A tab is kept as a character of the row, so the row is too long.
        with pytest.raises(WrongLength, match="G1S1"):
            parse_keyset(EXAMPLE_TEXT.replace("BSY", "B\tSY"))

    def test_parse_skips_blank_and_comment_lines(self, keyset: CascadeKeySet):
        lines = EXAMPLE_TEXT.splitlines()
        noisy = "\n".join([lines[0], "", "# note"] + lines[1:]) + "\n"
        assert parse_keyset(noisy) == keyset

    def test_missing_header(self):
        with pytest.raises(BadHeader):
            parse_keyset("")
        with pytest.raises(BadHeader):
            parse_keyset("CASCADE-KEYS v2\n")
        with pytest.raises(BadHeader):
            parse_keyset(EXAMPLE_TEXT.split("\n", 1)[1])

    def test_trailing_content_rejected(self):
        with pytest.raises(BadHeader):
            parse_keyset(EXAMPLE_TEXT + "EXTRA: ABC\n")

    def test_rows_out_of_order(self):
        lines = EXAMPLE_TEXT.splitlines()
        swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n"
        with pytest.raises(MissingRow):
            parse_keyset(swapped)

    def test_truncated(self):
        with pytest.raises(MissingRow):
            parse_keyset("\n".join(EXAMPLE_TEXT.splitlines()[:-1]) + "\n")

    def test_row_errors_name_the_row(self):
        bad = EXAMPLE_TEXT.replace(
            "G2S3: ZŞNIDYSMHÇVRLĞCÜPKGBUÖJFATİOE",
            "G2S3: ZŞNIDYSMHÇVRLĞCÜPKGBUÖJFATİOZ",
        )
        with pytest.raises(DuplicateLetter, match="G2S3"):
            parse_keyset(bad)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_for_generated_keysets(self, seed: int):
        ks = generate_keyset(seed)
        assert parse_keyset(serialize_keyset(ks)) == ks


class TestKeyspace:
    def test_matches_independent_factorial(self):
        fact = 1
        for n in range(2, 30):
            fact *= n
        assert keyspace_size() == fact**7

    def test_math_factorial_agrees(self):
        assert keyspace_size() == math.factorial(29) ** 7
