"""Acceptance gate for the package.

Five criteria, one printed PASS/FAIL line each:

1. recorded known-answer vectors (exact match, under 1 second),
2. frozen outputs of the independent table-walk interpreter in
   tests/oracle_table_walk.py, which the cascade must match exactly,
3. randomized property suites (at least 1000 cases each, under 30 s),
4. the frequency-attack experiment on the bundled corpus (under 10 s),
5. keyspace arithmetic as an exact big-integer equality.

One vector in the paper's recorded set is an erratum, kept in
PAPER_ERRATA: the three-place shift of "Gazi" is recorded as "İÇCL"
(dotted İ). The shift is a rotation modulo 29 over ALPHABET, where G is at
index 7, so G+3 is dotless I at index 10 (İ is at 11) and the shift gives
"IÇCL". No rotation k in 0..28 gives "İÇCL"; ordering İ before I gives
"İÇCK". The recorded string appears only if dotless ı is dropped, but that
28-letter alphabet turns the atbash vector "Bugün" into "ydsçk", not the
recorded "ydsçj" (n mirrors to J only over 29 letters; "Z"+3 = "C" holds
in both alphabets and pins nothing). So the recorded set cannot all hold
under one alphabet, and the shift string is the vector that breaks it.
Criterion 1 asserts the corrected "IÇCL" and also that the recorded
"İÇCL" is reachable by no shift, so a change that made it reachable (say,
dropping ı from the rotation) fails the gate.
"""

from __future__ import annotations

import random
import time

import pytest

import oracle_table_walk as oracle
from dgcipher import (
    ALPHABET,
    LOWERCASE,
    Alphabet,
    Group,
    IndexMode,
    PaddingInSameCellAsNeighbor,
    PlayfairSpec,
    SubstitutionAlphabet,
    atbash,
    build_reference_table,
    composite_table,
    crack_shift,
    decrypt_message,
    encrypt_message,
    example_keyset,
    flatness_report,
    generate_keyset,
    keyspace_size,
    letter_frequencies,
    letter_index,
    otp_keygen,
    parse_keyset,
    playfair_build,
    playfair_decrypt,
    playfair_encrypt,
    polybius_decode,
    polybius_encode,
    rail_fence_decrypt,
    rail_fence_encrypt,
    scytale_decrypt,
    scytale_encrypt,
    serialize_keyset,
    shift_decrypt,
    shift_encrypt,
    to_lower_tr,
    to_upper_tr,
    vernam_decrypt,
    vernam_encrypt,
    vigenere_decrypt,
    vigenere_encrypt,
)
from dgcipher.text_model import canonical_letters

LETTER_CHARS = ALPHABET + LOWERCASE
MESSAGE_CHARS = LETTER_CHARS + " .,!?0123456789\n"

RAIL_SENTENCE = "Gazi Üniversitesi Teknik Eğitim Fakültesi"
RAIL_FENCED = "GZÜİESTSTKİEİİFKLEİAİNVRİEİENKĞTMAÜTS"
FREQ_SENTENCE = "Akif kasaba gitti ve et aldı."

# Recorded vectors the 29-letter alphabet cannot produce:
# check name -> (recorded value, corrected value, reason).
PAPER_ERRATA = {
    "shift 'Gazi' by 3": (
        "İÇCL",
        "IÇCL",
        "G is letter 7 of 29, so G+3 is dotless I (10), not dotted İ (11)",
    ),
}

# Frozen table-walk outputs, recorded from tests/oracle_table_walk.py
# before the package was built.
FROZEN_VECTORS = [
    ("Mikroişlemci", "Frpfgrçaaınr", "Frpfgrçaaınr"),
    ("Gazi Üniversitesi", "Rğhr Üorttujcvajc", "Rğhr Sgceaförztör"),
    ("AA", "VĞ", "VĞ"),
    ("A A", "V V", "V Ğ"),
]

# Suite name -> (randomized cases run, seconds taken); filled by the
# criterion 3 tests and checked once in the summary test.
C3_SUITES: dict[str, tuple[int, float]] = {}


def report(capsys: pytest.CaptureFixture[str], tag: str, failures: list[str]) -> None:
    """Print the criterion's single PASS/FAIL line, then assert."""
    with capsys.disabled():
        print(f"{'PASS' if not failures else 'FAIL'}: {tag}")
    assert not failures, "; ".join(failures)


def canon_letters(message: str) -> str:
    return canonical_letters(message)


def random_message(rng: random.Random, chars: str = MESSAGE_CHARS, limit: int = 80) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randrange(limit)))


class TestCriterion1:
    def test_recorded_vectors(self, capsys: pytest.CaptureFixture[str]):
        keyset = example_keyset()
        failures: list[str] = []

        def expect(name: str, got: object, want: object) -> None:
            if got != want:
                failures.append(f"{name}: got {got!r}, want {want!r}")

        start = time.perf_counter()
        group1, group2 = keyset.composite_rows
        expect("cascade 'A' via group 1", group1[letter_index("A")], "V")
        expect("cascade 'A' via group 2", group2[letter_index("A")], "Ğ")
        expect("atbash 'Bugün' folded", to_lower_tr(atbash("Bugün")), "ydsçj")
        shift_name = "shift 'Gazi' by 3"
        recorded, corrected, _ = PAPER_ERRATA[shift_name]
        expect(shift_name, to_upper_tr(shift_encrypt("Gazi", 3)), corrected)
        reaching = [k for k in range(29) if to_upper_tr(shift_encrypt("Gazi", k)) == recorded]
        if reaching:
            failures.append(f"erratum {recorded!r} is reachable by shift k={reaching}")
        expect("polybius 'Gazi'", polybius_encode("Gazi"), "22-11-55-26")
        expect("rail fence, 2 rails", rail_fence_encrypt(RAIL_SENTENCE, 2), RAIL_FENCED)
        letters = canon_letters(RAIL_SENTENCE)
        expect("rail fence decrypt", rail_fence_decrypt(RAIL_FENCED, 2), letters)
        expect("rail fence 19/18 split", (RAIL_FENCED[:19], RAIL_FENCED[19:]),
               (letters[0::2], letters[1::2]))
        expect("vigenere 'TaarruzDokuzda'/'Kale'",
               vigenere_encrypt("TaarruzDokuzda", "Kale", Alphabet.ENGLISH26).upper(),
               "DALVBUKHYKFDNA")
        expect("playfair 'ODTÜ'", playfair_encrypt("ODTÜ", PlayfairSpec("kriptografi")), "ACPV")
        expect("playfair decrypt 'AC'", playfair_decrypt("AC", PlayfairSpec("kriptografi")), "OD")
        freq_a = letter_frequencies(FREQ_SENTENCE).frequency("A")
        if abs(freq_a - 5 / 23) > 1e-12:
            failures.append(f"frequency of A: got {freq_a!r}, want 5/23")
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"vector suite took {elapsed:.2f}s, budget is 1s")
        report(
            capsys,
            "criterion 1, recorded known-answer vectors (1 paper erratum: "
            f"{shift_name} recorded {recorded}, 29-letter rotation gives {corrected})",
            failures,
        )


class TestCriterion2:
    def test_frozen_oracle_fixtures(self, capsys: pytest.CaptureFixture[str]):
        keyset = example_keyset()
        failures: list[str] = []
        for plain, want_all, want_letters in FROZEN_VECTORS:
            for mode, want in (
                (IndexMode.ALL_CHARS, want_all),
                (IndexMode.LETTERS_ONLY, want_letters),
            ):
                got = encrypt_message(plain, keyset, mode)
                if got != want:
                    failures.append(f"{plain!r} {mode.value}: got {got!r}, want {want!r}")
                live = oracle.encrypt(plain, letters_only=mode is IndexMode.LETTERS_ONLY)
                if live != want:
                    failures.append(
                        f"oracle drifted on {plain!r} {mode.value}: {live!r} != {want!r}"
                    )
        rng = random.Random(1453)
        for _ in range(200):
            text = random_message(rng)
            for letters_only, mode in ((False, IndexMode.ALL_CHARS), (True, IndexMode.LETTERS_ONLY)):
                got = encrypt_message(text, keyset, mode)
                want = oracle.encrypt(text, letters_only=letters_only)
                if got != want:
                    failures.append(f"oracle mismatch on {text!r} {mode.value}")
        report(capsys, "criterion 2, independent table-walk oracle agreement", failures)


class TestCriterion3:
    def test_cascade_roundtrip(self):
        rng = random.Random(101)
        keysets = [generate_keyset(rng.randrange(2**64)) for _ in range(25)]
        start = time.perf_counter()
        cases = 0
        for _ in range(500):
            message = random_message(rng)
            keyset = rng.choice(keysets)
            for mode in IndexMode:
                assert decrypt_message(encrypt_message(message, keyset, mode), keyset, mode) == message
                cases += 1
        C3_SUITES["cascade roundtrip"] = (cases, time.perf_counter() - start)

    def test_composite_equivalence(self):
        rng = random.Random(202)
        start = time.perf_counter()
        cases = 0
        for _ in range(100):
            keyset = generate_keyset(rng.randrange(2**64))
            final = keyset.final.letters
            for group, stages in zip(Group, (keyset.group1, keyset.group2)):
                table = composite_table(group, keyset)
                for letter in ALPHABET:
                    # The pipeline letter by letter: three stages, then the
                    # final row's cyclic predecessor.
                    image = letter
                    for stage in stages:
                        image = stage.letters[letter_index(image)]
                    assert table.letters[letter_index(letter)] == final[final.index(image) - 1]
                    cases += 1
        C3_SUITES["composite equivalence"] = (cases, time.perf_counter() - start)

    def test_bundled_keyset_rows_are_bijections(self):
        start = time.perf_counter()
        rows = list(example_keyset().rows())
        assert len(rows) == 7
        for _, row in rows:
            revalidated = SubstitutionAlphabet(row.letters)
            assert sorted(revalidated.letters) == sorted(ALPHABET)
        # deterministic fixed check; counted as its 7 rows
        C3_SUITES["bundled rows bijection"] = (len(rows), time.perf_counter() - start)

    def test_classical_roundtrips(self):
        rng = random.Random(303)
        start = time.perf_counter()
        cases = 0
        for _ in range(150):
            message = random_message(rng, limit=60)
            letters = canon_letters(message)

            k = rng.randrange(29)
            assert shift_decrypt(shift_encrypt(message, k), k) == message
            assert atbash(atbash(message)) == message

            key = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 9)))
            turkish = vigenere_encrypt(message, key, Alphabet.TURKISH29)
            assert vigenere_decrypt(turkish, key, Alphabet.TURKISH29) == message
            ascii_message = "".join(
                rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz ,.")
                for _ in range(rng.randrange(60))
            )
            ascii_key = "".join(rng.choice("KALEMDER") for _ in range(rng.randrange(1, 9)))
            english = vigenere_encrypt(ascii_message, ascii_key)
            assert vigenere_decrypt(english, ascii_key) == ascii_message

            spec = PlayfairSpec(rng.choice(["kriptografi", "Gazi", "anahtar"]), rng.choice("MKB"))
            expected = _playfair_stream(message, spec)
            if expected is None:
                with pytest.raises(PaddingInSameCellAsNeighbor):
                    playfair_encrypt(message, spec)
            else:
                assert playfair_decrypt(playfair_encrypt(message, spec), spec) == expected

            # digits and dashes in a message would collide with the code format
            polyb_message = random_message(rng, LETTER_CHARS + " .,!?", limit=60)
            polyb_expected = to_upper_tr(polyb_message)
            assert polybius_decode(polybius_encode(polyb_message)) == polyb_expected

            rails = rng.randrange(1, 10)
            assert rail_fence_decrypt(rail_fence_encrypt(message, rails), rails) == letters
            circumference = rng.randrange(1, 10)
            assert scytale_decrypt(scytale_encrypt(message, circumference), circumference) == letters

            otp = otp_keygen(len(message) + 2, rng.randrange(2**32))
            assert vernam_decrypt(vernam_encrypt(message, otp), otp) == message
            cases += 8
        C3_SUITES["classical roundtrips"] = (cases, time.perf_counter() - start)

    def test_keyfile_roundtrip_and_keygen_determinism(self):
        rng = random.Random(404)
        start = time.perf_counter()
        cases = 0
        for _ in range(1000):
            keyset = generate_keyset(rng.randrange(2**64))
            assert parse_keyset(serialize_keyset(keyset)) == keyset
            cases += 1
        for _ in range(100):
            seed = rng.randrange(2**64)
            assert generate_keyset(seed) == generate_keyset(seed)
            cases += 1
        C3_SUITES["keyfile roundtrip + keygen determinism"] = (cases, time.perf_counter() - start)

    def test_summary(self, capsys: pytest.CaptureFixture[str]):
        failures: list[str] = []
        expected = {
            "cascade roundtrip": 1000,
            "composite equivalence": 1000,
            "bundled rows bijection": 7,
            "classical roundtrips": 1000,
            "keyfile roundtrip + keygen determinism": 1000,
        }
        for name, floor in expected.items():
            if name not in C3_SUITES:
                failures.append(f"suite did not run: {name}")
            elif C3_SUITES[name][0] < floor:
                failures.append(f"{name}: only {C3_SUITES[name][0]} cases, need {floor}")
        total = sum(seconds for _, seconds in C3_SUITES.values())
        if total >= 30.0:
            failures.append(f"property suites took {total:.1f}s, budget is 30s")
        report(capsys, "criterion 3, randomized property suites", failures)


def _playfair_stream(message: str, spec: PlayfairSpec) -> str | None:
    """Digram stream a decrypt must return, or None if padding conflicts."""
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
        if table.same_cell(a, spec.padding):
            return None
        stream += [a, spec.padding]
        i += 1
    return "".join(table.representative_at(*table.position_of(l)) for l in stream)


class TestCriterion4:
    def test_frequency_attack_experiment(
        self, capsys: pytest.CaptureFixture[str], corpus_text: str
    ):
        failures: list[str] = []
        start = time.perf_counter()
        reference = build_reference_table(corpus_text)
        if reference.total_letters < 5000:
            failures.append(f"corpus has {reference.total_letters} letters, need 5000")
        recovered = 0
        for k in range(29):
            guess = crack_shift(shift_encrypt(corpus_text, k), reference)
            if guess.shift == k and not guess.low_confidence:
                recovered += 1
        if recovered != 29:
            failures.append(f"crack_shift recovered {recovered}/29 shifts")
        report_obj = flatness_report(corpus_text, example_keyset(), reference)
        if not report_obj.cascade_accuracy < report_obj.shift_accuracy:
            failures.append(
                "rank matching was not degraded: cascade "
                f"{report_obj.cascade_accuracy:.4f} vs shift {report_obj.shift_accuracy:.4f}"
            )
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"experiment took {elapsed:.1f}s, budget is 10s")
        report(capsys, "criterion 4, frequency-attack experiment", failures)


class TestCriterion5:
    def test_keyspace_arithmetic(self, capsys: pytest.CaptureFixture[str]):
        failures: list[str] = []
        factorial = 1
        for n in range(2, 30):
            factorial *= n
        if keyspace_size() != factorial**7:
            failures.append("keyspace size is not the 7th power of 29!")
        if not isinstance(keyspace_size(), int):
            failures.append("keyspace size is not an exact integer")
        report(capsys, "criterion 5, keyspace arithmetic", failures)
