import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordalg import cli, rowen
from wordalg.rowen import (
    THUE_MORSE,
    BandMatrix,
    IndexExceedsTruncationError,
    MarginTooSmallError,
    ThueMorseSequence,
    _element_operator,
    _element_words,
    build_generators,
    coefficient,
    correspondence_scan,
    evaluate_word,
    growth_profile,
    nilpotency_index,
    thue_morse_bit,
    tm_word_stream,
    vanishing_matches_factor,
)
from wordalg.words import FactorIndex, PeriodicStream


# -- bits ---------------------------------------------------------------------


def test_first_sixteen_bits():
    assert [thue_morse_bit(i) for i in range(1, 17)] == [
        1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1,
    ]


def test_bit_requires_positive_index():
    with pytest.raises(ValueError):
        thue_morse_bit(0)


def test_bit_oracle_matches_cache():
    tm = ThueMorseSequence()
    bits = tm.bits(4000)
    assert all(int(bits[i - 1]) == thue_morse_bit(i) for i in range(1, 4001))


def test_bits_match_substitution_word():
    tm = ThueMorseSequence()
    n = 100_000
    assert tm.word_prefix(n) == tm_word_stream().prefix(n)


def test_bits_are_uint8_and_diagonals_int64():
    """The bit cache is one byte per bit; every diagonal built from it is
    int64 and matches the popcount oracle."""
    n = 128  # above any word length plus the default margin
    assert ThueMorseSequence().bits(n).dtype == np.uint8
    for gen, letter in zip(build_generators(n), "yx"):
        diag = gen.diags[1]
        assert diag.dtype == np.int64
        assert diag.tolist() == [coefficient(letter, t) for t in range(1, n)]
    prefix = THUE_MORSE.word_prefix(n)
    for word in (prefix[:5], prefix[9:16], "xyyx"):
        diag = evaluate_word(word, n).diags[len(word)]
        assert diag.dtype == np.int64
        assert diag.tolist() == [coefficient(word, t) for t in range(1, n - len(word) + 1)]


def test_word_prefix_display():
    assert ThueMorseSequence().word_prefix(16) == "yxxyxyyxxyyxyxxy"


# -- band matrices ----------------------------------------------------------------


def _dense(mat: BandMatrix) -> np.ndarray:
    out = np.zeros((mat.size, mat.size), dtype=np.int64)
    for k, vec in mat.diags.items():
        for i, v in enumerate(vec):
            out[i, i + k] = v
    return out


def test_band_matrix_roundtrip_and_entry():
    m = BandMatrix(4, {1: [1, 0, 2]})
    assert m.entry(1, 2) == 1
    assert m.entry(2, 3) == 0
    assert m.entry(3, 4) == 2
    assert m.entry(1, 1) == 0
    assert m.nnz() == 2


def test_band_matrix_mul_matches_dense():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 8)
        def rand_band():
            return BandMatrix(
                n,
                {
                    k: [rng.randint(-3, 3) for _ in range(n - k)]
                    for k in rng.sample(range(n), rng.randint(0, n))
                },
            )
        a, b = rand_band(), rand_band()
        assert np.array_equal(_dense(a * b), _dense(a) @ _dense(b))
        assert np.array_equal(_dense(a + b), _dense(a) + _dense(b))


def test_band_matrix_pow_matches_dense():
    m = BandMatrix(6, {0: [1] * 6, 1: [1, 0, 1, 1, 0]})
    dense = _dense(m)
    for k in range(5):
        assert np.array_equal(_dense(m**k), np.linalg.matrix_power(dense, k))


def test_band_matrix_overflow_guard():
    big = BandMatrix(3, {0: [2**32, 1, 1]})
    with pytest.raises(OverflowError):
        big * big


def test_band_matrix_product_bound_counts_the_diagonals():
    # entry (1, 4) of the square sums four products of 2^31 - 1
    m = BandMatrix(8, {k: [2**31 - 1] * (8 - k) for k in range(4)})
    with pytest.raises(OverflowError):
        m * m
    # one diagonal of 2^31 squares exactly, below 2^63
    single = BandMatrix(4, {1: [2**31] * 3})
    assert (single * single).entry(1, 3) == 2**62


def test_band_matrix_sum_and_scaling_bounds():
    m = BandMatrix(2, {0: [2**62, 1]})
    with pytest.raises(OverflowError):
        m.scaled(4)
    with pytest.raises(OverflowError):
        m + m
    assert (m.scaled(1) + BandMatrix.zero(2)).entry(1, 1) == 2**62


# -- generators ---------------------------------------------------------------------


def test_generators_small_truncation():
    a, b = build_generators(4)
    assert list(a.diagonal(1)) == [1, 0, 0]
    assert list(b.diagonal(1)) == [0, 1, 1]
    shift = a + b
    assert list(shift.diagonal(1)) == [1, 1, 1]


def test_shift_nilpotency_is_the_truncation():
    for n in (8, 32):
        a, b = build_generators(n)
        shift = a + b
        assert not (shift ** (n - 1)).is_zero()
        assert (shift**n).is_zero()


def test_generator_products_live_on_one_superdiagonal():
    a, b = build_generators(64)
    word = a * b * b * a
    assert set(word.diags) <= {4}
    assert word.max_abs() <= 1


# -- word evaluation -----------------------------------------------------------------


def test_evaluate_word_examples():
    assert evaluate_word("yyy", 512).is_zero()
    assert not evaluate_word("yx", 512).is_zero()
    assert evaluate_word("", 512) == BandMatrix.identity(512)


def test_evaluate_word_margin():
    with pytest.raises(MarginTooSmallError):
        evaluate_word("yx", 60)
    with pytest.raises(ValueError):
        evaluate_word("ab", 512)


def test_evaluate_word_matches_generator_products():
    n = 256
    a, b = build_generators(n)
    by_letter = {"y": a, "x": b}
    rng = random.Random(6)
    for _ in range(25):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(1, 6)))
        mat = BandMatrix.identity(n)
        for ch in word:
            mat = mat * by_letter[ch]
        assert evaluate_word(word, n) == mat


@given(u=st.text(alphabet="xy", min_size=1, max_size=5), v=st.text(alphabet="xy", min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_evaluate_word_multiplicative(u, v):
    n = 256
    assert evaluate_word(u + v, n) == evaluate_word(u, n) * evaluate_word(v, n)


def test_coefficient_examples():
    assert coefficient("y", 1) == 1
    assert coefficient("yy", 2) == 0
    assert coefficient("yx", 1) == 1


def test_coefficient_equals_matrix_entry():
    rng = random.Random(7)
    n = 512
    for _ in range(60):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(1, 8)))
        t = rng.randint(1, 100)
        assert coefficient(word, t) == evaluate_word(word, n).entry(t, t + len(word))


# -- the vanishing / factor correspondence ----------------------------------------------


def test_vanishing_matches_factor_examples():
    for word in ("yxx", "yyy", "y"):
        assert vanishing_matches_factor(word, evaluate_word(word, 1024))


def test_correspondence_scan_small():
    report = correspondence_scan(6, 512)
    assert report.checked == 2 + 4 + 8 + 16 + 32 + 64
    assert report.all_agree


def test_correspondence_scan_margin():
    with pytest.raises(MarginTooSmallError):
        correspondence_scan(12, 64)


def test_correspondence_scan_lengths_are_packed():
    for max_len in (0, 63):
        with pytest.raises(ValueError, match=f"max_len must be between 1 and 62, got {max_len}"):
            correspondence_scan(max_len, 4096)
    assert correspondence_scan(62, 4096).checked == 2**63 - 2


def _tm_factors(length):
    """Naive slice set of a prefix long enough to hold every factor up to length 8."""
    text = THUE_MORSE.word_prefix(4096)
    return {text[i : i + length] for i in range(len(text) - length + 1)}


@given(max_len=st.integers(1, 7), data=st.data())
@settings(max_examples=60, deadline=None)
def test_correspondence_scan_matches_word_by_word_evaluation(max_len, data):
    n = data.draw(st.integers(max_len + 1, 80))
    # the scan's nonzero words: the windows of the first n - 1 bits
    nonzero = FactorIndex(THUE_MORSE.word_prefix(n - 1), ("x", "y"))
    vanishing_factor = None
    for length in range(1, max_len + 1):
        zero = set()
        for letters in itertools.product("xy", repeat=length):
            word = "".join(letters)
            is_zero = evaluate_word(word, n, margin=0).is_zero()
            assert (word in nonzero.of_length(length)) == (not is_zero)
            if is_zero:
                zero.add(word)
        if vanishing_factor is None and zero & _tm_factors(length):
            vanishing_factor = min(zero & _tm_factors(length))
    if vanishing_factor is None:
        report = correspondence_scan(max_len, n, margin=0)
        assert report.mismatches == ()
        assert report.checked == 2 ** (max_len + 1) - 2
    else:
        with pytest.raises(MarginTooSmallError, match=f"^{vanishing_factor} is a factor"):
            correspondence_scan(max_len, n, margin=0)


def test_a_nonzero_word_that_is_no_factor_is_a_mismatch(monkeypatch):
    # with too few covering words, xy and yy are nonzero but not "factors"
    monkeypatch.setattr(rowen, "covering_words", lambda stream, k: ["yxx"])
    assert correspondence_scan(2, 512).mismatches == ("xy", "yy")
    assert not vanishing_matches_factor("xy", evaluate_word("xy", 512))


# -- nilpotency ------------------------------------------------------------------------------


def test_nilpotency_of_bare_generators():
    for side in ("a", "b"):
        result = nilpotency_index(1, side, 512)
        assert result.index == 3
        assert result.stable


def test_nilpotency_mixed_element():
    result = nilpotency_index({"a": 1, "b": 1}, "a", 512)
    assert result.index == 3  # frozen: stable at 512 and 1024
    assert result.stable


def test_nilpotency_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        nilpotency_index({"a": 1, "ab": 1}, "a", 512)
    with pytest.raises(ValueError):
        nilpotency_index({"c": 1}, "a", 512)
    with pytest.raises(ValueError):
        nilpotency_index({}, "a", 512)


def test_nilpotency_scaling_invariance():
    from fractions import Fraction

    plain = nilpotency_index({"ab": 1, "ba": 1}, "b", 512)
    scaled = nilpotency_index({"ab": Fraction(1, 2), "ba": Fraction(1, 2)}, "b", 512)
    assert plain.index == scaled.index


def test_nilpotency_index_exceeds_truncation():
    # the full shift is not nilpotent at any index independent of the truncation,
    # so the search must bail out instead of reporting a spurious index
    with pytest.raises(IndexExceedsTruncationError):
        nilpotency_index({"a": 1, "b": 1}, "a", 128, tm=_AllOnes())


def test_nilpotency_index_checks_the_band_at_the_first_power():
    # (abba)a maps to yxxyy, a Thue-Morse factor, so the first power is nonzero
    # on the infinite word; at truncation 4 its band of 5 is cut off entirely
    with pytest.raises(IndexExceedsTruncationError, match="k=1"):
        nilpotency_index({"abba": 1}, "a", 4, margin=0)


class _AllOnes(ThueMorseSequence):
    def bits(self, n):
        return np.ones(n, dtype=np.int64)


@given(
    degree=st.integers(0, 4),
    n=st.integers(2, 40),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_element_operator_matches_generator_products(degree, n, data):
    element = data.draw(
        st.dictionaries(
            st.text(alphabet="ab", min_size=degree, max_size=degree),
            st.integers(-(2**40), 2**40).filter(bool),
            min_size=1,
        )
    )
    by_letter = dict(zip("ab", build_generators(n)))
    expected = BandMatrix.zero(n)
    for word, c in element.items():
        mat = BandMatrix.identity(n)
        for ch in word:
            mat = mat * by_letter[ch]
        expected = expected + mat.scaled(c)
    assert _element_operator(_element_words(element), n, THUE_MORSE) == expected


def test_element_operator_bounds_the_coefficient_sum():
    # every entry sums c times 0 or 1, so sum |c| < 2^63 is the exact bound
    below = _element_operator({"a": 2**62, "b": -(2**62 - 1)}, 8, THUE_MORSE)
    assert below.max_abs() == 2**62
    with pytest.raises(OverflowError):
        _element_operator({"a": 2**62, "b": -(2**62)}, 8, THUE_MORSE)
    with pytest.raises(OverflowError):
        nilpotency_index({"ab": 2**62, "ba": 2**62}, "a", 128)


# -- growth -----------------------------------------------------------------------------------


def test_growth_profile_tm():
    profile = growth_profile((64, 128, 256), 100_000)
    assert profile.quadratic
    assert all(3.5 <= r <= 4.5 for r in profile.ratios)
    assert profile.cumulative[0] > 64 * 64  # comfortably quadratic
    assert profile.lower_constant > 0


def test_growth_profile_first_counts():
    profile = growth_profile((1, 2), 10_000)
    assert profile.cumulative[0] == 3  # empty factor + x + y
    assert profile.cumulative[1] == 7  # plus the four length-2 factors


def test_growth_profile_periodic_control():
    profile = growth_profile((64, 128, 256), 100_000, stream=PeriodicStream("xy"))
    assert not profile.quadratic
    assert all(r < 3.5 for r in profile.ratios)


def test_growth_profile_validates_horizon():
    with pytest.raises(ValueError):
        growth_profile((64,), 100)


def test_growth_profile_builds_no_prefix():
    for stream in (tm_word_stream(), PeriodicStream("xy")):
        before = stream._length
        growth_profile((64, 128), 100_000, stream=stream)
        assert stream._length == before


def test_correspondence_scan_does_not_depend_on_the_horizon(capsys):
    # the scan takes no horizon; the rowen record's horizon only sizes the bits check
    assert correspondence_scan(4, 512).all_agree
    scans = set()
    for horizon in (0, 5, 10_000):
        assert cli.run(["rowen", "--N", "512", "--maxlen", "4", "--horizon", str(horizon)]) == 0
        lines = capsys.readouterr().out.splitlines()
        scans.add(tuple(line for line in lines if line.startswith("correspondence_")))
    assert len(scans) == 1
