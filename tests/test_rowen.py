import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordalg import cli, rowen
from wordalg.rowen import (
    AB_TO_WORD,
    THUE_MORSE,
    BandMatrix,
    IndexExceedsTruncationError,
    MarginTooSmallError,
    ThueMorseSequence,
    _band,
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
from wordalg.words import FactorIndex, PeriodicStream, covering_codes, decode, encode


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


def test_bits_reject_negative_lengths():
    # a negative length would read from the end of the cached bits
    tm = ThueMorseSequence()
    assert tm.bits(4096).size == 4096
    for read in (lambda: tm.bits(-3), lambda: tm.word_prefix(-1)):
        with pytest.raises(ValueError, match="nonnegative"):
            read()
    assert tm.bits(0).size == 0 and tm.word_prefix(0) == ""


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


def _rand_band(rng, n, k):
    return BandMatrix(n, k, [rng.randint(-3, 3) for _ in range(n - k)])


def test_band_matrix_roundtrip_and_entry():
    m = BandMatrix(4, 1, [1, 0, 2])
    assert list(m.diags) == [1]
    assert m.diags[1].tolist() == [1, 0, 2]  # entries (1, 2), (2, 3), (3, 4)
    assert m.nnz() == 2
    assert m.max_abs() == 2
    assert BandMatrix(4, 2, [0, 0]).diags == {}
    assert BandMatrix(4, 2, [0, 0]) == BandMatrix.zero(4)
    for offset, vec in ((4, []), (-1, [1] * 5), (1, [1, 1])):
        with pytest.raises(ValueError):
            BandMatrix(4, offset, vec)


def test_band_matrix_mul_matches_dense():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 8)
        a = _rand_band(rng, n, rng.randrange(n))
        b = _rand_band(rng, n, rng.randrange(n))
        product = a * b
        assert len(product.diags) <= 1
        assert np.array_equal(_dense(product), _dense(a) @ _dense(b))
        same = _rand_band(rng, n, next(iter(a.diags), 0))
        assert np.array_equal(_dense(a + same), _dense(a) + _dense(same))
        assert a + BandMatrix.zero(n) == a == BandMatrix.zero(n) + a


def test_band_matrix_pow_matches_dense():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = _rand_band(rng, n, rng.randrange(n))
        for k in range(5):
            assert np.array_equal(_dense(m**k), np.linalg.matrix_power(_dense(m), k))


def test_band_matrix_overflow_guard():
    big = BandMatrix(3, 0, [2**32, 1, 1])
    with pytest.raises(OverflowError):
        big * big


def test_band_matrix_product_bound_counts_the_diagonals():
    # one diagonal times one diagonal: each entry of the product is a single
    # product, so the bound is max|a| * max|b| with no count of diagonal pairs
    single = BandMatrix(4, 1, [2**31] * 3)
    assert (single * single).diags[2].tolist() == [2**62] * 2
    wider = BandMatrix(4, 1, [2**32, 1, 1])
    with pytest.raises(OverflowError):
        single * wider  # 2^31 * 2^32 reaches 2^63


def test_band_matrix_sum_bound_and_diagonals():
    m = BandMatrix(2, 0, [2**62, 1])
    with pytest.raises(OverflowError):
        m + m
    assert (m + BandMatrix.zero(2)).diags[0].tolist() == [2**62, 1]
    with pytest.raises(ValueError, match="no one-diagonal sum"):
        BandMatrix(3, 0, [1, 1, 1]) + BandMatrix(3, 1, [1, 1])
    with pytest.raises(ValueError, match="equal size"):
        BandMatrix(3, 0, [1, 1, 1]) * BandMatrix(2, 0, [1, 1])
    with pytest.raises(ValueError, match="equal size"):
        m * 2  # no scalar multiplication: coefficients enter through the builder


# -- generators ---------------------------------------------------------------------


def test_generators_small_truncation():
    a, b = build_generators(4)
    assert a.diags[1].tolist() == [1, 0, 0]
    assert b.diags[1].tolist() == [0, 1, 1]
    shift = a + b
    assert shift.diags[1].tolist() == [1, 1, 1]


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
    assert evaluate_word("", 512) == BandMatrix(512, 0, [1] * 512)


def test_evaluate_word_margin():
    with pytest.raises(MarginTooSmallError):
        evaluate_word("yx", 60)
    with pytest.raises(ValueError, match="word letters must be in"):
        evaluate_word("ab", 512)
    with pytest.raises(ValueError, match="word letters must be in"):
        _band({"yx": 1, "xb": 1}, 8)  # every word's letters are checked


def test_evaluate_word_matches_generator_products():
    n = 256
    a, b = build_generators(n)
    by_letter = {"y": a, "x": b}
    rng = random.Random(6)
    for _ in range(25):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(1, 6)))
        mat = by_letter[word[0]]
        for ch in word[1:]:
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
        diags = evaluate_word(word, n).diags
        assert coefficient(word, t) == (int(diags[len(word)][t - 1]) if diags else 0)
    with pytest.raises(ValueError, match="word letters must be in"):
        coefficient("ab", 1)


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
    nonzero = FactorIndex([encode(THUE_MORSE.word_prefix(n - 1), "xy")], ("x", "y"))
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
    monkeypatch.setattr(rowen, "covering_codes", lambda stream, k: [encode("yxx", "xy")])
    assert correspondence_scan(2, 512).mismatches == ("xy", "yy")
    assert not vanishing_matches_factor("xy", evaluate_word("xy", 512))


# -- nilpotency ------------------------------------------------------------------------------


def test_nilpotency_of_bare_generators():
    for side in ("a", "b"):
        assert nilpotency_index(1, side) == 3


def test_nilpotency_mixed_element():
    assert nilpotency_index({"a": 1, "b": 1}, "a") == 3


def test_nilpotency_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        nilpotency_index({"a": 1, "ab": 1}, "a")
    with pytest.raises(ValueError):
        nilpotency_index({"c": 1}, "a")
    with pytest.raises(ValueError):
        nilpotency_index({}, "a")


def test_nilpotency_scaling_invariance():
    plain = nilpotency_index({"ab": 1, "ba": 1}, "b")
    assert nilpotency_index({"ab": Fraction(1, 2), "ba": Fraction(1, 2)}, "b") == plain


@pytest.mark.parametrize("coeff", [0.5, 1.0, "1/2", None])
def test_nilpotency_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        nilpotency_index({"a": 1, "b": coeff}, "a")


def test_nilpotency_index_past_the_prefix_cap_raises(monkeypatch):
    # on 8 bits the generator's power 3 vanishes, but 3 > 2^0: the search
    # moves on to 32 bits, where 3 <= 2^2
    monkeypatch.setattr(rowen, "NILPOTENCY_PREFIX_CAP", 31)
    with pytest.raises(IndexExceedsTruncationError, match="more than 31 Thue-Morse bits"):
        nilpotency_index(1, "a")
    monkeypatch.setattr(rowen, "NILPOTENCY_PREFIX_CAP", 32)
    assert nilpotency_index(1, "a") == 3


def test_nilpotency_index_reads_a_factor_that_first_occurs_late():
    # this factor of length 18 first occurs at bits 96..113; as element * b its
    # first power is nonzero, and its square would be a square of period 18,
    # which the Thue-Morse word does not hold
    word = "yyxxyxyyxxyyxyxxyx"
    assert THUE_MORSE.word_prefix(113).find(word) == 95
    element = {word[:-1].translate(str.maketrans("yx", "ab")): 1}
    assert nilpotency_index(element, "b") == 2 == _split_index(element, "b")


def test_prefix_of_eight_blocks_holds_every_short_factor():
    # the first 8 * 2^j letters are phi^(j+3)(y), which holds phi^j(ac) for
    # every 2-factor ac: the covering words of the factors of length <= 2^j
    for j in range(11):
        prefix = FactorIndex([encode(THUE_MORSE.word_prefix(8 << j), "xy")], ("x", "y"))
        codes = covering_codes(tm_word_stream(), 1 << j)
        covering = [decode(word, "xy") for word in codes]
        assert all(word in prefix for word in covering)
        exact = FactorIndex(codes, ("x", "y"))
        for length in range(min(1 << j, prefix.packed_limit) + 1):
            assert prefix.of_length(length) == exact.of_length(length)
        # half the prefix, phi^(j+2)(y) = phi^j(yxxy), lacks phi^j(yy)
        half = THUE_MORSE.word_prefix(4 << j)
        assert covering[-1] not in half


def _split_index(element, side):
    """Least k such that no Thue-Morse factor of length k*s splits into k words
    of element * generator with nonzero coefficients (brute force over the
    exact factors)."""
    support = {(w + side).translate(AB_TO_WORD) for w, c in element.items() if c}
    stride = len(next(iter(element))) + 1
    k = 1
    while True:
        length = k * stride
        factors = FactorIndex(covering_codes(tm_word_stream(), length), ("x", "y")).of_length(length)
        if not any(all(f[i : i + stride] in support for i in range(0, length, stride)) for f in factors):
            return k
        k += 1


@given(
    degree=st.integers(0, 4),
    side=st.sampled_from("ab"),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_nilpotency_index_matches_truncated_and_brute_force(degree, side, data, truncated_nilpotency_index):
    element = data.draw(
        st.dictionaries(
            st.text(alphabet="ab", min_size=degree, max_size=degree),
            st.integers(-5, 5),
            min_size=1,
        )
    )
    exact = nilpotency_index(element, side)
    if any(element.values()):
        assert exact == _split_index(element, side)
    else:
        assert exact == 1
    for n in (2048, 4096):
        assert truncated_nilpotency_index(element, side, n) == exact


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
    # the generator products of the words, each on superdiagonal `degree`,
    # summed with their coefficients by numpy
    by_letter = dict(zip("ab", build_generators(n)))
    expected = np.zeros((n, n), dtype=np.int64)
    for word, c in element.items():
        mat = np.eye(n, dtype=np.int64)
        for ch in word:
            mat = mat @ _dense(by_letter[ch])
        expected += c * mat
    band = _band({w.translate(AB_TO_WORD): c for w, c in _element_words(element).items()}, n)
    assert set(band.diags) <= {degree}
    assert np.array_equal(_dense(band), expected)


def test_element_operator_bounds_the_coefficient_sum():
    # every entry sums c times 0 or 1, so sum |c| < 2^63 is the exact bound
    below = _band({"y": 2**62, "x": -(2**62 - 1)}, 8)
    assert below.max_abs() == 2**62
    with pytest.raises(OverflowError):
        _band({"y": 2**62, "x": -(2**62)}, 8)
    with pytest.raises(OverflowError):
        nilpotency_index({"ab": 2**62, "ba": 2**62}, "a")


# -- growth -----------------------------------------------------------------------------------


def test_growth_profile_tm():
    profile = growth_profile((64, 128, 256))
    assert profile.quadratic
    assert all(3.5 <= r <= 4.5 for r in profile.ratios)
    assert profile.cumulative[0] > 64 * 64  # comfortably quadratic
    assert profile.lower_constant > 0


def test_growth_profile_first_counts():
    profile = growth_profile((1, 2))
    assert profile.cumulative[0] == 3  # empty factor + x + y
    assert profile.cumulative[1] == 7  # plus the four length-2 factors


def test_growth_profile_periodic_control():
    profile = growth_profile((64, 128, 256), stream=PeriodicStream("xy"))
    assert not profile.quadratic
    assert all(r < 3.5 for r in profile.ratios)


def test_growth_profile_builds_no_prefix():
    stream = tm_word_stream()
    before = stream._length
    growth_profile((64, 128), stream=stream)
    assert stream._length == before
    # the periodic word stores no letters at all, and the profile reads none of them
    periodic = PeriodicStream("xy")
    with mock.patch.object(periodic, "codes", side_effect=AssertionError("read a range")):
        growth_profile((64, 128), stream=periodic)
    assert "_codes" not in vars(periodic)


def test_correspondence_scan_does_not_depend_on_the_horizon(capsys):
    # the scan takes no horizon; the rowen record's horizon only sizes the bits check
    assert correspondence_scan(4, 512).all_agree
    scans = set()
    for horizon in (0, 5, 10_000):
        assert cli.run(["rowen", "--N", "512", "--maxlen", "4", "--horizon", str(horizon)]) == 0
        lines = capsys.readouterr().out.splitlines()
        scans.add(tuple(line for line in lines if line.startswith("correspondence_")))
    assert len(scans) == 1
