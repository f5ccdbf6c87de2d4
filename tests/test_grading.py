import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordalg import monalg
from wordalg.grading import (
    CERTIFIED,
    NOT_APPLICABLE,
    certify_graded_nilpotence,
    graded_nilpotence_scan,
    is_rotation_primitive,
    longest_ap,
    weight_iterates,
    weight_sum_prefix,
    WeightSumSet,
)
from wordalg.words import (
    MorphicStream,
    NotProlongableError,
    PeriodicStream,
    make_morphism,
    word_weight,
)


def _sumset_from_values(values):
    sums = np.array(sorted(set(values)), dtype=np.int64)
    return WeightSumSet((1,), sums)


# -- weight sums ---------------------------------------------------------------


def test_weight_sum_prefix_examples(xy_stream):
    s = weight_sum_prefix(xy_stream, (1, 2), 5)  # xyyyx
    assert list(s.sums) == [0, 1, 3, 5, 7, 8]
    ones = weight_sum_prefix(xy_stream, (1, 1), 7)
    assert list(ones.sums) == list(range(8))
    two = weight_sum_prefix(PeriodicStream("xy"), (1, 2), 2)
    assert list(two.sums) == [0, 1, 3]


def test_weight_sums_strictly_increasing_with_bounded_gaps(xy_stream):
    s = weight_sum_prefix(xy_stream, (1, 2), 1000)
    gaps = np.diff(s.sums)
    assert (gaps >= 1).all() and (gaps <= 2).all()
    assert s.sums[0] == 0


# -- longest AP ------------------------------------------------------------------


def _brute_longest_ap(values, d):
    values = set(values)
    best = 0
    for t in values:
        length = 1
        while t + length * d in values:
            length += 1
        best = max(best, length)
    return best


def test_longest_ap_singleton():
    s = _sumset_from_values([0])
    for d in range(1, 6):
        assert longest_ap(s, d) == 1


@given(
    values=st.sets(st.integers(0, 400), min_size=1, max_size=120),
    d=st.integers(1, 9),
)
@example(values=set(range(7)), d=2)  # no absent value in either class: 4
@example(values={0, 3, 6, 7, 8, 10}, d=3)  # 0, 3, 6 opens its class: 3
@example(values={0, 2, 5, 7, 9}, d=2)  # 5, 7, 9 closes its class: 3
@settings(max_examples=200, deadline=None)
def test_longest_ap_matches_brute_force(values, d):
    values = values | {0}
    assert longest_ap(_sumset_from_values(values), d) == _brute_longest_ap(values, d)


def test_longest_ap_grows_for_thue_morse_blocks(tm_morphism):
    # blocks xy / yx both have weight 3, so multiples of 3 pile up
    stream = MorphicStream(tm_morphism, "x")
    small = longest_ap(weight_sum_prefix(stream, (1, 2), 1000), 3)
    large = longest_ap(weight_sum_prefix(stream, (1, 2), 10_000), 3)
    assert small >= 1000 // 3 - 2
    assert large >= 10_000 // 3 - 2
    assert large > 5 * small


def test_longest_ap_bounded_for_certified_word(xy_stream):
    at_1e5 = longest_ap(weight_sum_prefix(xy_stream, (1, 2), 100_000), 2)
    at_2e5 = longest_ap(weight_sum_prefix(xy_stream, (1, 2), 200_000), 2)
    assert at_1e5 == at_2e5


def test_longest_ap_stable_for_certified_ternary_word(sub_xyz):
    stream = MorphicStream(sub_xyz, "x")
    small = weight_sum_prefix(stream, (1, 2, 3), 100_000)
    large = weight_sum_prefix(stream, (1, 2, 3), 200_000)
    for d in range(2, 9):
        assert longest_ap(small, d) == longest_ap(large, d)


# -- rotation primitivity ------------------------------------------------------------


def test_rotation_primitive_examples():
    assert is_rotation_primitive((1, 2))
    assert not is_rotation_primitive((2, 2))
    assert not is_rotation_primitive((1, 2, 1, 2))
    with pytest.raises(ValueError):
        is_rotation_primitive(())


def _is_repetition(t):
    q = len(t)
    for period in range(1, q):
        if q % period == 0 and t == t[:period] * (q // period):
            return True
    return False


def test_rotation_primitive_equals_nonrepetition_brute_force():
    for length in range(1, 9):
        for t in itertools.product((1, 2, 3), repeat=length):
            brute = any(t[m:] + t[:m] == t for m in range(1, length))
            assert is_rotation_primitive(t) == (not brute)
            # a tuple fixed by a nontrivial rotation is exactly a proper repetition
            assert brute == _is_repetition(t)


# -- gcd sequences ---------------------------------------------------------------------


def test_gcd_sequence_example_xy(sub_xy):
    assert tuple(itertools.islice(weight_iterates(sub_xy, (1, 2), "xyy"), 3)) == (5, 13, 34)


def test_gcd_sequence_example_xyz_oracle(sub_xyz):
    seq = tuple(itertools.islice(weight_iterates(sub_xyz, (1, 2, 3), "xz"), 2))
    assert seq[0] == 4
    # independent oracle: expand the image and sum letter weights
    oracle = word_weight(sub_xyz.alphabet, sub_xyz.apply("xz"), (1, 2, 3))
    assert seq[1] == oracle == 11
    assert math.gcd(seq[0], seq[1]) == 1


@given(m=st.sampled_from(["xyy", "x", "yx", "xy"]), j=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_gcd_sequence_matches_image_weights(m, j, sub_xy):
    # weight of the j-th iterated image, computed by direct expansion
    seq = tuple(itertools.islice(weight_iterates(sub_xy, (1, 2), m), j + 1))
    assert seq[j] == word_weight(sub_xy.alphabet, sub_xy.iterate(m, j), (1, 2))


def test_gcd_sequence_j0_is_weight(sub_xy):
    assert tuple(itertools.islice(weight_iterates(sub_xy, (1, 2), "yxy"), 1)) == (
        word_weight(sub_xy.alphabet, "yxy", (1, 2)),
    )


# -- certificates -------------------------------------------------------------------------


def test_certify_example_xy(sub_xy):
    cert = certify_graded_nilpotence(sub_xy, "x", (1, 2), u="xyy")
    assert cert.verdict == CERTIFIED
    assert cert.det == 1
    assert cert.gcd_sequence == (5, 13)
    assert cert.gcd_reached_one_at == 1


def test_certify_example_xy_auto_u(sub_xy):
    cert = certify_graded_nilpotence(sub_xy, "x", (1, 2))
    assert cert.verdict == CERTIFIED
    assert cert.u == "xyyy"
    assert cert.u_matches_word is True
    assert cert.gcd_sequence == (7, 18)


def test_certify_example_xyz(sub_xyz):
    explicit = certify_graded_nilpotence(sub_xyz, "x", (1, 2, 3), u="xz")
    auto = certify_graded_nilpotence(sub_xyz, "x", (1, 2, 3))
    assert explicit.verdict == auto.verdict == CERTIFIED
    assert explicit.det == -1
    assert explicit.gcd_sequence == (4, 11)
    assert auto.u == "xyzz"


def test_certify_thue_morse_not_applicable(tm_morphism):
    cert = certify_graded_nilpotence(tm_morphism, "x", (1, 2), u="xyy")
    assert cert.verdict == NOT_APPLICABLE
    assert cert.reason == "det=0"


def test_certify_rejects_equal_weights(sub_xy):
    cert = certify_graded_nilpotence(sub_xy, "x", (2, 2))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.reason == "weights-all-equal"


def test_certify_not_primitive():
    m = make_morphism("xy", x="xx", y="yy")
    cert = certify_graded_nilpotence(m, "x", (1, 2))
    assert cert.verdict == NOT_APPLICABLE
    assert cert.reason == "not-primitive"


def test_certify_not_prolongable():
    m = make_morphism("xy", x="yx", y="xy")
    with pytest.raises(NotProlongableError):
        certify_graded_nilpotence(m, "x", (1, 2))


def test_certificate_record_fields(sub_xy):
    record = certify_graded_nilpotence(sub_xy, "x", (1, 2), u="xyy").to_record()
    for key in ("verdict", "reason", "det", "u", "gcd_sequence", "weights", "morphism"):
        assert key in record
    assert record["gcd_sequence"] == "5,13"
    assert record["det"] == "1"


# -- the scan ---------------------------------------------------------------------------------


def test_scan_certified_word_no_flags(xy_stream):
    report = graded_nilpotence_scan(xy_stream, (1, 2), 6, (10_000, 100_000))
    assert report.flagged == ()
    for d, lengths in report.table.items():
        assert lengths[0] == lengths[-1]


def test_scan_flags_thue_morse_blocks(tm_morphism):
    stream = MorphicStream(tm_morphism, "x")
    report = graded_nilpotence_scan(stream, (1, 2), 6, (1000, 10_000))
    assert 3 in report.flagged
    assert report.table[3][0] >= 1000 // 3 - 2
    assert report.table[3][1] >= 10_000 // 3 - 2


def test_scan_flags_unit_weights(xy_stream):
    report = graded_nilpotence_scan(xy_stream, (1, 1), 3, (100, 1000))
    assert 1 in report.flagged  # the sum set is all of 0..n


@pytest.mark.parametrize("weights, horizons", [((1, 2), (0, 1, 17, 1000, 1000)), ((2, 3), (10, 5_000, 20_000))])
def test_scan_reads_each_horizon_as_a_head_of_one_build(tm_morphism, weights, horizons):
    stream = MorphicStream(tm_morphism, "x")
    report = graded_nilpotence_scan(stream, weights, 5, horizons)
    for d in range(1, 6):
        separate = tuple(longest_ap(weight_sum_prefix(stream, weights, h), d) for h in horizons)
        assert report.table[d] == separate
    assert np.array_equal(report.sums.sums, weight_sum_prefix(stream, weights, horizons[-1]).sums)


def test_scan_validates_horizons(xy_stream):
    with pytest.raises(ValueError):
        graded_nilpotence_scan(xy_stream, (1, 2), 4, (1000, 100))
    # a negative horizon would read the sums from the end of the largest one
    for horizons in ((-5, 10), (-10, -5), (-1,)):
        with pytest.raises(ValueError, match="nonnegative"):
            graded_nilpotence_scan(xy_stream, (1, 2), 3, horizons)


# -- homogeneous nilpotence equivalence --------------------------------------------------------
#
# a product of L weight-D monomials occurs in the word iff the weight-sum set
# contains an AP t, t+D, ..., t+LD; cross-checked against a direct walk over
# letter positions plus an actual product in the monomial algebra view.


def _block_walk_exists(text, weights_by_letter, d, L):
    n = len(text)
    for start in range(n):
        pos = start
        blocks = []
        for _ in range(L):
            acc = 0
            block_start = pos
            while pos < n and acc < d:
                acc += weights_by_letter[text[pos]]
                pos += 1
            if acc != d:
                blocks = None
                break
            blocks.append(text[block_start:pos])
        if blocks is not None:
            return blocks
    return None


def test_ap_matches_block_products(xy_stream):
    horizon = 10_000
    text = xy_stream.prefix(horizon)
    weights_by_letter = {"x": 1, "y": 2}
    sumset = weight_sum_prefix(xy_stream, (1, 2), horizon)
    view = monalg.WordFactorView(xy_stream, horizon)
    for d in range(2, 7):
        for L in range(1, 7):
            blocks = _block_walk_exists(text, weights_by_letter, d, L)
            # interior APs only: ignore progressions cut off by the horizon edge
            has_ap = longest_ap(sumset, d) >= L + 1
            if blocks is not None:
                assert has_ap
                product = monalg.NcPolynomial.one(view)
                for b in blocks:
                    product = product * monalg.NcPolynomial.monomial(view, b)
                assert not product.is_zero()
            else:
                # the walk is exhaustive, so no AP of that length may start
                # far from the right edge
                assert longest_ap(
                    weight_sum_prefix(xy_stream, (1, 2), horizon - 20 * d * (L + 1)), d
                ) < L + 1
