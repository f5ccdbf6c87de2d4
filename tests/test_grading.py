import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordalg import grading, interleave, monalg
from wordalg.grading import (
    CERTIFIED,
    NOT_APPLICABLE,
    certify_graded_nilpotence,
    covering_sums,
    graded_nilpotence_scan,
    is_ap_supremum,
    is_rotation_primitive,
    longest_ap,
    weight_iterates,
    weight_sum_prefix,
    WeightSumSet,
)
from wordalg.words import (
    PIECE_SIZE,
    MorphicStream,
    NotProlongableError,
    PeriodicStream,
    encode,
    is_primitive,
    is_prolongable,
    make_morphism,
    parse_morphism_spec,
    word_weight,
)

MORPHISMS = Path(__file__).resolve().parent.parent / "morphisms"
BUNDLED_SPECS = ["sub_xy.morph", "sub_xyz.morph", "thue_morse.morph"]


def _spec_stream(text):
    """The fixed point of a morphism spec on its first letter, and the spec's weights."""
    m, weights = parse_morphism_spec(text)
    return MorphicStream(m, m.alphabet.letters[0]), weights


def _bundled_stream(name):
    return _spec_stream((MORPHISMS / name).read_text(encoding="utf-8"))


def _sumset_from_values(values):
    return WeightSumSet(sum(1 << v for v in set(values)))


# -- weight sums ---------------------------------------------------------------


def test_weight_sum_prefix_examples(xy_stream):
    s = weight_sum_prefix(xy_stream, (1, 2), 5)  # xyyyx
    assert s.bits == 0b110101011 and s.max_value == 8  # 0, 1, 3, 5, 7, 8
    ones = weight_sum_prefix(xy_stream, (1, 1), 7)
    assert ones.bits == 0xFF and ones.max_value == 7
    two = weight_sum_prefix(PeriodicStream("xy"), (1, 2), 2)
    assert two.bits == 0b1011 and two.max_value == 3


def test_weight_sums_strictly_increasing_with_bounded_gaps(xy_stream):
    s = weight_sum_prefix(xy_stream, (1, 2), 1000)
    members = [v for v in range(s.max_value + 1) if s.bits >> v & 1]
    assert len(members) == 1001 and members[0] == 0
    gaps = np.diff(members)
    assert (gaps >= 1).all() and (gaps <= 2).all()


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


def _residue_class_longest_ap(sumset, d):
    """The longest run of members in any residue class r mod D, read class by
    class over a one-byte mask: an oracle for ``longest_ap`` that shares no code with it."""
    packed = np.frombuffer(sumset.bits.to_bytes(sumset.max_value // 8 + 1, "little"), dtype=np.uint8)
    absent = np.unpackbits(packed, count=sumset.max_value + 1, bitorder="little") == 0
    best = 0
    for r in range(min(d, absent.size)):
        cells = absent[r::d]
        gaps = np.flatnonzero(cells)
        if gaps.size == 0:
            best = max(best, cells.size)
            continue
        inner = int(np.diff(gaps).max(initial=1)) - 1
        best = max(best, int(gaps[0]), cells.size - 1 - int(gaps[-1]), inner)
    return best


@given(
    values=st.sets(st.integers(0, 2000), min_size=1, max_size=600),
    d=st.integers(1, 2100),
)
@example(values={0}, d=1)  # a singleton: 1
@example(values={0, 5}, d=9)  # a difference above max_value: 1
@example(values=set(range(0, 301, 3)) | {1, 2}, d=3)  # one class of 101 terms
@settings(max_examples=300, deadline=None)
def test_longest_ap_matches_the_residue_class_loop(values, d):
    sumset = _sumset_from_values(values | {0})
    assert longest_ap(sumset, d) == _residue_class_longest_ap(sumset, d)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_longest_ap_of_an_interval_lands_on_each_side_of_a_power_of_two(k, d):
    # weights 1 give the full interval 0..n, whose longest AP has n // d + 1 terms
    for length in (2**k - 1, 2**k, 2**k + 1):
        for n in ((length - 1) * d, length * d - 1):
            sumset = weight_sum_prefix(PeriodicStream("x"), (1,), n)
            assert longest_ap(sumset, d) == _residue_class_longest_ap(sumset, d) == length


# the fixed points the weight-sum oracle reads; x -> xy, y -> y is not
# primitive, so the scan settles no degree and cuts every horizon between
# the smallest and the largest from the largest
ORACLE_STREAMS = {
    **{name: lambda name=name: _bundled_stream(name)[0] for name in BUNDLED_SPECS},
    "x -> xy, y -> y": lambda: MorphicStream(make_morphism("xy", x="xy", y="y"), "x"),
}


def _image_lengths(stream, limit):
    """|f^j(s)| for the stream's fixed point on s and j = 0, 1, ..., 15, up
    to the first past ``limit``."""
    images, word, lengths = stream.morphism.images, stream.start, []
    while len(lengths) < 16 and (not lengths or lengths[-1] <= limit):
        lengths.append(len(word))
        word = "".join(images[c] for c in word)[: limit + 2]
    return lengths


@st.composite
def weighted_prefixes(draw):
    """A stream of ``ORACLE_STREAMS``, weights 1-5 or a far-apart pair (1
    and 64), and a length of 0, 1, one beside an iterate |f^j(s)| (where the
    composed sets end a whole block) or one beside the end of a piece of the
    mask that the scan's covering words take, PIECE_SIZE bytes of images."""
    name = draw(st.sampled_from(sorted(ORACLE_STREAMS)))
    stream = ORACLE_STREAMS[name]()
    size = stream.alphabet.size
    weights = draw(st.one_of(
        st.tuples(*[st.integers(1, 5)] * size),
        st.permutations([1, 64] + [1] * (size - 2)).map(tuple),
    ))
    step = PIECE_SIZE // max(weights)
    ends = [*_image_lengths(stream, 3 * step), *(k * step for k in (1, 2))]
    n = draw(st.sampled_from([0, 1, *(max(end + delta, 0) for end in ends for delta in (-1, 0, 1))]))
    return name, weights, n


def _running_sum_bits(text, weight_of):
    """The weight sums of ``text`` as one int, summed letter by letter in pure Python."""
    running = 0
    mask = bytearray(sum(weight_of[c] for c in text) // 8 + 1)
    mask[0] = 1
    for c in text:
        running += weight_of[c]
        mask[running >> 3] |= 1 << (running & 7)
    return int.from_bytes(mask, "little")


@given(text=st.text(alphabet="xyz", max_size=20), weights=st.tuples(*[st.integers(1, 50)] * 3))
@example(text="xx", weights=(1, 40, 3))  # y outweighs the whole text: its image is cut to 3 bytes
@example(text="", weights=(2, 3, 4))
@settings(max_examples=100, deadline=None)
def test_text_sums_match_running_sums_when_a_letter_outweighs_the_text(text, weights):
    weight_of = dict(zip("xyz", weights))
    assert grading._code_sums(encode(text, "xyz"), weights).bits == _running_sum_bits(text, weight_of)


@given(case=weighted_prefixes())
@example(case=("thue_morse.morph", (1, 64), PIECE_SIZE // 64 + 1))
@example(case=("x -> xy, y -> y", (5, 1), PIECE_SIZE // 5))
@example(case=("sub_xyz.morph", (1, 1, 1), 0))
@settings(max_examples=60, deadline=None)
def test_bits_holds_exactly_the_weight_sums(case):
    name, weights, n = case
    stream = ORACLE_STREAMS[name]()
    text = stream.prefix(n)
    weight_of = dict(zip(stream.alphabet.letters, weights))
    sumset = weight_sum_prefix(stream, weights, n)
    assert sumset.bits == _running_sum_bits(text, weight_of)
    assert sumset.max_value == sum(weight_of[c] for c in text)
    # every set the scan cuts from a longer one is the set of its own horizon
    cuts = []

    def recording_head(sums, stream, weights, h, head=grading._head):
        cuts.append((h, head(sums, stream, weights, h)))
        return cuts[-1][1]

    horizons = (n // 3, n // 2, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grading, "_head", recording_head)
        graded_nilpotence_scan(ORACLE_STREAMS[name](), weights, 4, horizons)
    assert {h for h, _ in cuts} <= set(horizons)
    for h, cut in cuts:
        assert cut.bits == weight_sum_prefix(stream, weights, h).bits


@st.composite
def fixed_point_prefixes(draw):
    """A morphism prolongable on x, its weights and a prefix length.  The
    morphisms are drawn images over 2-4 letters (primitive or not), the
    non-primitive x -> xyz, y -> yz, z -> z and x -> xy, y -> y, images
    with a mortal letter m -> (empty), and the long image x -> x y^k; the
    length is 0, 1, one beside an iterate |f^j(x)|, or any up to 3000."""
    family = draw(st.sampled_from(["drawn", "x -> xyz", "x -> xy", "mortal", "long"]))
    if family == "drawn":
        letters = "xyzw"[: draw(st.integers(2, 4))]
        images = {c: draw(st.text(alphabet=letters, max_size=4)) for c in letters}
        images["x"] = "x" + draw(st.text(alphabet=letters, min_size=1, max_size=4))
    elif family == "x -> xyz":
        letters, images = "xyz", {"x": "xyz", "y": "yz", "z": "z"}
    elif family == "x -> xy":
        letters, images = "xy", {"x": "xy", "y": "y"}
    elif family == "mortal":
        letters = "xym"
        images = {"x": "x" + draw(st.text(alphabet=letters, min_size=1, max_size=4)),
                  "y": draw(st.text(alphabet=letters, max_size=4)), "m": ""}
    else:
        k = draw(st.integers(1, 400))
        letters, images = "xy", {"x": "x" + "y" * k, "y": draw(st.sampled_from(["y", "yx", "y" * (k + 1) + "x"]))}
    m = make_morphism(letters, **images)
    assume(is_prolongable(m, "x"))
    weights = tuple(draw(st.one_of(st.integers(1, 5), st.integers(1, 1000))) for _ in letters)
    ends = _image_lengths(MorphicStream(m, "x"), 3000)
    n = draw(st.one_of(
        st.sampled_from([0, 1, *(max(end + delta, 0) for end in ends for delta in (-1, 0, 1))]),
        st.integers(0, 3000),
    ))
    return m, weights, n


@given(case=fixed_point_prefixes())
@example(case=(make_morphism("xyz", x="xyz", y="yz", z="z"), (1, 2, 3), 1000))
@example(case=(make_morphism("xy", x="xy", y="y"), (2, 1), 3000))
@example(case=(make_morphism("xy", x="x" + "y" * 300, y="y"), (1, 2), 2999))  # 9 whole periods y^300
@example(case=(make_morphism("xy", x="x" + "y" * 300, y="y" * 301 + "x"), (1, 2), 1000))
@example(case=(make_morphism("xym", x="xym", y="ymx", m=""), (3, 1, 7), 2048))
@example(case=(make_morphism("xym", x="xmy", y="mym", m=""), (3, 1, 7), 100))  # y -> y up to mortal letters
# the blocks ya, ybb, y, y, ... repeat only from the third
@example(case=(make_morphism("xyab", x="xya", y="y", a="bb", b=""), (1, 2, 3, 4), 20))
# the period b c spans two blocks, after the one-block pre-period a
@example(case=(make_morphism("xabc", x="xa", a="b", b="c", c="b"), (1, 2, 3, 5), 20))
@settings(max_examples=150, deadline=None)
def test_composed_sums_match_the_code_sums_and_running_sums(case):
    m, weights, n = case
    stream = MorphicStream(m, "x")
    composed = weight_sum_prefix(stream, weights, n)
    assert stream._length == len(m.images["x"])  # the sets are composed from no letter
    text = stream.prefix(n)
    assert composed.bits == grading._code_sums(stream.codes(0, n), weights).bits
    assert composed.bits == _running_sum_bits(text, dict(zip(m.alphabet.letters, weights)))


@pytest.mark.parametrize("stream", [MorphicStream(make_morphism("xy", x="xy", y="yx"), "x"), PeriodicStream("xy")],
                         ids=["composed", "mask"])
def test_a_total_weight_past_int64_is_refused_before_any_set(stream):
    # a set with a bit at 2^62 does not fit in memory, so a set built before
    # the check would raise MemoryError, not OverflowError
    with pytest.raises(OverflowError, match="total weight 9223372036854775808 of 2 letters exceeds int64"):
        weight_sum_prefix(stream, (2**62, 2**62), 2)


@pytest.mark.parametrize("name", ["thue_morse.morph", "sub_xyz.morph"])
def test_longest_ap_matches_the_residue_class_loop_on_bundled_heads(name):
    stream, weights = _bundled_stream(name)
    sumset = weight_sum_prefix(stream, weights, 100_000)
    for d in range(1, 49):
        assert longest_ap(sumset, d) == _residue_class_longest_ap(sumset, d)


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


@st.composite
def primitive_prolongable(draw):
    """A primitive morphism on 2-3 letters, prolongable on x, with weights 1-4."""
    letters = "xyz"[: draw(st.integers(2, 3))]
    images = {c: draw(st.text(alphabet=letters, min_size=1, max_size=6)) for c in letters}
    images["x"] = "x" + draw(st.text(alphabet=letters, min_size=1, max_size=5))
    m = make_morphism(letters, **images)
    assume(is_primitive(m))
    return m, tuple(draw(st.integers(1, 4)) for _ in letters)


@given(drawn=primitive_prolongable())
@settings(max_examples=200, deadline=None)
def test_certify_bounds_hold_on_drawn_primitive_morphisms(drawn):
    m, weights = drawn
    n = m.alphabet.size
    cert = certify_graded_nilpotence(m, "x", weights)
    terms = list(itertools.islice(weight_iterates(m, weights, cert.u or m.images["x"]), 3 * n + 10))
    # Cayley-Hamilton: every later term is an integer combination of the first n
    assert math.gcd(*terms[:n]) == math.gcd(*terms)
    if cert.u is None:  # decided before u: not applicable for det or weights
        return
    pos = MorphicStream(m, "x").prefix(10_000).find("x", 1)
    if pos != -1:
        assert cert.u == MorphicStream(m, "x").prefix(pos)
    assert cert.gcd_sequence == tuple(terms[: len(cert.gcd_sequence)])
    g = math.gcd(*terms)
    assert (cert.verdict, cert.reason) == ((CERTIFIED, "") if g == 1 else (NOT_APPLICABLE, f"gcd={g}"))


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


@st.composite
def scan_cases(draw):
    """A primitive morphism over 2-3 letters prolongable on x, with weights
    1-4, d_max <= 8 and two or three small increasing horizons."""
    letters = "xyz"[: draw(st.integers(2, 3))]
    images = {c: draw(st.text(alphabet=letters, min_size=1, max_size=4)) for c in letters}
    images["x"] = "x" + draw(st.text(alphabet=letters, min_size=1, max_size=3))
    m = make_morphism(letters, **images)
    assume(is_primitive(m))
    weights = tuple(draw(st.integers(1, 4)) for _ in letters)
    horizons = tuple(sorted(draw(st.lists(st.integers(0, 400), min_size=2, max_size=3))))
    return MorphicStream(m, "x"), weights, draw(st.integers(1, 8)), horizons


@given(case=scan_cases())
@example(case=(*_bundled_stream("sub_xy.morph"), 8, (100, 1000)))
@example(case=(*_bundled_stream("sub_xyz.morph"), 8, (100, 1000, 3000)))
@example(case=(*_bundled_stream("thue_morse.morph"), 8, (100, 1000)))
# the alphabet line is not in sorted order: y weighs 1 and x weighs 2
@example(case=(*_spec_stream("y x\nx -> xy\ny -> yyx\nweights: 1 2\n"), 8, (50, 500)))
@example(case=(PeriodicStream("xyy"), (1, 2), 8, (10, 100, 1000)))
# covering_words rejects these two, so every degree reads every horizon
@example(case=(MorphicStream(make_morphism("xy", x="xy", y="y"), "x"), (1, 2), 8, (50, 500)))
@example(case=(interleave.tilde_stream(), (1, 2, 1, 2), 8, (100, 1000)))
@settings(max_examples=100, deadline=None)
def test_scan_matches_a_longest_ap_per_horizon(case):
    stream, weights, d_max, horizons = case
    report = graded_nilpotence_scan(stream, weights, d_max, horizons)
    for d in range(1, d_max + 1):
        assert report.table[d] == tuple(longest_ap(weight_sum_prefix(stream, weights, h), d) for h in horizons)


def _certified_binary_morphisms():
    """Every morphism on x, y prolongable on x with images of at most three
    letters, with weights 1-3, that certify accepts."""
    words = ["".join(p) for n in (1, 2, 3) for p in itertools.product("xy", repeat=n)]
    cases = []
    for x_image, y_image in itertools.product(words[:6], words):
        m = make_morphism("xy", x="x" + x_image, y=y_image)
        for weights in itertools.product((1, 2, 3), repeat=2):
            if is_primitive(m) and certify_graded_nilpotence(m, "x", weights).certified:
                cases.append((m, weights))
    return cases


@given(drawn=st.sampled_from(_certified_binary_morphisms()), d_max=st.integers(1, 60),
       horizons=st.lists(st.integers(10, 5000), min_size=2, max_size=2, unique=True).map(sorted))
# degrees 54, 110, 114, 161, 179 and 199 reach their suprema between the
# horizons; 89, 123, 152 and 178 have not reached theirs at 1e4, and the
# span of 144's length there, 11,664 letters, is past 1e4
@example(drawn=parse_morphism_spec((MORPHISMS / "sub_xy.morph").read_text(encoding="utf-8")), d_max=200,
         horizons=(1000, 10_000))
@example(drawn=parse_morphism_spec((MORPHISMS / "sub_xyz.morph").read_text(encoding="utf-8")), d_max=200,
         horizons=(1000, 10_000))
@settings(max_examples=40, deadline=None)
def test_scan_flags_no_degree_that_the_covering_check_settles(drawn, d_max, horizons):
    m, weights = drawn
    assert certify_graded_nilpotence(m, "x", weights).certified
    stream = MorphicStream(m, "x")
    report = graded_nilpotence_scan(stream, weights, d_max, horizons)
    for d in report.flagged:
        longest = report.table[d][-1]
        span = longest * d // min(weights)
        assert span > horizons[-1] or not is_ap_supremum(covering_sums(stream, weights, span), d, longest)


# the horizons each scan builds: every sub_xyz degree up to 12 settles at
# the smallest horizon; the Thue-Morse degrees 3, 6, 9 and 12 never settle,
# and x -> xy, y -> y has no covering words to settle any
SCAN_READS = {"sub_xyz.morph": 1, "thue_morse.morph": 2, "x -> xy, y -> y": 2}


@pytest.mark.parametrize("name", SCAN_READS)
def test_scan_builds_only_the_horizons_it_reads(name, monkeypatch):
    reads = SCAN_READS[name]
    stream, weights = _bundled_stream(name) if name in BUNDLED_SPECS else (ORACLE_STREAMS[name](), (1, 2))
    horizons = (2000, 200_000)
    built = []

    def recording_sums(stream, weights, n, build=grading.weight_sum_prefix):
        built.append(n)
        return build(stream, weights, n)

    with monkeypatch.context() as patch:
        patch.setattr(grading, "weight_sum_prefix", recording_sums)
        report = graded_nilpotence_scan(stream, weights, 12, horizons)
    assert built == [horizons[0], horizons[-1]][:reads]
    # the sets are composed from the morphism: no horizon builds a letter
    assert stream._length == len(stream.morphism.images[stream.start])
    fresh = ORACLE_STREAMS[name]()
    for d in range(1, 13):
        assert report.table[d] == tuple(longest_ap(weight_sum_prefix(fresh, weights, h), d) for h in horizons)


@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_scan_builds_no_letter_of_a_bundled_fixed_point(name):
    stream, weights = _bundled_stream(name)
    graded_nilpotence_scan(stream, weights, 24, (1000, 10_000, 100_000))
    assert stream._length == len(stream.morphism.images[stream.start])


def test_covering_sums_reject_what_covering_words_rejects(tilde_stream):
    for stream, weights in ((MorphicStream(make_morphism("xy", x="xy", y="y"), "x"), (1, 2)),
                            (tilde_stream, (1, 2, 1, 2))):
        with pytest.raises(ValueError, match="exact factors"):
            covering_sums(stream, weights, 10)


@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_ap_supremum_check_accepts_the_bound_and_rejects_one_less(name):
    # m is each degree's AP length at horizon 1e5; the covering words for the
    # longest span hold every factor that an AP of m + 1 terms can span
    stream, weights = _bundled_stream(name)
    sums = weight_sum_prefix(stream, weights, 100_000)
    lengths = {d: longest_ap(sums, d) for d in range(1, 13)}
    covers = covering_sums(stream, weights, max(m * d // min(weights) for d, m in lengths.items()))
    for d, m in lengths.items():
        assert not is_ap_supremum(covers, d, m - 1)
        if name != "thue_morse.morph" or d % 3:
            # every bounded degree of the bundled specs reaches its bound by 1e5
            assert is_ap_supremum(covers, d, m)


@pytest.mark.parametrize("d", [3, 6])
def test_ap_supremum_check_rejects_unbounded_thue_morse_degrees(tm_morphism, d):
    # the blocks xy and yx both weigh 3, so every AP length is exceeded
    stream = MorphicStream(tm_morphism, "x")
    for m in range(1, 65):
        assert not is_ap_supremum(covering_sums(stream, (1, 2), m * d), d, m)


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
