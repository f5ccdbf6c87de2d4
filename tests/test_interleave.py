import bisect
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordalg import grading, interleave, monalg
from wordalg.grading import weight_sum_prefix
from wordalg.interleave import (
    BASE_START,
    BASE_WEIGHTS,
    InterleaveSpec,
    InterleaveStream,
    UniversalSequence,
    _block,
    base_morphism,
    construction_pipeline,
    locate_pattern,
    prime_copy,
    primed_alphabet,
    primed_companion,
    unprime,
)
from wordalg.monalg import HorizonWarning
from wordalg.words import PIECE_SIZE, Alphabet, MorphicStream, encode


# -- the enumeration oracle: re-derive the (sum, length, lex) order from scratch


def _oracle_compositions(max_sum):
    out = []
    for total in range(1, max_sum + 1):
        for parts in range(1, total + 1):
            for cut in itertools.combinations(range(1, total), parts - 1):
                bounds = (0,) + cut + (total,)
                out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def _oracle_diffs(max_sum):
    diffs = []
    for comp in _oracle_compositions(max_sum):
        diffs.extend(comp)
    return diffs


def test_oracle_composition_order_is_lex():
    comps = _oracle_compositions(4)
    assert comps[:7] == [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)]
    by_key = sorted(comps, key=lambda c: (sum(c), len(c), c))
    assert comps == by_key


def _whole_block(total, odd):
    """The part lengths and priming bits of one sum-block, its slices joined."""
    parts, primed = zip(*_block(total, odd))
    return np.concatenate(parts), np.concatenate(primed)


@pytest.mark.parametrize("total", range(1, 15))
def test_block_differences_match_oracle(total):
    # the part lengths of the block, its slices joined
    block = [d for comp in _oracle_compositions(total) if sum(comp) == total for d in comp]
    assert _whole_block(total, 0)[0].tolist() == block


def _flip_accumulate_primes(values, lo, hi):
    """The priming bits of units [lo, hi) from the cut points alone: the flip
    array and xor-accumulate that built each interleaved piece before the
    bits were stored with the terms."""
    first = bisect.bisect_right(values, lo)
    flips = np.zeros(hi - lo, dtype=np.uint8)
    flips[0] = first % 2 == 0
    flips[np.array(values[first : bisect.bisect_left(values, hi, first)], dtype=np.int64) - lo] = 1
    return np.bitwise_xor.accumulate(flips)


def test_packed_primes_match_the_cut_points():
    # from block 18 on a row holds more than 16 cut bits: the last shift-xor counts
    seq = UniversalSequence()
    for total in range(1, 19):
        seq._pull()
        values = seq.values(len(seq._values) - 1)
        units = values[-1]
        assert seq._units == units
        assert len(seq._primed) == (units + 7) // 8
        primed = np.unpackbits(np.frombuffer(seq._primed, np.uint8))[:units]
        assert np.array_equal(primed, _flip_accumulate_primes(values, 0, units))
        # and from a start inside the sequence, as a piece of the interleaved word reads it
        for lo in {min(1, units - 1), units // 3, units - 1}:
            assert np.array_equal(primed[lo:], _flip_accumulate_primes(values, lo, units))


@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("total", [1, 2, 5, 13, 18])
def test_block_primes_flip_with_the_parts_before_it(total, odd):
    # block 18 has 16 slices, each flipped by the parts of the slices before it
    parts, primed = _whole_block(total, odd)
    ends = np.cumsum(parts, dtype=np.int64) - 1
    cuts = np.zeros(primed.size + 1, dtype=np.uint8)
    cuts[0] = odd
    cuts[ends + 1] = 1
    assert np.array_equal(primed, np.bitwise_xor.accumulate(cuts)[:-1])


def _shift_matrix_block_differences(total):
    """The sum-block of ``total`` as part lengths, from a shift matrix of
    every cut bit, sorted by popcount."""
    masks = np.arange(2 ** (total - 1) - 1, -1, -1, dtype=np.uint32)
    cuts = ((masks[:, None] >> np.arange(total - 2, -1, -1, dtype=np.uint32)) & 1).astype(bool)
    starts = np.ones((masks.size, total), dtype=bool)
    starts[:, 1:] = cuts[np.argsort(cuts.sum(axis=1), kind="stable")]
    return np.diff(np.flatnonzero(starts), append=starts.size)


def test_universal_sequence_matches_the_difference_construction():
    # the terms as the running sums of the sum-blocks' part lengths, for 2^20 terms
    count = 2**20
    diffs, total = [], 0
    while sum(d.size for d in diffs) < count:
        total += 1
        diffs.append(_shift_matrix_block_differences(total))
    oracle = np.concatenate([[0], np.cumsum(np.concatenate(diffs))])[: count + 1]
    seq = UniversalSequence()
    assert np.array_equal(np.array(seq.values(count)), oracle)


@pytest.mark.parametrize("slice_rows, last", [(interleave.SLICE_ROWS, 15), (3, 9)])
def test_value_values_and_differences_agree_across_block_and_slice_boundaries(slice_rows, last, monkeypatch):
    # blocks 1 .. last - 1 hold (last - 1) * 2^(last - 2) parts; the first
    # slice of block ``last`` ends inside it
    monkeypatch.setattr(interleave, "SLICE_ROWS", slice_rows)
    diffs = np.concatenate([_shift_matrix_block_differences(t) for t in range(1, last + 1)])
    terms = np.concatenate([[0], np.cumsum(diffs)])
    block_end = (last - 1) * 2 ** (last - 2)
    slice_end = block_end + next(_block(last, 0))[0].size
    assert block_end < slice_end < terms.size - 2
    seq = UniversalSequence()
    for count in (block_end - 1, block_end, block_end + 1, slice_end - 1, slice_end, slice_end + 1):
        values, differences = seq.values(count), seq.differences(count)
        assert values == tuple(terms[: count + 1].tolist())
        assert differences == tuple(diffs[:count].tolist())
        assert np.diff(values).tolist() == list(differences)
        assert [seq.value(i) for i in range(count - 2, count + 1)] == list(values[-3:])
    units = seq._units
    values = seq.values(len(seq._values) - 1)
    assert values[-1] == units
    primed = np.unpackbits(np.frombuffer(seq._primed, np.uint8))[:units]
    assert np.array_equal(primed, _flip_accumulate_primes(values, 0, units))


def test_pulls_up_to_block_18_stay_small():
    # the terms are one byte each and a block is pulled a slice at a time:
    # int64 terms or whole-block temporaries would peak at about 32 MB
    tracemalloc.start()
    try:
        seq = UniversalSequence()
        seq.ensure_terms(18 * 2**17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq._blocks == 18
    assert peak < 10 * 2**20


def test_sum_blocks_past_32_overflow_before_anything_is_pulled():
    seq = UniversalSequence()
    seq._blocks = 32
    with pytest.raises(OverflowError, match="sum-block 33"):
        seq._pull()
    with pytest.raises(OverflowError, match="sum-block 33"):
        seq.ensure_terms(1)
    assert seq._blocks == 32 and len(seq._values) == 1 and not seq._primed
    # an entry above 32 first occurs in a block past 32
    seq = UniversalSequence()
    with pytest.raises(OverflowError, match="entry 33"):
        locate_pattern(seq, (1, 33, 2))
    assert seq._blocks == 0


# -- universal sequence ------------------------------------------------------------


def test_universal_sequence_first_values():
    seq = UniversalSequence()
    assert seq.values(12) == (0, 1, 3, 4, 5, 8, 9, 11, 13, 14, 15, 16, 17)
    assert seq.differences(12) == (1, 2, 1, 1, 3, 1, 2, 2, 1, 1, 1, 1)


def test_universal_sequence_matches_oracle():
    oracle = _oracle_diffs(7)
    seq = UniversalSequence()
    assert list(seq.differences(len(oracle))) == oracle


def test_universal_sequence_reproducible():
    a = UniversalSequence()
    b = UniversalSequence()
    assert a.values(500) == b.values(500)
    assert a.order_tag == b.order_tag == "sum-length-lex"


def test_universal_sequence_rejects_negative_counts_and_positions():
    # a negative count or position would read from the end of the cached terms
    seq = UniversalSequence()
    seq.ensure_terms(100)
    for read in (lambda: seq.value(-1), lambda: seq.values(-2), lambda: seq.differences(-5),
                 lambda: seq.ensure_terms(-1)):
        with pytest.raises(ValueError, match="nonnegative"):
            read()
    assert seq.values(0) == (0,) and seq.differences(0) == ()


def test_locate_pattern_examples():
    seq = UniversalSequence()
    assert locate_pattern(seq, (1,)) == 0
    assert locate_pattern(seq, (2, 1)) == 1
    assert locate_pattern(seq, (1, 1, 1)) == 8


def test_locate_pattern_defining_property():
    seq = UniversalSequence()
    for pattern in [(3, 1, 2), (4,), (2, 2, 2), (1, 5, 1)]:
        m = locate_pattern(seq, pattern)
        for t, a in enumerate(pattern, start=1):
            assert seq.value(m + t) - seq.value(m + t - 1) == a


def test_locate_pattern_parity():
    seq = UniversalSequence()
    for pattern in [(1,), (2, 1), (1, 1, 1), (3, 2)]:
        even = locate_pattern(seq, pattern, parity=0)
        odd = locate_pattern(seq, pattern, parity=1)
        assert even % 2 == 0 and odd % 2 == 1
        assert min(even, odd) == locate_pattern(seq, pattern)


def test_locate_pattern_rejects_bad_input():
    seq = UniversalSequence()
    with pytest.raises(ValueError):
        locate_pattern(seq, ())
    with pytest.raises(ValueError):
        locate_pattern(seq, (0, 1))


def _linear_locate(seq, pattern, parity):
    """The smallest m by comparing slices of the differences, read in doubling counts."""
    s = len(pattern)
    first, step = (0, 1) if parity is None else (parity, 2)
    count = s
    while True:
        diffs = seq.differences(count)
        for m in range(first, count - s + 1, step):
            if diffs[m : m + s] == pattern:
                return m
        count *= 2


@pytest.mark.parametrize("parity", [None, 0, 1])
def test_locate_pattern_matches_the_linear_scan(parity):
    seq = UniversalSequence()
    compositions = _oracle_compositions(10)
    assert len(compositions) == 2**10 - 1
    for pattern in compositions:
        assert locate_pattern(seq, pattern, parity) == _linear_locate(seq, pattern, parity), pattern


def test_every_short_pattern_appears():
    # all sequences with entries <= 3 and length <= 3 occur as consecutive
    # differences; the worst case (frozen from the oracle) is m = 501
    seq = UniversalSequence()
    worst = max(
        locate_pattern(seq, p)
        for length in (1, 2, 3)
        for p in itertools.product((1, 2, 3), repeat=length)
    )
    assert worst == 501


# -- priming -----------------------------------------------------------------------


def test_primed_companion_and_alphabet():
    assert primed_companion("x") == "X"
    with pytest.raises(ValueError):
        primed_companion("X")
    full, mapping = primed_alphabet(Alphabet(("x", "y")))
    assert full.letters == ("x", "y", "X", "Y")
    assert mapping == {"x": "X", "y": "Y"}


def test_prime_copy_examples():
    mapping = {"x": "X", "y": "Y"}
    assert prime_copy("xyy", mapping) == "XYY"
    assert prime_copy("", mapping) == ""
    assert prime_copy("xyyyx", mapping) == "XYYYX"
    assert unprime("xYYy", mapping) == "xyyy"
    assert unprime("", mapping) == ""


@given(word=st.text(alphabet="xy", max_size=40))
def test_unprime_inverts_prime_copy(word):
    mapping = {"x": "X", "y": "Y"}
    assert unprime(prime_copy(word, mapping), mapping) == word


# -- the interleaved word -----------------------------------------------------------


def test_interleaved_prefix_start(xy_stream):
    spec = InterleaveSpec(xy_stream, UniversalSequence())
    # segments: w[1,1] unprimed, w[2,3] primed, w[4,4] unprimed, ...
    assert InterleaveStream(spec).prefix(4) == "xYYy"
    assert InterleaveStream(spec).prefix(0) == ""


# the interleaved word built one segment at a time, straight from the oracle
# differences: segment k is w[n_{k-1}, n_k) and is primed for even k
ORACLE_SUM = 11  # its sum-blocks end at letters 1, 5, 17, 49, ..., 9217, 20481
NAIVE_BASE = MorphicStream(base_morphism(), BASE_START).prefix(20_481)


def _naive_interleaved():
    segments, pos = [], 0
    for k, d in enumerate(_oracle_diffs(ORACLE_SUM), start=1):
        segment = NAIVE_BASE[pos : pos + d]
        segments.append(segment.upper() if k % 2 == 0 else segment)
        pos += d
    return "".join(segments)


NAIVE_INTERLEAVED = _naive_interleaved()


@given(st.lists(st.integers(0, len(NAIVE_INTERLEAVED)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_interleave_stream_matches_per_segment_build(lengths):
    base = MorphicStream(base_morphism(), BASE_START)
    stream = InterleaveStream(InterleaveSpec(base, UniversalSequence()))
    for n in sorted(lengths):
        assert stream.prefix(n) == NAIVE_INTERLEAVED[:n]


@pytest.mark.parametrize("piece_size", [1, 7, 4_096])
def test_interleave_stream_pieces_match_per_segment_build(piece_size):
    # the word read back to back in ranges of piece_size letters, which end
    # inside segments, on cut points and inside sum-blocks
    stream = InterleaveStream(InterleaveSpec(MorphicStream(base_morphism(), BASE_START), UniversalSequence()))
    naive = encode(NAIVE_INTERLEAVED, stream.alphabet.letters)
    pieces = [stream.codes(lo, lo + piece_size) for lo in range(0, naive.size, piece_size)]
    assert np.array_equal(np.concatenate(pieces)[: naive.size], naive)


@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=8),
       st.sampled_from([0, 1, 7, 4_096, 20_000]))
@settings(max_examples=60, deadline=None)
def test_interleave_stream_codes_are_the_encoded_slice_of_the_prefix(ranges, offset):
    # starts on and off byte boundaries of the packed priming bits, and empty
    # ranges, both stop == start and stop < start
    stream = InterleaveStream(InterleaveSpec(MorphicStream(base_morphism(), BASE_START), UniversalSequence()))
    for start, stop in ranges:
        start, stop = start + offset, stop + offset
        codes = stream.codes(start, stop)
        assert np.array_equal(codes, encode(stream.prefix(stop)[start:], stream.alphabet.letters))
        assert np.array_equal(codes, encode(NAIVE_INTERLEAVED[start:stop], stream.alphabet.letters))


def test_interleave_stream_codes_reject_negative_positions():
    stream = InterleaveStream(InterleaveSpec(MorphicStream(base_morphism(), BASE_START), UniversalSequence()))
    for start, stop in ((-1, 5), (-3, -1), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            stream.codes(start, stop)
    with pytest.raises(ValueError, match="nonnegative"):
        stream.spec.sequence.primed(-1, 5)


def _blocks_covering(n):
    """The least number s of sum-blocks whose units reach n: blocks 1 .. s hold
    sum_t t * 2^(t-1) = (s - 1) * 2^s + 1 units."""
    s = 1
    while (s - 1) * 2**s + 1 < n:
        s += 1
    return s


def test_interleave_stream_builds_about_what_is_asked():
    # the word itself is stored nowhere; the sequence pulls the least blocks
    # whose units reach the request, the last holding about as many units as
    # all before it, and the base word is built at most one growth past it
    base = MorphicStream(base_morphism(), BASE_START)
    longest = max(len(image) for image in base_morphism().images.values())
    stream = InterleaveStream(InterleaveSpec(base, UniversalSequence()))
    for n in (1, 5, 18, 70_001, 1_000_000, 4_000_000):
        stream.prefix(n)
        assert "_codes" not in vars(stream)
        assert n <= stream.spec.sequence._units < 3 * n
        assert base._length <= n + max(PIECE_SIZE, longest)


@pytest.mark.parametrize("n", [10_000, 4_000_000])
def test_interleave_stream_pulls_the_blocks_its_prefix_needs(n):
    # a prefix pulls the least sum-blocks whose units reach it; block t holds
    # (t + 1) * 2^(t-2) parts, so s blocks hold s * 2^(s-1) parts, and the
    # terms are those and n_0: 11,265 at 1e4 and 2,359,297 at 4e6
    stream = InterleaveStream(InterleaveSpec(MorphicStream(base_morphism(), BASE_START), UniversalSequence()))
    stream.prefix(n)
    s = _blocks_covering(n)
    assert stream.spec.sequence._blocks == s
    assert len(stream.spec.sequence._values) == s * 2 ** (s - 1) + 1


def test_interleaved_prefix_unprimes_to_base(xy_stream, tilde_stream):
    spec = tilde_stream.spec
    n = 10_000
    assert unprime(tilde_stream.prefix(n), spec.mapping) == xy_stream.prefix(n)


def test_interleaved_segments_alternate(tilde_stream):
    seq = tilde_stream.spec.sequence
    text = tilde_stream.prefix(2000)
    k = 1
    while seq.value(k) < len(text):
        lo, hi = seq.value(k - 1), min(seq.value(k), len(text))
        segment = text[lo:hi]
        if k % 2 == 0:
            assert segment == segment.upper()
        else:
            assert segment == segment.lower()
        k += 1


def test_weight_sum_sets_of_tilde_and_base_coincide(xy_stream, tilde_stream):
    for horizon in (1000, 30_000):
        tilde_sums = weight_sum_prefix(tilde_stream, BASE_WEIGHTS + BASE_WEIGHTS, horizon)
        base_sums = weight_sum_prefix(xy_stream, BASE_WEIGHTS, horizon)
        assert tilde_sums.bits == base_sums.bits


def test_alternating_pattern_witness_is_a_factor(xy_stream, tilde_stream):
    # for every alternating pattern with block sizes (i1, j1, ..., ir, jr), the
    # witness monomial cut from the base word at an even occurrence of the
    # pattern is a factor of the interleaved word, so the image of the pattern
    # under A -> x+y, B -> x'+y' has nonempty support
    from wordalg.monalg import NcPolynomial, WordFactorView

    spec = tilde_stream.spec
    seq = spec.sequence
    patterns = [
        p
        for r in (1, 2)
        for p in itertools.product((1, 2, 3, 4), repeat=2 * r)
        if sum(p) <= 10
    ]
    assert len(patterns) > 50
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        view = WordFactorView(tilde_stream, 100_000)
        assignment = {
            "A": NcPolynomial(view, {"x": 1, "y": 1}),
            "B": NcPolynomial(view, {"X": 1, "Y": 1}),
        }
        for pattern in patterns:
            m = locate_pattern(seq, pattern, parity=0)
            monomial = []
            pos = seq.value(m)
            for t, block in enumerate(pattern):
                chunk = xy_stream.slice(pos, pos + block)
                monomial.append(chunk if t % 2 == 0 else prime_copy(chunk, spec.mapping))
                pos += block
            witness = "".join(monomial)
            horizon = seq.value(m) + sum(pattern) + 10
            assert witness in tilde_stream.prefix(horizon)
            abstract = "".join(
                ("A" if t % 2 == 0 else "B") * block for t, block in enumerate(pattern)
            )
            image = NcPolynomial.one(view)
            for symbol in abstract:
                image = image * assignment[symbol]
            assert witness in image.coeffs
            assert image.coeffs[witness] == 1


# -- the pipeline ---------------------------------------------------------------------


def test_pipeline_small_horizon():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        report = construction_pipeline(horizon=20_000, free_pattern_length=3, d_max=4)
    assert report.certificate.certified
    assert report.scan.flagged == ()
    assert report.sum_sets_equal
    assert report.freeness.independent
    assert report.freeness.patterns_tested == 2 + 4 + 8
    assert report.rank_with_identity == 15
    assert report.all_clear
    record = report.to_record()
    assert record["all_clear"] == "true"
    assert record["certificate_verdict"] == "CERTIFIED"


def test_pipeline_builds_each_sum_set_and_the_images_once(monkeypatch):
    calls = {"weight_sum_prefix": [], "pattern_images": [], "linear_independence": []}
    for module in (grading, interleave, monalg):
        for name, log in calls.items():
            if hasattr(module, name):
                original = getattr(module, name)

                def logged(*args, _original=original, _log=log):
                    _log.append(args)
                    return _original(*args)

                monkeypatch.setattr(module, name, logged)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        report = construction_pipeline(horizon=20_000, free_pattern_length=3, d_max=4)
    # the base word's sums only (inside the scan), and one elimination
    assert [type(args[0]) for args in calls["weight_sum_prefix"]] == [MorphicStream]
    assert len(calls["pattern_images"]) == 1
    assert len(calls["linear_independence"]) == 1
    assert report.rank_with_identity == 15


@pytest.mark.parametrize("horizon, d_max", [(100, 24), (999, 24), (20_000, 6)])
def test_pipeline_scan_is_the_interleaved_word_scan(horizon, d_max):
    # the oracle scans the interleaved word itself; at 100 and 999 some
    # degrees stay open on the base word and read every horizon, at 20,000
    # every degree settles at the smallest one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        report = construction_pipeline(horizon=horizon, free_pattern_length=2, d_max=d_max)
    oracle = grading.graded_nilpotence_scan(interleave.tilde_stream(), (1, 2, 1, 2), d_max, report.scan.horizons)
    assert report.scan.horizons == (max(horizon // 10, 10), horizon)
    assert report.scan.weights == oracle.weights
    assert report.scan.table == oracle.table
    assert report.scan.flagged == oracle.flagged


@pytest.mark.parametrize("free_pattern_length", [1, 2, 3, 4, 5])
def test_pipeline_rank_with_identity_is_the_rank_of_the_identity_and_the_images(free_pattern_length):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        report = construction_pipeline(horizon=2000, free_pattern_length=free_pattern_length, d_max=2)
    tilde = interleave.tilde_stream()
    view = monalg.WordFactorView(tilde, 2000)
    x, y = tilde.spec.base.alphabet.letters
    primed = tilde.spec.mapping
    gens = [monalg.NcPolynomial(view, {x: 1, y: 1}), monalg.NcPolynomial(view, {primed[x]: 1, primed[y]: 1})]
    images = monalg.pattern_images(view, gens, free_pattern_length)
    oracle = monalg.linear_independence([monalg.NcPolynomial.one(view), *images])
    assert report.rank_with_identity == oracle.rank


def test_pipeline_rejects_tiny_horizon():
    with pytest.raises(ValueError):
        construction_pipeline(horizon=10)


def test_base_morphism_is_the_certified_example():
    m = base_morphism()
    assert m.images == {"x": "xy", "y": "yyx"}
    assert BASE_START == "x"
    assert BASE_WEIGHTS == (1, 2)
