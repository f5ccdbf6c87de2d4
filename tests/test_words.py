import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordalg import words
from wordalg.monalg import CubeIdealView
from wordalg.words import (
    Alphabet,
    FactorIndex,
    MorphicStream,
    NotProlongableError,
    PeriodicStream,
    SuffixAutomaton,
    Substitution,
    analyze_morphism,
    covering_codes,
    decode,
    encode,
    exact_det,
    exact_factor_counts,
    incidence_matrix,
    is_cube_free,
    is_primitive,
    is_prolongable,
    load_morphism_file,
    make_morphism,
    mat_vec,
    mortal_letters,
    parikh,
    parse_morphism_spec,
    word_weight,
)

# -- small strategies -------------------------------------------------------

xy_words = st.text(alphabet="xy", max_size=30)

small_morphisms = st.sampled_from(
    [
        make_morphism("xy", x="xy", y="yyx"),
        make_morphism("xy", x="xy", y="yx"),
        make_morphism("xyz", x="xyz", y="zx", z="yz"),
        make_morphism("xy", x="xyy", y="x"),
    ]
)


# -- alphabets and morphisms -------------------------------------------------


def test_alphabet_rejects_duplicates_and_long_symbols():
    with pytest.raises(ValueError):
        Alphabet(("x", "x"))
    with pytest.raises(ValueError):
        Alphabet(("xy",))
    with pytest.raises(ValueError):
        Alphabet(tuple("abcdefghijk"))  # 11 letters
    with pytest.raises(ValueError, match="noncharacter"):
        Alphabet(("x", "\ufffe"))  # decode reads it as no letter


def test_morphism_requires_total_images():
    with pytest.raises(ValueError):
        words.Morphism(Alphabet(("x", "y")), {"x": "xy"})
    with pytest.raises(ValueError):
        make_morphism("xy", x="xz", y="y")


def test_mortal_letters():
    m = make_morphism("xy", x="xy", y="")
    assert mortal_letters(m) == {"y"}
    chain = make_morphism("xyz", x="xy", y="z", z="")
    assert mortal_letters(chain) == {"y", "z"}
    assert mortal_letters(make_morphism("xy", x="xy", y="yyx")) == frozenset()


def test_prolongable_follows_definition(sub_xy, tm_morphism):
    # x -> xy and y -> yyx both begin with their letter and have immortal tails
    assert is_prolongable(sub_xy, "x")
    assert is_prolongable(sub_xy, "y")
    assert is_prolongable(tm_morphism, "x")
    assert is_prolongable(tm_morphism, "y")
    # a mortal tail does not prolong
    m = make_morphism("xy", x="xy", y="")
    assert not is_prolongable(m, "x")
    assert not is_prolongable(m, "y")


def test_analyze_example_xy(sub_xy):
    rep = analyze_morphism(sub_xy)
    assert rep.matrix == ((1, 1), (1, 2))
    assert rep.det == 1
    assert rep.primitive
    assert rep.mortal == frozenset()
    assert rep.prolongable == ("x", "y")


def test_analyze_example_xyz(sub_xyz):
    rep = analyze_morphism(sub_xyz)
    assert rep.matrix == ((1, 1, 0), (1, 0, 1), (1, 1, 1))
    assert rep.det == -1
    assert rep.primitive


def test_analyze_thue_morse_det_zero(tm_morphism):
    assert analyze_morphism(tm_morphism).det == 0


def test_identity_morphism_matrix():
    ident = make_morphism("xy", x="x", y="y")
    assert incidence_matrix(ident) == ((1, 0), (0, 1))


def test_not_primitive():
    assert not is_primitive(make_morphism("xy", x="xx", y="yy"))
    # every letter reaches every letter, but the powers alternate between the
    # identity and the swap, so none is positive
    assert not is_primitive(make_morphism("xy", x="y", y="x"))


@given(data=st.data(), d=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_is_primitive_matches_brute_force_powers(data, d):
    letters = "wxyz"[:d]
    # single-letter images make periodic (irreducible, not primitive) matrices common
    image = st.one_of(st.sampled_from(letters), st.text(alphabet=letters, max_size=3))
    m = make_morphism(letters, **{c: data.draw(image) for c in letters})
    mat = incidence_matrix(m)
    power, positive = mat, False
    for _ in range(d * d + d):  # far past Wielandt's (d-1)^2 + 1
        positive |= all(e > 0 for row in power for e in row)
        power = tuple(tuple(sum(power[i][k] * mat[k][j] for k in range(d)) for j in range(d)) for i in range(d))
    assert is_primitive(m) == positive


def test_exact_det_brute_force():
    import random

    rng = random.Random(0)
    for _ in range(50):
        d = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        # cofactor expansion oracle
        def brute(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * brute(minor)
            return total

        assert exact_det(mat) == brute(mat)


# -- Parikh vectors and weights ----------------------------------------------


def test_parikh_examples(sub_xy, sub_xyz):
    assert parikh(sub_xy.alphabet, "xyy") == (1, 2)
    assert parikh(sub_xy.alphabet, "") == (0, 0)
    assert parikh(sub_xyz.alphabet, "xz") == (1, 0, 1)


def test_weight_examples(sub_xy, sub_xyz):
    assert word_weight(sub_xy.alphabet, "xyy", (1, 2)) == 5
    assert word_weight(sub_xy.alphabet, "", (1, 2)) == 0
    assert word_weight(sub_xyz.alphabet, "xz", (1, 2, 3)) == 4


@given(m=small_morphisms, data=st.data(), n=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_parikh_commutes_with_incidence_matrix(m, data, n):
    u = data.draw(st.text(alphabet="".join(m.alphabet.letters), max_size=6))
    mat = incidence_matrix(m)
    v = parikh(m.alphabet, u)
    for _ in range(n):
        v = mat_vec(mat, v)
    assert v == parikh(m.alphabet, m.iterate(u, n))


@given(u=xy_words, v=xy_words)
def test_weight_is_additive(u, v, sub_xy):
    ab = sub_xy.alphabet
    assert word_weight(ab, u + v, (1, 2)) == word_weight(ab, u, (1, 2)) + word_weight(ab, v, (1, 2))


# -- fixed points -------------------------------------------------------------


def test_fixed_point_examples(sub_xy, sub_xyz, tm_morphism):
    assert MorphicStream(sub_xy, "x").prefix(5) == "xyyyx"
    assert MorphicStream(tm_morphism, "y").prefix(16) == "yxxyxyyxxyyxyxxy"
    assert MorphicStream(sub_xy, "y").prefix(1) == "y"
    # canonical ternary fixed point: start letter, tail yz, then iterated images
    assert MorphicStream(sub_xyz, "x").prefix(7) == "x" + "yz" + "zxyz"


def test_fixed_point_is_actually_fixed(sub_xy, sub_xyz):
    for m, start in [(sub_xy, "x"), (sub_xyz, "x")]:
        w = MorphicStream(m, start).prefix(500)
        assert m.apply(w).startswith(w[: len(w) // 2])


def test_fixed_point_not_prolongable():
    m = make_morphism("xy", x="yx", y="y")
    with pytest.raises(NotProlongableError):
        MorphicStream(m, "x")
    with pytest.raises(NotProlongableError):
        MorphicStream(m, "y")  # tail is empty


@given(n=st.integers(0, 200), k=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_fixed_point_prefix_stability(n, k, sub_xy):
    assert MorphicStream(sub_xy, "x").prefix(n + k)[:n] == MorphicStream(sub_xy, "x").prefix(n)


def _eager_fixed_point(m, start, n):
    """Whole blocks start, tail, image(tail), ... until n letters are there."""
    word, block = start, m.images[start][1:]
    while len(word) < n:
        word += block
        block = m.apply(block)
    return word[:n]


def test_stream_matches_fixed_point(sub_xy):
    stream = MorphicStream(sub_xy, "x")
    reference = _eager_fixed_point(sub_xy, "x", 137)
    assert stream.prefix(137) == reference
    assert stream.slice(10, 20) == reference[10:20]


MORTAL_Z = make_morphism("xyz", x="xzy", y="zzyx", z="")


@pytest.mark.parametrize(
    "m, start",
    [
        (make_morphism("xy", x="xy", y="yyx"), "x"),
        (make_morphism("xy", x="xy", y="yx"), "y"),
        (MORTAL_Z, "x"),
    ],
    ids=["sub_xy", "thue_morse", "mortal_z"],
)
@pytest.mark.parametrize("piece_size", [1, 2, 7, words.PIECE_SIZE])
def test_morphic_stream_matches_eager_blocks(m, start, piece_size, monkeypatch):
    step = 9_973 if piece_size == words.PIECE_SIZE else 37
    stop = 300_000 if piece_size == words.PIECE_SIZE else 3_000
    monkeypatch.setattr(words, "PIECE_SIZE", piece_size)
    stream = MorphicStream(m, start)
    reference = _eager_fixed_point(m, start, stop)
    for n in range(1, stop, step):
        assert stream.prefix(n) == reference[:n]
    assert stream.slice(stop - 50, stop) == reference[-50:]


@st.composite
def prolongable_morphisms(draw):
    """Morphisms over 2-3 letters with images of 0-4 letters, prolongable on x;
    mortal letters and non-primitive morphisms included."""
    letters = "xyz"[: draw(st.integers(2, 3))]
    images = {c: draw(st.text(alphabet=letters, max_size=4)) for c in letters}
    images["x"] = "x" + draw(st.text(alphabet=letters, min_size=1, max_size=3))
    m = make_morphism(letters, **images)
    assume(is_prolongable(m, "x"))
    return m


@given(m=prolongable_morphisms(), piece_size=st.integers(1, 7), lengths=st.lists(st.integers(0, 300), max_size=4))
@settings(max_examples=100, deadline=None)
def test_morphic_stream_matches_iterated_images(m, piece_size, lengths):
    # the stream reads its own text; the oracle iterates f on x until 300 letters are there
    reference = "x"
    while len(reference) < 300:
        reference = m.iterate(reference, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "PIECE_SIZE", piece_size)
        stream = MorphicStream(m, "x")
        for n in [*lengths, 300]:
            assert stream.prefix(n) == reference[:n]


@st.composite
def substitution_cases(draw):
    """A morphism over 1-3 letters whose images have 0-4 letters (an empty
    image makes a mortal letter), and a word over its letters."""
    letters = "xyz"[: draw(st.integers(1, 3))]
    m = make_morphism(letters, **{c: draw(st.text(alphabet=letters, max_size=4)) for c in letters})
    return m, draw(st.text(alphabet=letters, max_size=30))


@given(case=substitution_cases())
@example(case=(MORTAL_Z, "zzzz"))  # a run of mortal letters only
@example(case=(make_morphism("xy", x="", y=""), "xyyx"))  # every image empty
@example(case=(MORTAL_Z, ""))
@settings(max_examples=100, deadline=None)
def test_substitution_matches_morphism_apply(case):
    m, word = case
    letters = m.alphabet.letters
    substitution = Substitution([encode(m.images[c], letters).tobytes() for c in letters])
    image = substitution(encode(word, letters))
    assert image.dtype == np.uint8
    assert decode(image, letters) == m.apply(word)


@pytest.mark.parametrize("period", ["x", "xy", "xyzzy"])
@pytest.mark.parametrize("piece_size", [1, 2, 7, words.PIECE_SIZE])
def test_periodic_stream_repeats_its_period(period, piece_size, monkeypatch):
    # the piece size that sizes the morphic streams' growth leaves the
    # periodic stream's prefixes and slices unchanged
    monkeypatch.setattr(words, "PIECE_SIZE", piece_size)
    stream = PeriodicStream(period)
    stop = 3 * piece_size + 11
    reference = period * stop
    for n in range(0, stop, max(piece_size // 3, 1)):
        assert stream.prefix(n) == reference[:n]
    assert stream.slice(stop - 7, stop) == reference[stop - 7 : stop]


@given(
    period=st.text(alphabet="xyz", min_size=1, max_size=7),
    k=st.integers(0, 30),
    bounds=st.tuples(st.integers(0, 240), st.integers(0, 240)),
)
@example(period="xyzzy", k=4, bounds=(3, 3))  # empty, off a period boundary
@example(period="xyzzy", k=4, bounds=(13, 6))  # reversed
@example(period="x", k=0, bounds=(0, 0))
@settings(max_examples=200, deadline=None)
def test_periodic_stream_slices_match_the_repeated_period(period, k, bounds):
    # any range, with its start on or off a period boundary, is the same
    # slice of enough copies of the period
    start, stop = bounds
    stop = min(stop, k * len(period))
    assert PeriodicStream(period).slice(start, stop) == (period * k)[start:stop]


@pytest.mark.parametrize("stream", [
    MorphicStream(make_morphism("xy", x="xy", y="yx"), "x"),
    PeriodicStream("xyz"),
])
def test_streams_reject_negative_lengths(stream):
    # a negative length would read from the end of the text built so far
    stream.prefix(10)
    for read in (lambda: stream.prefix(-1), lambda: stream.slice(0, -3), lambda: stream.slice(-5, 8)):
        with pytest.raises(ValueError, match="nonnegative"):
            read()
    assert stream.slice(3, 3) == "" and len(stream.prefix(10)) == 10


GREEK, _ = parse_morphism_spec("α β\nα -> αβ\nβ -> ββα\n")


@pytest.mark.parametrize("piece_size", [1, 7, words.PIECE_SIZE])
def test_streams_of_letters_past_latin1_match_their_oracles(piece_size, monkeypatch):
    # the codes decode to letters that need more than one byte each
    monkeypatch.setattr(words, "PIECE_SIZE", piece_size)
    stop = 3_000
    morphic = "α"
    while len(morphic) < stop:
        morphic = GREEK.iterate(morphic, 1)
    for stream, reference in ((MorphicStream(GREEK, "α"), morphic), (PeriodicStream("ж→я"), "ж→я" * stop)):
        for n in range(0, stop, 37):
            assert stream.prefix(n) == reference[:n]
        assert stream.slice(stop - 50, stop) == reference[stop - 50 : stop]


@pytest.mark.parametrize("m", [
    make_morphism("xy", x="xy", y="yyx"),
    make_morphism("xy", x="x" + "y" * 5_000, y="y" * 5_001 + "x"),
], ids=["sub_xy", "long_images"])
def test_morphic_stream_reallocates_its_codes_once_per_request(m, monkeypatch):
    # hundreds of growths go into one buffer, sized by the request plus one growth
    monkeypatch.setattr(words, "PIECE_SIZE", 1_000)
    stream = MorphicStream(m, "x")
    substitution, buffers = stream._substitution, [stream._codes]

    class RecordingSubstitution:
        step, width = substitution.step, substitution.width

        def __call__(self, piece):
            if stream._codes is not buffers[-1]:
                buffers.append(stream._codes)
            return substitution(piece)

    stream._substitution = RecordingSubstitution()
    n = 1_000_000
    assert len(stream.prefix(n)) == n
    if stream._codes is not buffers[-1]:
        buffers.append(stream._codes)
    assert len(buffers) - 1 <= 1
    assert stream._codes.size <= n + substitution.step * substitution.width


@pytest.mark.parametrize("m, start", [
    (make_morphism("xy", x="xy", y="yyx"), "x"),
    (MORTAL_Z, "x"),
    # long images: one piece of input letters would build 25,015,001 letters
    (make_morphism("xy", x="x" + "y" * 5_000, y="y" * 5_001 + "x"), "x"),
])
def test_morphic_stream_builds_about_what_is_asked(m, start):
    # at most one piece of images past the request: no block is built ahead of need
    longest = max(len(image) for image in m.images.values())
    stream = MorphicStream(m, start)
    for n in (1, 1_000, 16_384, 70_001, 500_000, 2_000_003):
        stream.prefix(n)
        assert stream._length <= n + max(words.PIECE_SIZE, longest)


# -- factor sets ---------------------------------------------------------------


def test_factor_set_examples(tm_stream):
    index = FactorIndex([encode(tm_stream.prefix(16), "xy")], "xy")
    assert index.of_length(1) == {"x", "y"}
    assert "" in index
    index = FactorIndex([encode(tm_stream.prefix(10_000), "xy")], "xy")
    assert "yyy" not in index
    assert "xxx" not in index


def test_factor_set_periodic():
    index = FactorIndex([encode(PeriodicStream("xy").prefix(100), "xy")], "xy")
    assert index.of_length(2) == {"xy", "yx"}


def test_factor_set_subword_closed(xy_stream):
    index = FactorIndex([encode(xy_stream.prefix(2000), "xy")], "xy")
    for k in range(5):
        for f in index.of_length(k):
            for i in range(len(f)):
                for j in range(i, len(f) + 1):
                    assert f[i:j] in index


def test_factor_set_stabilizes(xy_stream, tm_stream):
    for stream in (xy_stream, tm_stream):
        short = FactorIndex([encode(stream.prefix(5000), "xy")], "xy")
        doubled = FactorIndex([encode(stream.prefix(10_000), "xy")], "xy")
        for k in range(5):
            assert short.of_length(k) == doubled.of_length(k)


def test_complexity_examples(tm_stream):
    assert len(FactorIndex([encode(tm_stream.prefix(100), "xy")], "xy").of_length(0)) == 1
    tm = FactorIndex([encode(tm_stream.prefix(10_000), "xy")], "xy")
    assert len(tm.of_length(1)) == 2
    assert len(tm.of_length(2)) == 4
    assert len(FactorIndex([encode(PeriodicStream("xy").prefix(1000), "xy")], "xy").of_length(5)) == 2


def _naive_factors(text, k):
    return {text[i : i + k] for i in range(len(text) - k + 1)}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_factor_index_matches_naive_slice_sets(data):
    letters = data.draw(st.sampled_from(["x", "xy", "xy\u2192Y", "x\U0001f600", "0123456789"]))
    # one text, or several whose windows never cross from one into the next
    texts = data.draw(st.lists(st.text(alphabet=letters, max_size=150), min_size=1, max_size=3))
    index = FactorIndex([encode(text, letters) for text in texts], letters)

    def naive(k):
        return set().union(*(_naive_factors(text, k) for text in texts))

    limit = index.packed_limit
    assert limit == {1: 62, 2: 62, 4: 31, 10: 18}[len(letters)]
    for k in (0, 1, 2, limit):
        assert index.of_length(k) == naive(k)
    with pytest.raises(ValueError):
        index.of_length(limit + 1)
    for k in (0, 1, limit, limit + 1):
        probes = [data.draw(st.text(alphabet=letters, min_size=k, max_size=k))]
        text = data.draw(st.sampled_from(texts))
        if len(text) >= k:
            start = data.draw(st.integers(0, len(text) - k))
            probes.append(text[start : start + k])
        for word in probes:
            assert (word in index) == (word in naive(k))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_factor_index_lengths_across_the_window_table(data):
    # lengths up to T read one table of T-windows and the windows of each
    # text's last T - 1 letters; lengths past T pack their own windows
    letters = "".join(data.draw(st.lists(st.sampled_from("xyzwuvab\u2192\U0001f600"), min_size=1, max_size=10, unique=True)))
    texts = data.draw(st.lists(st.text(alphabet=letters, max_size=60), max_size=3))
    run = data.draw(st.sampled_from([1, 5, words.WINDOW_RUN]))  # windows sorted at once
    # T, the longest length whose codes fit in uint16, by alphabet size
    table = {1: 16, 2: 16, 3: 10, 4: 8, 5: 6, 6: 6, 7: 5, 8: 5, 9: 5, 10: 4}[len(letters)]
    with mock.patch.object(words, "WINDOW_RUN", run):
        index = FactorIndex([encode(text, letters) for text in texts], letters)
        lengths = list(range(1, min(index.packed_limit, table + 2) + 1))
        for k in data.draw(st.permutations(lengths)):  # the table is built by whichever comes first
            assert index.of_length(k) == set().union(*(_naive_factors(text, k) for text in texts))
    assert index.of_length(0) == {""}


def test_factor_index_finds_long_words_inside_one_text_only():
    # past packed_limit a word is searched in each text's decoded codes; a
    # word that straddles two texts is no factor of either
    first, second = "xy" * 40, "yyx" * 30
    index = FactorIndex([encode(first, "xy"), encode(second, "xy")], "xy")
    assert not hasattr(index, "texts")
    k = index.packed_limit + 1
    assert first[1 : 1 + k] in index and second[2 : 2 + k] in index
    straddle = first[-(k // 2) :] + second[: k - k // 2]
    assert len(straddle) == k and straddle not in first and straddle not in second
    assert straddle not in index
    assert straddle in FactorIndex([encode(first + second, "xy")], "xy")
    assert "xz" * k not in index  # a foreign letter is no factor


def test_factor_index_of_an_interleaved_prefix_matches_slice_sets(tilde_stream):
    # four letters: lengths up to 8 come from the window table, 9 and 10 do not
    text = tilde_stream.prefix(200_000)
    index = FactorIndex([encode(text, tilde_stream.alphabet.letters)], tilde_stream.alphabet.letters)
    for k in range(1, 11):
        assert index.of_length(k) == _naive_factors(text, k)


def test_factor_index_rejects_foreign_letters():
    # a control character must not pass for the letter at its code point
    # ("\x01" read as y made xy and yx factors of x\x01x)
    for text in ("xyz", "x\u2192", "x\x01x", "\x00"):
        with pytest.raises(ValueError):
            FactorIndex([encode(text, "xy")], "xy")


# -- letter codes ---------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_encode_decode_round_trip(data):
    letters = data.draw(st.sampled_from(["x", "yx", "xyXY", "x\xe9\xff", "xy\u2192Y", "x\U0001f600", "0123456789"]))
    text = data.draw(st.text(alphabet=letters, max_size=100))
    codes = encode(text, letters)
    assert codes.dtype == np.uint8
    assert codes.tolist() == [letters.index(c) for c in text]
    assert decode(codes, letters) == text


@pytest.mark.parametrize("text", ["z", "xyz", "\x00", "x\x01", "\u2192", "\U0001f600x"])
def test_encode_rejects_foreign_letters(text):
    with pytest.raises(ValueError):
        encode(text, "xy")


@pytest.mark.parametrize("text, foreign", [
    ("x\xe9", "\xe9"),
    ("x\xff", "\xff"),  # byte 255 is the table's mark for "no letter"
    ("x\u2192", "\u2192"),
    ("yz\u2192", "z"),  # a foreign Latin-1 character before one past Latin-1
])
def test_encode_names_the_first_foreign_character(text, foreign):
    with pytest.raises(ValueError, match=f"^{foreign!r} is not a letter of"):
        encode(text, "xy")


@pytest.mark.parametrize("letters", ["xy\xff", "x\u2192"])
def test_encode_returns_read_only_codes(letters):
    codes = encode(letters * 3, letters)
    assert codes.tolist() == list(range(len(letters))) * 3
    assert not codes.flags.writeable


def test_decode_reads_strided_and_read_only_views():
    stream = MorphicStream(make_morphism("xy", x="xy", y="yyx"), "x")
    codes = stream.codes(0, 1_000)
    assert not codes.flags.writeable
    assert decode(codes, "xy") == stream.prefix(1_000)
    assert decode(codes[::3], "xy") == stream.prefix(1_000)[::3]
    assert decode(codes[::-1], "\u03b1\u03b2") == stream.prefix(1_000)[::-1].translate({120: 945, 121: 946})


def test_decode_rejects_codes_without_a_letter():
    with pytest.raises(ValueError):
        decode(np.array([0, 2], dtype=np.uint8), "xy")
    with pytest.raises(TypeError, match="uint8"):
        decode(np.array([0, 1]), "xy")


def test_encode_needs_between_1_and_255_letters():
    many = [chr(0x100 + i) for i in range(256)]
    assert decode(encode(many[-2], many[:-1]), many[:-1]) == many[-2]
    for letters in ("", many):
        with pytest.raises(ValueError):
            encode("", letters)


# -- cube-freeness --------------------------------------------------------------


def _brute_cube(word):
    n = len(word)
    for i in range(n):
        for p in range(1, (n - i) // 3 + 1):
            if word[i : i + p] == word[i + p : i + 2 * p] == word[i + 2 * p : i + 3 * p]:
                return (i + 1, p)
    return None


def test_cube_free_examples(tm_stream):
    assert is_cube_free(tm_stream.prefix(10_000)).is_cube_free
    check = is_cube_free("xyyyx")
    assert not check.is_cube_free
    assert check.position == 2
    assert check.period == 1
    assert is_cube_free("").is_cube_free
    # every cube-free word gets the same answer object, made once
    assert is_cube_free("xyx") is is_cube_free("") == words.CubeCheck(True)


def _agrees_with_brute(word):
    check = is_cube_free(word)
    brute = _brute_cube(word)
    if brute is None:
        return check.is_cube_free
    return not check.is_cube_free and (check.position, check.period) == brute


@pytest.mark.parametrize(
    "word, expected",
    [
        ("xyxyxyzzz", (1, 2)),  # an earlier period-2 cube beats a later period-1 one
        ("zxyzxyzxyxxx", (1, 3)),
        ("wxyzxyzxyzzz", (2, 3)),  # starts inside the first aligned block
        ("xxxxxx", (1, 1)),  # same start: the smallest period
        ("xyzyzyzx", (2, 2)),
        ("αβγαβγαβγ", (1, 3)),
        ("x\nx\nx\n", (1, 2)),  # a newline is a letter like any other
    ],
)
def test_cube_first_position_then_period(word, expected):
    assert _brute_cube(word) == expected
    check = is_cube_free(word)
    assert (check.is_cube_free, check.position, check.period) == (False, *expected)


def test_cube_free_matches_brute_force_on_every_short_word():
    for letters, max_len in (("xy", 12), ("xyz", 7)):
        for n in range(max_len + 1):
            for word in map("".join, itertools.product(letters, repeat=n)):
                assert _agrees_with_brute(word), word


CUBE_ALPHABETS = ["xy", "xyzw", "αβγ"]


@given(word=st.sampled_from(CUBE_ALPHABETS).flatmap(lambda a: st.text(alphabet=a, max_size=60)))
@settings(max_examples=600, deadline=None)
def test_cube_free_matches_brute_force(word):
    assert _agrees_with_brute(word)


@given(data=st.data(), alphabet=st.sampled_from(CUBE_ALPHABETS))
@settings(max_examples=300, deadline=None)
def test_planted_cube_matches_brute_force(data, alphabet):
    """Cubes of any period, planted at any offset, beside whatever cubes the
    surrounding letters make."""
    text = st.text(alphabet=alphabet, max_size=20)
    head = data.draw(text)
    u = data.draw(st.text(alphabet=alphabet, min_size=1, max_size=8))
    word = head + u * 3 + data.draw(text)
    assert not is_cube_free(word).is_cube_free
    assert _agrees_with_brute(word)


def test_cube_view_agrees_with_brute_force_on_short_words():
    view = CubeIdealView("xyz")
    for n in range(7):
        for letters in itertools.product("xyz", repeat=n):
            word = "".join(letters)
            assert view.is_zero_monomial(word) == (_brute_cube(word) is not None), word


# -- complexity ------------------------------------------------------------------


@given(n=st.integers(0, 8))
@settings(max_examples=20, deadline=None)
def test_automaton_agrees_with_naive_counts(n, tm_stream):
    text = tm_stream.prefix(400)
    automaton = SuffixAutomaton(text)
    naive = len({text[i : i + n] for i in range(len(text) - n + 1)}) if n else 1
    assert automaton.factor_counts(n)[n] == naive


# -- exact factor counts ---------------------------------------------------------

MORPHISM_SPECS = sorted((Path(__file__).resolve().parent.parent / "morphisms").glob("*.morph"))


def _naive_counts(text, k):
    return [len({text[i : i + n] for i in range(len(text) - n + 1)}) for n in range(k + 1)]


def _thue_morse_complexity(n):
    """Brlek (1989); de Luca & Varricchio (1989): for n >= 3 write
    n - 1 = 2^r + q with 0 < q <= 2^r."""
    if n < 3:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2**r
    return 3 * 2**r + 4 * q if 2 * q <= 2**r else 4 * 2**r + 2 * q


@pytest.mark.parametrize("spec", MORPHISM_SPECS, ids=lambda p: p.stem)
def test_exact_counts_match_automaton_on_every_bundled_spec(spec):
    m, _ = load_morphism_file(spec)
    starts = [c for c in m.alphabet.letters if is_prolongable(m, c)]
    assert starts
    for start in starts:
        stream = MorphicStream(m, start)
        exact = exact_factor_counts(stream, 48)
        assert exact == SuffixAutomaton(stream.prefix(100_000)).factor_counts(48)


@given(period=st.text(alphabet="xyz", min_size=1, max_size=7), k=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_exact_counts_of_periodic_words_match_naive_counts(period, k):
    text = period * (k + 2)
    assert exact_factor_counts(PeriodicStream(period), k) == _naive_counts(text, k)


def test_exact_counts_match_the_thue_morse_closed_form(tm_stream):
    counts = exact_factor_counts(tm_stream, 1024)
    assert counts == [_thue_morse_complexity(n) for n in range(1025)]
    assert counts[:8] == [1, 2, 4, 6, 10, 12, 16, 20]


def test_covering_words_are_factors_of_the_word(sub_xyz):
    text = MorphicStream(sub_xyz, "x").prefix(100_000)
    words_ = [decode(codes, "xyz") for codes in covering_codes(MorphicStream(sub_xyz, "x"), 16)]
    assert words_ and all(w in text for w in words_)


@st.composite
def primitive_morphisms(draw):
    """Primitive morphisms over 2-3 letters with images of 1-3 letters,
    prolongable on x (no image is empty, so no letter is mortal)."""
    letters = "xyz"[: draw(st.integers(2, 3))]
    images = {c: draw(st.text(alphabet=letters, min_size=1, max_size=3)) for c in letters}
    images["x"] = "x" + draw(st.text(alphabet=letters, min_size=1, max_size=2))
    m = make_morphism(letters, **images)
    assume(is_primitive(m))
    return m


def _two_windows(covers, letters):
    return set().union(*(_naive_factors(decode(codes, letters), 2) for codes in covers))


@given(m=primitive_morphisms(), k=st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_covering_codes_are_the_iterated_images_of_every_2_factor(m, k):
    # the oracle iterates f on text; the letters are in alphabetical order,
    # so sorted text is sorted codes
    letters = m.alphabet.letters
    pairs = _naive_factors(MorphicStream(m, "x").prefix(100_000), 2)
    j = 0
    while min(len(m.iterate(c, j)) for c in letters) < k:
        j += 1
    covers = covering_codes(MorphicStream(m, "x"), k)
    assert [codes.tolist() for codes in covers] == [encode(m.iterate(ac, j), letters).tolist() for ac in sorted(pairs)]
    assert _two_windows(covers, letters) == pairs


@given(period=st.text(alphabet="xyz", min_size=1, max_size=7), k=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_covering_codes_of_a_periodic_word_repeat_its_period(period, k):
    stream = PeriodicStream(period)
    letters = stream.alphabet.letters
    covers = covering_codes(stream, k)
    assert [codes.tolist() for codes in covers] == [encode(period * (-(-k // len(period)) + 1), letters).tolist()]
    if k >= 2:  # shorter covers need not hold every 2-factor
        assert _two_windows(covers, letters) == _naive_factors(stream.prefix(100_000), 2)


def test_exact_counts_need_a_primitive_morphism_or_a_period():
    # |f^k(y)| stays 1, so no power of f covers the factors of length 2
    with pytest.raises(ValueError):
        exact_factor_counts(MorphicStream(make_morphism("xy", x="xy", y="y"), "x"), 4)
    with pytest.raises(ValueError):
        exact_factor_counts(words.PrefixStream(Alphabet(("x",))), 4)


# -- spec files ----------------------------------------------------------------


def test_parse_morphism_spec_roundtrip(sub_xy):
    text = "x y\nx -> xy\ny -> yyx\nweights: 1 2\n"
    m, weights = parse_morphism_spec(text)
    assert m == sub_xy
    assert weights == (1, 2)
    assert words.format_morphism_spec(m, weights) == text


def test_parse_morphism_spec_empty_image_and_tolerance():
    m, weights = parse_morphism_spec("  x   y \n x ->  xy \n\n y ->  _ \n")
    assert m.images == {"x": "xy", "y": ""}
    assert weights is None


@pytest.mark.parametrize("lines, message", [
    ("x -> xy\nx -> yx\ny -> yyx\n", "duplicate image line for letter 'x'"),
    ("x -> xy\ny -> yyx\nweights: 1 2\nweights: 2 1\n", "duplicate weights line"),
], ids=["image", "weights"])
def test_parse_morphism_spec_rejects_repeated_lines(lines, message):
    # a repeated line would otherwise overwrite the first without notice
    with pytest.raises(ValueError, match=message):
        parse_morphism_spec("x y\n" + lines)


def test_parse_morphism_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_morphism_spec("")
    with pytest.raises(ValueError):
        parse_morphism_spec("x y\nx = xy\ny -> yx")
    with pytest.raises(ValueError):
        parse_morphism_spec("x y\nxy -> x\ny -> yx")
