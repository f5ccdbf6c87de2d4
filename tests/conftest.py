import pytest

from wordalg import interleave, rowen, words


@pytest.fixture(scope="session")
def sub_xy():
    return words.make_morphism("xy", x="xy", y="yyx")


@pytest.fixture(scope="session")
def sub_xyz():
    return words.make_morphism("xyz", x="xyz", y="zx", z="yz")


@pytest.fixture(scope="session")
def tm_morphism():
    return words.make_morphism("xy", x="xy", y="yx")


@pytest.fixture(scope="session")
def xy_stream(sub_xy):
    return words.MorphicStream(sub_xy, "x")


@pytest.fixture(scope="session")
def tm_stream(tm_morphism):
    return words.MorphicStream(tm_morphism, "y")


@pytest.fixture(scope="session")
def tilde_stream(xy_stream):
    spec = interleave.InterleaveSpec(xy_stream, interleave.UniversalSequence())
    return interleave.InterleaveStream(spec)


@pytest.fixture(scope="session")
def truncated_nilpotency_index():
    """Band-power index of element * generator at truncation n, the search that
    ``rowen.nilpotency_index`` replaced; it asserts that no power it reads
    comes within ``margin`` of the truncation band."""

    def index(element, side, n, margin=rowen.DEFAULT_MARGIN):
        words = {(w + side).translate(rowen.AB_TO_WORD): c for w, c in rowen._element_words(element).items()}
        stride = len(next(iter(words)))
        p = rowen._band(words, n)
        power, k = p, 1
        while True:
            assert k * stride + margin < n, f"power {k} reached the truncation band at {n}"
            if power.is_zero():
                return k
            power, k = power * p, k + 1

    return index
