"""Thue-Morse operators on one superdiagonal: words at finite truncation, exact nilpotency.

The two degree-one generators are superdiagonal 0/1 matrices: one carries the
Thue-Morse bits, the other their complements.  A word in the generators, and
any homogeneous element, lies on the single superdiagonal of its degree, so
``BandMatrix`` holds one diagonal and ``_band`` builds every one of them.  The
entries of a word are products of bits, so a word evaluates to zero exactly
when the corresponding letter pattern never occurs in the Thue-Morse word.
All arithmetic is exact integer arithmetic (int64, with every operation
checked against an exact bound on its result).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

import numpy as np

from .words import FactorIndex, MorphicStream, PrefixStream, covering_words, decode, exact_factor_counts, make_morphism

DEFAULT_MARGIN = 64

WORD_LETTERS = ("x", "y")  # word letter y maps to the bit generator, x to its complement

# the element letters a (bit generator) and b (complement) as word letters
AB_TO_WORD = str.maketrans("ab", "yx")


class MarginTooSmallError(ValueError):
    """The truncation is too small to decide zero/nonzero for this word length."""


class IndexExceedsTruncationError(RuntimeError):
    """The nilpotency search needs more than NILPOTENCY_PREFIX_CAP bits; inconclusive."""


def thue_morse_bit(i: int) -> int:
    """1 if i-1 has an even number of binary ones, else 0 (i >= 1)."""
    if i < 1:
        raise ValueError("indices start at 1")
    return 1 - ((i - 1).bit_count() & 1)


class ThueMorseSequence:
    """Bit oracle m_1, m_2, ... with a doubling cache; bit 1 <-> letter y, 0 <-> x."""

    def __init__(self):
        self._bits = np.array([1], dtype=np.uint8)

    def bits(self, n: int) -> np.ndarray:
        """The first n bits m_1..m_n as a uint8 array of 0s and 1s."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        while self._bits.size < n:
            self._bits = np.concatenate([self._bits, 1 - self._bits])
        return self._bits[:n]

    def word_prefix(self, n: int) -> str:
        return decode(self.bits(n), WORD_LETTERS)  # each bit is the position of its letter


THUE_MORSE = ThueMorseSequence()


def tm_morphism():
    return make_morphism("xy", x="xy", y="yx")


def tm_word_stream() -> MorphicStream:
    """The Thue-Morse word over {x, y} starting with y, as a prefix stream."""
    return MorphicStream(tm_morphism(), "y")


# ---------------------------------------------------------------------------
# one-superdiagonal matrices


_INT64_LIMIT = 2**63


def _check_bound(bound: int, what: str):
    """Raise unless every entry of a result is bounded in magnitude by ``bound`` < 2^63."""
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"band matrix {what} could exceed int64")


class BandMatrix:
    """Square integer matrix supported on at most one upper diagonal.

    ``diags`` is empty for the zero matrix; otherwise it maps the one offset
    k >= 0 to the vector of entries (i, i+k) for i = 1..size-k.  A product of
    two such matrices is again one diagonal, each entry a single product, so
    the operators of the Thue-Morse words and elements never need more.
    Entries are exact int64: sums and products raise OverflowError unless a
    bound on each result entry stays below 2^63.
    """

    __slots__ = ("size", "diags", "_max_abs")

    def __init__(self, size: int, offset: int, vec):
        if not 0 <= offset < size:
            raise ValueError(f"diagonal offset {offset} out of range for size {size}")
        arr = np.asarray(vec, dtype=np.int64)
        if arr.shape != (size - offset,):
            raise ValueError(f"diagonal {offset} must have length {size - offset}")
        hi, lo = int(arr.max()), int(arr.min())
        self.size = size
        self.diags = {offset: arr} if hi or lo else {}
        self._max_abs = max(hi, -lo)

    @classmethod
    def zero(cls, size: int) -> "BandMatrix":
        """The zero matrix: an all-zero diagonal is stored as none."""
        return cls(size, size - 1, [0])

    def is_zero(self) -> bool:
        return not self.diags

    def nnz(self) -> int:
        return int(sum(np.count_nonzero(v) for v in self.diags.values()))

    def max_abs(self) -> int:
        return self._max_abs

    def __eq__(self, other):
        if not isinstance(other, BandMatrix) or self.size != other.size:
            return NotImplemented
        return self.diags.keys() == other.diags.keys() and all(
            np.array_equal(v, other.diags[k]) for k, v in self.diags.items()
        )

    def __add__(self, other):
        """Sum of two bands on the same diagonal, or of a band and zero."""
        self._check(other)
        if not (self.diags and other.diags):
            return other if self.is_zero() else self
        ((k1, d1),), ((k2, d2),) = self.diags.items(), other.diags.items()
        if k1 != k2:
            raise ValueError(f"bands on diagonals {k1} and {k2} have no one-diagonal sum")
        _check_bound(self._max_abs + other._max_abs, "sum")
        return BandMatrix(self.size, k1, d1 + d2)

    def __mul__(self, other):
        """Entry (i, i+k1+k2) of the product is the one product of (i, i+k1)
        and (i+k1, i+k1+k2): a shifted elementwise product."""
        self._check(other)
        _check_bound(self._max_abs * other._max_abs, "product")
        n = self.size
        if not (self.diags and other.diags):
            return BandMatrix.zero(n)
        ((k1, d1),), ((k2, d2),) = self.diags.items(), other.diags.items()
        if k1 + k2 >= n:
            return BandMatrix.zero(n)
        return BandMatrix(n, k1 + k2, d1[: n - k1 - k2] * d2[k1:])

    def __pow__(self, exponent: int) -> "BandMatrix":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = BandMatrix(self.size, 0, np.ones(self.size, dtype=np.int64))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def _check(self, other):
        if not isinstance(other, BandMatrix) or other.size != self.size:
            raise ValueError("band matrices must have equal size")


def _band(words: dict[str, int], n: int) -> BandMatrix:
    """The operator at truncation n of the homogeneous integer combination
    sum c * word of words over {x, y} (y -> bit generator, x -> complement).
    It lies on superdiagonal s, the degree, and its entry t sums c times the
    product over j < s of bit t+j (letter y) or its complement (letter x),
    read from m_1..m_{n-1}.  Each product is 0 or 1, so sum |c| bounds the
    entries exactly."""
    for word in words:
        if set(word) - set(WORD_LETTERS):
            raise ValueError(f"word letters must be in {WORD_LETTERS}, got {word!r}")
    _check_bound(sum(abs(c) for c in words.values()), "element")
    degree = len(next(iter(words)))
    if degree >= n:
        return BandMatrix.zero(n)
    bits = THUE_MORSE.bits(n - 1)
    acc = np.zeros(n - degree, dtype=np.int64)
    for word, c in words.items():
        vec = np.full(n - degree, c, dtype=np.int64)
        for j, ch in enumerate(word):
            letter = bits[j : j + n - degree]
            vec *= letter if ch == "y" else 1 - letter
        acc += vec
    return BandMatrix(n, degree, acc)


def build_generators(n: int) -> tuple[BandMatrix, BandMatrix]:
    """Truncated generators: bit m_i at (i, i+1) for the first, 1-m_i for the second."""
    if n < 2:
        raise ValueError("truncation must be at least 2")
    return _band({"y": 1}, n), _band({"x": 1}, n)


# ---------------------------------------------------------------------------
# word evaluation


def evaluate_word(word: str, n: int, margin: int = DEFAULT_MARGIN) -> BandMatrix:
    """Image of a word over {x, y} (y -> bit generator, x -> complement) at
    truncation n.  Requires n > len(word) + margin so the probed band cannot be
    an artifact of the truncation."""
    if n <= len(word) + margin:
        raise MarginTooSmallError(
            f"need truncation > {len(word) + margin} for a word of length {len(word)}"
        )
    return _band({word: 1}, n)


def coefficient(word: str, t: int) -> int:
    """Product of bits/complements along the word starting at index t: equals the
    (t, t+len) entry of the evaluated word.  Reads the bits by popcount, so it
    is independent of the bit cache."""
    if set(word) - set(WORD_LETTERS):
        raise ValueError(f"word letters must be in {WORD_LETTERS}, got {word!r}")
    if t < 1:
        raise ValueError("indices start at 1")
    return int(all(thue_morse_bit(t + j) == (ch == "y") for j, ch in enumerate(word)))


def _vanishing_factor(word: str, n: int) -> MarginTooSmallError:
    return MarginTooSmallError(
        f"{word} is a factor of the Thue-Morse word but vanishes at truncation {n}: "
        "it first occurs past the truncation"
    )


def vanishing_matches_factor(word: str, evaluated: BandMatrix) -> bool:
    """True when ``evaluated``, the word's ``evaluate_word`` image, is zero
    exactly when the word is not a factor of the Thue-Morse word.  A factor
    that is zero first occurs past the truncation, which raises
    MarginTooSmallError."""
    if not word:
        raise ValueError("word must be nonempty")
    zero = evaluated.is_zero()
    factor = word in FactorIndex(covering_words(tm_word_stream(), len(word)), WORD_LETTERS)
    if zero and factor:
        raise _vanishing_factor(word, evaluated.size)
    return zero != factor


@dataclass(frozen=True)
class CorrespondenceReport:
    max_len: int
    truncation: int
    checked: int
    mismatches: tuple[str, ...]

    @property
    def all_agree(self) -> bool:
        return not self.mismatches


def correspondence_scan(max_len: int, n: int, margin: int = DEFAULT_MARGIN) -> CorrespondenceReport:
    """Compare zero-evaluation with factor absence for every word of length
    <= max_len.  Entry t of a word's band is the product of its letters read
    at bits t+1, t+2, ..., so the nonzero words of length L are the length-L
    windows of the first n-1 bits; the factors are exact (``covering_words``).
    A nonzero word that is not a factor is a mismatch; a factor that is zero
    raises MarginTooSmallError."""
    limit = FactorIndex("", WORD_LETTERS).packed_limit
    if not 1 <= max_len <= limit:
        raise ValueError(f"max_len must be between 1 and {limit}, got {max_len}")
    if n <= max_len + margin:
        raise MarginTooSmallError(f"need truncation > {max_len + margin}")
    nonzero = FactorIndex(THUE_MORSE.word_prefix(n - 1), WORD_LETTERS)
    factors = FactorIndex(covering_words(tm_word_stream(), max_len), WORD_LETTERS)
    mismatches = []
    for length in range(1, max_len + 1):
        seen, exact = nonzero.of_length(length), factors.of_length(length)
        vanishing = exact - seen
        if vanishing:
            raise _vanishing_factor(min(vanishing), n)
        mismatches += sorted(seen - exact)
    checked = 2 ** (max_len + 1) - 2
    return CorrespondenceReport(max_len, n, checked, tuple(mismatches))


# ---------------------------------------------------------------------------
# nilpotency of homogeneous multiples


NILPOTENCY_PREFIX_CAP = 1 << 20  # Thue-Morse bits the nilpotency search may read


def _element_words(element) -> dict[str, int]:
    """Normalize a homogeneous element over the generator symbols a, b to integer
    coefficients (scaling by a common denominator; nilpotency is unaffected).
    A coefficient is an int or a Fraction; any other type raises TypeError."""
    if isinstance(element, dict):
        coeffs = element
    elif element == 1:
        coeffs = {"": 1}
    else:
        raise ValueError("element must be a dict or 1")
    if not coeffs:
        raise ValueError("element must be nonzero")
    for word, c in coeffs.items():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")
        if set(word) - {"a", "b"}:
            raise ValueError(f"element words must use letters a, b; got {word!r}")
    degrees = {len(w) for w in coeffs}
    if len(degrees) != 1:
        raise ValueError("element must be homogeneous")
    denom = lcm(*(c.denominator for c in coeffs.values()))
    return {w: int(c * denom) for w, c in coeffs.items()}


def nilpotency_index(element, side: str) -> int:
    """Smallest k with (element * generator)^k = 0 on the infinite Thue-Morse
    word.  ``side`` selects the generator: "a" (bits) or "b" (complements).

    With s the degree of element * generator, the k-th power vanishes exactly
    when no factor of length k*s splits into k words with nonzero
    coefficients.  The first 8 * 2^j bits are phi^(j+3)(y), and phi^3(y) =
    yxxyxyyx has all four 2-factors ac, so they hold every covering word
    phi^j(ac) and thus every factor of length <= 2^j (``covering_words``).
    Band powers there that vanish first at k with k*s <= 2^j give the exact
    index; otherwise the prefix grows.  Past NILPOTENCY_PREFIX_CAP bits the
    search raises IndexExceedsTruncationError."""
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    # element * generator: every word of the element gains the side letter
    words = {(w + side).translate(AB_TO_WORD): c for w, c in _element_words(element).items()}
    stride = len(next(iter(words)))
    j = (stride - 1).bit_length()  # least j with 2^j >= s
    while True:
        size = 8 << j
        if size > NILPOTENCY_PREFIX_CAP:
            raise IndexExceedsTruncationError(
                f"the nilpotency index needs more than {NILPOTENCY_PREFIX_CAP} Thue-Morse bits"
            )
        p = _band(words, size + 1)  # reads bits 1..size
        power, k = p, 1
        while not power.is_zero():
            power, k = power * p, k + 1
        if k * stride <= 1 << j:
            return k
        j = (k * stride - 1).bit_length()  # least j with 2^j >= k*s


# ---------------------------------------------------------------------------
# growth


@dataclass(frozen=True)
class GrowthProfile:
    n_values: tuple[int, ...]
    cumulative: tuple[int, ...]          # sum of distinct-factor counts for lengths 0..n
    doubled: tuple[int, ...]             # the same at 2n
    ratios: tuple[float, ...]
    lower_constant: float                # min cumulative(n)/n^2 over the sample
    upper_constant: float                # max cumulative(n)/n^2 over the sample
    quadratic: bool

    def to_record(self) -> dict[str, str]:
        rec = {
            "n_values": ",".join(str(v) for v in self.n_values),
            "cumulative": ",".join(str(v) for v in self.cumulative),
            "cumulative_at_2n": ",".join(str(v) for v in self.doubled),
            "ratios": ",".join(f"{r:.6f}" for r in self.ratios),
            "lower_constant": f"{self.lower_constant:.6f}",
            "upper_constant": f"{self.upper_constant:.6f}",
            "quadratic": "true" if self.quadratic else "false",
        }
        return rec


RATIO_BAND = (3.5, 4.5)


def growth_profile(n_values, stream: PrefixStream | None = None) -> GrowthProfile:
    """Cumulative distinct-factor counts with the quadratic-band check: for each n
    in the sample, cumulative(2n)/cumulative(n) must lie in [3.5, 4.5].

    The counts are exact (``exact_factor_counts``), so the stream must be the
    fixed point of a primitive morphism or periodic; it defaults to the
    Thue-Morse word."""
    n_values = tuple(int(v) for v in n_values)
    if not n_values or any(v < 1 for v in n_values):
        raise ValueError("n_values must be positive")
    max_needed = 2 * max(n_values)
    if stream is None:
        stream = tm_word_stream()
    cumsum = list(accumulate(exact_factor_counts(stream, max_needed)))
    cumulative = tuple(cumsum[v] for v in n_values)
    doubled = tuple(cumsum[2 * v] for v in n_values)
    ratios = tuple(d / c for c, d in zip(cumulative, doubled))
    lo, hi = RATIO_BAND
    quadratic = all(lo <= r <= hi for r in ratios)
    lower_constant = min(c / (v * v) for v, c in zip(n_values, cumulative))
    upper_constant = max(c / (v * v) for v, c in zip(n_values, cumulative))
    return GrowthProfile(
        n_values, cumulative, doubled, ratios, lower_constant, upper_constant, quadratic
    )
