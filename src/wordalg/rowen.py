"""Thue-Morse banded operators: words at finite truncation, exact nilpotency.

The two degree-one generators are superdiagonal 0/1 matrices: one carries the
Thue-Morse bits, the other their complements.  A word in the generators is
supported on a single superdiagonal whose entries are products of bits, so a
word evaluates to zero exactly when the corresponding letter pattern never
occurs in the Thue-Morse word.  All arithmetic is exact integer arithmetic
(int64, with every operation checked against an exact bound on its result).
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
# banded matrices


_INT64_LIMIT = 2**63


def _check_bound(bound: int, what: str):
    """Raise unless every entry of a result is bounded in magnitude by ``bound`` < 2^63."""
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"band matrix {what} could exceed int64")


class BandMatrix:
    """Square integer matrix supported on upper diagonals.

    ``diags`` maps offset k >= 0 to the vector of entries (i, i+k) for
    i = 1..size-k.  Entries are exact int64: sums, scalings and products raise
    OverflowError unless a bound on each result entry stays below 2^63.
    """

    __slots__ = ("size", "diags", "_max_abs")

    def __init__(self, size: int, diags):
        if size < 1:
            raise ValueError("size must be positive")
        store: dict[int, np.ndarray] = {}
        max_abs = 0
        for k, vec in diags.items():
            if not 0 <= k < size:
                raise ValueError(f"diagonal offset {k} out of range for size {size}")
            arr = np.asarray(vec, dtype=np.int64)
            if arr.shape != (size - k,):
                raise ValueError(f"diagonal {k} must have length {size - k}")
            hi, lo = int(arr.max()), int(arr.min())
            if hi or lo:
                store[k] = arr
                max_abs = max(max_abs, hi, -lo)
        self.size = size
        self.diags = store
        self._max_abs = max_abs

    @classmethod
    def zero(cls, size: int) -> "BandMatrix":
        return cls(size, {})

    @classmethod
    def identity(cls, size: int) -> "BandMatrix":
        return cls(size, {0: np.ones(size, dtype=np.int64)})

    def diagonal(self, k: int) -> np.ndarray:
        if k in self.diags:
            return self.diags[k].copy()
        return np.zeros(self.size - k, dtype=np.int64)

    def entry(self, i: int, j: int) -> int:
        """1-based entry (i, j)."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError("entry out of range")
        k = j - i
        if k < 0 or k not in self.diags:
            return 0
        return int(self.diags[k][i - 1])

    def is_zero(self) -> bool:
        return not self.diags

    def nnz(self) -> int:
        return int(sum(np.count_nonzero(v) for v in self.diags.values()))

    def max_abs(self) -> int:
        return self._max_abs

    def __eq__(self, other):
        if not isinstance(other, BandMatrix) or self.size != other.size:
            return NotImplemented
        keys = set(self.diags) | set(other.diags)
        return all(np.array_equal(self.diagonal(k), other.diagonal(k)) for k in keys)

    def __add__(self, other):
        self._check(other)
        _check_bound(self.max_abs() + other.max_abs(), "sum")
        out = {}
        for k in set(self.diags) | set(other.diags):
            out[k] = self.diagonal(k) + other.diagonal(k)
        return BandMatrix(self.size, out)

    def scaled(self, c: int) -> "BandMatrix":
        if c == 0:
            return BandMatrix.zero(self.size)
        _check_bound(self.max_abs() * abs(int(c)), "scaling")
        return BandMatrix(self.size, {k: v * int(c) for k, v in self.diags.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        self._check(other)
        # an entry of diagonal k sums one product per pair k1 + k2 = k
        terms = min(len(self.diags), len(other.diags))
        _check_bound(self.max_abs() * other.max_abs() * terms, "product")
        out: dict[int, np.ndarray] = {}
        n = self.size
        for k1, d1 in self.diags.items():
            for k2, d2 in other.diags.items():
                k = k1 + k2
                if k >= n:
                    continue
                length = n - k
                prod = d1[:length] * d2[k1 : k1 + length]
                if k in out:
                    out[k] = out[k] + prod
                else:
                    out[k] = prod
        return BandMatrix(n, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "BandMatrix":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = BandMatrix.identity(self.size)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base_needed = exponent >> 1
            if base_needed:
                base = base * base
            exponent = base_needed
        return result

    def _check(self, other):
        if not isinstance(other, BandMatrix) or other.size != self.size:
            raise ValueError("band matrices must have equal size")


def _word_diagonal(word: str, n: int, bits: np.ndarray) -> np.ndarray:
    """Superdiagonal len(word) of a word over {x, y} at truncation n > len(word):
    entry t is the product over j of bit t+j (letter y) or its complement
    (letter x), read from ``bits`` = m_1..m_{n-1}."""
    length = len(word)
    vec = np.ones(n - length, dtype=np.int64)
    for j, ch in enumerate(word):
        letter = bits[j : j + n - length]
        vec *= letter if ch == "y" else 1 - letter
    return vec


def build_generators(n: int) -> tuple[BandMatrix, BandMatrix]:
    """Truncated generators: bit m_i at (i, i+1) for the first, 1-m_i for the second."""
    if n < 2:
        raise ValueError("truncation must be at least 2")
    bits = THUE_MORSE.bits(n - 1)
    return tuple(BandMatrix(n, {1: _word_diagonal(letter, n, bits)}) for letter in "yx")


# ---------------------------------------------------------------------------
# word evaluation


def _check_word_letters(word: str):
    for c in word:
        if c not in WORD_LETTERS:
            raise ValueError(f"word letters must be in {WORD_LETTERS}, got {c!r}")


def evaluate_word(word: str, n: int, margin: int = DEFAULT_MARGIN) -> BandMatrix:
    """Image of a word over {x, y} (y -> bit generator, x -> complement) at
    truncation n.  Requires n > len(word) + margin so the probed band cannot be
    an artifact of the truncation."""
    _check_word_letters(word)
    if n <= len(word) + margin:
        raise MarginTooSmallError(
            f"need truncation > {len(word) + margin} for a word of length {len(word)}"
        )
    return BandMatrix(n, {len(word): _word_diagonal(word, n, THUE_MORSE.bits(n - 1))})


def coefficient(word: str, t: int) -> int:
    """Product of bits/complements along the word starting at index t: equals the
    (t, t+len) entry of the evaluated word.  Reads the bits by popcount, so it
    is independent of the bit cache."""
    _check_word_letters(word)
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


def _element_operator(words_int: dict[str, int], n: int) -> BandMatrix:
    """Image of a homogeneous element over a, b at truncation n: one superdiagonal
    whose entries are sums of c times 0 or 1, so sum |c| bounds them exactly."""
    _check_bound(sum(abs(c) for c in words_int.values()), "element")
    degree = len(next(iter(words_int)))
    if degree >= n:
        return BandMatrix.zero(n)
    bits = THUE_MORSE.bits(n - 1)
    acc = np.zeros(n - degree, dtype=np.int64)
    for word, c in words_int.items():
        acc += c * _word_diagonal(word.translate(AB_TO_WORD), n, bits)
    return BandMatrix(n, {degree: acc})


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
    words_int = {w + side: c for w, c in _element_words(element).items()}
    stride = len(next(iter(words_int)))
    j = (stride - 1).bit_length()  # least j with 2^j >= s
    while True:
        size = 8 << j
        if size > NILPOTENCY_PREFIX_CAP:
            raise IndexExceedsTruncationError(
                f"the nilpotency index needs more than {NILPOTENCY_PREFIX_CAP} Thue-Morse bits"
            )
        p = _element_operator(words_int, size + 1)  # reads bits 1..size
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


def growth_profile(n_values, horizon: int, stream: PrefixStream | None = None) -> GrowthProfile:
    """Cumulative distinct-factor counts with the quadratic-band check: for each n
    in the sample, cumulative(2n)/cumulative(n) must lie in [3.5, 4.5].

    The counts are exact (``exact_factor_counts``), so the stream must be the
    fixed point of a primitive morphism or periodic; it defaults to the
    Thue-Morse word.  ``horizon`` does not bound them; it is still checked,
    so every input keeps its exit code."""
    n_values = tuple(int(v) for v in n_values)
    if not n_values or any(v < 1 for v in n_values):
        raise ValueError("n_values must be positive")
    max_needed = 2 * max(n_values)
    if horizon < 4 * max_needed:
        raise ValueError("horizon too small for complexity stabilization at max n")
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
