"""Interleaving a base word with a primed copy along a universal difference
sequence.

The universal sequence 0 = n_0 < n_1 < n_2 < ... has the property that every
finite sequence of positive integers occurs as a run of consecutive differences
n_{m+1}-n_m, ...  The interleaved word copies the base word but switches
between the unprimed and primed alphabets at the cut points n_1, n_2, ...:
segment k (covering positions n_{k-1}+1 .. n_k, 1-based) is primed exactly for
even k.  Projecting primes away recovers the base word letter for letter.

Primed companion letters are represented internally by the uppercase letter
(x -> X); the CLI accepts the x' spelling and translates.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .grading import (
    Certificate,
    ScanReport,
    certify_graded_nilpotence,
    graded_nilpotence_scan,
    weight_sum_prefix,  # unused here; kept because perfbench/spans.py wraps it under this name
)
from .monalg import (
    FreenessReport,
    NcPolynomial,
    WordFactorView,
    freeness_check,
    linear_independence,  # unused here; kept because perfbench/spans.py wraps it under this name
    pattern_images,  # unused here; kept because perfbench/spans.py wraps it under this name
)
from .words import PIECE_SIZE, Alphabet, Morphism, MorphicStream, PrefixStream, make_morphism

ENUMERATION_ORDER = "sum-length-lex"


def _block_ends(total: int) -> np.ndarray:
    """The compositions of ``total`` in (length, lex) order, written one after
    the other as rows of ``total`` units: the position of the last unit of
    every part, ascending.

    A composition is the bitmask of its cut points, the top bit standing for
    cut point 1; within one length, lex order is descending mask order.  A
    unit ends a part where the next unit starts one (a cut point) and at the
    end of its row, so the mask shifted left by one with its low bit set marks
    every part end, and its bits, top first, are the row.
    """
    masks = np.arange(2 ** (total - 1) - 1, -1, -1, dtype=np.uint32)
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    masks <<= 1
    masks |= 1
    masks <<= 32 - total  # the row's first unit is bit 31
    rows = np.unpackbits(masks.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1, count=total)
    return np.flatnonzero(rows.view(bool))


class UniversalSequence:
    """Increasing integers n_0 = 0 < n_1 < ... whose consecutive differences are
    the concatenation of every finite positive-integer sequence, enumerated by
    (sum, length, lex).  Reproducible bit for bit.

    Terms are built one sum-block (all compositions of one sum) at a time:
    the terms of a block are the ends of its parts, ``_block_ends`` offset by
    the last term before it, so no block is stored as differences.
    """

    order_tag = ENUMERATION_ORDER

    def __init__(self):
        self._values = array("q", [0])
        self._blocks = 0  # sum-blocks pulled so far

    def _pull(self):
        self._blocks += 1
        ends = _block_ends(self._blocks)
        ends += self._values[-1] + 1  # a part ending at unit u ends at term offset u + 1
        self._values.frombytes(ends.view(np.uint8))

    def ensure_terms(self, count: int):
        """Materialize n_0 .. n_count."""
        while len(self._values) <= count:
            self._pull()

    def value(self, i: int) -> int:
        self.ensure_terms(i)
        return self._values[i]

    def values(self, count: int) -> tuple[int, ...]:
        self.ensure_terms(count)
        return tuple(self._values[: count + 1])

    def differences(self, count: int) -> tuple[int, ...]:
        """n_1 - n_0, ..., n_count - n_(count-1)."""
        self.ensure_terms(count)
        return tuple(np.diff(self._values[: count + 1]).tolist())


def locate_pattern(seq: UniversalSequence, pattern, parity: int | None = None) -> int:
    """Smallest m with pattern equal to the differences at positions m+1..m+len.

    ``parity`` restricts the search to even (0) or odd (1) m; the sequence is
    extended on demand, so the search always terminates.
    """
    pattern = tuple(int(a) for a in pattern)
    if not pattern or any(a < 1 for a in pattern):
        raise ValueError("pattern must be a nonempty sequence of positive integers")
    if parity not in (None, 0, 1):
        raise ValueError("parity must be None, 0 or 1")
    s = len(pattern)
    first, step = (0, 1) if parity is None else (parity, 2)
    count = s  # differences read at once, doubled until the pattern is among them
    while True:
        diffs = seq.differences(count)
        for m in range(first, count - s + 1, step):
            if diffs[m : m + s] == pattern:
                return m
        count *= 2


# ---------------------------------------------------------------------------
# priming


def primed_companion(letter: str) -> str:
    c = letter.upper()
    if c == letter:
        raise ValueError(f"no primed companion available for {letter!r}")
    return c


def primed_alphabet(base: Alphabet) -> tuple[Alphabet, dict[str, str]]:
    """Extend the alphabet with a primed companion for every letter."""
    mapping = {c: primed_companion(c) for c in base.letters}
    if set(mapping.values()) & set(base.letters):
        raise ValueError("primed companions collide with base letters")
    return Alphabet(base.letters + tuple(mapping[c] for c in base.letters)), mapping


def prime_copy(word: str, mapping: dict[str, str]) -> str:
    """Letterwise substitution onto the primed alphabet."""
    return word.translate(str.maketrans(mapping))


def unprime(word: str, mapping: dict[str, str]) -> str:
    """Letterwise projection sending each primed companion back to its base letter."""
    inverse = {v: k for k, v in mapping.items()}
    return word.translate(str.maketrans(inverse))


@dataclass(eq=False)
class InterleaveSpec:
    base: PrefixStream
    sequence: UniversalSequence

    def __post_init__(self):
        self.alphabet, self.mapping = primed_alphabet(self.base.alphabet)


class InterleaveStream(PrefixStream):
    """Prefixes of the interleaved word over the doubled alphabet, grown
    ``PIECE_SIZE`` letters at a time."""

    def __init__(self, spec: InterleaveSpec):
        super().__init__(spec.alphabet)
        self.spec = spec

    def _grow(self) -> np.ndarray:
        seq = self.spec.sequence
        lo, hi = self._length, self._length + PIECE_SIZE
        while seq._values[-1] < hi:
            seq._pull()
        # position lo lies in segment k = #{j : n_j <= lo}; segment k is primed
        # exactly for even k, and each cut point inside the piece flips that
        first = bisect_right(seq._values, lo)
        flips = np.zeros(hi - lo, dtype=np.uint8)
        flips[0] = first % 2 == 0
        flips[np.array(seq._values[first : bisect_left(seq._values, hi, first)]) - lo] = 1
        primed = np.bitwise_xor.accumulate(flips)
        # the doubled alphabet lists each primed companion |A| places after its letter
        primed *= self.spec.base.alphabet.size
        primed += self.spec.base.codes(lo, hi)
        return primed


# ---------------------------------------------------------------------------
# the full construction: certified base word, interleaved word, AP scan and
# freeness of (x + y, X + Y)


def base_morphism() -> Morphism:
    """The binary substitution x -> xy, y -> yyx used as the certified base word."""
    return make_morphism("xy", x="xy", y="yyx")


BASE_START = "x"
BASE_WEIGHTS = (1, 2)


def tilde_stream() -> InterleaveStream:
    """The interleaved word of the construction: the base word's fixed point
    cut along a fresh universal sequence."""
    base = MorphicStream(base_morphism(), BASE_START)
    return InterleaveStream(InterleaveSpec(base, UniversalSequence()))


@dataclass(frozen=True)
class PipelineReport:
    horizon: int
    free_pattern_length: int
    d_max: int
    order_tag: str
    certificate: Certificate
    scan: ScanReport
    sum_sets_equal: bool
    freeness: FreenessReport
    rank_with_identity: int

    @property
    def all_clear(self) -> bool:
        return (
            self.certificate.certified
            and not self.scan.flagged
            and self.sum_sets_equal
            and self.freeness.independent
        )

    def to_record(self) -> dict[str, str]:
        rec = {
            "horizon": str(self.horizon),
            "free_pattern_length": str(self.free_pattern_length),
            "d_max": str(self.d_max),
            "enumeration_order": self.order_tag,
            "all_clear": "true" if self.all_clear else "false",
            "sum_sets_equal": "true" if self.sum_sets_equal else "false",
            "rank_with_identity": str(self.rank_with_identity),
        }
        for k, v in self.certificate.to_record().items():
            rec[f"certificate_{k}"] = v
        for k, v in self.scan.to_record().items():
            rec[f"scan_{k}"] = v
        for k, v in self.freeness.to_record().items():
            rec[f"freeness_{k}" if not k.startswith("freeness") else k] = v
        return rec


def construction_pipeline(
    horizon: int = 1_000_000,
    free_pattern_length: int = 5,
    d_max: int = 6,
) -> PipelineReport:
    """Certify the base word, scan it for growing arithmetic progressions, and
    test freeness of the two mixed generators in the interleaved word.  A
    primed companion weighs what its base letter weighs, so both words have
    the same weight sums at every length and the same AP table; the base word
    has covering words, which settle most degrees at the smallest horizon."""
    if horizon < 100:
        raise ValueError("horizon too small to be meaningful")
    certificate = certify_graded_nilpotence(base_morphism(), BASE_START, BASE_WEIGHTS)

    tilde = tilde_stream()
    spec = tilde.spec

    # weights on the doubled alphabet: primed companions inherit the base weight
    weights = BASE_WEIGHTS + BASE_WEIGHTS
    sums_equal = all(
        weights[spec.alphabet.index(primed)] == weights[spec.alphabet.index(letter)]
        for letter, primed in spec.mapping.items()
    )
    horizons = (max(horizon // 10, 10), horizon)
    scan = replace(graded_nilpotence_scan(spec.base, BASE_WEIGHTS, d_max, horizons), weights=weights)

    view = WordFactorView(tilde, horizon)
    x, y = spec.base.alphabet.letters
    gens = [
        NcPolynomial(view, {x: 1, y: 1}),
        NcPolynomial(view, {spec.mapping[x]: 1, spec.mapping[y]: 1}),
    ]
    freeness = freeness_check(view, gens, free_pattern_length)

    return PipelineReport(
        horizon=horizon,
        free_pattern_length=free_pattern_length,
        d_max=d_max,
        order_tag=spec.sequence.order_tag,
        certificate=certificate,
        scan=scan,
        sum_sets_equal=sums_equal,
        freeness=freeness,
        # neither generator has a constant term, so no image has the empty
        # word in its support and the identity lies outside their span
        rank_with_identity=freeness.rank + 1,
    )
