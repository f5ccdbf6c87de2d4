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
from .words import Alphabet, Morphism, MorphicStream, PrefixStream, make_morphism

ENUMERATION_ORDER = "sum-length-lex"


# rows of a sum-block handled at once: only the block's sorted cut masks
# (four bytes a row, and the sort's int64 order while it runs) grow with the
# block, not its parts, part ends or unpacked units
SLICE_ROWS = 2**13


def _block(total: int, odd: int):
    """The compositions of ``total`` in (length, lex) order, at most
    ``SLICE_ROWS`` at a time: for each slice, the length of every part, one
    byte each, and the priming bit of every unit of its rows (one uint8 each)
    when ``odd`` says whether an odd number of parts came before the block.

    A composition is the bitmask of its cut points, the top bit standing for
    cut point 1; within one length, lex order is descending mask order.  With
    the row's first unit at bit 31, cut point j sits at unit j's bit, and a
    unit ends a part where the next unit starts one and at the end of its
    row, so the mask shifted left by one with its low bit set marks every
    part end.  A unit is primed iff an odd number of part ends come before
    it.  Within its row, that is the xor of the cut bits at and above its
    own, which five shift-xors leave in its bit; each row is then flipped by
    the parity of the parts before it, a composition of c cuts holding c + 1.
    """
    masks = np.arange(2 ** (total - 1) - 1, -1, -1, dtype=np.uint32)
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    masks <<= 32 - total  # the row's first unit is bit 31
    for lo in range(0, masks.size, SLICE_ROWS):
        rows = masks[lo : lo + SLICE_ROWS]
        cuts = np.bitwise_count(rows)
        ends = np.flatnonzero(_unpacked_rows(rows << 1 | 1 << (32 - total), total).view(bool))
        parts = np.diff(ends, prepend=-1).astype(np.uint8)
        primed = rows.copy()
        for shift in (1, 2, 4, 8, 16):
            primed ^= primed >> shift
        flips = np.empty(cuts.size, dtype=np.uint8)  # parity of the parts before each row
        flips[0] = odd
        np.bitwise_and(~cuts[:-1], 1, out=flips[1:])
        np.bitwise_xor.accumulate(flips, out=flips)
        np.invert(primed, out=primed, where=flips.view(bool))
        odd = int(flips[-1] ^ ~cuts[-1] & 1)  # parity of the parts before the next slice
        yield parts, _unpacked_rows(primed, total)


def _unpacked_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """The top ``width`` bits of each uint32, top first, one uint8 each, row
    after row."""
    return np.unpackbits(rows.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1, count=width).ravel()


# the largest sum-block: its cut masks are uint32 and its parts one byte each
MAX_BLOCK = 32


class UniversalSequence:
    """Increasing integers n_0 = 0 < n_1 < ... whose consecutive differences are
    the concatenation of every finite positive-integer sequence, enumerated by
    (sum, length, lex).  Reproducible bit for bit.

    ``_values`` holds n_0 = 0 and then the parts n_i - n_(i-1), one byte
    each, whose running sums are the terms.  It is pulled one sum-block (all
    compositions of one sum) at a time, a bounded slice of rows at a time
    (``_block``), so no array of terms or of a block's parts is ever built.
    The same pull stores the priming bit of every unit u = 0, 1, ...,
    n_last - 1 (odd iff an odd number of terms n_1, n_2, ... are <= u) in
    ``_primed``, eight to a byte, top bit first, which only ``primed`` reads.
    Sum-blocks past ``MAX_BLOCK`` raise OverflowError.
    """

    order_tag = ENUMERATION_ORDER

    def __init__(self):
        self._values = bytearray(1)  # n_0 = 0, then one part per term
        self._primed = bytearray()
        self._units = 0  # n_last, the units pulled so far
        self._blocks = 0  # sum-blocks pulled so far

    def _pull(self):
        if self._blocks >= MAX_BLOCK:
            raise OverflowError(f"sum-block {self._blocks + 1} is past the largest, {MAX_BLOCK}")
        self._blocks += 1
        for parts, primed in _block(self._blocks, (len(self._values) - 1) & 1):
            self._values.extend(parts)
            # top up the last byte, which holds units % 8 bits, then append whole bytes
            head = -self._units % 8
            if head:
                self._primed[-1] |= int(np.packbits(primed[:head])[0]) >> (8 - head)
            self._primed.extend(np.packbits(primed[head:]))
            self._units += primed.size

    def primed(self, start: int, stop: int) -> np.ndarray:
        """The priming bits of units [start, stop), one uint8 each, in a new array."""
        if start < 0:
            raise ValueError("positions must be nonnegative")
        stop = max(stop, start)
        while self._units < stop:
            self._pull()
        skip = start % 8  # the bits from the byte that holds unit ``start``
        packed = np.frombuffer(self._primed, np.uint8, (skip + stop - start + 7) // 8, start // 8)
        return np.unpackbits(packed, count=skip + stop - start)[skip:]

    def ensure_terms(self, count: int):
        """Materialize n_0 .. n_count."""
        if count < 0:
            raise ValueError("term counts and positions must be nonnegative")
        while len(self._values) <= count:
            self._pull()

    def _parts(self, count: int) -> np.ndarray:
        """n_0 and the first ``count`` parts, a view of ``_values``."""
        self.ensure_terms(count)
        return np.frombuffer(self._values, np.uint8, count + 1)

    def value(self, i: int) -> int:
        return int(self._parts(i).sum(dtype=np.int64))

    def values(self, count: int) -> tuple[int, ...]:
        return tuple(np.cumsum(self._parts(count), dtype=np.int64).tolist())

    def differences(self, count: int) -> tuple[int, ...]:
        """n_1 - n_0, ..., n_count - n_(count-1)."""
        return tuple(self._parts(count)[1:].tolist())


def locate_pattern(seq: UniversalSequence, pattern, parity: int | None = None) -> int:
    """Smallest m with pattern equal to the differences at positions m+1..m+len.

    ``parity`` restricts the search to even (0) or odd (1) m; the sequence is
    extended on demand, so the search always terminates.  It searches the
    stored parts as bytes, and an entry above ``MAX_BLOCK``, which first
    occurs in a later sum-block, raises OverflowError.
    """
    pattern = tuple(int(a) for a in pattern)
    if not pattern or any(a < 1 for a in pattern):
        raise ValueError("pattern must be a nonempty sequence of positive integers")
    if parity not in (None, 0, 1):
        raise ValueError("parity must be None, 0 or 1")
    if max(pattern) > MAX_BLOCK:
        raise OverflowError(f"pattern entry {max(pattern)} first occurs past sum-block {MAX_BLOCK}")
    needle = bytes(pattern)
    seq.ensure_terms(len(needle))
    start = 1  # the part of n_m+1 sits at index m + 1; index 0 is n_0
    while True:
        parts = seq._values
        hit = parts.find(needle, start)
        while hit != -1 and parity is not None and hit % 2 == parity:
            hit = parts.find(needle, hit + 1)
        if hit != -1:
            return hit - 1
        start = max(start, len(parts) - len(needle) + 1)
        seq.ensure_terms(len(parts))  # one more sum-block, about twice the terms


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
    """Prefixes of the interleaved word over the doubled alphabet, stored
    nowhere: ``codes`` adds the base word's codes and |A| times the priming
    bits of the range asked for, which the base stream and the sequence hold."""

    def __init__(self, spec: InterleaveSpec):
        super().__init__(spec.alphabet)
        self.spec = spec

    def codes(self, start: int, stop: int) -> np.ndarray:
        """The codes of the letters at 0-based positions [start, stop), a new array."""
        base = self.spec.base.codes(start, stop)
        codes = self.spec.sequence.primed(start, start + base.size)
        # the doubled alphabet lists each primed companion |A| places after its letter
        codes *= self.spec.base.alphabet.size
        codes += base
        return codes


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
