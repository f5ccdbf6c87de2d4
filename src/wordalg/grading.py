"""Weight-sum sets, arithmetic-progression statistics and the graded-nilpotence
certifier for monomial algebras of morphic words.

The certificate checks, for a primitive morphism prolongable on a start letter,
that the weights are not all equal, that the incidence matrix has determinant
+-1, and that the weight sequence of the iterated decomposition prefix has
greatest common divisor one.  Both of its searches stop by a bound the
morphism gives, not by a cap: for a primitive f on |A| letters every letter
occurs in f^k(c), k = (|A|-1)^2 + 1 (Wielandt), so the start letter reoccurs in
the fixed point; and by Cayley-Hamilton every term of the weight sequence is an
integer combination of the first |A|, so their gcd is the gcd of them all.

The empirical counterpart is the AP scan: an arithmetic progression of
difference D in the weight-sum set that keeps growing with the horizon
witnesses a nonvanishing product of degree-D monomials; ``longest_ap`` finds
the longest by shift-and doubling on the set held as one int.  That int is
the whole set, and no array holds a sum or a weight per letter.  The set of
a concatenation is S(uv) = S(u) | S(v) << W(u), W the weight, so the sets of
a fixed point are composed, not read: with f(s) = s v, the word is
s v f(v) f^2(v) ... (Allouche & Shallit, *Automatic Sequences*, ch. 7), each
f^j(c) is f^(j-1) of the letters of f(c) laid end to end, and the sets,
lengths and weights of level j follow from those of level j - 1
(``_FixedPointSums``; an eventually periodic w's blocks by the stream's own
``Substitution``), with no letter built.  Every other stream's set, and
each covering word's, is packed from a mask of one byte per unit of weight,
laid from the letter codes a piece at a time (``_code_sums``).

The longest AP of difference D at the smallest horizon, m, never exceeds the
supremum over the whole infinite word, the nilpotency index in degree D.  When
the stream's covering words (``words.covering_codes``) show no longer AP, m is
that supremum, so the scan reports m at every horizon without reading the
longer prefixes for that degree.  The scan always builds the smallest
horizon's sums first, and the largest horizon's only when some
degree is left open (always, for a stream without covering words: the fixed
point of a morphism that is not primitive).  Every other horizon's set is cut
from the largest one, at that horizon's prefix weight.  A length that grows
is checked the same way at the largest horizon, and a difference that passes
there is bounded, so it is not flagged.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .words import (
    MorphicStream,
    Morphism,
    NotProlongableError,
    PrefixStream,
    Substitution,
    analyze_morphism,
    check_weights,
    covering_codes,
    encode,
    format_morphism_spec,
    has_covering_words,
    incidence_matrix,
    is_prolongable,
    mat_vec,
    mortal_letters,
    parikh,
)

# AP growth flags: grew by more than this factor between the smallest and the
# largest horizon, and is large in absolute terms.
GROWTH_RATIO = 1.5
GROWTH_FLOOR = 20


@dataclass(frozen=True, eq=False)
class WeightSumSet:
    """Partial sums s_0 = 0, s_i = s_{i-1} + weight(letter_i) along a prefix, held
    as one int, without the weights: bit v is set iff v is a weight sum (bit 0 always is)."""

    bits: int

    @property
    def max_value(self) -> int:
        return self.bits.bit_length() - 1


def _weight(codes: np.ndarray, weights: tuple[int, ...]) -> int:
    """Total weight of the letter codes ``codes``, letter i weighing weights[i]."""
    return sum(int(np.count_nonzero(codes == i)) * w for i, w in enumerate(weights))


def _check_total(total: int, n: int):
    """Raises OverflowError when a total weight of n letters does not fit in int64."""
    if total >= 2**63:
        raise OverflowError(f"total weight {total} of {n} letters exceeds int64")


def _code_sums(codes: np.ndarray, weights: tuple[int, ...]) -> WeightSumSet:
    """Weight-sum set of the letter codes ``codes``, letter i weighing weights[i].

    Byte v of its mask is 1 iff v is a weight sum, so the mask is the image
    of ``codes`` under the ``Substitution`` c -> 1 0^(w_c - 1), followed by a
    final 1, packed to bits.  It is built a piece at a time, the images of
    one substitution ``step`` of letters.  Images are cut at the mask's length,
    so neither a piece nor an image outgrows the mask, and no array holds a
    value per letter.  This is the set of every stream but a fixed point, and
    of the covering words.  Raises OverflowError when the total weight does
    not fit in int64, and MemoryError when the mask does not fit in memory."""
    total = _weight(codes, weights)
    _check_total(total, codes.size)
    mask = np.empty(total + 1, dtype=np.uint8)
    # a letter heavier than the whole text does not occur in it
    substitution = Substitution([b"\1".ljust(min(w, total + 1), b"\0") for w in weights])
    end = 0
    for start in range(0, codes.size, substitution.step):
        image = substitution(codes[start : start + substitution.step])
        mask[end : end + image.size] = image
        end += image.size
    mask[end] = 1
    return WeightSumSet(int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little"))


def _power(bits: int, weight: int, k: int) -> int:
    """S(u^k) from S(u) = ``bits`` and W(u) = ``weight``, by doubling: S(u^2m)
    is S(u^m) | S(u^m) << mW, and one more u is S(u) << mW."""
    if k == 0:
        return 1
    power, shift = bits, weight  # S(u^m) and W(u^m), from m = 1
    for digit in bin(k)[3:]:
        power |= power << shift
        shift *= 2
        if digit == "1":
            power |= bits << shift
            shift += weight
    return power


def _join(parts: list[tuple[int, int]]) -> int:
    """S(u_1 u_2 ... u_m) from the pairs (W(u_i), S(u_i)) in order: neighbours
    are joined by S(uv) = S(u) | S(v) << W(u) in a balanced tree, so each bit
    is shifted about log2(m) times, not once per later factor."""
    if not parts:
        return 1
    while len(parts) > 1:
        joined = [(wu + wv, su | sv << wu) for (wu, su), (wv, sv) in zip(parts[::2], parts[1::2])]
        parts = joined + parts[len(joined) * 2 :]
    return parts[0][1]


def _runs(codes) -> list[tuple[int, int]]:
    """(code, count) for each run of equal letter codes, in order."""
    return [(code, len(list(run))) for code, run in itertools.groupby(codes.tolist())]


def _grows(images: list[list[tuple[int, int]]], mortal: set[int], codes: list[int]) -> bool:
    """True iff |f^j(u)| grows without bound for the word u of letter codes
    ``codes``, given the ``_runs`` of each letter's image and the mortal letters.

    The non-mortal letters of f^j(c) are the walks of length j from c in
    the graph of non-mortal letters, d -> e for each e in f(d), where every
    vertex has an edge out.  The walks are unbounded iff c reaches a vertex
    on a cycle with two edges out (one more walk each time around), and so
    are the lengths, since a mortal letter's images die within |A| steps."""
    edges = [[(d, k) for d, k in image if d not in mortal] for image in images]
    reach = []  # letters reachable in one step or more
    for c in range(len(images)):
        seen, todo = set(), [c]
        while todo:
            for d, _ in edges[todo.pop()]:
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        reach.append(seen)
    branching = {e for e in range(len(images)) if e in reach[e] and sum(k for _, k in edges[e]) >= 2}
    return any(branching & ({c} | reach[c]) for c in set(codes))


class _FixedPointSums:
    """Weight sums of the prefixes of a ``MorphicStream``'s fixed point w,
    composed from integers and per-letter sets; no letter of w is built.

    With f(s) = s v, w = s v f(v) f^2(v) ..., and f^j(c) is the f^(j-1) of
    the letters of f(c) laid end to end.  So the length L_j(c), the weight
    W_j(c) and the weight-sum set T_j(c) of f^j(c) follow from level j - 1:
    T_0(c) = 1 | 1 << w_c, and T_j(c) joins the T_(j-1) of f(c)'s letters,
    a run of k equal letters by doubling (``_power``).  L and W are kept for
    every letter up to the deepest level read; a set only where a factor
    asks for it, since some letters grow much faster than the blocks f^j(v)
    (x -> xyz, y -> yz, z -> z: x quadratically, the blocks linearly).

    w[0:n] is s, the whole blocks f^j(v) and a prefix of the next, reached by
    one descent: at each level the whole runs that fit, then the letter that
    does not, one level down.  The blocks grow at least linearly when some
    letter of v grows (``_grows``), so O(sqrt n) of them and as many levels
    are read.  When none grows, w is eventually periodic: its blocks, each
    the stream's ``Substitution`` of the last, repeat from some f^q(v), and
    ``_head`` (s and the blocks before) and ``_period`` (one repeat) are codes.
    """

    def __init__(self, stream: MorphicStream, weights: tuple[int, ...]):
        letters = stream.alphabet.letters
        images = [encode(stream.morphism.images[c], letters) for c in letters]
        self.weights = weights
        self._images = [_runs(image) for image in images]
        self._start = letters.index(stream.start)
        tail = images[self._start][1:]
        self._tail = _runs(tail)
        self._lengths, self._level_weights = [[1] * len(letters)], [list(weights)]
        self._sets: list[dict[int, int]] = [{}]  # T_j(c), by level and letter
        self._period = None
        mortal = {letters.index(c) for c in mortal_letters(stream.morphism)}
        if not _grows(self._images, mortal, tail.tolist()):
            blocks, seen, block = [], {}, tail
            while (key := block.tobytes()) not in seen:
                seen[key] = len(blocks)
                blocks.append(block)
                block = stream._substitution(block)
            self._head = np.concatenate([images[self._start][:1], *blocks[: seen[key]]])
            self._period = np.concatenate(blocks[seen[key] :])

    def weight(self, n: int) -> int:
        """The weight of w[0:n]."""
        return sum(weight for weight, _ in self._plan(n))

    def bits(self, n: int) -> int:
        """The weight-sum set of w[0:n], as one int; raises OverflowError,
        before any set is built, when its weight does not fit in int64."""
        plan = self._plan(n)
        _check_total(sum(weight for weight, _ in plan), n)
        return _join([(weight, build()) for weight, build in plan])

    def _plan(self, n: int) -> list[tuple[int, Callable[[], int]]]:
        """(weight, set builder) of factors of w that make up w[0:n], in order."""
        if self._period is not None:
            head, period = self._head, self._period
            if n <= head.size:
                return [self._word(head[:n])]
            k, rest = divmod(n - head.size, period.size)
            weight = _weight(period, self.weights)
            repeat = (k * weight, lambda: _power(_code_sums(period, self.weights).bits, weight, k))
            return [self._word(head), repeat, self._word(period[:rest])]
        plan = [self._item(0, self._start, 1)] if n else []
        n, runs, j = max(n - 1, 0), self._tail, 0
        while n:  # the whole blocks f^j(v)
            lengths = self._level(j)
            block = sum(k * lengths[d] for d, k in runs)
            if block > n:
                break
            plan += [self._item(j, d, k) for d, k in runs if lengths[d]]
            n, j = n - block, j + 1
        while n:  # one descent into f^j of the runs
            lengths = self._lengths[j]
            for d, k in runs:
                if not lengths[d]:
                    continue
                whole = min(k, n // lengths[d])
                if whole:
                    plan.append(self._item(j, d, whole))
                    n -= whole * lengths[d]
                if whole < k:
                    break
            runs, j = self._images[d], j - 1
        return plan

    def _word(self, codes: np.ndarray) -> tuple[int, Callable[[], int]]:
        """(weight, set builder) of the letter codes ``codes``."""
        return _weight(codes, self.weights), lambda: _code_sums(codes, self.weights).bits

    def _item(self, j: int, c: int, k: int) -> tuple[int, Callable[[], int]]:
        """(weight, set builder) of f^j(c)^k."""
        weight = self._level_weights[j][c]
        return k * weight, lambda: _power(self._set(j, c), weight, k)

    def _level(self, j: int) -> list[int]:
        """L_j of every letter, the tables extended to level j."""
        while len(self._lengths) <= j:
            lengths, weights = self._lengths[-1], self._level_weights[-1]
            self._lengths.append([sum(k * lengths[d] for d, k in image) for image in self._images])
            self._level_weights.append([sum(k * weights[d] for d, k in image) for image in self._images])
            self._sets.append({})
        return self._lengths[j]

    def _set(self, j: int, c: int) -> int:
        """T_j(c), composed bottom up from the highest level that holds every
        set it needs; iterative, since blocks may be thousands of levels deep."""
        if c in self._sets[j]:
            return self._sets[j][c]
        missing, need, level = [], {c}, j
        while need := {d for d in need if d not in self._sets[level]}:
            missing.append((level, need))
            if level == 0:
                break
            need = {d for e in need for d, _ in self._images[e]}
            level -= 1
        for level, letters in reversed(missing):
            sets = self._sets[level]
            for e in letters:
                if level == 0:
                    sets[e] = 1 | 1 << self.weights[e]
                else:
                    below, weights = self._sets[level - 1], self._level_weights[level - 1]
                    sets[e] = _join([(k * weights[d], _power(below[d], weights[d], k)) for d, k in self._images[e]])
        return self._sets[j][c]


def _head(sumset: WeightSumSet, stream: PrefixStream, weights: tuple[int, ...], n: int) -> WeightSumSet:
    """Weight-sum set of the first ``n`` letters of ``stream``, cut from ``sumset``, a longer
    prefix's, at their weight under the checked ``weights`` (a fixed point's from its integers);
    composing each middle horizon instead measured about 30% slower on a 4e6 Thue-Morse scan."""
    if isinstance(stream, MorphicStream):
        weight = _FixedPointSums(stream, weights).weight(n)
    else:
        weight = _weight(stream.codes(0, n), weights)
    return WeightSumSet(sumset.bits & ((2 << weight) - 1))


def weight_sum_prefix(stream: PrefixStream, weights, n: int) -> WeightSumSet:
    """Weight-sum set over the first ``n`` letters of the stream: composed
    for a fixed point (``_FixedPointSums``), from the letter codes otherwise."""
    weights = check_weights(stream.alphabet, weights)
    if n < 0:
        raise ValueError("length must be nonnegative")
    if isinstance(stream, MorphicStream):
        return WeightSumSet(_FixedPointSums(stream, weights).bits(n))
    return _code_sums(stream.codes(0, n), weights)


def covering_sums(stream: PrefixStream, weights, k: int) -> list[WeightSumSet]:
    """Weight-sum sets of ``covering_codes(stream, k)``, whose factors are
    every factor of length <= k of the stream's word; raises ValueError for
    a stream that ``covering_codes`` rejects."""
    weights = check_weights(stream.alphabet, weights)
    return [_code_sums(codes, weights) for codes in covering_codes(stream, k)]


def is_ap_supremum(covers: list[WeightSumSet], difference: int, m: int) -> bool:
    """True iff no AP of this difference has more than m terms in ``covers``.

    An AP of m + 1 terms spans a factor of weight m * D, so of at most
    m * D // min(weights) letters.  When ``covers`` are the covering sums for
    at least that length, True means that no AP in the whole infinite word
    is longer than m."""
    return all(longest_ap(s, difference) <= m for s in covers)


def longest_ap(sumset: WeightSumSet, difference: int) -> int:
    """Largest L such that t, t+D, ..., t+(L-1)D all lie in the set, exactly.
    Shift-and doubling on ``sumset.bits``: when bit t of S_k is set iff an
    AP of k terms starts at t, S_(k+j) = S_k & (S_k >> j*D) for every j <= k.
    Doubling k from 1 reaches the power of two K with K <= L < 2K, and the
    bits of L - K, highest first, are read off S_K alone: O(log L) passes
    over max_value / 8 bytes that hold a few ints at a time, whatever L is."""
    if difference < 1:
        raise ValueError("difference must be positive")
    top, length = sumset.bits, 1  # top is S_length
    while doubled := top & (top >> (length * difference)):
        top, length = doubled, 2 * length
    extra, step = 0, length >> 1
    while step:
        if top & (top >> ((extra + step) * difference)):  # S_(length + extra + step)
            extra += step
        step >>= 1
    return length + extra


def is_rotation_primitive(gaps) -> bool:
    """True iff no nontrivial cyclic rotation maps the tuple to itself."""
    gaps = tuple(gaps)
    if not gaps:
        raise ValueError("tuple must be nonempty")
    return all(gaps[m:] + gaps[:m] != gaps for m in range(1, len(gaps)))


# ---------------------------------------------------------------------------
# weight sequences of iterated prefixes


def weight_iterates(m: Morphism, weights, u: str):
    """Weights of the iterated images of u, without end: term j is weights . M^j . parikh(u)."""
    weights = check_weights(m.alphabet, weights)
    if not u:
        raise ValueError("u must be nonempty")
    mat = incidence_matrix(m)
    v = parikh(m.alphabet, u)
    while True:
        yield sum(w * c for w, c in zip(weights, v))
        v = mat_vec(mat, v)


# ---------------------------------------------------------------------------
# the certificate

CERTIFIED = "CERTIFIED"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class Certificate:
    verdict: str
    reason: str
    start: str
    weights: tuple[int, ...]
    det: int
    primitive: bool
    u: str | None
    u_source: str
    u_matches_word: bool | None
    gcd_sequence: tuple[int, ...]
    gcd_reached_one_at: int | None
    morphism_spec: str

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_record(self) -> dict[str, str]:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "det": str(self.det),
            "primitive": "true" if self.primitive else "false",
            "start": self.start,
            "weights": ",".join(str(w) for w in self.weights),
            "u": self.u or "",
            "u_source": self.u_source,
            "u_matches_word": "" if self.u_matches_word is None else ("true" if self.u_matches_word else "false"),
            "gcd_sequence": ",".join(str(g) for g in self.gcd_sequence),
            "gcd_reached_one_at": "" if self.gcd_reached_one_at is None else str(self.gcd_reached_one_at),
            "morphism": self.morphism_spec.replace("\n", "; ").strip("; "),
        }


def certify_graded_nilpotence(m: Morphism, start: str, weights, u: str | None = None) -> Certificate:
    """Certify that the positive part of the word's monomial algebra is graded
    nilpotent under the given letter weights.

    The verdict is CERTIFIED, or NOT_APPLICABLE carrying the first failing
    condition.  An explicit decomposition prefix ``u`` is used as given (so that
    published computations can be reproduced); by default u is the shortest
    nonempty prefix of the fixed point that is followed by the start letter.

    Neither search needs a cap.  The start letter of a primitive f reoccurs
    within f^k(w_0 w_1), k = (|A|-1)^2 + 1, so doubling the prefix finds u.
    The terms w . M^j . p(u) with j >= |A| are integer combinations of the
    first |A| (Cayley-Hamilton), so a running gcd above 1 after |A| terms is
    the gcd of the whole sequence: NOT_APPLICABLE with reason gcd=<g>.
    """
    weights = check_weights(m.alphabet, weights)
    if not is_prolongable(m, start):
        raise NotProlongableError(f"morphism is not prolongable on {start!r}")
    report = analyze_morphism(m)
    spec_echo = format_morphism_spec(m)

    def fail(reason: str, u_val=None, u_source="", u_match=None, gseq=(), gone=None):
        return Certificate(
            NOT_APPLICABLE, reason, start, weights, report.det, report.primitive,
            u_val, u_source, u_match, tuple(gseq), gone, spec_echo,
        )

    if not report.primitive:
        return fail("not-primitive")
    if len(set(weights)) == 1:
        return fail("weights-all-equal")
    if report.det not in (-1, 1):
        return fail(f"det={report.det}")

    stream = MorphicStream(m, start)
    if u is None:
        n = 2
        while (pos := stream.prefix(n).find(start, 1)) == -1:
            n *= 2
        u = stream.prefix(pos)
        u_source = "auto"
        u_match = True
    else:
        m.alphabet.check_word(u)
        if not u:
            raise ValueError("u must be nonempty")
        u_source = "explicit"
        probe = stream.prefix(len(u) + 1)
        u_match = probe == u + start

    gseq = []
    for _, term in zip(range(m.alphabet.size), weight_iterates(m, weights, u)):
        gseq.append(term)
        if math.gcd(*gseq) == 1:
            break
    else:
        return fail(f"gcd={math.gcd(*gseq)}", u, u_source, u_match, gseq, None)

    return Certificate(
        CERTIFIED, "", start, weights, report.det, report.primitive,
        u, u_source, u_match, tuple(gseq), len(gseq) - 1, spec_echo,
    )


# ---------------------------------------------------------------------------
# the empirical scan


@dataclass(frozen=True)
class ScanReport:
    weights: tuple[int, ...]
    horizons: tuple[int, ...]
    table: dict[int, tuple[int, ...]] = field(repr=False)
    flagged: tuple[int, ...]

    def to_record(self) -> dict[str, str]:
        rec = {
            "weights": ",".join(str(w) for w in self.weights),
            "horizons": ",".join(str(h) for h in self.horizons),
            "flagged": ",".join(str(d) for d in self.flagged),
        }
        for d in sorted(self.table):
            rec[f"ap_lengths_d{d}"] = ",".join(str(v) for v in self.table[d])
        return rec


def check_horizons(horizons) -> tuple[int, ...]:
    """The scan horizons as a tuple of ints; raises ValueError unless they are
    nonempty, nonnegative and increasing."""
    horizons = tuple(int(h) for h in horizons)
    if not horizons or list(horizons) != sorted(horizons):
        raise ValueError("horizons must be increasing and nonempty")
    if horizons[0] < 0:
        raise ValueError("horizons must be nonnegative")
    return horizons


def _supremum_degrees(stream: PrefixStream, weights: tuple[int, ...], lengths: dict[int, int], horizon: int) -> set[int]:
    """The differences d whose length ``lengths[d]`` passes ``is_ap_supremum``,
    checked only where an AP one term longer would span at most ``horizon``
    letters, since a longer span would make the check cost more than the
    scan; none for a stream without covering words."""
    span = {d: m * d // min(weights) for d, m in lengths.items()}
    candidates = [d for d in lengths if span[d] <= horizon] if has_covering_words(stream) else []
    if not candidates:
        return set()
    covers = covering_sums(stream, weights, max(span[d] for d in candidates))
    return {d for d in candidates if is_ap_supremum(covers, d, lengths[d])}


def graded_nilpotence_scan(stream: PrefixStream, weights, d_max: int, horizons) -> ScanReport:
    """Longest-AP lengths per difference and horizon; a difference is flagged when
    its AP length grows with the horizon (empirical failure of graded nilpotence
    in that degree) and the covering check does not prove its length at the
    largest horizon to be the supremum.  The smallest horizon is read first,
    and a difference whose length there passes ``is_ap_supremum`` keeps that
    length at every horizon; a stream without covering words
    (``words.has_covering_words``) settles none.  The largest horizon is
    built only when some difference is left open, and the horizons between
    are cut from it (``_head``)."""
    horizons = check_horizons(horizons)
    if d_max < 1:
        raise ValueError("d_max must be positive")
    weights = check_weights(stream.alphabet, weights)
    sums = weight_sum_prefix(stream, weights, horizons[0])
    first = {d: longest_ap(sums, d) for d in range(1, d_max + 1)}
    settled = _supremum_degrees(stream, weights, first, horizons[0])
    later: list[WeightSumSet] = []  # the larger horizons, read only for an open degree
    if len(settled) < len(first) and len(horizons) > 1:
        # the sums of a prefix are the head of the sums of any longer prefix
        sums = weight_sum_prefix(stream, weights, horizons[-1])
        later = [*(_head(sums, stream, weights, h) for h in horizons[1:-1]), sums]
    table: dict[int, tuple[int, ...]] = {}
    growing = {}
    for d, m in first.items():
        if d in settled:
            lengths = (m,) * len(horizons)
        else:
            lengths = (m, *(longest_ap(s, d) for s in later))
        table[d] = lengths
        if lengths[-1] > GROWTH_RATIO * lengths[0] and lengths[-1] > GROWTH_FLOOR:
            growing[d] = lengths[-1]
    # a growing length may have reached its supremum past the smallest horizon
    bounded = _supremum_degrees(stream, weights, growing, horizons[-1])
    return ScanReport(weights, horizons, table, tuple(d for d in growing if d not in bounded))
