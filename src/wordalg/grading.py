"""Weight-sum sets, arithmetic-progression statistics and the graded-nilpotence
certifier for monomial algebras of morphic words.

The certificate checks, for a primitive morphism prolongable on a start letter,
that the weights are not all equal, that the incidence matrix has determinant
+-1, and that the weight sequence of the iterated decomposition prefix has
greatest common divisor one.  The empirical counterpart is the AP scan: an
arithmetic progression of difference D in the weight-sum set that keeps growing
with the horizon witnesses a nonvanishing product of degree-D monomials.

The longest AP of difference D at the smallest horizon, m, never exceeds the
supremum over the whole infinite word, the nilpotency index in degree D.  When
the stream's covering words (``words.covering_words``) show no longer AP, m is
that supremum, so the scan reports m at every horizon without reading the
longer prefixes for that degree.  The scan builds the smallest horizon's
prefix and sums first, and the largest horizon's only when some degree is left
open; a stream without covering words (the fixed point of a morphism that is
not primitive) builds the largest horizon's at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .words import (
    MorphicStream,
    Morphism,
    NotProlongableError,
    PrefixStream,
    analyze_morphism,
    check_weights,
    covering_words,
    encode,
    format_morphism_spec,
    has_covering_words,
    incidence_matrix,
    is_prolongable,
    mat_vec,
    parikh,
)

DEFAULT_GCD_TERMS = 32
DEFAULT_DECOMPOSITION_HORIZON = 10_000

# AP growth flags: grew by more than this factor between the smallest and the
# largest horizon, and is large in absolute terms.
GROWTH_RATIO = 1.5
GROWTH_FLOOR = 20


class DecompositionNotFoundError(RuntimeError):
    """The start letter does not reoccur within the search horizon (inconclusive)."""


@dataclass(frozen=True, eq=False)
class WeightSumSet:
    """Partial sums s_0 = 0, s_i = s_{i-1} + weight(letter_i) along a prefix."""

    weights: tuple[int, ...]
    sums: np.ndarray  # strictly increasing int64, sums[0] == 0

    @cached_property
    def absent(self) -> np.ndarray:
        """absent[v] is True iff v is not a weight sum (v = 0..max_value)."""
        mask = np.ones(self.max_value + 1, dtype=bool)
        mask[self.sums] = False
        return mask

    @property
    def max_value(self) -> int:
        return int(self.sums[-1])


def _text_sums(text: str, letters, weights: tuple[int, ...]) -> WeightSumSet:
    """Weight-sum set of ``text``, letter i of ``letters`` weighing weights[i].
    Raises OverflowError when the total weight does not fit in int64."""
    codes = encode(text, letters)
    total = sum(int(np.count_nonzero(codes == i)) * w for i, w in enumerate(weights))
    if total >= 2**63:
        raise OverflowError(f"total weight {total} of {codes.size} letters exceeds int64")
    sums = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(np.array(weights, dtype=np.int64)[codes], out=sums[1:])
    return WeightSumSet(weights, sums)


def weight_sum_prefix(stream: PrefixStream, weights, n: int) -> WeightSumSet:
    """Weight-sum set over the first ``n`` letters of the stream."""
    weights = check_weights(stream.alphabet, weights)
    return _text_sums(stream.prefix(n), stream.alphabet.letters, weights)


def covering_sums(stream: PrefixStream, weights, k: int) -> list[WeightSumSet]:
    """Weight-sum sets of ``covering_words(stream, k)``, whose factors are
    every factor of length <= k of the stream's word; raises ValueError for
    a stream that ``covering_words`` rejects."""
    weights = check_weights(stream.alphabet, weights)
    return [_text_sums(word, stream.alphabet.letters, weights) for word in covering_words(stream, k)]


def is_ap_supremum(covers: list[WeightSumSet], difference: int, m: int) -> bool:
    """True iff no AP of this difference has more than m terms in ``covers``.

    An AP of m + 1 terms spans a factor of weight m * D, so of at most
    m * D // min(weights) letters.  When ``covers`` are the covering sums for
    at least that length, True means that no AP in the whole infinite word
    is longer than m."""
    return all(longest_ap(s, difference) <= m for s in covers)


def longest_ap(sumset: WeightSumSet, difference: int) -> int:
    """Largest L such that t, t+D, ..., t+(L-1)D all lie in the set, exactly:
    the longest run in any residue class r mod D (residues past the largest
    sum have none).  A class's runs lie between its consecutive absent
    values, before the first of them or after the last."""
    if difference < 1:
        raise ValueError("difference must be positive")
    absent = sumset.absent
    best = 0
    for r in range(min(difference, absent.size)):
        cells = absent[r::difference]
        gaps = np.flatnonzero(cells)
        if gaps.size == 0:
            best = max(best, cells.size)
            continue
        inner = int(np.diff(gaps).max(initial=1)) - 1
        best = max(best, int(gaps[0]), cells.size - 1 - int(gaps[-1]), inner)
    return best


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


def certify_graded_nilpotence(
    m: Morphism,
    start: str,
    weights,
    gcd_terms: int = DEFAULT_GCD_TERMS,
    horizon: int = DEFAULT_DECOMPOSITION_HORIZON,
    u: str | None = None,
) -> Certificate:
    """Certify that the positive part of the word's monomial algebra is graded
    nilpotent under the given letter weights.

    The verdict is CERTIFIED, or NOT_APPLICABLE carrying the first failing
    condition.  An explicit decomposition prefix ``u`` is used as given (so that
    published computations can be reproduced); by default u is the shortest
    nonempty prefix of the fixed point that is followed by the start letter.
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
        prefix = stream.prefix(horizon)
        pos = prefix.find(start, 1)
        if pos == -1:
            raise DecompositionNotFoundError(
                f"start letter does not reoccur within horizon {horizon}"
            )
        u = prefix[:pos]
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
    for _, term in zip(range(gcd_terms + 1), weight_iterates(m, weights, u)):
        gseq.append(term)
        if math.gcd(*gseq) == 1:
            break
    else:
        return fail("gcd-undecided", u, u_source, u_match, gseq, None)

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


def graded_nilpotence_scan(stream: PrefixStream, weights, d_max: int, horizons) -> ScanReport:
    """Longest-AP lengths per difference and horizon; a difference is flagged when
    its AP length grows with the horizon (empirical failure of graded nilpotence
    in that degree).  A difference whose length at the smallest horizon passes
    ``is_ap_supremum`` keeps that length at every horizon.  The larger
    horizons' prefix and sums are built only when some difference does not
    pass, or the stream has no covering words (``words.has_covering_words``)."""
    horizons = check_horizons(horizons)
    if d_max < 1:
        raise ValueError("d_max must be positive")
    # the covering words settle a degree for good, so the smallest horizon is
    # read first; a word without them reads the largest at once
    coverable = len(horizons) > 1 and has_covering_words(stream)
    sums = weight_sum_prefix(stream, weights, horizons[0] if coverable else horizons[-1])
    # the sums of a prefix are the head of the sums of any longer prefix
    first_sums = WeightSumSet(sums.weights, sums.sums[: horizons[0] + 1])
    first = {d: longest_ap(first_sums, d) for d in range(1, d_max + 1)}
    # an AP longer than first[d] would span at most span[d] letters; a span
    # past the smallest horizon would make the check cost more than its scan
    span = {d: m * d // min(sums.weights) for d, m in first.items()}
    candidates = [d for d in first if span[d] <= horizons[0]] if coverable else []
    settled = set()
    if candidates:
        covers = covering_sums(stream, sums.weights, max(span[d] for d in candidates))
        settled = {d for d in candidates if is_ap_supremum(covers, d, first[d])}
    later: list[WeightSumSet] = []  # the larger horizons, read only for an open degree
    if len(settled) < len(first):
        if coverable:
            sums = weight_sum_prefix(stream, weights, horizons[-1])
        later = [WeightSumSet(sums.weights, sums.sums[: h + 1]) for h in horizons[1:]]
    table: dict[int, tuple[int, ...]] = {}
    flagged = []
    for d, m in first.items():
        if d in settled:
            lengths = (m,) * len(horizons)
        else:
            lengths = (m, *(longest_ap(s, d) for s in later))
        table[d] = lengths
        if lengths[-1] > GROWTH_RATIO * lengths[0] and lengths[-1] > GROWTH_FLOOR:
            flagged.append(d)
    return ScanReport(tuple(weights), horizons, table, tuple(flagged))
