"""Weight-sum sets, arithmetic-progression statistics and the graded-nilpotence
certifier for monomial algebras of morphic words.

The certificate checks, for a primitive morphism prolongable on a start letter,
that the weights are not all equal, that the incidence matrix has determinant
+-1, and that the weight sequence of the iterated decomposition prefix has
greatest common divisor one.  The empirical counterpart is the AP scan: an
arithmetic progression of difference D in the weight-sum set that keeps growing
with the horizon witnesses a nonvanishing product of degree-D monomials.
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
    encode,
    format_morphism_spec,
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


def weight_sum_prefix(stream: PrefixStream, weights, n: int) -> WeightSumSet:
    """Weight-sum set over the first ``n`` letters of the stream."""
    weights = check_weights(stream.alphabet, weights)
    codes = encode(stream.prefix(n), stream.alphabet.letters)
    sums = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(np.array(weights, dtype=np.int64)[codes], out=sums[1:])
    return WeightSumSet(weights, sums)


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
    sums: WeightSumSet = field(repr=False, compare=False)  # at the largest horizon

    def to_record(self) -> dict[str, str]:
        rec = {
            "weights": ",".join(str(w) for w in self.weights),
            "horizons": ",".join(str(h) for h in self.horizons),
            "flagged": ",".join(str(d) for d in self.flagged),
        }
        for d in sorted(self.table):
            rec[f"ap_lengths_d{d}"] = ",".join(str(v) for v in self.table[d])
        return rec


def graded_nilpotence_scan(stream: PrefixStream, weights, d_max: int, horizons) -> ScanReport:
    """Longest-AP lengths per difference and horizon; a difference is flagged when
    its AP length grows with the horizon (empirical failure of graded nilpotence
    in that degree)."""
    horizons = tuple(int(h) for h in horizons)
    if not horizons or list(horizons) != sorted(horizons):
        raise ValueError("horizons must be increasing and nonempty")
    if horizons[0] < 0:
        raise ValueError("horizons must be nonnegative")
    if d_max < 1:
        raise ValueError("d_max must be positive")
    # the sums of a prefix are the head of the sums of any longer prefix
    full = weight_sum_prefix(stream, weights, horizons[-1])
    sumsets = [WeightSumSet(full.weights, full.sums[: h + 1]) for h in horizons]
    table: dict[int, tuple[int, ...]] = {}
    flagged = []
    for d in range(1, d_max + 1):
        lengths = tuple(longest_ap(s, d) for s in sumsets)
        table[d] = lengths
        if lengths[-1] > GROWTH_RATIO * lengths[0] and lengths[-1] > GROWTH_FLOOR:
            flagged.append(d)
    return ScanReport(tuple(weights), horizons, table, tuple(flagged), full)
