"""Exact noncommutative polynomial arithmetic in monomial quotient algebras.

A view decides which monomials are zero; the zero monomials always form a
two-sided monomial ideal (superwords of zero monomials are zero).  Polynomials
carry exact rational coefficients and are kept reduced: no zero coefficients,
no zero monomials in the support.  Each coefficient is held in one canonical
form, an ``int`` when it is integral and a ``Fraction`` with denominator > 1
otherwise, so integer systems multiply and add as native ints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .words import FactorIndex, PrefixStream, check_letters, encode, is_cube_free


class HorizonWarning(UserWarning):
    """A monomial was classified zero only because it was unseen within the horizon."""


class AlgebraView:
    """Base class: a rule deciding which monomials are zero."""

    letters: tuple[str, ...]

    def is_zero_monomial(self, word: str) -> bool:
        raise NotImplementedError

    def check_word(self, word: str) -> str:
        for c in word:
            if c not in self.letters:
                raise ValueError(f"{c!r} is not a letter of this algebra")
        return word


class WordFactorView(AlgebraView):
    """Monomials are nonzero iff they occur as a factor of the stream's prefix.

    Monomials unseen within the horizon are treated as zero; each one is
    recorded in ``unseen`` and a HorizonWarning is emitted once per view, since
    "unseen within horizon" is weaker than "not a factor of the infinite word".
    """

    def __init__(self, stream: PrefixStream, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.stream = stream
        self.horizon = horizon
        self.letters = stream.alphabet.letters
        self.unseen: set[str] = set()
        self._warned = False
        self._index: FactorIndex | None = None

    def factor_index(self) -> FactorIndex:
        if self._index is None:
            self._index = FactorIndex([encode(self.stream.prefix(self.horizon), self.letters)], self.letters)
        return self._index

    def is_zero_monomial(self, word: str) -> bool:
        zero = word not in self.factor_index()
        if zero and word not in self.unseen:
            self.unseen.add(word)
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"monomials unseen within horizon {self.horizon} are treated as zero"
                    f" (first: {word!r})",
                    HorizonWarning,
                    stacklevel=2,
                )
        return zero


class CubeIdealView(AlgebraView):
    """Quotient by the ideal generated by the cubes of all nonempty monomials:
    a monomial is zero iff it contains a cube."""

    def __init__(self, letters):
        self.letters = check_letters(letters)

    def is_zero_monomial(self, word: str) -> bool:
        return not is_cube_free(word).is_cube_free


class FreeView(AlgebraView):
    """No monomial is zero (the free algebra)."""

    def __init__(self, letters):
        self.letters = check_letters(letters)

    def is_zero_monomial(self, word: str) -> bool:
        return False


# ---------------------------------------------------------------------------
# polynomials


def _reduced(view: AlgebraView, terms: dict[str, int | Fraction]) -> NcPolynomial:
    """The polynomial of ``terms`` less its zero coefficients and zero monomials,
    with each integral coefficient (a bool or a Fraction too) as an int.

    ``terms`` must already hold ints and Fractions on the view's letters: only
    the NcPolynomial constructor takes outside input and checks it."""
    p = object.__new__(NcPolynomial)
    p.view = view
    is_zero = view.is_zero_monomial
    p.coeffs = {w: c if type(c) is int or c.denominator != 1 else c.numerator
                for w, c in terms.items() if c and not is_zero(w)}
    return p


class NcPolynomial:
    """Exact-rational linear combination of monomials, reduced in a view.

    ``coeffs`` maps each monomial of the support to an int when the coefficient
    is integral, else to a Fraction with denominator > 1.  Coefficients and
    scalars are ints and Fractions only: a coefficient of another type raises
    TypeError, and any other operand is NotImplemented."""

    __slots__ = ("view", "coeffs")

    def __init__(self, view: AlgebraView, coeffs):
        for c in coeffs.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")
        for word, c in coeffs.items():
            if c:  # a zero term is dropped, whatever its letters
                view.check_word(word)
        self.view = view
        self.coeffs = _reduced(view, coeffs).coeffs

    # -- constructors

    @classmethod
    def zero(cls, view) -> "NcPolynomial":
        return cls(view, {})

    @classmethod
    def one(cls, view) -> "NcPolynomial":
        return cls(view, {"": 1})

    @classmethod
    def monomial(cls, view, word: str, coeff=1) -> "NcPolynomial":
        return cls(view, {word: coeff})

    # -- queries

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[str]:
        """Length-then-lexicographic order by alphabet position (pinned for reproducibility)."""
        index = self.view.letters.index
        return sorted(self.coeffs, key=lambda w: (len(w), tuple(map(index, w))))

    def __eq__(self, other):
        return isinstance(other, NcPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if self.is_zero():
            return "<ncpoly 0>"
        terms = " + ".join(f"{c}*{w}" for w, c in sorted(self.coeffs.items()))
        return f"<ncpoly {terms}>"

    # -- arithmetic

    def __add__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        self._check_view(other)
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc[w] = acc[w] + c if w in acc else c
        return _reduced(self.view, acc)

    def __neg__(self):
        return _reduced(self.view, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _reduced(self.view, {w: c * other for w, c in self.coeffs.items()})
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        self._check_view(other)
        acc: dict[str, int | Fraction] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = w1 + w2
                acc[w] = acc[w] + c1 * c2 if w in acc else c1 * c2
        return _reduced(self.view, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _check_view(self, other):
        if other.view is not self.view:
            raise ValueError("operands must share the same algebra view")


# ---------------------------------------------------------------------------
# polynomial literals:  3*xy + -1*yx + 1*     (trailing bare `*` denotes the
# empty monomial); whitespace-insensitive; a coefficient is an integer, n/d or
# a plain decimal, never with an exponent


def parse_poly_literal(view: AlgebraView, text: str) -> NcPolynomial:
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty polynomial literal")
    acc: dict[str, Fraction] = {}
    for term in compact.split("+"):
        if "*" not in term:
            raise ValueError(f"bad term {term!r}: expected coeff*monomial")
        coeff_text, word = term.split("*", 1)
        # Fraction would expand 1e1000000000 into a billion-digit integer
        if "e" in coeff_text.lower():
            raise ValueError(f"bad coefficient {coeff_text!r}: exponents are not accepted")
        try:
            coeff = Fraction(coeff_text)
        except ZeroDivisionError:
            raise ValueError(f"bad coefficient {coeff_text!r}: zero denominator") from None
        acc[word] = acc.get(word, Fraction(0)) + coeff
    return NcPolynomial(view, acc)


def format_poly_literal(p: NcPolynomial) -> str:
    if p.is_zero():
        return "0*"
    return " + ".join(f"{p.coeffs[w]}*{w}" for w in p.support())


# ---------------------------------------------------------------------------
# exact linear algebra over the monomial basis


@dataclass(frozen=True)
class IndependenceResult:
    rank: int
    independent: bool
    # the first dependent row's one relation to the rows before it, first nonzero coefficient 1
    dependency: tuple[Fraction, ...] | None


# Prime of the full-rank certificate.  Residues are below 2^31, so the product
# of two is below 2^62 and int64 elimination never wraps.
CERTIFICATE_PRIME = 2**31 - 1


def _integer_rows(polys) -> tuple[list[dict[str, int]], list[int]]:
    """Each polynomial as a sparse integer row {monomial: coefficient}, scaled
    by the lcm of its denominators, and that scale: with only int coefficients
    its own ``coeffs``, which the rank never writes to, else a scaled copy."""
    rows, scales = [], []
    for poly in polys:
        # an int coefficient has denominator 1, so only Fractions enter the lcm
        scale = math.lcm(*(c.denominator for c in poly.coeffs.values() if type(c) is not int))
        rows.append(poly.coeffs if scale == 1 else {
            w: c * scale if type(c) is int else c.numerator * (scale // c.denominator) for w, c in poly.coeffs.items()})
        scales.append(scale)
    return rows, scales


def _columns(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row's entry count, and the column of every entry in row and key
    order, keys numbered as first seen (the rank and witness ignore the order)."""
    col_of: dict = {}
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    # intp, as bincount would copy any narrower column array into it
    cols = np.fromiter((col_of.setdefault(k, len(col_of)) for row in rows for k in row), np.intp, lengths.sum())
    return lengths, cols


def _unowned(lengths, cols) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The indices and flattening of the rows that own no column, being the only
    row with an entry there: any relation over Q gives an owner the coefficient
    0 (the singleton-column step of sparse LU presolve)."""
    owned = np.bincount(cols) == 1
    owner = np.zeros(lengths.size, dtype=bool)
    owner[np.searchsorted(np.cumsum(lengths), np.flatnonzero(owned[cols]), side="right")] = True
    return np.flatnonzero(~owner).tolist(), lengths[~owner], cols[np.repeat(~owner, lengths)]


def _full_rank_mod_p(rows, lengths, cols) -> bool:
    """Whether the integer rows (flattened by ``_columns``) have full row rank
    over F_p.  The rank over Q is at least that, so True proves them
    independent; False proves nothing.

    The rows are reduced mod p into a dense int64 matrix over the columns they
    use and eliminated there.  More rows than columns in use can never have
    full rank, so such rows are refused before any matrix is built."""
    p = CERTIFICATE_PRIME
    used = np.zeros(1 + int(cols.max(initial=-1)), dtype=bool)
    used[cols] = True
    shape = (len(rows), int(used.sum()))
    if shape[0] > shape[1]:
        return False
    # each entry's flat position in the matrix, in int32 when the matrix is
    # small enough: an int32 index is cast in buffered chunks, not copied
    index = np.int32 if shape[0] * shape[1] <= np.iinfo(np.int32).max else np.int64
    flat = (np.cumsum(used, dtype=index) - 1)[cols]
    flat += np.repeat(np.arange(shape[0], dtype=index) * shape[1], lengths)
    # residues are below p < 2^31, so they are read as int32 before the matrix
    residues = np.fromiter((c % p for row in rows for c in row.values()), np.int32, len(flat))
    m = np.zeros(shape, dtype=np.int64)
    m.reshape(-1)[flat] = residues
    del flat, residues
    # forward elimination, one pivot row at a time: row i has already been
    # reduced by every earlier pivot, and its pivot clears its lead column in
    # the rows below that have it, on its own support only; entries are below
    # p, so m - f*r lies above -p^2 > -2^63 and one reduction mod p suffices
    for i, row in enumerate(m):
        support = np.flatnonzero(row)
        if support.size == 0:
            return False
        lead = support[0]
        below = i + 1 + np.flatnonzero(m[i + 1 :, lead])
        if below.size:
            factors = m[below, lead] * pow(int(row[lead]), -1, p) % p
            block = np.ix_(below, support)
            m[block] = (m[block] - factors[:, None] * row[support]) % p
    return True


def linear_independence(polys) -> IndependenceResult:
    """Exact rank of the span; a normalized dependency witness when dependent.

    Only the rows that own no column (see _unowned) are eliminated: the rank is
    the number of owners plus the rank of the rest, so images with disjoint
    supports need no elimination.  Full rank of the rest modulo
    CERTIFICATE_PRIME settles independence at once.  Otherwise they are
    eliminated exactly on their integer rows, integer-preserving as in Bareiss
    (1968): a row that meets a pivot at its least monomial becomes a*row -
    b*pivot, then the row and its combination lose their common content."""
    polys = list(polys)
    rows, scales = _integer_rows(polys)
    unowned, lengths, cols = _unowned(*_columns(rows))
    if _full_rank_mod_p([rows[i] for i in unowned], lengths, cols):
        return IndependenceResult(len(polys), True, None)
    pivots: dict[str, list[dict]] = {}  # lead monomial -> [row, combination]
    dependency = None
    for i in unowned:
        row = rows[i]
        # row == sum(combination[j] * polys[j]); combinations are tracked only
        # until the first dependent row is found
        vectors = [row, {i: scales[i]}] if dependency is None else [row]
        while row and (lead := min(row)) in pivots:
            pivot = pivots[lead]
            g = math.gcd(row[lead], pivot[0][lead])
            a, b = pivot[0][lead] // g, row[lead] // g
            # a*v - b*w over both supports, zero entries dropped
            vectors = [{k: c for k in v.keys() | w.keys() if (c := a * v.get(k, 0) - b * w.get(k, 0))}
                       for v, w in zip(vectors, pivot)]
            if (content := math.gcd(*(c for v in vectors for c in v.values()))) > 1:
                vectors = [{k: c // content for k, c in v.items()} for v in vectors]
            row = vectors[0]
        if row:
            pivots[min(row)] = vectors
        elif dependency is None:
            combo = vectors[1]
            first = combo[min(combo)]
            dependency = tuple(Fraction(combo.get(j, 0), first) for j in range(len(polys)))
    rank = len(polys) - len(unowned) + len(pivots)
    return IndependenceResult(rank, rank == len(polys), dependency)


# ---------------------------------------------------------------------------
# freeness


@dataclass(frozen=True)
class FreenessReport:
    generators: tuple[str, ...]  # literal form of each generator
    max_pattern_length: int
    patterns_tested: int
    rank: int
    independent: bool
    dependency: tuple[Fraction, ...] | None

    def to_record(self) -> dict[str, str]:
        return {
            "freeness_verdict": "independent" if self.independent else "dependent",
            "generators": "; ".join(self.generators),
            "max_pattern_length": str(self.max_pattern_length),
            "patterns_tested": str(self.patterns_tested),
            "rank": str(self.rank),
            "dependency": "" if self.dependency is None else ",".join(str(c) for c in self.dependency),
        }


def pattern_images(view: AlgebraView, gens, max_len: int) -> list[NcPolynomial]:
    """Images of all nonempty products of the generators up to the given length,
    in deterministic order (length ascending, index tuples lexicographic)."""
    gens = list(gens)
    images = []
    layer = [NcPolynomial.one(view)]
    for _ in range(max_len):
        layer = [p * g for p in layer for g in gens]
        images += layer
    return images


def freeness_check(view: AlgebraView, gens, max_len: int) -> FreenessReport:
    """Test whether the generators satisfy any relation of pattern length <= max_len.

    Independence verdicts are sound even under horizon-limited views: dropping
    unseen monomials is a linear projection, so independence of the projected
    images implies independence of the true images.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
    if max_len < 1:
        raise ValueError("max_len must be positive")
    images = pattern_images(view, gens, max_len)
    result = linear_independence(images)
    return FreenessReport(
        generators=tuple(format_poly_literal(g) for g in gens),
        max_pattern_length=max_len,
        patterns_tested=len(images),
        rank=result.rank,
        independent=result.independent,
        dependency=result.dependency,
    )


# ---------------------------------------------------------------------------
# nilpotency of monomials


def is_nilpotent_monomial(view: AlgebraView, monomial: str, k_max: int):
    """Smallest k <= k_max with monomial^k zero in the view, else None.

    Exact for cube and free views; for factor views the answer is qualified
    by the view's horizon (see WordFactorView).
    """
    if not monomial:
        raise ValueError("monomial must be nonempty")
    view.check_word(monomial)
    for k in range(1, k_max + 1):
        if view.is_zero_monomial(monomial * k):
            return k
    return None
