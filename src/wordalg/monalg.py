"""Exact noncommutative polynomial arithmetic in monomial quotient algebras.

A view decides which monomials are zero; the zero monomials always form a
two-sided monomial ideal (superwords of zero monomials are zero).  Polynomials
carry exact rational coefficients and are kept reduced: no zero coefficients,
no zero monomials in the support.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .words import FactorIndex, PrefixStream, is_cube_free


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

    def letter_index(self, c: str) -> int:
        return self.letters.index(c)


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
            self._index = FactorIndex(self.stream.prefix(self.horizon), self.letters)
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


class ForbiddenPatternView(AlgebraView):
    """Monomial is zero iff ``forbids(word)`` holds; the predicate must be
    superword-closed so that the zero monomials form a monomial ideal."""

    def __init__(self, letters, forbids, description: str = ""):
        self.letters = tuple(letters)
        self.forbids = forbids
        self.description = description

    def is_zero_monomial(self, word: str) -> bool:
        if word == "":
            return False
        return bool(self.forbids(word))


def contains_cube(word: str) -> bool:
    return not is_cube_free(word).is_cube_free


def cube_ideal_view(letters) -> ForbiddenPatternView:
    """Quotient by the ideal generated by the cubes of all nonempty monomials."""
    return ForbiddenPatternView(letters, contains_cube, "contains the cube of a nonempty word")


class FreeView(AlgebraView):
    """No monomial is zero (the free algebra)."""

    def __init__(self, letters):
        self.letters = tuple(letters)

    def is_zero_monomial(self, word: str) -> bool:
        return False


# ---------------------------------------------------------------------------
# polynomials


def monomial_key(view: AlgebraView, word: str):
    """Length-then-lexicographic order by alphabet position (pinned for reproducibility)."""
    return (len(word), tuple(view.letter_index(c) for c in word))


class NcPolynomial:
    """Exact-rational linear combination of monomials, reduced in a view."""

    __slots__ = ("view", "coeffs")

    def __init__(self, view: AlgebraView, coeffs):
        clean: dict[str, Fraction] = {}
        for word, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            view.check_word(word)
            if not view.is_zero_monomial(word):
                clean[word] = c
        self.view = view
        self.coeffs = clean

    # -- constructors

    @classmethod
    def zero(cls, view) -> "NcPolynomial":
        return cls(view, {})

    @classmethod
    def one(cls, view) -> "NcPolynomial":
        return cls(view, {"": Fraction(1)})

    @classmethod
    def monomial(cls, view, word: str, coeff=1) -> "NcPolynomial":
        return cls(view, {word: Fraction(coeff)})

    # -- queries

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[str]:
        return sorted(self.coeffs, key=lambda w: monomial_key(self.view, w))

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
        self._check_view(other)
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc[w] = acc.get(w, Fraction(0)) + c
        return NcPolynomial(self.view, acc)

    def __neg__(self):
        return NcPolynomial(self.view, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NcPolynomial(self.view, {w: c * other for w, c in self.coeffs.items()})
        self._check_view(other)
        acc: dict[str, Fraction] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = w1 + w2
                acc[w] = acc.get(w, Fraction(0)) + c1 * c2
        return NcPolynomial(self.view, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _check_view(self, other):
        if not isinstance(other, NcPolynomial) or other.view is not self.view:
            raise ValueError("operands must share the same algebra view")


def substitute(view: AlgebraView, pattern: str, assignment: dict[str, NcPolynomial]) -> NcPolynomial:
    """Image of an abstract pattern word under a symbol -> polynomial assignment."""
    result = NcPolynomial.one(view)
    for symbol in pattern:
        if symbol not in assignment:
            raise ValueError(f"pattern symbol {symbol!r} is unassigned")
        result = result * assignment[symbol]
    return result


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
    dependency: tuple[Fraction, ...] | None  # first nonzero coefficient scaled to 1


# Prime of the full-rank certificate.  Residues are below 2^31, so the product
# of two is below 2^62 and int64 elimination never wraps.
CERTIFICATE_PRIME = 2**31 - 1


def _full_rank_mod_p(polys, col_of) -> bool:
    """Whether the rows, each scaled to integers by the lcm of its denominators,
    have full row rank over F_p.  The rank over Q is at least the rank over F_p,
    so True proves the polynomials independent; False proves nothing."""
    p = CERTIFICATE_PRIME
    rows, cols, values = [], [], []
    for i, poly in enumerate(polys):
        scale = math.lcm(*(c.denominator for c in poly.coeffs.values()))
        for w, c in poly.coeffs.items():
            rows.append(i)
            cols.append(col_of[w])
            values.append(c.numerator * (scale // c.denominator) % p)
    m = np.zeros((len(polys), len(col_of)), dtype=np.int64)
    m[rows, cols] = values
    # forward elimination, one pivot row at a time: row i has already been
    # reduced by every earlier pivot, and its pivot clears its lead column in
    # the rows below that have it, on its own support only
    for i, row in enumerate(m):
        support = np.flatnonzero(row)
        if support.size == 0:
            return False
        lead = support[0]
        below = i + 1 + np.flatnonzero(m[i + 1 :, lead])
        if below.size:
            factors = m[below, lead] * pow(int(row[lead]), -1, p) % p
            block = np.ix_(below, support)
            m[block] = (m[block] - factors[:, None] * row[support] % p) % p
    return True


def linear_independence(polys) -> IndependenceResult:
    """Exact rank of the span; a normalized dependency witness when dependent.

    Full rank modulo CERTIFICATE_PRIME settles independence at once; only a
    system that fails that certificate is eliminated over the rationals."""
    polys = list(polys)
    if not polys:
        return IndependenceResult(0, True, None)
    view = polys[0].view
    basis = sorted({w for p in polys for w in p.coeffs}, key=lambda w: monomial_key(view, w))
    col_of = {w: j for j, w in enumerate(basis)}
    if _full_rank_mod_p(polys, col_of):
        return IndependenceResult(len(polys), True, None)
    n_cols = len(basis)

    pivots: list[tuple[int, list[Fraction], list[Fraction]]] = []  # (col, vector, combo)
    dependency = None
    for i, p in enumerate(polys):
        vec = [Fraction(0)] * n_cols
        for w, c in p.coeffs.items():
            vec[col_of[w]] = c
        combo = [Fraction(0)] * len(polys)
        combo[i] = Fraction(1)
        for col, pvec, pcombo in pivots:
            factor = vec[col]
            if factor:
                scale = factor / pvec[col]
                for j in range(n_cols):
                    if pvec[j]:
                        vec[j] -= scale * pvec[j]
                for j in range(len(polys)):
                    if pcombo[j]:
                        combo[j] -= scale * pcombo[j]
        lead = next((j for j in range(n_cols) if vec[j]), None)
        if lead is None:
            if dependency is None:
                first = next(c for c in combo if c)
                dependency = tuple(c / first for c in combo)
        else:
            pivots.append((lead, vec, combo))
    rank = len(pivots)
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
    images: tuple[NcPolynomial, ...] = field(repr=False, compare=False)  # the rank's rows

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
        images=tuple(images),
    )


# ---------------------------------------------------------------------------
# nilpotency and dimensions


def is_nilpotent_monomial(view: AlgebraView, monomial: str, k_max: int):
    """Smallest k <= k_max with monomial^k zero in the view, else None.

    Exact for pattern and free rules; for factor views the answer is qualified
    by the view's horizon (see WordFactorView).
    """
    if not monomial:
        raise ValueError("monomial must be nonempty")
    view.check_word(monomial)
    for k in range(1, k_max + 1):
        if view.is_zero_monomial(monomial * k):
            return k
    return None


def hilbert_function(view: AlgebraView, weights, n: int) -> int:
    """Number of nonzero monomials of weight n (the dimension of the weight-n
    homogeneous component)."""
    if isinstance(view, FreeView):
        raise ValueError("hilbert_function needs a factor or forbidden-pattern view")
    weights = tuple(int(w) for w in weights)
    if len(weights) != len(view.letters) or any(w < 1 for w in weights):
        raise ValueError("need one positive weight per letter")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    weight_of = dict(zip(view.letters, weights))
    count = 0
    frontier = [("", 0)]
    while frontier:
        word, wt = frontier.pop()
        for c in view.letters:
            w2 = wt + weight_of[c]
            if w2 > n:
                continue
            word2 = word + c
            if view.is_zero_monomial(word2):
                continue
            if w2 == n:
                count += 1
            else:
                frontier.append((word2, w2))
    return count
