"""Alphabets, finite words, substitution morphisms and their fixed points.

Finite words are plain Python strings; every letter of an alphabet is a
single character.  Prefix streams hold letter codes and decode them to text
on demand.  ``encode`` and ``decode`` are the one place where letters become
numbers (positions in a letter tuple) and back.  All matrix and
counting arithmetic in this module is exact integer arithmetic (numpy is used
only for letter codes, image tables and the packed window codes of
``FactorIndex``).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

MAX_ALPHABET_SIZE = 10


class NotProlongableError(ValueError):
    """The morphism does not extend the requested letter to an infinite word."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in {self.letters!r}")
        for c in self.letters:
            if len(c) != 1 or c.isspace():
                raise ValueError(f"letters must be single symbols, got {c!r}")
        if len(self.letters) > MAX_ALPHABET_SIZE:
            raise ValueError(f"alphabets larger than {MAX_ALPHABET_SIZE} letters are not supported")

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise ValueError(f"{letter!r} is not a letter of {self.letters!r}") from None

    def check_word(self, word: str) -> str:
        for c in word:
            if c not in self.letters:
                raise ValueError(f"{c!r} is not a letter of {self.letters!r}")
        return word


@dataclass(frozen=True)
class Morphism:
    """Monoid endomorphism of the free monoid over ``alphabet``, given letterwise."""

    alphabet: Alphabet
    images: dict[str, str]

    def __post_init__(self):
        for c in self.alphabet.letters:
            if c not in self.images:
                raise ValueError(f"no image given for letter {c!r}")
        for c, img in self.images.items():
            self.alphabet.index(c)
            self.alphabet.check_word(img)

    def apply(self, word: str) -> str:
        images = self.images
        return "".join(images[c] for c in word)

    def iterate(self, word: str, n: int) -> str:
        for _ in range(n):
            word = self.apply(word)
        return word


def make_morphism(letters: str, **images: str) -> Morphism:
    """Convenience constructor: ``make_morphism("xy", x="xy", y="yyx")``."""
    return Morphism(Alphabet(tuple(letters)), dict(images))


# ---------------------------------------------------------------------------
# mortality, prolongability, primitivity


def mortal_letters(m: Morphism) -> frozenset[str]:
    """Letters erased by some iterate of the morphism."""
    mortal: set[str] = set()
    changed = True
    while changed:
        changed = False
        for c in m.alphabet.letters:
            if c not in mortal and all(ch in mortal for ch in m.images[c]):
                mortal.add(c)
                changed = True
    return frozenset(mortal)


def is_prolongable(m: Morphism, letter: str) -> bool:
    """True if the image of ``letter`` is ``letter + tail`` with a non-mortal tail."""
    img = m.images[letter]
    if len(img) < 2 or img[0] != letter:
        return False
    mortal = mortal_letters(m)
    return any(c not in mortal for c in img[1:])


def incidence_matrix(m: Morphism) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) counts occurrences of letter i in the image of letter j."""
    letters = m.alphabet.letters
    return tuple(
        tuple(m.images[col].count(row) for col in letters) for row in letters
    )


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def exact_det(matrix) -> int:
    """Determinant by fraction-free (Bareiss) integer elimination."""
    n = len(matrix)
    a = [list(map(int, row)) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_primitive(m: Morphism) -> bool:
    """Some power M^k of the incidence matrix is entrywise positive: every
    letter occurs in the k-th iterated image of every letter.

    By Wielandt's bound a primitive d x d matrix has M^((d-1)^2 + 1) > 0, and
    no power of any other matrix is positive, so that one power decides it.
    Entries are clamped to 0/1, which keeps their support and their size.
    """
    mat = tuple(tuple(min(e, 1) for e in row) for row in incidence_matrix(m))
    power = mat
    for _ in range((m.alphabet.size - 1) ** 2):
        power = tuple(tuple(min(e, 1) for e in row) for row in _mat_mul(power, mat))
    return all(e > 0 for row in power for e in row)


@dataclass(frozen=True)
class MorphismReport:
    mortal: frozenset[str]
    prolongable: tuple[str, ...]
    primitive: bool
    matrix: tuple[tuple[int, ...], ...]
    det: int


def analyze_morphism(m: Morphism) -> MorphismReport:
    """Mortality, prolongability, primitivity, incidence matrix and its determinant."""
    return MorphismReport(
        mortal=mortal_letters(m),
        prolongable=tuple(c for c in m.alphabet.letters if is_prolongable(m, c)),
        primitive=is_primitive(m),
        matrix=incidence_matrix(m),
        det=exact_det(incidence_matrix(m)),
    )


# ---------------------------------------------------------------------------
# Parikh vectors and weights


def parikh(alphabet: Alphabet, word: str) -> tuple[int, ...]:
    """Occurrence counts of each alphabet letter, in alphabet order."""
    alphabet.check_word(word)
    return tuple(word.count(c) for c in alphabet.letters)


def check_weights(alphabet: Alphabet, weights) -> tuple[int, ...]:
    weights = tuple(int(w) for w in weights)
    if len(weights) != alphabet.size:
        raise ValueError(f"expected {alphabet.size} weights, got {len(weights)}")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    return weights


def word_weight(alphabet: Alphabet, word: str, weights) -> int:
    """Dot product of the weight vector with the Parikh vector of the word."""
    weights = check_weights(alphabet, weights)
    return sum(w * c for w, c in zip(weights, parikh(alphabet, word)))


# ---------------------------------------------------------------------------
# fixed points and prefix streams


def fixed_point_prefix(m: Morphism, start: str, n: int) -> str:
    """First ``n`` letters of the infinite fixed point of ``m`` beginning with ``start``."""
    return MorphicStream(m, start).prefix(n)


class PrefixStream:
    """Deterministic, monotone generator of prefixes of a right-infinite word.

    The prefix built so far is ``_codes[:_length]``, letter codes (positions
    in ``alphabet.letters``, see ``encode``) in one buffer that doubles when
    full, so appends are amortized.  Subclasses supply ``_grow`` returning
    the next nonempty chunk of codes; ``prefix`` and ``slice`` decode on
    demand.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._codes = np.empty(0, dtype=np.uint8)
        self._length = 0  # perfbench/spans.py counts letters built by this name

    def _grow(self) -> np.ndarray:
        raise NotImplementedError

    def _append(self, chunk: np.ndarray):
        end = self._length + chunk.size
        if end > self._codes.size:
            buffer = np.empty(max(end, 2 * self._codes.size), dtype=np.uint8)
            buffer[: self._length] = self._codes[: self._length]
            self._codes = buffer
        self._codes[self._length : end] = chunk
        self._length = end

    def _ensure(self, n: int):
        if n < 0:
            raise ValueError("length must be nonnegative")
        while self._length < n:
            chunk = self._grow()
            if not chunk.size:
                raise RuntimeError("stream stopped growing")
            self._append(chunk)

    def codes(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of the codes of the letters at 0-based positions [start, stop)."""
        if start < 0:
            raise ValueError("positions must be nonnegative")
        self._ensure(stop)
        view = self._codes[start:stop]
        view.flags.writeable = False
        return view

    def prefix(self, n: int) -> str:
        return self.slice(0, n)

    def slice(self, start: int, stop: int) -> str:
        """Letters at 0-based positions [start, stop)."""
        return decode(self.codes(start, stop), self.alphabet.letters)


PIECE_SIZE = 65_536
_NO_LETTER = 255  # pads the rows of an image table; never a letter code


class MorphicStream(PrefixStream):
    """Prefixes of the fixed point w of a morphism f prolongable on ``start``.

    w = f(w) = f(w_0) f(w_1) f(w_2) ..., so the stream starts from f(start)
    and each growth applies f to the next ``PIECE_SIZE`` letters of its own
    codes.  The codes are always f of the letters read so far, and they stay
    longer than them: were |f(w_0 ... w_(r-1))| = r, f would fix that finite
    prefix and the fixed point would be finite.  A prefix of n letters builds
    little more than n.

    f is applied to a piece by one gather from ``_images``, whose row c holds
    the codes of f(letter c) padded with ``_NO_LETTER`` to the longest image;
    dropping the pads leaves the images in order.
    """

    def __init__(self, morphism: Morphism, start: str):
        super().__init__(morphism.alphabet)
        if not is_prolongable(morphism, start):
            raise NotProlongableError(f"morphism is not prolongable on {start!r}")
        self.morphism = morphism
        self.start = start
        letters = morphism.alphabet.letters
        images = [morphism.images[c] for c in letters]
        self._images = np.full((len(letters), max(map(len, images))), _NO_LETTER, dtype=np.uint8)
        for row, image in zip(self._images, images):
            row[: len(image)] = encode(image, letters)
        self._append(encode(morphism.images[start], letters))
        self._read = 1  # letters of the codes whose images the codes hold

    def _grow(self) -> np.ndarray:
        while True:
            piece = self._codes[self._read : self._length][:PIECE_SIZE]
            self._read += piece.size
            image = self._images[piece].ravel()
            image = image[image != _NO_LETTER]
            if image.size:  # pieces of mortal letters have empty images
                return image


class PeriodicStream(PrefixStream):
    """The periodic word ``period`` repeated forever."""

    def __init__(self, period: str):
        if not period:
            raise ValueError("period must be nonempty")
        super().__init__(Alphabet(tuple(dict.fromkeys(period))))
        self.period = period

    def _grow(self) -> np.ndarray:
        return encode(self.period * max(PIECE_SIZE // len(self.period), 1), self.alphabet.letters)


# ---------------------------------------------------------------------------
# letter codes


def encode(text: str, letters) -> np.ndarray:
    """The uint8 position of each character of ``text`` in ``letters``.
    Raises ValueError on any character outside ``letters``."""
    if not 1 <= len(letters) <= 255:
        raise ValueError("letter codes need between 1 and 255 letters")
    largest = max(map(ord, letters))
    try:
        # one byte per character while every letter is Latin-1, four otherwise
        raw = text.encode("latin-1") if largest < 256 else text.encode("utf-32-le")
    except UnicodeEncodeError as exc:  # a character past Latin-1 is no letter
        raise ValueError(f"{text[exc.start]!r} is not a letter of {tuple(letters)!r}") from None
    points = np.frombuffer(raw, dtype=np.uint8 if largest < 256 else np.uint32)
    # one spare slot past the largest letter: every foreign point lands on 255
    table = np.full(largest + 2, 255, dtype=np.uint8)
    table[[ord(c) for c in letters]] = np.arange(len(letters))
    codes = table.take(points, mode="clip")
    if codes.size and codes.max() == 255:
        foreign = text[int(np.argmax(codes == 255))]
        raise ValueError(f"{foreign!r} is not a letter of {tuple(letters)!r}")
    return codes


def decode(codes: np.ndarray, letters) -> str:
    """The text whose characters are ``letters[c]`` for each position c in ``codes``."""
    points = [ord(c) for c in letters]
    # one byte per letter while every letter is Latin-1, four otherwise
    if max(points) < 256:
        return str(np.array(points, dtype=np.uint8)[codes].data, "latin-1")
    return str(np.array(points, dtype=np.uint32)[codes].data, "utf-32-le")


# ---------------------------------------------------------------------------
# the short factors of a fixed prefix


class FactorIndex:
    """The distinct factors of one fixed text over ``letters``, or of several
    (the union of their factors; no window crosses from one text into the
    next), by length.

    Letters are coded by ``encode``.  Each length-k window is packed into one
    unsigned integer in base max(|A|, 2), which is exact while that base to
    the k is below 2^63 (``packed_limit``: 62, 31 and 18 for 2, 4 and 10
    letters); the windows are sorted in place and the distinct ones are
    decoded once into a cached ``frozenset``.  Longer words are
    answered by substring search.  Absence only means "not in these texts".
    """

    def __init__(self, texts: str | Iterable[str], letters):
        letters = tuple(letters)
        self.texts = (texts,) if isinstance(texts, str) else tuple(texts)
        self.letters = letters
        self._base = max(len(letters), 2)
        limit = 0
        while self._base ** (limit + 1) < 2**63:
            limit += 1
        self.packed_limit = limit
        self._digits = [encode(text, letters) for text in self.texts]
        self._sets: dict[int, frozenset[str]] = {0: frozenset({""})}

    def of_length(self, k: int) -> frozenset[str]:
        """The distinct length-k factors of the texts."""
        if not 0 <= k <= self.packed_limit:
            raise ValueError(f"lengths 0..{self.packed_limit} are packed, got {k}")
        found = self._sets.get(k)
        if found is None:
            found = self._sets[k] = self._distinct(k)
        return found

    def _distinct(self, k: int) -> frozenset[str]:
        counts = [max(digits.size - k + 1, 0) for digits in self._digits]
        total = sum(counts)
        if total == 0:
            return frozenset()
        # the narrowest unsigned type that holds every code keeps the windows
        # small; below 16 bits numpy's in-place sort is many times slower
        width = np.promote_types(np.uint16, np.min_scalar_type(self._base**k - 1))
        codes = np.zeros(total, dtype=width)
        end = 0
        for digits, count in zip(self._digits, counts):
            windows = codes[end : end + count]  # this text's windows, packed in place
            for j in range(k):
                windows *= self._base
                windows += digits[j : j + count]
            end += count
        codes.sort()
        first = np.empty(total, dtype=bool)
        first[0] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        codes = codes[first]
        # unpack the last digit first into a (distinct, k) array of positions
        digits = np.empty((codes.size, k), dtype=np.uint8)
        for j in reversed(range(k)):
            digits[:, j] = codes % self._base
            codes //= self._base
        joined = decode(digits.ravel(), self.letters)
        return frozenset(joined[i : i + k] for i in range(0, len(joined), k))

    def __contains__(self, word: str) -> bool:
        if len(word) <= self.packed_limit:
            return word in self.of_length(len(word))
        return any(word in text for text in self.texts)


# ---------------------------------------------------------------------------
# the exact factor language of a primitive morphic or periodic word


def has_covering_words(stream: PrefixStream) -> bool:
    """True iff ``covering_words`` accepts the stream: a periodic word or the
    fixed point of a primitive morphism."""
    return isinstance(stream, PeriodicStream) or (
        isinstance(stream, MorphicStream) and is_primitive(stream.morphism)
    )


def covering_words(stream: PrefixStream, k: int) -> list[str]:
    """Short words whose factors of length <= k are exactly the factors of
    length <= k of the stream's infinite word.  Builds no prefix.

    For the fixed point of a primitive morphism f, every factor of length
    <= k lies in f^j(ac) for a 2-factor ac of the word, once every
    |f^j(letter)| >= k; the 2-factors are those of f(start), closed under
    adding the 2-factors of f(ac) (uniform recurrence; Allouche & Shallit,
    *Automatic Sequences*, ch. 7 and 10).  For a periodic word u^ω, every
    factor of length <= k lies in u repeated ceil(k/|u|) + 1 times.  Any
    other stream raises ValueError.
    """
    if k < 0:
        raise ValueError("length must be nonnegative")
    if not has_covering_words(stream):
        raise ValueError("exact factors need a periodic word or the fixed point of a primitive morphism")
    if isinstance(stream, PeriodicStream):
        period = stream.period
        return [period * (-(-k // len(period)) + 1)]
    m = stream.morphism
    letters = m.alphabet.letters
    pairs: frozenset[str] = frozenset()
    new = FactorIndex(m.images[stream.start], letters).of_length(2)
    while new:
        pairs |= new
        new = FactorIndex([m.apply(ac) for ac in new], letters).of_length(2) - pairs
    lengths = dict.fromkeys(letters, 1)  # |f^j(letter)|
    j = 0
    while min(lengths.values()) < k:
        lengths = {c: sum(lengths[d] for d in m.images[c]) for c in lengths}
        j += 1
    return [m.iterate(ac, j) for ac in sorted(pairs)]


def exact_factor_counts(stream: PrefixStream, k: int) -> list[int]:
    """counts[L] = number of distinct factors of length L of the stream's
    infinite word, for L = 0..k, read from ``covering_words``.

    The covering words are joined, each followed by its own separator (an
    int, so never a letter), and counted by one ``SuffixAutomaton``.  A
    window that holds a separator is unlike every other window, so the
    factors of the words alone are the automaton's count minus the number of
    windows that hold a separator.
    """
    texts = covering_words(stream, k)
    joined = [s for i, w in enumerate(texts) for s in (*w, i)]
    counts = SuffixAutomaton(joined).factor_counts(k)
    for length in range(1, k + 1):
        inside_words = sum(max(len(w) - length + 1, 0) for w in texts)
        counts[length] -= len(joined) - length + 1 - inside_words
    return counts


@dataclass(frozen=True)
class CubeCheck:
    is_cube_free: bool
    position: int | None = None  # 1-based start of the first cube
    period: int | None = None


def is_cube_free(word: str) -> CubeCheck:
    """True iff no nonempty u has uuu as a factor; otherwise the first violation
    (least position, then least period).

    A cube of period p starting at i holds the aligned block [kp, kp+p) and a
    copy of it right after, for the one k with kp - p < i <= kp.  So each
    period compares aligned blocks only, and tests the starts in (kp - p, kp]
    where two match.
    """
    n = len(word)
    best: tuple[int, int] | None = None
    for p in range(1, n // 3 + 1):
        for s in range(0, n - 2 * p + 1, p):
            if word[s : s + p] != word[s + p : s + 2 * p]:
                continue
            i = next(
                (
                    i
                    for i in range(max(s - p + 1, 0), min(s, n - 3 * p) + 1)
                    if word[i : i + 2 * p] == word[i + p : i + 3 * p]
                ),
                None,
            )
            if i is not None:
                if best is None or i < best[0]:
                    best = (i, p)
                break
    if best is None:
        return CubeCheck(True)
    return CubeCheck(False, best[0] + 1, best[1])


class SuffixAutomaton:
    """Online index of all factors of a word: a text, or any sequence of
    hashable symbols.

    Gives distinct-factor counts for every length at once; results agree with
    naive scanning by construction.
    """

    __slots__ = ("link", "length", "trans", "last")

    def __init__(self, text: Iterable[Hashable] = ""):
        self.link = [-1]
        self.length = [0]
        self.trans: list[dict[Hashable, int]] = [{}]
        self.last = 0
        for ch in text:
            self.extend(ch)

    def extend(self, ch: Hashable):
        cur = len(self.length)
        self.length.append(self.length[self.last] + 1)
        self.link.append(-1)
        self.trans.append({})
        p = self.last
        while p != -1 and ch not in self.trans[p]:
            self.trans[p][ch] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.trans[p][ch]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = len(self.length)
                self.length.append(self.length[p] + 1)
                self.link.append(self.link[q])
                self.trans.append(dict(self.trans[q]))
                while p != -1 and self.trans[p].get(ch) == q:
                    self.trans[p][ch] = clone
                    p = self.link[p]
                self.link[q] = clone
                self.link[cur] = clone
        self.last = cur

    def factor_counts(self, max_len: int) -> list[int]:
        """counts[k] = number of distinct factors of length k, for k = 0..max_len."""
        delta = [0] * (max_len + 2)
        for s in range(1, len(self.length)):
            lo = self.length[self.link[s]] + 1
            if lo > max_len:
                continue
            hi = min(self.length[s], max_len)
            delta[lo] += 1
            delta[hi + 1] -= 1
        counts = [1]
        run = 0
        for k in range(1, max_len + 1):
            run += delta[k]
            counts.append(run)
        return counts


# ---------------------------------------------------------------------------
# morphism spec files
#
# line 1: alphabet letters separated by spaces
# then one line per letter:  a -> image      (image `_` denotes the empty word)
# optionally:                weights: p1 p2 ...


def parse_morphism_spec(text: str) -> tuple[Morphism, tuple[int, ...] | None]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty morphism spec")
    alphabet = Alphabet(tuple(lines[0].split()))
    images: dict[str, str] = {}
    weights = None
    for ln in lines[1:]:
        if ln.startswith("weights:"):
            parts = ln[len("weights:") :].replace(",", " ").split()
            weights = tuple(int(p) for p in parts)
            continue
        if "->" not in ln:
            raise ValueError(f"unrecognized morphism spec line: {ln!r}")
        lhs, rhs = ln.split("->", 1)
        letter = lhs.strip()
        image = rhs.strip()
        if len(letter) != 1:
            raise ValueError(f"left side must be a single letter: {ln!r}")
        images[letter] = "" if image == "_" else image
    morphism = Morphism(alphabet, images)
    if weights is not None:
        weights = check_weights(alphabet, weights)
    return morphism, weights


def load_morphism_file(path) -> tuple[Morphism, tuple[int, ...] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_morphism_spec(fh.read())


def format_morphism_spec(m: Morphism, weights=None) -> str:
    lines = [" ".join(m.alphabet.letters)]
    for c in m.alphabet.letters:
        lines.append(f"{c} -> {m.images[c] or '_'}")
    if weights is not None:
        lines.append("weights: " + " ".join(str(w) for w in weights))
    return "\n".join(lines) + "\n"
