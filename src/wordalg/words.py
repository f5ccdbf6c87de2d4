"""Alphabets, finite words, substitution morphisms and their fixed points.

Finite words are given as strings of single-character letters.  Between
layers they pass as uint8 letter codes (positions in a letter tuple):
prefix streams give the codes of a range, and the covering words and
``FactorIndex`` take codes.  ``encode`` and ``decode`` turn text into codes
and back, each in one pass of a C codec: Latin-1 bytes translated through a
256-byte table (or a UTF-32 table lookup for letters past Latin-1) one way,
the charmap codec the other.  All matrix and counting arithmetic in this
module is exact integer arithmetic (numpy is used only for letter codes,
image tables and the packed window codes of ``FactorIndex``, whose lengths
up to the uint16 limit all read one sorted table of the longest such windows).
"""

from __future__ import annotations

import codecs
import re
from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

MAX_ALPHABET_SIZE = 10


class NotProlongableError(ValueError):
    """The morphism does not extend the requested letter to an infinite word."""


def check_letters(letters) -> tuple[str, ...]:
    """The letters as a tuple; raises ValueError when one repeats or is not a
    single character other than whitespace."""
    letters = tuple(letters)
    if len(set(letters)) != len(letters):
        raise ValueError(f"duplicate letters in {letters!r}")
    for c in letters:
        if len(c) != 1 or c.isspace():
            raise ValueError(f"letters must be single symbols, got {c!r}")
    return letters


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        check_letters(self.letters)
        if "\ufffe" in self.letters:  # ``decode`` reads it as "no letter"
            raise ValueError("U+FFFE is a noncharacter, not a letter")
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
    matrix = incidence_matrix(m)
    return MorphismReport(
        mortal=mortal_letters(m),
        prolongable=tuple(c for c in m.alphabet.letters if is_prolongable(m, c)),
        primitive=is_primitive(m),
        matrix=matrix,
        det=exact_det(matrix),
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


def _check_range(start: int, stop: int):
    if start < 0:
        raise ValueError("positions must be nonnegative")
    if stop < 0:
        raise ValueError("length must be nonnegative")


class PrefixStream:
    """Deterministic generator of prefixes of a right-infinite word.

    Subclasses supply ``codes``, the letter codes (positions in
    ``alphabet.letters``, see ``encode``) of a range of positions, and raise
    ValueError on a negative position; ``prefix`` and ``slice`` decode them.
    Only ``MorphicStream`` stores letters.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def codes(self, start: int, stop: int) -> np.ndarray:
        """The codes of the letters at 0-based positions [start, stop), not to be written."""
        raise NotImplementedError

    def prefix(self, n: int) -> str:
        return self.slice(0, n)

    def slice(self, start: int, stop: int) -> str:
        """Letters at 0-based positions [start, stop)."""
        return decode(self.codes(start, stop), self.alphabet.letters)


PIECE_SIZE = 65_536
_NO_LETTER = 255  # pads the rows of an image table; never a letter code


class Substitution:
    """Sends a run of uint8 codes to their ``images`` (byte strings, the
    image of code c at ``images[c]``) laid end to end, in one gather.

    ``_table`` holds one ``np.void`` item per code: its image padded with
    ``_NO_LETTER``, which no image may hold, to the longest, ``width``.
    Taking a run's items lays the padded images side by side; dropping the
    pads leaves the images in order.  A run of ``step`` codes has at most
    ``PIECE_SIZE`` letters of images, or one image when that is longer.
    """

    def __init__(self, images):
        self.width = max(1, *map(len, images))
        self.step = max(PIECE_SIZE // self.width, 1)
        table = b"".join(image.ljust(self.width, bytes([_NO_LETTER])) for image in images)
        self._table = np.frombuffer(table, np.dtype((np.void, self.width)))

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        image = self._table.take(codes).view(np.uint8)
        return image[image != _NO_LETTER]


class MorphicStream(PrefixStream):
    """Prefixes of the fixed point w of a morphism f prolongable on ``start``.

    w = f(w) = f(w_0) f(w_1) f(w_2) ..., so the stream starts from f(start)
    and each growth applies f (a ``Substitution``) to the next ``step``
    letters of its own codes, so it adds at most ``step * width`` letters:
    at most ``PIECE_SIZE``, or one image when that is longer.  The codes are
    always f of the letters read so far, and they stay longer than them:
    were |f(w_0 ... w_(r-1))| = r, f would fix that finite prefix and the
    fixed point would be finite.  So growth never stops, and a prefix of n
    letters builds at most n plus one growth.

    The prefix built so far is ``_codes[:_length]``.  A request past it
    that the buffer cannot hold with one more growth reallocates the buffer
    once, to the request plus one growth.
    """

    def __init__(self, morphism: Morphism, start: str):
        super().__init__(morphism.alphabet)
        if not is_prolongable(morphism, start):
            raise NotProlongableError(f"morphism is not prolongable on {start!r}")
        self.morphism = morphism
        self.start = start
        letters = morphism.alphabet.letters
        self._substitution = Substitution([encode(morphism.images[c], letters).tobytes() for c in letters])
        self._codes = encode(morphism.images[start], letters)
        self._length = self._codes.size  # perfbench/spans.py counts letters built by this name
        self._read = 1  # letters of the codes whose images the codes hold

    def codes(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of the codes of the letters at 0-based positions [start, stop)."""
        _check_range(start, stop)
        substitution = self._substitution
        end = stop + substitution.step * substitution.width  # the request plus one growth
        if self._length < stop and self._codes.size < end:
            buffer = np.empty(end, dtype=np.uint8)
            buffer[: self._length] = self._codes[: self._length]
            self._codes = buffer
        while self._length < stop:
            piece = self._codes[self._read : self._length][: substitution.step]
            self._read += piece.size
            image = substitution(piece)
            self._codes[self._length : self._length + image.size] = image
            self._length += image.size
        view = self._codes[start:stop]
        view.flags.writeable = False
        return view


class PeriodicStream(PrefixStream):
    """The periodic word ``period`` repeated forever; stores only its letter codes."""

    def __init__(self, period: str):
        if not period:
            raise ValueError("period must be nonempty")
        super().__init__(Alphabet(tuple(dict.fromkeys(period))))
        self._period_codes = encode(period, self.alphabet.letters)

    def codes(self, start: int, stop: int) -> np.ndarray:
        """The codes of the letters at 0-based positions [start, stop), a new array."""
        _check_range(start, stop)
        n, p = max(stop - start, 0), self._period_codes.size
        # np.tile, not np.resize, which concatenates one array per copy
        return np.tile(np.roll(self._period_codes, -(start % p)), -(-n // p))[:n]


# ---------------------------------------------------------------------------
# letter codes


def encode(text: str, letters) -> np.ndarray:
    """The uint8 position of each character of ``text`` in ``letters``, as a
    read-only array.  Raises ValueError naming the first character of
    ``text`` outside ``letters``."""
    if not 1 <= len(letters) <= 255:
        raise ValueError("letter codes need between 1 and 255 letters")
    points = [ord(c) for c in letters]
    if max(points) < 256:
        # one byte per character: a 256-byte table sends each Latin-1 byte to
        # its code, and every byte that is no letter to _NO_LETTER
        table = bytearray([_NO_LETTER]) * 256
        for code, point in enumerate(points):
            table[point] = code
        try:
            codes = text.encode("latin-1").translate(table)
        except UnicodeEncodeError as exc:  # a character past Latin-1 is no letter
            codes = text[: exc.start].encode("latin-1").translate(table) + bytes([_NO_LETTER])
        first = codes.find(_NO_LETTER)
        if first >= 0:
            raise ValueError(f"{text[first]!r} is not a letter of {tuple(letters)!r}")
        return np.frombuffer(codes, dtype=np.uint8)
    # four bytes per character; one spare slot past the largest letter, so
    # every foreign point lands on _NO_LETTER
    table = np.full(max(points) + 2, _NO_LETTER, dtype=np.uint8)
    table[points] = np.arange(len(letters))
    codes = table.take(np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32), mode="clip")
    if codes.size and codes.max() == _NO_LETTER:
        foreign = text[int(np.argmax(codes == _NO_LETTER))]
        raise ValueError(f"{foreign!r} is not a letter of {tuple(letters)!r}")
    codes.flags.writeable = False
    return codes


def decode(codes: np.ndarray, letters) -> str:
    """The text whose characters are ``letters[c]`` for each uint8 code c in
    ``codes``, in one pass of the charmap codec.  Raises ValueError on a code
    with no letter.

    The decoding table is padded to 256 characters with U+FFFE, which the
    codec reads as "no character" (so it can be no letter); a table of that
    length takes the codec's fast path.
    """
    codes = np.ascontiguousarray(codes)
    if codes.dtype != np.uint8:
        raise TypeError(f"letter codes are uint8, got {codes.dtype}")
    table = "".join(letters).ljust(256, "\ufffe")
    return codecs.charmap_decode(codes, "strict", table)[0]


# ---------------------------------------------------------------------------
# the short factors of a fixed prefix


# FactorIndex packs and sorts at most this many windows at a time (2 MB of
# uint16 codes), so a long text never has one array of all its windows: at
# 4e6 windows, such an array and its flags (12 MB) set theorem32's peak RSS.
# On a 2-core VM these runs sort as fast as all 4e6 windows at once; runs of
# 2^16 are about a fifth slower.
WINDOW_RUN = 1 << 20


def _longest_power(base: int, bound: int) -> int:
    """The largest k with base^k <= bound."""
    k = 0
    while base ** (k + 1) <= bound:
        k += 1
    return k


def _sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, ascending; sorts ``codes`` in place."""
    codes.sort()
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


class FactorIndex:
    """The distinct factors of fixed words over ``letters``, given as letter
    codes (see ``encode``), by length: the union of their factors; no window
    crosses from one word into the next.

    Each length-k window is packed into one unsigned integer in base
    b = max(|A|, 2), which is exact while b^k is below 2^63
    (``packed_limit``: 62, 31 and 18 for 2, 4 and 10 letters); the windows
    are sorted, a long word's ``WINDOW_RUN`` at a time, and the distinct
    codes are decoded once into a cached ``frozenset``.  A longer query is
    searched in each word decoded.  Absence only means "not in these words".

    Lengths up to T, the longest whose codes fit in uint16 (16, 10, 8 and 4
    for 2, 3, 4 and 10 letters), share one window table: the sorted distinct
    codes of the T-windows, built on the first such query.  A k-window is
    the first k letters of a T-window, whose code divided by b^(T-k) is the
    k-window's, unless it starts in a word's last T - 1 letters; those few
    are packed apart and sorted in with the divided table.  Longer lengths
    pack and sort their own windows.  Duplicates are dropped by comparing
    neighbours after each sort, not by ``np.unique`` or ``np.union1d``: the
    first call of either imports ``numpy.ma``, about 14 ms.
    """

    def __init__(self, codes: Iterable[np.ndarray], letters):
        self.letters = letters = tuple(letters)
        self._base = max(len(letters), 2)
        self.packed_limit = _longest_power(self._base, 2**63 - 1)
        self._table_length = _longest_power(self._base, 2**16)
        self._table: np.ndarray | None = None  # sorted distinct codes of the T-windows
        self._digits = list(codes)
        self._sets: dict[int, frozenset[str]] = {0: frozenset({""})}

    def of_length(self, k: int) -> frozenset[str]:
        """The distinct length-k factors of the words."""
        if not 0 <= k <= self.packed_limit:
            raise ValueError(f"lengths 0..{self.packed_limit} are packed, got {k}")
        found = self._sets.get(k)
        if found is None:
            found = self._sets[k] = self._decoded(self._codes(k), k)
        return found

    def _codes(self, k: int) -> np.ndarray:
        """The sorted distinct codes of the length-k windows."""
        t = self._table_length
        if k > t:
            return self._distinct_codes(k, self._digits)
        if self._table is None:
            self._table = self._distinct_codes(t, self._digits)
        tails = [digits[max(digits.size - t + 1, 0) :] for digits in self._digits]
        return self._distinct_codes(k, tails, self._table // self._base ** (t - k))

    def _distinct_codes(self, k: int, texts: list[np.ndarray], extra=None) -> np.ndarray:
        """The sorted distinct codes of the length-k windows of ``texts`` (letter
        codes) and of the codes ``extra``.  Each text's windows are packed
        ``WINDOW_RUN`` at a time, and a full run is cut to its distinct codes
        at once, so no array holds every window of a long text; shorter runs
        wait for the one sort that merges them all."""
        # the narrowest unsigned type that holds every code keeps the windows
        # small; below 16 bits numpy's in-place sort is many times slower
        width = np.promote_types(np.uint16, np.min_scalar_type(self._base**k - 1))
        pieces = [np.zeros(0, dtype=width)] if extra is None else [extra]
        for digits in texts:
            for start in range(0, digits.size - k + 1, WINDOW_RUN):
                windows = np.zeros(min(WINDOW_RUN, digits.size - k + 1 - start), dtype=width)
                for j in range(start, start + k):
                    windows *= self._base
                    windows += digits[j : j + windows.size]
                pieces.append(_sorted_distinct(windows) if windows.size == WINDOW_RUN else windows)
        return _sorted_distinct(np.concatenate(pieces))

    def _decoded(self, codes: np.ndarray, k: int) -> frozenset[str]:
        # unpack the last digit first into a (distinct, k) array of positions;
        # ``codes`` is the caller's own array and is divided in place
        digits = np.empty((codes.size, k), dtype=np.uint8)
        for j in reversed(range(k)):
            digits[:, j] = codes % self._base
            codes //= self._base
        joined = decode(digits.ravel(), self.letters)
        return frozenset(joined[i : i + k] for i in range(0, len(joined), k))

    def __contains__(self, word: str) -> bool:
        if len(word) <= self.packed_limit:
            return word in self.of_length(len(word))
        return any(word in decode(digits, self.letters) for digits in self._digits)


# ---------------------------------------------------------------------------
# the exact factor language of a primitive morphic or periodic word


def has_covering_words(stream: PrefixStream) -> bool:
    """True iff ``covering_codes`` accepts the stream: a periodic word or the
    fixed point of a primitive morphism."""
    return isinstance(stream, PeriodicStream) or (
        isinstance(stream, MorphicStream) and is_primitive(stream.morphism)
    )


def covering_codes(stream: PrefixStream, k: int) -> list[np.ndarray]:
    """Letter codes of short words whose factors of length <= k are exactly
    the factors of length <= k of the stream's infinite word.  Builds no prefix.

    For the fixed point w of a primitive morphism f, every factor of length
    <= k lies in f^j(ac) for a 2-factor ac of w, once every |f^j(letter)| >= k
    (uniform recurrence; Allouche & Shallit, *Automatic Sequences*, ch. 7 and
    10).  The 2-factors are w_0 w_1 closed under adding the 2-factors of
    f(ac): the closure holds the 2-factors of f(u) whenever it holds those of
    u, so those of every f^j(w_0 w_1), a prefix of w; every 2-factor of w lies
    in such a prefix.  f is the stream's own ``Substitution``, applied j times
    for f^j.  For a periodic word u^ω, every factor of length <= k lies in u
    repeated ceil(k/|u|) + 1 times.  Any other stream raises ValueError.
    """
    if k < 0:
        raise ValueError("length must be nonnegative")
    if not has_covering_words(stream):
        raise ValueError("exact factors need a periodic word or the fixed point of a primitive morphism")
    if isinstance(stream, PeriodicStream):
        return [np.tile(stream._period_codes, -(-k // stream._period_codes.size) + 1)]
    f, images = stream._substitution, stream.morphism.images
    pairs, new = set(), {tuple(stream.codes(0, 2).tolist())}
    while new:
        pairs |= new
        f_new = [f(np.array(ac, dtype=np.uint8)).tolist() for ac in new]
        new = {pair for image in f_new for pair in zip(image, image[1:])} - pairs
    covers = [np.array(ac, dtype=np.uint8) for ac in sorted(pairs)]
    lengths = dict.fromkeys(images, 1)  # |f^j(letter)|, with f^j(ac) in covers
    while min(lengths.values()) < k:
        lengths = {c: sum(lengths[d] for d in images[c]) for c in lengths}
        covers = [f(codes) for codes in covers]
    return covers


def exact_factor_counts(stream: PrefixStream, k: int) -> list[int]:
    """counts[L] = number of distinct factors of length L of the stream's
    infinite word, for L = 0..k, read from ``covering_codes``.

    The covering codes are joined, each word followed by its own separator
    (a negative int, so never a letter code), and counted by one
    ``SuffixAutomaton``.  A window that holds a separator is unlike every
    other window, so the factors of the words alone are the automaton's
    count minus the number of windows that hold a separator.
    """
    covers = covering_codes(stream, k)
    joined = [s for i, codes in enumerate(covers) for s in (*codes.tolist(), -1 - i)]
    counts = SuffixAutomaton(joined).factor_counts(k)
    for length in range(1, k + 1):
        inside_words = sum(max(codes.size - length + 1, 0) for codes in covers)
        counts[length] -= len(joined) - length + 1 - inside_words
    return counts


@dataclass(frozen=True)
class CubeCheck:
    is_cube_free: bool
    position: int | None = None  # 1-based start of the first cube
    period: int | None = None


_CUBE = re.compile(r"(.+?)\1\1", re.DOTALL)
_CUBE_FREE = CubeCheck(True)  # the one answer for every cube-free word


def is_cube_free(word: str) -> CubeCheck:
    """True iff no nonempty u has uuu as a factor; otherwise the first violation:
    the leftmost match of ``(.+?)\\1\\1``, so the least start, then the least
    period.  Quadratic in the length of a cube-free word, where every start
    tries every period; the cube view passes it short monomials."""
    match = _CUBE.search(word)
    if match is None:
        return _CUBE_FREE
    return CubeCheck(False, match.start() + 1, len(match.group(1)))


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
            if weights is not None:
                raise ValueError("duplicate weights line")
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
        if letter in images:
            raise ValueError(f"duplicate image line for letter {letter!r}")
        images[letter] = "" if image == "_" else image
    morphism = Morphism(alphabet, images)
    if weights is not None:
        weights = check_weights(alphabet, weights)
    return morphism, weights


def load_morphism_file(path) -> tuple[Morphism, tuple[int, ...] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_morphism_spec(fh.read())
        except ValueError as exc:  # an OSError names its file already
            raise ValueError(f"{path}: {exc}") from exc


def format_morphism_spec(m: Morphism, weights=None) -> str:
    lines = [" ".join(m.alphabet.letters)]
    for c in m.alphabet.letters:
        lines.append(f"{c} -> {m.images[c] or '_'}")
    if weights is not None:
        lines.append("weights: " + " ".join(str(w) for w in weights))
    return "\n".join(lines) + "\n"
