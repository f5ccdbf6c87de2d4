import itertools
import math
import operator
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from wordalg import monalg
from wordalg.monalg import (
    CERTIFICATE_PRIME,
    CubeIdealView,
    FreeView,
    HorizonWarning,
    IndependenceResult,
    NcPolynomial,
    WordFactorView,
    format_poly_literal,
    freeness_check,
    is_nilpotent_monomial,
    linear_independence,
    parse_poly_literal,
    pattern_images,
)
from wordalg.words import Alphabet, SuffixAutomaton


@pytest.fixture(scope="module")
def xy_view(xy_stream):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        view = WordFactorView(xy_stream, 50_000)
        yield view


@pytest.fixture(scope="module")
def tm_view(tm_stream):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        yield WordFactorView(tm_stream, 50_000)


@pytest.fixture(scope="module")
def tilde_view(tilde_stream):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        yield WordFactorView(tilde_stream, 200_000)


@pytest.fixture(autouse=True)
def _silence_horizon_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        yield


# -- views ------------------------------------------------------------------


def test_word_factor_view_basics(xy_view):
    assert not xy_view.is_zero_monomial("")
    assert not xy_view.is_zero_monomial("xy")
    assert not xy_view.is_zero_monomial("yy")
    assert xy_view.is_zero_monomial("xxx")
    assert "xxx" in xy_view.unseen


def test_word_factor_view_warns_once(xy_stream):
    view = WordFactorView(xy_stream, 1000)
    with pytest.warns(HorizonWarning):
        assert view.is_zero_monomial("yyyy")
    with warnings.catch_warnings():
        warnings.simplefilter("error", HorizonWarning)
        assert view.is_zero_monomial("xxxx")  # second miss stays quiet
    assert view.unseen == {"yyyy", "xxxx"}


def test_cube_view_and_free_view():
    cube = CubeIdealView("xyzw")
    assert not cube.is_zero_monomial("xyxy")
    assert cube.is_zero_monomial("xxx")
    assert cube.is_zero_monomial("zxxxw")
    free = FreeView("ab")
    assert not free.is_zero_monomial("a" * 50)


@pytest.mark.parametrize("view", [CubeIdealView, FreeView])
@pytest.mark.parametrize("letters", [("x", "x"), ("x", " "), ("xy",)])
def test_views_check_letters_as_an_alphabet_does(view, letters):
    with pytest.raises(ValueError) as expected:
        Alphabet(letters)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        view(letters)


def test_zero_monomials_form_an_ideal(xy_view, tm_view):
    rng = random.Random(1)
    cube = CubeIdealView("xy")
    for view, zero_seed in ((xy_view, "xxx"), (tm_view, "yyy"), (cube, "xxx")):
        for _ in range(200):
            u = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
            v = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
            assert view.is_zero_monomial(u + zero_seed + v)


# -- polynomials ----------------------------------------------------------------


def test_reduce_examples(xy_view):
    p = NcPolynomial(xy_view, {"xy": 2, "xxx": 3})
    assert p.coeffs == {"xy": Fraction(2)}
    assert NcPolynomial.zero(xy_view).is_zero()
    assert NcPolynomial(xy_view, {"yy": 1}).coeffs == {"yy": Fraction(1)}


def test_reduce_idempotent_and_linear(xy_view):
    rng = random.Random(2)
    for _ in range(50):
        coeffs = {
            "".join(rng.choice("xy") for _ in range(rng.randint(0, 4))): rng.randint(-3, 3)
            for _ in range(rng.randint(0, 5))
        }
        p = NcPolynomial(xy_view, coeffs)
        assert NcPolynomial(p.view, p.coeffs) == p
        q = NcPolynomial(xy_view, {w: 2 * c for w, c in coeffs.items()})
        assert q == p * 2


def test_multiply_examples(xy_view):
    x = NcPolynomial.monomial(xy_view, "x")
    y = NcPolynomial.monomial(xy_view, "y")
    assert (x * y).coeffs == {"xy": Fraction(1)}
    assert (y * y * y * y).is_zero()  # y-runs have length at most 3
    p = NcPolynomial(xy_view, {"xy": 3, "yx": -1})
    assert NcPolynomial.one(xy_view) * p == p


def test_multiply_associative_on_random_polynomials(xy_view):
    rng = random.Random(3)

    def random_poly():
        return NcPolynomial(
            xy_view,
            {
                "".join(rng.choice("xy") for _ in range(rng.randint(0, 3))): rng.randint(-2, 2)
                for _ in range(rng.randint(1, 5))
            },
        )

    for _ in range(40):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert (p * q) * r == p * (q * r)


def test_multiply_bilinear(xy_view):
    x = NcPolynomial.monomial(xy_view, "x")
    y = NcPolynomial.monomial(xy_view, "y")
    p = NcPolynomial(xy_view, {"xy": 1, "yy": 2})
    assert (x + y) * p == x * p + y * p
    assert p * (x + y) == p * x + p * y


def _is_canonical(c):
    """An int when integral, a Fraction only when its denominator exceeds 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_canonical_form_rejects_floats_and_integral_fractions():
    assert _is_canonical(2) and _is_canonical(Fraction(1, 2))
    assert not any(map(_is_canonical, [0.5, 2.0, Fraction(2), Fraction(4, 2), True]))


def test_constructor_keeps_coefficients_canonical(xy_view):
    p = NcPolynomial(xy_view, {"x": Fraction(4, 2), "y": Fraction(1, 2), "xy": Fraction(2, 4), "yx": True})
    assert p.coeffs == {"x": 2, "y": Fraction(1, 2), "xy": Fraction(1, 2), "yx": 1}
    assert all(map(_is_canonical, p.coeffs.values()))


@pytest.mark.parametrize("coeff", [0.1, 2.0, "1/3", None])
def test_constructor_rejects_inexact_coefficients(xy_view, coeff):
    # Fraction(0.1) would keep the binary float bit for bit
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        NcPolynomial(xy_view, {"x": 1, "y": coeff})


def test_products_that_turn_integral_become_ints():
    view = FreeView("xy")
    half = NcPolynomial(view, {"x": Fraction(1, 2), "y": Fraction(3, 2)})
    assert (half * 2).coeffs == {"x": 1, "y": 3}
    assert (half + half).coeffs == {"x": 1, "y": 3}
    assert (half * NcPolynomial(view, {"": 2, "x": 4})).coeffs == {"x": 1, "y": 3, "xx": 2, "yx": 6}
    for p in (half * 2, half + half, Fraction(2) * half):
        assert all(type(c) is int for c in p.coeffs.values())


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_non_exact_scalars_raise_type_error_in_both_orders(op):
    p = NcPolynomial(FreeView("xy"), {"x": 1})
    for other in (0.5, 2.0, "x", None):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_polynomials_over_different_views_raise_value_error(op):
    p = NcPolynomial(FreeView("xy"), {"x": 1})
    q = NcPolynomial(FreeView("xy"), {"y": 1})
    with pytest.raises(ValueError, match="same algebra view"):
        op(p, q)


def _summed(terms):
    """Naive coefficient dict: the coefficients of equal monomials added up."""
    acc = {}
    for w, c in terms:
        acc[w] = acc.get(w, 0) + c
    return acc


xy_terms = st.dictionaries(
    st.text("xy", max_size=4),
    st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
    max_size=6,
)


@pytest.mark.parametrize("kind", ["cube", "free", "factor"])
@given(p_terms=xy_terms, q_terms=xy_terms, c=st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_the_constructor_on_naive_coefficient_dicts(kind, xy_view, p_terms, q_terms, c):
    view = {"cube": CubeIdealView("xy"), "free": FreeView("xy"), "factor": xy_view}[kind]
    p, q = NcPolynomial(view, p_terms), NcPolynomial(view, q_terms)
    P, Q = list(p.coeffs.items()), list(q.coeffs.items())
    expected = {
        "p*q": _summed((w1 + w2, c1 * c2) for w1, c1 in P for w2, c2 in Q),
        "p+q": _summed(P + Q),
        "p-q": _summed(P + [(w, -b) for w, b in Q]),
        "-p": {w: -a for w, a in P},
        "c*p": {w: c * a for w, a in P},
    }
    results = {"p*q": p * q, "p+q": p + q, "p-q": p - q, "-p": -p, "c*p": c * p}
    for name, result in results.items():
        assert result == NcPolynomial(view, expected[name]), name
        assert result.view is view
        assert all(map(_is_canonical, result.coeffs.values())), name
    assert p * c == c * p


# -- literals ---------------------------------------------------------------------


def test_parse_poly_literal():
    free = FreeView("xy")
    p = parse_poly_literal(free, "3*xy + -1*yx + 1*")
    assert p.coeffs == {"xy": Fraction(3), "yx": Fraction(-1), "": Fraction(1)}
    assert parse_poly_literal(free, " 3 * x y+-1*y x ").coeffs == {
        "xy": Fraction(3),
        "yx": Fraction(-1),
    }
    assert parse_poly_literal(free, "1/2*x + 1/2*x").coeffs == {"x": Fraction(1)}
    with pytest.raises(ValueError):
        parse_poly_literal(free, "x + y")
    with pytest.raises(ValueError):
        parse_poly_literal(free, "")
    assert format_poly_literal(p) == "1* + 3*xy + -1*yx"


# -- linear algebra ------------------------------------------------------------------


def test_linear_independence_examples(xy_view):
    x = NcPolynomial.monomial(xy_view, "x")
    y = NcPolynomial.monomial(xy_view, "y")
    res = linear_independence([x, y])
    assert res.rank == 2 and res.independent
    res = linear_independence([x + y, x, y])
    assert res.rank == 2 and not res.independent
    assert res.dependency == (Fraction(1), Fraction(-1), Fraction(-1))


def test_linear_independence_empty_and_zero(xy_view):
    assert linear_independence([]).rank == 0
    z = NcPolynomial.zero(xy_view)
    res = linear_independence([z])
    assert res.rank == 0 and res.dependency == (Fraction(1),)


def test_dependency_is_a_real_relation(xy_view):
    rng = random.Random(4)
    basis = [NcPolynomial.monomial(xy_view, w) for w in ("x", "y", "xy", "yx", "yy")]
    for _ in range(30):
        polys = [
            sum(
                (b * rng.randint(-2, 2) for b in basis),
                NcPolynomial.zero(xy_view),
            )
            for _ in range(4)
        ]
        res = linear_independence(polys)
        if res.dependency is not None:
            combo = NcPolynomial.zero(xy_view)
            for c, p in zip(res.dependency, polys):
                combo = combo + p * c
            assert combo.is_zero()


ORACLE_MONOMIALS = ("", "x", "y", "xx", "xy", "yx", "yy", "xxy")
P = CERTIFICATE_PRIME
# small rationals, multiples of the certificate prime and its neighbours, and
# denominators that are the prime itself
oracle_coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.sampled_from([P, -P, 2 * P, P - 1, P + 1])),
    st.sampled_from([1, 2, 3, P]),
)


def _assert_rank_matches_sympy(polys):
    res = linear_independence(polys)
    matrix = sympy.Matrix(
        [[sympy.Rational(p.coeffs.get(w, 0)) for w in ORACLE_MONOMIALS] for p in polys]
    )
    rank = matrix.rank()
    assert res.rank == rank
    assert res.independent == (rank == len(polys))
    if res.independent:
        assert res.dependency is None
    else:
        assert next(c for c in res.dependency if c) == 1
        combo = NcPolynomial.zero(polys[0].view)
        for c, p in zip(res.dependency, polys):
            combo = combo + p * c
        assert combo.is_zero()
        # the witness is the one relation of the first dependent row i to the
        # rows before it: zero after i, and sympy's nullspace of rows[:i+1]
        i = next(i for i in range(len(polys)) if matrix[: i + 1, :].rank() == i)
        assert not any(res.dependency[i + 1 :])
        (null,) = matrix[: i + 1, :].T.nullspace()
        first = next(c for c in null if c)
        assert [sympy.Rational(c) for c in res.dependency[: i + 1]] == [c / first for c in null]
    return res


@given(
    rows=st.lists(
        st.dictionaries(st.sampled_from(ORACLE_MONOMIALS), oracle_coefficients, max_size=8),
        min_size=1,
        max_size=6,
    ),
    combine=st.lists(oracle_coefficients, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_linear_independence_matches_sympy_rank(rows, combine):
    view = FreeView("xy")
    polys = [NcPolynomial(view, row) for row in rows]
    if combine and len(polys) < 6:
        # a row that really is a combination of the others
        derived = NcPolynomial.zero(view)
        for c, p in zip(combine, polys):
            derived = derived + p * c
        polys.append(derived)
    _assert_rank_matches_sympy(polys)


def _certificate_holds(polys):
    rows, _ = monalg._integer_rows(polys)
    return monalg._full_rank_mod_p(rows, *monalg._columns(rows))


@pytest.mark.parametrize(
    "literals, rank",
    [
        (["1*x", "2147483647*y"], 2),
        (["1*x + 1*y", "1*x + 2147483648*y"], 2),
        (["1*x + 1/2147483647*y", "1*y"], 2),
        (["1*x + 1*y", "2147483647*x + 1*y", "2147483648*x + 2*y"], 2),
        (["1*x + 1/2147483647*y", "3*y", "1*x + 1*y"], 2),
    ],
)
def test_certificate_failure_falls_back_to_exact_rank(literals, rank):
    view = FreeView("xy")
    polys = [parse_poly_literal(view, t) for t in literals]
    assert not _certificate_holds(polys)  # each system vanishes in rank mod p
    res = _assert_rank_matches_sympy(polys)
    assert res.rank == rank
    if len(polys) > rank:
        assert res.dependency is not None


def test_certificate_holds_on_free_pattern_images():
    view = FreeView("xy")
    gens = [parse_poly_literal(view, "1*x + 1*y"), parse_poly_literal(view, "1*x + -1*y")]
    images = pattern_images(view, gens, 4)
    assert _certificate_holds(images)
    assert linear_independence(images) == IndependenceResult(len(images), True, None)


# entries of the oracle systems: small ones, p - 1 and 1 - p (a product of two
# residues then reaches (p - 1)^2), p + 1, and nonzero multiples of p, which
# are zero over F_p
certificate_entries = st.sampled_from([-3, -2, -1, 1, 2, 3, P - 1, 1 - P, P, -P, 2 * P, P + 1])


@st.composite
def certificate_systems(draw):
    """Sparse integer rows {column: coefficient} made of blocks that reach each
    step of the rank: rows on columns of their own (which own them), rows on
    one shared set of columns (which own none), and a row whose only column of
    its own holds a multiple of p (an owner over Q, zero there over F_p); then
    empty and duplicate rows."""
    rows = []
    columns = itertools.count()
    for kind in draw(st.lists(st.sampled_from(["disjoint", "dense", "owned_zero"]), min_size=1, max_size=3)):
        if kind == "disjoint":
            for _ in range(draw(st.integers(1, 4))):
                rows.append({next(columns): draw(certificate_entries) for _ in range(draw(st.integers(1, 3)))})
        elif kind == "dense":
            block = [next(columns) for _ in range(draw(st.integers(1, 4)))]
            for _ in range(draw(st.integers(1, 4))):
                rows.append({c: draw(certificate_entries) for c in block})
        else:
            shared = next(columns)
            rows.append({next(columns): draw(st.sampled_from([P, -P, 2 * P])), shared: draw(certificate_entries)})
            rows.append({shared: draw(certificate_entries)})
    rows += [{} for _ in range(draw(st.integers(0, 1)))]
    rows += [dict(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    return draw(st.permutations(rows))


@given(rows=certificate_systems())
@settings(max_examples=300, deadline=None)
def test_full_rank_mod_p_matches_sympy_over_the_prime_field(rows):
    field = GF(P)
    width = 1 + max((c for row in rows for c in row), default=0)
    matrix = DomainMatrix([[field(row.get(c, 0)) for c in range(width)] for row in rows], (len(rows), width), field)
    assert monalg._full_rank_mod_p(rows, *monalg._columns(rows)) == (matrix.rank() == len(rows))


@pytest.mark.parametrize("view, literals, max_len, shape", [
    # disjoint supports: every image owns its monomials, so nothing is left
    (CubeIdealView("xyzw"), ["1*x + 1*y", "1*z + 1*w"], 5, (0, 0)),
    # every monomial of length k is in every image of length k: nothing peels
    (FreeView("xy"), ["1*x + 1*y", "1*x + -1*y"], 4, (30, 30)),
    # y + z owns z; x and 2*x + y share x and own nothing while y + z has y
    (FreeView("xyz"), ["1*x", "2*x + 1*y", "1*y + 1*z"], 1, (2, 2)),
    # ownership is over Q: 2147483647*y owns y, though it vanishes mod p
    (FreeView("xy"), ["1*x", "2147483647*y"], 1, (0, 0)),
])
def test_peel_leaves_the_rows_that_own_no_column(view, literals, max_len, shape):
    images = pattern_images(view, [parse_poly_literal(view, t) for t in literals], max_len)
    rows, _ = monalg._integer_rows(images)
    unowned, lengths, cols = monalg._unowned(*monalg._columns(rows))
    # in each of these systems the rows that own no column come first
    assert unowned == list(range(shape[0]))
    assert len(set().union(*(rows[i] for i in unowned))) == shape[1]
    # and the flattening it returns is theirs
    assert lengths.tolist() == [len(rows[i]) for i in unowned]
    assert len(set(cols.tolist())) == shape[1] and cols.size == lengths.sum()


def test_certificate_refuses_more_rows_than_columns_before_any_matrix(xy_stream):
    # the CI system `free --view word --spec morphisms/sub_xy.morph --gens
    # '1*x + 1*y;1*x + 2*y' --horizon 100000 --Lfree 11`: 4,094 rows, none of
    # which owns a column, over 187 columns; its 4,094 x 187 int64 matrix
    # alone would take 6 MB
    view = WordFactorView(xy_stream, 100_000)
    gens = [parse_poly_literal(view, "1*x + 1*y"), parse_poly_literal(view, "1*x + 2*y")]
    rows, _ = monalg._integer_rows(pattern_images(view, gens, 11))
    lengths, cols = monalg._columns(rows)
    tracemalloc.start()
    try:
        assert not monalg._full_rank_mod_p(rows, lengths, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(monalg._unowned(lengths, cols)[0]) == len(rows) == 4094
    assert len(set().union(*rows)) == 187


def _all_rows_elimination(polys):
    """linear_independence as it was before the peel: the exact loop over every
    row, after a failed certificate or without one (same result either way)."""
    rows, scales = monalg._integer_rows(polys)
    pivots = {}
    dependency = None
    for i, row in enumerate(rows):
        vectors = [row, {i: scales[i]}] if dependency is None else [row]
        while row and (lead := min(row)) in pivots:
            pivot = pivots[lead]
            g = math.gcd(row[lead], pivot[0][lead])
            a, b = pivot[0][lead] // g, row[lead] // g
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
    return IndependenceResult(len(pivots), len(pivots) == len(polys), dependency)


@given(rows=certificate_systems(), denominators=st.lists(st.sampled_from([1, 2, 3, P]), max_size=20))
@settings(max_examples=300, deadline=None)
def test_peeled_elimination_matches_the_all_rows_elimination_and_sympy(rows, denominators):
    # column c is the monomial x^(c+1); a row may carry a denominator, which
    # its integer row scales away
    view = FreeView("x")
    polys = [NcPolynomial(view, {"x" * (c + 1): Fraction(v, d) for c, v in row.items()})
             for row, d in zip(rows, denominators + [1] * len(rows))]
    res = linear_independence(polys)
    assert res == _all_rows_elimination(polys)
    width = 1 + max((c for row in rows for c in row), default=0)
    matrix = DomainMatrix([[QQ(p.coeffs.get("x" * (c + 1), 0)) for c in range(width)] for p in polys],
                          (len(polys), width), QQ)
    assert res.rank == matrix.rank()
    assert res.independent == (res.rank == len(polys))


def test_integer_rows_are_the_images_own_coefficients():
    # an image with int coefficients is its own row; one with a Fraction is a
    # scaled copy, and the image keeps its coefficients
    view = FreeView("xy")
    whole, half = NcPolynomial(view, {"x": 2, "y": -3}), NcPolynomial(view, {"x": Fraction(1, 2), "y": 1})
    rows, scales = monalg._integer_rows([whole, half])
    assert rows[0] is whole.coeffs and scales[0] == 1
    assert rows[1] == {"x": 1, "y": 2} and scales[1] == 2
    assert half.coeffs == {"x": Fraction(1, 2), "y": 1}


@pytest.mark.parametrize("literals, max_len, independent", [
    # 12 images over 6 monomials: refused by the certificate, so the exact loop runs
    (["1*x + 1*y", "2*x + 4*y", "1*x + 2*y"], 2, False),
    # int rows beside a Fraction one, whose row is a scaled copy
    (["1*x", "1*y", "1*x + -1*y", "3*x + 1/2*y"], 1, False),
    # settled by the certificate
    (["1*x + 1*y", "1*x + -1*y"], 2, True),
])
def test_linear_independence_leaves_the_images_unchanged(literals, max_len, independent):
    # the rows alias the images' coefficients, so no step may write to them
    view = FreeView("xy")
    images = pattern_images(view, [parse_poly_literal(view, t) for t in literals], max_len)
    before = [(p.coeffs, dict(p.coeffs)) for p in images]
    assert _assert_rank_matches_sympy(images).independent == independent
    assert all(p.coeffs is coeffs and coeffs == copy for p, (coeffs, copy) in zip(images, before))


@pytest.mark.parametrize("view, literals", [
    (CubeIdealView("xyzw"), ["1*x + 1*y", "1*z + 1*w"]),
    (FreeView("xy"), ["1*x + 1*y", "1*x + -1*y"]),
    (FreeView("xyz"), ["1*x", "2*y + 1*z", "1*x + -1*z"]),
])
def test_pattern_images_follow_index_tuples_in_length_then_lex_order(view, literals):
    gens = [parse_poly_literal(view, literal) for literal in literals]
    expected = []
    for length in range(1, 4):
        for indices in itertools.product(range(len(gens)), repeat=length):
            product = NcPolynomial.one(view)
            for i in indices:
                product = product * gens[i]
            expected.append(product.coeffs)
    assert [p.coeffs for p in pattern_images(view, gens, 3)] == expected


@pytest.mark.parametrize("kind", ["cube", "free", "factor"])
def test_pattern_images_of_integer_generators_hold_ints(kind, xy_view):
    view = {"cube": CubeIdealView("xy"), "free": FreeView("xy"), "factor": xy_view}[kind]
    gens = [NcPolynomial(view, {"x": 1, "y": 1}), NcPolynomial(view, {"x": 2, "y": -3, "xy": 1})]
    # the same products as naive Fraction dicts, zero monomials dropped at the end
    naive = []
    for length in range(1, 5):
        for pattern in itertools.product(gens, repeat=length):
            acc = {"": Fraction(1)}
            for g in pattern:
                acc = _summed((w1 + w2, a * Fraction(b)) for w1, a in acc.items() for w2, b in g.coeffs.items())
            naive.append({w: a for w, a in acc.items() if a and not view.is_zero_monomial(w)})
    images = pattern_images(view, gens, 4)
    assert [p.coeffs for p in images] == naive
    assert all(type(c) is int for p in images for c in p.coeffs.values())


def test_rank_of_length_two_patterns_in_tilde_view(tilde_view):
    gx = NcPolynomial(tilde_view, {"x": 1, "y": 1})
    gy = NcPolynomial(tilde_view, {"X": 1, "Y": 1})
    images = pattern_images(tilde_view, [gx, gy], 2)
    assert len(images) == 6
    assert linear_independence(images).rank == 6
    with_identity = [NcPolynomial.one(tilde_view)] + images
    assert linear_independence(with_identity).rank == 7


# -- freeness ------------------------------------------------------------------------


def test_freeness_tilde_generators(tilde_view):
    gx = NcPolynomial(tilde_view, {"x": 1, "y": 1})
    gy = NcPolynomial(tilde_view, {"X": 1, "Y": 1})
    report = freeness_check(tilde_view, [gx, gy], 4)
    assert report.independent
    assert report.rank == report.patterns_tested == 30


def test_freeness_cube_view():
    view = CubeIdealView("xyzw")
    gens = [NcPolynomial(view, {"x": 1, "y": 1}), NcPolynomial(view, {"z": 1, "w": 1})]
    report = freeness_check(view, gens, 4)
    assert report.independent and report.rank == 30


def test_freeness_single_free_generator():
    view = FreeView("x")
    report = freeness_check(view, [NcPolynomial.monomial(view, "x")], 3)
    assert report.independent and report.rank == 3


def test_freeness_trivial_at_length_one(tilde_view):
    gx = NcPolynomial(tilde_view, {"x": 1, "y": 1})
    gy = NcPolynomial(tilde_view, {"X": 1, "Y": 1})
    report = freeness_check(tilde_view, [gx, gy], 1)
    assert report.independent and report.rank == 2


def test_freeness_dependent_stays_dependent():
    view = FreeView("xy")
    x = NcPolynomial.monomial(view, "x")
    gens = [x, x * 2]
    for L in (1, 2, 3):
        report = freeness_check(view, gens, L)
        assert not report.independent
        assert report.dependency is not None


def test_freeness_rejects_zero_generators(xy_view):
    with pytest.raises(ValueError):
        freeness_check(xy_view, [NcPolynomial.zero(xy_view)], 2)


# -- nilpotency and dimension -------------------------------------------------------------


def test_is_nilpotent_monomial_cube_view():
    view = CubeIdealView("xyzw")
    assert is_nilpotent_monomial(view, "xy", 5) == 3
    assert is_nilpotent_monomial(view, "x", 5) == 3
    assert is_nilpotent_monomial(view, "xyx", 5) == 3
    # proper powers and cube-containing monomials vanish earlier
    assert is_nilpotent_monomial(view, "xx", 5) == 2
    assert is_nilpotent_monomial(view, "xxx", 5) == 1


def test_is_nilpotent_monomial_tm_view(tm_view):
    assert is_nilpotent_monomial(tm_view, "y", 5) == 3  # yy occurs, yyy does not


def test_is_nilpotent_monomial_free_view():
    assert is_nilpotent_monomial(FreeView("x"), "x", 6) is None


def test_tm_cumulative_growth_is_quadratic(tm_view):
    cumulative = {}
    counts = SuffixAutomaton(tm_view.stream.prefix(tm_view.horizon)).factor_counts(512)
    for n in (64, 128, 256):
        cumulative[n] = sum(counts[: n + 1])
        cumulative[2 * n] = sum(counts[: 2 * n + 1])
    for n in (64, 128, 256):
        assert 3.5 <= cumulative[2 * n] / cumulative[n] <= 4.5
