import random
import warnings
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wordalg import monalg
from wordalg.monalg import (
    CERTIFICATE_PRIME,
    FreeView,
    HorizonWarning,
    IndependenceResult,
    NcPolynomial,
    WordFactorView,
    contains_cube,
    cube_ideal_view,
    format_poly_literal,
    freeness_check,
    hilbert_function,
    is_nilpotent_monomial,
    linear_independence,
    parse_poly_literal,
    pattern_images,
    substitute,
)
from wordalg.words import SuffixAutomaton


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
    cube = cube_ideal_view("xyzw")
    assert not cube.is_zero_monomial("xyxy")
    assert cube.is_zero_monomial("xxx")
    assert cube.is_zero_monomial("zxxxw")
    free = FreeView("ab")
    assert not free.is_zero_monomial("a" * 50)


def test_zero_monomials_form_an_ideal(xy_view, tm_view):
    rng = random.Random(1)
    cube = cube_ideal_view("xy")
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


def test_substitute_examples(tilde_view, xy_view):
    gx = NcPolynomial(tilde_view, {"x": 1, "y": 1})
    gy = NcPolynomial(tilde_view, {"X": 1, "Y": 1})
    image = substitute(tilde_view, "AB", {"A": gx, "B": gy})
    assert 0 < len(image.coeffs) <= 4
    assert set(image.support()) <= {"xX", "xY", "yX", "yY"}
    assert all(c == 1 for c in image.coeffs.values())

    single = substitute(xy_view, "A", {"A": NcPolynomial(xy_view, {"x": 1, "y": 1})})
    assert single.coeffs == {"x": Fraction(1), "y": Fraction(1)}

    cube = cube_ideal_view("xy")
    g = NcPolynomial(cube, {"x": 1, "y": 1})
    square = substitute(cube, "AA", {"A": g})
    assert square.coeffs == {w: Fraction(1) for w in ("xx", "xy", "yx", "yy")}

    with pytest.raises(ValueError):
        substitute(cube, "AB", {"A": g})


def test_substitute_empty_pattern_is_identity(xy_view):
    assert substitute(xy_view, "", {}) == NcPolynomial.one(xy_view)


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
    col_of = {w: j for j, w in enumerate(sorted({w for p in polys for w in p.coeffs}))}
    return monalg._full_rank_mod_p(polys, col_of)


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


@pytest.mark.parametrize("view, literals", [
    (cube_ideal_view("xyzw"), ["1*x + 1*y", "1*z + 1*w"]),
    (FreeView("xy"), ["1*x + 1*y", "1*x + -1*y"]),
    (FreeView("xyz"), ["1*x", "2*y + 1*z", "1*x + -1*z"]),
])
def test_pattern_images_follow_index_tuples_in_length_then_lex_order(view, literals):
    import itertools

    gens = [parse_poly_literal(view, literal) for literal in literals]
    expected = []
    for length in range(1, 4):
        for indices in itertools.product(range(len(gens)), repeat=length):
            product = NcPolynomial.one(view)
            for i in indices:
                product = product * gens[i]
            expected.append(product.coeffs)
    assert [p.coeffs for p in pattern_images(view, gens, 3)] == expected


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
    view = cube_ideal_view("xyzw")
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
    view = cube_ideal_view("xyzw")
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


def test_hilbert_function_examples(tm_view):
    assert hilbert_function(tm_view, (1, 1), 0) == 1
    assert hilbert_function(tm_view, (1, 1), 1) == 2
    assert hilbert_function(tm_view, (1, 1), 2) == 4
    # weighted dimension agrees with direct enumeration of weighted factors
    text = tm_view.stream.prefix(10_000)
    seen = {text[i : i + k] for k in range(1, 7) for i in range(len(text) - k + 1)}
    expected = sum(1 for f in seen if f.count("x") + 2 * f.count("y") == 4)
    assert hilbert_function(tm_view, (1, 2), 4) == expected
    # unit weights count the distinct factors of length n
    assert hilbert_function(tm_view, (1, 1), 6) == sum(1 for f in seen if len(f) == 6)


def test_hilbert_function_cube_view_matches_enumeration():
    view = cube_ideal_view("xy")
    import itertools

    for n in range(1, 6):
        expected = sum(
            1
            for t in itertools.product("xy", repeat=n)
            if not contains_cube("".join(t))
        )
        assert hilbert_function(view, (1, 1), n) == expected


def test_hilbert_function_rejects_free_view():
    with pytest.raises(ValueError):
        hilbert_function(FreeView("xy"), (1, 1), 3)


def test_tm_cumulative_growth_is_quadratic(tm_view):
    cumulative = {}
    counts = SuffixAutomaton(tm_view.stream.prefix(tm_view.horizon)).factor_counts(512)
    for n in (64, 128, 256):
        cumulative[n] = sum(counts[: n + 1])
        cumulative[2 * n] = sum(counts[: 2 * n + 1])
    for n in (64, 128, 256):
        assert 3.5 <= cumulative[2 * n] / cumulative[n] <= 4.5
