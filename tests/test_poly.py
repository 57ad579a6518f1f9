"""Exact multivariate polynomials: ring laws, evaluation, and the JSON codec."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilstab import poly
from nilstab.cohomology import PolyCocycle
from nilstab.errors import NonIntegralValue, ParseError
from nilstab.groups import lattice
from nilstab.poly import (
    MultiPoly,
    _decode_json_int,
    box_witness,
    poly_from_monomials,
    poly_to_monomials,
    xy_variables,
)

VARS = xy_variables(2, 1)  # ("x1", "x2", "y1")


def brute_force_evaluate(p: MultiPoly, values) -> Fraction:
    # Independent of the scaled-integer path inside MultiPoly.evaluate.
    total = Fraction(0)
    for exps, coef in p.terms.items():
        term = coef
        for v, e in zip(values, exps):
            term *= Fraction(v) ** e
        total += term
    return total


coefficients = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).filter(lambda f: f != 0)
exponent_keys = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
polys = st.dictionaries(exponent_keys, coefficients, max_size=5).map(
    lambda terms: MultiPoly(VARS, terms)
)
points = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
)


def assert_canonical(p: MultiPoly) -> None:
    # Integer numerators over one denominator, reduced, with zero over 1.
    assert p.den >= 1
    assert all(type(c) is int for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1
    assert p.terms == {e: Fraction(c, p.den) for e, c in p.nums.items()}


def test_constructors_agree_with_hand_built_terms():
    x1 = MultiPoly.variable(VARS, 0)
    assert x1.terms == {(1, 0, 0): Fraction(1)}
    assert MultiPoly.zero(VARS).is_zero()
    five = MultiPoly.constant(VARS, 5)
    assert five.evaluate((9, 9, 9)) == 5
    assert not five.is_zero()


@settings(deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == MultiPoly.zero(VARS)
    assert p + MultiPoly.zero(VARS) == p
    assert p * MultiPoly.constant(VARS, 1) == p
    for s in (p, p + q, p - q, p * q, (p * q) * r, p + q - q, p - p, -p):
        assert_canonical(s)
    assert hash((p * q) * r) == hash(p * (q * r))
    assert p + q - q == p and hash(p + q - q) == hash(p)


@settings(deadline=None)
@given(polys, polys, points)
def test_evaluation_is_a_ring_homomorphism(p, q, v):
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


scalars = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
)
mixed_points = st.tuples(scalars, scalars, scalars)


@settings(deadline=None)
@given(polys, mixed_points)
def test_evaluate_matches_brute_force(p, v):
    expected = brute_force_evaluate(p, v)
    assert p.evaluate(v) == expected
    if expected.denominator == 1:
        value = p.evaluate_int(v)
        assert type(value) is int
        assert value == expected
    else:
        with pytest.raises(NonIntegralValue):
            p.evaluate_int(v)


@settings(deadline=None)
@given(polys, st.integers(0, 4), points)
def test_power_is_repeated_multiplication(p, e, v):
    expected = MultiPoly.constant(VARS, 1)
    for _ in range(e):
        expected = expected * p
    assert p**e == expected
    assert (p**e).evaluate(v) == p.evaluate(v) ** e


def to_sympy(p: MultiPoly, sympy):
    symbols = sympy.symbols(p.variables)
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for symbol, e in zip(symbols, exps):
            term *= symbol**e
        total += term
    return total


small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), coefficients, max_size=3
).map(lambda terms: MultiPoly(VARS, terms))


@settings(deadline=None, max_examples=40)
@given(small_polys, st.tuples(small_polys, small_polys, small_polys))
def test_compose_agrees_with_sympy_substitution(p, images):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(VARS)
    expected = sympy.expand(
        to_sympy(p, sympy).subs(
            {s: to_sympy(q, sympy) for s, q in zip(symbols, images)},
            simultaneous=True,
        )
    )
    assert sympy.expand(to_sympy(p.compose(images), sympy) - expected) == 0


def binomial(index: int, k: int) -> MultiPoly:
    # binom(v, k): integer valued with coefficient denominator up to k!.
    v = MultiPoly.variable(VARS, index)
    out = MultiPoly.constant(VARS, 1)
    for r in range(k):
        out = out * (v - r)
    return Fraction(1, math.factorial(k)) * out


def binomial_combination(terms: dict) -> MultiPoly:
    out = MultiPoly.zero(VARS)
    for exps, c in terms.items():
        term = MultiPoly.constant(VARS, c)
        for index, k in enumerate(exps):
            term = term * binomial(index, k)
        out = out + term
    return out


integer_valued = st.dictionaries(exponent_keys, st.integers(-3, 3), max_size=4).map(
    binomial_combination
)


@settings(deadline=None, max_examples=30)
@given(integer_valued, polys, st.booleans())
def test_box_witness_agrees_with_brute_force(base, extra, perturb):
    # Degrees are at most 3 per variable, so [-3, 3]^3 covers a degree box.
    p = base + extra if perturb else base
    values = [
        brute_force_evaluate(p, v) for v in itertools.product(range(-3, 4), repeat=3)
    ]
    found = box_witness(p, integral=True)
    assert (found is None) == all(v.denominator == 1 for v in values)
    if found:
        assert brute_force_evaluate(p, found[0]) == found[1]
        assert found[1].denominator != 1
    found = box_witness(p)
    assert (found is None) == p.is_zero() == all(v == 0 for v in values)
    if found:
        assert brute_force_evaluate(p, found[0]) == found[1] != 0


def test_box_witness_finds_the_least_failing_point():
    # x1^2*x2*y1 - x1*x2*y1 = 2*binom(x1, 2)*x2*y1 is 0 below (2, 1, 1).
    p = MultiPoly(VARS, {(2, 1, 1): 1, (1, 1, 1): -1})
    assert box_witness(p) == ((2, 1, 1), 2)
    assert box_witness(Fraction(1, 2) * p, integral=True) is None
    assert box_witness(Fraction(1, 4) * p, integral=True) == ((2, 1, 1), Fraction(1, 2))
    assert box_witness(MultiPoly.zero(VARS)) is None
    # Only each term's own exponent box is visited, however many variables.
    wide = xy_variables(30, 30)
    product = MultiPoly(wide, {(1,) * 60: 1})
    assert box_witness(product) == ((1,) * 60, 1)


def test_proving_a_degree_60_cocycle_computes_each_surjection_number_once():
    # x2*y1^60 is no cocycle.  Its proof weighs about 216,000 products in the
    # binomial basis by surj(e, k), k <= e <= 60, and computes each such
    # number once, not once per product.
    poly._surjections.cache_clear()
    computed = []
    for _ in range(2):
        sigma = PolyCocycle(lattice(2), MultiPoly(VARS, {(0, 1, 60): 1}))
        assert not sigma.proof.ok
        computed.append(poly._surjections.cache_info().misses)
    assert 0 < computed[0] == computed[1] <= 61 * 62 // 2


def test_evaluate_int_requires_an_integer_value():
    half = MultiPoly(VARS, {(1, 0, 0): Fraction(1, 2)})
    assert half.evaluate_int((4, 0, 0)) == 2
    with pytest.raises(NonIntegralValue):
        half.evaluate_int((3, 0, 0))


def test_substitute_fixes_variables_in_place():
    # p = x1^2 * y1 + x2
    p = MultiPoly(VARS, {(2, 0, 1): Fraction(1), (0, 1, 0): Fraction(1)})
    fixed = p.substitute({0: 3})
    assert fixed == MultiPoly(VARS, {(0, 0, 1): Fraction(9), (0, 1, 0): Fraction(1)})
    for v in [(7, 2, 5), (0, -1, 4)]:
        assert fixed.evaluate(v) == p.evaluate((3, v[1], v[2]))


def test_substitute_can_cancel_terms_to_zero():
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-2)})
    assert p.substitute({0: 2}).is_zero()


def test_project_drops_only_absent_variables():
    p = MultiPoly(VARS, {(1, 0, 2): Fraction(3)})  # 3 * x1 * y1^2
    narrowed = p.project([0, 2], ("a", "b"))
    assert narrowed.variables == ("a", "b")
    assert narrowed.terms == {(1, 2): Fraction(3)}
    with pytest.raises(ValueError):
        p.project([1, 2], ("a", "b"))  # x1 still occurs


def test_embed_widens_the_variable_tuple():
    p = MultiPoly(("a", "b"), {(1, 2): Fraction(5)})
    wide = p.embed(VARS, [0, 2])
    assert wide.terms == {(1, 0, 2): Fraction(5)}
    assert wide.evaluate((2, 99, 3)) == p.evaluate((2, 3))


def test_degrees_and_denominators():
    p = MultiPoly(
        VARS, {(2, 1, 0): Fraction(1, 6), (0, 0, 3): Fraction(1, 4)}
    )
    assert p.total_degree() == 3
    assert p.variable_degree(0) == 2
    assert p.variable_degree(2) == 3
    assert p.den == 12
    assert MultiPoly.zero(VARS).total_degree() == 0
    assert MultiPoly.zero(VARS).den == 1


def test_str_rendering_is_stable():
    p = MultiPoly(
        VARS,
        {
            (0, 1, 2): Fraction(-1, 2),
            (0, 1, 1): Fraction(-1, 2),
            (1, 0, 1): Fraction(-1),
        },
    )
    assert str(p) == "-x1*y1 - 1/2*x2*y1^2 - 1/2*x2*y1"
    assert str(MultiPoly.zero(VARS)) == "0"


@settings(deadline=None)
@given(polys)
def test_json_round_trip_preserves_the_polynomial(p):
    doc = poly_to_monomials(p, 2, 1)
    json.loads(json.dumps(doc))  # must already be plain JSON data
    assert poly_from_monomials(doc, 2, 1) == p


def test_json_codec_uses_decimal_strings_beyond_64_bits():
    big = 2**80 + 1
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(big, 3)})
    doc = poly_to_monomials(p, 2, 1)
    assert doc[0]["coef"][0] == str(big)
    assert doc[0]["coef"][1] == 3
    assert poly_from_monomials(doc, 2, 1) == p


def test_json_codec_accepts_small_integers_as_strings_too():
    doc = [{"coef": ["7", "1"], "x_exps": [1, 0], "y_exps": [0]}]
    assert poly_from_monomials(doc, 2, 1) == MultiPoly(
        VARS, {(1, 0, 0): Fraction(7)}
    )


@pytest.mark.parametrize("text", ["1_000", " 12 ", "+5", "\u0663", "\uff11\uff12"])
def test_json_codec_reads_only_the_decimal_strings_it_writes(text):
    # int(text, 10) reads each of these (1000, 12, 5, 3 and 12), but the
    # writer only ever writes an optional "-" followed by ASCII digits.
    doc = [{"coef": [text, 1], "x_exps": [1, 0], "y_exps": [0]}]
    with pytest.raises(ParseError, match=r"^bad integer literal "):
        poly_from_monomials(doc, 2, 1)
    with pytest.raises(ParseError, match=r"^bad integer literal "):
        _decode_json_int(text)


def test_json_codec_reads_a_minus_sign_and_wide_digits():
    assert _decode_json_int("-0") == 0
    assert _decode_json_int(str(2**70)) == 2**70
    assert _decode_json_int(str(-(2**70))) == -(2**70)


def test_json_codec_merges_repeated_monomials():
    doc = [
        {"coef": [1, 2], "x_exps": [1, 0], "y_exps": [0]},
        {"coef": [1, 2], "x_exps": [1, 0], "y_exps": [0]},
    ]
    assert poly_from_monomials(doc, 2, 1) == MultiPoly(
        VARS, {(1, 0, 0): Fraction(1)}
    )


@pytest.mark.parametrize(
    "doc",
    [
        "not a list",
        [["not", "an", "object"]],
        [{"coef": [1, 1], "x_exps": [0, 0]}],  # missing y_exps
        [{"coef": [1], "x_exps": [0, 0], "y_exps": [0]}],  # bad coef shape
        [{"coef": [1, 0], "x_exps": [0, 0], "y_exps": [0]}],  # zero denominator
        [{"coef": [1, 1], "x_exps": [0], "y_exps": [0]}],  # wrong arity
        [{"coef": [1, 1], "x_exps": [0, -1], "y_exps": [0]}],  # negative exponent
        [{"coef": ["x", 1], "x_exps": [0, 0], "y_exps": [0]}],  # bad literal
        [{"coef": [True, 1], "x_exps": [0, 0], "y_exps": [0]}],  # bool is not int
        [{"coef": [1, 1], "x_exps": 0, "y_exps": [0]}],  # not a list
        [{"coef": [1, 1], "x_exps": [0, 0], "y_exps": "0"}],  # not a list
    ],
)
def test_json_codec_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        poly_from_monomials(doc, 2, 1)


def test_constructor_refuses_an_exponent_that_is_not_an_integer():
    # 1.9 was truncated to 1, building x1; ints, bools and numpy ints pass.
    for exps in ((1.9, 0, 0), (2.0, 0, 0), (Fraction(1), 0, 0)):
        with pytest.raises(TypeError):
            MultiPoly(VARS, {exps: 1})
    p = MultiPoly(VARS, {(np.int64(2), True, 0): 3})
    assert p.nums == {(2, 1, 0): 3}
    assert all(type(e) is int for e in next(iter(p.nums)))


def test_equal_polynomials_share_a_hash():
    p = MultiPoly(VARS, {(1, 1, 0): Fraction(2, 3)})
    q = MultiPoly(VARS, {(1, 1, 0): Fraction(4, 6)})
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1
    assert (p.den, p.nums) == (3, {(1, 1, 0): 2})
    for s in (p, p - q, MultiPoly.zero(VARS)):
        assert_canonical(s)
    assert (p - q).den == 1
