"""Polynomial group laws: arithmetic, validation, quotients, and documents."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import witness_blocks
from nilstab.catalog import heisenberg3
from nilstab.errors import NotCentral, ParseError, ValidationError
from nilstab.groups import (
    MalcevGroup,
    from_document,
    lattice,
    load_group,
)
from nilstab.poly import MultiPoly, xy_variables

H3 = heisenberg3()
coords3 = st.tuples(*[st.integers(-6, 6)] * 3)


def upper_triangular_oracle(x, y):
    # Multiply the 3x3 integer matrices [[1, a, c], [0, 1, b], [0, 0, 1]]
    # with x = (a, b, c); this is an independent model of the same group.
    a1, b1, c1 = x
    a2, b2, c2 = y
    return (a1 + a2, b1 + b2, c1 + c2 + b1 * a2)


def broken_heisenberg(extra: MultiPoly) -> MalcevGroup:
    law = H3.law[:2] + (H3.law[2] + extra,)
    return MalcevGroup(3, law, name="broken")


def test_heisenberg_products_match_hand_values():
    assert H3.multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 1)
    assert H3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 0)
    assert H3.inverse((1, 1, 0)) == (-1, -1, 1)
    assert H3.commutator((1, 0, 0), (0, 1, 0)) == (0, 0, -1)


@settings(deadline=None)
@given(coords3, coords3)
def test_heisenberg_matches_the_matrix_model(x, y):
    assert H3.multiply(x, y) == upper_triangular_oracle(x, y)


@settings(deadline=None)
@given(coords3, coords3, coords3)
def test_heisenberg_is_associative(x, y, z):
    assert H3.multiply(H3.multiply(x, y), z) == H3.multiply(x, H3.multiply(y, z))


@settings(deadline=None)
@given(coords3)
def test_inverses_cancel(x):
    assert H3.multiply(x, H3.inverse(x)) == H3.identity
    assert H3.multiply(H3.inverse(x), x) == H3.identity


@settings(deadline=None)
@given(coords3, st.integers(-6, 6), st.integers(-6, 6))
def test_powers_add_exponents(x, j, k):
    assert H3.multiply(H3.power(x, j), H3.power(x, k)) == H3.power(x, j + k)


def test_power_matches_iterated_multiplication():
    g = (1, 1, 0)
    for k in range(0, 7):
        expected = reduce(H3.multiply, [g] * k, H3.identity)
        assert H3.power(g, k) == expected
        assert H3.power(g, -k) == H3.inverse(expected)
    assert H3.power(g, 3) == (3, 3, 3)


def test_identity_element_and_basis():
    assert H3.identity == (0, 0, 0)
    assert H3.basis(2) == (0, 1, 0)
    with pytest.raises(ValueError):
        H3.basis(0)
    with pytest.raises(ValueError):
        H3.basis(4)
    with pytest.raises(ValueError):
        H3.element((1, 2))  # wrong coordinate count


def test_canonical_hom_reads_the_leading_coordinate_additively():
    # alpha(x) = x1, the homomorphism that skinniness and rho_n refer to.
    x, y = (2, 5, -1), (-7, 0, 3)
    assert H3.multiply(x, y)[0] == x[0] + y[0]


def test_lattice_is_coordinatewise_addition():
    z3 = lattice(3)
    assert z3.multiply((1, 2, 3), (4, 5, 6)) == (5, 7, 9)
    assert z3.inverse((1, -2, 3)) == (-1, 2, -3)
    assert z3.validate().ok


def test_validation_passes_for_the_builtin_groups():
    for group in (lattice(1), lattice(2), H3):
        report = group.validate()
        assert report.ok, report.summary()
        assert not report.failures()


def test_validation_catches_a_broken_identity_law():
    vars6 = xy_variables(3, 3)
    bad = broken_heisenberg(MultiPoly.constant(vars6, 1))
    report = bad.validate()
    failed = {c.name: c.witness for c in report.failures()}
    assert set(failed) == {"identity-law right (law 3)", "identity-law left (law 3)"}
    # Replay: law_3(x, e) - x3 and law_3(e, y) - y3 are 1 at the witness.
    for name, index in (("identity-law right (law 3)", 2), ("identity-law left (law 3)", 5)):
        at = witness_blocks(failed[name])
        point = at["x"] + at["y"]
        assert bad.law[2].evaluate(point) - point[index] == 1


def test_validation_catches_a_nonassociative_law():
    vars6 = xy_variables(3, 3)
    # x2 * y1^2 respects both identity laws and triangularity but is not
    # a 2-cocycle on the abelianization, so associativity fails.
    extra = MultiPoly(vars6, {(0, 1, 0, 2, 0, 0): Fraction(1)})
    bad = broken_heisenberg(extra)
    [failure] = bad.validate().failures()
    assert failure.name == "associativity (law 3)"
    at = witness_blocks(failure.witness)
    x, y, z = at["x"], at["y"], at["z"]
    assert bad.multiply(bad.multiply(x, y), z) != bad.multiply(x, bad.multiply(y, z))


def test_validation_catches_a_triangularity_violation():
    vars6 = xy_variables(3, 3)
    # x3 * y3 reaches coordinate 3 inside law 3, which may only read
    # coordinates 1 and 2.
    extra = MultiPoly(vars6, {(0, 0, 1, 0, 0, 1): Fraction(1)})
    group = broken_heisenberg(extra)
    report = group.validate()
    bad = [c for c in report.failures() if c.name == "triangularity (law 3)"]
    assert bad and "law_3" in bad[0].witness
    # Replay: zeroing coordinate 3 of both arguments changes law_3 - x3 - y3.
    at = witness_blocks(bad[0].witness)
    point, lowered = at["x"] + at["y"], at["x"][:2] + (0,) + at["y"][:2] + (0,)
    rest = group.law[2] - MultiPoly.variable(vars6, 2) - MultiPoly.variable(vars6, 5)
    assert rest.evaluate(point) != rest.evaluate(lowered)


def test_validation_catches_non_integer_products():
    vars6 = xy_variables(3, 3)
    extra = MultiPoly(vars6, {(1, 0, 0, 1, 0, 0): Fraction(1, 2)})
    bad = broken_heisenberg(extra)
    [failure] = bad.validate().failures()
    assert failure.name.startswith("integrality")
    at = witness_blocks(failure.witness)
    assert bad.law[2].evaluate(at["x"] + at["y"]).denominator != 1


def test_inverse_refuses_a_nontriangular_law():
    vars2 = xy_variables(1, 1)
    # law = x + y + x*y is a monoid law on Z with no inverse for x = -1.
    law = (
        MultiPoly.variable(vars2, 0)
        + MultiPoly.variable(vars2, 1)
        + MultiPoly.variable(vars2, 0) * MultiPoly.variable(vars2, 1),
    )
    monoid = MalcevGroup(1, law)
    with pytest.raises(ValueError, match="triangular"):
        monoid.inverse((-1,))


def test_quotient_by_last_recovers_the_abelianization():
    q = H3.quotient_by_last()
    assert q.hirsch == 2
    assert q.law == lattice(2).law
    assert q.name == "heisenberg3/center"


def test_quotient_requires_a_central_last_generator():
    # A valid triangular law always has a central last generator, so this
    # guard only fires on unvalidated documents; the x2*y1^2 twist below
    # makes [e2, e1] = (0, 2) != e under the raw commutator formula.
    vars4 = xy_variables(2, 2)
    x2, y1, y2 = (
        MultiPoly.variable(vars4, 1),
        MultiPoly.variable(vars4, 2),
        MultiPoly.variable(vars4, 3),
    )
    law = (MultiPoly.variable(vars4, 0) + y1, x2 + y2 + x2 * y1 * y1)
    twisted = MalcevGroup(2, law)
    with pytest.raises(NotCentral):
        twisted.quotient_by_last()


def test_quotient_needs_at_least_two_coordinates():
    with pytest.raises(ValueError):
        lattice(1).quotient_by_last()


def test_document_round_trip():
    doc = H3.to_document()
    json.loads(json.dumps(doc))
    again = from_document(doc)
    assert again.hirsch == H3.hirsch
    assert again.law == H3.law
    assert again.name == H3.name


def test_shipped_document_matches_the_builtin_group():
    # A checked-in document of the Heisenberg group, which the package builds live.
    shipped = load_group(str(Path(__file__).parent / "data" / "heisenberg3.json"))
    assert shipped.law == H3.law
    assert shipped.hirsch == 3


def test_from_document_rejects_malformed_input():
    with pytest.raises(ParseError):
        from_document([1, 2, 3])
    with pytest.raises(ParseError):
        from_document({"hirsch": 2})
    with pytest.raises(ParseError):
        from_document({"hirsch": 0, "law": []})
    with pytest.raises(ParseError):
        from_document({"hirsch": 2, "law": [[]]})  # law list too short
    with pytest.raises(ParseError, match="hirsch must be a positive integer"):
        from_document({**lattice(1).to_document(), "hirsch": True})


def test_from_document_validates_the_law():
    doc = H3.to_document()
    doc["law"][2].append(
        {"coef": [1, 1], "x_exps": [0, 0, 0], "y_exps": [0, 0, 0]}
    )
    with pytest.raises(ValidationError) as info:
        from_document(doc)
    assert not info.value.report.ok


def test_load_group_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"hirsch": 2,\n  "law": [,]}')
    with pytest.raises(ParseError, match="line 2"):
        load_group(str(path))


def test_rename_only_changes_the_name():
    fresh = replace(H3, name="alias")
    assert fresh.name == "alias"
    assert fresh.law == H3.law
