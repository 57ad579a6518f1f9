"""Cocycles, chains, boundaries, and the integer cocycle/cycle pairing."""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    boundary3,
    newton_differences_by_fractions,
    record_kernel_calls,
    witness_blocks,
)
from nilstab.catalog import (
    heisenberg3,
    heisenberg_c1,
    heisenberg_skinny,
    voiculescu_cycle,
    z2_skinny,
    zero_cocycle,
)
from nilstab.cohomology import (
    Chain2,
    KernelCocycle,
    PolyCocycle,
    boundary2,
    coboundary,
    cocycle_check,
    cocycle_from_document,
    is_cycle,
    pair_cocycle_cycle,
    skinny_check,
)
from nilstab.errors import NonIntegralValue, ParseError
from nilstab.extensions import central_extension, promoted_cocycle
from nilstab.groups import lattice
from nilstab.poly import MultiPoly, xy_variables
from nilstab.representation import build_rho
from nilstab.validation import SAMPLE_BOUND, SAMPLES, make_rng, sample_coords

Z2 = lattice(2)
H3 = heisenberg3()
coords2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
VARS21 = xy_variables(2, 1)


def on_z2(terms: dict, name: str) -> PolyCocycle:
    return PolyCocycle(Z2, MultiPoly(VARS21, terms), name=name)


# Polynomials on Z^2 that each break at least one cocycle property.
BROKEN = (
    on_z2({(1, 0, 0): 1, (0, 0, 1): 1}, "affine"),  # x1 + y1: normalization, identity
    on_z2({(2, 0, 1): 1}, "quadratic"),  # x1^2*y1: identity, by -2*x1*y1*z1
    on_z2({(0, 1, 0): 1}, "x2"),  # normalization, identity and ker x ker
)


def replay_sigma(sigma: PolyCocycle, witness: str) -> tuple[Fraction, Fraction]:
    """(p at the witness 'sigma(a, b) = v', the stated v); e is the identity."""
    match = re.match(r"sigma\((.*)\) = (\S+)", witness)
    a, b = ast.literal_eval(match[1].replace("e", repr(sigma.group.identity)))
    return sigma.poly.evaluate(a + (b[0],)), Fraction(match[2])


def test_poly_cocycle_evaluates_its_polynomial():
    sigma = z2_skinny()
    assert sigma((0, 1), (1, 0)) == 1
    assert sigma((3, 5), (2, 9)) == 10  # x2 * y1, second y coordinate ignored
    assert sigma((3, 5), (2, -7)) == 10


def test_poly_cocycle_requires_matching_variables():
    with pytest.raises(ValueError):
        PolyCocycle(Z2, MultiPoly.zero(xy_variables(3, 1)))


def test_newton_coefficients_of_heisenberg_skinny():
    sigma = heisenberg_skinny()
    q = sigma.newton
    # p((2,3,5), t) = (-13t - 3t^2) / 2 takes 0, -8, -19 at t = 0, 1, 2.
    assert [c.den for c in q] == [1, 1, 1]
    assert [c.evaluate((2, 3, 5, 0)) for c in q] == [0, -8, -3]
    assert sigma.poly.den == 2


rational_cocycles = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
    max_size=5,
).map(lambda terms: PolyCocycle(H3, MultiPoly(xy_variables(3, 1), terms)))


@settings(deadline=None)
@given(
    st.one_of(st.just(heisenberg_skinny()), rational_cocycles),
    st.tuples(*[st.integers(-(10**6), 10**6)] * 3),
)
def test_newton_coefficients_match_the_fraction_oracle(sigma, x):
    # q_k(x) = Delta^k p(x, 0).
    values = [c.evaluate(x + (0,)) for c in sigma.newton]
    assert values == newton_differences_by_fractions(sigma, x)


@pytest.mark.parametrize(
    "make_sigma",
    [
        heisenberg_skinny,
        lambda: promoted_cocycle(central_extension(H3, heisenberg_skinny())),
        lambda: heisenberg_skinny().scale(3),
    ],
    ids=["heisenberg3", "hirsch4", "scaled"],
)
def test_build_rho_reads_integer_newton_differences_past_int64(monkeypatch, make_sigma):
    # The one row build_rho hands its kernel is Delta^k p(x, 0) in Python
    # ints, with no common denominator: heisenberg_skinny (denominator 2),
    # the Hirsch-4 cocycle (denominator 6) and 3 * heisenberg_skinny, at
    # coordinates up to 2^70, where any int64 step would overflow.
    sigma = make_sigma()
    m = sigma.group.hirsch
    calls = record_kernel_calls(monkeypatch)
    rng = make_rng(29)
    elements = [sample_coords(rng, m, 2**70) for _ in range(6)]
    elements += [(1, 2, 3, 4)[:m], (-(2**70), 3 * 2**65, -7, 2**64 + 9)[:m]]
    for x in elements:
        build_rho(sigma, 5, x)
        (differences,) = calls
        assert all(type(d) is int for d in differences)
        assert differences == newton_differences_by_fractions(sigma, x)
        calls.clear()


def test_kernel_cocycle_rejects_non_integer_values():
    bad = KernelCocycle(Z2, lambda x, y: 0.5)
    with pytest.raises(NonIntegralValue):
        bad((1, 0), (0, 1))


def test_scaling_multiplies_values_and_pairings():
    sigma = z2_skinny()
    tripled = sigma.scale(3)
    assert isinstance(tripled, PolyCocycle)
    assert tripled((2, 5), (7, 1)) == 3 * sigma((2, 5), (7, 1))
    cycle = voiculescu_cycle()
    assert pair_cocycle_cycle(tripled, cycle) == 3 * pair_cocycle_cycle(sigma, cycle)
    as_kernel = sigma.as_kernel().scale(-2)
    assert as_kernel((2, 5), (7, 1)) == -2 * sigma((2, 5), (7, 1))


def test_cocycle_check_passes_for_the_builtin_cocycles():
    for sigma in (z2_skinny(), heisenberg_skinny()):
        proved = cocycle_check(sigma)
        assert proved.ok, proved.summary()
        assert [c.name for c in proved.checks] == [
            "normalization (exact)",
            "cocycle identity (exact)",
            "integrality (exact)",
        ]


@pytest.mark.parametrize(
    "sigma", [z2_skinny(), heisenberg_skinny(), *BROKEN], ids=lambda s: s.name
)
def test_proved_verdicts_agree_with_sampled_kernel_verdicts(sigma):
    # The sampled checks on the same values, seen as a kernel, are an
    # independent oracle for the proofs: each check must agree.
    proved = cocycle_check(sigma)
    sampled = cocycle_check(sigma.as_kernel())
    assert [c.passed for c in proved.checks[:2]] == [c.passed for c in sampled.checks]
    assert proved.checks[2].passed  # every polynomial here is integer valued
    proved_skinny = skinny_check(sigma)
    sampled_skinny = skinny_check(sigma.as_kernel())
    assert [c.passed for c in proved_skinny.checks] == [
        c.passed for c in sampled_skinny.checks
    ]


def test_cocycle_check_flags_a_normalization_failure():
    vars21 = xy_variables(2, 1)
    sigma = PolyCocycle(
        Z2,
        MultiPoly.variable(vars21, 0) + MultiPoly.variable(vars21, 2),
        name="affine",
    )
    for report in (cocycle_check(sigma), cocycle_check(sigma.as_kernel())):
        failed = [c for c in report.failures() if c.name.startswith("normalization")]
        assert failed and "sigma(" in failed[0].witness
        value, stated = replay_sigma(sigma, failed[0].witness)
        assert value == stated != 0


def test_cocycle_check_flags_a_cocycle_identity_failure():
    vars21 = xy_variables(2, 1)
    # x1^2 * y1 is normalized but fails the cocycle identity by -2*x1*y1*z1.
    sigma = PolyCocycle(
        Z2, MultiPoly(vars21, {(2, 0, 1): Fraction(1)}), name="quadratic"
    )
    reports = (cocycle_check(sigma), cocycle_check(sigma.as_kernel()))
    for report in reports:
        failed = [c for c in report.failures() if "identity" in c.name]
        assert failed and "defect" in failed[0].witness
        at = witness_blocks(failed[0].witness)
        x, y, z = at["x"], at["y"], at["z"]
        defect = (
            sigma(y, z) - sigma(Z2.multiply(x, y), z)
            + sigma(x, Z2.multiply(y, z)) - sigma(x, y)
        )
        assert defect == -2 * x[0] * y[0] * z[0] != 0
    assert "defect -2*x1*y1*z1 is -2 at" in reports[0].failures()[0].witness


def test_cocycle_check_flags_a_cocycle_that_is_not_integer_valued():
    # 1/2*x2*y1 is a normalized bilinear cocycle, but not integer valued.
    sigma = on_z2({(0, 1, 1): Fraction(1, 2)}, "half")
    [failure] = cocycle_check(sigma).failures()
    assert failure.name == "integrality (exact)"
    value, stated = replay_sigma(sigma, failure.witness)
    assert value == stated and value.denominator != 1
    with pytest.raises(NonIntegralValue):
        cocycle_check(sigma.as_kernel())


def test_coboundaries_always_satisfy_the_cocycle_identity():
    def f(g):
        return g[0] ** 2 * g[1] + 3 * g[1]

    cb = coboundary(Z2, f)
    report = cocycle_check(cb)
    assert report.ok, report.summary()
    # Coboundaries pair to zero against cycles: the pairing only sees
    # cohomology classes.
    assert pair_cocycle_cycle(cb, voiculescu_cycle()) == 0


def test_skinny_check_passes_for_the_builtin_cocycles():
    for sigma in (z2_skinny(), heisenberg_skinny()):
        report = skinny_check(sigma)
        assert report.ok, report.summary()


def test_skinny_check_proves_vanishing_on_the_kernel():
    sigma = BROKEN[2]  # x2: sigma((0, x2), (0, y2)) = x2
    [failure] = skinny_check(sigma).failures()
    assert "ker(alpha)" in failure.name and "kernel pair" in failure.witness
    value, stated = replay_sigma(sigma, failure.witness.removesuffix(" on kernel pair"))
    assert value == stated != 0


def test_skinny_check_flags_dependence_and_kernel_failures():
    bilinear = KernelCocycle(Z2, lambda x, y: x[1] * y[1], name="x2*y2")
    report = skinny_check(bilinear)
    names = {c.name: c for c in report.failures()}
    assert len(names) == 2
    dependence = [c for c in report.failures() if "depends" in c.name]
    kernel = [c for c in report.failures() if "ker(alpha)" in c.name]
    assert dependence and "equal alpha" in dependence[0].witness
    assert kernel and "kernel pair" in kernel[0].witness


def test_kernel_checks_evaluate_sigma_on_every_draw_of_the_plan():
    # No knob can shrink the plan: a kernel check reports on SAMPLES draws,
    # with six kernel values per cocycle draw and three per skinny draw.
    calls = []

    def zero(x, y):
        calls.append((x, y))
        return 0

    sigma = KernelCocycle(Z2, zero, name="zero")
    report = cocycle_check(sigma)
    assert report.ok and len(calls) == 6 * SAMPLES
    assert [c.name for c in report.checks] == [
        "normalization on 500 samples",
        "cocycle identity on 500 sampled triples",
    ]
    calls.clear()
    assert skinny_check(sigma).ok and len(calls) == 3 * SAMPLES
    assert (SAMPLES, SAMPLE_BOUND) == (500, 3)
    assert all(abs(c) <= SAMPLE_BOUND for x, y in calls for c in x + y)


def test_chain_build_drops_zero_terms():
    chain = Chain2.build([(0, (1, 0), (0, 1)), (2, (1, 1), (0, 0))])
    assert chain.terms == ((2, (1, 1), (0, 0)),)


def test_chain_build_refuses_a_coefficient_that_is_not_an_integer():
    # 1.9 was truncated to 1, so this chain paired as the Voiculescu cycle;
    # ints, bools and numpy ints pass as ints.
    for coef in (1.9, 2.0, Fraction(3)):
        with pytest.raises(TypeError):
            Chain2.build([(coef, (0, 1), (1, 0)), (-coef, (1, 0), (0, 1))])
    chain = Chain2.build(
        [(np.int64(3), (0, 1), (1, 0)), (True, (1, 0), (0, 1)), (2**70, (1, 1), (0, 0))]
    )
    assert chain.terms == ((3, (0, 1), (1, 0)), (1, (1, 0), (0, 1)), (2**70, (1, 1), (0, 0)))
    assert {type(coef) for coef, _, _ in chain.terms} == {int}


def test_chain_support_includes_products():
    chain = voiculescu_cycle()
    support = chain.support(Z2)
    assert set(support) == {(0, 1), (1, 0), (1, 1)}


def test_chain_json_round_trip():
    # Coordinates and coefficients past 64 bits travel as decimal strings.
    wide = Chain2.build([(1, (2**70, 0), (0, 1))])
    heavy = Chain2.build([(2**70, (0, 1), (1, 0))])
    for chain in (heisenberg_c1(), wide, heavy):
        doc = chain.to_json()
        assert json.loads(json.dumps(doc)) == doc
        assert Chain2.from_json(doc) == chain
    assert wide.to_json() == [{"coef": 1, "a": [str(2**70), 0], "b": [0, 1]}]
    assert heavy.to_json() == [{"coef": str(2**70), "a": [0, 1], "b": [1, 0]}]
    # A small coefficient is accepted as a decimal string too, as coordinates are.
    assert Chain2.from_json([{"coef": "-2", "a": [0, 1], "b": [1, 0]}]) == Chain2.build(
        [(-2, (0, 1), (1, 0))]
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"coef": 1},
        [{"coef": 1, "a": [0, 1]}],
        [{"coef": "1.5", "a": [0, 1], "b": [1, 0]}],
        [{"coef": True, "a": [0, 1], "b": [1, 0]}],
        ["term"],
        [{"coef": 1, "a": [1.5, 0], "b": [0, 1]}],  # not truncated to (1, 0)
        [{"coef": 1, "a": ["x", 0], "b": [0, 1]}],
        [{"coef": 1, "a": 5, "b": [0, 1]}],
        [{"coef": 1, "a": [0, 1], "b": [True, 0]}],
    ],
)
def test_chain_from_json_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        Chain2.from_json(doc)


def test_boundary_of_the_commutator_cycles_vanishes():
    assert is_cycle(Z2, voiculescu_cycle())
    assert is_cycle(H3, heisenberg_c1())


def test_boundary_of_a_single_simplex():
    chain = Chain2.build([(1, (1, 0), (0, 1))])
    boundary = boundary2(Z2, chain)
    assert boundary
    assert dict((g, c) for c, g in boundary) == {(0, 1): 1, (1, 1): -1, (1, 0): 1}
    assert not is_cycle(Z2, chain)


def test_pairing_values_are_exact_integers():
    assert pair_cocycle_cycle(z2_skinny(), voiculescu_cycle()) == 1
    assert pair_cocycle_cycle(heisenberg_skinny(), heisenberg_c1()) == 1


@settings(deadline=None, max_examples=60)
@given(coords2, coords2, coords2, st.integers(-3, 3))
def test_cocycles_annihilate_third_boundaries(a, b, c, coef):
    # <sigma, d3 T> = 0 restates the cocycle identity, so the pairing
    # descends to cohomology against cycles.
    chain = boundary3(Z2, [(coef, a, b, c)])
    assert pair_cocycle_cycle(z2_skinny(), chain) == 0
    assert is_cycle(Z2, chain)


@settings(deadline=None, max_examples=40)
@given(
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.tuples(*[st.integers(-3, 3)] * 3),
)
def test_heisenberg_cocycle_annihilates_third_boundaries(a, b, c):
    chain = boundary3(H3, [(1, a, b, c)])
    assert pair_cocycle_cycle(heisenberg_skinny(), chain) == 0


def test_cocycle_document_round_trip():
    sigma = heisenberg_skinny()
    doc = sigma.to_document()
    json.loads(json.dumps(doc))
    again = cocycle_from_document(H3, doc)
    assert again.poly == sigma.poly
    assert again.name == sigma.name


def test_cocycle_document_rejects_wrong_group():
    doc = z2_skinny().to_document()
    with pytest.raises(ParseError, match="Hirsch"):
        cocycle_from_document(H3, doc)
    with pytest.raises(ParseError):
        cocycle_from_document(Z2, {"name": "missing poly"})
    with pytest.raises(ParseError):
        cocycle_from_document(Z2, "not an object")
    doc = zero_cocycle(lattice(1)).to_document()
    cocycle_from_document(lattice(1), doc)
    doc["hirsch"] = True
    with pytest.raises(ParseError, match="hirsch must be an integer"):
        cocycle_from_document(lattice(1), doc)
