"""Central extensions, section cocycles, promotion, and exact interpolation."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extension_skinny_cocycle
from nilstab.catalog import (
    heisenberg3,
    heisenberg_extension,
    heisenberg_skinny,
    z2_skinny,
)
from nilstab.cohomology import (
    KernelCocycle,
    PolyCocycle,
    cocycle_check,
    coboundary,
    pair_cocycle_cycle,
    skinny_check,
)
from nilstab.errors import (
    DegreeBoundTooSmall,
    InvalidCocycle,
    NotASection,
    NotSkinny,
    ValidationError,
)
from nilstab.extensions import (
    CentralExtension,
    central_commutator_cycle,
    central_extension,
    interpolate_polynomial_cocycle,
    promoted_cocycle,
    scaling_map,
    section_cocycle,
)
from nilstab.groups import MalcevGroup, lattice
from nilstab.poly import MultiPoly, xy_variables
from nilstab.validation import make_rng, sample_coords

Z2 = lattice(2)
H3 = heisenberg3()
coords3 = st.tuples(*[st.integers(-5, 5)] * 3)


def promoted_closed_form(g, h) -> int:
    # Independent oracle for the promoted cocycle on the Heisenberg
    # extension of (Z^2, x2*y1).  Writing g = (g1, g2, g3), the section
    # lifts the power of the first generator before the kernel part, and
    # unwinding the resulting fiber bookkeeping by hand gives
    #     omega(g, h) = -g3*h1 - g2*h1*(h1 + 1)/2.
    value = -g[2] * h[0] - g[1] * h[0] * (h[0] + 1) // 2
    assert 2 * (-g[2] * h[0]) - 2 * value == g[1] * h[0] * (h[0] + 1)
    return value


def test_extension_of_the_lattice_recovers_the_heisenberg_law():
    ext = central_extension(Z2, z2_skinny())
    assert ext.total.hirsch == 3
    assert ext.total.law == H3.law
    assert ext.base == Z2


def test_extension_embed_section_project_are_consistent():
    ext = heisenberg_extension()
    assert ext.embed(5) == (0, 0, 5)
    assert ext.project((4, 7, -2)) == (4, 7)
    assert ext.section((4, 7)) == (4, 7, 0)
    lifted = ext.total.multiply(ext.section((1, 2)), ext.embed(9))
    assert ext.project(lifted) == (1, 2)


def test_extension_rejects_a_non_cocycle():
    vars21 = xy_variables(2, 1)
    affine = PolyCocycle(
        Z2, MultiPoly.variable(vars21, 0) + MultiPoly.variable(vars21, 2)
    )
    with pytest.raises(InvalidCocycle):
        central_extension(Z2, affine)
    # A normalized cocycle that is not integer valued.
    half = PolyCocycle(Z2, MultiPoly(vars21, {(0, 1, 1): Fraction(1, 2)}))
    with pytest.raises(InvalidCocycle, match="integrality"):
        central_extension(Z2, half)


def test_extension_refuses_a_cocycle_on_another_group():
    other = PolyCocycle(lattice(1), MultiPoly.zero(xy_variables(1, 1)), name="zero")
    with pytest.raises(ValueError, match=r"^cocycle lives on a different group$"):
        central_extension(Z2, other)


def test_extension_by_zero_is_the_direct_product():
    zero = PolyCocycle(Z2, MultiPoly.zero(xy_variables(2, 1)), name="zero")
    ext = central_extension(Z2, zero)
    assert ext.total.law == lattice(3).law


def test_scaling_map_is_a_homomorphism_onto_the_scaled_extension():
    ext = heisenberg_extension()
    scaled = central_extension(Z2, z2_skinny().scale(3))
    triple = scaling_map(3, ext)
    rng = make_rng(7)
    for _ in range(200):
        g = sample_coords(rng, 3, 4)
        h = sample_coords(rng, 3, 4)
        assert triple(ext.total.multiply(g, h)) == scaled.total.multiply(
            triple(g), triple(h)
        )
    assert triple(ext.embed(1)) == scaled.embed(3)


def test_section_cocycle_of_the_zero_section_recovers_sigma():
    ext = heisenberg_extension()
    sigma = section_cocycle(ext, ext.section)
    rng = make_rng(11)
    for _ in range(300):
        g = sample_coords(rng, 2, 5)
        h = sample_coords(rng, 2, 5)
        assert sigma(g, h) == ext.cocycle(g, h)


def test_section_cocycle_shifts_by_a_coboundary_for_other_sections():
    ext = heisenberg_extension()

    # theta(g) = (g, alpha(g)) differs from the zero section by the
    # homomorphism alpha, whose coboundary vanishes.
    additive = section_cocycle(ext, lambda g: (g[0], g[1], g[0]))
    # theta(g) = (g, g1^2) differs by f(g) = g1^2 with coboundary
    # f(h) - f(g*h) + f(g) = -2*g1*h1.
    quadratic = section_cocycle(ext, lambda g: (g[0], g[1], g[0] ** 2))
    shift = coboundary(Z2, lambda g: g[0] ** 2)

    rng = make_rng(13)
    for _ in range(300):
        g = sample_coords(rng, 2, 5)
        h = sample_coords(rng, 2, 5)
        assert additive(g, h) == ext.cocycle(g, h)
        assert quadratic(g, h) == ext.cocycle(g, h) + shift(g, h)
        assert shift(g, h) == -2 * g[0] * h[0]
    # All sections give the same cohomology class, hence the same pairing.
    from nilstab.catalog import voiculescu_cycle

    cycle = voiculescu_cycle()
    assert pair_cocycle_cycle(quadratic, cycle) == pair_cocycle_cycle(
        ext.cocycle, cycle
    )


def test_section_cocycle_rejects_a_non_section():
    ext = heisenberg_extension()
    with pytest.raises(NotASection):
        section_cocycle(ext, lambda g: (2 * g[0], g[1], 0))


def test_section_cocycle_names_a_pair_on_which_theta_is_not_a_section():
    # theta is the zero section on the probe box [-3, 3]^2 and shifts the
    # first coordinate outside it, so every construction probe passes and
    # only a pair whose product leaves the box is refused.
    ext = heisenberg_extension()

    def theta(g):
        if max(map(abs, g)) <= 3:
            return ext.section(g)
        return (g[0] + 1, g[1], 0)

    recovered = section_cocycle(ext, theta)
    assert recovered((1, 2), (-1, 1)) == ext.cocycle((1, 2), (-1, 1))
    with pytest.raises(NotASection) as info:
        recovered((3, 0), (1, 0))
    assert str(info.value) == (
        "theta is not a section over the pair ((3, 0), (1, 0)): got (-1, 0, 0)"
    )


def test_central_commutator_cycle_is_a_cycle_with_the_expected_terms():
    ext = heisenberg_extension()
    from nilstab.cohomology import is_cycle

    for k in (-2, 1, 3):
        cycle = central_commutator_cycle(ext, k)
        assert cycle.terms == (
            (1, (1, 0, 0), (0, 0, k)),
            (-1, (0, 0, k), (1, 0, 0)),
        )
        assert is_cycle(ext.total, cycle)


def test_promoted_cocycle_matches_the_closed_form():
    omega = extension_skinny_cocycle(heisenberg_extension())
    rng = make_rng(17)
    for _ in range(400):
        g = sample_coords(rng, 3, 5)
        h = sample_coords(rng, 3, 5)
        assert omega(g, h) == promoted_closed_form(g, h)
    for g1 in range(-2, 3):
        for g2 in range(-2, 3):
            for g3 in range(-2, 3):
                for h1 in range(-2, 3):
                    g = (g1, g2, g3)
                    h = (h1, 1, -1)
                    assert omega(g, h) == promoted_closed_form(g, h)


def test_promoted_cocycle_pairs_to_k_with_the_kth_commutator_cycle():
    ext = heisenberg_extension()
    for omega in (extension_skinny_cocycle(ext), promoted_cocycle(ext)):
        for k in range(-3, 5):
            assert pair_cocycle_cycle(omega, central_commutator_cycle(ext, k)) == k


def hirsch4_extension() -> CentralExtension:
    return central_extension(H3, heisenberg_skinny())


def square_extension() -> CentralExtension:
    # Z by x1*y1: law_2 = x2 + y2 + x1*y1, so a^w = (w, w(w - 1)/2), and
    # omega = 1/2*x1^2*y1 - 1/2*x1*y1 - x2*y1.
    variables = xy_variables(1, 1)
    x1, y1 = (MultiPoly.variable(variables, j) for j in range(2))
    return central_extension(lattice(1), PolyCocycle(lattice(1), x1 * y1, name="x1*y1"))


def square_tower() -> CentralExtension:
    # The second level: extend by the promotion of square_extension.
    ext = square_extension()
    return central_extension(ext.total, promoted_cocycle(ext))


@pytest.mark.parametrize(
    "make_ext",
    [heisenberg_extension, hirsch4_extension, square_extension, square_tower],
    ids=["heisenberg3", "hirsch4", "square", "square-tower"],
)
def test_closed_form_matches_the_pointwise_oracle(make_ext):
    ext = make_ext()
    closed = promoted_cocycle(ext)
    oracle = extension_skinny_cocycle(ext)
    m = ext.total.hirsch
    for point in itertools.product(range(-2, 3), repeat=m + 1):
        x, y = point[:m], (point[m],) + (0,) * (m - 1)
        assert closed(x, y) == oracle(x, y), (x, y)
    rng = make_rng(19)
    for _ in range(300):
        x = sample_coords(rng, m, 6)
        y = sample_coords(rng, m, 6)
        assert closed(x, y) == oracle(x, y), (x, y)


def test_promotion_refuses_an_unproved_extension_law():
    # law_2 = x2 + y2 + x1^3*y1 is not associative, so the extension law is
    # refused before a^w is built.
    variables = xy_variables(2, 2)
    x1, x2, y1, y2 = (MultiPoly.variable(variables, j) for j in range(4))
    skew = MalcevGroup(2, (x1 + y1, x2 + y2 + x1**3 * y1), name="skew")
    zero = PolyCocycle(lattice(1), MultiPoly.zero(xy_variables(1, 1)))
    with pytest.raises(ValidationError, match=r"the group law failed its proof:\n") as info:
        promoted_cocycle(CentralExtension(base=lattice(1), total=skew, cocycle=zero))
    assert "[FAIL] associativity (law 2)" in str(info.value)


def test_promoted_cocycle_passes_the_cocycle_and_skinny_checks():
    omega = extension_skinny_cocycle(heisenberg_extension())
    report = cocycle_check(omega)
    assert report.ok, report.summary()
    thin = skinny_check(omega)
    assert thin.ok, thin.summary()


def test_interpolation_recovers_a_known_polynomial_exactly():
    fitted = interpolate_polynomial_cocycle(z2_skinny().as_kernel(), degree_bound=2)
    assert fitted.poly == z2_skinny().poly


def test_interpolation_recovers_the_promoted_cocycle():
    omega = extension_skinny_cocycle(heisenberg_extension())
    fitted = interpolate_polynomial_cocycle(omega, degree_bound=4)
    assert fitted.poly == promoted_cocycle(heisenberg_extension()).poly
    expected = MultiPoly(
        xy_variables(3, 1),
        {
            (0, 0, 1, 1): Fraction(-1),
            (0, 1, 0, 2): Fraction(-1, 2),
            (0, 1, 0, 1): Fraction(-1, 2),
        },
    )
    assert fitted.poly == expected
    assert str(fitted.poly) == "-1/2*x2*y1^2 - 1/2*x2*y1 - x3*y1"


def test_interpolation_rejects_a_degree_bound_that_is_too_small():
    omega = extension_skinny_cocycle(heisenberg_extension())
    with pytest.raises(DegreeBoundTooSmall):
        interpolate_polynomial_cocycle(omega, degree_bound=1)
    with pytest.raises(DegreeBoundTooSmall):
        interpolate_polynomial_cocycle(z2_skinny().as_kernel(), degree_bound=0)


def test_interpolation_rejects_a_non_skinny_kernel():
    bilinear = KernelCocycle(Z2, lambda x, y: x[1] * y[1], name="x2*y2")
    with pytest.raises(NotSkinny):
        interpolate_polynomial_cocycle(bilinear, degree_bound=2)


def test_shipped_promoted_cocycle_is_the_interpolated_closed_form():
    sigma = heisenberg_skinny()
    assert sigma.group == H3
    expected = MultiPoly(
        xy_variables(3, 1),
        {
            (0, 0, 1, 1): Fraction(-1),
            (0, 1, 0, 2): Fraction(-1, 2),
            (0, 1, 0, 1): Fraction(-1, 2),
        },
    )
    assert sigma.poly == expected
    assert sigma.poly.den == 2


@settings(deadline=None, max_examples=40)
@given(coords3, coords3, coords3)
def test_promoted_cocycle_satisfies_the_cocycle_identity(x, y, z):
    omega = heisenberg_skinny()
    xy = H3.multiply(x, y)
    yz = H3.multiply(y, z)
    assert omega(y, z) - omega(xy, z) + omega(x, yz) - omega(x, y) == 0
