"""One integer rule: every integer a caller passes enters through `operator.index`.

Numpy ints and bools become Python ints where they enter, so the exact
path computes in one arithmetic whatever integer type the caller used;
a float is refused with that site's own error.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nilstab import exact
from nilstab.catalog import (
    heisenberg3,
    heisenberg_extension,
    heisenberg_skinny,
    voiculescu_cycle,
    z2_skinny,
)
from nilstab.cohomology import Chain2, KernelCocycle
from nilstab.errors import (
    NonIntegralValue,
    NotCoprime,
    PairingMismatch,
    ParseError,
    TermOutOfRange,
)
from nilstab.exact import certify_nonperturbability, defects
from nilstab.extensions import central_commutator_cycle, scaling_map
from nilstab.groups import from_document, lattice
from nilstab.poly import MultiPoly
from nilstab.representation import PhaseShiftMatrix, build_rho, chi_scalar_check

Z2 = lattice(2)


def certificate_text(sizes) -> str:
    report = certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), sizes)
    return json.dumps(report.to_json(), sort_keys=True)


@pytest.mark.parametrize(
    "n, expected", [(17, 17), (np.int64(17), 17), (np.int32(17), 17), (np.uint16(17), 17),
                    (np.int64(2**32), 2**32), (True, 1)],
)
def test_size_returns_a_python_int(n, expected):
    size = exact._size(n, 3)
    assert type(size) is int and size == expected


@pytest.mark.parametrize("n", [0.5, 16.5, 17.0, Fraction(17), "17"])
def test_a_size_that_is_not_an_integer_is_a_type_error(n):
    # Every size passes `operator.index` before it is compared, so 0.5 is
    # refused as 16.5 is, whatever its value.
    with pytest.raises(TypeError):
        exact._size(n, 1)
    with pytest.raises(TypeError):
        defects(z2_skinny(), [n], [((0, 1), (1, 0))])
    with pytest.raises(TypeError):
        certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), [n])


def test_size_keeps_its_two_refusals():
    with pytest.raises(ValueError, match=r"^matrix size must be positive, got 0$"):
        exact._size(np.int64(0), 2)
    with pytest.raises(
        NotCoprime, match=r"^n = 16 shares a factor with the coefficient denominator 2$"
    ):
        exact._size(np.int64(16), 2)


def test_a_numpy_size_outside_the_ball_is_refused_as_the_int_is():
    # 6 |value| >= n and n - 6 * widest wrapped in int64, so a summed word
    # outside the convergence ball was certified with a negative margin.
    sigma = z2_skinny().scale(2**61)
    messages = []
    for n in (2**63 - 25, np.int64(2**63 - 25)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            with pytest.raises(TermOutOfRange) as info:
                certify_nonperturbability(Z2, sigma, voiculescu_cycle(), [n])
        messages.append((str(info.value), info.value.term_index))
    assert messages[0] == messages[1]
    assert "mod 9223372036854775783" in messages[0][0]


@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda kind: kind.__name__)
def test_a_certificate_at_a_numpy_size_is_the_one_at_the_int(kind):
    expected = certificate_text([17, 33])
    assert certificate_text([kind(17), kind(33)]) == expected
    report = certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), [kind(17)])
    assert all(type(value) is int for value in (report.runs[0].n, report.runs[0].margin))


def test_a_bool_size_is_refused_as_one_is():
    for n in (1, True):
        with pytest.raises(
            PairingMismatch, match=r"^at n=1 the winding is 0, expected -1$"
        ):
            certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), [n])


@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda kind: kind.__name__)
def test_defects_at_numpy_sizes_hold_python_numbers(kind):
    pairs = [((0, 1, 0), (1, 0, 1)), ((2, 3, 0), (1, -1, 1)), ((0, 0, 0), (4, 4, 1))]
    values, (measured, skipped) = defects(heisenberg_skinny(), [kind(17), kind(16)], pairs)
    expected_values, (expected, expected_skipped) = defects(heisenberg_skinny(), [17, 16], pairs)
    assert (values, measured) == (expected_values, expected)
    assert {type(value) for value in values} == {int}
    for value, row in measured.items():
        assert type(value) is int and type(row.n) is int and type(row.sigma_xy) is int
        assert {type(value) for value in row[2:]} == {float}
    assert type(skipped) is type(expected_skipped) is NotCoprime
    assert str(skipped) == str(expected_skipped)


def test_the_dense_path_reduces_modulo_the_int_size():
    sigma = z2_skinny()
    x, y = (3, 1), (2, 5)
    for kind in (np.int64, np.int32):
        assert chi_scalar_check(sigma, kind(33), x, y) == chi_scalar_check(sigma, 33, x, y)
        rho = build_rho(sigma, kind(33), x)
        assert type(rho.n) is int
        assert np.array_equal(rho.residues, build_rho(sigma, 33, x).residues)


def test_defects_refuse_an_empty_size_list_as_the_certificate_does():
    pairs = [((0, 1), (1, 0))]
    for refused in (
        lambda: defects(z2_skinny(), [], pairs),
        lambda: certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), []),
    ):
        with pytest.raises(ValueError, match=r"^need at least one matrix size$"):
            refused()


@pytest.mark.parametrize("n, shift", [(4.0, 1), (4, 1.5), (Fraction(4), 1), (4, "1")])
def test_a_phase_shift_size_or_shift_that_is_not_an_integer_is_a_type_error(n, shift):
    # 4.0 used to build float residues, and 1.5 was kept as the shift.
    with pytest.raises(TypeError):
        PhaseShiftMatrix(n, shift, np.zeros(4, dtype=np.int64))


def test_a_phase_shift_matrix_holds_python_ints():
    m = PhaseShiftMatrix(np.int64(5), np.int64(7), np.arange(5, dtype=np.int32))
    assert type(m.n) is int and type(m.shift) is int
    assert (m.n, m.shift) == (5, 2)
    assert m.residues.dtype == np.int64
    with pytest.raises(ValueError, match=r"^matrix size must be positive, got 0$"):
        PhaseShiftMatrix(np.int64(0), 0, np.zeros(0, dtype=np.int64))


def test_a_central_element_or_scaling_that_is_not_an_integer_is_a_type_error():
    # 2.7 used to embed as 2, building c_2, which pairs 2 with heisenberg_skinny;
    # and the scaling by 0.5 mapped (1, 2, 3) to (1, 2, 1.5).
    ext = heisenberg_extension()
    for refused in (
        lambda: ext.embed(2.7),
        lambda: central_commutator_cycle(ext, 2.7),
        lambda: scaling_map(0.5, ext),
        lambda: scaling_map(2.0, ext),
    ):
        with pytest.raises(TypeError):
            refused()


@pytest.mark.parametrize("k, expected", [(np.int64(3), 3), (np.int32(-2), -2), (True, 1)])
def test_a_central_element_and_a_scaling_hold_python_ints(k, expected):
    ext = heisenberg_extension()
    assert ext.embed(k) == (0, 0, expected)
    assert {type(v) for v in ext.embed(k)} == {int}
    image = scaling_map(k, ext)((1, 2, 3))
    assert image == (1, 2, 3 * expected)
    assert {type(v) for v in image} == {int}
    assert central_commutator_cycle(ext, k) == central_commutator_cycle(ext, expected)


def test_an_element_keeps_python_ints():
    H3 = heisenberg3()
    for coords in [(np.int64(1), 0, 0), (True, np.int32(2), np.uint8(3)), [1, 2, 3]]:
        element = H3.element(coords)
        assert element == tuple(map(int, coords))
        assert all(type(c) is int for c in element)
    with pytest.raises(ValueError, match=r"^coordinates must be integers, got \(1, 0\.5, 0\)$"):
        H3.element((1, 0.5, 0))
    with pytest.raises(ValueError, match=r"^element has 2 coordinates, expected 3$"):
        H3.element((np.int64(1), 0))


def test_a_chain_keeps_python_ints():
    chain = Chain2.build([(1, (True, 1), (1, 0)), (-1, (1, 0), (True, 1))])
    assert chain.to_json() == [
        {"coef": 1, "a": [1, 1], "b": [1, 0]},
        {"coef": -1, "a": [1, 0], "b": [1, 1]},
    ]
    assert Chain2.from_json(chain.to_json()) == chain
    numpy_chain = Chain2.build([(np.int64(1), (np.int64(1), np.int32(1)), (1, 0))])
    assert all(type(v) is int for _, a, b in numpy_chain.terms for v in (*a, *b))
    with pytest.raises(TypeError):
        Chain2.build([(1, (1.0, 1), (1, 0))])


def test_a_kernel_value_is_a_python_int():
    value = KernelCocycle(Z2, lambda x, y: np.int64(x[1] * y[0]))((0, 3), (2, 0))
    assert type(value) is int and value == 6
    for bad in (0.5, 2.0, Fraction(2)):
        with pytest.raises(NonIntegralValue, match="^kernel returned non-integer "):
            KernelCocycle(Z2, lambda x, y, bad=bad: bad)((1, 0), (0, 1))


def test_a_polynomial_coefficient_is_a_python_int_or_a_fraction():
    assert MultiPoly(("x",), {(1,): np.int64(2)}) == MultiPoly(("x",), {(1,): 2})
    assert MultiPoly.constant(("x",), np.int64(2)) == MultiPoly.constant(("x",), 2)
    assert MultiPoly(("x",), {(1,): True}) == MultiPoly.variable(("x",), 0)
    assert MultiPoly(("x",), {(1,): Fraction(1, 2)}).den == 2
    for bad in (2.0, "2"):
        with pytest.raises(TypeError):
            MultiPoly(("x",), {(1,): bad})
        with pytest.raises(TypeError):
            MultiPoly.constant(("x",), bad)


def test_an_int_past_the_digit_limit_is_named_by_its_bit_length_in_a_document_error():
    # repr fails past Python's 4,300-digit int-to-str limit, so the error
    # names the int by its bit length instead of raising that ValueError.
    value = -(10**5000)
    with pytest.raises(ParseError) as info:
        from_document({"hirsch": value, "law": []})
    assert str(info.value) == (
        f"hirsch must be a positive integer, got a negative integer of {value.bit_length()} bits"
    )
