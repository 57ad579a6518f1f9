"""Phase-shift unitaries, norms, defect bounds, and the shift/clock pair."""

from __future__ import annotations

import cmath
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assert_within_bounds,
    defect_ulps,
    defects_by_pairs,
    record_kernel_calls,
    specialize_first_by_fractions,
)
from nilstab.catalog import heisenberg3, heisenberg_skinny, z2_skinny
from nilstab.cohomology import Chain2, PolyCocycle, cocycle_check
from nilstab.errors import (
    DimensionMismatch,
    InvalidCocycle,
    NilstabError,
    NonIntegralValue,
    NotCoprime,
    NotScalar,
    ValidationError,
)
from nilstab.extensions import central_extension, promoted_cocycle
from nilstab.groups import MalcevGroup, lattice
from nilstab.poly import MultiPoly, xy_variables
from nilstab import exact, representation
from nilstab.representation import (
    MAX_DENSE,
    DefectResult,
    PhaseShiftMatrix,
    build_rho,
    chi_scalar_check,
    defect,
    defects,
    difference_norms,
    frobenius_norm,
    operator_norm,
    voiculescu_pair,
)
from nilstab.validation import make_rng, sample_coords


def random_phase_shift(rng: np.random.Generator, n: int) -> PhaseShiftMatrix:
    # Residues are drawn outside [0, n) too, so reduction mod n is exercised.
    residues = rng.integers(-3 * n, 3 * n, size=n)
    return PhaseShiftMatrix(n, int(rng.integers(0, n)), residues)


# ----------------------------------------------------------------------
# structure of phase-shift matrices


def test_identity_matrix_is_the_identity():
    eye = PhaseShiftMatrix.identity(5)
    assert eye.shift == 0
    assert np.array_equal(eye.to_dense(), np.eye(5, dtype=complex))
    assert eye.is_scalar()


def test_shift_is_normalized_modulo_n():
    m = PhaseShiftMatrix(4, 9, np.zeros(4, dtype=np.int64))
    assert m.shift == 1
    m = PhaseShiftMatrix(4, -1, np.zeros(4, dtype=np.int64))
    assert m.shift == 3
    m = PhaseShiftMatrix(4, 0, np.array([5, -1, 4, 2]))
    assert m.residues.tolist() == [1, 3, 0, 2]


def test_phases_must_be_unimodular():
    # Phases are stored as integer residues, so each one is exactly an n-th
    # root of unity; float exponents, a wrong length and n = 0 are refused.
    m = PhaseShiftMatrix(5, 0, np.array([0, 1, 7, -2, 4]))
    assert np.max(np.abs(np.abs(m.phases) - 1.0)) < 1e-15
    with pytest.raises(ValueError):
        PhaseShiftMatrix(3, 0, np.array([0.5, 1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        PhaseShiftMatrix(3, 0, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        PhaseShiftMatrix(0, 0, np.zeros(0, dtype=np.int64))


def test_compose_matches_dense_matrix_multiplication():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 16):
        for _ in range(10):
            a = random_phase_shift(rng, n)
            b = random_phase_shift(rng, n)
            gap = a.compose(b).to_dense() - a.to_dense() @ b.to_dense()
            assert np.max(np.abs(gap)) < 1e-13


def test_adjoint_matches_dense_conjugate_transpose():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = random_phase_shift(rng, 8)
        gap = a.adjoint().to_dense() - a.to_dense().conj().T
        assert np.max(np.abs(gap)) < 1e-13
        unit = a.compose(a.adjoint())
        assert unit.shift == 0
        assert not unit.residues.any()


def test_dense_form_is_unitary():
    rng = np.random.default_rng(5)
    a = random_phase_shift(rng, 9).to_dense()
    assert np.max(np.abs(a @ a.conj().T - np.eye(9))) < 1e-13


def test_twist_multiplies_every_phase():
    eye = PhaseShiftMatrix.identity(4)
    rotated = eye.twist(3)
    assert rotated.is_scalar()
    assert rotated.residues.tolist() == [3, 3, 3, 3]
    assert np.max(np.abs(rotated.phases + 1j)) < 1e-15
    a = random_phase_shift(np.random.default_rng(7), 7)
    gap = a.twist(-9).to_dense() - cmath.exp(-18j * math.pi / 7) * a.to_dense()
    assert np.max(np.abs(gap)) < 1e-13


# ----------------------------------------------------------------------
# building representations from cocycles


def test_rho_phases_for_the_lattice_cocycle():
    # sigma = x2*y1 at x = (1, 1): exponent(j) = j, so the phases are the
    # fourth roots of unity in order and the shift is x1 = 1.
    r = build_rho(z2_skinny(), 4, (1, 1))
    assert r.shift == 1
    assert r.residues.tolist() == [0, 1, 2, 3]
    assert np.max(np.abs(r.phases - np.array([1, 1j, -1, -1j]))) < 1e-14


def test_rho_of_the_identity_is_the_identity():
    r = build_rho(z2_skinny(), 7, (0, 0))
    assert r.shift == 0
    assert not r.residues.any()
    assert np.max(np.abs(r.phases - 1)) == 0


def test_rho_respects_the_cocycle_twist():
    sigma = z2_skinny()
    group = sigma.group
    rng = make_rng(23)
    n = 9
    for _ in range(40):
        x = sample_coords(rng, 2, 6)
        y = sample_coords(rng, 2, 6)
        lhs = build_rho(sigma, n, x).compose(build_rho(sigma, n, y))
        rhs = build_rho(sigma, n, group.multiply(x, y)).twist(sigma(x, y))
        assert lhs.shift == rhs.shift
        assert np.array_equal(lhs.residues, rhs.residues)


def test_rho_requires_n_coprime_to_the_denominator():
    sigma = heisenberg_skinny()
    for n in (2, 4, 16, 128):
        with pytest.raises(NotCoprime):
            build_rho(sigma, n, (1, 1, 1))
    r = build_rho(sigma, 17, (1, 1, 1))
    assert r.n == 17


def test_rho_rejects_out_of_range_sizes():
    with pytest.raises(ValueError):
        build_rho(z2_skinny(), 0, (1, 1))
    # Residues exist past the dense cap; only the dense form refuses them.
    big = build_rho(z2_skinny(), MAX_DENSE + 1, (1, 1))
    assert big.residues.tolist() == list(range(MAX_DENSE + 1))
    with pytest.raises(ValueError):
        big.to_dense()
    # n * n past int64 is the residue kernel's limit, refused before any
    # array is allocated, whatever the cocycle's denominator.
    with pytest.raises(ValueError, match="int64"):
        build_rho(z2_skinny(), 2**32, (1, 1))
    with pytest.raises(ValueError, match="int64"):
        build_rho(heisenberg_skinny(), 2**32 + 1, (1, 1, 1))


def test_rho_matches_a_loop_over_exact_integer_exponents():
    # The residue kernel against p(x, j) mod n evaluated in Python ints,
    # including coordinates large enough that p(x, j) exceeds int64: the
    # denominator-2 Heisenberg cocycle (degree 2 in y1), also at a size
    # past the dense cap, and the Hirsch-4 cocycle (degree 3 in y1,
    # denominator 6) at coordinates past 2^64.
    heisenberg = heisenberg_skinny()
    big = (10**12, -(10**15), 3 * 10**14)
    hirsch4 = hirsch4_skinny()
    assert hirsch4.poly.den == 6
    assert max(e[-1] for e in hirsch4.poly.terms) == 3
    cases = [
        (heisenberg, x, (1, 17, 129)) for x in [(1, 2, 3), (-5, 7, -11), big]
    ] + [
        (heisenberg, big, (2**16 + 1,)),
        (heisenberg, (-7, 2**70 + 3, 5), (2**16 + 1,)),
    ] + [
        (hirsch4, x, (1, 25, 35))
        for x in [(1, 2, 3, 4), (-3, 5, -2, 7), (3 * 2**64 + 1, -(2**65), 2**66 - 7, 5),
                  (-(2**64) - 5, 2**67, -(2**65) + 1, 2**64 + 9)]
    ]
    for sigma, x, sizes in cases:
        for n in sizes:
            expected = [int(sigma.poly.evaluate(x + (j,))) % n for j in range(n)]
            assert build_rho(sigma, n, x).residues.tolist() == expected


# ----------------------------------------------------------------------
# norms


def test_frobenius_norm_of_a_known_matrix():
    assert abs(frobenius_norm(np.ones((3, 3))) - 3.0) < 1e-15


def test_operator_norm_on_diagonal_and_nilpotent_matrices():
    assert abs(operator_norm(np.diag([3.0, 1.0, -2.0])) - 3.0) < 1e-12
    nilpotent = np.zeros((2, 2))
    nilpotent[0, 1] = 1.0  # spectral radius 0, operator norm 1
    assert abs(operator_norm(nilpotent) - 1.0) < 1e-12
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_matches_the_svd():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        top = float(np.linalg.norm(m, 2))
        assert abs(operator_norm(m) - top) < 1e-9 * max(top, 1.0)


def test_operator_norm_of_phase_differences_matches_the_closed_form():
    # For equal shifts the difference has one entry per column, so the
    # operator norm is the largest phase gap and the Frobenius norm is
    # the l2 norm of the gaps; difference_norms computes both from the
    # residues.
    n = 12
    base = np.arange(1, n + 1)
    rotated = base + np.arange(n) ** 2
    for shift in (0, 1, 5):
        a = PhaseShiftMatrix(n, shift, base)
        b = PhaseShiftMatrix(n, shift, rotated)
        diff = a.to_dense() - b.to_dense()
        gaps = np.abs(a.phases - b.phases)
        fro, op = difference_norms(a, b)
        assert abs(operator_norm(diff) - float(np.max(gaps))) < 1e-10
        assert abs(frobenius_norm(diff) - float(np.linalg.norm(gaps))) < 1e-10
        assert abs(op - operator_norm(diff)) < 1e-10
        assert abs(fro - frobenius_norm(diff)) < 1e-10
    with pytest.raises(ValueError):
        difference_norms(PhaseShiftMatrix(n, 1, base), PhaseShiftMatrix(n, 2, base))


def test_operator_norm_settles_nearly_tied_singular_values():
    # Two leading singular values 1e-5 apart: an iterative method mixes
    # them too slowly to settle.
    assert abs(operator_norm(np.diag([2.0, 2.0 - 1e-5, 1.0])) - 2.0) < 1e-12


def test_operator_norm_needs_a_square_matrix():
    with pytest.raises(DimensionMismatch):
        operator_norm(np.ones((2, 3)))


# ----------------------------------------------------------------------
# defects against the proved bounds


def test_defect_matches_the_exact_scalar_formula():
    # rho(x) rho(y) = chi rho(x*y) with chi = exp(2 pi i sigma/n), so the
    # defect matrix is (chi - 1) times a unitary:
    #   frobenius = sqrt(n) * |chi - 1| = 2 sqrt(n) |sin(pi sigma / n)|.
    result = defect(z2_skinny(), 16, (0, 1), (1, 0))
    assert result.sigma_xy == 1
    assert abs(result.frobenius - 8 * math.sin(math.pi / 16)) < 1e-12
    assert abs(result.operator - 2 * math.sin(math.pi / 16)) < 1e-12
    assert abs(result.frobenius_bound - math.pi / 2) < 1e-15
    assert abs(result.operator_bound - math.pi / 8) < 1e-15
    assert result.frobenius <= result.frobenius_bound
    assert result.operator <= result.operator_bound


def test_defect_bounds_hold_on_random_samples():
    sigma = heisenberg_skinny()
    rng = make_rng(29)
    for n in (17, 33):
        for _ in range(25):
            x = sample_coords(rng, 3, 3)
            y = sample_coords(rng, 3, 3)
            result = defect(sigma, n, x, y)
            assert_within_bounds(result)
            s = abs(result.sigma_xy)
            expected = 2 * math.sqrt(n) * abs(math.sin(math.pi * (s % n) / n))
            assert abs(result.frobenius - expected) < 1e-9


def dense_from_exact_exponents(sigma: PolyCocycle, n: int, x) -> np.ndarray:
    # rho_n(x) from Python-int exponents p(x, j), independent of the kernel.
    dense = np.zeros((n, n), dtype=complex)
    for j in range(n):
        exponent = int(sigma.poly.evaluate(tuple(x) + (j,))) % n
        dense[(j + x[0]) % n, j] = cmath.exp(2j * math.pi * exponent / n)
    return dense


@pytest.mark.parametrize(
    "make_sigma, sizes", [(z2_skinny, (16, 64, 128)), (heisenberg_skinny, (17, 65, 129))]
)
def test_defect_matches_the_dense_difference(make_sigma, sizes):
    # One batch per size against dense frobenius_norm and operator_norm of
    # rho(x*y) - rho(x) rho(y), built both from build_rho and from a loop
    # over exact exponents.  The pairs include y_1 < 0 and y_1 >= n, and
    # heisenberg_skinny's rows mix the scales 1 and 2.
    sigma = make_sigma()
    group = sigma.group
    rng = make_rng(37)
    pairs = [
        (sample_coords(rng, group.hirsch, 3), sample_coords(rng, group.hirsch, 3))
        for _ in range(8)
    ]
    pairs += [
        ((2, -1, 4)[: group.hirsch], (y1, 3, -1)[: group.hirsch])
        for y1 in (-200, 150, 10**12)
    ]
    scales = {specialize_first_by_fractions(sigma, v)[0] for pair in pairs for v in pair}
    assert scales == {1, sigma.poly.den}
    assert any(y[0] < 0 for _, y in pairs)
    values, by_size = defects(sigma, sizes, pairs)
    for n, results in zip(sizes, by_size):
        assert any(y[0] >= n for _, y in pairs)
        for (x, y), value in zip(pairs, values):
            result = results[value]
            assert result == defect(sigma, n, x, y)
            xy = group.multiply(x, y)
            dense = build_rho(sigma, n, xy).to_dense() - (
                build_rho(sigma, n, x).to_dense() @ build_rho(sigma, n, y).to_dense()
            )
            exact = dense_from_exact_exponents(sigma, n, xy) - (
                dense_from_exact_exponents(sigma, n, x)
                @ dense_from_exact_exponents(sigma, n, y)
            )
            for oracle in (dense, exact):
                assert abs(result.frobenius - frobenius_norm(oracle)) < 1e-12
                assert abs(result.operator - operator_norm(oracle)) < 1e-12


def unproved(terms) -> PolyCocycle:
    return PolyCocycle(lattice(2), MultiPoly(xy_variables(2, 1), terms))


# x2*y1/2 is a cocycle whose value is not an integer at x2 odd, y1 odd.
HALF = {(0, 1, 1): Fraction(1, 2)}
# x1*y1^2 is integer valued but no cocycle.
SQUARE = {(1, 0, 2): 1}
# x2*(y1^3 - 3*y1^2 + 2*y1)/9 = 2*x2*C(y1, 3)/3 is neither.  Its row of
# (0, 1) is integral at j <= 2 and p(x, 2) = p(x, 0), yet
# (p(x, t + 2) - p(x, t))/2 is 1/3 at t = 1, so it is not periodic mod 2.
DEN9 = {(0, 1, 1): Fraction(2, 9), (0, 1, 2): Fraction(-1, 3), (0, 1, 3): Fraction(1, 9)}


def refusal(sigma: PolyCocycle) -> str:
    # The admission error: the failed proof's report, witnesses included.
    return "the cocycle failed its proof:\n" + cocycle_check(sigma).summary()


def assert_every_entry_point_refuses(sigma: PolyCocycle, witness: str) -> None:
    # Every entry point refuses the cocycle before it looks at a size or
    # a pair, even a size it would refuse itself, and names the failed
    # check's witness.
    for refused in (
        lambda: defects(sigma, [7, 0], [((1, 1), (2, 1))]),
        lambda: defects(sigma, [0], []),
        lambda: defect(sigma, 16, (2, 0), (2, 0)),
        lambda: build_rho(sigma, 0, (1, 1)),
        lambda: chi_scalar_check(sigma, 16, (2, 0), (2, 0)),
    ):
        with pytest.raises(InvalidCocycle) as info:
            refused()
        assert str(info.value) == refusal(sigma)
        assert witness in str(info.value)
    assert sigma.proof is sigma.proof  # proved once


def test_every_entry_point_refuses_a_cocycle_on_a_law_that_is_no_group():
    # law_3 = x3 + y3 + x2*y2*y1 is triangular, integral and satisfies the
    # identity laws, but it is not associative.  x2*y1 passes its own
    # proof on it, whose identity reads only the first two laws.  Every
    # entry point refuses the pair with the group's associativity witness
    # before it looks at a size or a pair, even one it would refuse itself.
    v = [MultiPoly.variable(xy_variables(3, 3), i) for i in range(6)]
    law = (v[0] + v[3], v[1] + v[4], v[2] + v[5] + v[1] * v[4] * v[3])
    group = MalcevGroup(3, law, name="not-a-group")
    sigma = PolyCocycle(group, MultiPoly(xy_variables(3, 1), {(0, 1, 0, 1): 1}))
    assert sigma.proof.ok
    chain = Chain2.build([(1, (0, 1, 0), (1, 0, 0)), (-1, (1, 0, 0), (0, 1, 0))])
    x, y = (0, 1, 0), (1, 0, 0)
    for refused in (
        lambda: exact.certify_nonperturbability(group, sigma, chain, [17, 33]),
        lambda: exact.certify_nonperturbability(group, sigma, chain, []),
        lambda: defects(sigma, [17, 0], [(x, y)]),
        lambda: defects(sigma, [0], []),
        lambda: defect(sigma, 17, x, y),
        lambda: build_rho(sigma, 0, x),
        lambda: chi_scalar_check(sigma, 17, x, (1, 0)),
    ):
        with pytest.raises(ValidationError) as info:
            refused()
        assert str(info.value) == (
            "the group law failed its proof:\n" + group.validate().summary()
        )
        assert (
            "[FAIL] associativity (law 3) -- ((x*y)*z)_3 - (x*(y*z))_3 = "
            "-x2*y1*z2 - x2*y2*z1, which is -1 at x=(0, 1, 0), y=(0, 1, 0), "
            "z=(1, 0, 0)"
        ) in str(info.value)
        assert info.value.report is group.proof  # proved once


def test_defects_report_a_non_integral_row_and_keep_the_others():
    # x2*y1/2 is a cocycle whose value is not an integer at x2 odd, y1
    # odd.  The whole cocycle is refused with the integrality witness, and
    # the report keeps the verdicts of the checks that passed.  The value
    # stays integral, and evaluable, at the pairs that avoid such a row.
    sigma = unproved(HALF)
    assert_every_entry_point_refuses(
        sigma, "[FAIL] integrality (exact) -- sigma((0, 1), (1, 0)) = 1/2"
    )
    assert [check.passed for check in cocycle_check(sigma).checks] == [True, True, False]
    for verdict in ("[pass] normalization (exact)", "[pass] cocycle identity (exact)"):
        assert verdict in refusal(sigma)
    pairs = [((0, 2), (1, 0)), ((1, 1), (2, 1)), ((3, 4), (5, -2)), ((0, 1), (1, 0))]
    assert [sigma(x, y) for x, y in pairs[:3]] == [1, 1, 10]
    with pytest.raises(NonIntegralValue, match="non-integer 1/2"):
        sigma(*pairs[3])


def test_defects_split_words_constant_mod_n_from_the_others(monkeypatch):
    # With x1*y1^2 a pair's word is no constant polynomial (the identity's
    # defect is 2*x1*y1*z1), so the split happens at admission: the
    # cocycle is refused with that witness.  A proved cocycle's word is
    # the constant -sigma(x, y) at every size, so no size runs the kernel,
    # and every entry matches the pair-by-pair oracle; heisenberg_skinny's
    # denominator 2 refuses the even sizes.
    assert_every_entry_point_refuses(
        unproved(SQUARE),
        "[FAIL] cocycle identity (exact) -- defect 2*x1*y1*z1 is 2 at "
        "x=(1, 0), y=(1, 0), z=(1, 0)",
    )
    sigma = heisenberg_skinny()
    rng = make_rng(61)
    pairs = [(sample_coords(rng, 3, 4), sample_coords(rng, 3, 4)) for _ in range(30)]
    pairs += [((3, 1, 0), (1, -2, 2)), ((1, 0, 5), (2, 5, -1)), ((-1, 2, 3), (-3, 0, 1))]
    sizes = [3, 4, 6, 7, 12]
    calls = record_kernel_calls(monkeypatch)
    result = defects(sigma, sizes, pairs)
    assert calls == []
    assert_same_defects(result, defects_by_pairs(sigma, sizes, pairs))
    values, by_size = result
    assert values == [sigma(x, y) for x, y in pairs]
    for n, results in zip(sizes, by_size):
        if n % 2 == 0:
            assert type(results) is NotCoprime
        else:
            assert {type(row) for row in results.values()} == {representation.DefectResult}
            assert [row.sigma_xy for row in results.values()] == list(dict.fromkeys(values))


def assert_same_defects(result, oracle):
    # The same values, and per size the same error by type and message, or
    # the same distinct values in the same order with their results field
    # for field.  n, sigma(x, y) and both bounds are equal; the measured
    # norms agree to 1e-11 relative, since the oracle's chords lose digits
    # near d = n (2.7e-12 relative at n = 2^16 + 1), while the closed form
    # is within 4 ulp.
    (values, by_size), (want_values, want_by_size) = result, oracle
    assert values == want_values
    assert len(by_size) == len(want_by_size)
    for results, expected in zip(by_size, want_by_size):
        if isinstance(expected, NilstabError):
            assert type(results) is type(expected)
            assert str(results) == str(expected)
            continue
        assert type(results) is dict
        assert list(results) == list(expected)
        for row, want in zip(results.values(), expected.values()):
            assert type(row) is type(want)
            assert (row.n, row.sigma_xy, row.frobenius_bound, row.operator_bound) == (
                want.n, want.sigma_xy, want.frobenius_bound, want.operator_bound
            )
            assert math.isclose(row.frobenius, want.frobenius, rel_tol=1e-11)
            assert math.isclose(row.operator, want.operator, rel_tol=1e-11)


def hirsch4_skinny() -> PolyCocycle:
    return promoted_cocycle(central_extension(heisenberg3(), heisenberg_skinny()))


@pytest.mark.parametrize(
    "make_sigma, sizes",
    [
        (z2_skinny, (1, 2, 16, 257)),
        (heisenberg_skinny, (16, 17, 33, 129)),
        (hirsch4_skinny, (9, 25, 35, 127)),
    ],
    ids=["lattice2", "heisenberg3", "hirsch4"],
)
def test_defects_match_the_pair_by_pair_oracle(make_sigma, sizes):
    # Sampled pairs, plus coordinates past int64 and y_1 < 0 and y_1 >= n;
    # heisenberg_skinny (denominator 2) and the Hirsch-4 cocycle
    # (denominator 6) mix several row scales, and sizes 16 and 9 share a
    # factor with them.
    sigma = make_sigma()
    group = sigma.group
    m = group.hirsch
    rng = make_rng(43)
    pairs = [(sample_coords(rng, m, 4), sample_coords(rng, m, 4)) for _ in range(30)]
    pairs += [
        ((2, -1, 4, 3)[:m], (y1, 3, -1, 5)[:m]) for y1 in (-200, 300, 10**12)
    ]
    pairs += [((-(2**70), 3 * 2**65, 7, -5)[:m], (2**66 + 1, -9, 2**70, 1)[:m])]
    scales = {specialize_first_by_fractions(sigma, v)[0] for pair in pairs for v in pair}
    assert len(scales) == (1 if m == 2 else 2 if m == 3 else 4)
    result = defects(sigma, sizes, pairs)
    assert_same_defects(result, defects_by_pairs(sigma, sizes, pairs))
    assert {type(results) for results in result[1]} == ({dict, NotCoprime} if m > 2 else {dict})


def test_defects_match_the_oracle_on_non_integral_rows():
    # Rows whose values are not all integers come only from a polynomial
    # that fails its integrality proof, the oracle: every entry point
    # refuses it with that proof's witness.  Rows with fractional
    # coefficients and integer values (heisenberg_skinny's at x2 odd) are
    # measured, and match the pair-by-pair oracle; size 4 shares the
    # denominator's factor 2.
    for terms, witness in (
        (HALF, "sigma((0, 1), (1, 0)) = 1/2"),
        (DEN9, "sigma((0, 1), (3, 0)) = 2/3"),
    ):
        sigma = unproved(terms)
        assert not cocycle_check(sigma).checks[2].passed
        for n in (2, 3, 5):
            for refused in (
                lambda: defects(sigma, [n], [((0, 1), (0, 0))]),
                lambda: build_rho(sigma, n, (0, 1)),
                lambda: chi_scalar_check(sigma, n, (0, 1), (0, 0)),
            ):
                with pytest.raises(InvalidCocycle) as info:
                    refused()
                assert str(info.value) == refusal(sigma)
                assert f"[FAIL] integrality (exact) -- {witness}" in str(info.value)
    sigma = heisenberg_skinny()
    rng = make_rng(47)
    pairs = [(sample_coords(rng, 3, 3), sample_coords(rng, 3, 3)) for _ in range(20)]
    assert {specialize_first_by_fractions(sigma, x)[0] for x, _ in pairs} == {1, 2}
    result = defects(sigma, [7, 4, 9], pairs)
    assert_same_defects(result, defects_by_pairs(sigma, [7, 4, 9], pairs))
    seven, four, nine = result[1]
    assert {type(row) for row in [*seven.values(), *nine.values()]} == {
        representation.DefectResult
    }
    assert type(four) is NotCoprime


def test_defects_bound_their_memory_at_large_n(monkeypatch):
    # heisenberg_skinny is a cocycle, so every pair's gap is the constant
    # -sigma(x, y) mod n: no residue and no n-entry table is computed, and
    # the peak allocation of a 40-pair sweep does not grow with n.  It
    # stays below 64 KiB, an eighth of one int64 row at n = 2^16 + 1.
    sigma = heisenberg_skinny()
    n = 2**16 + 1
    rng = make_rng(41)
    pairs = [(sample_coords(rng, 3, 9), sample_coords(rng, 3, 9)) for _ in range(40)]
    expected = [defect(sigma, n, x, y) for x, y in pairs]
    peaks = []
    for size in (17, n, 2**20 + 1):
        tracemalloc.start()
        try:
            values, (results,) = defects(sigma, [size], pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if size == n:
            assert [results[v] for v in values] == expected
    assert max(peaks) < 2 * min(peaks)
    assert max(peaks) < 1 << 16
    calls = record_kernel_calls(monkeypatch)
    values, by_size = defects(sigma, [17, n, 2**20 + 1], pairs)
    assert [by_size[1][v] for v in values] == expected
    assert all(isinstance(row, representation.DefectResult) for row in by_size[2].values())
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 1023, 8193, 2**16 + 1, 2**20 + 1])
def test_constant_gap_norms_equal_the_norms_of_the_full_rows(n):
    # The closed form (a chord, and sqrt(n) times it) against numpy's norms
    # of the stored row of n equal gaps d, that is sigma = -d: they agree
    # to the dense row's own rounding, whose chord table computes
    # pi * d / n near pi for d near n and so loses digits as n grows.
    rng = np.random.default_rng(n)
    gaps = rng.integers(0, n, size=12 if n < 2**20 else 1)
    gaps = np.concatenate([gaps, gaps[:4], [0, n - 1]])
    full_fro, full_op = representation._gap_norms(np.repeat(gaps[:, None], n, axis=1), n)
    for d, fro, op in zip(gaps.tolist(), full_fro.tolist(), full_op.tolist()):
        chord = exact._chord(-d, n)
        assert math.isclose(chord * math.sqrt(n), fro, rel_tol=1e-11, abs_tol=1e-300)
        assert math.isclose(chord, op, rel_tol=1e-11, abs_tol=1e-300)


@pytest.mark.parametrize(
    "n",
    [17, 33, 65, 129, 257, 513, 1023, 2**31 - 1, 2**61 - 1, 2**127 - 1, 10**40 + 1],
)
def test_defect_norms_are_within_4_ulp_of_the_true_values(n):
    # The benchmark sizes and sizes far past int64.  Small sigma of both
    # signs, where -sigma mod n lies next to n, and sigma near n / 3 and n / 2.
    values = [*range(-40, 41), n // 3, -(n // 3), n // 2, n // 2 + 1, n - 1, 7001, -7001]
    pairs = [((0, s), (1, 0)) for s in values]  # sigma(x, y) = x2 * y1 = s
    _, (results,) = defects(z2_skinny(), [n], pairs)
    for s in values:
        row = results[s]
        assert row.sigma_xy == s
        assert defect_ulps(n, s, row.frobenius, row.operator) <= 4, (n, s)


def test_a_sweep_near_the_size_cap_takes_o_log_n_per_gap():
    # Twelve distinct gaps at n = 2^31 - 1, the old int64 size cap: summing
    # n squared chords each took seconds; the closed form takes O(1) each.
    pairs = [((0, s), (1, 0)) for s in range(7001, 7013)]
    n = 2**31 - 1
    start = time.perf_counter()
    _, (results,) = defects(z2_skinny(), [n], pairs)
    assert time.perf_counter() - start < 1.0
    for (_, s), _ in pairs:
        row = results[s]
        chord = 2 * abs(math.sin(math.pi * s / n))
        assert row.sigma_xy == s
        assert math.isclose(row.operator, chord, rel_tol=1e-15)
        assert math.isclose(row.frobenius, math.sqrt(n) * chord, rel_tol=1e-15)


def test_the_bound_check_is_relative_at_every_size():
    # The sweep's bounds are proved, not checked; this checks them, with a
    # relative slack: at n = 2^127 - 1 and sigma = 5 the bounds are 2.4e-18
    # (Frobenius) and 1.8e-37 (operator), which an absolute slack of 1e-9
    # would not test at all.  At n = 2^1023 + 1 and sigma = n // 2 the
    # operator bound is pi, though 2 pi |sigma| overflows a float: the
    # bounds come from |sigma| / n.
    n = 2**1023 + 1
    row = defect(z2_skinny(), n, (0, n // 2), (1, 0))
    assert row.operator_bound == math.pi and math.isfinite(row.frobenius_bound)
    # Every measured row is within its bounds, from 17 to 2^1023 + 1: small
    # sigma of both signs, where at large n the chord and its bound agree
    # to rounding, and sigma near n / 3, n / 2 and n, whose 2 pi |sigma|
    # would overflow a float from about 2^1021 on.  Every bound is finite.
    rng = make_rng(23)
    sizes = [17, 33, 1023, 2**31 - 1, 2**61 - 1, 2**127 - 1, 10**40 + 1, 2**521 - 1,
             2**1023 + 1, *(rng.getrandbits(bits) | 1 for bits in range(8, 1024, 61))]
    for n in sizes:
        values = [*range(-40, 41), n // 3, n // 2, n // 2 + 1, n - 1]
        values += [-v for v in values[-4:]]
        _, (results,) = defects(z2_skinny(), [n], [((0, s), (1, 0)) for s in values])
        for row in results.values():
            assert type(row) is DefectResult, (n, row)
            assert math.isfinite(row.frobenius_bound) and math.isfinite(row.operator_bound)
            assert_within_bounds(row)


def test_defects_refuse_a_value_whose_bounds_are_not_finite():
    # sigma((x1, x2), y) = x2 * y1.  Past the floats lie |sigma| / n
    # (2^2000 / 17), 2 pi |sigma| / n (2 pi * 2^1023) and a Frobenius bound
    # sqrt(n) times a finite operator bound (2^530 * 2^500): each is a
    # ValueError naming sigma(x, y), the first pair with it and n, where
    # the bound check would prove nothing.
    sigma = z2_skinny()
    for n, value in ((17, 2**2000), (17, 17 * 2**1023), (2**1000 + 1, 2**1530)):
        pairs = [((0, 1), (3, 0)), ((0, value), (1, 0)), ((0, 1), (value, 5))]
        for refused, first in (
            (lambda: defects(sigma, [n], pairs), pairs[1]),
            (lambda: defect(sigma, n, *pairs[2]), pairs[2]),
        ):
            with pytest.raises(ValueError) as info:
                refused()
            assert str(info.value) == (
                f"sigma(x, y) = {value} at {first} is too large for float bounds at n = {n}"
            )
    # Just below, at 2 pi * 2^1019 * sqrt(17) < 2^1024, the row is measured.
    row = defect(sigma, 17, (0, 17 * 2**1019), (1, 0))
    assert math.isfinite(row.frobenius_bound) and row.operator_bound == 2 * math.pi * 2**1019


def test_defects_refuse_a_malformed_pair_as_the_group_does():
    # The pairs' coordinates are checked as `MalcevGroup.element` checks
    # them, in one pass: pair by pair, each x before its y, and the first
    # bad one is named.
    sigma = heisenberg_skinny()
    good = ((1, 2, 3), (0, 1, 0))
    with pytest.raises(ValueError, match=r"^element has 2 coordinates, expected 3$"):
        defects(sigma, [17], [good, ((1, 2), (0, 0, 0)), ((1, 2, 3.0), (0, 0, 0))])
    with pytest.raises(ValueError, match=r"^element has 2 coordinates, expected 3$"):
        defects(sigma, [17], [((0, 0, 0), (1, 2)), good, ((1, 2, 3.0), (0, 0, 0))])
    with pytest.raises(ValueError, match=r"^coordinates must be integers, got \(1, 2, 3\.0\)$"):
        defects(sigma, [17], [good, ((1, 2, 3.0), (1, 2)), ((0, 0, 0), (1, 2))])
    with pytest.raises(ValueError, match=r"^coordinates must be integers, got \(0, 0\.5, 0\)$"):
        defects(sigma, [17], [good, ((0, 0, 0), (0, 0.5, 0)), ((0, 0, 0), (1, 2))])
    # Any sequences of ints will do, lists included.
    as_lists = [([1, 2, 3], [0, 1, 0])]
    assert defects(sigma, [17, 33], as_lists) == defects(sigma, [17, 33], [good])


def test_defect_raises_the_not_coprime_entry_that_defects_returns():
    # `defects` returns a size's NotCoprime as the size's entry; `defect`
    # raises it.
    sigma = heisenberg_skinny()
    x, y = (1, 2, 3), (0, 1, 0)
    _, (entry,) = defects(sigma, [16], [(x, y)])
    with pytest.raises(NotCoprime) as info:
        defect(sigma, 16, x, y)
    assert type(entry) is NotCoprime
    assert str(info.value) == str(entry)
    assert str(info.value) == "n = 16 shares a factor with the coefficient denominator 2"


def test_defects_hold_one_result_per_size_and_distinct_value():
    # values[j] is the j-th pair's sigma(x, y).  Each coprime size maps
    # every distinct value, in order of first occurrence (not sorted), to
    # its one result, shared by a repeated pair and by different pairs
    # with that value; a size sharing a factor with the denominator is
    # the single NotCoprime that `_size` raises.
    sigma = heisenberg_skinny()
    pairs = [((2, 3, 0), (1, -1, 1)), ((1, 0, 5), (2, 5, -1)), ((0, 1, 0), (1, 0, 1)),
             ((2, 3, 0), (1, -1, 1)), ((3, 1, 0), (1, -2, 2)), ((1, 2, 3), (0, 1, 0))]
    values, by_size = defects(sigma, [17, 16, 33, 16], pairs)
    assert values == [sigma(x, y) for x, y in pairs] == [-3, -10, -1, -3, -1, 0]
    assert len(by_size) == 4
    for n, results in zip((17, 33), by_size[::2]):
        assert type(results) is dict
        assert list(results) == [-3, -10, -1, 0]
        for value, row in results.items():
            assert (row.n, row.sigma_xy) == (n, value)
        for (x, y), value in zip(pairs, values):
            assert results[value] == defect(sigma, n, x, y)
    with pytest.raises(NotCoprime) as info:
        exact._size(16, sigma.poly.den)
    for refused in by_size[1::2]:
        assert type(refused) is NotCoprime
        assert str(refused) == str(info.value)


def test_defects_refuse_a_size_below_one_on_a_proved_cocycle():
    pairs = [((0, 1), (1, 0))]
    for n in (0, -3):
        with pytest.raises(ValueError, match=rf"^matrix size must be positive, got {n}$"):
            defects(z2_skinny(), [17, n], pairs)


def test_defect_shrinks_like_the_square_root_of_n():
    small = defect(z2_skinny(), 256, (0, 1), (1, 0))
    large = defect(z2_skinny(), 512, (0, 1), (1, 0))
    ratio = large.frobenius / small.frobenius
    assert abs(ratio - 1 / math.sqrt(2)) < 1e-4


def test_chi_scalar_check_returns_the_predicted_scalar():
    sigma = z2_skinny()
    rng = make_rng(31)
    for _ in range(40):
        x = sample_coords(rng, 2, 5)
        y = sample_coords(rng, 2, 5)
        chi = chi_scalar_check(sigma, 32, x, y)
        expected = cmath.exp(2j * math.pi * (sigma(x, y) % 32) / 32)
        assert abs(chi - expected) < 1e-13


def test_chi_scalar_check_names_the_first_entry_off_the_scalar(monkeypatch):
    # x1*y1^2 is no cocycle, so it is refused before any word is formed.
    # With a proved cocycle every entry is on the scalar, so one of x's
    # residues is corrupted: rho(x)* reads x's column 3 at the word's
    # column 3 + x1 = 5, which is off by -1 from -sigma(x, y) = 0 there.
    with pytest.raises(InvalidCocycle, match="cocycle identity"):
        chi_scalar_check(unproved(SQUARE), 16, (2, 0), (2, 0))
    real = representation.build_rho

    def corrupted(sigma, n, g):
        rho = real(sigma, n, g)
        if g != (2, 0):
            return rho
        residues = rho.residues.copy()
        residues[3] += 1
        return PhaseShiftMatrix(n, rho.shift, residues)

    monkeypatch.setattr(representation, "build_rho", corrupted)
    with pytest.raises(
        NotScalar, match="diagonal entry 5 has residue 15 mod 16, expected 0"
    ) as info:
        chi_scalar_check(z2_skinny(), 16, (2, 0), (1, 1))
    assert info.value.index == 5


def test_chi_scalar_check_forms_the_word_from_phase_shift_products(monkeypatch):
    # The word is rho(x*y) rho(y)* rho(x)* from three kernel calls, two
    # products and two adjoints, not the cocycle identity that `defects`
    # reads; a size the cocycle's denominator refuses computes nothing.
    calls = record_kernel_calls(monkeypatch)
    products = []
    for name in ("compose", "adjoint"):
        method = getattr(PhaseShiftMatrix, name)

        def counted(*args, _method=method, _name=name):
            products.append(_name)
            return _method(*args)

        monkeypatch.setattr(PhaseShiftMatrix, name, counted)
    sigma = heisenberg_skinny()
    x, y = (1, 2, -3), (4, 0, 5)
    chi = chi_scalar_check(sigma, 33, x, y)
    assert len(calls) == 3
    assert sorted(products) == ["adjoint", "adjoint", "compose", "compose"]
    residue = sigma(x, y) % 33
    assert abs(chi - cmath.exp(2j * math.pi * residue / 33)) < 1e-13
    with pytest.raises(NotCoprime):
        chi_scalar_check(sigma, 32, x, y)
    assert len(calls) == 3


def test_defects_are_the_chords_of_the_cocycle_value():
    # The phase-shift word rho(x*y)^-1 rho(x) rho(y) is the scalar
    # exp(2 pi i sigma(x, y) / n), so the defect is |1 - chi| times a
    # unitary: 2 sqrt(n) |sin(pi sigma / n)| (Frobenius) and
    # 2 |sin(pi sigma / n)| (operator).  The sweep prints the measured
    # values; this checks them against the closed form.
    sigma = heisenberg_skinny()
    rng = make_rng(59)
    pairs = [(sample_coords(rng, 3, 9), sample_coords(rng, 3, 9)) for _ in range(600)]
    sizes = [17, 129, 1023]
    for n, results in zip(sizes, defects(sigma, sizes, pairs)[1]):
        for row in results.values():
            chord = 2 * abs(math.sin(math.pi * row.sigma_xy / n))
            assert abs(row.frobenius - math.sqrt(n) * chord) <= 1e-10
            assert abs(row.operator - chord) <= 1e-10


# ----------------------------------------------------------------------
# the shift/clock pair


def test_clock_phases_are_the_rotated_roots_of_unity():
    _, v = voiculescu_pair(3)
    expected = np.array([cmath.exp(2j * math.pi * k / 3) for k in (1, 2, 3)])
    assert v.shift == 0
    assert np.max(np.abs(v.phases - expected)) < 1e-14


def test_shift_clock_commutator_is_the_expected_scalar():
    for n in (2, 4, 8):
        u, v = voiculescu_pair(n)
        word = u.compose(v).compose(u.adjoint()).compose(v.adjoint())
        assert word.shift == 0
        expected = cmath.exp(-2j * math.pi / n)
        assert np.max(np.abs(word.phases - expected)) < 1e-13
        assert word.residues.tolist() == [n - 1] * n
    u2, v2 = voiculescu_pair(2)
    dense = u2.to_dense() @ v2.to_dense() @ u2.to_dense().conj().T @ v2.to_dense().conj().T
    assert np.max(np.abs(dense + np.eye(2))) < 1e-13  # commutator = -I


def test_shift_clock_words_realize_the_lattice_representation():
    # u^a v^b equals rho_n(a, b) after conjugating by u: the clock phases
    # are indexed from 1 while rho's exponents are indexed from 0.
    sigma = z2_skinny()
    n = 8
    u, v = voiculescu_pair(n)
    ud = u.to_dense()
    for a, b in [(1, 0), (0, 1), (2, 3), (-1, 2), (5, -4)]:
        word = np.linalg.matrix_power(ud, a % n) @ np.linalg.matrix_power(
            v.to_dense(), b % n
        )
        conjugated = ud @ word @ ud.conj().T
        dense_rho = build_rho(sigma, n, (a, b)).to_dense()
        assert np.max(np.abs(conjugated - dense_rho)) < 1e-12
