"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion; each test also prints an explicit verdict line that
`pytest -s` shows.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from conftest import extension_skinny_cocycle, random_unitary_near_identity
from nilstab.catalog import (
    character_representation,
    heisenberg3,
    heisenberg_c1,
    heisenberg_extension,
    heisenberg_skinny,
    voiculescu_cycle,
    z2_skinny,
)
from nilstab.cohomology import (
    cocycle_check,
    pair_cocycle_cycle,
    skinny_check,
)
from nilstab.extensions import (
    central_commutator_cycle,
    promoted_cocycle,
    scaling_map,
    section_cocycle,
)
from nilstab.groups import lattice
from nilstab.obstruction import (
    matrix_exp,
    matrix_log_near_identity,
    perturbation_null_test,
    rho_family,
    winding_pairing,
)
from nilstab.representation import (
    PhaseShiftMatrix,
    build_rho,
    chi_scalar_check,
    defect,
    operator_norm,
    voiculescu_pair,
)
from nilstab.validation import DEFAULT_SEED, make_rng, sample_coords

Z2 = lattice(2)
H3 = heisenberg3()

# (group, cocycle, matrix sizes): even sizes meet the lattice cocycle,
# odd sizes the promoted cocycle, whose coefficient denominator is 2.
SCALAR_CASES = (
    (Z2, z2_skinny, (16, 64, 256)),
    (H3, heisenberg_skinny, (17, 65, 257)),
)
WINDING_CASES = (
    (Z2, z2_skinny, voiculescu_cycle, (16, 32, 64, 128)),
    (H3, heisenberg_skinny, heisenberg_c1, (17, 33, 65, 129)),
)


def sample_pairs(group, count: int, bound: int = 3):
    rng = make_rng(DEFAULT_SEED)
    return [
        (
            sample_coords(rng, group.hirsch, bound),
            sample_coords(rng, group.hirsch, bound),
        )
        for _ in range(count)
    ]


def verdict(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_shift_clock_commutator():
    # u v u^-1 v^-1 = exp(-2 pi i/n) I for n = 2, 4, ..., 512, to 1e-12.
    for k in range(1, 10):
        n = 2**k
        u, v = voiculescu_pair(n)
        word = u.compose(v).compose(u.adjoint()).compose(v.adjoint())
        expected = cmath.exp(-2j * math.pi / n)
        assert word.shift == 0
        assert float(np.max(np.abs(word.phases - expected))) <= 1e-12
        if n <= 128:
            dense = (
                u.to_dense()
                @ v.to_dense()
                @ u.to_dense().conj().T
                @ v.to_dense().conj().T
            )
            gap = np.max(np.abs(dense - expected * np.eye(n)))
            assert float(gap) <= 1e-12
    verdict(1, "shift/clock commutator scalar at n = 2..512")


def test_criterion_2_triple_products_are_the_predicted_scalars():
    # rho(x) rho(y) rho(x*y)^-1 = chi I with chi = exp(2 pi i sigma/n),
    # for 200 seeded pairs per group and size: exact on residues, and the
    # returned scalar and a dense subsample to 1e-12.
    for group, make_sigma, sizes in SCALAR_CASES:
        sigma = make_sigma()
        pairs = sample_pairs(group, 200)
        for n in sizes:
            for index, (x, y) in enumerate(pairs):
                chi = chi_scalar_check(sigma, n, x, y)
                predicted = cmath.exp(2j * math.pi * (sigma(x, y) % n) / n)
                assert abs(chi - predicted) <= 1e-12
                if index < 10:
                    # Independent dense route for a subsample.
                    lhs = build_rho(sigma, n, x).to_dense() @ build_rho(
                        sigma, n, y
                    ).to_dense()
                    rhs = chi * build_rho(
                        sigma, n, group.multiply(x, y)
                    ).to_dense()
                    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12
    verdict(2, "scalar triple products on 200 pairs per group and size")


def test_criterion_3_defects_meet_their_bounds_and_the_exact_formula():
    # Frobenius defect <= 2 pi |sigma|/sqrt(n) + 1e-9 and operator defect
    # <= 2 pi |sigma|/n + 1e-9 on the same samples as criterion 2; the
    # measured Frobenius defect matches sqrt(n) |exp(2 pi i sigma/n) - 1|
    # to 1e-10.
    for group, make_sigma, sizes in SCALAR_CASES:
        sigma = make_sigma()
        pairs = sample_pairs(group, 200)
        for n in sizes:
            for x, y in pairs:
                result = defect(sigma, n, x, y)
                assert result.frobenius <= result.frobenius_bound + 1e-9
                assert result.operator <= result.operator_bound + 1e-9
                exact = math.sqrt(n) * abs(
                    cmath.exp(2j * math.pi * result.sigma_xy / n) - 1
                )
                assert abs(result.frobenius - exact) <= 1e-10
    verdict(3, "defect bounds and the exact Frobenius formula")


def test_criterion_4_winding_certificates():
    # The winding pairing rounds to -<sigma, c> = -1 with residual below
    # 1e-6 for every listed size, on both groups.
    for group, make_sigma, make_cycle, sizes in WINDING_CASES:
        sigma = make_sigma()
        cycle = make_cycle()
        assert pair_cocycle_cycle(sigma, cycle) == 1
        for n in sizes:
            family = rho_family(sigma, n, cycle.support(group))
            result = winding_pairing(family, cycle, group)
            assert result.cycle
            assert result.residual < 1e-6
            assert result.rounded == -1
    verdict(4, "winding equals minus the pairing at all listed sizes")


def test_criterion_5_promoted_cocycle_pairs_to_k():
    # The promoted cocycle on the central extension pairs exactly to k
    # against the k-th central commutator cycle, k = -2..3, both evaluated
    # point by point and in closed form.
    ext = heisenberg_extension()
    for omega in (extension_skinny_cocycle(ext), promoted_cocycle(ext)):
        for k in range(-2, 4):
            assert pair_cocycle_cycle(omega, central_commutator_cycle(ext, k)) == k
    verdict(5, "promoted cocycle pairs to k against the k-th cycle")


def test_criterion_6_perturbation_null_test():
    # 100 seeded perturbations of a genuine representation at radius 1/25
    # all pair to 0 with residual below 1e-6.
    rep = character_representation([[0.3, 0.7], [0.11, 0.59], [0.41, 0.13]])
    report = perturbation_null_test(
        Z2,
        rep,
        voiculescu_cycle(),
        epsilon=1.0 / 25.0,
        trials=100,
        seed=DEFAULT_SEED,
    )
    assert report.trials == 100
    assert report.all_zero
    assert max(p.residual for p in report.pairings) < 1e-6
    verdict(6, "100 seeded perturbations of a genuine rep pair to zero")


def test_criterion_7_validation_suites_pass_exactly():
    # Group laws and the builtin cocycles are proved as polynomial
    # identities; the same cocycles, seen as kernels, also pass the sampled
    # checks over 500 samples, an independent check of the proofs.
    for group in (lattice(1), lattice(2), lattice(3), H3):
        report = group.validate()
        assert report.ok, report.summary()
    for sigma in (z2_skinny(), heisenberg_skinny()):
        assert cocycle_check(sigma).ok
        assert cocycle_check(sigma.as_kernel()).ok
        assert skinny_check(sigma).ok
        assert skinny_check(sigma.as_kernel()).ok
    verdict(7, "group and cocycle proofs pass, and agree with 500 samples")


def test_criterion_8_extension_round_trips():
    # The fiber cocycle of the zero section reproduces sigma exactly on
    # 500 samples, and fiber scaling is a homomorphism on 200 samples.
    ext = heisenberg_extension()
    recovered = section_cocycle(ext, ext.section)
    rng = make_rng(DEFAULT_SEED)
    for _ in range(500):
        g = sample_coords(rng, 2, 3)
        h = sample_coords(rng, 2, 3)
        assert recovered(g, h) == ext.cocycle(g, h)
    from nilstab.extensions import central_extension

    scaled_ext = central_extension(Z2, z2_skinny().scale(3))
    triple = scaling_map(3, ext)
    for _ in range(200):
        g = sample_coords(rng, 3, 3)
        h = sample_coords(rng, 3, 3)
        assert triple(ext.total.multiply(g, h)) == scaled_ext.total.multiply(
            triple(g), triple(h)
        )
    assert ext.total.quotient_by_last().law == Z2.law
    verdict(8, "section cocycle and fiber scaling round-trip exactly")


def test_criterion_9_logarithms_and_structured_arithmetic():
    # exp(log U) returns U to 1e-10 for 50 seeded unitaries within 0.5 of
    # the identity; structured phase-shift arithmetic matches dense
    # arithmetic to 1e-12.
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(50):
        radius = 0.5 * float(rng.uniform(0.1, 1.0))
        u = random_unitary_near_identity(rng, 16, radius)
        log = matrix_log_near_identity(u)
        assert operator_norm(matrix_exp(log) - u) <= 1e-10
    for _ in range(50):
        n = int(rng.integers(2, 33))
        a = PhaseShiftMatrix(n, int(rng.integers(0, n)), rng.integers(0, n, n))
        b = PhaseShiftMatrix(n, int(rng.integers(0, n)), rng.integers(0, n, n))
        gap = a.compose(b).to_dense() - a.to_dense() @ b.to_dense()
        assert float(np.max(np.abs(gap))) <= 1e-12
        gap = a.adjoint().to_dense() - a.to_dense().conj().T
        assert float(np.max(np.abs(gap))) <= 1e-12
    verdict(9, "log/exp round trip and structured-vs-dense agreement")
