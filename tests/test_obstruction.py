"""Matrix logarithms, the winding pairing, certificates, and the null test."""

from __future__ import annotations

import cmath
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nilstab
from conftest import (
    boundary3,
    certificate_runs_by_words,
    exact_expm,
    random_unitary_near_identity,
    record_kernel_calls,
)
from nilstab import exact, obstruction, representation
from nilstab.catalog import (
    character_representation,
    heisenberg3,
    heisenberg_c1,
    heisenberg_skinny,
    voiculescu_cycle,
    z2_skinny,
    zero_cocycle,
)
from nilstab.cohomology import Chain2, PolyCocycle, pair_cocycle_cycle
from nilstab.errors import (
    InvalidCocycle,
    NilstabError,
    NotACycle,
    NotCoprime,
    PairingMismatch,
    TermOutOfRange,
    TooFarFromIdentity,
    TorsionPairing,
)
from nilstab.extensions import (
    central_commutator_cycle,
    central_extension,
    promoted_cocycle,
)
from nilstab.groups import MalcevGroup, lattice
from nilstab.obstruction import (
    PERTURBATION_RADIUS,
    SIGN_CONVENTION,
    certify_nonperturbability,
    matrix_exp,
    matrix_log_near_identity,
    perturbation_null_test,
    rho_family,
    winding_pairing,
)
from nilstab.poly import MultiPoly, xy_variables
from nilstab.representation import (
    build_rho,
    chi_scalar_check,
    defect,
    frobenius_norm,
    operator_norm,
)
from nilstab.validation import make_rng, sample_coords

Z2 = lattice(2)
H3 = heisenberg3()


# ----------------------------------------------------------------------
# exponential and logarithm


def test_matrix_exp_matches_the_spectral_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        skew = (raw - raw.conj().T) / 2
        gap = matrix_exp(skew) - exact_expm(skew)
        assert np.max(np.abs(gap)) < 1e-12


def test_matrix_exp_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(42)
    for _ in range(10):
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        skew = (raw - raw.conj().T) / 2
        gap = matrix_exp(skew) - scipy_linalg.expm(skew)
        assert np.max(np.abs(gap)) < 1e-11


def test_exp_and_log_refuse_input_outside_their_domains():
    # An eigendecomposition formula is only right on normal input; on the
    # Jordan block I + J/2 it silently misses scipy's log (by 0.5) and exp.
    # So exp takes skew-Hermitian input only, and log unitary input only.
    rng = np.random.default_rng(44)
    general = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError, match="skew-Hermitian"):
        matrix_exp(general)
    jordan = np.eye(3, dtype=complex) + 0.5 * np.eye(3, k=1)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        matrix_exp(jordan)
    with pytest.raises(ValueError, match="unitary"):
        matrix_log_near_identity(jordan)


def test_log_of_the_identity_is_zero():
    log = matrix_log_near_identity(np.eye(4, dtype=complex))
    assert np.max(np.abs(log)) == 0.0


def test_log_of_a_scalar_rotation_is_the_rotation_angle():
    for theta in (0.3, -0.7, 0.8):
        m = cmath.exp(1j * theta) * np.eye(5, dtype=complex)
        log = matrix_log_near_identity(m)
        assert np.max(np.abs(log - 1j * theta * np.eye(5))) < 1e-13
        assert abs(float(np.imag(np.trace(log))) - 5 * theta) < 1e-12


def test_log_is_exact_near_the_edge_of_the_ball():
    # Distance 2 sin(1/2) = 0.959: a truncated series would need far more
    # terms here than near the identity.
    m = cmath.exp(1j) * np.eye(3, dtype=complex)
    log = matrix_log_near_identity(m)
    assert np.max(np.abs(log - 1j * np.eye(3))) < 1e-13


def test_log_round_trips_through_exp():
    rng = np.random.default_rng(43)
    for radius in (0.1, 0.5, 0.75):
        for _ in range(10):
            u = random_unitary_near_identity(rng, 6, radius)
            log = matrix_log_near_identity(u)
            assert operator_norm(matrix_exp(log) - u) < 1e-11
            # The log of a unitary is skew-adjoint.
            assert np.max(np.abs(log + log.conj().T)) < 1e-10


def test_log_rejects_matrices_a_unit_away_from_identity():
    with pytest.raises(TooFarFromIdentity):
        matrix_log_near_identity(-np.eye(3, dtype=complex))
    with pytest.raises(TooFarFromIdentity):
        matrix_log_near_identity(2.0 * np.eye(3, dtype=complex))


# ----------------------------------------------------------------------
# the winding pairing


def test_winding_against_the_lattice_cocycle_is_minus_one():
    cycle = voiculescu_cycle()
    for n in (16, 32, 64):
        family = rho_family(z2_skinny(), n, cycle.support(Z2))
        result = winding_pairing(family, cycle, Z2)
        assert result.cycle
        assert result.rounded == -1
        assert abs(result.raw + 1) < 1e-9
        assert result.residual < 1e-6


def test_winding_equals_minus_the_cocycle_pairing_for_scaled_cocycles():
    for k in (1, 2, -3):
        sigma = z2_skinny().scale(k)
        cycle = voiculescu_cycle()
        family = rho_family(sigma, 64, cycle.support(Z2))
        result = winding_pairing(family, cycle, Z2)
        assert result.rounded == -pair_cocycle_cycle(sigma, cycle) == -k


def test_winding_of_a_genuine_representation_is_zero():
    rep = character_representation([[0.31, 0.7], [0.11, 0.59], [0.41, 0.13]])
    cycle = voiculescu_cycle()
    family = {g: rep(g) for g in cycle.support(Z2)}
    result = winding_pairing(family, cycle, Z2)
    assert result.rounded == 0
    assert abs(result.raw) < 1e-12


def test_winding_withholds_the_integer_for_non_cycles():
    chain = Chain2.build([(1, (1, 0), (0, 1))])
    family = rho_family(z2_skinny(), 32, chain.support(Z2))
    result = winding_pairing(family, chain, Z2)
    assert not result.cycle
    assert result.rounded is None
    assert math.isfinite(result.raw)


def test_winding_rejects_log_arguments_on_the_unit_sphere():
    # At n = 3 the triple products sit at distance |exp(2 pi i/3) - 1| > 1.
    cycle = voiculescu_cycle()
    family = rho_family(z2_skinny(), 3, cycle.support(Z2))
    with pytest.raises(TermOutOfRange) as info:
        winding_pairing(family, cycle, Z2)
    assert info.value.term_index == 0


def test_winding_accepts_callable_families():
    rep = character_representation([[0.2, 0.1]])
    result = winding_pairing(rep, voiculescu_cycle(), Z2)
    assert result.rounded == 0


def test_the_eigenvalue_distance_is_the_operator_norm(monkeypatch):
    # A unitary word W has ||W - I|| = max |l_j - 1|: checked against the
    # SVD norm on the phase-shift words at each size, inside and outside
    # the ball, and on unitaries that are not scalars.  The pairing itself
    # makes no operator_norm (SVD) call.
    calls = []

    def counted(matrix):
        calls.append(np.shape(matrix))
        return operator_norm(matrix)

    monkeypatch.setattr(obstruction, "operator_norm", counted)
    monkeypatch.setattr(representation, "operator_norm", counted)
    cycle = voiculescu_cycle()
    words = []
    for n in (3, 7, 64, 1023):
        family = rho_family(z2_skinny(), n, cycle.support(Z2))
        if n == 3:
            with pytest.raises(TermOutOfRange):
                winding_pairing(family, cycle, Z2)
        else:
            assert winding_pairing(family, cycle, Z2).rounded == -1
        for _, a, b in cycle.terms:
            ab = Z2.multiply(a, b)
            words.append(family[ab] @ family[b].conj().T @ family[a].conj().T)
    assert calls == []
    rng = np.random.default_rng(45)
    words += [random_unitary_near_identity(rng, dim, 0.9) for dim in (3, 7, 64)]
    for word in words:
        _, distance = obstruction._unitary_spectrum(word)
        eye = np.eye(word.shape[0], dtype=complex)
        assert abs(distance - operator_norm(word - eye)) < 1e-12


def test_winding_refuses_a_family_that_is_not_unitary():
    # A Jordan block's eigenvalues are all 1, but it is no unitary, so its
    # distance to I cannot be read off them.
    cycle = voiculescu_cycle()
    family = {g: np.eye(3, dtype=complex) for g in cycle.support(Z2)}
    family[(1, 1)] = np.eye(3, dtype=complex) + 0.5 * np.eye(3, k=1)
    with pytest.raises(ValueError, match="expected a unitary matrix"):
        winding_pairing(family, cycle, Z2)
    scaled = {g: 1.01 * m for g, m in rho_family(z2_skinny(), 16, cycle.support(Z2)).items()}
    with pytest.raises(ValueError, match="expected a unitary matrix"):
        winding_pairing(scaled, cycle, Z2)


# ----------------------------------------------------------------------
# certificates


def test_certificate_for_the_lattice_cocycle():
    report = certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), [16, 32])
    assert report.sigma_pairing == 1
    assert [run.n for run in report.runs] == [16, 32]
    assert all(run.winding == -1 for run in report.runs)
    # The terms' summed words have residues -1 and 0, so the margin
    # n - 6*max|centred(-sigma(a, b))| is n - 6.
    assert [run.margin for run in report.runs] == [10, 26]
    assert "1/24" in report.statement
    doc = report.to_json()
    json.loads(json.dumps(doc))
    # The derived fields are written from the pairing and the windings.
    assert doc["expected_winding"] == -1
    assert doc["distance_bound"] == PERTURBATION_RADIUS
    assert doc["statement"] == report.statement
    assert doc["sign_convention"] == SIGN_CONVENTION
    assert [(r["path"], r["winding"], r["rounded"], r["margin"]) for r in doc["runs"]] == [
        ("exact", "-1", -1, 10),
        ("exact", "-1", -1, 26),
    ]
    assert [r["raw"] for r in doc["runs"]] == [-1.0, -1.0]
    assert isinstance(doc["runs"][0]["raw"], float)
    # The first term's word is the scalar residue -1, the second's is 0.
    assert [run.terms for run in report.runs] == [(-1, 0), (-1, 0)]
    assert [r["terms"] for r in doc["runs"]] == [["-1", "0"], ["-1", "0"]]
    assert doc["version"] == nilstab.__version__
    assert "tolerances" not in doc
    assert "seed" not in doc


def test_certificate_for_the_promoted_heisenberg_cocycle():
    # Even n would share a factor with the coefficient denominator 2, so
    # the certificate runs on odd sizes.
    report = certify_nonperturbability(
        H3, heisenberg_skinny(), heisenberg_c1(), [17, 33]
    )
    assert report.sigma_pairing == 1
    assert all(run.winding == -1 for run in report.runs)


def _dense_outcome(group, sigma, chain, n):
    try:
        result = winding_pairing(rho_family(sigma, n, chain.support(group)), chain, group)
    except TermOutOfRange as exc:
        return ("out of range", exc.term_index), None
    return result.rounded, result.raw


def _exact_outcome(group, sigma, chain, n):
    # A run that the certificate refuses by PairingMismatch is read from
    # its runs directly, so that its winding is compared too.
    try:
        run = certify_nonperturbability(group, sigma, chain, [n]).runs[0]
    except TermOutOfRange as exc:
        return ("out of range", exc.term_index), None
    except PairingMismatch:
        (run,) = exact._exact_runs(sigma, chain, [n])
    return run.winding, float(run.winding)


def non_commuting_cycle(b2: int) -> Chain2:
    """heisenberg_c1 plus the boundary of [(1, 0, 0)|(0, b2, 0)|(0, 0, 1)].

    A cycle pairing 1 with heisenberg_skinny whose added terms multiply
    elements that do not commute.
    """
    triple = [(1, (1, 0, 0), (0, b2, 0), (0, 0, 1))]
    return Chain2.build([*heisenberg_c1().terms, *boundary3(H3, triple).terms])


ODD_TO_129 = tuple(range(1, 130, 2))


@pytest.mark.parametrize(
    "group, make_sigma, make_cycle, sizes",
    [
        (Z2, z2_skinny, voiculescu_cycle, (17, 33, 65, 257, 1023)),
        (H3, heisenberg_skinny, heisenberg_c1, (17, 33, 65, 257)),
        *(pytest.param(H3, heisenberg_skinny, lambda b2=b2: non_commuting_cycle(b2),
                       ODD_TO_129, id=f"b2={b2}")
          for b2 in (1, 2, 17)),
    ],
)
def test_exact_certificate_agrees_with_the_dense_pairing(
    group, make_sigma, make_cycle, sizes
):
    # Everything is checked twice: the exact residue pairing against the
    # dense series-log pairing, for the builtin and scaled cocycles, and
    # for cycles with non-commuting terms at every odd n up to 129.  For
    # k = -3 at n = 17 the first term's word has residue 3 and 6 * 3 > 17,
    # so both paths must refuse that term.  Where n divides k every word
    # is I, so a size inside the ball winds to 0 there and to -k elsewhere.
    chain = make_cycle()
    for k in (1, 2, -3):
        sigma = make_sigma().scale(k)
        for n in sizes if k == 1 else sizes[:3]:
            exact_rounded, exact_raw = _exact_outcome(group, sigma, chain, n)
            dense_rounded, dense_raw = _dense_outcome(group, sigma, chain, n)
            assert exact_rounded == dense_rounded, (k, n)
            if exact_raw is not None:
                assert exact_rounded == (0 if k % n == 0 else -k), (k, n)
                assert abs(exact_raw - dense_raw) < 1e-9


def test_both_paths_refuse_a_term_outside_the_convergence_ball():
    # At n = 3 the word rho(ab) rho(b)* rho(a)* of the first term has
    # residue -1, and 6 * 1 >= 3: |exp(2 pi i/3) - 1| > 1.
    chain = voiculescu_cycle()
    assert _exact_outcome(Z2, z2_skinny(), chain, 3)[0] == ("out of range", 0)
    assert _dense_outcome(Z2, z2_skinny(), chain, 3)[0] == ("out of range", 0)
    with pytest.raises(TermOutOfRange, match="term 0"):
        certify_nonperturbability(Z2, z2_skinny(), chain, [3])


def _hirsch4():
    ext = central_extension(H3, heisenberg_skinny())
    return ext.total, promoted_cocycle(ext), central_commutator_cycle(ext, 1)


CERTIFIED = {
    "lattice:2": lambda: (Z2, z2_skinny(), voiculescu_cycle()),
    "heisenberg3": lambda: (H3, heisenberg_skinny(), heisenberg_c1()),
    "hirsch4": _hirsch4,
}


def _runs_or_error(certify, group, sigma, chain, n_list):
    try:
        return certify(group, sigma, chain, n_list)
    except (NilstabError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "term_index", None)


def _batched_runs(group, sigma, chain, n_list):
    report = certify_nonperturbability(group, sigma, chain, n_list)
    assert all(sum(run.terms) == run.winding for run in report.runs)
    return list(report.runs)


@pytest.mark.parametrize(
    "name, n_list",
    [
        # Unsorted, with duplicates, small sizes around one past 2^16.
        ("lattice:2", [33, 17, 33, 2**16 + 1, 16, 17]),
        ("heisenberg3", [65, 17, 2**16 + 1, 17, 33]),
        # Sizes coprime to the denominator 6.
        ("hirsch4", [35, 25, 2**16 + 1, 25, 65]),
    ],
)
def test_batched_certificate_matches_the_size_by_size_oracle(name, n_list):
    # For k = -3 on lattice:2 and heisenberg3 a word at n = 17 has residue
    # +-3 and 6 * 3 > 17, so the list fails by TermOutOfRange at its first
    # 17, after a good size.
    group, sigma, chain = CERTIFIED[name]()
    for k in (1, 2, -3):
        scaled = sigma.scale(k)
        batched = _runs_or_error(_batched_runs, group, scaled, chain, n_list)
        oracle = _runs_or_error(certificate_runs_by_words, group, scaled, chain, n_list)
        assert batched == oracle, (name, k)
        assert isinstance(batched, list) or batched[0] is TermOutOfRange


def test_batched_certificate_raises_the_oracles_first_error():
    # Both refuse a polynomial that fails its proof before any size:
    # x2*y1/2 is a cocycle whose row of (1, 1) is 1/2 at j = 1, though
    # sigma((0, 2), (1, 1)) = 1 and sigma((1, 1), (0, 2)) = 0 pair to 1.
    half = PolyCocycle(Z2, MultiPoly(xy_variables(2, 1), {(0, 1, 1): Fraction(1, 2)}))
    odd_row = Chain2.build([(1, (0, 2), (1, 1)), (-1, (1, 1), (0, 2))])
    voiculescu = voiculescu_cycle()
    # x2*(y1 + y1*(y1 - 1)/4) pairs to 1 with the Voiculescu cycle and is
    # integral at j = 0, 1 but not at j = 2, and it is no cocycle.
    quarter = PolyCocycle(
        Z2,
        MultiPoly(
            xy_variables(2, 1),
            {(0, 1, 1): Fraction(3, 4), (0, 1, 2): Fraction(1, 4)},
        ),
    )
    cases = [
        (TermOutOfRange, Z2, z2_skinny(), voiculescu, [17, 3, 33]),
        (TermOutOfRange, H3, heisenberg_skinny().scale(-3), heisenberg_c1(), [33, 17, 16]),
        (NotCoprime, H3, heisenberg_skinny(), heisenberg_c1(), [17, 16, 33]),
        (InvalidCocycle, Z2, half, odd_row, [17, 33]),
        # 18 * x2*y1 has residue -18 = -1 mod 17, inside the ball: winding -1.
        (PairingMismatch, Z2, z2_skinny().scale(18), voiculescu, [109, 17, 3]),
        (InvalidCocycle, Z2, quarter, voiculescu, [1, 35]),
    ]
    for expected, group, sigma, chain, n_list in cases:
        batched = _runs_or_error(_batched_runs, group, sigma, chain, n_list)
        oracle = _runs_or_error(certificate_runs_by_words, group, sigma, chain, n_list)
        assert batched == oracle
        assert batched[0] is expected, batched
    assert "sigma((0, 1), (1, 0)) = 1/2" in _runs_or_error(_batched_runs, Z2, half, odd_row, [17])[1]
    # A size past int64 is no error: no residue kernel is called, and the
    # exact path winds to -1.
    runs = _batched_runs(Z2, z2_skinny(), voiculescu, [17, 3037000500])
    assert [(run.n, run.winding) for run in runs] == [(17, -1), (3037000500, -1)]


def _reversed_word_outside_the_ball(sigma, chain, n):
    """The first term whose reversed word rho(ab)rho(a)*rho(b)* leaves the ball, or None."""
    for index, (_, a, b) in enumerate(chain.terms):
        rho_a, rho_b = build_rho(sigma, n, a), build_rho(sigma, n, b)
        word = build_rho(sigma, n, H3.multiply(a, b)).compose(rho_a.adjoint())
        r = word.compose(rho_b.adjoint()).residues
        c = np.where(2 * r > n, r - n, r)
        worst = int(np.argmax(np.abs(c)))
        if 6 * abs(int(c[worst])) >= n:
            return (
                f"term {index}: rho(ab)rho(a)*rho(b)* has residue {int(c[worst])} "
                f"mod {n} at index {worst}"
            )
    return None


@pytest.mark.parametrize(
    "a, b, c, n, expected",
    [
        # The reversed word of term 4 is not constant mod 17.
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), 17,
         "term 4: rho(ab)rho(a)*rho(b)* has residue 8 mod 17 at index 7"),
        # Every reversed word is constant mod 17, inside the ball.
        ((1, 0, 0), (0, 17, 0), (0, 0, 1), 17, None),
        ((1, 0, 0), (0, 17, 0), (0, 0, 1), 19,
         "term 4: rho(ab)rho(a)*rho(b)* has residue -9 mod 19 at index 5"),
    ],
)
def test_certificate_of_non_commuting_terms_matches_both_oracles(a, b, c, n, expected):
    # heisenberg_c1 plus the boundary of [a|b|c] is a cycle whose terms
    # multiply non-commuting elements.  Their reversed words
    # rho(ab) rho(a)* rho(b)* may leave the log's ball (`expected`), but
    # the winding reads only the summed words rho(ab) rho(b)* rho(a)*, so
    # the certificate, the word-by-word oracle and the dense pairing all
    # wind to -1.
    chain = Chain2.build([*heisenberg_c1().terms, *boundary3(H3, [(1, a, b, c)]).terms])
    sigma = heisenberg_skinny()
    assert _reversed_word_outside_the_ball(sigma, chain, n) == expected
    runs = _batched_runs(H3, sigma, chain, [n])
    assert runs == certificate_runs_by_words(H3, sigma, chain, [n])
    (run,) = runs
    assert (run.winding, run.margin) == (-1, n - 6)
    dense_rounded, dense_raw = _dense_outcome(H3, sigma, chain, n)
    assert dense_rounded == -1 and abs(dense_raw + 1) < 1e-9


@pytest.mark.parametrize("b2", [1, 2, 17], ids=lambda b2: f"b2={b2}")
def test_non_commuting_terms_wind_term_by_term_at_every_odd_size(b2):
    # The winding sums each term's word rho(ab) rho(b)* rho(a)*, the
    # constant -sigma(a, b) even when a and b do not commute, so the cycle
    # winds to -1 at every odd n from 7 on, term by term as the word-by-word
    # oracle finds; the dense pairing agrees at n = 17.
    chain = non_commuting_cycle(b2)
    sigma = heisenberg_skinny()
    sizes = list(range(7, 400, 2))
    runs = _batched_runs(H3, sigma, chain, sizes)
    assert runs == certificate_runs_by_words(H3, sigma, chain, sizes)
    assert [run.winding for run in runs] == [-1] * len(sizes)
    assert {run.n: run.margin for run in runs}[17] == 11
    dense_rounded, dense_raw = _dense_outcome(H3, sigma, chain, 17)
    assert dense_rounded == -1 and abs(dense_raw + 1) < 1e-9


def test_certificate_proves_the_exponent_periodic_where_the_spot_check_passes():
    # The row of (0, 1) is t + 2*C(t, 3)/3, integral at t = 0..2 but 11/3
    # at t = 3.  At n = 2 the spot check p(x, 2) = p(x, 0) mod 2 passes,
    # but (p(x, t + 2) - p(x, t))/2 is 4/3 at t = 1.  The proof that makes
    # every admitted row periodic mod n fails here, at integrality and at
    # the cocycle identity, so the certificate, build_rho, defect and
    # chi_scalar_check all refuse the cocycle with the same error, at
    # every size.
    poly = MultiPoly(
        xy_variables(2, 1),
        {(0, 1, 1): Fraction(11, 9), (0, 1, 2): Fraction(-1, 3), (0, 1, 3): Fraction(1, 9)},
    )
    sigma = PolyCocycle(Z2, poly)
    chain = voiculescu_cycle()
    for n in (2, 5):
        with pytest.raises(InvalidCocycle) as info:
            certify_nonperturbability(Z2, sigma, chain, [n])
        assert "[FAIL] integrality (exact) -- sigma((0, 1), (3, 0)) = 11/3" in str(info.value)
        assert "[FAIL] cocycle identity (exact)" in str(info.value)
        for refused in (
            lambda: build_rho(sigma, n, (0, 1)),
            lambda: defect(sigma, n, (0, 1), (0, 0)),
            lambda: chi_scalar_check(sigma, n, (0, 1), (0, 0)),
        ):
            with pytest.raises(InvalidCocycle) as other:
                refused()
            assert str(other.value) == str(info.value)
        assert _runs_or_error(certificate_runs_by_words, Z2, sigma, chain, [n]) == (
            InvalidCocycle, str(info.value), None
        )


def test_certificates_of_the_builtin_cycles_need_no_kernel_call(monkeypatch):
    # Each summed word is the constant -sigma(a, b): no residue is computed
    # at any size, and the memory does not grow with n.
    big = 2**20 + 1
    for n_list in ([big], [17, 33, big]):
        tracemalloc.start()
        try:
            report = certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), n_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(run.n, run.winding) for run in report.runs] == [(n, -1) for n in n_list]
        assert peak < 1 << 20
    calls = record_kernel_calls(monkeypatch)
    for name, n_list in [
        ("lattice:2", [17, 33, big]),
        ("heisenberg3", list(range(17, 130, 2)) + [big]),
        ("hirsch4", [25, 35, big]),
    ]:
        certify_nonperturbability(*CERTIFIED[name](), n_list)
    # Nor do the builtin cocycles' sweeps: each gap is -sigma(x, y) mod n.
    rng = make_rng(7)
    for sigma, count in ((heisenberg_skinny(), 200), (z2_skinny(), 20)):
        m = sigma.group.hirsch
        pairs = [(sample_coords(rng, m, 3), sample_coords(rng, m, 3)) for _ in range(count)]
        _, by_size = representation.defects(sigma, [17, 1023, big], pairs)
        assert all(
            isinstance(row, representation.DefectResult)
            for results in by_size
            for row in results.values()
        )
    assert calls == []
    # Nor does a cycle whose terms' elements do not commute: its summed
    # words are the constants -sigma(a, b) too.
    certify_nonperturbability(H3, heisenberg_skinny(), non_commuting_cycle(17), [17, big])
    assert calls == []


def test_certificate_past_the_dense_cap():
    n = 2**20 + 1
    report = certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), [n])
    (run,) = report.runs
    assert (run.winding, run.margin) == (-1, n - 6)
    with pytest.raises(ValueError):
        rho_family(z2_skinny(), n, [(1, 0)])


def test_certificate_requires_a_cycle():
    chain = Chain2.build([(1, (1, 0), (0, 1))])
    with pytest.raises(NotACycle):
        certify_nonperturbability(Z2, z2_skinny(), chain, [16])


def test_certificate_requires_a_nonzero_pairing():
    with pytest.raises(TorsionPairing):
        certify_nonperturbability(Z2, zero_cocycle(Z2), voiculescu_cycle(), [16])
    with pytest.raises(TorsionPairing):
        certify_nonperturbability(
            Z2, z2_skinny().scale(0), voiculescu_cycle(), [16]
        )


@pytest.mark.parametrize(
    "wide, named",
    [(10**400, str(10**400)), (2**20000, "an integer of 20001 bits")],
    ids=["decimal", "bit-length"],
)
def test_certificate_requires_a_pairing_with_a_float_value(wide, named):
    # Every run's raw is float(-<sigma, c>); a pairing past the floats is
    # refused before any run, by its bit length past the int-to-str limit.
    chain = Chain2.build([(wide, (0, 1), (1, 0)), (-wide, (1, 0), (0, 1))])
    assert pair_cocycle_cycle(z2_skinny(), chain) == wide
    message = f"the pairing <sigma, c> = {named} is too large for a float winding"
    with pytest.raises(ValueError, match=f"^{message}$"):
        certify_nonperturbability(Z2, z2_skinny(), chain, [7])
    # A pairing of 2^1023 has a float value and is certified.
    chain = Chain2.build([(2**1023, (0, 1), (1, 0)), (-(2**1023), (1, 0), (0, 1))])
    report = certify_nonperturbability(Z2, z2_skinny(), chain, [7])
    assert [run.winding for run in report.runs] == [-(2**1023)]
    (run,) = report.to_json()["runs"]
    assert (run["rounded"], run["raw"]) == (-(2**1023), -(2.0**1023))


def test_certificate_requires_the_cocycles_group():
    # law_1 = x1 + y1 + x2*y2 is no group law, but it multiplies the
    # voiculescu cycle's elements as Z^2 does; only z2_skinny's own group,
    # whose proof admitted it, may carry the certificate.
    v = [MultiPoly.variable(xy_variables(2, 2), i) for i in range(4)]
    skew = MalcevGroup(2, (v[0] + v[2] + v[1] * v[3], v[1] + v[3]), name="skew")
    with pytest.raises(ValueError, match="different group"):
        certify_nonperturbability(skew, z2_skinny(), voiculescu_cycle(), [17])


def test_certificate_requires_at_least_one_size():
    with pytest.raises(ValueError):
        certify_nonperturbability(Z2, z2_skinny(), voiculescu_cycle(), [])


# ----------------------------------------------------------------------
# the perturbation null test


def test_small_perturbations_of_a_genuine_representation_pair_to_zero():
    rep = character_representation([[0.3, 0.7], [0.11, 0.59], [0.41, 0.13]])
    report = perturbation_null_test(
        Z2, rep, voiculescu_cycle(), epsilon=1 / 25, trials=25, seed=99
    )
    assert report.all_zero
    assert len(report.pairings) == 25
    assert max(p.residual for p in report.pairings) < 1e-6


def test_null_test_pairs_a_trial_with_nearly_tied_singular_values_to_zero():
    # A 64-dimensional trial whose perturbations have nearly tied top
    # singular values, which an iterative operator norm could not settle.
    exponents = np.random.default_rng(1).uniform(0.0, 1.0, size=(64, 2))
    rep = character_representation(exponents)
    report = perturbation_null_test(
        Z2, rep, voiculescu_cycle(), epsilon=1 / 25, trials=1, seed=2105841877
    )
    assert [p.rounded for p in report.pairings] == [0]


def clock_and_shift(x) -> np.ndarray:
    """V(x) = w^-x3 C^x1 S^x2, a genuine 7-dimensional representation of H3.

    C = diag(w^j) and S sends delta_j to delta_(j+1 mod 7), w = exp(2 pi i / 7).
    """
    w = cmath.exp(2j * math.pi / 7)
    clock = np.diag([w ** (x[0] * j) for j in range(7)])
    shift = np.roll(np.eye(7, dtype=complex), x[1], axis=0)
    return w ** -x[2] * clock @ shift


def test_null_test_pairs_a_non_commuting_representation_to_zero():
    # Against a cycle whose terms' elements do not commute, the reversed
    # word rho(ab) rho(a)* rho(b)* of V is V(ab) V(ba)*, far from I; only
    # the summed word, within 1/8 of I, enters the pairing.
    rng = make_rng(3)
    for _ in range(200):
        x, y = sample_coords(rng, 3, 5), sample_coords(rng, 3, 5)
        gap = clock_and_shift(H3.multiply(x, y)) - clock_and_shift(x) @ clock_and_shift(y)
        assert frobenius_norm(gap) < 1e-12
    chain = non_commuting_cycle(2)
    assert winding_pairing(clock_and_shift, chain, H3).rounded == 0
    report = perturbation_null_test(H3, clock_and_shift, chain, trials=25, seed=5)
    assert report.all_zero
    assert max(p.residual for p in report.pairings) < 1e-6


def test_null_test_is_deterministic_for_a_fixed_seed():
    rep = character_representation([[0.3, 0.7], [0.11, 0.59]])
    first = perturbation_null_test(Z2, rep, voiculescu_cycle(), trials=5, seed=7)
    second = perturbation_null_test(Z2, rep, voiculescu_cycle(), trials=5, seed=7)
    assert [p.raw for p in first.pairings] == [p.raw for p in second.pairings]


def test_null_test_rejects_radii_beyond_the_certified_radius():
    rep = character_representation([[0.3, 0.7]])
    with pytest.raises(ValueError):
        perturbation_null_test(Z2, rep, voiculescu_cycle(), epsilon=1 / 20)


@pytest.mark.parametrize("trials", [0, -3])
def test_null_test_refuses_fewer_than_one_trial(trials):
    # With no trial there is no pairing, so all_zero would hold vacuously.
    rep = character_representation([[0.3, 0.7]])
    with pytest.raises(ValueError, match="at least one trial"):
        perturbation_null_test(Z2, rep, voiculescu_cycle(), trials=trials)


def test_null_test_rejects_non_multiplicative_families():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    clock = np.diag([1.0, 1j])
    family = {(1, 0): flip, (0, 1): clock, (1, 1): np.eye(2, dtype=complex)}
    with pytest.raises(ValueError, match="multiplicative"):
        perturbation_null_test(Z2, family, voiculescu_cycle(), trials=2)


def test_null_test_requires_a_cycle():
    rep = character_representation([[0.3, 0.7]])
    chain = Chain2.build([(1, (1, 0), (0, 1))])
    with pytest.raises(NotACycle):
        perturbation_null_test(Z2, rep, chain, trials=2)


# ----------------------------------------------------------------------
# numerical edges


def test_scalar_log_trace_matches_the_cocycle_residue():
    # The log of rho(xy) rho(y)* rho(x)* is a scalar with imaginary trace
    # -2 pi sigma(x, y)/n per matrix dimension summed to -2 pi sigma(x, y).
    sigma = z2_skinny()
    n = 64
    x, y = (0, 1), (1, 0)
    family = rho_family(sigma, n, [x, y, Z2.multiply(x, y)])
    word = (
        family[Z2.multiply(x, y)]
        @ family[y].conj().T
        @ family[x].conj().T
    )
    log = matrix_log_near_identity(word)
    expected = -2 * math.pi * sigma(x, y)
    assert abs(float(np.imag(np.trace(log))) - expected) < 1e-10
    assert abs(frobenius_norm(log) - 2 * math.pi / math.sqrt(n)) < 1e-9
