"""Winding-number pairing and non-perturbability certificates.

For a family rho of unitaries and a 2-chain c = sum(coef_j [a_j|b_j]) the
pairing is

    <rho, c> = (1 / 2 pi i) sum_j coef_j * Tr log(rho(a_j b_j) rho(b_j)^-1 rho(a_j)^-1),

with log the power series at the identity, which converges on the ball
||W - I|| < 1.  When c is a cycle the value is an exact integer for any
family whose log arguments stay inside that ball, and it vanishes for
every family within 1/24 (operator norm) of a genuine representation on
the support of c.  The phase-shift families of skinny cocycles pair to
minus the cocycle/cycle pairing, so a nonzero cocycle pairing certifies
that the family cannot be perturbed into a representation.

Two paths compute the pairing, chosen by what is paired:

- `certify_nonperturbability` pairs the phase-shift family of a
  PolyCocycle exactly, in Python ints.  It lives in `nilstab.exact`, which
  needs no numpy, and is re-exported here with its report types and
  constants.  The cocycle is admitted first (`PolyCocycle.admit`), so
  every word rho(ab) rho(b)* rho(a)* is the scalar with residue
  -sigma(a, b) mod n (see `representation`): it lies in the convergence
  ball exactly when 6 |centred(-sigma(a, b))| < n, its log is the scalar
  2 pi i centred(-sigma(a, b)) / n, and the term adds
  coef * centred(-sigma(a, b)) to the winding.  Each size costs O(1) per
  term, at any n >= 1 coprime to the coefficient denominator.
- `winding_pairing`, in this module on numpy, takes dense matrices:
  general families such as the perturbed representations of the null
  test, and the oracle that the exact path is tested against.  It refuses
  a log argument that is not unitary, reads its distance to the identity
  off its eigenvalues (a unitary minus I is normal), and each term adds
  the eigenvalues' arguments, since the trace of the series log is the
  sum of the eigenvalues' principal logs.  Every step is one LAPACK call,
  with no truncation budget.  `rho_family`, `matrix_exp`,
  `matrix_log_near_identity` and the null test are dense too.

Sign convention: the log argument uses rho(ab) rho(b)^-1 rho(a)^-1; the
reversed ordering rho(ab) rho(a)^-1 rho(b)^-1 flips the sign of the
pairing, and certificates record the convention.  Only the summed word
must stay inside the convergence ball.  A family U within 1/24 of a
representation V keeps every summed word within 1/8 of I along the path
V(g) exp(t log(V(g)* U(g))) from V to U, so the winding, an integer at
every point of the path, equals V's, which is 0 (Exel and Loring, Proc.
AMS 106, 1989).  The reversed word of V itself is V(ab) V(ba)^-1, far
from I when ab != ba, so it belongs to no part of that argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .cohomology import Chain2, PolyCocycle, is_cycle
from .errors import NotACycle, TermOutOfRange, TooFarFromIdentity
# The exact path's certificate, re-exported with its report types and
# constants; the dense pairing shares SUMMED_WORD and PERTURBATION_RADIUS.
from .exact import (
    PERTURBATION_RADIUS,
    SIGN_CONVENTION,
    SUMMED_WORD,
    CertificateReport,
    CertificateRun,
    certify_nonperturbability,
)
from .groups import Element, MalcevGroup
from .representation import _square, build_rho, frobenius_norm, operator_norm
from .validation import DEFAULT_SEED

PRECONDITION_MARGIN = 1e-8
RESIDUAL_TOL = 1e-6
# Largest Frobenius distance from the skew-Hermitian (matrix_exp) or the
# unitary (matrix_log_near_identity, winding_pairing) matrices that a dense
# input may have.
DOMAIN_TOL = 1e-8

UnitaryFamily = Union[Mapping[Element, np.ndarray], Callable[[Element], np.ndarray]]


def _require(gap: np.ndarray, domain: str) -> None:
    """Refuse an input whose departure `gap` from `domain` exceeds DOMAIN_TOL."""
    size = frobenius_norm(gap)
    if size > DOMAIN_TOL:
        raise ValueError(f"expected a {domain} matrix; it is {size:.3e} away")


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """exp(S) for a skew-Hermitian S, from the eigendecomposition of iS.

    iS is Hermitian, so LAPACK's eigh gives iS = V diag(w) V* with V
    unitary and exp(S) = V diag(exp(-i w)) V*.  ValueError if
    ||S + S*||_F exceeds DOMAIN_TOL.
    """
    matrix = _square(matrix)
    _require(matrix + matrix.conj().T, "skew-Hermitian")
    eigenvalues, vectors = np.linalg.eigh(1j * matrix)
    return (vectors * np.exp(-1j * eigenvalues)) @ vectors.conj().T


def matrix_log_near_identity(matrix: np.ndarray) -> np.ndarray:
    """The log of a unitary U with ||U - I|| < 1, from one eigendecomposition.

    U = V diag(l) V^-1 with every l_j in |z - 1| < 1, where the principal
    log agrees with the power series at the identity, so the result is
    V diag(log l) V^-1.  TooFarFromIdentity if ||U - I|| + 1e-8 >= 1;
    ValueError if ||U* U - I||_F exceeds DOMAIN_TOL, since off the
    unitaries (a Jordan block, say) U need not be diagonalizable.
    """
    matrix = _square(matrix)
    eye = np.eye(matrix.shape[0], dtype=complex)
    distance = operator_norm(matrix - eye)
    if distance + PRECONDITION_MARGIN >= 1.0:
        raise TooFarFromIdentity(
            f"||M - I|| = {distance:.6f} is not safely below 1"
        )
    _require(matrix.conj().T @ matrix - eye, "unitary")
    eigenvalues, vectors = np.linalg.eig(matrix)
    return (vectors * np.log(eigenvalues)) @ np.linalg.inv(vectors)


# ----------------------------------------------------------------------
# the pairing


@dataclass(frozen=True)
class PairingResult:
    """Raw winding value, its integer rounding (when trustworthy), and diagnostics.

    `rounded` is withheld (None) when the chain is not a cycle or when the
    raw value sits further than the residual tolerance from any integer.
    """

    raw: float
    rounded: int | None
    residual: float
    cycle: bool


def _unitary_spectrum(word: np.ndarray) -> tuple[np.ndarray, float]:
    """The eigenvalues l_j of a unitary W, and ||W - I|| = max_j |l_j - 1|.

    W - I is normal.  ValueError if ||W* W - I||_F exceeds DOMAIN_TOL.
    """
    _require(word.conj().T @ word - np.eye(word.shape[0], dtype=complex), "unitary")
    eigenvalues = np.linalg.eigvals(word)
    return eigenvalues, float(np.max(np.abs(eigenvalues - 1.0)))


def _family_lookup(rho: UnitaryFamily) -> Callable[[Element], np.ndarray]:
    if callable(rho):
        return rho
    return lambda g: rho[g]


def winding_pairing(
    rho: UnitaryFamily,
    chain: Chain2,
    group: MalcevGroup,
) -> PairingResult:
    """Evaluate the winding pairing of a unitary family against a 2-chain.

    `rho` is a mapping (or callable) defined on every a_j, b_j, and a_j*b_j
    of the chain.  Each term's log argument W = rho(ab) rho(b)* rho(a)*,
    the word the winding sums, must be unitary (ValueError if
    ||W* W - I||_F exceeds DOMAIN_TOL) and lie strictly inside the unit
    ball around the identity, else TermOutOfRange names the offending
    term.  Its distance to I is read off its eigenvalues l_j, which LAPACK
    computes once (`_unitary_spectrum`).  Inside the ball every l_j lies
    in |z - 1| < 1, so Im Tr log W = sum_j arg l_j.
    """
    lookup = _family_lookup(rho)
    total = 0.0
    for index, (coef, a, b) in enumerate(chain.terms):
        ab = group.multiply(a, b)
        m_ab = _square(lookup(ab))
        m_a = _square(lookup(a))
        m_b = _square(lookup(b))
        word = m_ab @ m_b.conj().T @ m_a.conj().T
        eigenvalues, distance = _unitary_spectrum(word)
        if distance + PRECONDITION_MARGIN >= 1.0:
            raise TermOutOfRange(
                f"term {index}: ||{SUMMED_WORD} - I|| = {distance:.6f} >= 1",
                term_index=index,
            )
        total += coef * float(np.sum(np.angle(eigenvalues)))
    raw = total / (2 * math.pi)
    nearest = round(raw)
    residual = abs(raw - nearest)
    closed = is_cycle(group, chain)
    rounded = nearest if (closed and residual < RESIDUAL_TOL) else None
    return PairingResult(raw=raw, rounded=rounded, residual=residual, cycle=closed)


def rho_family(
    sigma: PolyCocycle, n: int, elements: Sequence[Element]
) -> dict[Element, np.ndarray]:
    """Dense phase-shift unitaries for the listed elements."""
    return {g: build_rho(sigma, n, g).to_dense() for g in elements}


# ----------------------------------------------------------------------
# the null test: genuine representations absorb small perturbations


@dataclass(frozen=True)
class NullTestReport:
    epsilon: float
    trials: int
    seed: int
    pairings: tuple[PairingResult, ...]

    @property
    def all_zero(self) -> bool:
        return all(p.rounded == 0 for p in self.pairings)


def perturbation_null_test(
    group: MalcevGroup,
    rep: UnitaryFamily,
    chain: Chain2,
    epsilon: float = 1.0 / 25.0,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> NullTestReport:
    """Perturb a genuine representation and confirm the pairing stays zero.

    Each trial, of at least one, multiplies every needed unitary by exp(S)
    for an independent random skew-adjoint S with operator norm strictly
    below epsilon, which must not exceed 1/24.  The representation property
    is first checked on the support of the chain.
    """
    if not 0 <= epsilon <= PERTURBATION_RADIUS:
        raise ValueError(f"epsilon must lie in [0, 1/24], got {epsilon}")
    if trials < 1:
        raise ValueError(f"the null test needs at least one trial, got {trials}")
    if not is_cycle(group, chain):
        raise NotACycle("the null test needs a cycle")
    lookup = _family_lookup(rep)
    support = chain.support(group)
    base = {g: _square(lookup(g)) for g in support}
    for coef, a, b in chain.terms:
        ab = group.multiply(a, b)
        gap = frobenius_norm(base[ab] - base[a] @ base[b])
        if gap > 1e-10:
            raise ValueError(
                f"rep is not multiplicative on ({a}, {b}): defect {gap:.3e}"
            )
    dim = next(iter(base.values())).shape[0]
    rng = np.random.default_rng(seed)
    pairings = []
    for _ in range(trials):
        perturbed = {}
        for g, u in base.items():
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            skew = (raw - raw.conj().T) / 2
            size = operator_norm(skew)
            target = epsilon * rng.uniform(0.0, 0.999)
            if size > 0 and target > 0:
                skew *= target / size
            else:
                skew = np.zeros_like(skew)
            perturbed[g] = matrix_exp(skew) @ u
        pairings.append(winding_pairing(perturbed, chain, group))
    return NullTestReport(
        epsilon=epsilon, trials=trials, seed=seed, pairings=tuple(pairings)
    )
