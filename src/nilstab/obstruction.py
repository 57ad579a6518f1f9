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
  PolyCocycle exactly.  Each log argument is a shift-0 phase-shift matrix
  with residues r_j mod n, so it lies in the convergence ball exactly when
  6 |centred(r_j)| < n, its log is diagonal with entries
  2 pi i centred(r_j) / n, and the winding is the Fraction
  sum coef * sum_j centred(r_j) / n.  The cocycle is admitted first
  (`PolyCocycle.admit`), so every word rho(ab) rho(b)* rho(a)* is the
  scalar -sigma(a, b) mod n (see `representation`): a term whose a and b
  commute needs O(1) work per size and no residues.  Only the other
  ordering of a term whose a and b do not commute takes a residue kernel
  call.  This works at any n that `build_rho` accepts.
- `winding_pairing` takes dense matrices: general families such as the
  perturbed representations of the null test, and the oracle that the
  exact path is tested against.  It checks the ball with SVD norms, and
  each term adds the arguments of the log argument's eigenvalues, since
  the trace of the series log is the sum of the eigenvalues' principal
  logs.  Every step is one LAPACK call, with no truncation budget.

Sign convention: the log argument uses rho(ab) rho(b)^-1 rho(a)^-1; the
reversed ordering rho(ab) rho(a)^-1 rho(b)^-1 flips the sign of the
pairing.  Both orderings are required to stay inside the convergence
ball, and certificates record the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import __version__, representation
from .cohomology import (
    Chain2,
    PolyCocycle,
    boundary2,
    pair_cocycle_cycle,
)
from .errors import (
    DimensionMismatch,
    NotACycle,
    PairingMismatch,
    TermOutOfRange,
    TooFarFromIdentity,
    TorsionPairing,
)
from .groups import Element, MalcevGroup
from .representation import (
    _rows,
    _size_error,
    build_rho,
    frobenius_norm,
    operator_norm,
)
from .validation import DEFAULT_SEED

# Families closer than this to a representation always pair to zero.
PERTURBATION_RADIUS = 1.0 / 24.0

PRECONDITION_MARGIN = 1e-8
RESIDUAL_TOL = 1e-6
# Largest Frobenius distance from the skew-Hermitian (matrix_exp) or the
# unitary (matrix_log_near_identity) matrices that a dense input may have.
DOMAIN_TOL = 1e-8

# The two multiplication orderings of a term's log argument.
ORDERINGS = ("rho(ab)rho(b)*rho(a)*", "rho(ab)rho(a)*rho(b)*")

UnitaryFamily = Union[Mapping[Element, np.ndarray], Callable[[Element], np.ndarray]]


def _square(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {matrix.shape}")
    return matrix


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
    of the chain.  Each log argument, in both multiplication orderings,
    must lie strictly inside the unit ball around the identity, else
    TermOutOfRange names the offending term.  Inside the ball every
    eigenvalue l_j of the argument W lies in |z - 1| < 1, so
    Im Tr log W = sum_j arg l_j, with the eigenvalues from LAPACK.
    """
    lookup = _family_lookup(rho)
    total = 0.0
    for index, (coef, a, b) in enumerate(chain.terms):
        ab = group.multiply(a, b)
        m_ab = _square(lookup(ab))
        m_a = _square(lookup(a))
        m_b = _square(lookup(b))
        word = m_ab @ m_b.conj().T @ m_a.conj().T
        other = m_ab @ m_a.conj().T @ m_b.conj().T
        eye = np.eye(word.shape[0], dtype=complex)
        for ordering, label in zip((word, other), ORDERINGS):
            distance = operator_norm(ordering - eye)
            if distance + PRECONDITION_MARGIN >= 1.0:
                raise TermOutOfRange(
                    f"term {index}: ||{label} - I|| = {distance:.6f} >= 1",
                    term_index=index,
                )
        total += coef * float(np.sum(np.angle(np.linalg.eigvals(word))))
    raw = total / (2 * math.pi)
    nearest = round(raw)
    residual = abs(raw - nearest)
    closed = boundary2(group, chain).is_zero()
    rounded = nearest if (closed and residual < RESIDUAL_TOL) else None
    return PairingResult(raw=raw, rounded=rounded, residual=residual, cycle=closed)


def rho_family(
    sigma: PolyCocycle, n: int, elements: Sequence[Element]
) -> dict[Element, np.ndarray]:
    """Dense phase-shift unitaries for the listed elements."""
    return {g: build_rho(sigma, n, g).to_dense() for g in elements}


# ----------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateRun:
    """The winding at one matrix size and how it was obtained.

    `winding` is exact and `raw` is its float value.  `margin` is the
    smallest n - 6 max_j |centred(r_j)| over the terms and both orderings:
    positive means every log argument is inside the convergence ball.
    `terms` holds each chain term's contribution coef * sum_j centred(r_j) / n
    (first ordering); they sum to `winding`.
    """

    n: int
    raw: float
    rounded: int | None
    path: str
    winding: Fraction
    margin: int
    terms: tuple[Fraction, ...]


@dataclass(frozen=True)
class CertificateReport:
    """A machine-checkable record that a family is far from representations."""

    group_name: str
    cocycle: dict
    cycle: list
    sigma_pairing: int
    expected_winding: int
    runs: tuple[CertificateRun, ...]
    distance_bound: float
    statement: str
    sign_convention: str

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "cocycle": self.cocycle,
            "cycle": self.cycle,
            "sigma_pairing": self.sigma_pairing,
            "expected_winding": self.expected_winding,
            "runs": [
                {
                    "n": r.n,
                    "raw": r.raw,
                    "rounded": r.rounded,
                    "path": r.path,
                    "winding": str(r.winding),
                    "margin": r.margin,
                    "terms": [str(t) for t in r.terms],
                }
                for r in self.runs
            ],
            "distance_bound": self.distance_bound,
            "statement": self.statement,
            "sign_convention": self.sign_convention,
            "version": __version__,
        }


SIGN_CONVENTION = (
    "log arguments use rho(ab) rho(b)^-1 rho(a)^-1, under which the winding "
    "equals minus the cocycle/cycle pairing; the reversed ordering flips the sign"
)


def _exact_runs(
    group: MalcevGroup, sigma: PolyCocycle, chain: Chain2, n_list: Sequence[int]
) -> Iterator[CertificateRun]:
    """The winding of rho_n against the chain at each n, in exact residue arithmetic.

    sigma must be admitted.  Each ordering of each term is a shift-0
    phase-shift matrix with residues r_j.  Its distance to the identity is
    max_j 2 sin(pi |centred(r_j)| / n), which is below 1 exactly when
    6 |centred(r_j)| < n; otherwise TermOutOfRange names the term.  Inside
    the ball the series log is diagonal with entries
    2 pi i centred(r_j) / n, so the term adds coef * sum_j centred(r_j) / n.

    The words are read off the cocycle identity once, for all sizes.
    Ordering 1, rho(ab) rho(b)* rho(a)*, is the constant -sigma(a, b), and
    ordering 2 is the constant -sigma(b, a) when ab = ba.  A constant c
    costs O(1) per size: worst index 0, margin n - 6 |centred(c)| and sum
    n centred(c).  When ab != ba, ordering 2 is rho(ab) rho(ba)* times the
    scalar -sigma(b, a): its residue at column j + a_1 + b_1 is
    p(ab, j) - p(ba, j) - sigma(b, a), which one kernel call per size
    evaluates from the difference of the two rows (`representation._rows`).
    Runs come one size at a time, and each size raises its first failing
    check: the size's own (`_size_error`), then per term the shift and
    both orderings' ball tests.
    """
    den = sigma.poly.denominator_lcm()
    # Each term's two words: a constant, or (row of `kernel_words`, roll).
    terms, swapped, scalars = [], [], []
    for coef, a, b in chain.terms:
        ab, ba = group.multiply(a, b), group.multiply(b, a)
        second = -sigma(b, a)
        if ab != ba:
            swapped.append((ab, ba))
            scalars.append(second)
            second = (len(swapped) - 1, a[0] + b[0])
        terms.append((coef, ab[0] - a[0] - b[0], (-sigma(a, b), second)))
    if swapped:
        rows = _rows(sigma, swapped)  # the rows of ab and ba, alternating
        differences = rows.differences // rows.den
        kernel_words = differences[0::2] - differences[1::2]
        kernel_words[:, 0] += scalars
    for n in n_list:
        error = _size_error(n, den)
        if error is not None:
            raise error
        half = (n - 1) // 2
        margin = n
        sums = []
        for index, (coef, shift, words) in enumerate(terms):
            if shift % n:
                raise TermOutOfRange(
                    f"term {index}: {ORDERINGS[0]} shifts by {shift % n}",
                    term_index=index,
                )
            totals = []
            for word, label in zip(words, ORDERINGS):
                # Centre in (-n/2, n/2]: (r + h) mod n - h with h = (n - 1) // 2.
                if isinstance(word, int):
                    worst = 0
                    value = (word + half) % n - half
                    total = n * value
                else:
                    row, roll = word
                    residues = representation._residues(n, kernel_words[row : row + 1])
                    centred = np.roll(residues[0], roll % n) + half
                    centred %= n
                    centred -= half
                    worst = int(np.argmax(np.abs(centred)))
                    value = int(centred[worst])
                    total = int(centred.sum())
                term_margin = n - 6 * abs(value)
                if term_margin <= 0:
                    raise TermOutOfRange(
                        f"term {index}: {label} has residue {value} mod {n} "
                        f"at index {worst}, outside the log's convergence ball "
                        f"(6|r| < n)",
                        term_index=index,
                    )
                margin = min(margin, term_margin)
                totals.append(total)
            sums.append(coef * totals[0])
        winding = Fraction(sum(sums), n)
        yield CertificateRun(
            n=n,
            raw=float(winding),
            rounded=winding.numerator if winding.denominator == 1 else None,
            path="exact",
            winding=winding,
            margin=margin,
            terms=tuple(Fraction(total, n) for total in sums),
        )


def certify_nonperturbability(
    group: MalcevGroup,
    sigma: PolyCocycle,
    chain: Chain2,
    n_list: Sequence[int],
) -> CertificateReport:
    """Winding certificate: the family rho_n pairs to -<sigma, c> for each n.

    Every pairing is exact, and each term's words are read once for all
    sizes (see `_exact_runs`); the runs keep the order and multiplicity of
    n_list.  Raises InvalidCocycle unless sigma is admitted
    (`PolyCocycle.admit`), before any size is looked at; then ValueError
    for an empty n_list, NotACycle if the chain has a boundary,
    TorsionPairing if the cocycle pairs to zero (no obstruction to
    certify), and then the first failing size's error: NotCoprime, a size
    past `max_exact_size`, TermOutOfRange if a log argument leaves the
    convergence ball, or PairingMismatch if the winding disagrees with the
    prediction.
    """
    sigma.admit()
    if not n_list:
        raise ValueError("need at least one matrix size")
    boundary = boundary2(group, chain)
    if not boundary.is_zero():
        raise NotACycle(f"chain has boundary terms {boundary.terms}")
    s = pair_cocycle_cycle(sigma, chain)
    if s == 0:
        raise TorsionPairing(
            "the cocycle pairs to zero against this cycle; nothing to certify"
        )
    runs = []
    for run in _exact_runs(group, sigma, chain, n_list):
        if run.rounded != -s:
            raise PairingMismatch(
                f"at n={run.n} the winding is {run.winding}, expected {-s}"
            )
        runs.append(run)
    statement = (
        f"Any family of unitaries within {PERTURBATION_RADIUS:.6f} (= 1/24) of these "
        f"matrices in operator norm on the listed elements has winding pairing 0 "
        f"against the cycle; the measured pairing is {-s}, so for every listed n "
        f"the family sits at operator-norm distance at least 1/24, hence Frobenius "
        f"distance at least 1/24, from every genuine unitary representation."
    )
    return CertificateReport(
        group_name=group.name or f"group(hirsch={group.hirsch})",
        cocycle=sigma.to_document(),
        cycle=chain.to_json(),
        sigma_pairing=s,
        expected_winding=-s,
        runs=tuple(runs),
        distance_bound=PERTURBATION_RADIUS,
        statement=statement,
        sign_convention=SIGN_CONVENTION,
    )


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

    Each trial multiplies every needed unitary by exp(S) for an independent
    random skew-adjoint S with operator norm strictly below epsilon, which
    must not exceed 1/24.  The representation property is first checked on
    the support of the chain.
    """
    if not 0 <= epsilon <= PERTURBATION_RADIUS:
        raise ValueError(f"epsilon must lie in [0, 1/24], got {epsilon}")
    if not boundary2(group, chain).is_zero():
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
