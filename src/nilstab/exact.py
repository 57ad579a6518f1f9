"""The closed-form certificate and sweep, in Python ints and floats.

An admitted polynomial cocycle (`PolyCocycle.admit`) lives on a proved
group law, whose first coordinate is x_1 + y_1, and is integer valued; its
cocycle identity at z = (t, 0, ..., 0) reads

    p(x*y, t) - p(y, t) - p(x, t + y_1) = -sigma(x, y),

so the word rho_n(x*y) rho_n(y)* rho_n(x)* of its phase-shift family is
the scalar exp(-2 pi i sigma(x, y) / n) at every size n coprime to the
coefficient denominator (see `representation`).  The paper's two facts
then follow from sigma alone, with no matrix, no numpy, no group product
per pair and no shift check:

- `certify_nonperturbability` pairs the family with a cycle exactly: a
  word with residue r lies in the log's convergence ball exactly when
  6 |centred(r)| < n, and adds centred(r) / n per column to the winding.
  Only the second ordering of a term whose elements do not commute is
  not a scalar; it takes one residue kernel call per size, and that
  kernel (`representation._residues`) is the one numpy step left here
  and the only step with a size limit: n * n must fit in int64, and a
  size past it is refused naming the term.
- `defects` measures rho_n(x*y) - rho_n(x) rho_n(y), whose n entries all
  have the modulus 2 |sin(pi c / n)|, c the centred value of
  -sigma(x, y) mod n: its norms are sqrt(n) times and once that chord,
  once per size and distinct sigma(x, y).

A size is valid when n >= 1 and n is coprime to the cocycle's
coefficient denominator (`_size_error`); sizes are Python ints, so the
certificate holds at any such n, and the sweep at any n that a float
can hold (below about 2^1024), where its float norms end.

`representation` and `obstruction` re-export the public names defined
here, so both paths are reachable from either module.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from . import __version__
from .cohomology import Chain2, PolyCocycle, boundary2, pair_cocycle_cycle
from .errors import (
    BoundViolated,
    NilstabError,
    NotACycle,
    NotCoprime,
    PairingMismatch,
    TermOutOfRange,
    TorsionPairing,
)
from .groups import MalcevGroup
from .poly import _encode_json_int

# Families closer than this to a representation always pair to zero.
PERTURBATION_RADIUS = 1.0 / 24.0

# The two multiplication orderings of a term's log argument.
ORDERINGS = ("rho(ab)rho(b)*rho(a)*", "rho(ab)rho(a)*rho(b)*")

SIGN_CONVENTION = (
    "log arguments use rho(ab) rho(b)^-1 rho(a)^-1, under which the winding "
    "equals minus the cocycle/cycle pairing; the reversed ordering flips the sign"
)

# The sweep's bound check is relative: a norm passes when it is at most
# its bound times 1 + BOUND_SLACK.  The float chord and bound each carry a
# few ulp of rounding (under 4 ulp together at every size tested, from 17
# to 2^1023 + 1), and the true chord never exceeds the true bound, so
# 8 ulp of 1 admits rounding only, at any n.
BOUND_SLACK = 8 * sys.float_info.epsilon


# ----------------------------------------------------------------------
# sizes and rows


def _size_error(n: int, den: int) -> ValueError | NotCoprime | None:
    """Why size n is refused for coefficient denominator den, if it is.

    The one size rule: n >= 1 and gcd(n, den) = 1, with no upper bound.
    """
    if n < 1:
        return ValueError(f"matrix size must be positive, got {n}")
    if math.gcd(n, den) != 1:
        return NotCoprime(
            f"n = {n} shares a factor with the coefficient denominator {den}"
        )
    return None


@dataclass(frozen=True)
class _Rows:
    """Rows p(x, t) of the cocycle at many elements x, in Newton form.

    Row i is p(x, t) = sum_k differences[i][k] C(t, k) / den:
    `differences` holds one list per element of den * Delta^k p(x, 0) in
    Python ints, with den the common denominator of the cocycle's Newton
    coefficients.  An admitted cocycle's rows are integer valued, so den
    divides every difference (Polya).
    """

    den: int
    differences: list[list[int]]


def _rows(sigma: PolyCocycle, elements: Sequence[Sequence[int]]) -> _Rows:
    """The rows of the elements, each a sequence of m ints.

    Column k of the differences is the cocycle's Newton coefficient q_k
    at every element (`PolyCocycle.newton`), from one `scaled_columns`
    call, brought to the common denominator.
    """
    m = sigma.group.hirsch
    den, coefficients = sigma.newton
    columns = [*([g[k] for g in elements] for k in range(m)), None]
    sums = [q.scaled_columns(columns) for q in coefficients]
    scaled = [[v * (den // q_den) for v in s] for q_den, s in sums]
    return _Rows(den, [list(row) for row in zip(*scaled)])


# ----------------------------------------------------------------------
# the sweep: defects from the constant value -sigma(x, y) mod n


def _chord(value: int, n: int) -> float:
    """|1 - w^-value| = 2 |sin(pi c / n)| with w = exp(2 pi i / n).

    c is the centred value of -value mod n, in (-n/2, n/2], so the sine's
    argument pi * (c / n) lies in (-pi/2, pi/2] and keeps its precision
    at any n: c / n is one correctly rounded division of Python ints.
    """
    half = (n - 1) // 2
    centred = (half - value) % n - half
    return 2.0 * abs(math.sin(math.pi * (centred / n)))


class DefectResult(NamedTuple):
    """The defect of rho_n at a pair, with its bounds.

    It depends on n and the pair's sigma(x, y) only, so the pairs sharing
    that value at a size share one result; a pair is known by its position
    among the pairs that `defects` was given.
    """

    n: int
    sigma_xy: int
    frobenius: float
    frobenius_bound: float
    operator: float
    operator_bound: float


def defects(
    sigma: PolyCocycle,
    sizes: Sequence[int],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[list[DefectResult | NilstabError]]:
    """Measured multiplicativity defects of rho_n at every size and pair.

    Raises what `PolyCocycle.admit` raises (ValidationError for the group
    law, InvalidCocycle for sigma) before any size or pair is looked at.
    Returns one list per size, with one entry per pair: its DefectResult,
    or the error of that pair there.  A size sharing a factor with the
    coefficient denominator gives NotCoprime for every pair, carrying the
    pair's sigma(x, y).

    The pair-only work is sigma(x, y) for all pairs at once, on exact
    integer columns (`PolyCocycle.value_columns`); no group product is
    formed.  The admitted law adds first coordinates, so every entry of
    rho_n(x*y) - rho_n(x) rho_n(y) has the modulus `_chord(sigma(x, y), n)`
    (see the module docstring): the operator norm is that chord and the
    Frobenius norm is sqrt(n) times it; no residue or matrix is formed.
    Each size measures and checks each distinct value once, and the pairs
    that share it share its entry, so a size costs O(distinct sigma) plus
    one lookup per pair.  A measured norm above its proven bound by more
    than the relative `BOUND_SLACK` gives each such pair a BoundViolated
    naming it; that would falsify the construction, not the sample.  A
    coprime size too large for a float (from about 2^1024 on), where
    sqrt(n) has no value, raises ValueError naming it.
    """
    sigma.admit()
    group = sigma.group
    den = sigma.poly.denominator_lcm()
    xs = [group.element(x) for x, _ in pairs]
    ys = [group.element(y) for _, y in pairs]
    values = sigma.value_columns(
        [[g[k] for g in xs] for k in range(group.hirsch)], [[g[0] for g in ys]]
    )
    distinct = set(values)
    table = []
    for n in sizes:
        error = _size_error(n, den)
        if isinstance(error, NotCoprime):
            shared = {v: NotCoprime(str(error), sigma_xy=v) for v in distinct}
        elif error is not None:
            raise error
        else:
            try:
                root = math.sqrt(n)
            except OverflowError:
                raise ValueError(f"matrix size {n} is too large for float norms") from None
            shared = {}
            for v in distinct:
                chord = _chord(v, n)
                shared[v] = _checked(n, v, chord * root, chord)
        table.append([
            BoundViolated(f"{row} at ({x}, {y}), n={n}") if isinstance(row, str) else row
            for x, y, row in zip(xs, ys, map(shared.__getitem__, values))
        ])
    return table


def _checked(n: int, value: int, fro: float, op: float) -> DefectResult | str:
    """The measured norms at sigma(x, y) = value with their bounds, or a violation.

    The bounds are 2 pi |value| / sqrt(n) (Frobenius) and 2 pi |value| / n
    (operator).  A norm above its bound times 1 + BOUND_SLACK gives the
    violation's message instead, the Frobenius bound checked first;
    `defects` names each pair with that value in its own BoundViolated.
    """
    tau = 2 * math.pi * float(abs(value))
    fro_bound = tau / math.sqrt(n)
    op_bound = tau / n
    for label, norm, limit in (("Frobenius", fro, fro_bound), ("operator", op, op_bound)):
        if norm > limit * (1 + BOUND_SLACK):
            return f"{label} defect {norm} exceeds bound {limit}"
    return DefectResult(n, value, fro, fro_bound, op, op_bound)


def defect(sigma: PolyCocycle, n: int, x: Sequence[int], y: Sequence[int]) -> DefectResult:
    """Measured multiplicativity defect of rho_n at (x, y), with its bounds.

    The one-pair, one-size case of `defects`, raising what it raises; the
    pair's error (NotCoprime or BoundViolated) is raised, not returned.
    """
    ((row,),) = defects(sigma, [n], [(x, y)])
    if isinstance(row, NilstabError):
        raise row
    return row


# ----------------------------------------------------------------------
# certificates


class CertificateRun(NamedTuple):
    """The winding at one matrix size and how it was obtained.

    `winding` is exact and `raw` is its float value.  `margin` is the
    smallest n - 6 max_j |centred(r_j)| over the terms and both orderings:
    positive means every log argument is inside the convergence ball.
    `terms` holds each chain term's contribution coef * sum_j centred(r_j) / n
    (first ordering); they sum to `winding`.  In JSON, `n` and `margin`
    past int64 are decimal strings, as wide chain coefficients are.
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
                    "n": _encode_json_int(r.n),
                    "raw": r.raw,
                    "rounded": r.rounded,
                    "path": r.path,
                    "winding": str(r.winding),
                    "margin": _encode_json_int(r.margin),
                    "terms": [str(t) for t in r.terms],
                }
                for r in self.runs
            ],
            "distance_bound": self.distance_bound,
            "statement": self.statement,
            "sign_convention": self.sign_convention,
            "version": __version__,
        }


def _exact_runs(
    group: MalcevGroup, sigma: PolyCocycle, chain: Chain2, n_list: Sequence[int]
) -> Iterator[CertificateRun]:
    """The winding of rho_n against the chain at each n, in exact residue arithmetic.

    sigma must be admitted: its proved group law adds first coordinates,
    so each ordering of each term is a shift-0 phase-shift matrix with
    residues r_j, and no shift is checked.  Its distance to the identity is
    max_j 2 sin(pi |centred(r_j)| / n), which is below 1 exactly when
    6 |centred(r_j)| < n; otherwise TermOutOfRange names the term.  Inside
    the ball the series log is diagonal with entries
    2 pi i centred(r_j) / n, so the term adds coef * sum_j centred(r_j) / n.

    The words are read off the cocycle identity once, for all sizes.
    Ordering 1, rho(ab) rho(b)* rho(a)*, is the constant -sigma(a, b), so
    the term adds the integer coef * centred(-sigma(a, b)) and the winding
    is an integer.  Ordering 2 is the constant -sigma(b, a) when ab = ba.
    A constant costs O(1) int operations per size, with worst index 0.
    When ab != ba, ordering 2 is rho(ab) rho(ba)* times the scalar
    -sigma(b, a): its residue at column j + a_1 + b_1 is
    p(ab, j) - p(ba, j) - sigma(b, a), which one kernel call per size
    (`representation._residues`, numpy) evaluates from the difference of
    the two rows (`_rows`); it enters the ball test only.  Each term's
    products ab and ba are formed once, for all sizes: they pick the case
    and give its rows.  Runs come one size at a time, and each size raises
    its first failing check: the size's own (`_size_error`), then per term
    both orderings' ball tests, where a size past the kernel's int64 limit
    raises ValueError naming the term.
    """
    den = sigma.poly.denominator_lcm()
    products = [(group.multiply(a, b), group.multiply(b, a)) for _, a, b in chain.terms]
    swapped = [g for ab, ba in products if ab != ba for g in (ab, ba)]
    if swapped:
        rows = _rows(sigma, swapped)
        differences = iter(rows.differences)
    # Each term: index, coef, both orderings' constants, and ordering 2's
    # kernel word (its Newton differences and roll) when ab != ba.
    terms = []
    for index, ((coef, a, b), (ab, ba)) in enumerate(zip(chain.terms, products)):
        second, kernel = -sigma(b, a), None
        if ab != ba:
            word = [(p - q) // rows.den for p, q in zip(next(differences), next(differences))]
            word[0] += second
            kernel = (word, a[0] + b[0])
        terms.append((index, coef, -sigma(a, b), second, kernel))
    fraction = functools.cache(Fraction)  # the runs share one Fraction per value
    for n in n_list:
        error = _size_error(n, den)
        if error is not None:
            raise error
        # Centre in (-n/2, n/2]: (r + h) mod n - h with h = (n - 1) // 2.
        half = (n - 1) // 2
        widest = 0
        contributions = []
        for index, coef, first, second, kernel in terms:
            value = (first + half) % n - half
            if 6 * abs(value) >= n:
                raise _out_of_ball(index, 0, value, n, 0)
            if kernel is None:
                worst, other = 0, (second + half) % n - half
            else:
                try:
                    worst, other = _kernel_word(n, *kernel)
                except ValueError as exc:
                    raise ValueError(f"term {index}: {ORDERINGS[1]}: {exc}") from None
            if 6 * abs(other) >= n:
                raise _out_of_ball(index, 1, other, n, worst)
            widest = max(widest, abs(value), abs(other))
            contributions.append(coef * value)
        winding = sum(contributions)
        yield CertificateRun(
            n, float(winding), winding, "exact", fraction(winding), n - 6 * widest,
            tuple(map(fraction, contributions)),
        )


def _out_of_ball(index: int, ordering: int, value: int, n: int, worst: int) -> TermOutOfRange:
    """The error of a term whose word has centred residue value at index worst."""
    return TermOutOfRange(
        f"term {index}: {ORDERINGS[ordering]} has residue {value} mod {n} "
        f"at index {worst}, outside the log's convergence ball (6|r| < n)",
        term_index=index,
    )


def _kernel_word(n: int, differences: list[int], roll: int) -> tuple[int, int]:
    """(worst index, its centred residue) of a non-scalar word.

    The word's residue at column j + roll is the integer polynomial with
    these Newton differences at j, from one kernel call.  The kernel is
    looked up when called, so that a replaced `representation._residues`
    sees every call.
    """
    import numpy as np

    from . import representation

    half = (n - 1) // 2
    residues = representation._residues(n, [differences])
    centred = np.roll(residues[0], roll % n) + half
    centred %= n
    centred -= half
    worst = int(np.argmax(np.abs(centred)))
    return worst, int(centred[worst])


def certify_nonperturbability(
    group: MalcevGroup,
    sigma: PolyCocycle,
    chain: Chain2,
    n_list: Sequence[int],
) -> CertificateReport:
    """Winding certificate: the family rho_n pairs to -<sigma, c> for each n.

    Every pairing is exact, and each term's words are read once for all
    sizes (see `_exact_runs`); the runs keep the order and multiplicity of
    n_list.  Raises what `PolyCocycle.admit` raises (ValidationError for
    the group law, InvalidCocycle for sigma) before any size is looked at;
    then ValueError if group is not sigma's group or n_list is empty,
    NotACycle if the chain has a boundary, TorsionPairing if the cocycle
    pairs to zero (no obstruction to certify), and then the first failing
    size's error: NotCoprime, ValueError naming a term whose elements do
    not commute when n * n exceeds int64 (its kernel's limit),
    TermOutOfRange if a log argument leaves the convergence ball, or
    PairingMismatch if the winding disagrees with the prediction.  Every
    other size is valid, however large.
    """
    sigma.admit()
    if sigma.group is not group and sigma.group != group:
        raise ValueError("the cocycle lives on a different group")
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
