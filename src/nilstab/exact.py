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

- `certify_nonperturbability` pairs the family with a cycle exactly: the
  winding sums only the words rho(ab) rho(b)* rho(a)*, each the scalar
  with residue -sigma(a, b); such a word lies in the log's convergence
  ball exactly when 6 |centred(-sigma(a, b))| < n, and its term adds
  coef * centred(-sigma(a, b)) to the winding.  A size costs O(terms)
  int operations, for any cycle.
- `defects` measures rho_n(x*y) - rho_n(x) rho_n(y), whose n entries all
  have the modulus 2 |sin(pi c / n)|, c the centred value of
  -sigma(x, y) mod n: its norms are sqrt(n) times and once that chord,
  once per size and distinct sigma(x, y): a size costs O(distinct sigma)
  float operations.  As |c| <= |sigma(x, y)| and |sin t| <= |t|, they are
  at most 2 pi |sigma(x, y)| / sqrt(n) and 2 pi |sigma(x, y)| / n: a
  theorem at every pair and n, not a check.

Every step computes with the Python int that `_size` returns for a valid
size, whatever integer type the caller passed; so the certificate holds at
any valid n, and the sweep at any n that a float can hold (below about
2^1024).  No step here imports numpy or the dense modules.

A certificate stores only what it computed: the pairing <sigma, c> and,
per size, n, the winding, the margin and the terms' contributions.  Its
JSON writes the values derived from these (`CertificateReport.to_json`).

`representation` and `obstruction` re-export the public names defined
here, so both paths are reachable from either module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from . import __version__
from .cohomology import Chain2, PolyCocycle, boundary2, pair_cocycle_cycle
from .errors import (
    NotACycle,
    NotCoprime,
    PairingMismatch,
    TermOutOfRange,
    TorsionPairing,
)
from .groups import MalcevGroup
from .poly import _encode_json_int, _int_text

# Families closer than this to a representation always pair to zero.
PERTURBATION_RADIUS = 1.0 / 24.0

# The word whose log the winding sums, as error messages name it.
SUMMED_WORD = "rho(ab)rho(b)*rho(a)*"

SIGN_CONVENTION = (
    "log arguments use rho(ab) rho(b)^-1 rho(a)^-1, under which the winding "
    "equals minus the cocycle/cycle pairing; the reversed ordering flips the sign"
)

# ----------------------------------------------------------------------
# sizes


def _size(n: int, den: int) -> int:
    """n as a Python int (`operator.index`); raises unless n >= 1 and gcd(n, den) = 1.

    The only statement of the size rule: `defects`, `_exact_runs`, `build_rho`,
    `chi_scalar_check`, `PhaseShiftMatrix` and `cli._parse_n_list` call it.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    if math.gcd(n, den) != 1:
        raise NotCoprime(f"n = {n} shares a factor with the coefficient denominator {den}")
    return n


# ----------------------------------------------------------------------
# the sweep: defects from the constant value -sigma(x, y) mod n


def _centred(r: int, n: int) -> int:
    """The residue of r mod n in (-n/2, n/2]."""
    half = (n - 1) // 2
    return (r + half) % n - half


def _chord(value: int, n: int) -> float:
    """|1 - w^-value| = 2 |sin(pi c / n)| with w = exp(2 pi i / n).

    c is the centred value of -value mod n, in (-n/2, n/2], so the sine's
    argument pi * (c / n) lies in (-pi/2, pi/2] and keeps its precision
    at any n: c / n is one correctly rounded division of Python ints.
    """
    return 2.0 * abs(math.sin(math.pi * (_centred(-value, n) / n)))


class DefectResult(NamedTuple):
    """The defect of rho_n at the pairs with one value sigma(x, y), with its bounds.

    The bounds are theorems of the admitted cocycle: with c the centred
    value of -sigma(x, y) mod n, |c| <= |sigma(x, y)| and |sin t| <= |t|
    give operator = 2 |sin(pi c / n)| <= 2 pi |sigma(x, y)| / n, and the
    Frobenius norm and bound are sqrt(n) times these.  The result depends
    on n and sigma(x, y) only, so `defects` forms one per size and
    distinct value, and every pair with that value has it.
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
) -> tuple[list[int], list[dict[int, DefectResult] | NotCoprime]]:
    """Multiplicativity defects of rho_n at every size and pair, with their bounds.

    Raises what `PolyCocycle.admit` raises (ValidationError for the group
    law, InvalidCocycle for sigma), then ValueError if sizes is empty.
    Returns (values, by_size): values[j] is sigma(x, y) at the j-th pair;
    by_size[k] is the NotCoprime that `_size` raised at the k-th size, or
    a dict from each distinct value, in order of first occurrence, to its
    DefectResult, so the j-th pair's is by_size[k][values[j]].

    The pair-only work is one pass: each pair's x, then its y, passes
    `MalcevGroup.element` once (the first bad one raises its ValueError),
    and sigma(x, y) is evaluated once; no group product is formed.  The
    admitted law adds first coordinates, so every entry of
    rho_n(x*y) - rho_n(x) rho_n(y) has the modulus `_chord(sigma(x, y), n)`
    (module docstring): the operator norm is that chord and the Frobenius
    norm sqrt(n) times it; no residue or matrix is formed.  The bounds
    2 pi |sigma(x, y)| / n and sqrt(n) times it are proved (`DefectResult`),
    so they are computed, from the one correctly rounded division
    |sigma(x, y)| / n, and not checked.  A size costs O(distinct sigma),
    whatever the number of pairs.  A coprime size too large for a float
    (from about 2^1024 on), where sqrt(n) has no value, raises ValueError
    naming it.  So does a value whose bounds are not finite floats
    (|sigma(x, y)| / sqrt(n) from about 2^1021 on), naming it (by its bit
    length past the int-to-str limit), the first pair with it, and n.
    """
    sigma.admit()
    if not sizes:
        raise ValueError("need at least one matrix size")
    element = sigma.group.element
    evaluate = sigma.poly.evaluate_int
    den = sigma.poly.den
    values = [evaluate(element(x) + element(y)[:1]) for x, y in pairs]
    distinct = dict.fromkeys(values)
    by_size: list[dict[int, DefectResult] | NotCoprime] = []
    for n in sizes:
        try:
            n = _size(n, den)
        except NotCoprime as error:
            by_size.append(error)
            continue
        try:
            root = math.sqrt(n)
        except OverflowError:
            raise ValueError(f"matrix size {n} is too large for float norms") from None
        results = {}
        for v in distinct:
            try:
                op_bound = 2 * math.pi * (abs(v) / n)
            except OverflowError:  # |sigma| / n is past the floats
                op_bound = math.inf
            fro_bound = op_bound * root
            if fro_bound == math.inf:
                x, y = pairs[values.index(v)]
                raise ValueError(
                    f"sigma(x, y) = {_int_text(v)} at ({element(x)}, {element(y)}) is too "
                    f"large for float bounds at n = {n}"
                )
            chord = _chord(v, n)
            results[v] = DefectResult(n, v, chord * root, fro_bound, chord, op_bound)
        by_size.append(results)
    return values, by_size


def defect(sigma: PolyCocycle, n: int, x: Sequence[int], y: Sequence[int]) -> DefectResult:
    """Multiplicativity defect of rho_n at (x, y), with its bounds.

    The one-pair, one-size case of `defects`, raising what it raises; a
    size's NotCoprime is raised, not returned.
    """
    (value,), (results,) = defects(sigma, [n], [(x, y)])
    if isinstance(results, NotCoprime):
        raise results
    return results[value]


# ----------------------------------------------------------------------
# certificates


class CertificateRun(NamedTuple):
    """The winding at one matrix size and how it was obtained.

    `winding` is exact, an integer.  `margin` is n - 6 max_t
    |centred(-sigma(a_t, b_t))| over the terms t: positive means every
    summed word is inside the convergence ball.  `terms` holds each chain
    term's integer contribution coef * centred(-sigma(a, b)); they sum to
    `winding`.  In JSON, `n` and `margin` past int64 are
    decimal strings, as wide chain coefficients are.
    """

    n: int
    winding: int
    margin: int
    terms: tuple[int, ...]


@dataclass(frozen=True)
class CertificateReport:
    """A machine-checkable record that a family is far from representations.

    It stores the pairing s = <sigma, c> and one run per size; `to_json`
    also writes -s, PERTURBATION_RADIUS, SIGN_CONVENTION, the `statement`,
    and each run's `raw` (float winding), `rounded` (winding) and `path`.
    """

    group_name: str
    cocycle: dict
    cycle: list
    sigma_pairing: int
    runs: tuple[CertificateRun, ...]

    @property
    def statement(self) -> str:
        return (
            f"Any family of unitaries within {PERTURBATION_RADIUS:.6f} (= 1/24) of these "
            f"matrices in operator norm on the listed elements has winding pairing 0 "
            f"against the cycle; the measured pairing is {-self.sigma_pairing}, so for "
            f"every listed n the family sits at operator-norm distance at least 1/24, "
            f"hence Frobenius distance at least 1/24, from every genuine unitary "
            f"representation."
        )

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "cocycle": self.cocycle,
            "cycle": self.cycle,
            "sigma_pairing": self.sigma_pairing,
            "expected_winding": -self.sigma_pairing,
            "runs": [
                {
                    "n": _encode_json_int(r.n),
                    "raw": float(r.winding),
                    "rounded": r.winding,
                    "path": "exact",
                    "winding": str(r.winding),
                    "margin": _encode_json_int(r.margin),
                    "terms": [str(t) for t in r.terms],
                }
                for r in self.runs
            ],
            "distance_bound": PERTURBATION_RADIUS,
            "statement": self.statement,
            "sign_convention": SIGN_CONVENTION,
            "version": __version__,
        }


def _exact_runs(
    sigma: PolyCocycle, chain: Chain2, n_list: Sequence[int]
) -> Iterator[CertificateRun]:
    """The winding of rho_n against the chain at each n, in exact integer arithmetic.

    sigma must be admitted: by its cocycle identity (module docstring) the
    word rho(ab) rho(b)* rho(a)* of each term is the scalar with residue
    -sigma(a, b) mod n, read once for all sizes, with no group product.
    With c its centred residue, the word's distance to the identity is
    2 sin(pi |c| / n), below 1 exactly when 6 |c| < n; otherwise
    TermOutOfRange names the term.  Inside the ball the series log is the
    scalar 2 pi i c / n on n columns, so the term adds the integer coef * c
    and the winding is an integer.  Runs come one size at a time, and
    each size raises its first failing check: the size's own
    (`_size`), then the terms' ball tests in order.
    """
    den = sigma.poly.den
    words = [(index, coef, -sigma(a, b)) for index, (coef, a, b) in enumerate(chain.terms)]
    for n in n_list:
        n = _size(n, den)
        widest = 0
        contributions = []
        for index, coef, word in words:
            value = _centred(word, n)
            if 6 * abs(value) >= n:
                # Every column of the scalar word has this residue; index 0 is named.
                raise TermOutOfRange(
                    f"term {index}: {SUMMED_WORD} has residue {value} mod {n} "
                    f"at index 0, outside the log's convergence ball (6|r| < n)",
                    term_index=index,
                )
            widest = max(widest, abs(value))
            contributions.append(coef * value)
        winding = sum(contributions)
        yield CertificateRun(n, winding, n - 6 * widest, tuple(contributions))


def certify_nonperturbability(
    group: MalcevGroup,
    sigma: PolyCocycle,
    chain: Chain2,
    n_list: Sequence[int],
) -> CertificateReport:
    """Winding certificate: the family rho_n pairs to -<sigma, c> for each n.

    Every pairing is exact, and each term's summed word is read once for
    all sizes (see `_exact_runs`); the runs keep the order and
    multiplicity of n_list.  Raises what `PolyCocycle.admit` raises
    (ValidationError for the group law, InvalidCocycle for sigma) before
    any size is looked at; then ValueError if group is not sigma's group
    or n_list is empty, NotACycle if the chain has a boundary,
    TorsionPairing if the cocycle pairs to zero (no obstruction to
    certify), ValueError if the pairing has no float value for the runs'
    `raw`, and then the first failing size's error: NotCoprime,
    TermOutOfRange if a summed word leaves the convergence ball, or
    PairingMismatch if the winding disagrees with the prediction.  Every
    other size is valid, however large.
    """
    sigma.admit()
    if sigma.group is not group and sigma.group != group:
        raise ValueError("the cocycle lives on a different group")
    if not n_list:
        raise ValueError("need at least one matrix size")
    boundary = boundary2(group, chain)
    if boundary:
        raise NotACycle(f"chain has boundary terms {boundary}")
    s = pair_cocycle_cycle(sigma, chain)
    if s == 0:
        raise TorsionPairing(
            "the cocycle pairs to zero against this cycle; nothing to certify"
        )
    try:
        float(s)
    except OverflowError:
        raise ValueError(
            f"the pairing <sigma, c> = {_int_text(s)} is too large for a float winding"
        ) from None
    runs = []
    for run in _exact_runs(sigma, chain, n_list):
        if run.winding != -s:
            raise PairingMismatch(
                f"at n={run.n} the winding is {run.winding}, expected {-s}"
            )
        runs.append(run)
    return CertificateReport(
        group_name=group.name or f"group(hirsch={group.hirsch})",
        cocycle=sigma.to_document(),
        cycle=chain.to_json(),
        sigma_pairing=s,
        runs=tuple(runs),
    )
