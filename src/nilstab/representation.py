"""Asymptotic unitary representations by phase-shift matrices.

For a skinny cocycle with polynomial p(x_1..x_m, y1) and a matrix size n
coprime to every coefficient denominator, the element x acts on the
standard basis of C^n by

    rho_n(x) delta_j = exp(2 pi i p(x, j) / n) * delta_{j + x_1 mod n},

so each rho_n(x) is a cyclic shift with one root of unity per column.  A
PhaseShiftMatrix stores the integer residues p(x, j) mod n, not the
phases: products, adjoints and the scalar identity are exact residue
arithmetic at any n up to `max_exact_size`, and only `phases` and
`to_dense` (capped at MAX_DENSE) touch floating point.

Every row p(x, .) and every word is held in one form, its Newton
differences Delta^k p(x, 0) (`_Rows`, `_Words`): a polynomial is integer
valued exactly when they are integers, it is constant mod n exactly when
n divides those of order k >= 1, and its values are their sums
p(x, t) = sum_k Delta^k p(x, 0) C(t, k).  Those differences are the
values at x of the cocycle's Newton coefficients q_k, the fixed
polynomials with p(x, y1) = sum_k q_k(x) C(y1, k) (`PolyCocycle.newton`),
so `_rows` builds the rows of any number of elements at once, in exact
Python-int columns, by evaluating each q_k, and records each row's first
non-integral j.  rho_n(x) is well defined only when its exponent matters
only mod n, and one proof decides that for every caller:
`_periodicity_errors` turns a row's first non-integral j into its
NonIntegralValue or NotCoprime at a given n.  One private kernel,
`_residues`, computes the values mod n at j = 0..n-1 of a batch of integer
difference rows at one size, by one prefix sum mod n per degree in int64.
`build_rho` is its one-row case.  The word rho(x*y) rho(y)* rho(x)* needs
no residue table: its residues are the values mod n of one integer
polynomial w in the column, whose differences `_word` gets from those of
the three rows (for many words at once).  `chi_scalar_check`, the
certificate and `defects` prove their words constant that way, and run
the kernel only on the words that are not.

The multiplicativity defect rho_n(x*y) - rho_n(x) rho_n(y) is a scalar
chi_n(x, y)^{-1} = exp(-2 pi i p(x, y_1) / n) away from zero, giving the
proven bounds 2*pi*|sigma(x,y)|/sqrt(n) (Frobenius) and 2*pi*|sigma(x,y)|/n
(operator).  `defects` measures it for many pairs at once: x*y,
sigma(x, y), the rows of x, y and x*y and each pair's word
are computed for all pairs together in integer columns.  The defect's gap
at column j is w(j) mod n, so at each size a pair whose word is constant
mod n gets its norms in closed form from the one gap w(0) mod n
(`_constant_gap_norms`), with no residues; only the other pairs take the
kernel, on their word differences, in chunks of at most BATCH_ENTRIES
entries.
The bounds are compared as arrays.  `defect` is its one-pair case.  The
norms come from the residue gaps d_j: the difference of two phase-shift
matrices with equal shift has one entry per column, so its norms are
sqrt(sum |1 - w^d_j|^2) and max |1 - w^d_j| with w = exp(2 pi i / n).
The dense norms below (the Frobenius norm and the SVD operator norm)
serve general matrices and the tests' oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cohomology import PolyCocycle
from .errors import (
    BoundViolated,
    DimensionMismatch,
    NilstabError,
    NonIntegralValue,
    NotCoprime,
    NotScalar,
)
from .groups import Element

MAX_DENSE = 1024  # double precision keeps phases well below 1e-12 up to here
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class PhaseShiftMatrix:
    """A unitary acting by delta_j -> w^residues[j] * delta_{(j + shift) mod n}.

    Here w = exp(2 pi i / n).  The residues are int64 values reduced mod n,
    so every phase is exactly an n-th root of unity.
    """

    n: int
    shift: int
    residues: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix size must be positive, got {self.n}")
        residues = np.asarray(self.residues)
        if residues.shape != (self.n,):
            raise DimensionMismatch(
                f"expected {self.n} residues, got shape {residues.shape}"
            )
        if not np.issubdtype(residues.dtype, np.integer):
            raise ValueError(f"residues must be integers, got dtype {residues.dtype}")
        object.__setattr__(self, "residues", residues.astype(np.int64) % self.n)
        object.__setattr__(self, "shift", self.shift % self.n)

    @classmethod
    def identity(cls, n: int) -> "PhaseShiftMatrix":
        return cls(n, 0, np.zeros(n, dtype=np.int64))

    @property
    def phases(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.residues / self.n)

    def compose(self, other: "PhaseShiftMatrix") -> "PhaseShiftMatrix":
        """Matrix product self @ other (apply `other` first)."""
        if self.n != other.n:
            raise DimensionMismatch(f"sizes {self.n} and {other.n} differ")
        # Column j of the product picks up self's phase at j + other.shift.
        residues = other.residues + np.roll(self.residues, -other.shift)
        return PhaseShiftMatrix(self.n, self.shift + other.shift, residues)

    def adjoint(self) -> "PhaseShiftMatrix":
        return PhaseShiftMatrix(self.n, -self.shift, -np.roll(self.residues, self.shift))

    def twist(self, k: int) -> "PhaseShiftMatrix":
        """This matrix times the scalar exp(2 pi i k / n)."""
        return PhaseShiftMatrix(self.n, self.shift, self.residues + k % self.n)

    def to_dense(self) -> np.ndarray:
        if self.n > MAX_DENSE:
            raise ValueError(
                f"dense matrices are limited to size {MAX_DENSE}, got {self.n}"
            )
        dense = np.zeros((self.n, self.n), dtype=complex)
        cols = np.arange(self.n)
        dense[(cols + self.shift) % self.n, cols] = self.phases
        return dense

    def is_scalar(self) -> bool:
        return self.shift == 0 and bool(np.all(self.residues == self.residues[0]))


def max_exact_size(den: int = 1) -> int:
    """The largest n with den * n * (n + 1) <= INT64_MAX.

    `build_rho`, `defects` and the certificate accept exactly the sizes up
    to this one for a cocycle whose coefficient denominator is den.  The
    residue kernel itself needs only n * (n + 1) <= INT64_MAX, the bound at
    den = 1; the cap's factor den is kept as the sizes' policy.
    """
    return (math.isqrt(4 * (INT64_MAX // den) + 1) - 1) // 2


def build_rho(sigma: PolyCocycle, n: int, x: Sequence[int]) -> PhaseShiftMatrix:
    """The phase-shift unitary representing x at matrix size n.

    Raises the size's error (`_size_error`), or the row's NonIntegralValue
    or NotCoprime if its exponent is not well defined mod n
    (`_periodicity_errors`); otherwise one kernel call on the row's integer
    Newton differences gives the residues.
    """
    x = sigma.group.element(x)
    den = sigma.poly.denominator_lcm()
    rows = _rows(sigma, [x])
    _require_rows(n, den, rows)
    residues = _residues(n, rows.differences // rows.den)
    return PhaseShiftMatrix(n, x[0], residues[0])


def _size_error(n: int, den: int) -> ValueError | NotCoprime | None:
    """Why size n is refused for coefficient denominator den, if it is."""
    if n < 1:
        return ValueError(f"matrix size must be positive, got {n}")
    if math.gcd(n, den) != 1:
        return NotCoprime(
            f"n = {n} shares a factor with the coefficient denominator {den}"
        )
    if n > max_exact_size(den):
        return ValueError(
            f"matrix size {n} is too large for int64 residue arithmetic "
            f"with coefficient denominator {den}"
        )
    return None


@dataclass(frozen=True)
class _Rows:
    """Rows p(x, t) of the cocycle at many elements x, as columns in Newton form.

    Row i is p(x, t) = sum_k differences[i, k] C(t, k) / den at
    x = elements[i]: `differences` holds den * Delta^k p(x, 0), with den
    the common denominator of the cocycle's Newton coefficients.  Such a
    row is integer valued exactly when every Delta^k p(x, 0) is an integer
    (Polya), and its first non-integral j is the first k where one is not,
    since p(x, j) = sum_{k <= j} Delta^k p(x, 0) C(j, k).  `firsts` maps
    each row that is not integer valued to that j and its scale, the least
    denominator of p(x, t) in t.  `elements` (rows, m) and `differences`
    (rows, width) hold Python ints (dtype=object).
    """

    elements: np.ndarray
    den: int
    differences: np.ndarray
    firsts: dict[int, tuple[int, int]]


def _rows(sigma: PolyCocycle, elements) -> _Rows:
    """The rows of the elements: a list of Elements or an (rows, m) object array.

    Column k of the differences is the cocycle's Newton coefficient q_k
    at every element (`PolyCocycle.newton`), from one `scaled_columns`
    call, brought to the common denominator.
    """
    elements = np.asarray(elements, dtype=object).reshape(-1, sigma.group.hirsch)
    den, coefficients = sigma.newton
    columns = [*elements.T, None]
    sums = [q.scaled_columns(columns) for q in coefficients]
    differences = np.stack([s * (den // q_den) for q_den, s in sums], axis=1)
    firsts = {}
    if den != 1:
        fractional = (differences % den).astype(bool)
        for i in np.flatnonzero(fractional.any(axis=1)).tolist():
            row = sigma.poly.substitute(dict(enumerate(elements[i])))
            firsts[i] = int(fractional[i].argmax()), row.denominator_lcm()
    return _Rows(elements, den, differences, firsts)


def _residues(n: int, differences: np.ndarray) -> np.ndarray:
    """Values mod n at t = 0..n-1 of integer polynomials given by Newton differences.

    Row i is q(t) = sum_k differences[i, k] C(t, k), with integer
    differences.  From the top degree down, Delta^k q(j) is Delta^k q(0)
    plus the exclusive prefix sum of Delta^(k+1) q up to j, reduced mod n.
    The summands lie in [0, n), so every value stays below n * n, which
    int64 holds at every size up to `max_exact_size()`; a larger size
    raises.  Returns a contiguous int64 array of n columns.
    """
    error = _size_error(n, 1)
    if error is not None:
        raise error
    table = (differences % n).astype(np.int64)
    rows, width = table.shape
    # Delta^k q(j) of row i sits at flat[i * n + j + k], so each level's
    # prefix sum runs in place, one index before the level above: where it
    # writes Delta^k q(j) it reads Delta^(k+1) q(j - 1).  Delta^k q(0)
    # overwrites the previous row's Delta^(k+1) q(n - 1), which no exclusive
    # sum reads.
    flat = np.empty(rows * n + width - 1, dtype=np.int64)
    flat[width - 1 :].reshape(rows, n)[:] = table[:, -1:]
    for k in range(width - 2, -1, -1):
        level = flat[k : k + rows * n].reshape(rows, n)
        level[:, 0] = table[:, k]
        np.cumsum(level, axis=1, out=level)
        level %= n
    return flat[: rows * n].reshape(rows, n)


def _scaled(differences: Sequence[int], t: int) -> int:
    """sum_k differences[k] C(t, k) in Python ints: a row's den * p(x, t)."""
    return sum(d * math.comb(t, k) for k, d in enumerate(differences))


def _periodicity_errors(rows: _Rows, n: int) -> dict[int, NonIntegralValue | NotCoprime]:
    """The rows whose residues are not well defined mod n, each with its error.

    Only the rows in `rows.firsts` need a check: an integer-valued row
    times its scale is an integer polynomial, so it changes by a multiple
    of n from t to t + n, and since the scale divides the cocycle's
    coefficient denominator, which is coprime to n, p(x, t + n) - p(x, t)
    is a multiple of n as well.  A row failing at some j <= n gets
    NonIntegralValue.  For a row integral just up to j = n,
    (p(x, t + n) - p(x, t)) / n has degree < width, so t = 0..width-1
    prove or refute that it is integer valued, and the first failing t
    gives NotCoprime.  (Such a row always fails: at t = first - n the
    difference is not even an integer.)  Messages print fractions over the
    row's scale, and the errors come in row order.
    """
    errors: dict[int, NonIntegralValue | NotCoprime] = {}
    for i, (first, scale) in rows.firsts.items():
        differences = rows.differences[i].tolist()
        x = tuple(rows.elements[i])
        if first <= n:
            value = _scaled(differences, first) * scale // rows.den
            errors[i] = NonIntegralValue(
                f"cocycle value {value}/{scale} at ({x}, {first}) "
                f"is not an integer"
            )
            continue
        for t in range(len(differences)):
            step = _scaled(differences, t + n) - _scaled(differences, t)
            if step % (rows.den * n):
                errors[i] = NotCoprime(
                    f"exponent is not periodic mod {n}: (p(x, t + n) - p(x, t))/n = "
                    f"{step * scale // rows.den}/{scale * n} at ({x}, {t}) is not an integer"
                )
                break
    return errors


def _require_rows(n: int, den: int, rows: _Rows) -> None:
    """Raise the size's error, else the first row's `_periodicity_errors` entry."""
    error = _size_error(n, den) or next(
        iter(_periodicity_errors(rows, n).values()), None
    )
    if error is not None:
        raise error


@dataclass(frozen=True)
class _Words:
    """The diagonals of rho(x*y) rho(y)* rho(x)* as polynomials in the column.

    With every row integer valued and periodic mod n, word i's residue at
    column j is w(t) mod n at t = j - shifts[i] mod n, for the integer
    valued polynomial w(t) = p(x*y, t) - p(y, t) - p(x, t + y_1) (see
    `_word`); the defect rho(x*y) - rho(x) rho(y) has the gap w(j) at
    column j.  `differences` holds each word's integer Newton differences
    Delta^k w(0), so `values` (column 0) is each w(0), and `steps` holds
    the gcd of the differences for k >= 1.  Since
    w(t) = sum_k Delta^k w(0) C(t, k), word i is the constant w(0) mod n
    whenever n divides steps[i].  `shifts` holds each x_1 + y_1.  The
    columns hold Python ints (dtype=object).
    """

    differences: np.ndarray
    steps: np.ndarray
    shifts: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.differences[:, 0]

    def residues(self, n: int, i: int) -> np.ndarray:
        """Word i's n residues mod n in column order, from one kernel call."""
        residues = _residues(n, self.differences[i : i + 1])
        return np.roll(residues[0], self.shifts[i] % n)


def _word(rows: _Rows, xy, x, y) -> _Words:
    """The words rho(x*y) rho(y)* rho(x)* of the rows at index arrays xy, x, y.

    Exact, on Python-int columns, for all words at once.  The rows must be
    integer valued, so each has integer Newton differences
    d_g = differences // den.  Newton's forward formula
    Delta^k p(x, t + y_1) = sum_i C(y_1, i) Delta^(k+i) p(x, t) gives
    Delta^k w(0) = d_xy[k] - d_y[k] - sum_i C(y_1, i) d_x[k + i], with
    C(y_1, i) from the exact recurrence C(y_1, i) = C(y_1, i - 1) (y_1 - i + 1) / i.
    """
    xy, x, y = (np.asarray(i, dtype=np.intp) for i in (xy, x, y))
    d_xy, d_x, d_y = (rows.differences[i] // rows.den for i in (xy, x, y))
    y_1 = rows.elements[y, 0]
    width = d_x.shape[1]
    differences = d_xy - d_y
    binomial = np.ones(len(y_1), dtype=object)  # C(y_1, i)
    for i in range(width):
        differences[:, : width - i] -= binomial[:, None] * d_x[:, i:]
        binomial = binomial * (y_1 - i) // (i + 1)
    steps = np.zeros(len(y_1), dtype=object)
    for k in range(1, width):
        steps = np.gcd(steps, differences[:, k])
    return _Words(differences, steps, rows.elements[x, 0] + y_1)


# ----------------------------------------------------------------------
# norms


def frobenius_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix))


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a square matrix, from LAPACK's SVD."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {matrix.shape}")
    return float(np.linalg.norm(matrix, 2))


# ----------------------------------------------------------------------
# defects and the scalar identity


def difference_norms(a: PhaseShiftMatrix, b: PhaseShiftMatrix) -> tuple[float, float]:
    """Frobenius and operator norms of a - b, for equal sizes and shifts.

    a - b has one entry per column, w^a_j - w^b_j in row j + shift, so its
    singular values are |1 - w^d_j| = 2 |sin(pi d_j / n)| with d_j = a_j - b_j.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"sizes {a.n} and {b.n} differ")
    if a.shift != b.shift:
        raise ValueError(
            f"shifts {a.shift} and {b.shift} differ; the difference is not "
            f"a phase-shift matrix"
        )
    fro, op = _gap_norms(a.residues - b.residues, a.n)
    return float(fro), float(op)


def _chords(n: int) -> np.ndarray:
    """The n chords |1 - w^d| = 2 |sin(pi d / n)| for d = 0..n-1."""
    table = np.pi * np.arange(n)
    table /= n
    np.abs(np.sin(table, out=table), out=table)
    table *= 2.0
    return table


def _gap_norms(gaps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Norms sqrt(sum |1 - w^d_j|^2) and max |1 - w^d_j| over the last axis.

    A gap matters only mod n, so the n chords are computed once and
    gathered.  `np.take` wraps each gap into [0, n) by adding or
    subtracting n, which is cheap because the callers' gaps lie in
    (-n, n).  Works in place on one float array, since `defects` passes
    whole batches.
    """
    chords = np.take(_chords(n), gaps, mode="wrap")
    op = np.max(chords, axis=-1)
    chords *= chords
    return np.sqrt(np.sum(chords, axis=-1)), op


def _constant_gap_norms(gaps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_gap_norms` of rows of n equal gaps, one gap in [0, n) per row.

    The operator norm is the gap's chord.  The Frobenius norm sums n copies
    of its square as a broadcast view, which numpy sums in the same order
    as a stored row, so both floats equal `_gap_norms` on the full row
    (a test checks this bit for bit).  Only the distinct gaps are summed,
    so memory is O(n + distinct gaps).
    """
    distinct, inverse = np.unique(gaps, return_inverse=True)
    chords = _chords(n)[distinct]
    squares = np.broadcast_to((chords * chords)[:, None], (len(distinct), n))
    return np.sqrt(np.sum(squares, axis=-1))[inverse], chords[inverse]


class DefectResult(NamedTuple):
    n: int
    x: Element
    y: Element
    sigma_xy: int
    frobenius: float
    frobenius_bound: float
    operator: float
    operator_bound: float


BOUND_SLACK = 1e-9
# int64 entries per residue-kernel call (one word row of n per pair):
# `defects` splits the pairs whose word is not constant mod n into chunks
# that fit, so its memory does not grow with the sample count at large n
# (one pair per call from n = 524,289 on).
BATCH_ENTRIES = 1 << 20


def defects(
    sigma: PolyCocycle,
    sizes: Sequence[int],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[list[DefectResult | NilstabError]]:
    """Measured multiplicativity defects of rho_n at every size and pair.

    Returns one list per size, with one entry per pair: its DefectResult,
    or the NilstabError that pair's check raised there, in `defect`'s order
    (the rows of x*y, x and y, then sigma(x, y), then the bounds).  A size
    sharing a factor with the coefficient denominator gives NotCoprime
    throughout, or sigma(x, y)'s error where that fails.

    The pair-only work is done once, for all pairs at once, on exact
    integer columns: x*y (`MalcevGroup.multiply_columns`), sigma(x, y)
    (`PolyCocycle.value_columns`), the rows of x, y and x*y in Newton form
    with each row's first non-integral j (`_rows`), and the word w of each
    pair whose rows are integer valued (`_word`); a pair with a row that is
    not fails every size.  The gap of rho_n(x*y) - rho_n(x) rho_n(y) at column j is
    w(j) mod n, so the norms come from the gaps (see `difference_norms`)
    and no matrix is formed.  Each size proves its rows well defined mod n
    (`_periodicity_errors`) and checks that the law adds first coordinates
    mod n.  A pair whose word is constant mod n, which n dividing its
    Newton differences proves, needs no residues: its norms are those of
    the constant gap w(0) mod n (`_constant_gap_norms`).  Only the other
    pairs take the residue kernel, on their words' differences, as many at
    a time as fit in BATCH_ENTRIES.  The bounds are compared as arrays.  A
    measured norm above its proven bound plus a 1e-9 slack gives
    BoundViolated; that would falsify the construction, not the sample.
    """
    group = sigma.group
    m = group.hirsch
    den = sigma.poly.denominator_lcm()
    xs = [group.element(x) for x, _ in pairs]
    ys = [group.element(y) for _, y in pairs]
    x = np.array(xs, dtype=object).reshape(-1, m)
    y = np.array(ys, dtype=object).reshape(-1, m)
    xy = np.stack(group.multiply_columns(list(x.T), list(y.T)), axis=1)
    values, value_errors = sigma.value_columns(list(x.T), list(y.T))
    shifts = xy[:, 0] - x[:, 0] - y[:, 0]
    # Three rows per pair, in the order the checks run: x*y, x, y.
    rows = _rows(sigma, np.stack([xy, x, y], axis=1))
    failing = {row // 3 for row in rows.firsts}
    integral = np.array([i for i in range(len(pairs)) if i not in failing], dtype=np.intp)
    words = _word(rows, 3 * integral, 3 * integral + 1, 3 * integral + 2)
    table = []
    for n in sizes:
        error = _size_error(n, den)
        if isinstance(error, NotCoprime):
            table.append([value_errors.get(i, error) for i in range(len(pairs))])
            continue
        if error is not None:
            raise error
        failed: dict[int, NilstabError] = {}
        for row, row_error in _periodicity_errors(rows, n).items():
            failed.setdefault(row // 3, row_error)
        for i, value_error in value_errors.items():
            failed.setdefault(i, value_error)
        if np.any(shifts % n):
            raise ValueError(
                f"the group law does not add first coordinates mod {n}; the "
                f"defect is not a phase-shift matrix"
            )
        # Pairs with a failing row keep zero norms; their error replaces them.
        fro, op = np.zeros(len(pairs)), np.zeros(len(pairs))
        constant = words.steps % n == 0
        gaps = (words.values[constant] % n).astype(np.int64)
        at = integral[constant]
        fro[at], op[at] = _constant_gap_norms(gaps, n)
        rest = np.flatnonzero(~constant)
        step = max(1, BATCH_ENTRIES // n)
        for start in range(0, len(rest), step):
            chunk = rest[start : start + step]
            at = integral[chunk]
            fro[at], op[at] = _gap_norms(_residues(n, words.differences[chunk]), n)
        table.append(_checked(n, xs, ys, values, fro, op, failed))
    return table


def _checked(
    n: int,
    xs: Sequence[Element],
    ys: Sequence[Element],
    values: np.ndarray,
    fro: np.ndarray,
    op: np.ndarray,
    failed: dict[int, NilstabError],
) -> list[DefectResult | NilstabError]:
    """Each pair's measured norms with their bounds, or its error.

    `failed` holds the pairs whose rows or sigma(x, y) failed; a pair
    whose norm exceeds its bound gets BoundViolated, the Frobenius bound
    checked first.
    """
    tau = 2 * math.pi * np.abs(values).astype(float)
    fro_bound = tau / math.sqrt(n)
    op_bound = tau / n
    for label, measured, bound in (
        ("Frobenius", fro, fro_bound),
        ("operator", op, op_bound),
    ):
        for i in np.flatnonzero(measured > bound + BOUND_SLACK).tolist():
            failed.setdefault(
                i,
                BoundViolated(
                    f"{label} defect {float(measured[i])} exceeds bound "
                    f"{float(bound[i])} at ({xs[i]}, {ys[i]}), n={n}"
                ),
            )
    columns = (values, fro, fro_bound, op, op_bound)
    return [
        failed[i] if i in failed else DefectResult(n, x, y, *fields)
        for i, (x, y, *fields) in enumerate(zip(xs, ys, *(c.tolist() for c in columns)))
    ]


def defect(sigma: PolyCocycle, n: int, x: Sequence[int], y: Sequence[int]) -> DefectResult:
    """Measured multiplicativity defect of rho_n at (x, y), with its bounds.

    The one-pair, one-size case of `defects`; raises the pair's error
    (BoundViolated, NonIntegralValue or NotCoprime) instead of returning it.
    """
    ((row,),) = defects(sigma, [n], [(x, y)])
    if isinstance(row, NilstabError):
        raise row
    return row


@dataclass(frozen=True)
class Chi:
    """The unit scalar chi_n(x, y) with rho(x) rho(y) = chi * rho(x*y)."""

    value: complex


def chi_scalar_check(
    sigma: PolyCocycle,
    n: int,
    x: Sequence[int],
    y: Sequence[int],
) -> Chi:
    """Prove rho(x*y) rho(y)^-1 rho(x)^-1 = chi_n(x, y)^{-1} I and return chi.

    The word is a shift-0 phase-shift matrix, and every residue must equal
    -sigma(x, y) mod n exactly; NotScalar names the first one that does not.
    The rows of x*y, x and y are checked as the certificate checks its
    rows (`_periodicity_errors`), and the word is the polynomial of `_word`: a
    constant word is proved from its Newton differences, and any other
    word's residues take one kernel call.
    """
    group = sigma.group
    x = group.element(x)
    y = group.element(y)
    xy = group.multiply(x, y)
    rows = _rows(sigma, [xy, x, y])
    _require_rows(n, sigma.poly.denominator_lcm(), rows)
    shift = (xy[0] - x[0] - y[0]) % n
    if shift != 0:
        raise NotScalar(f"triple product shifts by {shift}")
    words = _word(rows, [0], [1], [2])
    residue = sigma(x, y) % n
    expected = -residue % n
    if words.steps[0] % n == 0:
        first, value = 0, words.values[0] % n
    else:
        # A periodic word that is constant on one period has every
        # difference divisible by n, so this one is off somewhere.
        residues = words.residues(n, 0)
        first = int(np.flatnonzero(residues != expected)[0])
        value = int(residues[first])
    if value != expected:
        raise NotScalar(
            f"diagonal entry {first} has residue {value} mod {n}, "
            f"expected {expected}",
            index=first,
        )
    return Chi(cmath.exp(2j * math.pi * residue / n))


# ----------------------------------------------------------------------
# the shift/clock pair


def voiculescu_pair(n: int) -> tuple[PhaseShiftMatrix, PhaseShiftMatrix]:
    """The cyclic shift u_n and the clock v_n = diag(exp(2 pi i (j+1)/n)).

    Their commutator u v u^-1 v^-1 is exactly exp(-2 pi i / n) times the
    identity, that is residue -1 mod n on the diagonal; this is checked
    exactly on every call.  Up to conjugating by the shift (a relabeling of
    the basis), u^a v^b equals the phase-shift unitary of the cocycle
    x2*y1 on the rank-2 lattice at (a, b).
    """
    u = PhaseShiftMatrix(n, 1, np.zeros(n, dtype=np.int64))
    v = PhaseShiftMatrix(n, 0, np.arange(1, n + 1, dtype=np.int64))
    word = u.compose(v).compose(u.adjoint()).compose(v.adjoint())
    if word.shift != 0 or np.any(word.residues != (n - 1) % n):
        raise AssertionError("shift/clock commutator identity failed")
    return u, v
