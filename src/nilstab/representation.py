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

`build_rho`, `defects` and `chi_scalar_check` admit a cocycle only once
its proof passes (`PolyCocycle.admit`), and raise InvalidCocycle
otherwise.  An admitted cocycle is integer valued, and n is coprime to
its denominator, so every row p(x, .) is periodic mod n and rho_n(x) is
well defined.  Its cocycle identity at z = (t, 0, ..., 0) reads
p(x*y, t) - p(y, t) - p(x, t + y_1) = -sigma(x, y), so the word
rho(x*y) rho(y)* rho(x)* is the scalar exp(-2 pi i sigma(x, y) / n).

A row's residues come from its Newton differences Delta^k p(x, 0), which
are the values at x of the cocycle's Newton coefficients q_k, the fixed
polynomials with p(x, y1) = sum_k q_k(x) C(y1, k) (`PolyCocycle.newton`):
`_rows` evaluates them for any number of elements at once, in exact
Python-int columns.  One private kernel, `_residues`, computes the values
mod n at j = 0..n-1 of a batch of integer difference rows at one size, by
one prefix sum mod n per degree in int64.  `build_rho` is its one-row
case.

The multiplicativity defect rho_n(x*y) - rho_n(x) rho_n(y) is thus the
scalar chi_n(x, y)^{-1} - 1 times a unitary, giving the proven bounds
2*pi*|sigma(x,y)|/sqrt(n) (Frobenius) and 2*pi*|sigma(x,y)|/n
(operator).  `defects` measures it for many pairs at once from x*y and
sigma(x, y), computed in integer columns: each pair's gap is
-sigma(x, y) mod n in every column, so its norms come in closed form from
that one gap (`_constant_gap_norms`), with no residues.  The bounds are
compared as arrays.  `defect` is its one-pair case.  `chi_scalar_check`
does not use the identity: it forms the word from `build_rho` matrices
with `compose` and `adjoint` and proves every residue equal to
-sigma(x, y) mod n, a second proof of what `defects` assumes.  The norms
come from the residue gaps d_j: the difference of two phase-shift
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

    Raises InvalidCocycle unless sigma is admitted (`PolyCocycle.admit`),
    then the size's error (`_size_error`); otherwise one kernel call on
    the row's integer Newton differences gives the residues.
    """
    sigma.admit()
    x = sigma.group.element(x)
    error = _size_error(n, sigma.poly.denominator_lcm())
    if error is not None:
        raise error
    rows = _rows(sigma, [x])
    return PhaseShiftMatrix(n, x[0], _residues(n, rows.differences // rows.den)[0])


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

    Row i is p(x, t) = sum_k differences[i, k] C(t, k) / den:
    `differences` (rows, width) holds den * Delta^k p(x, 0) in Python ints
    (dtype=object), with den the common denominator of the cocycle's
    Newton coefficients.  An admitted cocycle's rows are integer valued,
    so den divides every difference (Polya).
    """

    den: int
    differences: np.ndarray


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
    return _Rows(den, np.stack([s * (den // q_den) for q_den, s in sums], axis=1))


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


def _chords(gaps: np.ndarray, n: int) -> np.ndarray:
    """The chords |1 - w^d| = 2 |sin(pi d / n)| of integer gaps d in [0, n).

    The same float operations in the same order at every d, so a chord
    does not depend on which other gaps it is computed with.
    """
    chords = np.pi * gaps
    chords /= n
    np.abs(np.sin(chords, out=chords), out=chords)
    chords *= 2.0
    return chords


def _gap_norms(gaps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Norms sqrt(sum |1 - w^d_j|^2) and max |1 - w^d_j| over the last axis.

    A gap matters only mod n, so the n chords are computed once and
    gathered.  `np.take` wraps each gap into [0, n) by adding or
    subtracting n, which is cheap because the callers' gaps lie in
    (-n, n).  Works in place on one float array.
    """
    chords = np.take(_chords(np.arange(n), n), gaps, mode="wrap")
    op = np.max(chords, axis=-1)
    chords *= chords
    return np.sqrt(np.sum(chords, axis=-1)), op


def _constant_gap_norms(gaps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_gap_norms` of rows of n equal gaps, one gap in [0, n) per row.

    The operator norm is the gap's chord.  The Frobenius norm sums n copies
    of its square as a broadcast view, which numpy sums in the same order
    as a stored row, so both floats equal `_gap_norms` on the full row
    (a test checks this bit for bit).  Only the distinct gaps are summed
    and their chords computed, so memory is O(distinct gaps), whatever n.
    """
    distinct, inverse = np.unique(gaps, return_inverse=True)
    chords = _chords(distinct, n)
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


def defects(
    sigma: PolyCocycle,
    sizes: Sequence[int],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[list[DefectResult | NilstabError]]:
    """Measured multiplicativity defects of rho_n at every size and pair.

    Raises InvalidCocycle unless sigma is admitted (`PolyCocycle.admit`),
    before any size or pair is looked at.  Returns one list per size, with
    one entry per pair: its DefectResult, or the error of that pair there.
    A size sharing a factor with the coefficient denominator gives
    NotCoprime for every pair.

    The pair-only work is done once, for all pairs at once, on exact
    integer columns: the first coordinate of x*y
    (`MalcevGroup.multiply_columns`) and sigma(x, y)
    (`PolyCocycle.value_columns`).  Each size checks that the law adds
    first coordinates mod n; then the gap of rho_n(x*y) - rho_n(x) rho_n(y)
    is -sigma(x, y) mod n in every column (see the module docstring), so
    each pair's norms are those of that one constant gap
    (`_constant_gap_norms`), and no residue or matrix is formed.  The
    bounds are compared as arrays.  A measured norm above its proven bound
    plus a 1e-9 slack gives BoundViolated; that would falsify the
    construction, not the sample.
    """
    sigma.admit()
    group = sigma.group
    m = group.hirsch
    den = sigma.poly.denominator_lcm()
    xs = [group.element(x) for x, _ in pairs]
    ys = [group.element(y) for _, y in pairs]
    x = np.array(xs, dtype=object).reshape(-1, m)
    y = np.array(ys, dtype=object).reshape(-1, m)
    shifts = group.multiply_columns(list(x.T), list(y.T))[0] - x[:, 0] - y[:, 0]
    values, _ = sigma.value_columns(list(x.T), list(y.T))
    table = []
    for n in sizes:
        error = _size_error(n, den)
        if isinstance(error, NotCoprime):
            table.append([error] * len(pairs))
            continue
        if error is not None:
            raise error
        if np.any(shifts % n):
            raise ValueError(
                f"the group law does not add first coordinates mod {n}; the "
                f"defect is not a phase-shift matrix"
            )
        fro, op = _constant_gap_norms((-values % n).astype(np.int64), n)
        table.append(_checked(n, xs, ys, values, fro, op))
    return table


def _checked(
    n: int,
    xs: Sequence[Element],
    ys: Sequence[Element],
    values: np.ndarray,
    fro: np.ndarray,
    op: np.ndarray,
) -> list[DefectResult | BoundViolated]:
    """Each pair's measured norms with their bounds, or BoundViolated.

    A pair whose norm exceeds its bound gets BoundViolated, the Frobenius
    bound checked first.
    """
    tau = 2 * math.pi * np.abs(values).astype(float)
    fro_bound = tau / math.sqrt(n)
    op_bound = tau / n
    failed: dict[int, BoundViolated] = {}
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
    (InvalidCocycle, NotCoprime or BoundViolated) instead of returning it.
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

    The word is formed from the three `build_rho` matrices with `compose`
    and `adjoint`, independently of the identity that `defects` reads it
    from.  It must have shift 0, and every residue must equal
    -sigma(x, y) mod n exactly; NotScalar names the first one that does
    not.  Raises what `build_rho` raises (InvalidCocycle, the size's error)
    first.
    """
    group = sigma.group
    x = group.element(x)
    y = group.element(y)
    rho_xy, rho_x, rho_y = (build_rho(sigma, n, g) for g in (group.multiply(x, y), x, y))
    word = rho_xy.compose(rho_y.adjoint()).compose(rho_x.adjoint())
    if word.shift != 0:
        raise NotScalar(f"triple product shifts by {word.shift}")
    residue = sigma(x, y) % n
    expected = -residue % n
    off = np.flatnonzero(word.residues != expected)
    if off.size:
        first = int(off[0])
        raise NotScalar(
            f"diagonal entry {first} has residue {word.residues[first]} mod {n}, "
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
