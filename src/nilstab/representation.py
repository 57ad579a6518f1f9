"""Asymptotic unitary representations by phase-shift matrices.

For a skinny cocycle with polynomial p(x_1..x_m, y1) and a matrix size n
coprime to every coefficient denominator, the element x acts on the
standard basis of C^n by

    rho_n(x) delta_j = exp(2 pi i p(x, j) / n) * delta_{j + x_1 mod n},

so each rho_n(x) is a cyclic shift with one root of unity per column.  A
PhaseShiftMatrix stores the integer residues p(x, j) mod n, not the
phases: products, adjoints and the scalar identity are exact residue
arithmetic at any n up to `max_exact_size` (where int64 Horner steps
stop fitting), and only `phases` and `to_dense` (capped at MAX_DENSE)
touch floating point.  One private kernel computes every residue: a
single int64 Horner pass over j = 0..n for a batch of rows, each with its
own size and modulus.  It takes its rows as columns (`_Rows`: elements,
scales and coefficient columns), which `PolyCocycle.specialize_columns`
gives for any number of elements at once in exact Python-int columns.
`build_rho` is its one-row case, the certificate runs it once for the
rows of all its sizes, and `chi_scalar_check` forms its word from three
rows by flat-index gathers (`_residue_word`), as the certificate does.

The multiplicativity defect rho_n(x*y) - rho_n(x) rho_n(y) is a scalar
chi_n(x, y)^{-1} = exp(-2 pi i p(x, y_1) / n) away from zero, giving the
proven bounds 2*pi*|sigma(x,y)|/sqrt(n) (Frobenius) and 2*pi*|sigma(x,y)|/n
(operator).  `defects` measures it for many pairs at once: x*y,
sigma(x, y) and the specializations of x, y and x*y are computed for all
pairs together in integer columns, then one kernel call per size covers
the rows of every pair (or one per chunk of pairs, once a size's rows pass
BATCH_ENTRIES), and the bounds are compared as arrays.  `defect` is its
one-pair case.  The norms come from the residue gaps d_j: the
difference of two phase-shift matrices with equal shift has one entry per
column, so its norms are sqrt(sum |1 - w^d_j|^2) and max |1 - w^d_j| with
w = exp(2 pi i / n).  The dense norms below (the Frobenius norm and the
SVD operator norm) serve general matrices and the tests' oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

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

    `build_rho` accepts exactly the sizes up to this one for a cocycle
    whose coefficient denominator is den.
    """
    return (math.isqrt(4 * (INT64_MAX // den) + 1) - 1) // 2


def build_rho(sigma: PolyCocycle, n: int, x: Sequence[int]) -> PhaseShiftMatrix:
    """The phase-shift unitary representing x at matrix size n.

    The one-row case of the residue kernel that `defects` runs on a whole
    batch; it raises that row's NonIntegralValue or NotCoprime.
    """
    x = sigma.group.element(x)
    residues, errors = _residue_rows(n, sigma.poly.denominator_lcm(), _rows(sigma, [x]))
    if errors:
        raise errors[0]
    return PhaseShiftMatrix(n, x[0], residues[0, :n])


def _size_error(n: int, den: int) -> ValueError | NotCoprime | None:
    """Why the residue kernel refuses size n for coefficient denominator den, if it does."""
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
    """Residue kernel rows as columns.

    Row i is p(x, t) = sum_e coeffs[i, e] t^e / scales[i] at x = elements[i].
    `elements` (rows, m), `scales` (rows,) and `coeffs` (rows, width) hold
    Python ints (dtype=object), as `PolyCocycle.specialize_columns` gives
    them.
    """

    elements: np.ndarray
    scales: np.ndarray
    coeffs: np.ndarray

    def __len__(self) -> int:
        return len(self.scales)

    def __getitem__(self, index) -> "_Rows":
        """The rows at a slice or an array of row indices."""
        return _Rows(self.elements[index], self.scales[index], self.coeffs[index])


def _rows(sigma: PolyCocycle, elements) -> _Rows:
    """The kernel rows of the elements: a list of Elements or an (rows, m) object array."""
    elements = np.asarray(elements, dtype=object).reshape(-1, sigma.group.hirsch)
    scales, coeffs = sigma.specialize_columns(list(elements.T))
    return _Rows(elements, scales, np.stack(coeffs, axis=1))


def _residue_rows(
    n: int | Sequence[int], den: int, rows: _Rows
) -> tuple[np.ndarray, dict[int, NilstabError]]:
    """Residues p(x, j) mod n for j = 0..n, one row per kernel row (see `_Rows`).

    `n` is one size for every row, or a list with one size per row.  The
    result is a contiguous int64 array with N + 1 columns for the largest
    size N: in a row of size n, column j holds p(x, j) mod n for j <= n
    (column n repeats column 0), and the columns past n are padding.  Each
    call builds its int64 table of coefficients mod scale * n with one
    array `%` on the Python ints; then one int64 Horner pass evaluates
    every row's scale * p(x, j) mod scale * n over j = 0..N, in place.  It
    reduces at the last step and wherever the next step could pass int64;
    reduced at every step, the values stay below den * N * (N + 1), which
    `max_exact_size(den)` keeps in int64.  A row's values must be divisible
    by its scale (integer cocycle values) and must repeat at j = n what
    they were at j = 0; the rows that fail come back by row index with
    their NonIntegralValue or NotCoprime, and the other rows are still
    computed.  Every size must be coprime to den, the coefficient
    denominator, and at most `max_exact_size(den)`; the first size that is
    not raises.
    """
    sizes = list(n) if isinstance(n, Sequence) else [n]
    for size in dict.fromkeys(sizes):
        error = _size_error(size, den)
        if error is not None:
            raise error
    top = max(sizes, default=1)
    # One size per row, or one (1, 1) size that broadcasts over the rows.
    sizes = np.array(sizes, dtype=np.int64)[:, None]
    scales = rows.scales.astype(np.int64)[:, None]
    moduli = scales * sizes
    table = (rows.coeffs % moduli).astype(np.int64)
    width = table.shape[1]
    j = np.arange(top + 1, dtype=np.int64)
    total = np.repeat(table[:, -1:], top + 1, axis=1)
    # Reduce only at the last step, or where the next step could leave
    # int64: every value stays below `bound`.
    modulus = int(moduli.max(initial=1))
    bound = modulus
    for e in range(width - 2, -1, -1):
        total *= j
        total += table[:, e : e + 1]
        bound = bound * top + modulus
        if e == 0 or bound * top + modulus > INT64_MAX:
            total %= moduli
            bound = modulus
    errors: dict[int, NilstabError] = {}
    # A polynomial of degree < width that is integral at j = 0..width-1 is
    # integral at every integer (its Newton coefficients are integers), so
    # the first width columns within j <= n decide integrality on all of
    # j = 0..n and hold the first failing j.
    fractional = total[:, :width] % scales
    fractional *= j[:width] <= sizes
    for i in np.flatnonzero(fractional.any(axis=1)).tolist():
        at = int(np.flatnonzero(fractional[i])[0])
        value = sum(c * at**e for e, c in enumerate(rows.coeffs[i]))
        errors[i] = NonIntegralValue(
            f"cocycle value {value}/{rows.scales[i]} at ({tuple(rows.elements[i])}, "
            f"{at}) is not an integer"
        )
    if scales.max(initial=1) > 1:
        total //= scales  # now the residues p(x, j) mod n
    # Well-definedness spot check: the exponent must only matter mod n.
    row_sizes = moduli[:, 0] // scales[:, 0]
    ends = total[np.arange(len(rows)), row_sizes]
    for i in np.flatnonzero(ends != total[:, 0]).tolist():
        errors.setdefault(
            i,
            NotCoprime(
                f"exponent is not periodic mod {row_sizes[i]}; denominators are "
                f"incompatible"
            ),
        )
    return total, errors


def _residue_word(
    residues: np.ndarray,
    ab: np.ndarray,
    b: np.ndarray,
    a: np.ndarray,
    shift_a: np.ndarray,
    shift_b: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Residues of the word rho(ab) rho(b)* rho(a)*, one row per word, unreduced.

    `residues` is the residue kernel's result; ab, b and a hold each
    word's kernel rows, shift_a and shift_b the first coordinates of a and
    b reduced mod the word's size.  When the word's shift is 0 it is
    diagonal, with residue
    r_ab[j - s_a - s_b] - r_b[j - s_a - s_b] - r_a[j - s_a] mod n at
    column j; swapping a and b gives the ordering rho(ab) rho(a)* rho(b)*.
    Every gather is one `np.take` on flat indices into the residues.  The
    differences come back as they are, in (-2n, n), for the caller to
    reduce mod n.  Columns j >= n are padding.
    """
    width = residues.shape[1]
    flat = residues.reshape(-1)
    n = sizes[:, None]
    # Wrap j - s into [0, n) on the columns j < n without a modulo; on the
    # padding the index only has to stay inside the row.
    at = np.arange(width, dtype=np.int64) - shift_a[:, None]
    np.add(at, n, out=at, where=at < 0)
    word = np.take(flat, at + (a * width)[:, None])
    np.negative(word, out=word)
    at -= shift_b[:, None]
    np.add(at, n, out=at, where=at < 0)
    at += (ab * width)[:, None]
    word += np.take(flat, at)
    at += ((b - ab) * width)[:, None]
    word -= np.take(flat, at)
    return word


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


def _gap_norms(gaps: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Norms sqrt(sum |1 - w^d_j|^2) and max |1 - w^d_j| over the last axis.

    A gap matters only mod n, so the n chords 2 |sin(pi d / n)| are computed
    once and gathered.  `np.take` wraps each gap into [0, n) by adding or
    subtracting n, which is cheap because the callers' gaps lie in
    (-2n, n).  Works in place on one float array, since `defects` passes
    whole batches.
    """
    table = np.pi * np.arange(n)
    table /= n
    np.abs(np.sin(table, out=table), out=table)
    table *= 2.0
    chords = np.take(table, gaps, mode="wrap")
    op = np.max(chords, axis=-1)
    chords *= chords
    return np.sqrt(np.sum(chords, axis=-1)), op


@dataclass(frozen=True)
class DefectResult:
    n: int
    x: Element
    y: Element
    sigma_xy: int
    frobenius: float
    frobenius_bound: float
    operator: float
    operator_bound: float


BOUND_SLACK = 1e-9
# int64 entries per residue-kernel call (3 rows of n + 1 per pair):
# `defects` splits a size's pairs into chunks that fit, so its memory does
# not grow with the sample count at large n (one pair per call from
# n = 174,762 on).
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
    throughout, or sigma(x, y)'s error where that fails.  The pair-only
    work is done once, for all pairs at once, on exact integer columns:
    x*y (`MalcevGroup.multiply_columns`), sigma(x, y)
    (`PolyCocycle.value_columns`) and the specializations of x, y and x*y
    (`PolyCocycle.specialize_columns`).  Each size then runs the residue
    kernel on the rows of as many pairs at a time as fit in BATCH_ENTRIES
    (all of them at the sizes the sweep usually takes).  rho_n(x) rho_n(y)
    is gathered from the residues, and the norms of
    rho_n(x*y) - rho_n(x) rho_n(y) come from the residue gaps (see
    `difference_norms`), so no matrix is formed.  The bounds are compared
    as arrays.  A measured norm above its proven bound plus a 1e-9 slack
    gives BoundViolated; that would falsify the construction, not the
    sample.
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
    # Three rows per pair, in the order the checks run: x*y, x, y.
    rows = _rows(sigma, np.stack([xy, x, y], axis=1))
    table = []
    for n in sizes:
        step = max(1, BATCH_ENTRIES // (3 * (n + 1)))
        fro, op = np.empty(len(pairs)), np.empty(len(pairs))
        failed: dict[int, NilstabError] = {}
        try:
            for start in range(0, len(pairs), step):
                chunk = slice(start, start + step)
                fro[chunk], op[chunk], errors = _defect_chunk(
                    n, den, rows[3 * start : 3 * (start + step)]
                )
                for row in sorted(errors):
                    failed.setdefault(start + row // 3, errors[row])
        except NotCoprime as exc:
            table.append([value_errors.get(i, exc) for i in range(len(pairs))])
            continue
        for i, error in value_errors.items():
            failed.setdefault(i, error)
        table.append(_checked(n, xs, ys, values, fro, op, failed))
    return table


def _defect_chunk(
    n: int, den: int, rows: _Rows
) -> tuple[np.ndarray, np.ndarray, dict[int, NilstabError]]:
    """Norms of rho_n(x*y) - rho_n(x) rho_n(y) for consecutive pairs.

    `rows` holds the kernel rows x*y, x and y of each pair; one kernel call
    gives their residues.  Returns the Frobenius and operator norms and
    the kernel's errors by row.
    """
    residues, errors = _residue_rows(n, den, rows)
    firsts = (rows.elements[:, 0] % n).astype(np.int64)
    xy_1, x_1, y_1 = firsts[0::3], firsts[1::3], firsts[2::3]
    if np.any((xy_1 - x_1 - y_1) % n):
        raise ValueError(
            f"the group law does not add first coordinates mod {n}; the "
            f"defect is not a phase-shift matrix"
        )
    # Column j of rho(x) rho(y) picks up rho(x)'s residue at j + y_1,
    # wrapped into [0, n) without a modulo, in the flat residues.
    at = np.arange(n, dtype=np.int64) + y_1[:, None]
    np.subtract(at, n, out=at, where=at >= n)
    at += (np.arange(1, len(rows), 3) * residues.shape[1])[:, None]
    gaps = np.take(residues.reshape(-1), at)
    gaps += residues[2::3, :n]
    np.subtract(residues[0::3, :n], gaps, out=gaps)
    # The batch is the largest array here; free it before the norms.
    del residues, at
    fro, op = _gap_norms(gaps, n)
    return fro, op, errors


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
    """
    group = sigma.group
    x = group.element(x)
    y = group.element(y)
    xy = group.multiply(x, y)
    residues, errors = _residue_rows(
        n, sigma.poly.denominator_lcm(), _rows(sigma, [xy, x, y])
    )
    if errors:
        raise errors[min(errors)]
    shift = (xy[0] - x[0] - y[0]) % n
    if shift != 0:
        raise NotScalar(f"triple product shifts by {shift}")
    # Kernel rows 0, 2 and 1 hold x*y, y and x.
    (word,) = _residue_word(
        residues, np.array([0]), np.array([2]), np.array([1]),
        np.array([x[0] % n]), np.array([y[0] % n]), np.array([n]),
    )
    word = word[:n]
    word %= n
    residue = sigma(x, y) % n
    expected = -residue % n
    off = np.flatnonzero(word != expected)
    if off.size:
        first = int(off[0])
        raise NotScalar(
            f"diagonal entry {first} has residue {int(word[first])} mod {n}, "
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
