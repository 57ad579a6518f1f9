"""Asymptotic unitary representations by phase-shift matrices.

For a skinny cocycle with polynomial p(x_1..x_m, y1) and a matrix size n
coprime to every coefficient denominator, the element x acts on the
standard basis of C^n by

    rho_n(x) delta_j = exp(2 pi i p(x, j) / n) * delta_{j + x_1 mod n},

so each rho_n(x) is a cyclic shift with one root of unity per column.  A
PhaseShiftMatrix stores the integer residues p(x, j) mod n, not the
phases: products, adjoints and the scalar identity are exact residue
arithmetic in int64, at any n with n * n <= 2^63 - 1 (the kernel's
limit, `_residues`), and only `phases` and `to_dense` (capped at
MAX_DENSE) touch floating point.

`build_rho` and `chi_scalar_check` admit a cocycle only once its group
law's proof and its own pass (`PolyCocycle.admit`), and raise
ValidationError or InvalidCocycle otherwise.  An admitted cocycle is
integer valued, and n is coprime to its denominator,
so every row p(x, .) is periodic mod n and rho_n(x) is well defined.  Its
cocycle identity at z = (t, 0, ..., 0) reads
p(x*y, t) - p(y, t) - p(x, t + y_1) = -sigma(x, y), so the word
rho(x*y) rho(y)* rho(x)* is the scalar exp(-2 pi i sigma(x, y) / n).

Two paths measure the family, and this module is the dense one, on
numpy.  The exact path lives in `nilstab.exact`, in Python ints and
floats: `defects` (and `defect`) read each pair's norms from the constant
-sigma(x, y) mod n, and the certificate reads each summed word off the
identity; neither forms a row or has a size limit.  This module
re-exports `defects`, `defect` and `DefectResult` from there.

`build_rho` builds the row of one element x from its Newton differences
Delta^k p(x, 0), the values at x of the cocycle's Newton coefficients q_k,
the fixed polynomials with p(x, y1) = sum_k q_k(x) C(y1, k)
(`PolyCocycle.newton`), in exact Python ints.  One private kernel,
`_residues`, turns those differences into the row's values mod n at
j = 0..n-1, by one prefix sum mod n per degree on an int64 n-vector.
`build_rho`, and with it `chi_scalar_check`, are dense oracles.

The multiplicativity defect rho_n(x*y) - rho_n(x) rho_n(y) is thus the
scalar chi_n(x, y)^{-1} - 1 times a unitary, giving the proven bounds
2*pi*|sigma(x,y)|/sqrt(n) (Frobenius) and 2*pi*|sigma(x,y)|/n
(operator).  `chi_scalar_check` does not use the identity: it forms the
word from `build_rho` matrices with `compose` and `adjoint` and proves
every residue equal to -sigma(x, y) mod n, a second proof of what
`defects` assumes.  The difference of two phase-shift matrices with equal
shift has one entry per column, so its norms come from the residue gaps
d_j: sqrt(sum |1 - w^d_j|^2) and max |1 - w^d_j| with w = exp(2 pi i / n)
(`difference_norms`).  The dense norms below (the Frobenius norm and the
SVD operator norm) serve general matrices and the tests' oracle.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cohomology import PolyCocycle
from .errors import DimensionMismatch, NotScalar
# The exact path's sweep, re-exported; `PhaseShiftMatrix` and `build_rho` use `_size` too.
from .exact import DefectResult, _size, defect, defects

MAX_DENSE = 1024  # double precision keeps phases well below 1e-12 up to here


@dataclass(frozen=True, eq=False)
class PhaseShiftMatrix:
    """A unitary acting by delta_j -> w^residues[j] * delta_{(j + shift) mod n}.

    Here w = exp(2 pi i / n).  n passes `_size` and the shift `operator.index`;
    the shift and the int64 residues are reduced mod n, so every phase is
    exactly an n-th root of unity.
    """

    n: int
    shift: int
    residues: np.ndarray

    def __post_init__(self):
        n = _size(self.n, 1)
        residues = np.asarray(self.residues)
        if residues.shape != (n,):
            raise DimensionMismatch(f"expected {n} residues, got shape {residues.shape}")
        if not np.issubdtype(residues.dtype, np.integer):
            raise ValueError(f"residues must be integers, got dtype {residues.dtype}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shift", operator.index(self.shift) % n)
        object.__setattr__(self, "residues", residues.astype(np.int64) % n)

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


def build_rho(sigma: PolyCocycle, n: int, x: Sequence[int]) -> PhaseShiftMatrix:
    """The phase-shift unitary representing x at matrix size n.

    Raises what `PolyCocycle.admit` raises (ValidationError for the group
    law, InvalidCocycle for sigma), then the size's error (`_size`);
    otherwise the row's Newton differences Delta^k p(x, 0), the cocycle's
    Newton coefficients q_k at x (`PolyCocycle.newton`), give the residues
    (`_residues`), past whose int64 limit it raises ValueError.  The
    differences are Python ints: t -> p(x, t) is integer valued, so its
    Newton differences are integers (Polya).
    """
    sigma.admit()
    x = sigma.group.element(x)
    n = _size(n, sigma.poly.den)
    point = x + (0,)
    differences = [q.evaluate_int(point) for q in sigma.newton]
    return PhaseShiftMatrix(n, x[0], _residues(n, differences))


def _residues(n: int, differences: Sequence[int]) -> np.ndarray:
    """Values mod n at t = 0..n-1 of q(t) = sum_k differences[k] C(t, k).

    The differences are integers of any size.  From the top degree down,
    Delta^k q(j) is Delta^k q(0) plus the exclusive prefix sum of
    Delta^(k+1) q up to j, reduced mod n: one `np.cumsum` per degree.  The
    summands lie in [0, n), so every sum stays below n * n; a size with
    n * n > 2^63 - 1 raises ValueError before any array is allocated.
    Returns an int64 array of n values.
    """
    if n * n > np.iinfo(np.int64).max:
        raise ValueError(
            f"matrix size {n} is too large for int64 residue arithmetic "
            f"(n * n must not exceed 2^63 - 1)"
        )
    level = np.full(n, differences[-1] % n, dtype=np.int64)
    for d in reversed(differences[:-1]):
        # Shift the level above by one place, so its cumsum is exclusive.
        level[1:] = level[:-1]
        level[0] = d % n
        np.cumsum(level, out=level)
        level %= n
    return level


# ----------------------------------------------------------------------
# norms


def frobenius_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix))


def _square(matrix) -> np.ndarray:
    """The matrix as a complex array, or DimensionMismatch if it is not square."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {matrix.shape}")
    return matrix


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a square matrix, from LAPACK's SVD."""
    return float(np.linalg.norm(_square(matrix), 2))


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

    A gap matters only mod n, so the n chords 2 |sin(pi d / n)|,
    d = 0..n-1, are computed once and gathered.  `np.take` wraps each gap
    into [0, n) by adding or subtracting n, which is cheap because the
    callers' gaps lie in (-n, n).
    """
    angles = np.pi * np.arange(n)
    angles /= n
    chords = np.take(2.0 * np.abs(np.sin(angles)), gaps, mode="wrap")
    op = np.max(chords, axis=-1)
    chords *= chords
    return np.sqrt(np.sum(chords, axis=-1)), op


def chi_scalar_check(
    sigma: PolyCocycle,
    n: int,
    x: Sequence[int],
    y: Sequence[int],
) -> complex:
    """Prove rho(x*y) rho(y)^-1 rho(x)^-1 = chi_n(x, y)^{-1} I and return chi.

    chi_n(x, y) = exp(2 pi i sigma(x, y) / n) is the unit scalar with
    rho(x) rho(y) = chi * rho(x*y).

    The word is formed from the three `build_rho` matrices with `compose`
    and `adjoint`, independently of the identity that `defects` reads it
    from.  It must have shift 0, and every residue must equal
    -sigma(x, y) mod n exactly; NotScalar names the first one that does
    not.  Raises what `PolyCocycle.admit` raises before x and y are looked
    at, then the size's error (`_size`); the residues are reduced modulo
    the int it returns.
    """
    sigma.admit()
    group = sigma.group
    x = group.element(x)
    y = group.element(y)
    n = _size(n, sigma.poly.den)
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
    return cmath.exp(2j * math.pi * residue / n)


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
