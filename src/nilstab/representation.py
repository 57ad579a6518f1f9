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
touch floating point.

The multiplicativity defect rho_n(x*y) - rho_n(x) rho_n(y) is a scalar
chi_n(x, y)^{-1} = exp(-2 pi i p(x, y_1) / n) away from zero, giving the
proven bounds 2*pi*|sigma(x,y)|/sqrt(n) (Frobenius) and 2*pi*|sigma(x,y)|/n
(operator).  `defect` measures it from the residue gaps d_j: the
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

    The residues p(x, j) mod n come from one vectorized Horner evaluation
    of p(x, t) * scale mod scale * n over j = 0..n, where scale clears the
    denominators at x.  Every value must be divisible by scale (an integer
    cocycle value), and the value at j = n must repeat the one at j = 0.
    """
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    den = sigma.poly.denominator_lcm()
    if math.gcd(n, den) != 1:
        raise NotCoprime(
            f"n = {n} shares a factor with the coefficient denominator {den}"
        )
    # Horner steps stay below den * n * (n + 1); scale below divides den.
    if n > max_exact_size(den):
        raise ValueError(
            f"matrix size {n} is too large for int64 residue arithmetic "
            f"with coefficient denominator {den}"
        )
    x = sigma.group.element(x)
    scale, coeffs = sigma.specialize_first(x)
    modulus = scale * n
    reduced = [c % modulus for c in coeffs]
    j = np.arange(n + 1, dtype=np.int64)
    total = np.full(n + 1, reduced[-1], dtype=np.int64)
    for c in reversed(reduced[:-1]):
        total = (total * j + c) % modulus
    fractional = np.flatnonzero(total % scale)
    if fractional.size:
        at = int(fractional[0])
        value = sum(c * at**e for e, c in enumerate(coeffs))
        raise NonIntegralValue(
            f"cocycle value {value}/{scale} at ({x}, {at}) is not an integer"
        )
    residues = total // scale
    # Well-definedness spot check: the exponent must only matter mod n.
    if residues[n] != residues[0]:
        raise NotCoprime(
            f"exponent is not periodic mod {n}; denominators are incompatible"
        )
    return PhaseShiftMatrix(n, x[0], residues[:n])


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
    gaps = (a.residues - b.residues) % a.n
    chords = 2.0 * np.abs(np.sin(np.pi * gaps / a.n))
    return float(np.sqrt(np.sum(chords**2))), float(np.max(chords))


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


def defect(sigma: PolyCocycle, n: int, x: Sequence[int], y: Sequence[int]) -> DefectResult:
    """Measured multiplicativity defect of rho_n at (x, y), with its bounds.

    The norms of rho_n(x*y) - rho_n(x) rho_n(y) come from the residue gaps
    (see `difference_norms`), so no matrix is formed.  Raises BoundViolated
    if a measured norm exceeds the proven bound plus a 1e-9 slack; that
    would falsify the construction, not the sample.
    """
    group = sigma.group
    x = group.element(x)
    y = group.element(y)
    rho_xy = build_rho(sigma, n, group.multiply(x, y))
    product = build_rho(sigma, n, x).compose(build_rho(sigma, n, y))
    fro, op = difference_norms(rho_xy, product)
    s = sigma(x, y)
    fro_bound = 2 * math.pi * abs(s) / math.sqrt(n)
    op_bound = 2 * math.pi * abs(s) / n
    if fro > fro_bound + BOUND_SLACK:
        raise BoundViolated(
            f"Frobenius defect {fro} exceeds bound {fro_bound} at ({x}, {y}), n={n}"
        )
    if op > op_bound + BOUND_SLACK:
        raise BoundViolated(
            f"operator defect {op} exceeds bound {op_bound} at ({x}, {y}), n={n}"
        )
    return DefectResult(
        n=n,
        x=x,
        y=y,
        sigma_xy=s,
        frobenius=fro,
        frobenius_bound=fro_bound,
        operator=op,
        operator_bound=op_bound,
    )


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
    rho_xy = build_rho(sigma, n, group.multiply(x, y))
    rho_x = build_rho(sigma, n, x)
    rho_y = build_rho(sigma, n, y)
    word = rho_xy.compose(rho_y.adjoint()).compose(rho_x.adjoint())
    if word.shift != 0:
        raise NotScalar(f"triple product shifts by {word.shift}")
    residue = sigma(x, y) % n
    expected = -residue % n
    off = np.flatnonzero(word.residues != expected)
    if off.size:
        first = int(off[0])
        raise NotScalar(
            f"diagonal entry {first} has residue {int(word.residues[first])} mod {n}, "
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
