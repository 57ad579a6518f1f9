"""Central extensions by the integers and cocycles built from them.

A normalized 2-cocycle sigma on a base group G of Hirsch length m defines
an extension group on (m+1)-tuples: the first m laws are those of G and

    law_{m+1} = x_{m+1} + y_{m+1} + sigma-polynomial(x, y1).

The central fiber is embedded as k -> (0, ..., 0, k) and projection drops
the last coordinate.  This module also promotes a skinny cocycle on G to
a skinny cocycle on the extension group that pairs to k against the cycle
[a | z^k] - [z^k | a] (a the first-coordinate generator lift, z the
central generator).  The promotion is derived in closed form from exact
polynomial operations (powers of a, conjugation by a, discrete sums) and
admitted (`admit()`) before it is returned.  `interpolate_polynomial_cocycle`
fits polynomial representatives to pointwise kernels by exact finite
differences.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .cohomology import (
    Chain2,
    Cocycle,
    KernelCocycle,
    PolyCocycle,
    pair_cocycle_cycle,
    skinny_check,
)
from .errors import (
    DegreeBoundTooSmall,
    NotASection,
    NotSkinny,
    PairingMismatch,
)
from .groups import Element, MalcevGroup
from .poly import MultiPoly, xy_variables
from .validation import sample_plan


@dataclass(frozen=True)
class CentralExtension:
    """A group extension of `base` by a central copy of the integers."""

    base: MalcevGroup
    total: MalcevGroup
    cocycle: Cocycle

    def embed(self, k: int) -> Element:
        """The central element (0, ..., 0, k), k through `operator.index`."""
        return (0,) * self.base.hirsch + (operator.index(k),)

    def project(self, g: Sequence[int]) -> Element:
        """Drop the fiber coordinate."""
        return self.total.element(g)[: self.base.hirsch]

    def section(self, g: Sequence[int]) -> Element:
        """The canonical set-theoretic section g -> (g, 0)."""
        return self.base.element(g) + (0,)


def central_extension(
    group: MalcevGroup, sigma: PolyCocycle, name: str = ""
) -> CentralExtension:
    """Build the extension group of `group` by the skinny cocycle `sigma`.

    The extension group is called `name`, by default after its parts; it
    is named here, so that its one proof is the one a caller reports.
    Raises what `sigma.admit()` raises (ValidationError for the base law,
    InvalidCocycle for sigma), then ValidationError unless the extension
    law is admitted (`MalcevGroup.admit`).
    """
    if sigma.group is not group and sigma.group != group:
        raise ValueError("cocycle lives on a different group")
    m = group.hirsch
    wide = xy_variables(m + 1, m + 1)
    # Old variable i (of x1..xm, y1..ym) lands at i for the x block and
    # shifts by one for the y block to make room for x_{m+1}.
    base_map = list(range(m)) + [m + 1 + j for j in range(m)]
    law = [p.embed(wide, base_map) for p in group.law]
    sigma_map = list(range(m)) + [m + 1]  # (x1..xm, y1) into the wide tuple
    fiber = (
        MultiPoly.variable(wide, m)
        + MultiPoly.variable(wide, 2 * m + 1)
        + sigma.poly.embed(wide, sigma_map)
    )
    law.append(fiber)
    total = MalcevGroup(
        m + 1,
        tuple(law),
        name=name or f"ext({group.name or 'group'}; {sigma.name})",
    )
    sigma.admit()
    total.admit()
    return CentralExtension(base=group, total=total, cocycle=sigma)


def scaling_map(k: int, ext: CentralExtension) -> Callable[[Element], Element]:
    """The fiber-scaling map (g, s) -> (g, k*s).

    It is a homomorphism from the extension by sigma to the extension by
    k*sigma, and sends the central generator to its k-th power.
    """

    k = operator.index(k)
    m = ext.base.hirsch

    def apply(g: Sequence[int]) -> Element:
        g = ext.total.element(g)
        return g[:m] + (k * g[m],)

    return apply


def section_cocycle(
    ext: CentralExtension, theta: Callable[[Element], Element]
) -> KernelCocycle:
    """Recover the fiber cocycle of a set-theoretic section theta.

    The value at (g, h) is the fiber coordinate of
    theta(g) * theta(h) * theta(g*h)^{-1}, an element of the central copy
    of the integers.  theta must satisfy project(theta(g)) = g; this is
    checked on the identity and the SAMPLES draws of
    `validation.sample_plan`, and NotASection names any pair on which the
    value is not central.
    """
    base, total = ext.base, ext.total
    probes = [base.identity] + [g for (g,) in sample_plan(base.hirsch)]
    for g in probes:
        lifted = total.element(theta(g))
        if ext.project(lifted) != base.element(g):
            raise NotASection(f"theta({g}) = {lifted} does not project back to {g}")

    def eval_sigma(g: Element, h: Element) -> int:
        lift = total.multiply(theta(g), theta(h))
        away = total.inverse(total.element(theta(base.multiply(g, h))))
        word = total.multiply(lift, away)
        if any(word[: base.hirsch]):
            raise NotASection(
                f"theta is not a section over the pair ({g}, {h}): got {word}"
            )
        return word[base.hirsch]

    return KernelCocycle(base, eval_sigma, name="section cocycle")


def central_commutator_cycle(ext: CentralExtension, k: int) -> Chain2:
    """The cycle [a | z^k] - [z^k | a] with a = (1, 0, ..) and z central."""
    a = ext.total.basis(1)
    zk = ext.embed(k)
    return Chain2.build([(1, a, zk), (-1, zk, a)])


# ----------------------------------------------------------------------
# promotion of a skinny cocycle to the extension group


def promoted_cocycle(ext: CentralExtension, name: str = "") -> PolyCocycle:
    """A skinny cocycle omega on the extension group with <omega, c_k> = k.

    Here c_k = central_commutator_cycle(ext, k).  With a = (1, 0, ..., 0)
    in the extension group E, every g in E factors uniquely as
    g = rest * a^w with w = g_1, where rest has first coordinate 0.  Let
    F(i) be the fiber (last) coordinate of a^-i * rest * a^i and S the
    discrete antiderivative of F: S(i + 1) - S(i) = F(i), S(0) = 0, both
    polynomial in i and in g's coordinates.  Then

        omega(g, h) = S(g_1 + 1) - S(g_1 + h_1 + 1).

    This is the fiber cocycle of the section g -> z^U(g) * rest * a^w,
    U(g) = S(g_1 + 1) - S(1), into the central extension of E by Z that
    splits E as (Z x K) x| Z (K the kernel of alpha in the base, z the new
    central generator).  Every step is exact polynomial arithmetic in
    Mal'cev coordinates: each coordinate of a^w is a discrete sum in w
    (`_power_of_first_generator`), conjugation by a is the group law, and
    S is summed in the binomial basis.  The extension law is admitted
    first and the result last (`admit()` raises on a failed proof); an
    admitted result is skinny, as it reads y through y1 alone and its
    kernel condition is a case of p(x, 0) = 0.  PairingMismatch if it does
    not pair 1 with c_1.  The result is named `name`, by default
    promoted(<name of the extension's cocycle>).
    """
    total = ext.total
    total.admit()
    m = total.hirsch
    power = _power_of_first_generator(total)
    variables = xy_variables(m, 1)
    x = [MultiPoly.variable(variables, j) for j in range(m)]
    # y1 stands for the summation index i until it is substituted away.
    i = MultiPoly.variable(variables, m)

    def a_to(w: MultiPoly) -> list[MultiPoly]:
        return [p.compose([w]) for p in power]

    rest = total.multiply_symbolic(x, a_to(-x[0]))
    conjugate = total.multiply_symbolic(total.multiply_symbolic(a_to(-i), rest), a_to(i))
    s = _antiderivative(conjugate[-1], m)
    omega = s.compose(x + [x[0] + 1]) - s.compose(x + [x[0] + i + 1])
    sigma = PolyCocycle(total, omega, name=name or f"promoted({ext.cocycle.name})")

    sigma.admit()
    pairing = pair_cocycle_cycle(sigma, central_commutator_cycle(ext, 1))
    if pairing != 1:
        raise PairingMismatch(f"promoted cocycle pairs to {pairing} with c_1, not 1")
    return sigma


def _power_of_first_generator(group: MalcevGroup) -> list[MultiPoly]:
    """The coordinates of a^w, a = (1, 0, ..., 0), as polynomials in w.

    The group must be admitted.  Its triangular law_i reads x_i only as
    the summand x_i, so (a^(w+1))_i - (a^w)_i is law_i at x = a^w with x_i
    and the coordinates after it set to 0 and y = a: a polynomial in the
    coordinates (a^w)_j, j < i, found before it.  Each coordinate is then
    the discrete antiderivative of its step with value 0 at w = 0.
    """
    w = ("w",)
    zero = [MultiPoly.zero(w)] * group.hirsch
    a = [MultiPoly.constant(w, c) for c in group.basis(1)]
    power: list[MultiPoly] = []
    for law in group.law:
        step = law.compose(power + zero[len(power):] + a)
        power.append(_antiderivative(step, 0))
    return power


def _antiderivative(f: MultiPoly, index: int) -> MultiPoly:
    """S with S(i + 1) - S(i) = f and S(0) = 0, i the variable at `index`.

    f = sum_k q_k * binom(i, k) (`newton_coefficients`), and binom(i, k + 1)
    is the sum of binom(j, k) over 0 <= j < i.
    """
    i = MultiPoly.variable(f.variables, index)
    binomial = i  # binom(i, k + 1)
    out = MultiPoly.zero(f.variables)
    for k, q in enumerate(f.newton_coefficients(index)):
        out = out + q * binomial
        binomial = binomial * (i - (k + 1)) / (k + 2)
    return out


# ----------------------------------------------------------------------
# exact polynomial interpolation of skinny kernels


# No package caller: kept only because the benchmark tracer (perfbench/tracing.py) targets it.
def interpolate_polynomial_cocycle(omega: Cocycle, degree_bound: int = 4) -> PolyCocycle:
    """Fit p(x_1..x_m, y1) to a skinny kernel by exact interpolation.

    Values of omega(x, (y1, 0, ..., 0)) are taken on the integer grid
    [-D, D]^(m+1) with D = degree_bound, and the unique interpolating
    polynomial is assembled from iterated finite differences (a Newton
    binomial basis), so all arithmetic is exact.  Raises
    DegreeBoundTooSmall if a difference above total degree D is nonzero
    or if the fit disagrees with omega on the draws of
    `validation.sample_plan`, which also re-tests skinniness since the
    draws use full second arguments.
    """
    group = omega.group
    m = group.hirsch
    skinny = skinny_check(omega)
    if not skinny.ok:
        raise NotSkinny("kernel is not skinny:\n" + skinny.summary())

    D = int(degree_bound)
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    axes = m + 1
    pts = 2 * D + 1
    grid = range(-D, D + 1)

    def probe(coords: tuple[int, ...]) -> int:
        x = coords[:m]
        y = (coords[m],) + (0,) * (m - 1)
        return omega(x, y)

    values = [probe(c) for c in itertools.product(grid, repeat=axes)]

    # In-place iterated forward differences along each axis: afterwards the
    # cell at multi-index E holds the E-th Newton coefficient at the corner.
    strides = [pts ** (axes - 1 - i) for i in range(axes)]
    for axis in range(axes):
        stride = strides[axis]
        block = stride * pts
        for start in range(0, len(values), block):
            for offset in range(stride):
                base_idx = start + offset
                for step in range(1, pts):
                    for pos in range(pts - 1, step - 1, -1):
                        idx = base_idx + pos * stride
                        values[idx] -= values[idx - stride]

    variables = xy_variables(m, 1)

    def binomial_poly(index: int, e: int) -> MultiPoly:
        # binom(v + D, e) as a polynomial in variable v.
        p = MultiPoly.constant(variables, 1)
        v = MultiPoly.variable(variables, index)
        for r in range(e):
            p = p * (v + (D - r))
        return p / math.factorial(e)

    fitted = MultiPoly.zero(variables)
    for flat, coeff in enumerate(values):
        if coeff == 0:
            continue
        exps = []
        rest = flat
        for axis in range(axes):
            exps.append(rest // strides[axis])
            rest %= strides[axis]
        if sum(exps) > D:
            raise DegreeBoundTooSmall(
                f"nonzero difference {coeff} at multi-degree {tuple(exps)} "
                f"exceeds the bound {D}"
            )
        term = MultiPoly.constant(variables, coeff)
        for axis, e in enumerate(exps):
            if e:
                term = term * binomial_poly(axis, e)
        fitted = fitted + term

    result = PolyCocycle(group, fitted, name=f"fit({omega.name}; degree<={D})")

    for x, y in sample_plan(m, m):
        want = omega(x, y)
        got = result(x, y)
        if want != got:
            raise DegreeBoundTooSmall(
                f"fit disagrees with the kernel at ({x}, {y}): "
                f"kernel {want}, polynomial {got}"
            )
    return result
