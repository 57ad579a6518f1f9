"""Central extensions by the integers and cocycles built from them.

A normalized 2-cocycle sigma on a base group G of Hirsch length m defines
an extension group on (m+1)-tuples: the first m laws are those of G and

    law_{m+1} = x_{m+1} + y_{m+1} + sigma-polynomial(x, y1).

The central fiber is embedded as k -> (0, ..., 0, k) and projection drops
the last coordinate.  This module also promotes a skinny cocycle on G to
a skinny cocycle on the extension group that pairs to k against the cycle
[a | z^k] - [z^k | a] (a the first-coordinate generator lift, z the
central generator), and fits polynomial representatives to pointwise
kernels by exact finite differences.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cohomology import (
    Chain2,
    Cocycle,
    KernelCocycle,
    PolyCocycle,
    cocycle_check,
    skinny_check,
)
from .errors import (
    DegreeBoundTooSmall,
    InvalidCocycle,
    NotASection,
    NotSkinny,
    NotSurjective,
)
from .groups import Element, MalcevGroup
from .poly import MultiPoly, xy_variables
from .validation import DEFAULT_SEED, make_rng, sample_coords

# Sections cached per promoted kernel; the degree-4 fit of the Heisenberg
# kernel and its checks ask for 2811 distinct ones.
SECTION_CACHE_SIZE = 4096


@dataclass(frozen=True)
class CentralExtension:
    """A group extension of `base` by a central copy of the integers."""

    base: MalcevGroup
    total: MalcevGroup
    cocycle: Cocycle

    def embed(self, k: int) -> Element:
        """The central element (0, ..., 0, k)."""
        return (0,) * self.base.hirsch + (int(k),)

    def project(self, g: Sequence[int]) -> Element:
        """Drop the fiber coordinate."""
        return self.total.element(g)[: self.base.hirsch]

    def section(self, g: Sequence[int]) -> Element:
        """The canonical set-theoretic section g -> (g, 0)."""
        return self.base.element(g) + (0,)


def central_extension(group: MalcevGroup, sigma: PolyCocycle) -> CentralExtension:
    """Build the extension group of `group` by the skinny cocycle `sigma`.

    Raises InvalidCocycle unless sigma is proved a normalized, integer
    valued cocycle and the extension law is proved a group law.
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
        name=f"ext({group.name or 'group'}; {sigma.name})",
    )
    report = cocycle_check(sigma)
    if not report.ok:
        raise InvalidCocycle("cocycle failed validation:\n" + report.summary())
    total_report = total.validate()
    if not total_report.ok:
        raise InvalidCocycle(
            "extension law failed validation:\n" + total_report.summary()
        )
    return CentralExtension(base=group, total=total, cocycle=sigma)


def scaling_map(k: int, ext: CentralExtension) -> Callable[[Element], Element]:
    """The fiber-scaling map (g, s) -> (g, k*s).

    It is a homomorphism from the extension by sigma to the extension by
    k*sigma, and sends the central generator to its k-th power.
    """

    m = ext.base.hirsch

    def apply(g: Sequence[int]) -> Element:
        g = ext.total.element(g)
        return g[:m] + (k * g[m],)

    return apply


def section_cocycle(
    ext: CentralExtension,
    theta: Callable[[Element], Element],
    samples: int = 200,
    bound: int = 3,
    seed: int | None = DEFAULT_SEED,
) -> KernelCocycle:
    """Recover the fiber cocycle of a set-theoretic section theta.

    The value at (g, h) is the fiber coordinate of
    theta(g) * theta(h) * theta(g*h)^{-1}, an element of the central copy
    of the integers.  theta must satisfy project(theta(g)) = g; this is
    checked on samples and on the identity.
    """
    base, total = ext.base, ext.total
    rng = make_rng(seed)
    probes = [base.identity] + [
        sample_coords(rng, base.hirsch, bound) for _ in range(samples)
    ]
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


def extension_skinny_cocycle(ext: CentralExtension) -> KernelCocycle:
    """A skinny cocycle omega on the extension group with <omega, c_k> = k.

    Here c_k = central_commutator_cycle(ext, k).  The construction splits
    the extension group E as a semidirect product (Z x K) x| Z, where K is
    the kernel of alpha in the base, alpha reads the first coordinate, and
    the two Z factors are the central fiber and the image of alpha.
    Concretely, with a = (1, 0, ..., 0) in E, every g in E factors uniquely
    as

        g = psi(t, kappa) * a^w,   w = alpha(project(g)) = g_1,

    where psi(t, kappa) = (kappa_1..kappa_m, t) pairs the fiber value t
    with a kernel element kappa.  Conjugation by a induces an automorphism
    gamma of Z x K, and the auxiliary group B = (Z x Z x K) x| Z twisted by

        eta(u, t, kappa) = (u + t, gamma(t, kappa))

    is a central extension of E by the leading Z.  The section used here
    lifts a^w * kernel-part multiplicatively (power first), which makes the
    resulting omega(g, h) depend on h only through h_1; omega is the fiber
    cocycle of that section, read off the leading Z coordinate.
    """
    base, total = ext.base, ext.total
    m = base.hirsch
    a = total.basis(1)

    skinny = skinny_check(ext.cocycle)
    if not skinny.ok:
        raise NotSkinny(
            "the input cocycle is not skinny:\n" + skinny.summary()
        )
    if total.canonical_hom(a) != 1:
        raise NotSurjective("alpha never takes the value 1 on the chosen lift")

    a_inv = total.inverse(a)
    kernel_identity = base.identity

    def decompose(g: Element) -> tuple[int, Element, int]:
        """g = psi(t, kappa) * a^w with w = g_1; returns (t, kappa, w)."""
        w = g[0]
        rest = total.multiply(g, total.power(a, -w))
        if rest[0] != 0:
            raise NotSurjective(f"decomposition failed for {g}")
        return rest[m], rest[:m], w

    def psi(t: int, kappa: Element) -> Element:
        return tuple(kappa) + (t,)

    def gamma(t: int, kappa: Element) -> tuple[int, Element]:
        conj = total.multiply(total.multiply(a, psi(t, kappa)), a_inv)
        t2, k2, w2 = decompose(conj)
        assert w2 == 0
        return t2, k2

    def gamma_inv(t: int, kappa: Element) -> tuple[int, Element]:
        conj = total.multiply(total.multiply(a_inv, psi(t, kappa)), a)
        t2, k2, w2 = decompose(conj)
        assert w2 == 0
        return t2, k2

    # Elements of B are (u, t, kappa, w): u and t integers, kappa in K,
    # w the semidirect exponent.  V = (u, t, kappa) is the direct factor.

    def v_add(v1, v2):
        return (v1[0] + v2[0], v1[1] + v2[1], base.multiply(v1[2], v2[2]))

    def v_neg(v):
        return (-v[0], -v[1], base.inverse(v[2]))

    def eta(v):
        t2, k2 = gamma(v[1], v[2])
        return (v[0] + v[1], t2, k2)

    def eta_inv(v):
        t2, k2 = gamma_inv(v[1], v[2])
        return (v[0] - t2, t2, k2)

    def eta_pow(v, j: int):
        step = eta if j >= 0 else eta_inv
        for _ in range(abs(j)):
            v = step(v)
        return v

    def b_mul(p, q):
        return (v_add(p[0], eta_pow(q[0], p[1])), p[1] + q[1])

    def b_inv(p):
        return (v_neg(eta_pow(p[0], -p[1])), -p[1])

    def gamma_pow(j: int, t: int, kappa: Element) -> tuple[int, Element]:
        step = gamma if j >= 0 else gamma_inv
        for _ in range(abs(j)):
            t, kappa = step(t, kappa)
        return t, kappa

    # section is pure in g, so the cache is exact; a fixed bound caps its memory.
    @functools.lru_cache(maxsize=SECTION_CACHE_SIZE)
    def section(g: Element):
        t, kappa, w = decompose(g)
        t0, k0 = gamma_pow(-w, t, kappa)
        return b_mul(((0, 0, kernel_identity), w), ((0, t0, k0), 0))

    def omega(g: Element, h: Element) -> int:
        word = b_mul(
            b_mul(section(g), section(h)),
            b_inv(section(total.multiply(g, h))),
        )
        (u, t, kappa), w = word
        # Everything except the leading coordinate must cancel; a survivor
        # means the bookkeeping above is wrong.
        if t != 0 or w != 0 or kappa != kernel_identity:
            raise AssertionError(
                f"section word did not land in the fiber: {word}"
            )
        return u

    return KernelCocycle(
        total, omega, name=f"promoted({ext.cocycle.name})"
    )


# ----------------------------------------------------------------------
# exact polynomial interpolation of skinny kernels


def interpolate_polynomial_cocycle(
    omega: Cocycle,
    degree_bound: int = 4,
    verify_samples: int = 200,
    verify_bound: int = 3,
    seed: int | None = DEFAULT_SEED,
) -> PolyCocycle:
    """Fit p(x_1..x_m, y1) to a skinny kernel by exact interpolation.

    Values of omega(x, (y1, 0, ..., 0)) are taken on the integer grid
    [-D, D]^(m+1) with D = degree_bound, and the unique interpolating
    polynomial is assembled from iterated finite differences (a Newton
    binomial basis), so all arithmetic is exact.  Raises
    DegreeBoundTooSmall if a difference above total degree D is nonzero
    or if the fit disagrees with omega on fresh samples, which also
    re-tests skinniness since the fresh samples use full second arguments.
    """
    group = omega.group
    m = group.hirsch
    skinny = skinny_check(omega, samples=min(200, max(50, verify_samples)))
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
        return Fraction(1, math.factorial(e)) * p

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

    rng = make_rng(seed)
    for _ in range(verify_samples):
        x = sample_coords(rng, m, verify_bound)
        y = sample_coords(rng, m, verify_bound)
        want = omega(x, y)
        got = result(x, y)
        if want != got:
            raise DegreeBoundTooSmall(
                f"fit disagrees with the kernel at ({x}, {y}): "
                f"kernel {want}, polynomial {got}"
            )
    return result
