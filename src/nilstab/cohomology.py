"""Integer 2-cocycles, chains, boundaries, and the cocycle/cycle pairing.

Conventions.  A normalized 2-cocycle sigma on a group G satisfies

    sigma(y, z) - sigma(x*y, z) + sigma(x, y*z) - sigma(x, y) = 0,
    sigma(e, y) = sigma(x, e) = 0.

The boundary of a 2-chain term [a|b] is [b] - [a*b] + [a], and the pairing
of a cocycle with a 2-chain sum(coef_j * [a_j|b_j]) is
sum(coef_j * sigma(a_j, b_j)).

A cocycle is "skinny" with respect to a homomorphism alpha: G -> Z when
its value at (x, y) depends on y only through alpha(y) and it vanishes on
ker(alpha) x ker(alpha).  Here alpha is always the first Mal'cev
coordinate, alpha(x) = x_1, the homomorphism the phase-shift family rho_n
shifts the basis by.  Skinny cocycles with a polynomial kernel are
represented by a polynomial in x_1..x_m and the single variable y1, read
as alpha(y).  Such a PolyCocycle is proved once, when first used
(`PolyCocycle.proof`), as is its group (`MalcevGroup.proof`), and every
consumer of its phase-shift family admits it only once both proofs pass
(`PolyCocycle.admit`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import InvalidCocycle, NonIntegralValue, ParseError
from .groups import Element, MalcevGroup, _document_name, symbolic_triple
from .poly import (
    MultiPoly,
    _decode_json_int,
    _encode_json_int,
    _quoted,
    box_witness,
    poly_from_monomials,
    poly_to_monomials,
    xy_variables,
)
from .validation import (
    CheckResult,
    SAMPLES,
    ValidationReport,
    name_blocks,
    sample_plan,
)


class PolyCocycle:
    """A skinny cocycle given by a polynomial p(x_1..x_m, y1), y1 = alpha(y).

    The polynomial may have rational coefficients but must take integer
    values on integer points; evaluation raises NonIntegralValue otherwise.
    `proof` is its `cocycle_check` report, computed at most once.
    """

    def __init__(self, group: MalcevGroup, poly: MultiPoly, name: str = ""):
        expected = xy_variables(group.hirsch, 1)
        if poly.variables != expected:
            raise ValueError(f"cocycle polynomial must use variables {expected}")
        self.group = group
        self.poly = poly
        self.name = name or str(poly)

    def __call__(self, x: Sequence[int], y: Sequence[int]) -> int:
        x = self.group.element(x)
        y = self.group.element(y)
        return self.poly.evaluate_int(x + (y[0],))

    def scale(self, k: int) -> "PolyCocycle":
        return PolyCocycle(self.group, k * self.poly, name=f"{k}*({self.name})")

    def as_kernel(self) -> "KernelCocycle":
        return KernelCocycle(self.group, self.__call__, name=self.name)

    @cached_property
    def proof(self) -> ValidationReport:
        """`cocycle_check`'s exact report on this cocycle, computed once."""
        return cocycle_check(self)

    def admit(self) -> None:
        """Raise unless the group law's and this cocycle's proofs passed.

        ValidationError, with the failed checks' witnesses, when the group
        law fails its proof (`MalcevGroup.admit`), and then InvalidCocycle
        when the cocycle fails `proof`.  An admitted cocycle's group law is
        triangular and satisfies the identity laws, so law_1 = x1 + y1
        exactly.  The cocycle is normalized and integer valued, and its
        cocycle identity at z = (t, 0, ..., 0) reads, for every x, y and t,

            p(x*y, t) - p(y, t) - p(x, t + y1) = -sigma(x, y).

        Skinniness needs no further check: the kernel condition
        p(0, x2..xm, 0) = 0 is a case of p(x, 0) = 0.
        """
        self.group.admit()
        if not self.proof.ok:
            raise InvalidCocycle("the cocycle failed its proof:\n" + self.proof.summary())

    @cached_property
    def newton(self) -> list[MultiPoly]:
        """The q_k with p(x, y1) = sum_k q_k(x) C(y1, k), so q_k(x) = Delta^k p(x, 0).

        Each q_k is free of y1.  For an integer valued cocycle every q_k(x)
        at integer x is an integer (Polya), whatever its coefficients.
        """
        return self.poly.newton_coefficients(self.group.hirsch)

    def to_document(self) -> dict:
        return {
            "name": self.name,
            "hirsch": self.group.hirsch,
            "poly": poly_to_monomials(self.poly, self.group.hirsch, 1),
        }

    def __repr__(self) -> str:
        return f"PolyCocycle({self.name!r} on {self.group.name or 'group'})"


class KernelCocycle:
    """A cocycle given by a kernel function; each value passes `operator.index`."""

    def __init__(
        self,
        group: MalcevGroup,
        fn: Callable[[Element, Element], int],
        name: str = "",
    ):
        self.group = group
        self.fn = fn
        self.name = name or "kernel cocycle"

    def __call__(self, x: Sequence[int], y: Sequence[int]) -> int:
        value = self.fn(self.group.element(x), self.group.element(y))
        try:
            return operator.index(value)
        except TypeError:
            raise NonIntegralValue(f"kernel returned non-integer {value!r}") from None

    def scale(self, k: int) -> "KernelCocycle":
        return KernelCocycle(
            self.group, lambda x, y: k * self.fn(x, y), name=f"{k}*({self.name})"
        )

    def __repr__(self) -> str:
        return f"KernelCocycle({self.name!r} on {self.group.name or 'group'})"


Cocycle = Union[PolyCocycle, KernelCocycle]


def cocycle_from_document(group: MalcevGroup, doc: Mapping) -> PolyCocycle:
    if not isinstance(doc, Mapping):
        raise ParseError("cocycle document must be an object")
    try:
        poly_doc = doc["poly"]
    except KeyError as exc:
        raise ParseError(f"cocycle document missing key {exc}") from exc
    hirsch = doc.get("hirsch", group.hirsch)
    if not isinstance(hirsch, int) or isinstance(hirsch, bool):
        raise ParseError(f"hirsch must be an integer, got {_quoted(hirsch)}")
    if hirsch != group.hirsch:
        raise ParseError(
            f"cocycle is for Hirsch length {hirsch}, group has {group.hirsch}"
        )
    poly = poly_from_monomials(poly_doc, group.hirsch, 1)
    return PolyCocycle(group, poly, name=_document_name(doc, "cocycle"))


def coboundary(group: MalcevGroup, f: Callable[[Element], int]) -> KernelCocycle:
    """The 2-coboundary (x, y) -> f(y) - f(x*y) + f(x) of a 1-cochain."""

    def eval_cb(x: Element, y: Element) -> int:
        return f(y) - f(group.multiply(x, y)) + f(x)

    return KernelCocycle(group, eval_cb, name="coboundary")


# ----------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class Chain2:
    """A finite integer combination of bar 2-simplices [a|b]."""

    terms: tuple[tuple[int, Element, Element], ...]

    @classmethod
    def build(cls, terms: Iterable[tuple[int, Sequence[int], Sequence[int]]]) -> "Chain2":
        """The nonzero terms, each coefficient and coordinate through `operator.index`."""
        clean = []
        for coef, a, b in terms:
            if coef := operator.index(coef):
                clean.append((coef, tuple(map(operator.index, a)), tuple(map(operator.index, b))))
        return cls(tuple(clean))

    def support(self, group: MalcevGroup) -> list[Element]:
        """Every element whose unitary the pairing needs: a, b, and a*b."""
        seen: dict[Element, None] = {}
        for _, a, b in self.terms:
            for g in (a, b, group.multiply(a, b)):
                seen.setdefault(g, None)
        return list(seen)

    def to_json(self) -> list[dict]:
        """Integers past 64 bits as decimal strings (`poly._encode_json_int`)."""
        return [
            {
                "coef": _encode_json_int(c),
                "a": [*map(_encode_json_int, a)],
                "b": [*map(_encode_json_int, b)],
            }
            for c, a, b in self.terms
        ]

    @classmethod
    def from_json(cls, doc) -> "Chain2":
        if not isinstance(doc, list):
            raise ParseError("chain document must be a list of terms")
        terms = []
        for entry in doc:
            if not isinstance(entry, Mapping):
                raise ParseError(f"chain term must be an object, got {_quoted(entry)}")
            try:
                coef, a, b = entry["coef"], entry["a"], entry["b"]
            except KeyError as exc:
                raise ParseError(f"chain term missing key {exc}") from exc
            if not (isinstance(a, list) and isinstance(b, list)):
                raise ParseError(
                    f"chain term coordinates must be lists, got {_quoted(a)} and {_quoted(b)}"
                )
            a, b = (tuple(_decode_json_int(v) for v in g) for g in (a, b))
            terms.append((_decode_json_int(coef), a, b))
        return cls.build(terms)


def boundary2(group: MalcevGroup, chain: Chain2) -> tuple[tuple[int, Element], ...]:
    """Bar boundary: each [a|b] contributes [b] - [a*b] + [a].

    Returns the sorted nonzero (coef, element) terms; a cycle's is ().
    """
    acc: dict[Element, int] = {}
    for coef, a, b in chain.terms:
        ab = group.multiply(a, b)
        for g, c in ((b, coef), (ab, -coef), (a, coef)):
            acc[g] = acc.get(g, 0) + c
    return tuple(sorted((c, g) for g, c in acc.items() if c != 0))


def is_cycle(group: MalcevGroup, chain: Chain2) -> bool:
    return not boundary2(group, chain)


def pair_cocycle_cycle(sigma: Cocycle, chain: Chain2) -> int:
    """Exact integer pairing sum(coef_j * sigma(a_j, b_j))."""
    return sum(coef * sigma(a, b) for coef, a, b in chain.terms)


# ----------------------------------------------------------------------
# checks


def cocycle_check(sigma: Cocycle) -> ValidationReport:
    """Normalization and the cocycle identity, proved or, for a kernel, sampled.

    For a PolyCocycle p(x, y1) both are polynomial identities, in generic
    x, y and z for the cocycle identity, and p is proved integer valued
    (see `poly.box_witness`).  A KernelCocycle has no polynomial, so it is
    checked on the SAMPLES draws of `validation.sample_plan`.
    """
    if isinstance(sigma, PolyCocycle):
        return _prove_poly_cocycle(sigma)

    group = sigma.group
    m = group.hirsch
    e = group.identity
    norm_bad = None
    ident_bad = None
    for x, y, z in sample_plan(m, m, m):
        if norm_bad is None:
            if sigma(e, y) != 0:
                norm_bad = f"sigma(e, {y}) = {sigma(e, y)}"
            elif sigma(x, e) != 0:
                norm_bad = f"sigma({x}, e) = {sigma(x, e)}"
        if ident_bad is None:
            xy = group.multiply(x, y)
            yz = group.multiply(y, z)
            defect = sigma(y, z) - sigma(xy, z) + sigma(x, yz) - sigma(x, y)
            if defect != 0:
                ident_bad = f"defect {defect} at x={x}, y={y}, z={z}"
    return ValidationReport(
        f"cocycle {sigma.name}",
        (
            CheckResult(f"normalization on {SAMPLES} samples", norm_bad),
            CheckResult(f"cocycle identity on {SAMPLES} sampled triples", ident_bad),
        ),
    )


def _prove_poly_cocycle(sigma: PolyCocycle) -> ValidationReport:
    """Each failure names an integer point that replays it (`box_witness`)."""
    group, p = sigma.group, sigma.poly
    m = group.hirsch
    lift = (0,) * (m - 1)  # y = (y1, 0, ..., 0) has alpha(y) = y1

    norm_bad = None
    found = box_witness(p.substitute({i: 0 for i in range(m)}))
    if found:
        norm_bad = f"sigma(e, {found[0][m:] + lift}) = {found[1]}"
    elif found := box_witness(p.substitute({m: 0})):
        norm_bad = f"sigma({found[0][:m]}, e) = {found[1]}"

    x, y, z = symbolic_triple(m)
    xy = group.multiply_symbolic(x, y)
    yz_1 = group.multiply_symbolic(y, z)[0]
    defect = (
        p.compose(y + z[:1]) - p.compose(xy + z[:1])
        + p.compose(x + [yz_1]) - p.compose(x + y[:1])
    )
    found = box_witness(defect)
    ident_bad = found and (
        f"defect {defect} is {found[1]} at {name_blocks(found[0], m)}"
    )

    found = box_witness(p, integral=True)
    integral_bad = found and f"sigma({found[0][:m]}, {found[0][m:] + lift}) = {found[1]}"
    return ValidationReport(
        f"cocycle {sigma.name}",
        (
            CheckResult("normalization (exact)", norm_bad),
            CheckResult("cocycle identity (exact)", ident_bad),
            CheckResult("integrality (exact)", integral_bad),
        ),
    )


def skinny_check(sigma: Cocycle) -> ValidationReport:
    """Check that sigma factors through (x, alpha(y)) and kills ker x ker.

    alpha is the first coordinate.  A PolyCocycle reads y only through
    y1 = alpha(y), so it factors by construction, and p(0, x2..xm, 0) = 0
    is proved as a polynomial identity.  A KernelCocycle is checked on the
    SAMPLES draws of `validation.sample_plan` instead: each draw compares
    sigma(x, y) with sigma(x, y') for a y' that keeps y1 and redraws the
    rest, and tests sigma on the kernel pair (0, x2..xm), (0, y2..ym).
    """
    group = sigma.group
    m = group.hirsch
    dep_bad = None
    ker_bad = None
    if isinstance(sigma, PolyCocycle):
        found = box_witness(sigma.poly.substitute({0: 0, m: 0}))
        if found:
            ker_bad = f"sigma({found[0][:m]}, {group.identity}) = {found[1]} on kernel pair"
        how = "exact"
    else:
        for x, y, tail in sample_plan(m, m, m - 1):
            y_alt = (y[0],) + tail
            if dep_bad is None and sigma(x, y) != sigma(x, y_alt):
                dep_bad = (
                    f"sigma({x}, {y}) = {sigma(x, y)} but "
                    f"sigma({x}, {y_alt}) = {sigma(x, y_alt)} with equal alpha"
                )
            kx = (0,) + x[1:]
            ky = (0,) + y[1:]
            if ker_bad is None and sigma(kx, ky) != 0:
                ker_bad = f"sigma({kx}, {ky}) = {sigma(kx, ky)} on kernel pair"
        how = f"{SAMPLES} samples"
    return ValidationReport(
        f"skinny {sigma.name}",
        (
            CheckResult(f"value depends only on (x, alpha(y)) ({how})", dep_bad),
            CheckResult(f"vanishes on ker(alpha) x ker(alpha) ({how})", ker_bad),
        ),
    )
