"""Torsion-free nilpotent groups in polynomial Mal'cev coordinates.

A group of Hirsch length m is described by m multiplication polynomials
p_i over the rationals in variables x1..xm, y1..ym: the product of the
integer tuples x and y is (p_1(x, y), ..., p_m(x, y)).  The laws must be
triangular,

    p_i = x_i + y_i + q_i(x_1..x_{i-1}, y_1..y_{i-1}),

which makes the zero tuple the identity and lets inverses be solved by
back substitution.  `MalcevGroup.validate` proves this and associativity
as polynomial identities, and proves each law integer valued; nothing is
sampled.  Each group object is proved at most once (`MalcevGroup.proof`),
and `MalcevGroup.admit` raises when that proof failed.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Mapping, Sequence

from .errors import NotCentral, ParseError, ValidationError
from .poly import (
    MultiPoly,
    _quoted,
    box_witness,
    poly_from_monomials,
    poly_to_monomials,
    xy_variables,
)
from .validation import CheckResult, ValidationReport, name_blocks

Element = tuple[int, ...]


def symbolic_triple(m: int) -> tuple[list[MultiPoly], ...]:
    """Generic elements x, y, z: their coordinates are the variables x1..zm."""
    names = xy_variables(m, m) + tuple(f"z{i + 1}" for i in range(m))
    return tuple(
        [MultiPoly.variable(names, k * m + i) for i in range(m)] for k in range(3)
    )


@dataclass(frozen=True)
class MalcevGroup:
    """A finitely generated torsion-free nilpotent group with fixed coordinates."""

    hirsch: int
    law: tuple[MultiPoly, ...]
    name: str = ""

    def __post_init__(self):
        if self.hirsch < 1:
            raise ValueError("Hirsch length must be at least 1")
        if len(self.law) != self.hirsch:
            raise ValueError(
                f"need {self.hirsch} law polynomials, got {len(self.law)}"
            )
        expected = xy_variables(self.hirsch, self.hirsch)
        for i, p in enumerate(self.law):
            if p.variables != expected:
                raise ValueError(
                    f"law polynomial {i + 1} must use variables {expected}"
                )

    # ------------------------------------------------------------------
    # elements

    @property
    def identity(self) -> Element:
        return (0,) * self.hirsch

    def element(self, coords: Sequence[int]) -> Element:
        """coords as a tuple of Python ints, each through `operator.index`."""
        coords = tuple(coords)
        if len(coords) != self.hirsch:
            raise ValueError(
                f"element has {len(coords)} coordinates, expected {self.hirsch}"
            )
        try:
            return tuple(map(operator.index, coords))
        except TypeError:
            raise ValueError(f"coordinates must be integers, got {coords!r}") from None

    def basis(self, index: int) -> Element:
        """The index-th (1-based) standard generator a_index."""
        if not 1 <= index <= self.hirsch:
            raise ValueError(f"basis index {index} out of range")
        coords = [0] * self.hirsch
        coords[index - 1] = 1
        return tuple(coords)

    # ------------------------------------------------------------------
    # group operations

    def multiply(self, x: Sequence[int], y: Sequence[int]) -> Element:
        point = self.element(x) + self.element(y)
        return tuple(p.evaluate_int(point) for p in self.law)

    def inverse(self, x: Sequence[int]) -> Element:
        """Solve multiply(x, z) = identity by back substitution.

        Triangularity makes law_i read z only through z_1..z_i, linearly in
        z_i, so one forward pass determines z.  The result is verified with
        a multiplication, which catches non-triangular input laws.
        """
        x = self.element(x)
        z = [0] * self.hirsch
        for i in range(self.hirsch):
            # With z_i still 0 the i-th law evaluates to x_i + z_i + q_i.
            z[i] = -self.law[i].evaluate_int(x + tuple(z))
        inv = tuple(z)
        if self.multiply(x, inv) != self.identity:
            raise ValueError(
                f"inverse failed for {x}; the law is not triangular"
            )
        return inv

    def power(self, x: Sequence[int], k: int) -> Element:
        if k < 0:
            return self.power(self.inverse(x), -k)
        acc = self.identity
        base = self.element(x)
        while k:
            if k & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            k >>= 1
        return acc

    def commutator(self, x: Sequence[int], y: Sequence[int]) -> Element:
        xy = self.multiply(x, y)
        return self.multiply(self.multiply(xy, self.inverse(x)), self.inverse(y))

    # ------------------------------------------------------------------
    # validation

    def multiply_symbolic(self, x: list[MultiPoly], y: list[MultiPoly]) -> list[MultiPoly]:
        """The product of two elements whose coordinates are polynomials."""
        return [p.compose(x + y) for p in self.law]

    def validate(self) -> ValidationReport:
        """Prove the identity laws, triangularity, integrality and associativity.

        Each is decided exactly by `box_witness`, and a failure names an
        integer point that replays it.
        """
        m = self.hirsch
        variables = xy_variables(m, m)
        x, y, z = symbolic_triple(m)
        left = self.multiply_symbolic(self.multiply_symbolic(x, y), z)
        right = self.multiply_symbolic(x, self.multiply_symbolic(y, z))
        checks = []
        for i, p in enumerate(self.law):
            k = i + 1
            # q_k = law_k - x_k - y_k must vanish at x = e and at y = e, and
            # may only read coordinates below k.
            q = p - MultiPoly.variable(variables, i) - MultiPoly.variable(variables, m + i)
            high = {j: 0 for j in range(2 * m) if j % m >= i}
            for kind, what, poly, integral in (
                ("identity-law right", f"law_{k}(x, e) - x{k}",
                 q.substitute({m + j: 0 for j in range(m)}), False),
                ("identity-law left", f"law_{k}(e, y) - y{k}",
                 q.substitute({j: 0 for j in range(m)}), False),
                ("triangularity", f"the part of law_{k} - x{k} - y{k} reading "
                 f"coordinates {k}..{m}", q - q.substitute(high), False),
                ("integrality", f"law_{k}", p, True),
                ("associativity", f"((x*y)*z)_{k} - (x*(y*z))_{k}", left[i] - right[i], False),
            ):
                found = box_witness(poly, integral)
                bad = found and (
                    f"{what} = {poly}, which is {found[1]} at {name_blocks(found[0], m)}"
                )
                checks.append(CheckResult(f"{kind} (law {k})", bad))
        return ValidationReport(self.name or f"group(hirsch={self.hirsch})", tuple(checks))

    @cached_property
    def proof(self) -> ValidationReport:
        """`validate`'s report on this group, computed once."""
        return self.validate()

    def admit(self) -> None:
        """Raise ValidationError, with the failed checks' witnesses, unless `proof` passed."""
        if not self.proof.ok:
            raise ValidationError(
                "the group law failed its proof:\n" + self.proof.summary(), self.proof
            )

    # ------------------------------------------------------------------
    # quotient

    def quotient_by_last(self) -> "MalcevGroup":
        """Quotient by the central subgroup generated by the last basis vector."""
        m = self.hirsch
        if m < 2:
            raise ValueError("quotient needs Hirsch length at least 2")
        last = self.basis(m)
        for i in range(1, m):
            c = self.commutator(last, self.basis(i))
            if c != self.identity:
                raise NotCentral(
                    f"[a_{m}, a_{i}] = {c}; the last basis vector is not central"
                )
        new_vars = xy_variables(m - 1, m - 1)
        keep = list(range(m - 1)) + list(range(m, 2 * m - 1))
        squash = {m - 1: 0, 2 * m - 1: 0}
        new_law = tuple(
            p.substitute(squash).project(keep, new_vars) for p in self.law[: m - 1]
        )
        return MalcevGroup(m - 1, new_law, name=f"{self.name}/center" if self.name else "")

    # ------------------------------------------------------------------
    # documents

    def to_document(self) -> dict:
        m = self.hirsch
        return {
            "name": self.name,
            "hirsch": m,
            "law": [poly_to_monomials(p, m, m) for p in self.law],
        }


@cache
def lattice(m: int) -> MalcevGroup:
    """The free abelian group Z^m with componentwise addition, one object per m."""
    variables = xy_variables(m, m)
    law = tuple(
        MultiPoly.variable(variables, i) + MultiPoly.variable(variables, m + i)
        for i in range(m)
    )
    return MalcevGroup(m, law, name=f"lattice:{m}")


def _document_name(doc: Mapping, kind: str) -> str:
    """doc's optional "name", which reports write as it is: a printable string."""
    name = doc.get("name", "")
    if not (isinstance(name, str) and name.isprintable()):
        raise ParseError(f"{kind} name must be a printable string, got {_quoted(name)}")
    return name


def from_document(doc: Mapping) -> MalcevGroup:
    """Build a group from its JSON document; raise ValidationError unless it is admitted."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"group document must be an object, got {type(doc).__name__}")
    try:
        hirsch = doc["hirsch"]
        law_docs = doc["law"]
    except KeyError as exc:
        raise ParseError(f"group document missing key {exc}") from exc
    if not isinstance(hirsch, int) or isinstance(hirsch, bool) or hirsch < 1:
        raise ParseError(f"hirsch must be a positive integer, got {_quoted(hirsch)}")
    if not isinstance(law_docs, list) or len(law_docs) != hirsch:
        raise ParseError(f"law must be a list of {hirsch} polynomials")
    law = tuple(poly_from_monomials(p, hirsch, hirsch) for p in law_docs)
    group = MalcevGroup(hirsch, law, name=_document_name(doc, "group"))
    group.admit()
    return group


def read_json_document(path) -> object:
    """The JSON document at path; ParseError names path and why it cannot be read.

    That is where invalid JSON breaks, the first byte that is not UTF-8,
    nesting past the recursion limit, or an integer past the digit limit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as exc:  # an integer literal past the digit limit
            raise ParseError(f"{path}: {exc}") from exc


def load_group(path) -> MalcevGroup:
    """Read and validate a JSON group document from disk."""
    return from_document(read_json_document(path))
