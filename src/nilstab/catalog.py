"""Built-in groups, cocycles, cycles, and demo representations.

Everything here is constructed from the library's own operations (the
discrete Heisenberg group is the central extension of the rank-2 lattice
by the cocycle x2*y1, and its skinny cocycle is the promotion of x2*y1,
derived in closed form and proved), so these objects double as end-to-end
exercises of the package.  Only the Heisenberg builders import
`nilstab.extensions`, when called, so the lattice builtins never load it.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Callable, Sequence

from .cohomology import Chain2, PolyCocycle, cocycle_from_document
from .errors import ParseError
from .groups import MalcevGroup, lattice, load_group, read_json_document
from .poly import MultiPoly, _int_literal, xy_variables

if TYPE_CHECKING:
    import numpy as np

    from .extensions import CentralExtension

@cache
def z2_skinny() -> PolyCocycle:
    """The cocycle x2*y1 on the rank-2 lattice (the shift/clock cocycle)."""
    group = lattice(2)
    poly = MultiPoly(xy_variables(2, 1), {(0, 1, 1): 1})
    return PolyCocycle(group, poly, name="z2_skinny")


@cache
def heisenberg_extension() -> CentralExtension:
    """The rank-2 lattice extended by x2*y1: the discrete Heisenberg group."""
    from .extensions import central_extension
    return central_extension(lattice(2), z2_skinny(), name="heisenberg3")


def heisenberg3() -> MalcevGroup:
    return heisenberg_extension().total


@cache
def heisenberg_skinny() -> PolyCocycle:
    """Polynomial skinny cocycle on the Heisenberg group pairing 1 with c_1.

    Built live: `promoted_cocycle` derives the promotion of the lattice
    cocycle x2*y1 in closed form and proves it an integer valued skinny
    cocycle pairing 1 with c_1, raising if any proof fails; no kernel is
    evaluated and nothing is sampled.  The result is
    -x3*y1 - x2*(y1^2 + y1)/2, so its coefficient denominator is 2 and
    phase-shift representations exist exactly at odd matrix sizes.  It is
    named here, so that its one proof is reported under that name.
    """
    from .extensions import promoted_cocycle
    return promoted_cocycle(heisenberg_extension(), name="heisenberg_skinny")


def zero_cocycle(group: MalcevGroup) -> PolyCocycle:
    return PolyCocycle(
        group, MultiPoly.zero(xy_variables(group.hirsch, 1)), name="zero"
    )


def voiculescu_cycle() -> Chain2:
    """[(0,1)|(1,0)] - [(1,0)|(0,1)] on the rank-2 lattice."""
    return Chain2.build([(1, (0, 1), (1, 0)), (-1, (1, 0), (0, 1))])


def heisenberg_c1() -> Chain2:
    from .extensions import central_commutator_cycle
    return central_commutator_cycle(heisenberg_extension(), 1)


def character_representation(
    exponents: Sequence[Sequence[float]],
) -> Callable[[Sequence[int]], np.ndarray]:
    """Direct sum of lattice characters g -> exp(2 pi i <theta_k, g>).

    A genuine (exactly multiplicative) diagonal representation of Z^m,
    one dimension per row of `exponents`.  It is dense, so it needs numpy.
    """
    import numpy as np

    table = np.asarray(exponents, dtype=float)

    def rep(g: Sequence[int]) -> np.ndarray:
        phases = np.exp(2j * np.pi * (table @ np.asarray(g, dtype=float)))
        return np.diag(phases)

    return rep


# ----------------------------------------------------------------------
# name resolution for the command line


def resolve_group(source: str) -> MalcevGroup:
    """A builtin name (lattice:m, heisenberg3) or a path to a JSON document."""
    name = _strip_builtin(source)
    if name == "heisenberg3":
        return heisenberg3()
    if name.startswith("lattice:"):
        m = _int_literal(name.split(":", 1)[1], "lattice rank")
        if m < 1:
            raise ParseError("lattice rank must be positive")
        return lattice(m)
    return load_group(source)


def _strip_builtin(source: str) -> str:
    return source.split(":", 1)[1] if source.startswith("builtin:") else source


def resolve_cocycle(source: str, group: MalcevGroup) -> PolyCocycle:
    """A builtin name (z2_skinny, heisenberg_skinny, zero) or a JSON path."""
    name = _strip_builtin(source)
    if name == "zero":
        return zero_cocycle(group)
    if name == "z2_skinny":
        if group != lattice(2):
            raise ParseError("z2_skinny lives on the group lattice:2")
        return z2_skinny()
    if name == "heisenberg_skinny":
        if group != heisenberg3():
            raise ParseError("heisenberg_skinny lives on the group heisenberg3")
        return heisenberg_skinny()
    return cocycle_from_document(group, read_json_document(source))


def resolve_cycle(source: str, group: MalcevGroup) -> Chain2:
    """A builtin name (voiculescu, heisenberg_c1) or a JSON path."""
    name = _strip_builtin(source)
    if name == "voiculescu":
        chain = voiculescu_cycle()
    elif name == "heisenberg_c1":
        chain = heisenberg_c1()
    else:
        chain = Chain2.from_json(read_json_document(source))
    for index, (_, a, b) in enumerate(chain.terms):
        for side, g in (("a", a), ("b", b)):
            if len(g) != group.hirsch:
                raise ParseError(
                    f"cycle term {index}: {side} has {len(g)} coordinates but "
                    f"the group needs {group.hirsch}"
                )
    return chain
