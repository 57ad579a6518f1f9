"""Shared helpers: a third boundary map, unitary factories, a witness parser.

The helpers here are deliberately written against the public definitions
rather than against library internals, so they can serve as oracles.
"""

from __future__ import annotations

import ast
import re

import numpy as np

from nilstab.cohomology import Chain2
from nilstab.groups import MalcevGroup


def boundary3(group: MalcevGroup, triples) -> Chain2:
    """d[a|b|c] = [b|c] - [ab|c] + [a|bc] - [a|b], extended linearly.

    The output of this map is always a 2-cycle, and every 2-cocycle pairs
    to zero against it; tests use both facts.
    """
    terms = []
    for coef, a, b, c in triples:
        a, b, c = group.element(a), group.element(b), group.element(c)
        terms.append((coef, b, c))
        terms.append((-coef, group.multiply(a, b), c))
        terms.append((coef, a, group.multiply(b, c)))
        terms.append((-coef, a, b))
    return Chain2.build(terms)


def random_unitary_near_identity(
    rng: np.random.Generator, dim: int, radius: float
) -> np.ndarray:
    """exp(S) for a random skew-adjoint S of operator norm exactly `radius`.

    ||exp(S) - I|| <= ||S|| for skew-adjoint S, so the result stays within
    `radius` of the identity.
    """
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = (raw - raw.conj().T) / 2
    top = np.max(np.abs(np.linalg.eigvalsh(1j * skew)))
    skew *= radius / top
    return exact_expm(skew)


def exact_expm(matrix: np.ndarray) -> np.ndarray:
    """Reference exponential via the Hermitian spectral theorem.

    Only valid for skew-adjoint input; written out here so that the
    library's `matrix_exp` is checked against the definition, not itself.
    """
    herm = 1j * matrix
    eigenvalues, vectors = np.linalg.eigh(herm)
    return (vectors * np.exp(-1j * eigenvalues)) @ vectors.conj().T


def witness_blocks(witness: str) -> dict[str, tuple[int, ...]]:
    """The integer blocks named in a witness, e.g. 'x=(1, 0), y=(0, 2)'."""
    return {
        name: ast.literal_eval(block)
        for name, block in re.findall(r"\b([xyz])=(\([-\d, ]*\))", witness)
    }
