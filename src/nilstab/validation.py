"""Check reports and seeded sampling shared by the validators.

Polynomial laws and cocycles are proved exactly; only cocycles given by a
kernel function are sampled, and sampled checks are falsification
searches, not proofs.  Every failure is recorded with a concrete integer
witness so it can be replayed.  All sampling is driven by `random.Random`
with an explicit seed, so a rerun with the same inputs reproduces the same
report byte for byte.  Every sampled check on a kernel follows one plan
(`sample_plan`): SAMPLES draws from `make_rng(DEFAULT_SEED)`, each
coordinate in [-SAMPLE_BOUND, SAMPLE_BOUND].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

# Fixed default so sampled checks reproduce across runs.  (The project
# convention is one shared seed everywhere unless a caller overrides it.)
DEFAULT_SEED = 0x1715

# The one sample plan of every sampled check on a kernel cocycle.
SAMPLES = 500
SAMPLE_BOUND = 3


@dataclass(frozen=True)
class CheckResult:
    """A named check and its failure witness; it passed when there is none."""

    name: str
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation suite; failures are data, not exceptions."""

    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [f"{self.subject}: {'ok' if self.ok else 'FAILED'}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if not c.passed:
                line += f" -- {c.witness}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def sample_coords(rng: random.Random, length: int, bound: int) -> tuple[int, ...]:
    """A uniform integer tuple with every coordinate in [-bound, bound].

    Each coordinate is `rng.randint(-bound, bound)`, drawn as randint
    draws it: k = (2 bound + 1).bit_length() random bits, redrawn until
    they are below 2 bound + 1, minus bound.  The same stream, without
    randint's per-call argument handling.
    """
    if bound < 1:
        raise ValueError("sampling bound must be at least 1")
    width = 2 * bound + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    coords = []
    for _ in range(length):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        coords.append(r - bound)
    return tuple(coords)


def sample_plan(*lengths: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """SAMPLES draws, each one coordinate tuple per length, in that order.

    The stream is `sample_coords(make_rng(DEFAULT_SEED), length,
    SAMPLE_BOUND)` for each length in turn, draw after draw; a length of 0
    draws nothing and gives ().
    """
    rng = make_rng(DEFAULT_SEED)
    for _ in range(SAMPLES):
        yield tuple(sample_coords(rng, length, SAMPLE_BOUND) for length in lengths)


def name_blocks(point: Sequence[int], length: int) -> str:
    """'x=(..), y=(..)': a witness point cut into blocks x, y, z of `length`."""
    names = "xyz"[: len(point) // length]
    return ", ".join(
        f"{name}={tuple(point[k * length:(k + 1) * length])}" for k, name in enumerate(names)
    )
