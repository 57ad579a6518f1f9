"""Seeded sampling: the coordinate stream is `random.Random.randint`'s."""

from __future__ import annotations

import random

import pytest

from nilstab.validation import make_rng, sample_coords


@pytest.mark.parametrize("bound", [1, 3, 7, 100, 2**40])
def test_sample_coords_draw_the_randint_stream(bound):
    # Sweeps and sampled checks print what these draws give, so the fast
    # draw must reproduce randint's values and leave the generator in the
    # same state, seed by seed.
    for seed in [0, 1, 7, 0x1715, 2**64 + 3]:
        rng, reference = make_rng(seed), random.Random(seed)
        for length in (1, 2, 3, 5):
            drawn = sample_coords(rng, length, bound)
            assert drawn == tuple(reference.randint(-bound, bound) for _ in range(length))
        assert rng.getstate() == reference.getstate()


def test_sample_coords_refuse_a_bound_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        sample_coords(make_rng(1), 3, 0)
