"""Builtin objects and the name resolution used by the command line."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from nilstab.catalog import (
    character_representation,
    heisenberg3,
    heisenberg_c1,
    heisenberg_extension,
    heisenberg_skinny,
    resolve_cocycle,
    resolve_cycle,
    resolve_group,
    voiculescu_cycle,
    z2_skinny,
    zero_cocycle,
)
from nilstab.cohomology import KernelCocycle, is_cycle, pair_cocycle_cycle
from nilstab.errors import ParseError
from nilstab.groups import lattice
from nilstab.validation import make_rng


def test_builtin_constructors_are_cached():
    assert heisenberg3() is heisenberg3()
    assert z2_skinny() is z2_skinny()
    assert heisenberg_skinny() is heisenberg_skinny()


def test_the_heisenberg_cocycle_is_built_without_sampling(monkeypatch):
    # Derived and proved symbolically from cold caches: no kernel is
    # evaluated and no random generator is made.
    calls = {"kernel": 0, "rng": 0}
    kernel_call = KernelCocycle.__call__

    def counted_kernel(self, x, y):
        calls["kernel"] += 1
        return kernel_call(self, x, y)

    def counted_rng(seed):
        calls["rng"] += 1
        return make_rng(seed)

    monkeypatch.setattr(KernelCocycle, "__call__", counted_kernel)
    for name, module in list(sys.modules.items()):  # every binding of make_rng
        if name.split(".")[0] == "nilstab" and getattr(module, "make_rng", None) is make_rng:
            monkeypatch.setattr(module, "make_rng", counted_rng)
    for builder in (heisenberg_skinny, heisenberg_extension, z2_skinny):
        builder.cache_clear()
    sigma = heisenberg_skinny()
    assert calls == {"kernel": 0, "rng": 0}
    assert str(sigma.poly) == "-1/2*x2*y1^2 - 1/2*x2*y1 - x3*y1"


def test_builtin_names():
    assert heisenberg3().name == "heisenberg3"
    assert z2_skinny().name == "z2_skinny"
    assert heisenberg_skinny().name == "heisenberg_skinny"
    assert lattice(4).name == "lattice:4"


def test_heisenberg_extension_glues_the_builtin_pieces():
    ext = heisenberg_extension()
    assert ext.base == lattice(2)
    assert ext.total == heisenberg3()
    assert ext.cocycle is z2_skinny()


def test_builtin_cycles_are_cycles():
    assert is_cycle(lattice(2), voiculescu_cycle())
    assert is_cycle(heisenberg3(), heisenberg_c1())
    assert pair_cocycle_cycle(z2_skinny(), voiculescu_cycle()) == 1
    assert pair_cocycle_cycle(heisenberg_skinny(), heisenberg_c1()) == 1


def test_zero_cocycle_vanishes():
    zero = zero_cocycle(heisenberg3())
    assert zero((1, 2, 3), (4, 5, 6)) == 0
    assert zero.poly.is_zero()


def test_character_representation_is_exactly_multiplicative():
    rep = character_representation([[0.25, 0.5], [0.125, 0.75]])
    x, y = (3, -2), (1, 5)
    product = rep(x) @ rep(y)
    together = rep((x[0] + y[0], x[1] + y[1]))
    assert np.max(np.abs(product - together)) < 1e-12
    assert np.max(np.abs(rep((0, 0)) - np.eye(2))) == 0.0
    assert np.max(np.abs(rep(x) @ rep(x).conj().T - np.eye(2))) < 1e-14


def test_resolve_group_builtin_names():
    assert resolve_group("heisenberg3") is heisenberg3()
    assert resolve_group("builtin:heisenberg3") is heisenberg3()
    assert resolve_group("lattice:3").law == lattice(3).law
    assert resolve_group("builtin:lattice:3").law == lattice(3).law
    with pytest.raises(ParseError):
        resolve_group("lattice:zero")
    with pytest.raises(ParseError):
        resolve_group("lattice:0")
    with pytest.raises(FileNotFoundError):
        resolve_group("no-such-group")


def test_resolve_group_reads_documents(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(lattice(2).to_document()))
    group = resolve_group(str(path))
    assert group.law == lattice(2).law
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ParseError, match="line 1"):
        resolve_group(str(bad))


def test_resolve_cocycle_builtin_names():
    assert resolve_cocycle("z2_skinny", lattice(2)) is z2_skinny()
    assert resolve_cocycle("builtin:z2_skinny", lattice(2)) is z2_skinny()
    assert resolve_cocycle("heisenberg_skinny", heisenberg3()) is heisenberg_skinny()
    assert resolve_cocycle("zero", lattice(3)).poly.is_zero()
    with pytest.raises(ParseError, match="lattice:2"):
        resolve_cocycle("z2_skinny", heisenberg3())
    with pytest.raises(ParseError, match="heisenberg3"):
        resolve_cocycle("heisenberg_skinny", lattice(2))


def test_resolve_cocycle_reads_documents(tmp_path):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(z2_skinny().to_document()))
    sigma = resolve_cocycle(str(path), lattice(2))
    assert sigma.poly == z2_skinny().poly
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ParseError, match="line 1"):
        resolve_cocycle(str(bad), lattice(2))


def test_resolve_cycle_builtin_names_and_documents(tmp_path):
    assert resolve_cycle("voiculescu", lattice(2)) == voiculescu_cycle()
    assert resolve_cycle("heisenberg_c1", heisenberg3()) == heisenberg_c1()
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(voiculescu_cycle().to_json()))
    assert resolve_cycle(str(path), lattice(2)) == voiculescu_cycle()
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ParseError, match="line 1"):
        resolve_cycle(str(bad), lattice(2))


def test_resolve_cycle_checks_coordinate_lengths():
    with pytest.raises(ParseError, match="coordinates"):
        resolve_cycle("voiculescu", heisenberg3())
    with pytest.raises(ParseError, match="coordinates"):
        resolve_cycle("heisenberg_c1", lattice(2))
