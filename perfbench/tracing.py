"""In-memory span tracing of nilstab's layers for one benchmark session.

`Tracer.install` replaces each public function listed in TARGETS with a
recording wrapper at every place it is bound: the defining module, every
other nilstab module that imported the name directly (`cli`,
`obstruction`, `catalog` and the package itself do), and the class for
methods.  Each call becomes one span: name, start, end, parent span and,
where the call concerns a single matrix size, that size `n`.  Spans live in
compact arrays until the session ends, when `write` saves them and
`summary` turns them into per-layer counts, self times and inclusive times.

Self time is a span's duration minus the durations of its direct children,
so it is the time spent in that layer's own code.  No traced function calls
itself, directly or through another traced function of the same name, so
inclusive time is the plain sum of span durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections.abc import Mapping

import numpy as np


def _matrix_size(matrix, *args, **kwargs):
    return int(np.shape(matrix)[0])


def _size_arg(first, n, *args, **kwargs):
    return int(n)


def _phase_shift_size(self, *args, **kwargs):
    return int(self.n)


def _family_size(rho, *args, **kwargs):
    if isinstance(rho, Mapping) and rho:
        return int(np.shape(next(iter(rho.values())))[0])
    return -1


def _single_size(group, sigma, chain, n_list, *args, **kwargs):
    sizes = set(n_list)
    return int(sizes.pop()) if len(sizes) == 1 else -1


# (span name, module, attribute path, size of the call or None).  Spans
# with a size are also summarised per size, as <metric>.n<size>; layers
# without a size extractor record n = -1 ("no single size").
TARGETS = (
    ("poly.evaluate", "nilstab.poly", "MultiPoly.evaluate", None),
    ("groups.multiply", "nilstab.groups", "MalcevGroup.multiply", None),
    ("groups.inverse", "nilstab.groups", "MalcevGroup.inverse", None),
    ("groups.validate", "nilstab.groups", "MalcevGroup.validate", None),
    ("cohomology.kernel_eval", "nilstab.cohomology", "KernelCocycle.__call__", None),
    ("cohomology.cocycle_check", "nilstab.cohomology", "cocycle_check", None),
    ("cohomology.skinny_check", "nilstab.cohomology", "skinny_check", None),
    ("extensions.central_extension", "nilstab.extensions", "central_extension", None),
    ("extensions.interpolate", "nilstab.extensions", "interpolate_polynomial_cocycle", None),
    ("catalog.resolve", "nilstab.catalog", "resolve_group", None),
    ("catalog.resolve", "nilstab.catalog", "resolve_cocycle", None),
    ("catalog.resolve", "nilstab.catalog", "resolve_cycle", None),
    ("representation.build_rho", "nilstab.representation", "build_rho", _size_arg),
    ("representation.to_dense", "nilstab.representation", "PhaseShiftMatrix.to_dense",
     _phase_shift_size),
    ("representation.operator_norm", "nilstab.representation", "operator_norm", _matrix_size),
    ("representation.defect", "nilstab.representation", "defect", _size_arg),
    ("obstruction.winding_pairing", "nilstab.obstruction", "winding_pairing", _family_size),
    ("obstruction.matrix_log", "nilstab.obstruction", "matrix_log_near_identity", _matrix_size),
    ("obstruction.matrix_exp", "nilstab.obstruction", "matrix_exp", _matrix_size),
    ("obstruction.certify", "nilstab.obstruction", "certify_nonperturbability", _single_size),
    ("obstruction.null_test", "nilstab.obstruction", "perturbation_null_test", None),
    ("cli.validate", "nilstab.cli", "validate.callback", None),
    ("cli.certify", "nilstab.cli", "certify.callback", None),
    ("cli.sweep", "nilstab.cli", "sweep.callback", None),
)

# Exceptions counted per layer: (span name, exception class name, metric).
COUNTED_ERRORS = (
    ("representation.operator_norm", "NoConvergence",
     "representation.operator_norm.no_convergence"),
)


class Tracer:
    """Collects the spans of one session; `run_id` is shared by one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[tuple[str, str], int] = {}
        self._stack = [-1]

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn, size_of=None):
        """A function that calls `fn` and records the call as a span."""
        code = self._code(name)
        names, parents, sizes = self.name, self.parent, self.size
        starts, ends, stack, errors = self.start, self.end, self._stack, self.errors
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            n = size_of(*args, **kwargs) if size_of else -1
            index = len(starts)
            names.append(code)
            parents.append(stack[-1])
            sizes.append(n)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every TARGETS entry at each of its binding sites."""
        for name, module_name, path, size_of in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, size_of)
            setattr(owner, attr, wrapper)
            if parents:
                continue  # a method or callback: the one owner is the binding site
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "nilstab" and not mod_name.startswith("nilstab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path) -> None:
        """Save every span of the session, with the run id, as arrays."""
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            n=np.frombuffer(self.size, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self time and inclusive time, also per size n.

        Every layer in TARGETS is present; one never called reads 0.
        """
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        size = np.frombuffer(self.size, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.int64) - start) / 1e9
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        own = duration - children

        metrics: dict[str, float] = {}
        _aggregate(metrics, name, duration, own, lambda k: (self.names[k], ""))
        mask = size >= 0
        if mask.any():
            stride = int(size[mask].max()) + 1
            _aggregate(
                metrics,
                name[mask] * stride + size[mask],
                duration[mask],
                own[mask],
                lambda k: (self.names[k // stride], f".n{k % stride}"),
            )
        for layer, *_ in TARGETS:
            for metric in ("calls", "self_s", "incl_s"):
                metrics.setdefault(f"{layer}.{metric}", 0)
        for span, error, metric in COUNTED_ERRORS:
            metrics[metric] = self.errors.get((span, error), 0)
        return metrics


def _aggregate(metrics, keys, duration, own, label) -> None:
    calls = np.bincount(keys)
    incl = np.bincount(keys, weights=duration)
    self_s = np.bincount(keys, weights=own)
    for key in np.flatnonzero(calls):
        layer, suffix = label(int(key))
        metrics[f"{layer}.calls{suffix}"] = int(calls[key])
        metrics[f"{layer}.self_s{suffix}"] = float(self_s[key])
        metrics[f"{layer}.incl_s{suffix}"] = float(incl[key])
