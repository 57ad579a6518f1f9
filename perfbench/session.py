"""One benchmark session: a fresh process that sets up a workload and runs it.

    python3 perfbench/session.py --workload heisenberg --seed 3 --trace 0

The session imports nilstab from this checkout's `src/` and sets up the
workload through `nilstab.catalog`.  It then runs the workload's
operations one at a time, timing each from the outside, and checks every
output once the timed work is over.  With `--trace 1` it first wraps the
package's public functions (see tracing.py) and, at the end, writes the
spans and adds per-layer numbers.  The last line of standard output is one
JSON object; `run.py` starts sessions and turns them into metrics.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The package's documented slack on its proven defect bounds.
BOUND_SLACK = 1e-9
# Largest accepted gap between the certified raw winding and the scipy logm value.
WINDING_TOL = 1e-6


# ----------------------------------------------------------------------
# independent oracles: exact evaluation from the polynomial terms alone


def _poly_value(poly, values) -> Fraction:
    total = Fraction(0)
    for exps, coef in poly.terms.items():
        term = Fraction(coef)
        for v, e in zip(values, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def _multiply(group, x, y) -> tuple[int, ...]:
    values = [_poly_value(p, tuple(x) + tuple(y)) for p in group.law]
    if any(v.denominator != 1 for v in values):
        raise ValueError(f"group law is not integral at {x}, {y}")
    return tuple(int(v) for v in values)


def _phase_shift(sigma, n: int, x):
    import numpy as np

    matrix = np.zeros((n, n), dtype=complex)
    for j in range(n):
        value = _poly_value(sigma.poly, tuple(x) + (j,))
        if value.denominator != 1:
            raise ValueError(f"cocycle is not integral at {x}, {j}")
        matrix[(j + x[0]) % n, j] = cmath.exp(2j * math.pi * (int(value) % n) / n)
    return matrix


def reference_winding(group, sigma, chain, n: int) -> float:
    """Winding pairing of rho_n against the chain, with scipy's logm."""
    import numpy as np
    from scipy.linalg import logm

    total = 0.0
    for coef, a, b in chain.terms:
        m_a, m_b = _phase_shift(sigma, n, a), _phase_shift(sigma, n, b)
        m_ab = _phase_shift(sigma, n, _multiply(group, a, b))
        word = m_ab @ m_b.conj().T @ m_a.conj().T
        total += coef * float(np.trace(logm(word)).imag)
    return total / (2 * math.pi)


# ----------------------------------------------------------------------
# calls into the program; each looks its entry point up on the module at
# call time, so that a traced session calls the wrapper


def run_cli(cli, argv: list[str]) -> str:
    """Call the CLI entry point in-process; return its stdout, raise on a non-zero exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli.main.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"exit code {exc.code}") from None
    return out.getvalue()


def run_null_trial(obstruction, group, rep, chain, epsilon: float, seed: int):
    return obstruction.perturbation_null_test(
        group, rep, chain, epsilon=epsilon, trials=1, seed=seed
    )


# ----------------------------------------------------------------------
# workloads; every check returns a list of mismatches (empty when correct)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class CliWorkload:
    """Set-up resolves group, cocycle and cycle; operations are CLI commands."""

    group: str
    cocycle: str
    cycle: str
    certify_sizes: tuple[int, ...]
    sweep_sizes: tuple[int, ...]
    samples: int
    rounds: int
    validate_samples: int | None = None  # None keeps the CLI's default sample counts
    # (variables, terms) the resolved cocycle must have exactly, when given.
    expected_cocycle: tuple | None = None

    operations = ("validate", "certify", "sweep")

    def set_up(self, catalog, seed: int):
        group = catalog.resolve_group(self.group)
        sigma = catalog.resolve_cocycle(self.cocycle, group)
        return group, sigma, catalog.resolve_cycle(self.cycle, group)

    def check_set_up(self, objects) -> list[str]:
        poly = objects[1].poly
        if self.expected_cocycle and (poly.variables, poly.terms) != self.expected_cocycle:
            return [f"set-up: resolved cocycle is {poly}"]
        return []

    def steps(self, objects, seed: int, traced):
        from nilstab import cli

        checks = {
            "validate": self.check_validate,
            "certify": lambda text: self.check_certify(text, objects),
            "sweep": self.check_sweep,
        }
        return [
            (op, traced(f"bench.{op}", run_cli), (cli, self.argv(op, seed)), checks[op])
            for op in self.operations
        ]

    def argv(self, operation: str, seed: int) -> list[str]:
        base = ["--group", self.group, "--cocycle", self.cocycle]
        if operation == "validate":
            extra = ["--samples", str(self.validate_samples)] if self.validate_samples else []
            return ["validate", *base, "--grid", "--format", "json", "--seed", str(seed), *extra]
        if operation == "certify":
            return ["certify", *base, "--cycle", self.cycle, "--n", _csv(self.certify_sizes)]
        return ["sweep", *base, "--n", _csv(self.sweep_sizes),
                "--samples", str(self.samples), "--seed", str(seed)]

    def check_validate(self, text: str) -> list[str]:
        reports = json.loads(text)
        problems = [f"validate: {r['subject']} not ok" for r in reports if r.get("ok") is not True]
        if len(reports) != 3:
            problems.append(f"validate: expected 3 reports, got {len(reports)}")
        return problems

    def check_certify(self, text: str, objects) -> list[str]:
        doc = json.loads(text)
        expected = doc["expected_winding"]
        problems = []
        if doc["sigma_pairing"] == 0 or expected != -doc["sigma_pairing"]:
            problems.append(f"certify: sigma_pairing {doc['sigma_pairing']}, expected {expected}")
        if [run["n"] for run in doc["runs"]] != list(self.certify_sizes):
            problems.append("certify: runs do not cover the requested sizes")
        problems += [
            f"certify: n={run['n']} rounded {run['rounded']} != {expected}"
            for run in doc["runs"]
            if run["rounded"] != expected
        ]
        smallest = min(self.certify_sizes)
        raw = next((run["raw"] for run in doc["runs"] if run["n"] == smallest), None)
        reference = reference_winding(*objects, smallest)
        if raw is None or abs(raw - reference) > WINDING_TOL or round(reference) != expected:
            problems.append(f"certify: n={smallest} raw {raw} but scipy logm gives {reference}")
        return problems

    def check_sweep(self, text: str) -> list[str]:
        rows = text.strip().splitlines()[1:]
        problems = []
        expected_rows = len(self.sweep_sizes) * self.samples
        if len(rows) != expected_rows:
            problems.append(f"sweep: {len(rows)} rows, expected {expected_rows}")
        for row in rows:
            fields = row.split(",")
            if fields[-1] != "ok":
                problems.append(f"sweep: row {row!r} not ok")
                continue
            fro, fro_bound, op, op_bound = (float(f) for f in fields[4:8])
            if fro > fro_bound + BOUND_SLACK or op > op_bound + BOUND_SLACK:
                problems.append(f"sweep: row {row!r} exceeds its bounds")
        return problems


@dataclass(frozen=True)
class NullTestWorkload:
    """Set-up builds a genuine representation; each operation is one null-test trial."""

    group: str
    cycle: str
    dimension: int
    epsilon: float
    trials: int
    rounds: int = 1

    operations = ("null_test",)

    def set_up(self, catalog, seed: int):
        import numpy as np

        group = catalog.resolve_group(self.group)
        chain = catalog.resolve_cycle(self.cycle, group)
        rng = np.random.default_rng(seed)
        exponents = rng.uniform(0.0, 1.0, size=(self.dimension, group.hirsch))
        trial_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.trials)]
        return group, catalog.character_representation(exponents), chain, trial_seeds

    def check_set_up(self, objects) -> list[str]:
        return []

    def steps(self, objects, seed: int, traced):
        from nilstab import obstruction

        group, rep, chain, trial_seeds = objects
        trial = traced("bench.null_test", run_null_trial)
        return [
            ("null_test", trial, (obstruction, group, rep, chain, self.epsilon, s),
             self.check_trial)
            for s in trial_seeds
        ]

    @staticmethod
    def check_trial(report) -> list[str]:
        rounded = [p.rounded for p in report.pairings]
        return [] if rounded == [0] else [f"null_test: seed {report.seed} pairings round to {rounded}"]


WORKLOADS = {
    # Live catalog build (promotion and fit) in set-up; many small-n calls after it.
    "heisenberg": CliWorkload(
        group="heisenberg3",
        cocycle="builtin:heisenberg_skinny",
        cycle="builtin:heisenberg_c1",
        certify_sizes=tuple(range(17, 130, 2)),
        sweep_sizes=(17, 33, 65, 129),
        samples=200,
        rounds=4,
        # -x3*y1 - 1/2*x2*y1^2 - 1/2*x2*y1
        expected_cocycle=(
            ("x1", "x2", "x3", "y1"),
            {(0, 0, 1, 1): Fraction(-1), (0, 1, 0, 2): Fraction(-1, 2),
             (0, 1, 0, 1): Fraction(-1, 2)},
        ),
    ),
    # Trivial set-up; a few calls at the dense cap dominated by matrix work.
    "lattice-dense": CliWorkload(
        group="lattice:2",
        cocycle="builtin:z2_skinny",
        cycle="builtin:voiculescu",
        certify_sizes=(257, 513, 1023),
        sweep_sizes=(257, 513, 1023),
        samples=20,
        rounds=1,
        # The lattice law is cheap; more samples make validate long enough to time.
        validate_samples=5000,
    ),
    # Generic dense matrices: the path that stays dense whatever phase-shift
    # shortcuts the package gains.
    "null-test": NullTestWorkload(
        group="lattice:2",
        cycle="builtin:voiculescu",
        dimension=64,
        epsilon=1.0 / 25.0,
        trials=40,
    ),
}


# ----------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(nilstab) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "nilstab_version": nilstab.__version__,
        "nilstab_file": str(Path(nilstab.__file__).relative_to(ROOT)),
    }


# ----------------------------------------------------------------------
# the session


def measure(op: str, call, call_args: tuple, round_index: int) -> tuple[dict, object]:
    """Time one operation from outside; return its record and its output."""
    error, output = None, None
    start = time.perf_counter()
    try:
        output = call(*call_args)
    except Exception as exc:  # a failed operation is data, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    record = {"op": op, "round": round_index, "seconds": seconds, "error": error,
              "mismatches": []}
    return record, output


def check(record: dict, output, checker) -> None:
    if record["error"] is not None:
        return
    try:
        record["mismatches"] = checker(output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        record["mismatches"] = [f"{record['op']}: malformed output ({type(exc).__name__}: {exc})"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default=None, help="Where a traced session saves its spans.")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    import nilstab
    from nilstab import catalog

    if not Path(nilstab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"nilstab was imported from {nilstab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()

    def traced(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    objects = traced("bench.setup", workload.set_up)(catalog, args.seed)
    setup_done_ns = time.monotonic_ns()

    steps = workload.steps(objects, args.seed, traced)
    measured = [
        (*measure(op, call, call_args, r), checker)
        for r in range(workload.rounds)
        for op, call, call_args, checker in steps
    ]
    # Read memory before checking: the scipy oracle is not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for record, output, checker in measured:
        check(record, output, checker)

    result = {
        "setup_done_ns": setup_done_ns,
        "operations": [record for record, _, _ in measured],
        "mismatches": workload.check_set_up(objects),
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(nilstab),
    }
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
