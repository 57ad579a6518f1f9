"""The benchmark tracer's targets exist, and a traced session runs clean."""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracing_module().TARGETS


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for _, module, path, _ in TARGETS]
)
def test_every_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _assert_session_runs_clean(workload: str, trace: str) -> None:
    session = TRACING.parent / "session.py"
    done = subprocess.run(
        [sys.executable, str(session), "--workload", workload, "--seed", "1",
         "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["mismatches"] == []
    assert result["operations"]
    for record in result["operations"]:
        assert record["error"] is None, record
        assert record["mismatches"] == [], record


def test_a_traced_benchmark_session_runs_clean():
    # Resolving names does not catch a changed signature of a traced
    # function; a traced session calls the wrapped functions its workload uses.
    _assert_session_runs_clean("lattice-dense", "1")


def test_a_heisenberg_benchmark_session_runs_clean():
    # The session checks that each of the 57 certificate runs rounds to
    # the expected winding, and the smallest size's raw value against
    # scipy's logm.
    _assert_session_runs_clean("heisenberg", "0")
