"""nilstab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload heisenberg --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each session is a fresh process
(session.py) that imports nilstab from the checkout's `src/`.  A run starts
sessions one after another (a closed loop, one operation at a time) until
`--seconds` have passed and at least MIN_SESSIONS have ended, or until
another session would overrun the 180 s limit, and reports medians.
With `--trace 1` it alternates plain and traced sessions: per-layer
numbers come from the traced ones, and the tracing overhead is their
median session time minus that of the plain ones.

Standard output ends with two JSON lines: a report with every metric, its
unit, the sample counts and the environment, then the result
{"correct", "attempted", "failed", "metrics"}.  Its metrics are those
BENCHMARK.json lists: the end-to-end ones this workload measures, or,
when traced, the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from session import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SESSIONS = 3  # plain sessions in an untraced run, so set-up has a median

END_TO_END_UNITS = {
    "setup_s": "s",
    "session_s": "s",
    "validate_s": "s",
    "certify_s": "s",
    "sweep_s": "s",
    "null_test_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


class SessionFailed(RuntimeError):
    pass


def run_session(args, trace: int, run_id: str, spans: Path | None, timeout: float) -> dict:
    """Start one session process, wait for it, and time it from outside."""
    command = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(trace), "--run-id", run_id]
    if spans is not None:
        command += ["--spans", str(spans)]
    start = time.monotonic_ns()
    proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SessionFailed(f"session did not end within {timeout:.0f} s") from None
    end = time.monotonic_ns()
    if proc.returncode != 0:
        raise SessionFailed(f"session exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["session_s"] = (end - start) / 1e9
    result["setup_s"] = (result.pop("setup_done_ns") - start) / 1e9
    return result


def run_sessions(args, run_id: str) -> tuple[list[dict], list[dict]]:
    """Plain and traced sessions, until the run has measured long enough."""
    begin = time.monotonic()
    kinds = (0, 1) if args.trace else (0,)
    needed = 1 if args.trace else MIN_SESSIONS
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.monotonic() - begin
        if plain:
            longest = sum(max(s["session_s"] for s in group) for group in (plain, traced) if group)
            if (len(plain) >= needed and elapsed >= args.seconds) or elapsed + longest > DEADLINE_S:
                return plain, traced
        for kind in kinds:
            spans = SPANS_DIR / f"{args.workload}-{len(traced)}.spans.npz" if kind else None
            remaining = DEADLINE_S - (time.monotonic() - begin)
            (traced if kind else plain).append(run_session(args, kind, run_id, spans, remaining))


def describe(values: list[float]) -> dict:
    """Median, sample count, extremes, and the highest percentile with ten samples beyond it."""
    summary = {"median": statistics.median(values), "n": len(values),
               "min": min(values), "max": max(values)}
    if len(values) >= 20:
        pct = math.floor(100 * (1 - 10 / len(values)))
        summary[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return summary


def end_to_end(workload, sessions: list[dict]) -> tuple[dict, dict]:
    """Metric values and per-operation timing summaries.

    Set-up, session time and memory are medians over sessions.  An
    operation's metric is the median, over every round of every session,
    of the time that round spent in it (all trials, for the null test).
    """
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "session_s": statistics.median(s["session_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    timings = {}
    for op in workload.operations:
        per_round = [sum(o["seconds"] for o in s["operations"] if (o["op"], o["round"]) == (op, r))
                     for s in sessions for r in range(workload.rounds)]
        values[f"{op}_s"] = statistics.median(per_round)
        timings[op] = describe([o["seconds"] for s in sessions
                                for o in s["operations"] if o["op"] == op])
    return values, timings


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over traced sessions; a count stays a count (its lower median)."""
    keys = sorted({k for s in traced for k in s["layers"]})
    values = {}
    for k in keys:
        pick = statistics.median_low if layer_unit(k) == "count" else statistics.median
        values[k] = pick(s["layers"].get(k, 0) for s in traced)
    values["trace.overhead_s"] = (statistics.median(s["session_s"] for s in traced)
                                  - statistics.median(s["session_s"] for s in plain))
    return values


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") or "_s.n" in name else "count"


def source_identity() -> dict:
    """The git commit when the checkout has one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilstab" / "__init__.py").is_file():
        print(f"no nilstab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
    try:
        plain, traced = run_sessions(args, run_id)
    except SessionFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    sessions = plain + traced
    operations = [o for s in sessions for o in s["operations"]]
    failed = [o for o in operations if o["error"] or o["mismatches"]]
    mismatches = [m for s in sessions for m in s["mismatches"]]
    mismatches += [m for o in operations for m in o["mismatches"]]
    values, timings = end_to_end(workload, plain)
    values["failed_frac"] = len(failed) / len(operations)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "run_id": run_id,
        "sessions": {"plain": len(plain), "traced": len(traced)},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "operation_seconds": timings,
        "session_seconds": {k: describe([s[k] for s in plain]) for k in ("setup_s", "session_s")},
        "errors": sorted({o["error"] for o in operations if o["error"]}),
        "mismatches": mismatches,
        "environment": {**sessions[0]["environment"], **source_identity()},
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        layers = per_layer(plain, traced)
        report["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        metrics = {m["name"]: report["end_to_end"][m["name"]]
                   for m in declared["end_to_end"] if m["name"] in values}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
