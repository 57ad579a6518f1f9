"""Command line behavior: exit codes, determinism, and output formats."""

from __future__ import annotations

import functools
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import nilstab
from conftest import defect_ulps, defects_by_pairs
from nilstab import catalog, cohomology, exact
from nilstab.catalog import z2_skinny
from nilstab.cli import main
from nilstab.cohomology import PolyCocycle, skinny_check
from nilstab.errors import NotCoprime, ValidationError
from nilstab.extensions import central_commutator_cycle, central_extension, promoted_cocycle
from nilstab.groups import MalcevGroup, lattice
from nilstab.poly import MultiPoly, _decode_json_int, xy_variables
from nilstab.validation import DEFAULT_SEED, make_rng, sample_coords


@pytest.fixture()
def runner():
    return CliRunner()


def everything(result) -> str:
    try:
        return result.output + result.stderr
    except ValueError:
        return result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_version_flag_needs_no_installed_metadata(runner, monkeypatch):
    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"nilstab, version {nilstab.__version__}\n"


def test_validate_a_builtin_group(runner):
    result = runner.invoke(main, ["validate", "--group", "heisenberg3"])
    assert result.exit_code == 0
    assert "heisenberg3: ok" in result.output
    assert "[pass]" in result.output
    assert "FAIL" not in result.output


def test_validate_group_and_cocycle_with_grid(runner):
    result = runner.invoke(
        main,
        ["validate", "--group", "lattice:2", "--cocycle", "z2_skinny", "--grid",
         "--format", "json"],
    )
    assert result.exit_code == 0
    reports = json.loads(result.output)
    assert [r["ok"] for r in reports] == [True, True, True]
    names = " ".join(c["name"] for r in reports for c in r["checks"])
    assert "cocycle identity (exact)" in names


@pytest.mark.parametrize(
    "group, cocycle",
    [("heisenberg3", "builtin:heisenberg_skinny"), ("lattice:2", "builtin:z2_skinny")],
    ids=["heisenberg3", "lattice2"],
)
def test_validate_output_does_not_depend_on_sampling_options(runner, group, cocycle):
    base = ["validate", "--group", group, "--cocycle", cocycle, "--format", "json"]
    outputs = set()
    for extra in (["--seed", "1"], ["--seed", "2"], ["--samples", "7"],
                  ["--samples", "5000"], ["--grid"], ["--no-grid"]):
        result = runner.invoke(main, base + extra)
        assert result.exit_code == 0
        outputs.add(result.output)
    assert len(outputs) == 1


def test_validate_fails_a_cocycle_that_is_not_integer_valued(runner, tmp_path):
    doc = {"name": "half", "hirsch": 2,
           "poly": [{"coef": [1, 2], "x_exps": [0, 1], "y_exps": [1]}]}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["validate", "--group", "lattice:2", "--cocycle", str(path)]
    )
    assert result.exit_code == 1
    assert "[FAIL] integrality (exact)" in result.output


def test_validate_flags_a_failing_cocycle(runner, tmp_path):
    doc = {
        "name": "affine",
        "hirsch": 2,
        "poly": [
            {"coef": [1, 1], "x_exps": [1, 0], "y_exps": [0]},
            {"coef": [1, 1], "x_exps": [0, 0], "y_exps": [1]},
        ],
    }
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["validate", "--group", "lattice:2", "--cocycle", str(path)]
    )
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "normalization" in result.output


def test_validate_rejects_a_missing_file(runner):
    result = runner.invoke(main, ["validate", "--group", "does-not-exist.json"])
    assert result.exit_code == 2


def test_validate_reports_json_syntax_position(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"hirsch": 2,\n  "law": [,]}')
    result = runner.invoke(main, ["validate", "--group", str(path)])
    assert result.exit_code == 2
    assert "line 2" in everything(result)


def test_validate_writes_to_a_file(runner, tmp_path):
    out = tmp_path / "report.txt"
    result = runner.invoke(
        main, ["validate", "--group", "lattice:1", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert result.output == ""
    assert "lattice:1: ok" in out.read_text()


@pytest.fixture()
def broken_group(tmp_path):
    """heisenberg3's document with a constant 1 added to law 3."""
    doc = catalog.heisenberg3().to_document()
    doc["law"][2].append({"coef": [1, 1], "x_exps": [0, 0, 0], "y_exps": [0, 0, 0]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_reports_a_group_document_that_fails_its_proof(
    runner, broken_group, tmp_path
):
    result = runner.invoke(main, ["validate", "--group", broken_group, "--format", "json"])
    assert result.exit_code == 1, everything(result)
    (report,) = json.loads(result.output)
    assert report["ok"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["identity-law right (law 3)", "identity-law left (law 3)"]

    out = tmp_path / "report.txt"
    result = runner.invoke(main, ["validate", "--group", broken_group, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == ""
    assert "[FAIL] identity-law right (law 3)" in out.read_text()


def test_validate_proves_a_group_document_once(runner, tmp_path, monkeypatch):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(catalog.heisenberg3().to_document()))
    calls = []
    prove = MalcevGroup.validate

    def counted(group):
        calls.append(group)
        return prove(group)

    monkeypatch.setattr(MalcevGroup, "validate", counted)
    result = runner.invoke(main, ["validate", "--group", str(path), "--format", "json"])
    assert result.exit_code == 0, everything(result)
    (report,) = json.loads(result.output)
    assert report["ok"] is True
    assert len(calls) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "--cocycle", "zero", "--cycle", "voiculescu"],
        ["sweep", "--cocycle", "zero"],
    ],
)
def test_an_invalid_group_document_fails_cleanly(runner, broken_group, args):
    result = runner.invoke(main, [*args, "--group", broken_group])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert everything(result).startswith("error: the group law failed its proof")
    assert "Traceback" not in everything(result)


EVERY_COMMAND = pytest.mark.parametrize(
    "args",
    [["validate"], ["certify", "--cocycle", "z2_skinny", "--cycle", "voiculescu"],
     ["sweep", "--cocycle", "zero"]],
    ids=["validate", "certify", "sweep"],
)


@pytest.mark.parametrize(
    "content, reason",
    [(bytes(range(156, 256)), "not UTF-8 at byte 0: invalid start byte"),
     (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply to read")],
    ids=["not-utf8", "deep"],
)
@EVERY_COMMAND
def test_an_unreadable_json_document_is_a_usage_error(runner, tmp_path, args, content, reason):
    # 100 bytes that are not UTF-8, and 100,000 nested lists, are refused
    # with the path and exit 2 by every command, as invalid JSON is.
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    result = runner.invoke(main, [*args, "--group", str(path)])
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: {path}: {reason}\n"
    assert "Traceback" not in everything(result)


@EVERY_COMMAND
def test_an_integer_past_the_digit_limit_is_a_usage_error(runner, tmp_path, args):
    # json reads an integer literal with int(), which refuses one past the
    # int-to-str digit limit (4,300 by default) with a ValueError.
    path = tmp_path / "doc.json"
    path.write_text('{"hirsch": ' + "1" * 5000 + "}")
    with pytest.raises(ValueError) as refused:
        int("1" * 5000)
    result = runner.invoke(main, [*args, "--group", str(path)])
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: {path}: {refused.value}\n"
    assert "Traceback" not in everything(result)


@pytest.mark.parametrize("name", ["file/doc.json", "a" * 300], ids=["not-a-directory", "too-long"])
@EVERY_COMMAND
def test_a_document_path_that_cannot_be_opened_is_a_usage_error(runner, tmp_path, args, name):
    # A path through a regular file, and a name past the file system's
    # length limit, fail to open with an OSError; each is one error line.
    (tmp_path / "file").write_text("{}")
    path = tmp_path / name
    with pytest.raises(OSError) as refused:
        open(path)
    result = runner.invoke(main, [*args, "--group", str(path)])
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: {refused.value}\n"
    assert "Traceback" not in everything(result)


@EVERY_COMMAND
def test_an_out_path_that_cannot_be_written_is_a_usage_error(runner, tmp_path, args):
    # Each command succeeds on lattice:2, then cannot open its --out path
    # in a missing directory: one error line and exit 2, no traceback.
    out = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, [*args, "--group", "lattice:2", "--out", str(out)])
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: cannot write {out}: No such file or directory\n"
    assert result.stdout == ""
    assert "Traceback" not in everything(result)
    assert not out.parent.exists()


def test_certify_emits_a_json_certificate(runner):
    result = runner.invoke(
        main,
        ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny",
         "--cycle", "voiculescu", "--n", "16,32"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["expected_winding"] == -1
    assert doc["sigma_pairing"] == 1
    assert [run["n"] for run in doc["runs"]] == [16, 32]
    assert all(run["rounded"] == -1 for run in doc["runs"])
    assert "seed" not in doc  # certify draws no random numbers


def test_a_promoted_tower_certifies_from_its_documents(runner, tmp_path):
    # Z by x1*y1, promoted and extended once more: a Hirsch-3 law whose a^w
    # is not (w, 0, 0), and a promoted cocycle with denominator 4.
    variables = xy_variables(1, 1)
    square = PolyCocycle(
        lattice(1), MultiPoly.variable(variables, 0) * MultiPoly.variable(variables, 1)
    )
    first = central_extension(lattice(1), square)
    ext = central_extension(first.total, promoted_cocycle(first), name="tower")
    omega = promoted_cocycle(ext)
    assert omega.poly.den == 4
    paths = {}
    for key, doc in (
        ("group", ext.total.to_document()),
        ("cocycle", omega.to_document()),
        ("cycle", central_commutator_cycle(ext, 1).to_json()),
    ):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["validate", "--group", str(paths["group"]), "--cocycle", str(paths["cocycle"])]
    )
    assert result.exit_code == 0, everything(result)
    result = runner.invoke(
        main,
        ["certify", "--group", str(paths["group"]), "--cocycle", str(paths["cocycle"]),
         "--cycle", str(paths["cycle"]), "--n", "17,33,2199023255553"],
    )
    assert result.exit_code == 0, everything(result)
    doc = json.loads(result.output)
    assert doc["sigma_pairing"] == 1
    assert [(run["n"], run["rounded"]) for run in doc["runs"]] == [
        (17, -1), (33, -1), (2199023255553, -1),
    ]


def test_certify_heisenberg_at_odd_sizes(runner):
    # The group takes the builtin: prefix as the cocycle and the cycle do.
    outputs = []
    for group in ("heisenberg3", "builtin:heisenberg3"):
        result = runner.invoke(
            main,
            ["certify", "--group", group, "--cocycle", "heisenberg_skinny",
             "--cycle", "heisenberg_c1", "--n", "17,33"],
        )
        assert result.exit_code == 0, everything(result)
        doc = json.loads(result.output)
        assert all(run["rounded"] == -1 for run in doc["runs"])
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


def test_certify_fails_cleanly_on_a_torsion_pairing(runner):
    result = runner.invoke(
        main,
        ["certify", "--group", "lattice:2", "--cocycle", "zero",
         "--cycle", "voiculescu"],
    )
    assert result.exit_code == 1
    assert "pairs to zero" in everything(result)


def test_certify_fails_cleanly_when_no_size_is_coprime(runner):
    result = runner.invoke(
        main,
        ["certify", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
         "--cycle", "heisenberg_c1", "--n", "16"],
    )
    assert result.exit_code == 1
    assert "denominator" in everything(result)


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
         "--cycle", "heisenberg_c1", "--n", "17,0"],
        ["sweep", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
         "--n", "17,x"],
    ],
)
def test_bad_sizes_are_rejected_before_anything_is_resolved(runner, monkeypatch, args):
    def unreachable(*args, **kwargs):
        raise AssertionError("resolved before the size list was parsed")

    for name in ("resolve_group", "resolve_cocycle", "resolve_cycle"):
        monkeypatch.setattr(catalog, name, unreachable)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, everything(result)


def test_certify_rejects_bad_size_lists(runner):
    for bad in ("16,x", "0", ""):
        result = runner.invoke(
            main,
            ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny",
             "--cycle", "voiculescu", "--n", bad],
        )
        assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--group", "heisenberg3", "--samples", "-1"],
        ["validate", "--group", "lattice:2", "--samples", "0"],
        ["validate", "--group", "lattice:2", "--seed", "x"],
        ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--bound", "0"],
        ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--samples", "0"],
        ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--n", "17,-1"],
        ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny",
         "--cycle", "voiculescu", "--n", "16,-3"],
    ],
)
def test_bad_numeric_input_is_a_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, everything(result)


@pytest.mark.parametrize(
    "args, message",
    [
        (["certify", "--group", "lattice:2", "--cocycle", "z2_skinny", "--cycle", "voiculescu",
          "--n", text], f"bad matrix size {text.split(',')[-1]!r}")
        for text in ("1_7", "\u0661\u0667", " +17", "+17", "17, 33")
    ] + [
        (["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--n", "1" * 5000],
         "bad matrix size of 5000 characters"),
    ] + [
        (["validate", "--group", f"lattice:{rank}"], f"bad lattice rank {rank!r}")
        for rank in ("+2", "\u0662", " 2", "2 ", "2_0")
    ],
)
def test_command_line_integers_are_read_as_documents_read_them(runner, args, message):
    # An optional "-", then ASCII digits: int() reads each of these (the
    # size 17 and the rank 2, 20), but a document may not hold them.
    result = runner.invoke(main, args)
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: {message}\n"


def test_a_long_bad_integer_literal_is_named_by_its_length(runner, tmp_path):
    # 5,000 digits past the int-to-str limit, and 5,000 characters that are
    # not digits, are each one short error line, not the literal quoted whole.
    for literal in ("1" * 5000, "1_" * 2500):
        doc = z2_skinny().to_document()
        doc["poly"][0]["coef"][0] = literal
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--group", "lattice:2", "--cocycle", str(path)])
        assert result.exit_code == 2, everything(result)
        assert result.stderr == "error: bad integer literal of 5000 characters\n"
        assert len(result.stderr) < 200


@pytest.mark.parametrize(
    "where, value, shown",
    [
        ("numerator", [1] * 5000, "an array of 5000 items"),
        ("numerator", {str(i): i for i in range(50)}, "an object of 50 keys"),
        ("coef", [1] * 5000, "an array of 5000 items"),
        ("x_exps", "x" * 60, "a string of 60 characters"),
        ("numerator", [1, 2], "[1, 2]"),
        ("coef", [1, 2, 3], "[1, 2, 3]"),
        ("x_exps", "x" * 30, repr("x" * 30)),
    ],
)
def test_a_long_json_value_is_named_by_its_type_and_length(runner, tmp_path, where, value, shown):
    # A value that a document error quotes is named by its JSON type and
    # length past 40 characters, so the error stays one short line; a
    # short value is still quoted whole.
    doc = z2_skinny().to_document()
    monomial = doc["poly"][0]
    if where == "numerator":
        monomial["coef"][0] = value
        message = f"expected an integer or decimal string, got {shown}"
    elif where == "coef":
        monomial["coef"] = value
        message = f"coef must be a [num, den] pair, got {shown}"
    else:
        monomial["x_exps"] = value
        message = f"x_exps and y_exps must be lists, got {shown} and {monomial['y_exps']!r}"
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", "--group", "lattice:2", "--cocycle", str(path)])
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: {message}\n"
    assert len(result.stderr) < 200


def test_long_values_in_group_cycle_and_cocycle_documents_are_named_too(runner, tmp_path):
    group, cycle, cocycle = (tmp_path / f"{name}.json" for name in ("group", "cycle", "cocycle"))
    group.write_text(json.dumps({"hirsch": [0] * 100, "law": []}))
    cycle.write_text(json.dumps([{"coef": 1, "a": "a" * 50, "b": [0, 1]}]))
    cocycle.write_text(json.dumps({**z2_skinny().to_document(), "hirsch": {"g" * 30: 2, "h" * 30: 2}}))
    for args, message in (
        (["validate", "--group", str(group)],
         "hirsch must be a positive integer, got an array of 100 items"),
        (["certify", "--group", "lattice:2", "--cocycle", "z2_skinny", "--cycle", str(cycle)],
         "chain term coordinates must be lists, got a string of 50 characters and [0, 1]"),
        (["validate", "--group", "lattice:2", "--cocycle", str(cocycle)],
         "hirsch must be an integer, got an object of 2 keys"),
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, everything(result)
        assert result.stderr == f"error: {message}\n"


def test_the_default_sizes_are_odd(runner):
    # heisenberg_skinny has denominator 2, so it certifies and sweeps at the
    # default sizes only because they are odd.
    given = ["--group", "heisenberg3", "--cocycle", "heisenberg_skinny"]
    result = runner.invoke(main, ["certify", *given, "--cycle", "heisenberg_c1"])
    assert result.exit_code == 0, everything(result)
    assert [run["n"] for run in json.loads(result.stdout)["runs"]] == [17, 33, 65, 129]
    result = runner.invoke(main, ["sweep", *given, "--samples", "1"])
    assert result.exit_code == 0, everything(result)
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["17", "33", "65", "129", "257"]
    assert all(row[-1] == "ok" for row in rows)


def test_validate_has_no_bound_option(runner):
    # validate's checks are exact proofs; --bound was parsed and never read.
    result = runner.invoke(main, ["validate", "--group", "lattice:2", "--bound", "3"])
    assert result.exit_code == 2, everything(result)
    assert "Error: No such option '--bound'" in result.stderr


@pytest.mark.parametrize(
    "kind, args",
    [("group", ["validate", "--group", "{path}"]),
     ("cocycle", ["validate", "--group", "lattice:2", "--cocycle", "{path}"]),
     ("cocycle", ["certify", "--group", "lattice:2", "--cocycle", "{path}",
                  "--cycle", "voiculescu", "--n", "17"])],
    ids=["validate-group", "validate-cocycle", "certify-cocycle"],
)
def test_a_document_name_that_is_not_a_string_is_a_usage_error(runner, tmp_path, kind, args):
    doc = lattice(2).to_document() if kind == "group" else z2_skinny().to_document()
    doc["name"] = 5 if kind == "group" else 7
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [arg.format(path=path) for arg in args])
    assert result.exit_code == 2, everything(result)
    assert result.stderr == f"error: {kind} name must be a printable string, got {doc['name']}\n"
    assert "Traceback" not in everything(result)


def assert_refused(result, message: str) -> None:
    # Input the package refuses: exit 2, one line on stderr, no output.
    assert result.exit_code == 2, everything(result)
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "kind, args",
    [("group", ["validate", "--group", "{path}"]),
     ("cocycle", ["validate", "--group", "lattice:2", "--cocycle", "{path}"]),
     ("cocycle", ["certify", "--group", "lattice:2", "--cocycle", "{path}",
                  "--cycle", "voiculescu", "--n", "17"])],
    ids=["validate-group", "validate-cocycle", "certify-cocycle"],
)
@pytest.mark.parametrize(
    "name, shown",
    [("red\x1b[31mdoc", "'red\\x1b[31mdoc'"), ("two\nlines", "'two\\nlines'"),
     ("\x07" * 50, "a string of 50 characters")],
    ids=["escape", "newline", "long"],
)
def test_a_document_name_that_is_not_printable_is_refused(
    runner, tmp_path, kind, args, name, shown
):
    # A report writes a document's name as it is, so a control character in
    # it would reach the terminal: the document is refused, the name escaped.
    doc = lattice(2).to_document() if kind == "group" else z2_skinny().to_document()
    doc["name"] = name
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [arg.format(path=path) for arg in args])
    assert_refused(result, f"{kind} name must be a printable string, got {shown}")


def test_a_printable_non_ascii_document_name_is_reported_as_it_is(runner, tmp_path):
    group, cocycle = tmp_path / "group.json", tmp_path / "cocycle.json"
    doc = lattice(2).to_document()
    doc["name"] = "Heisenberg\u20133"
    group.write_text(json.dumps(doc))
    doc = z2_skinny().to_document()
    doc["name"] = "\u03c3 skinny"
    cocycle.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", "--group", str(group), "--cocycle", str(cocycle)])
    assert result.exit_code == 0, everything(result)
    assert result.stdout.startswith("Heisenberg\u20133: ok\n")
    assert "cocycle \u03c3 skinny: ok\n" in result.stdout


CERTIFY = ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([*CERTIFY, "--cycle", "voiculescu", "--n", "16,x"], "bad matrix size 'x'"),
        ([*CERTIFY, "--cycle", "voiculescu", "--n", "0"], "matrix size must be positive, got 0"),
        (["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--n", "17,-1"],
         "matrix size must be positive, got -1"),
        ([*CERTIFY, "--cycle", "voiculescu", "--n", ""], "need at least one matrix size"),
        (["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--n", ","],
         "need at least one matrix size"),
        (["validate", "--group", "{tmp}/missing.json"],
         "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
        (["validate", "--group", "{tmp}/group.json"], "group document missing key 'law'"),
        (["certify", "--group", "lattice:3", "--cocycle", "z2_skinny", "--cycle", "voiculescu"],
         "z2_skinny lives on the group lattice:2"),
        ([*CERTIFY, "--cycle", "{tmp}/cycle.json"],
         "cycle term 0: b has 3 coordinates but the group needs 2"),
    ],
    ids=["literal", "zero", "negative", "empty", "no-size", "missing", "malformed",
         "wrong-group", "cycle-length"],
)
def test_a_refusal_is_one_error_line(runner, tmp_path, args, message):
    # Whatever the package refuses, it says so in one line, exit 2, with no
    # usage block and nothing on stdout.
    (tmp_path / "group.json").write_text('{"hirsch": 2}')
    (tmp_path / "cycle.json").write_text('[{"coef": 1, "a": [0, 1], "b": [1, 0, 0]}]')
    result = runner.invoke(main, [arg.format(tmp=tmp_path) for arg in args])
    assert_refused(result, message.format(tmp=tmp_path))


@pytest.mark.parametrize(
    "args, message",
    [(["validate", "--group", "lattice:2", "--bound", "3"], "No such option '--bound'"),
     (["validate", "--group", "lattice:2", "--samples", "0"],
      "Invalid value for '--samples': 0 is not in the range x>=1."),
     ([*CERTIFY], "Missing option '--cycle'.")],
    ids=["no-such-option", "int-range", "missing-option"],
)
def test_an_option_click_cannot_parse_keeps_its_usage_block(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, everything(result)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines[0] == f"Usage: main {args[0]} [OPTIONS]"
    assert lines[-1].startswith(f"Error: {message}")


def test_a_cycle_with_non_commuting_terms_is_certified_past_int64(runner, tmp_path):
    # heisenberg_c1 plus the boundary of [a|b|c] has terms whose elements do
    # not commute.  Each term's summed word is still the constant
    # -sigma(a, b), so the cycle is certified at any size, here past
    # n * n = 2^63 - 1, where no int64 residue table could be formed.
    a, b, c = (1, 0, 0), (0, 17, 0), (0, 0, 1)
    group = catalog.heisenberg3()
    ab, bc = group.multiply(a, b), group.multiply(b, c)
    extra = [(1, b, c), (-1, ab, c), (1, a, bc), (-1, a, b)]
    chain = cohomology.Chain2.build([*catalog.heisenberg_c1().terms, *extra])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(chain.to_json()))
    n = 3037000501
    assert n * n > 2**63 - 1 and n % 2 == 1
    result = runner.invoke(
        main,
        ["certify", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
         "--cycle", str(path), "--n", f"17,{n}"],
    )
    assert result.exit_code == 0, everything(result)
    runs = json.loads(result.stdout)["runs"]
    assert [(run["n"], run["winding"], run["margin"]) for run in runs] == [
        (17, "-1", 11), (n, "-1", n - 6),
    ]


def test_a_sweep_size_past_the_floats_is_a_usage_error(runner):
    # The sweep's norms are floats: sqrt(n) has no value from 2^1024 on.
    # A size just below is measured; a skipped size needs no float.
    args = ["sweep", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
            "--samples", "2"]
    n = 2**1024 + 1
    assert_refused(
        runner.invoke(main, [*args, "--n", f"17,{n}"]),
        f"matrix size {n} is too large for float norms",
    )
    result = runner.invoke(main, [*args, "--n", f"{2**1023 + 1},{2**1024}"])
    assert result.exit_code == 0, everything(result)
    rows = result.stdout.splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok"] * 2 + ["skipped:not_coprime"] * 2


def test_a_sweep_value_past_the_float_bounds_is_a_usage_error(runner):
    # At --bound 10^400, sigma(x, y) = x2 * y1 has no float value over 17,
    # so the bound check would prove nothing: exit 2 naming the value, its
    # pair and n, where an OverflowError used to escape.  At 4,290 nines
    # the value is past Python's 4,300-digit int-to-str limit, so it is
    # named by its bit length.
    for bound in (10**400, int("9" * 4290)):
        x1, x2, y1, y2 = sample_coords(make_rng(DEFAULT_SEED), 4, bound)
        value = x2 * y1
        assert abs(value) // 17 > 2**1024
        if bound == 10**400:
            text = str(value)
        else:
            with pytest.raises(ValueError, match="4300"):
                str(value)
            text = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        result = runner.invoke(
            main,
            ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny", "--n", "17",
             "--samples", "1", "--bound", str(bound)],
        )
        assert_refused(
            result,
            f"sigma(x, y) = {text} at ({(x1, x2)}, {(y1, y2)}) is too large "
            f"for float bounds at n = 17",
        )
        assert "Traceback" not in everything(result)
    # At a size that shares a factor with the denominator no bound is formed,
    # but the skipped row cannot write the value in decimal either.
    bound = int("9" * 4290)
    coords = sample_coords(make_rng(DEFAULT_SEED), 6, bound)
    x, y = coords[:3], coords[3:]
    value = catalog.heisenberg_skinny()(x, y)
    text = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    result = runner.invoke(
        main,
        ["sweep", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny", "--n", "2",
         "--samples", "1", "--bound", str(bound)],
    )
    assert_refused(
        result, f"sigma(x, y) = {text} at ({x}, {y}) is too large to write in decimal at n = 2"
    )
    assert "Traceback" not in everything(result)


def test_a_pairing_past_the_float_winding_is_a_usage_error(runner, tmp_path):
    # Chain coefficients are decimal strings past int64, so a cycle may
    # pair to 10^400, which no run's float `raw` can hold: exit 2 naming
    # the pairing, with no traceback.
    wide = 10**400
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps([
        {"coef": str(wide), "a": [0, 1], "b": [1, 0]},
        {"coef": str(-wide), "a": [1, 0], "b": [0, 1]},
    ]))
    result = runner.invoke(
        main,
        ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny",
         "--cycle", str(path), "--n", "7"],
    )
    assert_refused(
        result, f"the pairing <sigma, c> = {wide} is too large for a float winding"
    )
    assert "Traceback" not in everything(result)


def test_a_cycle_with_a_fractional_coordinate_is_a_usage_error(runner, tmp_path):
    # 1.5 is refused, not truncated to 1 and certified.  A term of the
    # wrong length is refused too, naming the term and the side.
    path = tmp_path / "cycle.json"
    for terms, expected in (
        ([{"coef": 1, "a": [0, 1], "b": [1, 0]},
          {"coef": -1, "a": [1.5, 0], "b": [0, 1]}], "1.5"),
        ([{"coef": 1, "a": [0, 1], "b": [1, 0, 0]}],
         "cycle term 0: b has 3 coordinates but the group needs 2"),
    ):
        path.write_text(json.dumps(terms))
        result = runner.invoke(
            main,
            ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny",
             "--cycle", str(path), "--n", "16"],
        )
        assert result.exit_code == 2, everything(result)
        assert expected in everything(result)
        assert "Traceback" not in everything(result)


def test_certify_goes_past_the_dense_cap(runner):
    result = runner.invoke(
        main,
        ["certify", "--group", "lattice:2", "--cocycle", "z2_skinny",
         "--cycle", "voiculescu", "--n", "2000,2049"],
    )
    assert result.exit_code == 0, everything(result)
    doc = json.loads(result.output)
    assert [(run["n"], run["winding"]) for run in doc["runs"]] == [
        (2000, "-1"), (2049, "-1")
    ]


def test_sweep_goes_past_the_dense_cap(runner):
    result = runner.invoke(
        main,
        ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny",
         "--n", "2000", "--samples", "3"],
    )
    assert result.exit_code == 0, everything(result)
    rows = result.output.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.startswith("2000,") and row.endswith(",ok") for row in rows)


def test_sweep_emits_the_documented_csv(runner):
    args = ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny",
            "--n", "4,8", "--samples", "3"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "n,x,y,sigma_xy,frob_defect,frob_bound,op_defect,op_bound,status"
    assert len(lines) == 1 + 2 * 3
    sigma = z2_skinny()
    group = lattice(2)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        assert fields[8] == "ok"
        x = tuple(int(c) for c in fields[1].split(";"))
        y = tuple(int(c) for c in fields[2].split(";"))
        assert int(fields[3]) == sigma(x, y)
        assert float(fields[4]) <= float(fields[5]) + 1e-9
        assert float(fields[6]) <= float(fields[7]) + 1e-9
    # Byte-identical determinism.
    again = runner.invoke(main, args)
    assert again.output == result.output


def test_sweep_skips_sizes_sharing_a_factor_with_the_denominator(runner):
    result = runner.invoke(
        main,
        ["sweep", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
         "--n", "4,5", "--samples", "2"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    skipped = [l for l in lines if l.endswith("skipped:not_coprime")]
    ok = [l for l in lines if l.endswith(",ok")]
    assert len(skipped) == 2 and len(ok) == 2
    for line in skipped:
        assert line.split(",")[0] == "4"
        assert line.split(",")[4:8] == ["", "", "", ""]


def test_sweep_skips_rows_not_periodic_mod_n(runner):
    # heisenberg_skinny has denominator 2: at x2 odd its row
    # p(x, t) = -x3*t - x2*(t^2 + t)/2 has p(x, t + 4) - p(x, t) =
    # -4*x3 - x2*(4*t + 10), which 4 does not divide, so rho_4(x) is not
    # well defined.  Every row at n = 4 is skipped and still prints
    # sigma(x, y); at n = 5 every row is measured.
    sigma = catalog.heisenberg_skinny()
    result = runner.invoke(
        main,
        ["sweep", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny",
         "--n", "4,5", "--samples", "6", "--seed", "3"],
    )
    assert result.exit_code == 0, everything(result)
    rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["4"] * 6 + ["5"] * 6
    odd = 0
    for row in rows[:6]:
        x, y = (tuple(int(c) for c in field.split(";")) for field in row[1:3])
        assert row[3:] == [str(sigma(x, y)), "", "", "", "", "skipped:not_coprime"]
        step = 4 * x[2] + x[1] * (4 * 1 + 10)
        assert sigma.poly.evaluate((*x, 5)) - sigma.poly.evaluate((*x, 1)) == -step
        if x[1] % 2:
            odd += 1
            assert step % 4 != 0
    assert odd > 0
    assert all(row[-1] == "ok" for row in rows[6:])


SQUARE_OF_Y1 = {"name": "square", "hirsch": 2,
                "poly": [{"coef": [1, 1], "x_exps": [1, 0], "y_exps": [2]}]}


def test_certify_and_sweep_refuse_an_unproved_cocycle(runner, tmp_path):
    # x1*y1^2 is no cocycle: certify and sweep exit 1 with the failed
    # proof's witness and print nothing; validate prints its report and
    # exits 1.  A polynomial that is not integer valued either is refused
    # the same way.
    witness = "defect 2*x1*y1*z1 is 2 at x=(1, 0), y=(1, 0), z=(1, 0)"
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_OF_Y1))
    base = ["--group", "lattice:2", "--cocycle", str(path)]
    for args in (
        ["certify", *base, "--cycle", "voiculescu", "--n", "17,33"],
        ["sweep", *base, "--n", "17,33", "--samples", "4"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: the cocycle failed its proof:\n")
        assert f"[FAIL] cocycle identity (exact) -- {witness}" in result.stderr
        assert "Traceback" not in everything(result)
    result = runner.invoke(main, ["validate", *base])
    assert result.exit_code == 1
    assert f"[FAIL] cocycle identity (exact) -- {witness}" in result.stdout
    den9 = MultiPoly(
        xy_variables(2, 1),
        {(0, 1, 1): Fraction(2, 9), (0, 1, 2): Fraction(-1, 3), (0, 1, 3): Fraction(1, 9)},
    )
    path = tmp_path / "den9.json"
    path.write_text(json.dumps(PolyCocycle(lattice(2), den9).to_document()))
    result = runner.invoke(
        main,
        ["sweep", "--group", "lattice:2", "--cocycle", str(path), "--n", "2",
         "--samples", "4", "--bound", "2", "--seed", "3"],
    )
    assert result.exit_code == 1 and result.stdout == ""
    assert "[FAIL] integrality (exact) -- sigma((0, 1), (3, 0)) = 2/3" in result.stderr


def test_a_builtin_cocycle_is_proved_once_per_process(runner, monkeypatch):
    # validate proves the cocycle; certify and sweep reuse that proof.
    calls = []
    prove = cohomology.cocycle_check

    def counted(sigma, *args, **kwargs):
        calls.append(sigma)
        return prove(sigma, *args, **kwargs)

    monkeypatch.setattr(cohomology, "cocycle_check", counted)
    monkeypatch.setattr(catalog, "z2_skinny", functools.cache(z2_skinny.__wrapped__))
    base = ["--group", "lattice:2", "--cocycle", "z2_skinny"]
    for args in (
        ["validate", *base],
        ["certify", *base, "--cycle", "voiculescu", "--n", "17"],
        ["sweep", *base, "--n", "17", "--samples", "2"],
        ["validate", *base],
    ):
        assert runner.invoke(main, args).exit_code == 0
    assert len(calls) == 1 and calls[0] is catalog.z2_skinny()
    # heisenberg_skinny is the promotion itself, named, so the promotion's
    # proof is the one validate reports.
    calls.clear()
    monkeypatch.setattr(
        catalog, "heisenberg_skinny", functools.cache(catalog.heisenberg_skinny.__wrapped__)
    )
    result = runner.invoke(
        main, ["validate", "--group", "heisenberg3", "--cocycle", "heisenberg_skinny"]
    )
    assert result.exit_code == 0
    assert "cocycle heisenberg_skinny: ok" in result.output
    assert len(calls) == 1 and calls[0] is catalog.heisenberg_skinny()


def test_a_builtin_group_is_proved_once_per_process(runner, monkeypatch):
    # validate proves lattice:2's law; certify and sweep admit z2_skinny on
    # that same group object and reuse the proof.
    calls = []
    prove = MalcevGroup.validate

    def counted(group):
        calls.append(group)
        return prove(group)

    monkeypatch.setattr(MalcevGroup, "validate", counted)
    monkeypatch.setattr(catalog, "lattice", functools.cache(lattice.__wrapped__))
    monkeypatch.setattr(catalog, "z2_skinny", functools.cache(z2_skinny.__wrapped__))
    base = ["--group", "lattice:2", "--cocycle", "z2_skinny"]
    for args in (
        ["validate", *base],
        ["certify", *base, "--cycle", "voiculescu", "--n", "17"],
        ["sweep", *base, "--n", "17", "--samples", "2"],
        ["validate", *base],
    ):
        assert runner.invoke(main, args).exit_code == 0
    assert len(calls) == 1 and calls[0] is catalog.lattice(2)
    # heisenberg3 is named where the extension builds it, so a fresh
    # heisenberg3 is proved once across validate, certify and sweep; no
    # renamed copy of the extension group is proved again.
    calls.clear()
    for name in ("heisenberg_extension", "heisenberg_skinny"):
        monkeypatch.setattr(catalog, name, functools.cache(getattr(catalog, name).__wrapped__))
    base = ["--group", "heisenberg3", "--cocycle", "heisenberg_skinny"]
    for args in (
        ["validate", *base],
        ["certify", *base, "--cycle", "heisenberg_c1", "--n", "17"],
        ["sweep", *base, "--n", "17", "--samples", "2"],
    ):
        assert runner.invoke(main, args).exit_code == 0
    assert len(calls) == 1 and calls[0] is catalog.heisenberg3()


def test_a_sweep_at_a_billion_needs_no_n_entry_table(tmp_path):
    # At n = 2^30 + 1 an n-entry float table is 8 GiB; the sweep's norms
    # need only the chords of its distinct gaps, so it runs in a child
    # process whose address space is capped at 1.5 GB.
    def cap():
        limit = 1500 * 10**6
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(nilstab.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "nilstab.cli", "sweep", "--group", "lattice:2",
         "--cocycle", "builtin:z2_skinny", "--n", "1073741825", "--samples", "2",
         "--seed", "1"],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(row.startswith("1073741825,") and row.endswith(",ok") for row in rows)


def test_sweep_fails_when_no_size_is_coprime(runner):
    # Every size is even and heisenberg_skinny has denominator 2: every row
    # is skipped, so nothing was measured.
    result = runner.invoke(
        main,
        ["sweep", "--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny",
         "--n", "16,32,64,128,256", "--samples", "2"],
    )
    assert result.exit_code == 1
    rows = result.stdout.strip().split("\n")[1:]
    assert len(rows) == 10
    assert all(row.endswith(",skipped:not_coprime") for row in rows)
    assert result.stderr == (
        "error: no size in --n is coprime to the coefficient denominator 2\n"
    )


def test_sweep_writes_to_a_file(runner, tmp_path):
    out = tmp_path / "table.csv"
    result = runner.invoke(
        main,
        ["sweep", "--group", "lattice:2", "--cocycle", "z2_skinny",
         "--n", "4", "--samples", "1", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text().startswith("n,x,y,")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def assert_sweep_is_exact(stdout: str) -> None:
    # Every row is ok, and its norms are within 4 ulp of the true values.
    for line in stdout.splitlines()[1:]:
        n, _, _, sigma_xy, fro, _, op, _, status = line.split(",")
        assert status == "ok", line
        assert defect_ulps(int(n), int(sigma_xy), float(fro), float(op)) <= 4, line


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny",
          "--n", "17,33,65,129", "--samples", "200", "--seed", "1"],
         "22dcfe22e70d20768db9f9cf47e425ec5fa02036c9620fbcd36824718d550ce6"),
        (["--group", "lattice:2", "--cocycle", "builtin:z2_skinny",
          "--n", "257,513,1023", "--samples", "20", "--seed", "1"],
         "a177fe1c87dfa5a054f1d8ace8a4ebf1ee95a029f80002417a229e09f1df6367"),
    ],
    ids=["heisenberg", "lattice-dense"],
)
def test_benchmark_sweeps_print_the_pinned_csv(runner, args, digest):
    # The SHA-256 of the CSV these sweeps print since each row's norms are
    # the closed form 2 |sin(pi c / n)| and sqrt(n) times it, and its
    # bounds 2 pi (|sigma| / n) and sqrt(n) times that (x86-64, glibc's
    # libm); every row is within 4 ulp of the true norms.
    result = runner.invoke(main, ["sweep", *args])
    assert result.exit_code == 0, everything(result)
    assert _sha256(result.stdout) == digest
    assert result.stderr == ""
    assert_sweep_is_exact(result.stdout)


def test_a_sweep_past_the_dense_cap_prints_the_pinned_csv(runner):
    # As above, at n = 2^20 + 1, where a dense row would hold 2^40 entries.
    result = runner.invoke(
        main,
        ["sweep", "--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny",
         "--n", "1048577", "--samples", "20", "--seed", "1"],
    )
    assert result.exit_code == 0, everything(result)
    assert _sha256(result.stdout) == (
        "df8c4dd4d08b9c2f1b950b12fdad66a79558dc8e23818e001cae5cd66ff7a7ac"
    )
    assert result.stderr == ""
    assert_sweep_is_exact(result.stdout)


@pytest.mark.parametrize(
    "group, cocycle, cycle",
    [("heisenberg3", "heisenberg_skinny", "heisenberg_c1"),
     ("lattice:2", "z2_skinny", "voiculescu")],
    ids=["heisenberg3", "lattice2"],
)
def test_certify_and_sweep_run_at_any_size(runner, group, cocycle, cycle):
    # Far past int64: every run winds to -1 inside the convergence ball,
    # and n and margin travel as decimal strings that read back exactly.
    sizes = [2**127 - 1, 10**40 + 1]
    given = ["--group", group, "--cocycle", cocycle]
    result = runner.invoke(
        main, ["certify", *given, "--cycle", cycle, "--n", ",".join(map(str, sizes))]
    )
    assert result.exit_code == 0, everything(result)
    runs = json.loads(result.stdout)["runs"]
    assert [run["n"] for run in runs] == [str(n) for n in sizes]
    assert [_decode_json_int(run["n"]) for run in runs] == sizes
    assert all(run["winding"] == "-1" and run["rounded"] == -1 for run in runs)
    assert all(_decode_json_int(run["margin"]) > 0 for run in runs)
    g = catalog.resolve_group(group)
    sigma, chain = catalog.resolve_cocycle(cocycle, g), catalog.resolve_cycle(cycle, g)
    report = exact.certify_nonperturbability(g, sigma, chain, sizes)
    assert [_decode_json_int(run["margin"]) for run in runs] == [r.margin for r in report.runs]
    result = runner.invoke(main, ["sweep", *given, "--n", str(sizes[0])])
    assert result.exit_code == 0, everything(result)
    assert len(result.stdout.splitlines()) == 21
    assert_sweep_is_exact(result.stdout)
    assert result.stderr == ""


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny",
          "--cycle", "builtin:heisenberg_c1",
          "--n", ",".join(str(n) for n in range(17, 130, 2))],
         "39a283018a2f1376557a4c1d8b97583c905f04090c3bdcc0faa79b8c09b415c6"),
        (["--group", "lattice:2", "--cocycle", "builtin:z2_skinny",
          "--cycle", "builtin:voiculescu", "--n", "257,513,1023"],
         "7e628861d2991823faae6cce6d953795506cb3bd04635e624b04888477502715"),
    ],
    ids=["heisenberg", "lattice-dense"],
)
def test_benchmark_certificates_print_the_pinned_json(runner, args, digest):
    # The SHA-256 of the one-line JSON these certificates print.  It parses
    # to the documents they printed when every size was paired through
    # residue tables, before the closed form.  The JSON records the package
    # version, so a version bump re-pins them.
    result = runner.invoke(main, ["certify", *args])
    assert result.exit_code == 0, everything(result)
    assert _sha256(result.stdout) == digest
    assert result.stderr == ""


@pytest.mark.parametrize(
    "given, fmt, code, digest",
    [
        (["--group", "heisenberg3", "--cocycle", "heisenberg_skinny"], "text", 0,
         "a2890d84a8c3f311bb0bf9e4a4c4747b4445545a455519235486db8ff8c6c852"),
        (["--group", "heisenberg3", "--cocycle", "heisenberg_skinny"], "json", 0,
         "3971c0f40a8209f3a027cc8cbc9591e7c1713683b891b812d5b4c752de3a3ffc"),
        (["--group", "lattice:2", "--cocycle", "z2_skinny"], "text", 0,
         "8044b53c49b5a7a2adda9366495cffbae008a396ad04c3ed52731f37184be5e3"),
        (["--group", "lattice:2", "--cocycle", "z2_skinny"], "json", 0,
         "e11e806969296d54f992c1309a8782004f1fdab0ccef3e8ebf7910442b6be31d"),
        (None, "text", 1, "51b8a80445f84f3872f49a8f730832abfc5087691af1096f31b05f94062b9532"),
        (None, "json", 1, "0fc4c1f3adbcf3547c49cce37bff1cfc0aa80c160a8bdbae88508881facb09c9"),
    ],
    ids=["heisenberg-text", "heisenberg-json", "lattice-text", "lattice-json",
         "broken-text", "broken-json"],
)
def test_validate_prints_the_pinned_report(runner, broken_group, given, fmt, code, digest):
    # The SHA-256 of what `validate` prints; its JSON parses to the documents
    # it printed when each check stored its `passed` flag beside its
    # witness.  The broken group's two failing checks print "passed": false,
    # or [FAIL], with their witnesses.
    result = runner.invoke(main, ["validate", *(given or ["--group", broken_group]),
                                  "--format", fmt])
    assert result.exit_code == code, everything(result)
    assert _sha256(result.stdout) == digest
    assert result.stderr == ""


HEISENBERG_SWEEP = ["sweep", "--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny",
                    "--samples", "200", "--seed", "1"]


def test_a_sweep_measures_each_distinct_sigma_once_per_size(runner, monkeypatch):
    # The heisenberg benchmark sweep has 800 rows but only 26 distinct
    # sigma(x, y) per size: one chord per distinct (n, sigma), not one per
    # row, and not one per distinct gap -sigma mod n either, since the
    # bounds differ.
    calls = []
    chord = exact._chord

    def counted(value, n):
        calls.append((value, n))
        return chord(value, n)

    monkeypatch.setattr(exact, "_chord", counted)
    result = runner.invoke(main, [*HEISENBERG_SWEEP, "--n", "17,33,65,129"])
    assert result.exit_code == 0, everything(result)
    rows = [row.split(",") for row in result.stdout.splitlines()[1:]]
    assert len(rows) == 800
    assert len(calls) == len({(row[0], row[3]) for row in rows}) == 4 * 26


def test_every_sweep_row_is_its_pairs_own_defect(runner):
    # The reference, row by row: each pair drawn on its own (two
    # `sample_coords` calls), its row built from `exact.defect` on that pair
    # alone, or from sigma(x, y) at size 16, which shares heisenberg_skinny's
    # denominator 2 and is skipped.
    sigma = catalog.heisenberg_skinny()
    rng = make_rng(1)
    pairs = [(sample_coords(rng, 3, 3), sample_coords(rng, 3, 3)) for _ in range(200)]
    expected = ["n,x,y,sigma_xy,frob_defect,frob_bound,op_defect,op_bound,status"]
    for n in (16, 17, 33, 65, 129):
        for x, y in pairs:
            head = f"{n},{';'.join(map(str, x))},{';'.join(map(str, y))}"
            if n == 16:
                expected.append(f"{head},{sigma(x, y)},,,,,skipped:not_coprime")
                continue
            row = exact.defect(sigma, n, x, y)
            expected.append(
                f"{head},{row.sigma_xy},{row.frobenius!r},{row.frobenius_bound!r},"
                f"{row.operator!r},{row.operator_bound!r},ok"
            )
    result = runner.invoke(main, [*HEISENBERG_SWEEP, "--n", "16,17,33,65,129"])
    assert result.exit_code == 0, everything(result)
    assert result.stdout.splitlines() == expected


@pytest.mark.parametrize(
    "group_name, cocycle_name",
    [("lattice:2", "z2_skinny"), ("heisenberg3", "heisenberg_skinny")],
)
def test_the_sweep_csv_is_the_pair_by_pair_oracle(runner, group_name, cocycle_name):
    # Row by row from `defects_by_pairs`, which measures every pair on its
    # own from dense phase-shift products.  At n = 16 heisenberg_skinny's
    # rows are skipped:not_coprime and lattice:2's are measured.  Every
    # field but the two measured norms is equal as text; those agree to
    # the oracle's dense rounding (1e-11 relative).
    group = catalog.resolve_group(group_name)
    sigma = catalog.resolve_cocycle(cocycle_name, group)
    m = group.hirsch
    rng = make_rng(1)
    pairs = [(sample_coords(rng, m, 3), sample_coords(rng, m, 3)) for _ in range(40)]
    values, by_size = defects_by_pairs(sigma, [16, 17], pairs)
    expected = []
    for n, results in zip((16, 17), by_size):
        for (x, y), value in zip(pairs, values):
            head = [str(n), ";".join(map(str, x)), ";".join(map(str, y)), str(value)]
            if isinstance(results, NotCoprime):
                expected.append(head + ["", "", "", "", "skipped:not_coprime"])
            else:
                row = results[value]
                expected.append(head + [row.frobenius, repr(row.frobenius_bound),
                                        row.operator, repr(row.operator_bound), "ok"])
    result = runner.invoke(main, ["sweep", "--group", group_name, "--cocycle", cocycle_name,
                                  "--n", "16,17", "--samples", "40", "--seed", "1"])
    assert result.exit_code == 0, everything(result)
    lines = result.stdout.splitlines()
    assert lines[0] == "n,x,y,sigma_xy,frob_defect,frob_bound,op_defect,op_bound,status"
    assert len(lines) == 1 + len(expected) == 81
    for line, want in zip(lines[1:], expected):
        fields = line.split(",")
        assert len(fields) == len(want), line
        for got, field in zip(fields, want):
            if isinstance(field, float):
                assert math.isclose(float(got), field, rel_tol=1e-11), (line, want)
            else:
                assert got == field, (line, want)
    statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
    skipped = 40 if cocycle_name == "heisenberg_skinny" else 0
    assert statuses == ["skipped:not_coprime"] * skipped + ["ok"] * (80 - skipped)


def test_failing_sweeps_keep_their_exit_codes_and_stderr(runner):
    # The all-skipped sweep, with its pinned output.
    skipped = runner.invoke(
        main,
        ["sweep", "--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny",
         "--n", "16,32,64,128,256", "--samples", "2"],
    )
    assert skipped.exit_code == 1
    assert _sha256(skipped.stdout) == (
        "0f475b6d8621df797929df65263c126752a36fff0ef88774c7329ffb92f4b30b"
    )
    assert skipped.stderr == (
        "error: no size in --n is coprime to the coefficient denominator 2\n"
    )


# ----------------------------------------------------------------------
# the JSON documents


def test_the_cli_documents_are_written_as_json_dumps_writes_them(runner, broken_group):
    # Both benchmark certificates, `validate` on both builtins, and a group
    # document that fails its proof, whose checks carry witnesses: each
    # prints json.dumps(..., sort_keys=True) of the library's to_json().
    cases = []
    for group_name, cocycle_name, cycle_name, sizes in (
        ("heisenberg3", "heisenberg_skinny", "heisenberg_c1", range(17, 130, 2)),
        ("lattice:2", "z2_skinny", "voiculescu", [257, 513, 1023]),
    ):
        group = catalog.resolve_group(group_name)
        sigma = catalog.resolve_cocycle(cocycle_name, group)
        chain = catalog.resolve_cycle(cycle_name, group)
        report = exact.certify_nonperturbability(group, sigma, chain, list(sizes))
        given = ["--group", group_name, "--cocycle", cocycle_name]
        cases.append((["certify", *given, "--cycle", cycle_name, "--n", ",".join(map(str, sizes))],
                      0, report.to_json()))
        cases.append((["validate", *given, "--format", "json"], 0,
                      [r.to_json() for r in (group.proof, sigma.proof, skinny_check(sigma))]))
    with pytest.raises(ValidationError) as failed:
        catalog.resolve_group(broken_group)
    broken = [failed.value.report.to_json()]
    assert any(check["witness"] is not None for check in broken[0]["checks"])
    cases.append((["validate", "--group", broken_group, "--format", "json"], 1, broken))
    for args, code, doc in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == code, everything(result)
        assert result.stdout == json.dumps(doc, sort_keys=True) + "\n"
