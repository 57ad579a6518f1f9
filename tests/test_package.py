"""The package's lazy exports, and an exact path that loads no numpy."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

import nilstab
from nilstab import exact, obstruction, representation
from nilstab.cli import main

ROOT = Path(__file__).resolve().parents[1]

# The public names that the exact module defines and both dense modules re-export.
RE_EXPORTED = {
    representation: ("DefectResult", "defect", "defects"),
    obstruction: (
        "PERTURBATION_RADIUS", "SIGN_CONVENTION", "SUMMED_WORD", "CertificateReport",
        "CertificateRun", "certify_nonperturbability",
    ),
}


def test_every_public_name_resolves():
    for name in nilstab.__all__:
        value = getattr(nilstab, name)
        module = sys.modules[f"nilstab.{nilstab._MODULE_OF[name]}"]
        assert value is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from nilstab import *", namespace)
    for name in nilstab.__all__:
        assert namespace[name] is getattr(nilstab, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'build_matrix'"):
        nilstab.build_matrix  # noqa: B018


@pytest.mark.parametrize("module", list(RE_EXPORTED), ids=lambda m: m.__name__)
def test_the_dense_modules_re_export_the_exact_names(module):
    for name in RE_EXPORTED[module]:
        assert getattr(module, name) is getattr(exact, name)
        if name in nilstab.__all__:
            assert getattr(nilstab, name) is getattr(exact, name)


def fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_validate_certify_and_sweep_load_no_numpy():
    # The benchmark's set-up and every CLI command it runs, on both of its
    # CLI workloads, then `certify` and `sweep` on both builtins at
    # n = 2^127 - 1, in one fresh process: numpy is needed only by the
    # dense path.  The residue kernel lives in `representation`, so an
    # unloaded `representation` means the kernel was called 0 times.
    # `extensions` is needed only by the Heisenberg builtins, so the
    # lattice workload, which runs first, leaves it unloaded.
    out = fresh(
        """
        import contextlib, importlib.util, io, sys
        import nilstab, nilstab.cli
        from nilstab import catalog

        def run(args):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    nilstab.cli.main.main(args=args, standalone_mode=False)
            except SystemExit as exc:
                assert exc.code in (0, None), (args, exc.code)

        spec = importlib.util.spec_from_file_location("session", "perfbench/session.py")
        session = sys.modules["session"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(session)
        for name in ("lattice-dense", "heisenberg"):
            workload = session.WORKLOADS[name]
            workload.set_up(catalog, 1)
            for op in workload.operations:
                run(workload.argv(op, 1))
                print(name, op, "numpy" in sys.modules, "nilstab.extensions" in sys.modules)
        n = str(2**127 - 1)
        for group, cocycle, cycle in (
            ("heisenberg3", "heisenberg_skinny", "heisenberg_c1"),
            ("lattice:2", "z2_skinny", "voiculescu"),
        ):
            given = ["--group", group, "--cocycle", cocycle, "--n", n]
            run(["certify", *given, "--cycle", cycle])
            run(["sweep", *given])
            print(group, "wide", "numpy" in sys.modules)
        print("kernel", "nilstab.representation" in sys.modules)
        """
    )
    assert out.splitlines() == [
        *(f"lattice-dense {op} False False" for op in ("validate", "certify", "sweep")),
        *(f"heisenberg {op} False True" for op in ("validate", "certify", "sweep")),
        "heisenberg3 wide False",
        "lattice:2 wide False",
        "kernel False",
    ]


HEISENBERG = ["--group", "heisenberg3", "--cocycle", "builtin:heisenberg_skinny"]
LATTICE = ["--group", "lattice:2", "--cocycle", "builtin:z2_skinny"]

# The benchmark certificates and `validate --format json` on both builtins,
# with the SHA-256 of what they print.
PINNED_JSON = [
    (["certify", *HEISENBERG, "--cycle", "builtin:heisenberg_c1",
      "--n", ",".join(str(n) for n in range(17, 130, 2))],
     "39a283018a2f1376557a4c1d8b97583c905f04090c3bdcc0faa79b8c09b415c6"),
    (["certify", *LATTICE, "--cycle", "builtin:voiculescu", "--n", "257,513,1023"],
     "7e628861d2991823faae6cce6d953795506cb3bd04635e624b04888477502715"),
    (["validate", *HEISENBERG, "--format", "json"],
     "3971c0f40a8209f3a027cc8cbc9591e7c1713683b891b812d5b4c752de3a3ffc"),
    (["validate", *LATTICE, "--format", "json"],
     "e11e806969296d54f992c1309a8782004f1fdab0ccef3e8ebf7910442b6be31d"),
]


def test_the_cli_writes_json_without_json_s_python_encoder(monkeypatch):
    # json.dumps with an indent cannot use json's C encoder and builds
    # json's generator-based one (`json.encoder._make_iterencode`), which
    # costs more than a certificate.  With that builder refusing, the CLI
    # still prints its pinned bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("json's Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="Python encoder"):
        json.dumps([1], indent=2)
    runner = CliRunner()
    for args, digest in PINNED_JSON:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output, result.exception)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, args


def test_the_dense_path_loads_numpy():
    # A certificate loads neither numpy nor the dense modules, also for a
    # cycle whose terms' elements do not commute; the positive control,
    # build_rho, forms a dense-path matrix.
    out = fresh(
        """
        import sys
        from nilstab.catalog import heisenberg3, heisenberg_c1, heisenberg_skinny
        from nilstab.cohomology import Chain2
        from nilstab.exact import certify_nonperturbability

        group, sigma = heisenberg3(), heisenberg_skinny()
        a, b, c = (1, 0, 0), (0, 17, 0), (0, 0, 1)
        ab, bc = group.multiply(a, b), group.multiply(b, c)
        extra = [(1, b, c), (-1, ab, c), (1, a, bc), (-1, a, b)]
        chain = Chain2.build([*heisenberg_c1().terms, *extra])
        certify_nonperturbability(group, sigma, chain, [17])
        print("numpy" in sys.modules, "nilstab.representation" in sys.modules)
        """
    )
    assert out.split() == ["False", "False"]
    out = fresh(
        """
        import sys
        from nilstab.catalog import z2_skinny
        import nilstab

        nilstab.build_rho(z2_skinny(), 4, (1, 1))
        print("numpy" in sys.modules)
        """
    )
    assert out.split() == ["True"]


def test_the_heisenberg_catalog_builds_without_fractions():
    # The group law's proof, the promotion and the cocycle's proof are
    # integer polynomial arithmetic (numerators over one denominator), so
    # building the three Heisenberg builtins makes no Fraction at all.
    out = fresh(
        """
        import cProfile, pstats
        from nilstab import catalog

        profile = cProfile.Profile()
        profile.enable()
        group = catalog.resolve_group("heisenberg3")
        catalog.resolve_cocycle("builtin:heisenberg_skinny", group)
        catalog.resolve_cycle("builtin:heisenberg_c1", group)
        profile.disable()
        stats = pstats.Stats(profile).stats
        print(sum(row[1] for (path, _, name), row in stats.items()
                  if name == "__new__" and path.endswith("fractions.py")))
        """
    )
    assert int(out) == 0
