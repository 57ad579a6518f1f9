"""Command line interface.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check or certificate fails (an unproved cocycle included), 2 for input the
package refuses, each refusal one `error:` line from `_fail`; click only
parses the options, and prints its usage block for one it cannot parse.
Every command is deterministic given its inputs and seed; rerunning writes
byte-identical output.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import NoReturn

import click

from . import __version__, catalog
from .cohomology import skinny_check
from .errors import NilstabError, NotCoprime, ParseError, ValidationError
from .exact import _size, certify_nonperturbability, defects
from .poly import _int_literal, _int_text
from .validation import DEFAULT_SEED, make_rng, sample_coords


def _fail(exc: Exception | str, code: int = 1) -> NoReturn:
    """Report a failed check (exit 1), or refused input (exit 2), as `error: <exc>` on stderr."""
    sys.stderr.write(f"error: {exc}\n")
    sys.exit(code)


@contextmanager
def _refusals():
    """Exit 2 on refused input (ParseError, OSError, ValueError), 1 on any other NilstabError."""
    try:
        yield
    except (ParseError, OSError, ValueError) as exc:
        _fail(exc, 2)
    except NilstabError as exc:
        _fail(exc)


def _parse_n_list(text: str) -> list[int]:
    return [_size(_int_literal(part, "matrix size"), 1) for part in text.split(",") if part]


def _emit(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout; a path that cannot be written exits 2."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {out_path}: {exc.strerror}", 2)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # so a closed pipe raises inside click, which handles it


@click.group()
@click.version_option(version=__version__, prog_name="nilstab")
def main():
    """Asymptotic representations of nilpotent groups and their certificates."""


@main.command()
@click.option("--group", "group_src", required=True,
              help="Builtin name (lattice:m, heisenberg3) or JSON document path.")
@click.option("--cocycle", "cocycle_src", default=None,
              help="Optional cocycle to check: builtin name or JSON path.")
@click.option("--samples", default=None, type=click.IntRange(min=1),
              help="Not used: polynomial checks are exact proofs.")
@click.option("--seed", default=DEFAULT_SEED, type=int, show_default=True,
              help="Not used: polynomial checks are exact proofs.")
@click.option("--grid/--no-grid", default=False,
              help="Not used: polynomial checks are exact proofs.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Write the report here instead of stdout.")
def validate(group_src, cocycle_src, samples, seed, grid, fmt, out_path):
    """Prove a group law and, optionally, a cocycle on it.

    Every group law and cocycle given here is polynomial, so each check is
    an exact proof and the sampling and grid options are accepted unused.
    """
    with _refusals():
        try:
            group = catalog.resolve_group(group_src)
            reports = [group.proof]
            if cocycle_src:
                sigma = catalog.resolve_cocycle(cocycle_src, group)
                reports += [sigma.proof, skinny_check(sigma)]
        except ValidationError as exc:
            reports = [exc.report]  # a group document whose law failed its proof
    if fmt == "json":
        text = json.dumps([r.to_json() for r in reports], sort_keys=True) + "\n"
    else:
        text = "\n".join(r.summary() for r in reports) + "\n"
    _emit(text, out_path)
    sys.exit(0 if all(r.ok for r in reports) else 1)


@main.command()
@click.option("--group", "group_src", required=True)
@click.option("--cocycle", "cocycle_src", required=True)
@click.option("--cycle", "cycle_src", required=True,
              help="Builtin name (voiculescu, heisenberg_c1) or JSON path.")
@click.option("--n", "n_text", default="17,33,65,129", show_default=True,
              help="Comma-separated matrix sizes, each coprime to the cocycle's "
                   "coefficient denominator (odd sizes for heisenberg_skinny).")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def certify(group_src, cocycle_src, cycle_src, n_text, out_path):
    """Emit a JSON non-perturbability certificate for a cocycle and cycle."""
    with _refusals():  # the sizes first, so a bad one is refused before any document is read
        n_list = _parse_n_list(n_text)
        group = catalog.resolve_group(group_src)
        sigma = catalog.resolve_cocycle(cocycle_src, group)
        chain = catalog.resolve_cycle(cycle_src, group)
        report = certify_nonperturbability(group, sigma, chain, n_list)
    text = json.dumps(report.to_json(), sort_keys=True) + "\n"
    _emit(text, out_path)
    sys.exit(0)


@main.command()
@click.option("--group", "group_src", required=True)
@click.option("--cocycle", "cocycle_src", required=True)
@click.option("--n", "n_text", default="17,33,65,129,257", show_default=True,
              help="Comma-separated matrix sizes, each coprime to the cocycle's "
                   "coefficient denominator (odd sizes for heisenberg_skinny); "
                   "rows at other sizes are skipped:not_coprime.")
@click.option("--samples", default=20, type=click.IntRange(min=1), show_default=True,
              help="Number of sampled (x, y) pairs.")
@click.option("--bound", default=3, type=click.IntRange(min=1), show_default=True)
@click.option("--seed", default=DEFAULT_SEED, type=int, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def sweep(group_src, cocycle_src, n_text, samples, bound, seed, out_path):
    """Tabulate multiplicativity defects and their bounds as CSV."""
    with _refusals():  # the sizes first, so a bad one is refused before any document is read
        n_list = _parse_n_list(n_text)
        group = catalog.resolve_group(group_src)
        sigma = catalog.resolve_cocycle(cocycle_src, group)
        m = group.hirsch
        coords = sample_coords(make_rng(seed), 2 * m * samples, bound)
        pairs = [(coords[i:i + m], coords[i + m:i + 2 * m]) for i in range(0, len(coords), 2 * m)]
        values, by_size = defects(sigma, n_list, pairs)
    # Each distinct sigma(x, y), pair's "x,y," and (size, sigma) tail is formatted once.
    words: dict[int, str] = {}
    for (x, y), value in zip(pairs, values):
        if value not in words:
            try:
                words[value] = str(value)
            except ValueError:  # past the int-to-str limit: every size was refused
                _fail(f"sigma(x, y) = {_int_text(value)} at ({x}, {y}) is too large to "
                      f"write in decimal at n = {n_list[0]}", 2)
    head = ",".join([";".join(["{}"] * m)] * 2) + ","  # "x1;..;xm,y1;..;ym,"
    heads = [head.format(*coords[i:i + 2 * m]) for i in range(0, len(coords), 2 * m)]
    blocks = ["n,x,y,sigma_xy,frob_defect,frob_bound,op_defect,op_bound,status"]
    for n, results in zip(n_list, by_size):
        if isinstance(results, NotCoprime):
            tails = {v: f"{word},,,,,skipped:not_coprime" for v, word in words.items()}
        else:
            tails = {v: f"{words[v]},{r.frobenius!r},{r.frobenius_bound!r},{r.operator!r},"
                        f"{r.operator_bound!r},ok" for v, r in results.items()}
        rows = map(str.__add__, heads, map(tails.__getitem__, values))
        blocks.append(f"{n}," + f"\n{n},".join(rows))
    _emit("\n".join(blocks) + "\n", out_path)
    if all(isinstance(results, NotCoprime) for results in by_size):
        _fail(f"no size in --n is coprime to the coefficient denominator {sigma.poly.den}")
    sys.exit(0)


if __name__ == "__main__":
    main()
