"""Command line interface.

Exit codes: 0 when every requested check passes, 1 when a mathematical
check or certificate fails (an unproved cocycle included), 2 for
unparseable input or bad usage, a size the library refuses and an `--out`
path that cannot be written included.  Every command is deterministic
given its inputs and seed; rerunning writes byte-identical output.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from . import __version__, catalog
from .cohomology import skinny_check
from .errors import NilstabError, NotCoprime, ParseError, ValidationError
from .exact import _int_text, certify_nonperturbability, defects
from .poly import _int_literal
from .validation import DEFAULT_SEED, make_rng, sample_coords


def _usage_guard(fn, *args, **kwargs):
    """Run a resolver, translating bad input into usage errors (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except (ParseError, OSError) as exc:  # OSError: a path that cannot be opened
        raise click.UsageError(str(exc)) from exc


def _fail(exc: Exception | str, code: int = 1) -> NoReturn:
    """Report a failed check (exit 1), or a refused size or path (exit 2), on stderr."""
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [_int_literal(part, "matrix size") for part in text.split(",") if part]
    except ParseError as exc:
        raise click.UsageError(str(exc)) from None
    if not values or any(v < 1 for v in values):
        raise click.UsageError("matrix sizes must be positive integers")
    return values


def _emit(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout; a path that cannot be written exits 2."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {out_path}: {exc.strerror}", 2)
    else:
        click.echo(text, nl=False)


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
    try:
        group = _usage_guard(catalog.resolve_group, group_src)
        reports = [group.proof]
        if cocycle_src:
            sigma = _usage_guard(catalog.resolve_cocycle, cocycle_src, group)
            reports += [sigma.proof, skinny_check(sigma)]
    except ValidationError as exc:
        reports = [exc.report]  # a group document whose law failed its proof
    except NilstabError as exc:
        _fail(exc)
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
    n_list = _parse_n_list(n_text)
    try:
        group = _usage_guard(catalog.resolve_group, group_src)
        sigma = _usage_guard(catalog.resolve_cocycle, cocycle_src, group)
        chain = _usage_guard(catalog.resolve_cycle, cycle_src, group)
        report = certify_nonperturbability(group, sigma, chain, n_list)
    except NilstabError as exc:
        _fail(exc)
    except ValueError as exc:  # a pairing past the float winding
        _fail(exc, 2)
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
    n_list = _parse_n_list(n_text)
    try:
        group = _usage_guard(catalog.resolve_group, group_src)
        sigma = _usage_guard(catalog.resolve_cocycle, cocycle_src, group)
        m = group.hirsch
        coords = sample_coords(make_rng(seed), 2 * m * samples, bound)
        pairs = [(coords[i:i + m], coords[i + m:i + 2 * m]) for i in range(0, len(coords), 2 * m)]
        table = defects(sigma, n_list, pairs)
    except NilstabError as exc:
        _fail(exc)
    except ValueError as exc:  # a size, or a sigma(x, y), past the float norms or bounds
        _fail(exc, 2)
    lines = ["n,x,y,sigma_xy,frob_defect,frob_bound,op_defect,op_bound,status"]
    # Each pair's "x,y" fields are formatted once for all sizes.  The pairs
    # sharing sigma(x, y) at a size share its entry, so each size formats
    # the tail of each distinct value once.
    texts = [f"{';'.join(map(str, x))},{';'.join(map(str, y))}" for x, y in pairs]
    for n, rows in zip(n_list, table):
        tails: dict[int, str] = {}
        for (x, y), text, row in zip(pairs, texts, rows):
            tail = tails.get(row.sigma_xy)
            if tail is None:
                try:
                    value = str(row.sigma_xy)
                except ValueError:  # past the int-to-str limit: only a skipped row gets here
                    _fail(ValueError(f"sigma(x, y) = {_int_text(row.sigma_xy)} at ({x}, {y}) "
                                     f"is too large to write in decimal at n = {n}"), 2)
                tail = tails[row.sigma_xy] = (
                    f"{value},,,,,skipped:not_coprime"
                    if isinstance(row, NotCoprime)
                    else f"{value},{row.frobenius!r},{row.frobenius_bound!r},"
                    f"{row.operator!r},{row.operator_bound!r},ok"
                )
            lines.append(f"{n},{text},{tail}")
    # A size's rows are all NotCoprime or none is; --samples keeps them nonempty.
    skipped = all(isinstance(rows[0], NotCoprime) for rows in table)
    if skipped:
        click.echo(
            "error: no size in --n is coprime to the coefficient denominator "
            f"{sigma.poly.den}",
            err=True,
        )
    _emit("\n".join(lines) + "\n", out_path)
    sys.exit(1 if skipped else 0)


if __name__ == "__main__":
    main()
