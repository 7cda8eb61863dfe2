"""Command-line front end.

Subcommands: `algebra check`, `universe build`, `eval`, `check`, `quotient
export` and `logic`.  Exit code 0 means every selected verification passed,
1 means at least one failed (its counterexample is printed), 2 is a usage
or input problem.  The options that name an `envvar` below can also be set
through that environment variable, and no others can.  Every check
enumerates what it sweeps, so the machine-readable record output is
byte-identical across runs of the same configuration.
"""

from __future__ import annotations

import os
import sys
from contextlib import suppress
from typing import Optional

import click

from .algebra import (
    BUILTIN_NAMES, Algebra, builtin, check_cobounded, check_drim,
    check_filter, load_algebra, override_designated,
)
from .errors import AlgvalError, CapabilityError, InputError
from .evaluate import EvalContext
from .formulas import parse
from .proplogic import is_tautology, parse_prop
from .quotient import export_relations
from .theorems import CHECKS, Run, run_all
from .universe import DEFAULT_BUDGET, build_universe, parse_name_literal


def _resolve_algebra(spec: str, designated: Optional[str]
                     ) -> tuple[Algebra, frozenset[str]]:
    if os.path.sep in spec or os.path.exists(spec):
        alg, d = load_algebra(spec)
    else:
        alg, d = builtin(spec)
    if designated:
        members = [m for m in designated.replace(",", " ").split() if m]
        alg, d = override_designated(alg, members)
    if not d:
        raise InputError("no designated set: give one in the file or via --designated")
    return alg, d


def algebra_options(fn):
    fn = click.option(
        "--designated", "designated_spec", default=None, envvar="ALGVAL_DESIGNATED",
        help="override the designated set (comma separated element ids)")(fn)
    fn = click.option(
        "--algebra", "-a", "algebra_spec", default="ps3", envvar="ALGVAL_ALGEBRA",
        show_default=True,
        help=f"builtin ({', '.join(BUILTIN_NAMES)}) or a definition file")(fn)
    return fn


def run_options(fn):
    fn = click.option("--budget", default=DEFAULT_BUDGET, type=click.IntRange(min=0),
                      envvar="ALGVAL_BUDGET", show_default=True,
                      help="name enumeration budget")(fn)
    fn = click.option("--rank", default=2, type=click.IntRange(min=1),
                      envvar="ALGVAL_RANK", show_default=True,
                      help="rank bound of the enumerated universe")(fn)
    return fn


format_option = click.option("--format", "fmt", type=click.Choice(["text", "records"]),
                             default="text", envvar="ALGVAL_FORMAT", show_default=True)


def _fail_input(exc: Exception):
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


@click.group()
def cli():
    """Finite algebra-valued models: build algebras and universes, evaluate
    sentences, run the named validation checks."""


# -- algebra ---------------------------------------------------------------------------


@cli.group("algebra")
def algebra_group():
    """Algebra-level operations."""


@algebra_group.command("check")
@algebra_options
def algebra_check(algebra_spec, designated_spec):
    """Report the law verdicts for an algebra and its designated set."""
    try:
        alg, d = _resolve_algebra(algebra_spec, designated_spec)
        drim_rep = check_drim(alg)
        cob_rep = check_cobounded(alg)
        filt_rep = check_filter(alg, d)
    except AlgvalError as exc:
        _fail_input(exc)
    click.echo(f"algebra: {alg.name} ({len(alg)} elements)")
    click.echo(f"designated: {' '.join(sorted(d))}")
    seen = set()
    for rep in (drim_rep, cob_rep, filt_rep):
        for line in rep.lines():
            key = line.split(":", 1)[0]
            if key not in seen:
                seen.add(key)
                click.echo(line)
    essential = (drim_rep.ok("lattice") and drim_rep.ok("bounded")
                 and drim_rep.ok("distributive") and filt_rep.ok("filter"))
    sys.exit(0 if essential else 1)


# -- universe --------------------------------------------------------------------------


@cli.group("universe")
def universe_group():
    """Universe-level operations."""


@universe_group.command("build")
@algebra_options
@run_options
def universe_build(algebra_spec, designated_spec, rank, budget):
    """Enumerate the bounded universe and print the level sizes."""
    try:
        alg, _ = _resolve_algebra(algebra_spec, designated_spec)
        uni = build_universe(alg, rank, budget=budget)
    except AlgvalError as exc:
        _fail_input(exc)
    for r, size in uni.level_sizes().items():
        click.echo(f"rank {r}: {size} names")
    click.echo(f"total: {len(uni)} names")
    sys.exit(0)


# -- eval ------------------------------------------------------------------------------


@cli.command("eval")
@algebra_options
@run_options
@click.option("--assignment", type=click.Choice(["ba", "pa"]), default="pa",
              envvar="ALGVAL_ASSIGNMENT", show_default=True)
@click.option("--name", "name_literals", multiple=True,
              help="intern an ad-hoc name, e.g. '{#0: half}' (repeatable)")
@click.argument("formula_text")
def eval_command(algebra_spec, designated_spec, rank, budget, assignment,
                 name_literals, formula_text):
    """Evaluate a sentence and print the resulting element."""
    try:
        alg, d = _resolve_algebra(algebra_spec, designated_spec)
        uni = build_universe(alg, rank, budget=budget)
        for literal in name_literals:
            nid = parse_name_literal(literal, uni)
            click.echo(f"name #{nid} = {uni.pretty(nid)}", err=True)
        ctx = EvalContext(uni, d, assignment)
        sentence = parse(formula_text, max_name=len(uni.names))
        value = ctx.eval(sentence)
    except AlgvalError as exc:
        _fail_input(exc)
    click.echo(value)
    sys.exit(0)


# -- check -----------------------------------------------------------------------------


@cli.command("check")
@algebra_options
@run_options
@click.option("--seed", default=0, hidden=True,
              help="ignored; accepted so that callers passing it keep working")
@format_option
@click.option("--list", "list_checks", is_flag=True,
              help="list the available check names and exit")
@click.argument("selection", nargs=-1)
def check_command(algebra_spec, designated_spec, rank, budget, seed, fmt,
                  list_checks, selection):
    """Run named validation checks ('all' or explicit names)."""
    if list_checks:
        for name, check in CHECKS.items():
            click.echo(f"{name}: {check.help}")
        sys.exit(0)
    names = None
    if selection and list(selection) != ["all"]:
        names = list(selection)
    _run_checks(algebra_spec, designated_spec, fmt, names, rank_bound=rank, budget=budget)


def _run_checks(algebra_spec, designated_spec, fmt: str, names, **run):
    """Run the named checks, print their results in `fmt` and exit 1 if one
    failed, else 0."""
    try:
        alg, d = _resolve_algebra(algebra_spec, designated_spec)
        results = run_all(alg, d, names=names, **run)
    except AlgvalError as exc:
        _fail_input(exc)
    if fmt == "records":
        for r in results:
            click.echo(r.record_line())
    else:
        for r in results:
            for line in r.text_lines():
                click.echo(line)
        passed = sum(r.verdict == "pass" for r in results)
        failed = sum(r.verdict == "fail" for r in results)
        skipped = sum(r.verdict == "skipped" for r in results)
        click.echo(f"{passed} passed, {failed} failed, {skipped} skipped")
    sys.exit(1 if any(r.verdict == "fail" for r in results) else 0)


# -- quotient --------------------------------------------------------------------------


@cli.group("quotient")
def quotient_group():
    """Quotient-model operations."""


@quotient_group.command("export")
@algebra_options
@run_options
@click.option("--out", "out_path", default=None,
              help="write to a file instead of standard output")
def quotient_export(algebra_spec, designated_spec, rank, budget, out_path):
    """Build the quotient model and export classes and relations."""
    try:
        alg, d = _resolve_algebra(algebra_spec, designated_spec)
        run = Run(alg, d, rank_bound=rank, budget=budget)
        if not run.profile["ultra_designated_cobounded"]:
            raise CapabilityError("needs an ultra-designated cobounded algebra")
        qm = run.quotient
    except AlgvalError as exc:
        _fail_input(exc)
    text = export_relations(qm)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail_input(exc)
        click.echo(f"wrote {len(qm.classes)} classes to {out_path}")
    else:
        click.echo(text, nl=False)
    sys.exit(0)


# -- logic -----------------------------------------------------------------------------


@cli.group("logic")
def logic_group():
    """Propositional validity over the configured algebra."""


@logic_group.command("taut")
@algebra_options
@click.argument("formula_text")
def logic_taut(algebra_spec, designated_spec, formula_text):
    """Decide propositional validity; prints any falsifying valuation."""
    try:
        alg, d = _resolve_algebra(algebra_spec, designated_spec)
        f = parse_prop(formula_text)
        ok, falsifier = is_tautology(alg, d, f)
    except AlgvalError as exc:
        _fail_input(exc)
    if ok:
        click.echo("valid")
        sys.exit(0)
    parts = " ".join(f"{k}={v}" for k, v in sorted(falsifier.items()))
    click.echo(f"falsified by: {parts}")
    sys.exit(1)


@logic_group.command("para")
@algebra_options
@format_option
def logic_para(algebra_spec, designated_spec, fmt):
    """Check that explosion fails for some valuation."""
    _run_checks(algebra_spec, designated_spec, fmt, ["prop-paraconsistency"])


@logic_group.command("agree")
@algebra_options
@format_option
def logic_agree(algebra_spec, designated_spec, fmt):
    """Compare validity against the three-valued core on every formula of
    at most 5 nodes over p, q and r."""
    _run_checks(algebra_spec, designated_spec, fmt, ["prop-agreement"])


def main():
    """Run the command line, then end the process with its exit code once
    the output is flushed: the verdict is written, so interpreter teardown
    is skipped.  Any other exception propagates with its traceback."""
    try:
        cli()  # click's standalone mode always ends in SystemExit
    except SystemExit as exc:
        code = exc.code or 0
    for stream in (sys.stdout, sys.stderr):
        with suppress(OSError):  # a reader that closed the pipe early
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
