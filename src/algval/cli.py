"""Command-line front end.

Subcommands: `algebra check`, `universe build`, `eval`, `check`, `quotient
export` and `logic`.  Exit code 0 means every selected verification passed,
1 means at least one failed (its counterexample is printed), 2 is a usage
or input problem.  The options that name an `env` variable below can also
be set through that environment variable, and no others can; a value from
the variable is checked as the flag's would be.  Every check enumerates
what it sweeps, so the machine-readable record output is byte-identical
across runs of the same configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from typing import Optional

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


def _at_least(least: int):
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        return value
    return integer


def _one_of(*choices: str):
    def choice(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice {text!r} (choose from {', '.join(choices)})")
        return text
    return choice


def _option(parser, *flags, env: Optional[str] = None, default=None, help: str = "", **kw):
    """Add an option whose default is the value of `env`, when that is set.
    argparse converts a string default with `type` when the flag is not
    given, so a bad value there exits 2 naming the option, as a bad flag
    does.  argparse checks no default against `choices`, so `type` checks
    the choices too (`_one_of`)."""
    if env:
        default = os.environ.get(env, default)
        help += f" [env: {env}]"
    parser.add_argument(*flags, default=default, help=f"{help} (default: %(default)s)", **kw)


def _algebra_options(parser):
    _option(parser, "--algebra", "-a", env="ALGVAL_ALGEBRA", default="ps3",
            help=f"builtin ({', '.join(BUILTIN_NAMES)}) or a definition file")
    _option(parser, "--designated", env="ALGVAL_DESIGNATED",
            help="override the designated set (comma separated element ids)")


def _run_options(parser):
    _option(parser, "--rank", env="ALGVAL_RANK", default=2, type=_at_least(1),
            help="rank bound of the enumerated universe")
    _option(parser, "--budget", env="ALGVAL_BUDGET", default=DEFAULT_BUDGET,
            type=_at_least(0), help="name enumeration budget")


def _format_option(parser):
    _option(parser, "--format", env="ALGVAL_FORMAT", default="text",
            type=_one_of("text", "records"), metavar="{text,records}")


def _fail_input(exc: Exception):
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)


def _parser() -> argparse.ArgumentParser:
    """The command line: each command's parser names its handler."""
    root = argparse.ArgumentParser(prog="algval", description=cli.__doc__, allow_abbrev=False)
    top = root.add_subparsers(metavar="COMMAND", required=True)

    def group(name: str, help: str):
        return top.add_parser(name, help=help, description=help).add_subparsers(
            metavar="COMMAND", required=True)

    def command(commands, name: str, handler, *options) -> argparse.ArgumentParser:
        doc = handler.__doc__
        parser = commands.add_parser(name, help=" ".join(doc.split()), description=doc,
                                     allow_abbrev=False)
        for add in options:
            add(parser)
        parser.set_defaults(handler=handler, parser=parser)
        return parser

    command(group("algebra", "Algebra-level operations."), "check", algebra_check,
            _algebra_options)
    command(group("universe", "Universe-level operations."), "build", universe_build,
            _algebra_options, _run_options)
    p = command(top, "eval", eval_command, _algebra_options, _run_options)
    _option(p, "--assignment", env="ALGVAL_ASSIGNMENT", default="pa",
            type=_one_of("ba", "pa"), metavar="{ba,pa}")
    p.add_argument("--name", action="append", default=[],
                   help="intern an ad-hoc name, e.g. '{#0: half}' (repeatable)")
    p.add_argument("formula_text")
    p = command(top, "check", check_command, _algebra_options, _run_options, _format_option)
    # ignored; accepted so that callers passing it keep working
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--list", action="store_true", help="list the available check names and exit")
    p.add_argument("selection", nargs="*", help="'all' or check names (default: all)")
    p = command(group("quotient", "Quotient-model operations."), "export", quotient_export,
                _algebra_options, _run_options)
    p.add_argument("--out", help="write to a file instead of standard output")
    logic = group("logic", "Propositional validity over the configured algebra.")
    command(logic, "taut", logic_taut, _algebra_options).add_argument("formula_text")
    command(logic, "para", logic_para, _algebra_options, _format_option)
    command(logic, "agree", logic_agree, _algebra_options, _format_option)
    return root


def cli(argv: Optional[list[str]] = None):
    """Finite algebra-valued models: build algebras and universes, evaluate
    sentences, run the named validation checks."""
    args, rest = _parser().parse_known_args(argv)
    # check names may follow options, as in `check drim -a ps3 cobounded`
    if rest and hasattr(args, "selection") and not any(r.startswith("-") for r in rest):
        args.selection += rest
    elif rest:
        args.parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.handler(args)


# -- algebra ---------------------------------------------------------------------------


def algebra_check(args):
    """Report the law verdicts for an algebra and its designated set."""
    try:
        alg, d = _resolve_algebra(args.algebra, args.designated)
        drim_rep = check_drim(alg)
        cob_rep = check_cobounded(alg)
        filt_rep = check_filter(alg, d)
    except AlgvalError as exc:
        _fail_input(exc)
    print(f"algebra: {alg.name} ({len(alg)} elements)")
    print(f"designated: {' '.join(sorted(d))}")
    seen = set()
    for rep in (drim_rep, cob_rep, filt_rep):
        for line in rep.lines():
            key = line.split(":", 1)[0]
            if key not in seen:
                seen.add(key)
                print(line)
    essential = (drim_rep.ok("lattice") and drim_rep.ok("bounded")
                 and drim_rep.ok("distributive") and filt_rep.ok("filter"))
    sys.exit(0 if essential else 1)


# -- universe --------------------------------------------------------------------------


def universe_build(args):
    """Enumerate the bounded universe and print the level sizes."""
    try:
        alg, _ = _resolve_algebra(args.algebra, args.designated)
        uni = build_universe(alg, args.rank, budget=args.budget)
    except AlgvalError as exc:
        _fail_input(exc)
    for r, size in uni.level_sizes().items():
        print(f"rank {r}: {size} names")
    print(f"total: {len(uni)} names")
    sys.exit(0)


# -- eval ------------------------------------------------------------------------------


def eval_command(args):
    """Evaluate a sentence and print the resulting element."""
    try:
        alg, d = _resolve_algebra(args.algebra, args.designated)
        uni = build_universe(alg, args.rank, budget=args.budget)
        for literal in args.name:
            nid = parse_name_literal(literal, uni)
            print(f"name #{nid} = {uni.pretty(nid)}", file=sys.stderr)
        ctx = EvalContext(uni, d, args.assignment)
        sentence = parse(args.formula_text, max_name=len(uni.names))
        value = ctx.eval(sentence)
    except AlgvalError as exc:
        _fail_input(exc)
    print(value)
    sys.exit(0)


# -- check -----------------------------------------------------------------------------


def check_command(args):
    """Run named validation checks ('all' or explicit names)."""
    if args.list:
        for name, check in CHECKS.items():
            print(f"{name}: {check.help}")
        sys.exit(0)
    names = None
    if args.selection and args.selection != ["all"]:
        names = args.selection
    _run_checks(args, names, rank_bound=args.rank, budget=args.budget)


def _run_checks(args, names, **run):
    """Run the named checks, print their results in `args.format` and exit
    1 if one failed, else 0."""
    try:
        alg, d = _resolve_algebra(args.algebra, args.designated)
        results = run_all(alg, d, names=names, **run)
    except AlgvalError as exc:
        _fail_input(exc)
    if args.format == "records":
        for r in results:
            print(r.record_line())
    else:
        for r in results:
            for line in r.text_lines():
                print(line)
        passed = sum(r.verdict == "pass" for r in results)
        failed = sum(r.verdict == "fail" for r in results)
        skipped = sum(r.verdict == "skipped" for r in results)
        print(f"{passed} passed, {failed} failed, {skipped} skipped")
    sys.exit(1 if any(r.verdict == "fail" for r in results) else 0)


# -- quotient --------------------------------------------------------------------------


def quotient_export(args):
    """Build the quotient model and export classes and relations."""
    try:
        alg, d = _resolve_algebra(args.algebra, args.designated)
        run = Run(alg, d, rank_bound=args.rank, budget=args.budget)
        if not run.profile["ultra_designated_cobounded"]:
            raise CapabilityError("needs an ultra-designated cobounded algebra")
        qm = run.quotient
    except AlgvalError as exc:
        _fail_input(exc)
    text = export_relations(qm)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail_input(exc)
        print(f"wrote {len(qm.classes)} classes to {args.out}")
    else:
        sys.stdout.write(text)
    sys.exit(0)


# -- logic -----------------------------------------------------------------------------


def logic_taut(args):
    """Decide propositional validity; prints any falsifying valuation."""
    try:
        alg, d = _resolve_algebra(args.algebra, args.designated)
        f = parse_prop(args.formula_text)
        ok, falsifier = is_tautology(alg, d, f)
    except AlgvalError as exc:
        _fail_input(exc)
    if ok:
        print("valid")
        sys.exit(0)
    parts = " ".join(f"{k}={v}" for k, v in sorted(falsifier.items()))
    print(f"falsified by: {parts}")
    sys.exit(1)


def logic_para(args):
    """Check that explosion fails for some valuation."""
    _run_checks(args, ["prop-paraconsistency"])


def logic_agree(args):
    """Compare validity against the three-valued core on every formula of
    at most 5 nodes over p, q and r."""
    _run_checks(args, ["prop-agreement"])


def main():
    """Run the command line, then end the process with its exit code once
    the output is flushed: the verdict is written, so interpreter teardown
    is skipped.  A reader that closed the pipe early ends the process with
    exit 1 and no traceback.  Any other exception propagates with its
    traceback."""
    code = 0
    try:
        cli()  # every command ends in SystemExit
    except SystemExit as exc:
        code = exc.code or 0
    except BrokenPipeError:
        code = 1
    for stream in (sys.stdout, sys.stderr):
        with suppress(OSError):  # a reader that closed the pipe early
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
