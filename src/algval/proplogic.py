"""Propositional many-valued validity over a finite algebra.

A propositional formula is a tree over variables and the shared connective
nodes, read by the sentence parser with a bare-variable atom rule; a
valuation maps every variable to an element and evaluation is the
homomorphic extension through the algebra tables.  A formula is compiled
once into closures that evaluate many valuations at a time, held as
columns (one list per variable, one entry per valuation).  Validity
quantifies the valuation over the whole carrier, exhaustively, so the
variable count is capped by a valuation budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Union

from .algebra import Algebra
from .errors import CapabilityError, InputError, ResourceError
from .formulas import And, Bot, Imp, Not, Or, Top, _is_variable, _Parser

MAX_VALUATIONS = 100_000


@dataclass(frozen=True)
class PVar:
    name: str


PropFormula = Union[PVar, And, Or, Imp, Not, Top, Bot]


def prop_vars(f: PropFormula) -> frozenset[str]:
    """The variables of f, by a walk that dispatches on the node types: it
    runs on every `is_tautology` call, of which a generic `subformulas`
    walk would take about a third."""
    names, stack = set(), [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is PVar:
            names.add(g.name)
        elif kind is Not:
            stack.append(g.body)
        elif kind is And or kind is Or or kind is Imp:
            stack += (g.left, g.right)
    return frozenset(names)


def print_prop(f: PropFormula) -> str:
    if isinstance(f, PVar):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Not):
        return "~" + _wrap(f.body)
    if isinstance(f, And):
        return f"{_wrap(f.left)} /\\ {_wrap(f.right)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left)} \\/ {_wrap(f.right)}"
    if isinstance(f, Imp):
        return f"{_wrap(f.left)} -> {_wrap(f.right)}"
    raise InputError(f"cannot print {f!r}")


def _wrap(f: PropFormula) -> str:
    if isinstance(f, (PVar, Top, Bot, Not)):
        return print_prop(f)
    return f"({print_prop(f)})"


def _prop_atom(p: _Parser) -> PropFormula:
    tok = p.take()
    if _is_variable(tok):
        return PVar(tok)
    raise InputError(f"expected a propositional variable, found {tok!r}")


def parse_prop(text: str) -> PropFormula:
    """Parse with the sentence grammar's connectives; atoms are bare names."""
    return _Parser(text, _prop_atom).parse()


def eval_prop(alg: Algebra, valuation: Mapping[str, str], f: PropFormula) -> str:
    """Homomorphic evaluation of a propositional formula."""
    values = {k: alg.index[alg.resolve(v)] for k, v in valuation.items()}
    run = _compile(alg, f, list(values), 1)
    return alg.elements[run([[i] for i in values.values()])[0]]


Column = list[int]


def _compile(alg: Algebra, f: PropFormula, variables: list[str], n: int
             ) -> Callable[[list[Column]], Column]:
    """f as a closure from the value columns of `variables` (in that order),
    each n valuations long, to f's value column.  Each connective makes one
    table lookup per valuation."""
    slot = {v: k for k, v in enumerate(variables)}
    tables = {And: alg.meet_t, Or: alg.join_t, Imp: alg.imp_t}

    def build(g: PropFormula) -> Callable[[list[Column]], Column]:
        kind = type(g)
        if kind in tables:
            table, a, b = tables[kind], build(g.left), build(g.right)
            return lambda cols: [table[x][y] for x, y in zip(a(cols), b(cols))]
        if kind is PVar:
            if g.name not in slot:
                raise InputError(f"no value assigned to variable {g.name!r}")
            return itemgetter(slot[g.name])
        if kind is Not:
            star = alg.star_t
            if star is None:
                raise CapabilityError(f"negation needs a star table; {alg.name} has none")
            a = build(g.body)
            return lambda cols: [star[x] for x in a(cols)]
        if kind is Top or kind is Bot:
            column = [alg.top_i if kind is Top else alg.bottom_i] * n
            return lambda cols: column
        raise InputError(f"cannot evaluate {g!r}")

    return build(f)


def is_tautology(alg: Algebra, designated: Iterable[str], f: PropFormula
                 ) -> tuple[bool, Optional[dict[str, str]]]:
    """Exhaustive validity over all valuations.

    Returns (True, None) when every valuation lands in the designated set,
    else (False, the first falsifying valuation in `itertools.product`
    order).  The valuations are evaluated one block per value of the first
    variable, as columns.
    """
    d = frozenset(alg.index[alg.resolve(x)] for x in designated)
    variables = sorted(prop_vars(f))
    size = len(alg.elements)
    total = size ** len(variables)
    if total > MAX_VALUATIONS:
        raise ResourceError(
            f"{len(variables)} variables over {size} elements "
            f"need {total} valuations; cap is {MAX_VALUATIONS}")
    ok = [i in d for i in range(size)].__getitem__
    # one block per value of the first variable (one block if there is
    # none); the columns of the other variables are shared by every block
    first = min(len(variables), 1)
    n = total // size ** first
    run = _compile(alg, f, variables, n)
    rest = [list(c) for c in zip(*itertools.product(range(size),
                                                    repeat=len(variables) - first))]
    for head in itertools.product(range(size), repeat=first):
        out = run([[a] * n for a in head] + rest)
        if not all(map(ok, out)):
            j = next(j for j, v in enumerate(out) if not ok(v))
            combo = (*head, *(col[j] for col in rest))
            return False, {v: alg.elements[i] for v, i in zip(variables, combo)}
    return True, None


EXPLOSION = Imp(And(PVar("p"), Not(PVar("p"))), PVar("q"))

