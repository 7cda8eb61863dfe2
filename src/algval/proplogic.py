"""Propositional many-valued validity over a finite algebra.

A propositional formula is a tree over variables and the shared connective
nodes, read by the sentence parser with a bare-variable atom rule; a
valuation maps every variable to an element and evaluation is the
homomorphic extension through the algebra tables.  A formula is evaluated
as one value column: its value at every valuation of its own variables,
sorted, in `itertools.product` order, one byte each (a 16-bit array past
256 elements).  A node's column is built from its children's, each
broadcast to the node's variables by an index map, with one table lookup
per valuation; small formulas keep their columns on the algebra, so a
formula built from them, as the agreement corpus's are, computes only its
own node.  Validity reads the whole column, so the variable count is
capped by a valuation budget.
"""

from __future__ import annotations

import itertools
from array import array
from functools import partial
from operator import getitem, itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .algebra import Algebra
from .errors import AlgvalError, CapabilityError, InputError, ResourceError
from .formulas import And, Bot, Imp, Not, Or, Top, _is_variable, _node, _Parser, subformulas

MAX_VALUATIONS = 100_000
# Formulas of at most this many nodes keep their value columns: the
# agreement corpus reaches 5 nodes, so these are the ones shared as children.
KEPT_NODES = 4


PVar = _node("PVar", "name", module=__name__)


PropFormula = Union[PVar, And, Or, Imp, Not, Top, Bot]


def prop_vars(f: PropFormula) -> frozenset[str]:
    """The variables of f."""
    return frozenset(g.name for g in subformulas(f) if type(g) is PVar)


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
    """Homomorphic evaluation of a propositional formula: its value column
    read at the valuation's position."""
    values = {k: alg.index[alg.resolve(v)] for k, v in valuation.items()}
    variables, column = value_column(alg, f)
    position = 0
    for v in variables:
        if v not in values:
            raise InputError(f"no value assigned to variable {v!r}")
        position = position * len(alg.elements) + values[v]
    return alg.elements[column[position]]


def is_tautology(alg: Algebra, designated: Iterable[str], f: PropFormula
                 ) -> tuple[bool, Optional[dict[str, str]]]:
    """Exhaustive validity over all valuations.

    Returns (True, None) when every valuation lands in the designated set,
    else (False, the first falsifying valuation in `itertools.product`
    order), both read from f's value column.
    """
    d = frozenset(alg.index[alg.resolve(x)] for x in designated)
    variables, column = value_column(alg, f)
    first = bytes(map([i in d for i in range(len(alg.elements))].__getitem__, column)).find(0)
    if first < 0:
        return True, None
    valuations = itertools.product(alg.elements, repeat=len(variables))
    return False, dict(zip(variables, next(itertools.islice(valuations, first, None))))


def value_column(alg: Algebra, f: PropFormula) -> tuple[tuple[str, ...], Sequence[int]]:
    """f's variables, sorted, and the index of its value at each of their
    valuations, in `itertools.product` order.  A formula with more
    valuations than the cap raises `ResourceError`, before any other error
    it has."""
    try:
        return _column(alg, f)[:2]
    except AlgvalError:
        size, count = len(alg.elements), len(prop_vars(f))
        if size ** count > MAX_VALUATIONS:
            raise ResourceError(
                f"{count} variables over {size} elements "
                f"need {size ** count} valuations; cap is {MAX_VALUATIONS}") from None
        raise


def _column(alg: Algebra, f: PropFormula) -> tuple[tuple[str, ...], Sequence[int], int]:
    """f's sorted variables, value column and node count, bottom up: a
    child's column is broadcast to the node's variables by an index map and
    the node makes one table lookup per valuation.  Columns of at most
    `KEPT_NODES` nodes are kept on the algebra by identity (the entry holds
    the formula, so the identity cannot be reused while it is kept), and so
    are the index maps, by the children's variables."""
    kept = alg._columns.get(id(f))
    if kept is not None:
        return kept[1:]
    kind, size = type(f), len(alg.elements)
    store = bytes if size <= 256 else partial(array, "H")
    if kind is PVar:
        out = (f.name,), store(range(size)), 1
    elif kind is Top or kind is Bot:
        out = (), store([alg.top_i if kind is Top else alg.bottom_i]), 1
    elif kind is Not:
        if alg.star_t is None:
            raise CapabilityError(f"negation needs a star table; {alg.name} has none")
        variables, column, nodes = _column(alg, f.body)
        out = variables, store(map(alg.star_t.__getitem__, column)), nodes + 1
    elif kind is And or kind is Or or kind is Imp:
        table = alg.meet_t if kind is And else alg.join_t if kind is Or else alg.imp_t
        (lv, lc, ln), (rv, rc, rn) = _column(alg, f.left), _column(alg, f.right)
        variables, left, right = alg._columns.get((lv, rv)) or _broadcast(alg, lv, rv)
        rows = left(tuple(map(table.__getitem__, lc)))
        out = variables, store(map(getitem, rows, right(rc))), ln + rn + 1
    else:
        raise InputError(f"cannot evaluate {f!r}")
    if out[2] <= KEPT_NODES:
        alg._columns[id(f)] = (f, *out)
    return out


def _broadcast(alg: Algebra, lv: tuple[str, ...], rv: tuple[str, ...]) -> tuple:
    """The sorted variables of a node whose children have the variables lv
    and rv, and for each child a reader of its column at every valuation of
    the node's variables (`iter` when there is nothing to broadcast)."""
    n, variables = len(alg.elements), tuple(sorted({*lv, *rv}))
    if n ** len(variables) > MAX_VALUATIONS:
        raise ResourceError("over the valuation cap")  # restated by value_column
    plan = [variables]
    for inner in (lv, rv):
        index = [0]
        for v in variables:
            index = ([i * n + x for i in index for x in range(n)] if v in inner
                     else [i for i in index for _ in range(n)])
        plan.append(iter if len(index) == n ** len(inner) else itemgetter(*index))
    alg._columns[lv, rv] = tuple(plan)
    return alg._columns[lv, rv]


EXPLOSION = Imp(And(PVar("p"), Not(PVar("p"))), PVar("q"))

