"""Propositional many-valued validity over a finite algebra.

A propositional formula is a tree over variables and the shared connective
nodes, read by the sentence parser with a bare-variable atom rule; a
valuation maps every variable to an element and evaluation is the
homomorphic extension through the algebra tables.  Validity quantifies the
valuation over the whole carrier, exhaustively, so the variable count is
capped by a valuation budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .algebra import Algebra
from .errors import CapabilityError, InputError, ResourceError
from .formulas import And, Bot, Imp, Not, Or, Top, _is_variable, _Parser, subformulas

MAX_VALUATIONS = 100_000


@dataclass(frozen=True)
class PVar:
    name: str


PropFormula = Union[PVar, And, Or, Imp, Not, Top, Bot]


def prop_vars(f: PropFormula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, PVar))


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
    return alg.elements[_eval_i(alg, {k: alg.index[alg.resolve(v)]
                                      for k, v in valuation.items()}, f)]


def _eval_i(alg: Algebra, valuation: Mapping[str, int], f: PropFormula) -> int:
    if isinstance(f, PVar):
        try:
            return valuation[f.name]
        except KeyError:
            raise InputError(f"no value assigned to variable {f.name!r}")
    if isinstance(f, Top):
        return alg.top_i
    if isinstance(f, Bot):
        return alg.bottom_i
    if isinstance(f, And):
        return alg.meet_t[_eval_i(alg, valuation, f.left)][_eval_i(alg, valuation, f.right)]
    if isinstance(f, Or):
        return alg.join_t[_eval_i(alg, valuation, f.left)][_eval_i(alg, valuation, f.right)]
    if isinstance(f, Imp):
        return alg.imp_t[_eval_i(alg, valuation, f.left)][_eval_i(alg, valuation, f.right)]
    if isinstance(f, Not):
        if alg.star_t is None:
            raise CapabilityError(f"negation needs a star table; {alg.name} has none")
        return alg.star_t[_eval_i(alg, valuation, f.body)]
    raise InputError(f"cannot evaluate {f!r}")


def is_tautology(alg: Algebra, designated: Iterable[str], f: PropFormula,
                 max_valuations: int = MAX_VALUATIONS
                 ) -> tuple[bool, Optional[dict[str, str]]]:
    """Exhaustive validity over all valuations.

    Returns (True, None) when every valuation lands in the designated set,
    else (False, falsifying valuation).
    """
    d = frozenset(alg.index[alg.resolve(x)] for x in designated)
    variables = sorted(prop_vars(f))
    total = len(alg.elements) ** len(variables)
    if total > max_valuations:
        raise ResourceError(
            f"{len(variables)} variables over {len(alg.elements)} elements "
            f"need {total} valuations; cap is {max_valuations}")
    for combo in itertools.product(range(len(alg.elements)), repeat=len(variables)):
        valuation = dict(zip(variables, combo))
        if _eval_i(alg, valuation, f) not in d:
            return False, {v: alg.elements[i] for v, i in valuation.items()}
    return True, None


EXPLOSION = Imp(And(PVar("p"), Not(PVar("p"))), PVar("q"))


def random_prop_corpus(count: int, seed: int, max_vars: int = 3,
                       max_depth: int = 4) -> list[PropFormula]:
    """Seeded corpus of random propositional formulas."""
    rng = random.Random(seed)
    variables = [f"p{i}" for i in range(max_vars)]

    def gen(depth: int) -> PropFormula:
        if depth == 0 or rng.random() < 0.25:
            r = rng.random()
            if r < 0.85:
                return PVar(rng.choice(variables))
            return Top() if r < 0.925 else Bot()
        kind = rng.choice(("and", "or", "imp", "not"))
        if kind == "not":
            return Not(gen(depth - 1))
        ctor = {"and": And, "or": Or, "imp": Imp}[kind]
        return ctor(gen(depth - 1), gen(depth - 1))

    return [gen(max_depth) for _ in range(count)]
