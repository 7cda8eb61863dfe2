"""Finite algebra-valued models of set theory.

Build small algebras (chains, powersets, the three-valued core and its
relatives), enumerate bounded-rank universes of names over them, evaluate
set-theoretic sentences under the boolean-style and paraconsistent
assignment functions, and run the named theorem checks, quotient-model
construction and propositional-logic validations.
"""

from .algebra import (
    Algebra,
    AlgebraReport,
    boolean_algebra,
    builtin,
    chain,
    check_cobounded,
    check_drim,
    check_filter,
    check_lattice,
    collapse_f,
    dumps_algebra,
    load_algebra,
    loads_algebra,
    ps3,
    stretch,
)
from .errors import (
    AlgvalError,
    CapabilityError,
    InputError,
    InvariantError,
    ResourceError,
)
from .evaluate import BqResult, EvalContext, bq_sides
from .formulas import (
    Formula,
    battery,
    enumerate_formulas,
    instantiate_axiom,
    is_negation_free,
    parse,
    print_formula,
)
from .proplogic import eval_prop, is_tautology, parse_prop
from .quotient import (
    QuotientModel,
    build_quotient,
    export_relations,
    quotient_satisfies,
)
from .theorems import CHECKS, CheckResult, Run, Workspace, replay, run_all, run_check
from .universe import Universe, build_universe, parse_name_literal

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
