"""Abstract syntax, traversal, parser and printer for the set-theoretic language.

Terms are variables or name constants (`#k`).  Connective precedence is
`~` over `/\\` over `\\/` over `->`, with `->` right-associative; `<->` is
definitional sugar for the two implications and is expanded at parse time,
as is the bounded quantifier `forall x in t. F` (to `forall x. x in t ->
F`) and its dual `exists x in t. F` (to `exists x. x in t /\\ F`).

The shape of the tree is known in one place: `children` lists a node's
immediate subformulas and `map_terms` rebuilds a formula with its terms
mapped, leaving alone the body of a binder of a given variable.  Every
walker (`free_vars`, `subst_const`, `rename_var`, the collapse transfer's
`bar_formula`, ...) is built from these two; only the evaluators and the
printers dispatch on node types themselves.

The propositional formulas of `proplogic` share the connective nodes and
the parser: `_Parser` reads the connectives and hands everything else to
an atom rule, which here reads quantifiers and `term (=|in) term`, and in
`proplogic` a bare variable.  For the same reason `enumerate_formulas`
builds formulas of either language from the atoms it is given.  Every
formula list a check sweeps comes from it through `battery`, and the
propositional corpus straight from it; no check samples instances.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import InputError


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name_id: int


Term = Union[Var, Const]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Mem:
    left: Term
    right: Term


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Eq, Mem, And, Or, Imp, Not, Top, Bot, Forall, Exists]

TRUE = Top()
FALSE = Bot()


def iff(a: Formula, b: Formula) -> Formula:
    return And(Imp(a, b), Imp(b, a))


BINDERS = (Forall, Exists)


def children(f) -> tuple:
    """The immediate subformulas of f; atoms, of either language, have none."""
    if isinstance(f, (And, Or, Imp)):
        return (f.left, f.right)
    if isinstance(f, (Not, Forall, Exists)):
        return (f.body,)
    return ()


def subformulas(f) -> Iterator:
    """f and every formula below it, in preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def map_terms(f: Formula, fn: Callable[[Term], Term], var: Optional[str] = None) -> Formula:
    """Rebuild f with every term t replaced by fn(t).

    The body of a binder of `var` is left untouched, so a substitution for
    the free occurrences of `var` passes `var` here.
    """
    if isinstance(f, (Eq, Mem)):
        return type(f)(fn(f.left), fn(f.right))
    if isinstance(f, BINDERS):
        return f if f.var == var else type(f)(f.var, map_terms(f.body, fn, var))
    kids = children(f)
    return type(f)(*[map_terms(g, fn, var) for g in kids]) if kids else f


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Eq, Mem)):
        return frozenset([t.name for t in (f.left, f.right) if isinstance(t, Var)])
    out = frozenset()
    for g in children(f):
        out |= free_vars(g)
    return out - {f.var} if isinstance(f, BINDERS) else out


def constants(f: Formula) -> frozenset[int]:
    """The name ids of the constants of f."""
    return frozenset(t.name_id for g in subformulas(f) if isinstance(g, (Eq, Mem))
                     for t in (g.left, g.right) if isinstance(t, Const))


def bound_vars(f: Formula) -> frozenset[str]:
    return frozenset(g.var for g in subformulas(f) if isinstance(g, BINDERS))


def is_negation_free(f: Formula) -> bool:
    """True when no negation node occurs anywhere; falsum is allowed."""
    return not any(isinstance(g, Not) for g in subformulas(f))


def subst_const(f: Formula, var: str, name_id: int) -> Formula:
    """Replace a free variable by a name constant (never captures)."""
    const = Const(name_id)
    return map_terms(f, lambda t: const if isinstance(t, Var) and t.name == var else t, var)


def enumerate_formulas(atoms: Sequence, max_nodes: int, negation: bool) -> list:
    """Every formula of at most `max_nodes` nodes built from the leaves
    `atoms` with /\\, \\/ and -> (and ~ when `negation` is set), each once.

    The order is fixed: by node count, and within a size the negations
    first, then the binary nodes by the size of their left operand, by
    connective and by the order of their operands.  Distinct atoms give
    distinct trees, so nothing is listed twice.
    """
    by_size: list[list] = [[], list(atoms)]
    for size in range(2, max_nodes + 1):
        level = [Not(f) for f in by_size[size - 1]] if negation else []
        for left in range(1, size - 1):
            for op in (And, Or, Imp):
                level += [op(a, b) for a in by_size[left] for b in by_size[size - 1 - left]]
        by_size.append(level)
    return [f for level in by_size[:max_nodes + 1] for f in level]


def battery(variables: Sequence[str], constants: Sequence[int], max_nodes: int,
            negation: bool, bounded: int = 0) -> list[tuple[str, Formula]]:
    """The formula list a check sweeps: every formula of at most
    `max_nodes` nodes over the atoms in `variables`, in `enumerate_formulas`
    order, each with its `print_formula` label.

    The terms are the variables followed by `#c` for each constant; for
    each pair of distinct terms s before t with s a variable, the atoms are
    `s in t`, `s = t` and `t in s`.  With `bounded` = k > 0 the list goes
    on with `exists m (m in v /\\ B)`, v the first variable, for each B of
    at most k nodes over the atoms with m as the one variable.
    """
    def atoms(names: Sequence[str]) -> list:
        terms = [Var(v) for v in names] + [Const(c) for c in constants]
        return [a for i, s in enumerate(terms[:len(names)]) for t in terms[i + 1:]
                for a in (Mem(s, t), Eq(s, t), Mem(t, s))]

    forms = enumerate_formulas(atoms(variables), max_nodes, negation)
    if bounded:
        m, v = Var("m"), Var(variables[0])
        forms += [Exists("m", And(Mem(m, v), b))
                  for b in enumerate_formulas(atoms(("m",)), bounded, negation)]
    return [(print_formula(f), f) for f in forms]


def rename_var(f: Formula, old: str, new: str) -> Formula:
    """Rename a free variable.  Refuses when the new name is already in use."""
    if old == new:
        return f
    if new in free_vars(f) | bound_vars(f):
        raise InputError(f"cannot rename {old!r} to {new!r}: name in use")
    renamed = Var(new)
    return map_terms(f, lambda t: renamed if isinstance(t, Var) and t.name == old else t, old)


# -- parser -------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(->|<->|/\\|\\/|~|\(|\)|\.|=|#\d+|[A-Za-z_][A-Za-z0-9_]*)"
)
_KEYWORDS = {"forall", "exists", "in", "true", "false"}

# How deeply `~`, quantifiers, parentheses and binary connectives may nest;
# each operator of a chain such as `a /\ b /\ c` counts one level.  The
# cap keeps the parser, and every recursive walk of what it returns, far
# inside Python's recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"syntax error at position {pos}: {text[pos:][:20]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_variable(tok: str) -> bool:
    """A variable name: an identifier that is not a keyword."""
    return _IDENT_RE.fullmatch(tok) is not None and tok not in _KEYWORDS


class _Parser:
    """Recursive descent over the connectives both languages share.

    `atom` parses whatever is not `~`, parentheses, `true` or `false`: the
    sentence rule reads quantifiers and `term (=|in) term`, the
    propositional rule a bare variable.
    """

    def __init__(self, text: str, atom: Callable[["_Parser"], Formula]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.atom = atom

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek() is not None:
            raise InputError(f"trailing tokens after formula: {self.peek()!r}")
        return f

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise InputError(f"expected {expected!r} but found {tok!r} at token {self.pos}")
        self.pos += 1
        return tok

    def deeper(self) -> int:
        """Take the next token one nesting level down; returns the old level."""
        self.take()
        level = self.depth
        if level >= MAX_NESTING:
            raise InputError(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth = level + 1
        return level

    def formula(self) -> Formula:
        level = self.depth
        left = self.implication()
        while self.peek() == "<->":
            self.deeper()
            right = self.implication()
            left = iff(left, right)
        self.depth = level
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            level = self.deeper()
            right = self.implication()
            self.depth = level
            return Imp(left, right)
        return left

    def disjunction(self) -> Formula:
        level = self.depth
        left = self.conjunction()
        while self.peek() == "\\/":
            self.deeper()
            left = Or(left, self.conjunction())
        self.depth = level
        return left

    def conjunction(self) -> Formula:
        level = self.depth
        left = self.unary()
        while self.peek() == "/\\":
            self.deeper()
            left = And(left, self.unary())
        self.depth = level
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            level = self.deeper()
            body = self.unary()
            self.depth = level
            return Not(body)
        if tok == "(":
            level = self.deeper()
            f = self.formula()
            self.take(")")
            self.depth = level
            return f
        if tok == "true":
            self.take()
            return TRUE
        if tok == "false":
            self.take()
            return FALSE
        return self.atom(self)


def parse(text: str, max_name: Optional[int] = None) -> Formula:
    """Parse a sentence; `max_name` bounds the legal name constants."""

    def term(p: _Parser) -> Term:
        tok = p.take()
        if tok.startswith("#"):
            nid = int(tok[1:])
            if max_name is not None and nid >= max_name:
                raise InputError(f"unknown name constant #{nid}")
            return Const(nid)
        if _is_variable(tok):
            return Var(tok)
        raise InputError(f"expected a term, found {tok!r}")

    def quantifier(p: _Parser) -> Formula:
        kind = p.peek()
        level = p.deeper()
        var = p.take()
        if not _is_variable(var):
            raise InputError(f"bad quantified variable {var!r}")
        bound = None
        if p.peek() == "in":
            p.take()
            bound = term(p)
        p.take(".")
        body = p.formula()
        p.depth = level
        if kind == "forall":
            return Forall(var, body if bound is None else Imp(Mem(Var(var), bound), body))
        return Exists(var, body if bound is None else And(Mem(Var(var), bound), body))

    def atom(p: _Parser) -> Formula:
        if p.peek() in ("forall", "exists"):
            return quantifier(p)
        left = term(p)
        op = p.take()
        if op == "=":
            return Eq(left, term(p))
        if op == "in":
            return Mem(left, term(p))
        raise InputError(f"expected '=' or 'in' after a term, found {op!r}")

    return _Parser(text, atom).parse()


# -- printer ------------------------------------------------------------------------

_LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4


def _print(f: Formula, level: int) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Eq):
        return f"{_print_term(f.left)} = {_print_term(f.right)}"
    if isinstance(f, Mem):
        return f"{_print_term(f.left)} in {_print_term(f.right)}"
    if isinstance(f, Not):
        return "~" + _print(f.body, _LEVEL_UNARY)
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        s = f"{kw} {f.var}. {_print(f.body, _LEVEL_IMP)}"
        return f"({s})" if level > _LEVEL_IMP else s
    if isinstance(f, And):
        s = f"{_print(f.left, _LEVEL_AND)} /\\ {_print(f.right, _LEVEL_AND + 1)}"
        return f"({s})" if level > _LEVEL_AND else s
    if isinstance(f, Or):
        s = f"{_print(f.left, _LEVEL_OR)} \\/ {_print(f.right, _LEVEL_OR + 1)}"
        return f"({s})" if level > _LEVEL_OR else s
    if isinstance(f, Imp):
        s = f"{_print(f.left, _LEVEL_IMP + 1)} -> {_print(f.right, _LEVEL_IMP)}"
        return f"({s})" if level > _LEVEL_IMP else s
    raise InputError(f"cannot print {f!r}")


def _print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"#{t.name_id}"


def print_formula(f: Formula) -> str:
    return _print(f, _LEVEL_IMP)


# -- axiom schemas --------------------------------------------------------------------

SCHEMA_NAMES = (
    "Extensionality",
    "ExtensionalityBar",
    "Pairing",
    "Infinity",
    "Union",
    "PowerSet",
    "Separation",
    "Collection",
    "Foundation",
)

# Variable slots the schema parameter may use, by schema name.
_PARAM_SLOTS = {"Separation": ("z",), "Collection": ("y", "z"), "Foundation": ("x",)}


def instantiate_axiom(schema: str, parameter: Optional[Formula] = None) -> Formula:
    """Produce the closed axiom for a schema, filling the parameter slot.

    Parameterized schemas expect their parameter's free variables drawn
    from a fixed slot convention: Separation uses z, Collection uses (y, z)
    and Foundation uses x.  The parameter must avoid the schema's other
    bound variable names so the substitutions below cannot capture.
    """
    v = Var
    if schema == "Extensionality":
        body = Imp(Forall("z", iff(Mem(v("z"), v("x")), Mem(v("z"), v("y")))),
                   Eq(v("x"), v("y")))
        return Forall("x", Forall("y", body))
    if schema == "ExtensionalityBar":
        same = iff(Mem(v("z"), v("x")), Mem(v("z"), v("y")))
        same_neg = iff(Not(Mem(v("z"), v("x"))), Not(Mem(v("z"), v("y"))))
        body = Imp(Forall("z", And(same, same_neg)), Eq(v("x"), v("y")))
        return Forall("x", Forall("y", body))
    if schema == "Pairing":
        body = iff(Mem(v("w"), v("z")), Or(Eq(v("w"), v("x")), Eq(v("w"), v("y"))))
        return Forall("x", Forall("y", Exists("z", Forall("w", body))))
    if schema == "Infinity":
        empty_part = Exists("y", And(Forall("z", Not(Mem(v("z"), v("y")))),
                                     Mem(v("y"), v("x"))))
        step = Forall("w", Imp(Mem(v("w"), v("x")),
                               Exists("u", And(Mem(v("u"), v("x")),
                                               Mem(v("w"), v("u"))))))
        return Exists("x", And(empty_part, step))
    if schema == "Union":
        body = iff(Mem(v("z"), v("y")),
                   Exists("w", And(Mem(v("w"), v("x")), Mem(v("z"), v("w")))))
        return Forall("x", Exists("y", Forall("z", body)))
    if schema == "PowerSet":
        body = iff(Mem(v("z"), v("y")),
                   Forall("w", Imp(Mem(v("w"), v("z")), Mem(v("w"), v("x")))))
        return Forall("x", Exists("y", Forall("z", body)))

    if schema not in _PARAM_SLOTS:
        raise InputError(f"unknown axiom schema {schema!r}")
    if parameter is None:
        raise InputError(f"schema {schema} needs a parameter formula")
    slots = _PARAM_SLOTS[schema]
    extra = free_vars(parameter) - set(slots)
    if extra:
        raise InputError(
            f"schema {schema} parameter may only use {slots}, got extra {sorted(extra)}"
        )

    if schema == "Separation":
        reserved = {"x", "y"}
        if (free_vars(parameter) | bound_vars(parameter)) & reserved:
            raise InputError(f"Separation parameter must avoid variables {sorted(reserved)}")
        body = iff(Mem(v("z"), v("y")), And(Mem(v("z"), v("x")), parameter))
        return Forall("x", Exists("y", Forall("z", body)))
    if schema == "Collection":
        reserved = {"x", "w", "v", "u"}
        if (free_vars(parameter) | bound_vars(parameter)) & reserved:
            raise InputError(f"Collection parameter must avoid variables {sorted(reserved)}")
        phi_vu = rename_var(rename_var(parameter, "y", "v"), "z", "u")
        antecedent = Forall("y", Imp(Mem(v("y"), v("x")), Exists("z", parameter)))
        consequent = Exists("w", Forall("v", Imp(
            Mem(v("v"), v("x")),
            Exists("u", And(Mem(v("u"), v("w")), phi_vu)))))
        return Forall("x", Imp(antecedent, consequent))
    # Foundation.  The whole induction step is quantified and the conclusion
    # sits outside that quantifier; scoping the conclusion inside it would
    # break the schema for any property that holds somewhere and fails
    # elsewhere, since the implication operator only collapses to bottom on
    # a bottom consequent.
    reserved = {"y", "z"}
    if (free_vars(parameter) | bound_vars(parameter)) & reserved:
        raise InputError(f"Foundation parameter must avoid variables {sorted(reserved)}")
    phi_y = rename_var(parameter, "x", "y")
    phi_z = rename_var(parameter, "x", "z")
    step = Imp(Forall("y", Imp(Mem(v("y"), v("x")), phi_y)), parameter)
    return Imp(Forall("x", step), Forall("z", phi_z))
