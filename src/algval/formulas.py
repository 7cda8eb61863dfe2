"""Abstract syntax, parser and printer for the set-theoretic language.

Terms are variables or name constants (`#k`).  Connective precedence is
`~` over `/\\` over `\\/` over `->`, with `->` right-associative; `<->` is
definitional sugar for the two implications and is expanded at parse time,
as is the bounded quantifier `forall x in t. F` (to `forall x. x in t ->
F`) and its dual `exists x in t. F` (to `exists x. x in t /\\ F`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

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


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Eq, Mem)):
        out = set()
        for t in (f.left, f.right):
            if isinstance(t, Var):
                out.add(t.name)
        return frozenset(out)
    if isinstance(f, (And, Or, Imp)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    return frozenset()


def bound_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (And, Or, Imp)):
        return bound_vars(f.left) | bound_vars(f.right)
    if isinstance(f, Not):
        return bound_vars(f.body)
    if isinstance(f, (Forall, Exists)):
        return bound_vars(f.body) | {f.var}
    return frozenset()


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def is_negation_free(f: Formula) -> bool:
    """True when no negation node occurs anywhere; falsum is allowed."""
    if isinstance(f, Not):
        return False
    if isinstance(f, (And, Or, Imp)):
        return is_negation_free(f.left) and is_negation_free(f.right)
    if isinstance(f, (Forall, Exists)):
        return is_negation_free(f.body)
    return True


def _map_terms(f: Formula, fn) -> Formula:
    if isinstance(f, Eq):
        return Eq(fn(f.left), fn(f.right))
    if isinstance(f, Mem):
        return Mem(fn(f.left), fn(f.right))
    if isinstance(f, And):
        return And(_map_terms(f.left, fn), _map_terms(f.right, fn))
    if isinstance(f, Or):
        return Or(_map_terms(f.left, fn), _map_terms(f.right, fn))
    if isinstance(f, Imp):
        return Imp(_map_terms(f.left, fn), _map_terms(f.right, fn))
    if isinstance(f, Not):
        return Not(_map_terms(f.body, fn))
    if isinstance(f, Forall):
        return Forall(f.var, _map_terms(f.body, fn))
    if isinstance(f, Exists):
        return Exists(f.var, _map_terms(f.body, fn))
    return f


def subst_const(f: Formula, var: str, name_id: int) -> Formula:
    """Replace a free variable by a name constant (never captures)."""

    def walk(g: Formula) -> Formula:
        if isinstance(g, (Forall, Exists)) and g.var == var:
            return g
        if isinstance(g, (Eq, Mem)):
            return _map_terms(g, lambda t: Const(name_id) if t == Var(var) else t)
        if isinstance(g, And):
            return And(walk(g.left), walk(g.right))
        if isinstance(g, Or):
            return Or(walk(g.left), walk(g.right))
        if isinstance(g, Imp):
            return Imp(walk(g.left), walk(g.right))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, Forall):
            return Forall(g.var, walk(g.body))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.body))
        return g

    return walk(f)


def rename_var(f: Formula, old: str, new: str) -> Formula:
    """Rename a free variable.  Refuses when the new name is already in use."""
    if old == new:
        return f
    if new in free_vars(f) | bound_vars(f):
        raise InputError(f"cannot rename {old!r} to {new!r}: name in use")

    def walk(g: Formula) -> Formula:
        if isinstance(g, (Forall, Exists)) and g.var == old:
            return g
        if isinstance(g, (Eq, Mem)):
            return _map_terms(g, lambda t: Var(new) if t == Var(old) else t)
        if isinstance(g, And):
            return And(walk(g.left), walk(g.right))
        if isinstance(g, Or):
            return Or(walk(g.left), walk(g.right))
        if isinstance(g, Imp):
            return Imp(walk(g.left), walk(g.right))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, Forall):
            return Forall(g.var, walk(g.body))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.body))
        return g

    return walk(f)


# -- parser -------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(->|<->|/\\|\\/|~|\(|\)|\.|=|#\d+|[A-Za-z_][A-Za-z0-9_]*)"
)
_KEYWORDS = {"forall", "exists", "in", "true", "false"}

# How deeply `~`, quantifiers, parentheses and binary connectives may nest;
# each operator of a chain such as `a /\ b /\ c` counts one level.  The
# cap keeps the parsers, and every recursive walk of what they return, far
# inside Python's recursion limit.
MAX_NESTING = 100


def _nest(depth: int) -> int:
    """One nesting level deeper; refuses formulas nested past MAX_NESTING."""
    if depth >= MAX_NESTING:
        raise InputError(f"formula nested deeper than {MAX_NESTING} levels")
    return depth + 1


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


class _Parser:
    def __init__(self, tokens: list[str], max_name: Optional[int]):
        self.tokens = tokens
        self.pos = 0
        self.max_name = max_name
        self.depth = 0

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
        outer = self.depth
        self.depth = _nest(outer)
        return outer

    def formula(self) -> Formula:
        outer = self.depth
        left = self.implication()
        while self.peek() == "<->":
            self.deeper()
            right = self.implication()
            left = iff(left, right)
        self.depth = outer
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            outer = self.deeper()
            right = self.implication()
            self.depth = outer
            return Imp(left, right)
        return left

    def disjunction(self) -> Formula:
        outer = self.depth
        left = self.conjunction()
        while self.peek() == "\\/":
            self.deeper()
            left = Or(left, self.conjunction())
        self.depth = outer
        return left

    def conjunction(self) -> Formula:
        outer = self.depth
        left = self.unary()
        while self.peek() == "/\\":
            self.deeper()
            left = And(left, self.unary())
        self.depth = outer
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            outer = self.deeper()
            body = self.unary()
            self.depth = outer
            return Not(body)
        if tok in ("forall", "exists"):
            return self.quantifier()
        return self.primary()

    def quantifier(self) -> Formula:
        kind = self.peek()
        outer = self.deeper()
        var = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", var) or var in _KEYWORDS:
            raise InputError(f"bad quantified variable {var!r}")
        bound = None
        if self.peek() == "in":
            self.take()
            bound = self.term()
        self.take(".")
        body = self.formula()
        self.depth = outer
        if kind == "forall":
            return Forall(var, body if bound is None else Imp(Mem(Var(var), bound), body))
        return Exists(var, body if bound is None else And(Mem(Var(var), bound), body))

    def primary(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            outer = self.deeper()
            f = self.formula()
            self.take(")")
            self.depth = outer
            return f
        if tok == "true":
            self.take()
            return TRUE
        if tok == "false":
            self.take()
            return FALSE
        left = self.term()
        op = self.take()
        if op == "=":
            return Eq(left, self.term())
        if op == "in":
            return Mem(left, self.term())
        raise InputError(f"expected '=' or 'in' after a term, found {op!r}")

    def term(self) -> Term:
        tok = self.take()
        if tok.startswith("#"):
            nid = int(tok[1:])
            if self.max_name is not None and nid >= self.max_name:
                raise InputError(f"unknown name constant #{nid}")
            return Const(nid)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in _KEYWORDS:
            return Var(tok)
        raise InputError(f"expected a term, found {tok!r}")


def parse(text: str, max_name: Optional[int] = None) -> Formula:
    """Parse a formula; `max_name` bounds the legal name constants."""
    parser = _Parser(_tokenize(text), max_name)
    f = parser.formula()
    if parser.peek() is not None:
        raise InputError(f"trailing tokens after formula: {parser.peek()!r}")
    return f


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
