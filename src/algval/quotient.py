"""Quotient of a universe by designated pa-equality.

Since pa equality is two-valued on designated cobounded algebras and
indiscernibility holds, the designated-equality relation is an equivalence
whose classes support a well-defined satisfaction relation: a formula is
satisfied by a tuple of classes when it is valid at (any) representatives.
Equality and membership then induce four class relations: equal, distinct,
member and non-member.  Equal/distinct partition the class pairs; member
and non-member cover all class pairs and may overlap, which is exactly the
paraconsistent signature of these models.  `build_quotient` checks on
every pair of names that the partition is well defined, and names the
law that a failing pair breaks.  It reads the values of a name against
every other as two rows of the engine (`EvalContext.row`), once per class
of interchangeable names, not 2n² calls of one atomic value each.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import InputError, InvariantError
from .evaluate import EvalContext, NameClasses
from .formulas import Formula, free_vars


@dataclass
class QuotientModel:
    context: EvalContext
    classes: list[list[int]]
    class_of: dict[int, int]
    representatives: list[int]
    r_eq: set[tuple[int, int]] = field(default_factory=set)
    r_neq: set[tuple[int, int]] = field(default_factory=set)
    r_mem: set[tuple[int, int]] = field(default_factory=set)
    r_nmem: set[tuple[int, int]] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.classes)


class QuotientDefect(InvariantError):
    """A pair on which the partition is not well defined: `rel` at (#u, #v)
    breaks the law that `note` names, such as "member substitution via #3"."""

    def __init__(self, rel: str, u: int, v: int, note: str):
        super().__init__(f"classes and relations at the representatives are not well "
                         f"defined: {rel} at (#{u}, #{v}), {note}")
        self.rel, self.u, self.v, self.note = rel, u, v, note


def build_quotient(ctx: EvalContext) -> QuotientModel:
    """Partition the universe by designated pa equality and materialize the
    four class relations.

    Each name's values are read a row at a time (`EvalContext.row`): its
    `=` row, `u = z` for every z, and its `in` row, `u in z`.  Names of
    one class of interchangeable names (`EvalContext.name_classes`) have
    the same rows, so each class's rows are read once, at its first name.
    Read name by name, the partition is built by a first pass over the `=`
    rows in id order: a name in no earlier class opens one with the later
    names whose pa equality with it is top, and represents it.  Pa
    equality off the diagonal must be top or bottom.  A second pass reads
    both rows of each name, class by class, and the four relation verdicts
    at each pair must be those at the representatives.  The first pair
    that breaks this raises `QuotientDefect` naming the law: "not
    two-valued", or "transitivity", "member substitution" or "container
    substitution" via #w, the name equal to one of the pair with the other
    verdict ("of the negation" when only the negated relation's verdict
    differs).

    The passes run on the pairs of classes instead (`_by_class`) when
    every class's rows agree with the classes, which holds by the
    exactness of the classes: a name's value is then the one at the first
    name of its class.  Both passes find no pair that breaks a law exactly
    when the class pass finds no pair of classes that does, and they
    build the same partition.  Otherwise the passes run name by name
    (`_by_names`), so a defect is named at the pair a pass over every name
    finds.
    """
    if ctx.assignment != "pa":
        raise InputError("quotients are built over the pa assignment")
    alg = ctx.algebra
    d, star = ctx.designated_i, alg.star_t
    # One code per value: bit 0 set when it is designated, bit 1 when its
    # star is; a pair's four verdicts are the code of its equality plus 4
    # times the code of its membership.
    code = [(e in d) + 2 * (star[e] in d) for e in range(len(alg.elements))]
    names = ctx.name_classes()
    found = _by_class(ctx, names, code)
    if found is None:
        return _by_names(ctx, names, code)
    classes, comp, at_reps = found
    qm = QuotientModel(ctx, classes, {u: comp[c] for u, c in enumerate(names.of)},
                       [cls[0] for cls in classes])
    _relate(qm, at_reps)
    return qm


def _by_class(ctx: EvalContext, names: NameClasses, code: list[int]
              ) -> Optional[tuple[list[list[int]], list[int], list[list[int]]]]:
    """The classes of the quotient, the quotient class of each class of
    names and the verdicts at the pairs of representatives, computed on
    the pairs of classes of names; None when a row of a class disagrees
    with the classes, or a pair of classes may break a law.

    The pass by names then reads at (u, v) the value at the classes (A, B)
    of u and v.  So its first pass finds no pair that is not two-valued
    when every pair of classes is two-valued, but for A = B of one name.
    All the names of a class are in one quotient class or none, so the
    first name in no quotient class is the first name of its class A; it
    opens one with the later names whose class B has top at (A, B): the
    rest of A, which needs top at (A, A), and every class in no quotient
    class yet with top at (A, B).  A name's verdicts are those of its
    class at the classes of the names, so the second pass finds no break
    when every class's verdicts are those of the class of its quotient
    class's representative, and its verdict at each class B is the one at
    the class of B's representative.
    """
    top, two_values = ctx.algebra.top_i, {ctx.algebra.top_i, ctx.algebra.bottom_i}
    of, reps, sizes = names.of, names.reps, names.sizes
    k = len(reps)
    eqs, verdicts = [], []
    for r in reps:
        eq, mem = ctx.row("=", r), ctx.row("in", r)
        e, m = [eq[s] for s in reps], [mem[s] for s in reps]
        if (eq != array(eq.typecode, map(e.__getitem__, of))
                or mem != array(mem.typecode, map(m.__getitem__, of))):
            return None
        eqs.append(e)
        verdicts.append([code[a] + 4 * code[b] for a, b in zip(e, m)])
    if any(eqs[a][b] not in two_values for a in range(k) for b in range(k)
           if a != b or sizes[a] > 1):
        return None
    comp = [-1] * k
    count = 0
    for a in range(k):
        if comp[a] < 0:
            if sizes[a] > 1 and eqs[a][a] != top:
                return None
            comp[a] = count
            for b in range(a + 1, k):
                if comp[b] < 0 and eqs[a][b] == top:
                    comp[b] = count
            count += 1
    classes: list[list[int]] = [[] for _ in range(count)]
    for u, c in enumerate(of):
        classes[comp[c]].append(u)
    base = [of[cls[0]] for cls in classes]  # the class of each representative
    rep_class = [base[comp[b]] for b in range(k)]
    for a in range(k):
        row = verdicts[a]
        if row != verdicts[base[comp[a]]] or any(row[b] != row[c] for b, c in enumerate(rep_class)):
            return None
    return classes, comp, [[verdicts[a][b] for b in base] for a in base]


def _by_names(ctx: EvalContext, names: NameClasses, code: list[int]) -> QuotientModel:
    """The passes of `build_quotient` name by name, each name reading the
    rows of the first name of its class."""
    alg = ctx.algebra
    n = len(ctx.universe.names)
    top, two_values = alg.top_i, {alg.top_i, alg.bottom_i}
    of, first = names.of, names.reps

    def row(rel: str, u: int) -> array:
        return ctx.row(rel, first[of[u]])

    classes: list[list[int]] = []
    class_of: dict[int, int] = {}
    for u in range(n):
        eq = row("=", u)
        if not two_values.issuperset(eq[u + 1:]):
            v = next(v for v in range(u + 1, n) if eq[v] not in two_values)
            raise QuotientDefect("=", u, v, "not two-valued")
        if u not in class_of:
            # a name already in a class stays there; the verdicts show the break
            cls = [u] + [v for v in range(u + 1, n) if eq[v] == top and v not in class_of]
            for v in cls:
                class_of[v] = len(classes)
            classes.append(cls)
    reps = [cls[0] for cls in classes]
    qm = QuotientModel(ctx, classes, class_of, reps)

    def verdicts(u: int) -> list[int]:
        return [code[e] + 4 * code[m] for e, m in zip(row("=", u), row("in", u))]

    # Well-definedness, class by class: each name's verdicts are its
    # representative's (the left name moves, position 0), and each verdict
    # is the one at the right name's representative (position 1).
    rep_of = [reps[class_of[v]] for v in range(n)]
    at_reps = []
    for cls in classes:
        base = verdicts(cls[0])
        at_reps.append([base[r] for r in reps])
        for u in cls:
            verdict = base if u == cls[0] else verdicts(u)
            for pos, other in enumerate((base, list(map(verdict.__getitem__, rep_of)))):
                if verdict == other:
                    continue
                v = next(v for v in range(n) if verdict[v] != other[v])
                moved = (rep_of[u], v) if pos == 0 else (u, rep_of[v])
                bit = (verdict[v] ^ other[v]) & -(verdict[v] ^ other[v])  # the lowest that differs
                good, bad = ((u, v), moved) if verdict[v] & bit else (moved, (u, v))
                rel, law = ("=", "transitivity") if bit < 4 else (
                    "in", ("member substitution", "container substitution")[pos])
                negation = " of the negation" if bit in (2, 8) else ""
                raise QuotientDefect(rel, *bad, f"{law}{negation} via #{good[pos]}")
    _relate(qm, at_reps)
    return qm


def _relate(qm: QuotientModel, at_reps: list[list[int]]) -> None:
    """Fill the four class relations from the verdict codes at the pairs of
    representatives."""
    for i, j in itertools.product(range(len(at_reps)), repeat=2):
        for bit, rel in ((1, qm.r_eq), (2, qm.r_neq), (4, qm.r_mem), (8, qm.r_nmem)):
            if at_reps[i][j] & bit:
                rel.add((i, j))


def quotient_satisfies(qm: QuotientModel, f: Formula,
                       args: Sequence[int]) -> bool:
    """Satisfaction of a formula by a tuple of classes.

    Free variables, in sorted name order, are bound to the argument
    classes' representatives; the verdict is representative-independent
    because indiscernibility holds.
    """
    fv = free_vars(f)
    if len(fv) != len(args):
        raise InputError(f"formula has free variables {sorted(fv)}, got {len(args)} classes")
    for cls in args:
        if not 0 <= cls < len(qm.classes):
            raise InputError(f"no class [{cls}]")
    return satisfaction(qm, f)(*args)


def satisfaction(qm: QuotientModel, f: Formula) -> Callable[..., bool]:
    """`quotient_satisfies(qm, f, args)` as a function of the classes,
    compiled once for callers that test many tuples; the classes are not
    range-checked."""
    rep = qm.representatives.__getitem__
    holds = qm.context.sentence(f, sorted(free_vars(f)))
    d = qm.context.designated_i
    return lambda *classes: holds(*map(rep, classes)) in d


def export_relations(qm: QuotientModel) -> str:
    """Class manifest plus the membership edge lists, as plain text."""
    lines = []
    for i, cls in enumerate(qm.classes):
        lines.append(f"class [{i}] = " + " ".join(f"#{nid}" for nid in cls))
    for tag, rel in (("eq", qm.r_eq), ("neq", qm.r_neq), ("mem", qm.r_mem), ("nmem", qm.r_nmem)):
        lines.extend(f"{tag} [{i}] [{j}]" for i, j in sorted(rel))
    return "\n".join(lines) + "\n"
