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
law that a failing pair breaks.  It reads the values of each name against
every other as two rows of the engine (`EvalContext.row`), three row reads
per name in all, not 2n² calls of one atomic value each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import InputError, InvariantError
from .evaluate import EvalContext
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
    `=` row, `u = z` for every z, and its `in` row, `u in z`.  A first pass
    over the `=` rows in id order builds the partition: a name in no
    earlier class opens one with the later names whose pa equality with it
    is top, and represents it.  Pa equality off the diagonal must be top or
    bottom.  A second pass reads both rows of each name, class by class,
    and the four relation verdicts at each pair must be those at the
    representatives.  The first pair that breaks this raises
    `QuotientDefect` naming the law: "not two-valued", or "transitivity",
    "member substitution" or "container substitution" via #w, the name
    equal to one of the pair with the other verdict ("of the negation"
    when only the negated relation's verdict differs).
    """
    if ctx.assignment != "pa":
        raise InputError("quotients are built over the pa assignment")
    alg = ctx.algebra
    n = len(ctx.universe.names)
    top, two_values = alg.top_i, {alg.top_i, alg.bottom_i}
    classes: list[list[int]] = []
    class_of: dict[int, int] = {}
    for u in range(n):
        row = ctx.row("=", u)
        if not two_values.issuperset(row[u + 1:]):
            v = next(v for v in range(u + 1, n) if row[v] not in two_values)
            raise QuotientDefect("=", u, v, "not two-valued")
        if u not in class_of:
            # a name already in a class stays there; the verdicts show the break
            cls = [u] + [v for v in range(u + 1, n) if row[v] == top and v not in class_of]
            for v in cls:
                class_of[v] = len(classes)
            classes.append(cls)
    reps = [cls[0] for cls in classes]
    qm = QuotientModel(ctx, classes, class_of, reps)

    d = ctx.designated_i
    star = alg.star_t
    # One code per value: bit 0 set when it is designated, bit 1 when its
    # star is; a pair's four verdicts are the code of its equality plus 4
    # times the code of its membership.
    code = [(e in d) + 2 * (star[e] in d) for e in range(len(alg.elements))]

    def verdicts(u: int) -> list[int]:
        return [code[e] + 4 * code[m] for e, m in zip(ctx.row("=", u), ctx.row("in", u))]

    # Well-definedness, class by class: each name's verdicts are its
    # representative's (the left name moves, position 0), and each verdict
    # is the one at the right name's representative (position 1).
    rep_of = [reps[class_of[v]] for v in range(n)]
    at_reps = []
    for cls in classes:
        base = verdicts(cls[0])
        at_reps.append([base[r] for r in reps])
        for u in cls:
            row = base if u == cls[0] else verdicts(u)
            for pos, other in enumerate((base, list(map(row.__getitem__, rep_of)))):
                if row == other:
                    continue
                v = next(v for v in range(n) if row[v] != other[v])
                moved = (rep_of[u], v) if pos == 0 else (u, rep_of[v])
                bit = (row[v] ^ other[v]) & -(row[v] ^ other[v])  # the lowest that differs
                good, bad = ((u, v), moved) if row[v] & bit else (moved, (u, v))
                rel, law = ("=", "transitivity") if bit < 4 else (
                    "in", ("member substitution", "container substitution")[pos])
                negation = " of the negation" if bit in (2, 8) else ""
                raise QuotientDefect(rel, *bad, f"{law}{negation} via #{good[pos]}")
    for i, j in itertools.product(range(len(reps)), repeat=2):
        for bit, rel in ((1, qm.r_eq), (2, qm.r_neq), (4, qm.r_mem), (8, qm.r_nmem)):
            if at_reps[i][j] & bit:
                rel.add((i, j))
    return qm


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
