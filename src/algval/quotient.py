"""Quotient of a universe by designated pa-equality.

Since pa equality is two-valued on designated cobounded algebras and
indiscernibility holds, the designated-equality relation is an equivalence
whose classes support a well-defined satisfaction relation: a formula is
satisfied by a tuple of classes when it is valid at (any) representatives.
Equality and membership then induce four class relations: equal, distinct,
member and non-member.  Equal/distinct partition the class pairs; member
and non-member cover all class pairs and may overlap, which is exactly the
paraconsistent signature of these models.  `build_quotient` confirms that
the relations are well defined on every pair of names, not only on the
representatives it reads them from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import InputError, InvariantError
from .evaluate import EvalContext
from .formulas import Formula, free_vars


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # smaller root wins so representatives are the lowest ids
            if ri > rj:
                ri, rj = rj, ri
            self.parent[rj] = ri


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


def build_quotient(ctx: EvalContext) -> QuotientModel:
    """Partition the universe by designated pa equality and materialize the
    four class relations.

    Well-definedness is checked on every pair of names: the four relation
    verdicts at (u, v) must be those at the representatives of their
    classes.
    """
    if ctx.assignment != "pa":
        raise InputError("quotients are built over the pa assignment")
    alg = ctx.algebra
    n = len(ctx.universe.names)
    two_values = (alg.top_i, alg.bottom_i)
    uf = _UnionFind(n)
    for u in range(n):
        for v in range(u + 1, n):
            val = ctx.equality(u, v)
            if val not in two_values:
                raise InvariantError(
                    f"pa equality of #{u}, #{v} is {alg.elements[val]}, not "
                    f"two-valued; the algebra is outside the supported class")
            if val == alg.top_i:
                uf.union(u, v)
    members: dict[int, list[int]] = {}
    for u in range(n):
        members.setdefault(uf.find(u), []).append(u)
    classes = [sorted(members[root]) for root in sorted(members)]
    class_of = {nid: idx for idx, cls in enumerate(classes) for nid in cls}
    reps = [cls[0] for cls in classes]
    qm = QuotientModel(ctx, classes, class_of, reps)

    d = ctx.designated_i
    star = alg.star_t
    # One code per value: bit 0 set when it is designated, bit 1 when its
    # star is; a pair's four verdicts are the code of its equality plus 4
    # times the code of its membership.
    code = [(e in d) + 2 * (star[e] in d) for e in range(len(alg.elements))]
    eq, mem = ctx.equality, ctx.membership

    def verdicts(u: int) -> list[int]:
        us = itertools.repeat(u)
        return [code[e] + 4 * code[m]
                for e, m in zip(map(eq, us, range(n)), map(mem, us, range(n)))]

    at_reps = [[row[v] for v in reps] for row in map(verdicts, reps)]
    for i, j in itertools.product(range(len(reps)), repeat=2):
        for bit, rel in ((1, qm.r_eq), (2, qm.r_neq), (4, qm.r_mem), (8, qm.r_nmem)):
            if at_reps[i][j] & bit:
                rel.add((i, j))
    # Well-definedness: every name's verdicts are its representative's.
    classes_of = [class_of[v] for v in range(n)]
    for u in range(n):
        row = verdicts(u)
        want = list(map(at_reps[class_of[u]].__getitem__, classes_of))
        if row != want:
            v = next(v for v in range(n) if row[v] != want[v])
            raise InvariantError(
                f"relations at (#{u}, #{v}) differ from those of the "
                f"representatives of classes ({class_of[u]}, {class_of[v]}); "
                f"indiscernibility must have failed")
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
    for i, j in sorted(qm.r_eq):
        lines.append(f"eq [{i}] [{j}]")
    for i, j in sorted(qm.r_neq):
        lines.append(f"neq [{i}] [{j}]")
    for i, j in sorted(qm.r_mem):
        lines.append(f"mem [{i}] [{j}]")
    for i, j in sorted(qm.r_nmem):
        lines.append(f"nmem [{i}] [{j}]")
    return "\n".join(lines) + "\n"
