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
law that a failing pair breaks.  It makes one pass over a partition of
the names, reading each class's `=` and `in` values once: over the
classes of interchangeable names, and only when that pass finds a break,
over every name alone.  Where those classes are the signature classes of
the class tables (`EvalContext.tables`), the values come by pair of
classes from the tables; elsewhere they come as two rows of the engine
(`EvalContext.row`) against every name.
"""

from __future__ import annotations

import itertools
from array import array
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import InputError, InvariantError
from .evaluate import EvalContext, NameClasses
from .formulas import Formula, free_vars


class QuotientModel:
    def __init__(self, context: EvalContext, classes: list[list[int]],
                 class_of: dict[int, int], representatives: list[int]):
        self.context, self.classes = context, classes
        self.class_of, self.representatives = class_of, representatives
        # the four class relations, each a set of (class, class) pairs
        self.r_eq, self.r_neq, self.r_mem, self.r_nmem = set(), set(), set(), set()

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

    The partition is built by one pass over a partition of the names
    (`_quotient`), first over the classes of interchangeable names
    (`EvalContext.name_classes`), and, when that pass finds a break it
    cannot place at a pair of names, again over every name alone.  Read
    name by name, a name in no earlier class opens one with the later
    names whose pa equality with it is top, and represents it; pa equality
    with a later name must be top or bottom, and the four relation
    verdicts of every name must be those at the representatives.  The
    first pair that breaks this raises `QuotientDefect` naming the law:
    "not two-valued", or "transitivity", "member substitution" or
    "container substitution" via #w, the name equal to one of the pair
    with the other verdict ("of the negation" when only the negated
    relation's verdict differs).
    """
    if ctx.assignment != "pa":
        raise InputError("quotients are built over the pa assignment")
    return (_quotient(ctx, ctx.name_classes())
            or _quotient(ctx, NameClasses.singletons(len(ctx.universe.names))))


def _quotient(ctx: EvalContext, names: NameClasses) -> Optional[QuotientModel]:
    """The passes of `build_quotient` over the classes of `names`, each
    class's `=` and `in` values against the classes read once, at its
    first name.  Over single names this is the pass name by name, and a
    break raises `QuotientDefect`.  Over a coarser partition a break
    returns None: a row that disagrees with the classes, a value that is
    not two-valued, a class of several names that is not top against
    itself (the pass by names would split it), or a verdict unlike its
    representative's.  Otherwise a name's values are those of its class
    at the classes of the names, and each class is two-valued against
    every name after its first, so the pass by names finds no break
    either, and builds the same partition: all the names of a class fall
    in one quotient class, opened by the first of them in no earlier one.

    Where `names` are the signature classes of the class tables, which
    cover the universe (`EvalContext.tables`), the values by class are
    the tables' (`ColumnClasses.by_pair`).  There a name's rows
    (`EvalContext.row`) are its class's table rows spread over the names,
    so no row can disagree with the classes, and the pass reads no row:
    each class is two-valued against the classes that have a name after
    its first.  Elsewhere each class's rows are read at its first name and
    must equal its values at the classes spread over the names.
    """
    alg, n = ctx.algebra, len(ctx.universe.names)
    top, two_values = alg.top_i, {alg.top_i, alg.bottom_i}
    d, star = ctx.designated_i, alg.star_t
    # One code per value: bit 0 set when it is designated, bit 1 when its
    # star is; a pair's four verdicts are the code of its equality plus 4
    # times the code of its membership.
    code = [(e in d) + 2 * (star[e] in d) for e in range(len(alg.elements))]
    of, reps, sizes = names.of, names.reps, names.sizes
    k, coarse = len(reps), len(reps) < n
    tables = ctx.tables()
    if tables is not None and names is tables.signatures:
        eq_by, in_by = tables.by_pair()
        last = dict(zip(of, range(n)))  # the last name of each class
    else:
        eq_by = None
        spread = itemgetter(*of) if coarse else None  # class values to name values
    comp = [-1] * k  # the quotient class of each class of names
    count = 0
    verdicts = []  # each class's verdicts at the classes, as k bytes
    for a, u in enumerate(reps):
        if eq_by is not None:
            e, m = eq_by[a], in_by[a]
            later = (e[b] for b in range(k) if last[b] > u)
        else:
            eq, mem = ctx.row("=", u), ctx.row("in", u)
            e, m = list(map(eq.__getitem__, reps)), list(map(mem.__getitem__, reps))
            if coarse and (eq != array(eq.typecode, spread(e))
                           or mem != array(mem.typecode, spread(m))):
                return None
            later = eq[u + 1:]
        if not two_values.issuperset(later):
            if coarse:
                return None
            v = next(v for v in range(u + 1, n) if e[of[v]] not in two_values)
            raise QuotientDefect("=", u, v, "not two-valued")
        verdicts.append(bytes([code[x] + 4 * code[y] for x, y in zip(e, m)]))
        if comp[a] < 0:
            if sizes[a] > 1 and e[a] != top:
                return None
            comp[a] = count
            for b in range(a + 1, k):
                if comp[b] < 0 and e[b] == top:
                    comp[b] = count
            count += 1
    members: list[list[int]] = [[] for _ in range(count)]
    for a, c in enumerate(comp):
        members[c].append(a)
    base = [cls[0] for cls in members]  # the class of each representative
    rep_class = [base[c] for c in comp]
    # Well-definedness, class by class: each class's verdicts are its
    # representative's (the left name moves, position 0), and each verdict
    # is the one at the right class's representative (position 1).
    for a in itertools.chain.from_iterable(members):
        row = verdicts[a]
        at_rep_class = bytes(map(row.__getitem__, rep_class))
        for pos, other in enumerate((verdicts[rep_class[a]], at_rep_class)):
            if row == other:
                continue
            if coarse:
                return None
            # single names: a class is its name
            v = next(v for v in range(n) if row[v] != other[v])
            moved = (rep_class[a], v) if pos == 0 else (a, rep_class[v])
            bit = (row[v] ^ other[v]) & -(row[v] ^ other[v])  # the lowest that differs
            good, bad = ((a, v), moved) if row[v] & bit else (moved, (a, v))
            rel, law = ("=", "transitivity") if bit < 4 else (
                "in", ("member substitution", "container substitution")[pos])
            negation = " of the negation" if bit in (2, 8) else ""
            raise QuotientDefect(rel, *bad, f"{law}{negation} via #{good[pos]}")
    classes: list[list[int]] = [[] for _ in range(count)]
    for u, c in enumerate(of):
        classes[comp[c]].append(u)
    qm = QuotientModel(ctx, classes, {u: comp[c] for u, c in enumerate(of)},
                       [cls[0] for cls in classes])
    _relate(qm, [bytes(map(verdicts[a].__getitem__, base)) for a in base])
    return qm


def _relate(qm: QuotientModel, at_reps: list[bytes]) -> None:
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
