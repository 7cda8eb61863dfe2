"""Quotient of a universe by designated pa-equality.

Since pa equality is two-valued on designated cobounded algebras and
indiscernibility holds, the designated-equality relation is an equivalence
whose classes support a well-defined satisfaction relation: a formula is
satisfied by a tuple of classes when it is valid at (any) representatives.
Equality and membership then induce four class relations: equal, distinct,
member and non-member.  Equal/distinct partition the class pairs; member
and non-member cover all class pairs and may overlap, which is exactly the
paraconsistent signature of these models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .algebra import Algebra
from .errors import InputError, InvariantError
from .evaluate import EvalContext
from .formulas import (
    And, Eq, Exists, Forall, Formula, Imp, Mem, Not, Or, Var,
    free_vars,
)
from .theorems import CheckResult, Workspace, _skip, _timed, profile
from .universe import DEFAULT_BUDGET


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


def build_quotient(ctx: EvalContext, sample_swaps: int = 20,
                   seed: int = 0) -> QuotientModel:
    """Partition the universe by designated pa equality and materialize the
    four class relations.

    Well-definedness is spot-checked: for a sample of class pairs, swapping
    representatives must not change any relation verdict.
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
    for i, u in enumerate(reps):
        for j, v in enumerate(reps):
            if ctx.equality(u, v) in d:
                qm.r_eq.add((i, j))
            if star[ctx.equality(u, v)] in d:
                qm.r_neq.add((i, j))
            if ctx.membership(u, v) in d:
                qm.r_mem.add((i, j))
            if star[ctx.membership(u, v)] in d:
                qm.r_nmem.add((i, j))

    rng = random.Random(seed)
    k = len(classes)
    for _ in range(sample_swaps):
        i, j = rng.randrange(k), rng.randrange(k)
        u = rng.choice(classes[i])
        v = rng.choice(classes[j])
        checks = (
            ((i, j) in qm.r_eq, ctx.equality(u, v) in d),
            ((i, j) in qm.r_neq, star[ctx.equality(u, v)] in d),
            ((i, j) in qm.r_mem, ctx.membership(u, v) in d),
            ((i, j) in qm.r_nmem, star[ctx.membership(u, v)] in d),
        )
        if any(a != b for a, b in checks):
            raise InvariantError(
                f"relations changed under a representative swap at classes "
                f"({i}, {j}); indiscernibility must have failed")
    return qm


def quotient_satisfies(qm: QuotientModel, f: Formula,
                       args: Sequence[int]) -> bool:
    """Satisfaction of a formula by a tuple of classes.

    Free variables, in sorted name order, are bound to the argument
    classes' representatives; the verdict is representative-independent
    because indiscernibility holds.
    """
    fv = sorted(free_vars(f))
    if len(fv) != len(args):
        raise InputError(f"formula has free variables {fv}, got {len(args)} classes")
    env = {}
    for var, cls in zip(fv, args):
        if not 0 <= cls < len(qm.classes):
            raise InputError(f"no class [{cls}]")
        env[var] = qm.representatives[cls]
    return qm.context.holds(f, env)


@_timed
def check_connective_theorem(algebra: Algebra, designated: Iterable[str],
                             rank_bound: int = 2, seed: int = 0,
                             budget: int = DEFAULT_BUDGET,
                             qm: Optional[QuotientModel] = None) -> CheckResult:
    """Satisfaction in the quotient distributes over the connectives.

    Implication is material, conjunction and disjunction are componentwise,
    an unsatisfied formula has a satisfied negation (one direction only;
    the converse has an explicit failure witness through the membership
    overlap), and the quantifier clauses are class sweeps.
    """
    name = "quotient-connectives"
    desc = f"satisfaction clauses over the class structure (rank {rank_bound})"
    prof = profile(algebra, designated)
    if not prof["ultra_designated_cobounded"]:
        return _skip(name, desc, "needs an ultra-designated cobounded algebra")
    if qm is None:
        ws = Workspace(algebra, designated, rank_bound, budget)
        qm = build_quotient(ws.pa, seed=seed)
    k = len(qm.classes)
    x, y = Var("x"), Var("y")
    atoms: list[tuple[str, Formula]] = [
        ("x in y", Mem(x, y)),
        ("x = y", Eq(x, y)),
        ("~(x in y)", Not(Mem(x, y))),
    ]
    details: dict = {"classes": k}

    def sat(f: Formula, args: Sequence[int]) -> bool:
        return quotient_satisfies(qm, f, args)

    checked = 0
    for (la, fa), (lb, fb) in [(a, b) for a in atoms for b in atoms]:
        for i in range(k):
            for j in range(k):
                args = [i, j]
                va, vb = sat(fa, args), sat(fb, args)
                checked += 1
                if sat(Imp(fa, fb), args) != ((not va) or vb):
                    return _fail(name, desc, "implication", la, lb, i, j)
                if sat(And(fa, fb), args) != (va and vb):
                    return _fail(name, desc, "conjunction", la, lb, i, j)
                if sat(Or(fa, fb), args) != (va or vb):
                    return _fail(name, desc, "disjunction", la, lb, i, j)
                if not va and not sat(Not(fa), args):
                    return _fail(name, desc, "negation-direction", la, lb, i, j)
    details["connective_instances"] = checked

    # Quantifier clauses: a quantified atom is satisfied iff the class
    # sweep says so.
    quantifier_checked = 0
    for label, f in atoms:
        for j in range(k):
            all_forall = all(sat(f, [i, j]) for i in range(k))
            some_exists = any(sat(f, [i, j]) for i in range(k))
            if sat(Forall("x", f), [j]) != all_forall:
                return _fail(name, desc, "universal", label, "-", j, j)
            if sat(Exists("x", f), [j]) != some_exists:
                return _fail(name, desc, "existential", label, "-", j, j)
            quantifier_checked += 2
    details["quantifier_instances"] = quantifier_checked

    # Tautological sample: a universally satisfied body.
    if not quotient_satisfies(qm, Forall("x", Eq(x, x)), []):
        return _fail(name, desc, "reflexive-universal", "x = x", "-", 0, 0)

    # The converse of the negation clause must fail somewhere: the member
    # and non-member relations overlap when the designated set is rich.
    overlap = sorted(qm.r_mem & qm.r_nmem)
    if prof["big_designated"]:
        if not overlap:
            ce = {"kind": "missing-overlap",
                  "note": "member and non-member relations never overlap"}
            return CheckResult(name, desc, "fail", counterexample=ce, details=details)
        i, j = overlap[0]
        if not (sat(Mem(x, y), [i, j]) and sat(Not(Mem(x, y)), [i, j])):
            ce = {"kind": "overlap-witness-broken", "pair": [i, j]}
            return CheckResult(name, desc, "fail", counterexample=ce, details=details)
        details["negation_converse_failure"] = {
            "classes": [i, j],
            "note": "membership and its negation both satisfied",
        }
    return CheckResult(name, desc, "pass", details=details)


def _fail(name: str, desc: str, clause: str, la: str, lb: str,
          i: int, j: int) -> CheckResult:
    ce = {"kind": "connective-clause", "clause": clause,
          "left": la, "right": lb, "classes": [i, j]}
    return CheckResult(name, desc, "fail", counterexample=ce)


@_timed
def check_quotient(algebra: Algebra, designated: Iterable[str],
                   rank_bound: int = 2, seed: int = 0,
                   budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Build the quotient and validate the relation laws.

    Equal-classes is the identity relation and distinct-classes its exact
    complement; member/non-member cover every class pair, and overlap
    somewhere when the designated set has a non-top element.  The
    connective clauses run on the same model.
    """
    name = "quotient"
    desc = f"class relations of the quotient model (rank {rank_bound})"
    prof = profile(algebra, designated)
    if not prof["ultra_designated_cobounded"]:
        return _skip(name, desc, "needs an ultra-designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    qm = build_quotient(ws.pa, seed=seed)
    k = len(qm.classes)
    details: dict = {"classes": k,
                     "class_sizes": [len(c) for c in qm.classes]}

    identity = {(i, i) for i in range(k)}
    if qm.r_eq != identity:
        ce = {"kind": "relation-law", "law": "equality-is-identity",
              "extra": sorted(map(list, qm.r_eq - identity)),
              "missing": sorted(map(list, identity - qm.r_eq))}
        return CheckResult(name, desc, "fail", counterexample=ce, details=details)
    all_pairs = {(i, j) for i in range(k) for j in range(k)}
    if qm.r_neq != all_pairs - qm.r_eq:
        ce = {"kind": "relation-law", "law": "distinct-is-complement",
              "symmetric_difference":
                  sorted(map(list, qm.r_neq ^ (all_pairs - qm.r_eq)))}
        return CheckResult(name, desc, "fail", counterexample=ce, details=details)
    if qm.r_mem | qm.r_nmem != all_pairs:
        ce = {"kind": "relation-law", "law": "membership-covers",
              "missing": sorted(map(list, all_pairs - (qm.r_mem | qm.r_nmem)))}
        return CheckResult(name, desc, "fail", counterexample=ce, details=details)
    overlap = sorted(qm.r_mem & qm.r_nmem)
    details["membership_overlap"] = [list(p) for p in overlap]
    if prof["big_designated"] and not overlap:
        ce = {"kind": "relation-law", "law": "membership-overlap-expected"}
        return CheckResult(name, desc, "fail", counterexample=ce, details=details)

    sub = check_connective_theorem(algebra, designated, rank_bound, seed,
                                   budget, qm=qm)
    if sub.verdict == "fail":
        return CheckResult(name, desc, "fail", counterexample=sub.counterexample,
                           details={**details, "connectives": sub.details})
    details["connectives"] = sub.details
    return CheckResult(name, desc, "pass", details=details)


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
