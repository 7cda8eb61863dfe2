"""Checks made apart from the program.

Everything here is computed from name entries and algebra tables with code
of its own: the paper's two atomic clauses, the closed form of the universe
sizes, a union-find over designated equality, a Boolean table test and the
values the paper fixes for PS3.  `check_records` compares one invocation's
`--format records` output against these facts; `compare_engine` compares the
reference clauses with the program's `EvalContext` pair by pair.
"""

from __future__ import annotations

import json
import random

# The registry of `algval check all`, in order.
ALL_CHECKS = [
    "algebra-laws", "drim", "cobounded", "two-valued", "equality-characterization",
    "extensionality-contrast", "zfbar-witnesses", "nff-transfer", "paraconsistency",
    "properties", "leibniz", "bounded-quantification", "boolean-coincidence",
    "quotient", "prop-paraconsistency", "prop-agreement",
]

# PS3 as the paper fixes it (Loewe & Tarafder 2015): 1 > half > 0, designated
# {1, half}; a -> b is 0 exactly when a != 0 and b = 0; star swaps 1 and 0
# and fixes half.
PS3_ELEMENTS = ("1", "half", "0")
PS3_DESIGNATED = {"1", "half"}
PS3_ORDER = {"0": 0, "half": 1, "1": 2}


def ps3_tables() -> dict:
    es = PS3_ELEMENTS
    lo = {e: PS3_ORDER[e] for e in es}
    return {
        "meet": {(a, b): min(a, b, key=lo.get) for a in es for b in es},
        "join": {(a, b): max(a, b, key=lo.get) for a in es for b in es},
        "imp": {(a, b): "0" if a != "0" and b == "0" else "1" for a in es for b in es},
        "star": {"1": "0", "half": "half", "0": "1"},
    }


class Tables:
    """An algebra's operation tables, indexed by element position."""

    def __init__(self, elements, meet, join, imp, star, top, bottom, designated):
        self.elements = list(elements)
        self.meet, self.join, self.imp, self.star = meet, join, imp, star
        self.top, self.bottom = top, bottom
        self.designated = set(designated)

    @classmethod
    def of(cls, algebra, designated) -> "Tables":
        """Copy the program's tables for an algebra."""
        r = range(len(algebra.elements))
        return cls(algebra.elements,
                   [[algebra.meet_t[a][b] for b in r] for a in r],
                   [[algebra.join_t[a][b] for b in r] for a in r],
                   [[algebra.imp_t[a][b] for b in r] for a in r],
                   list(algebra.star_t) if algebra.star_t is not None else None,
                   algebra.top_i, algebra.bottom_i,
                   {algebra.index[algebra.resolve(d)] for d in designated})

    def is_boolean(self) -> bool:
        """Distributive lattice whose star is a complement and whose
        implication is the classical one, read off the tables alone."""
        r = range(len(self.elements))
        m, j, s = self.meet, self.join, self.star
        if s is None:
            return False
        for a in r:
            if m[a][a] != a or j[a][a] != a or m[a][self.top] != a or j[a][self.bottom] != a:
                return False
            if m[a][s[a]] != self.bottom or j[a][s[a]] != self.top:
                return False
            for b in r:
                if m[a][b] != m[b][a] or j[a][b] != j[b][a] or m[a][j[a][b]] != a:
                    return False
                if self.imp[a][b] != j[s[a]][b]:
                    return False
                for c in r:
                    if m[a][j[b][c]] != j[m[a][b]][m[a][c]]:
                        return False
                    if m[a][m[b][c]] != m[m[a][b]][c]:
                        return False
        return True


class Clauses:
    """The paper's atomic clauses over a list of name entries.

    mem(u, v) = join over x in dom v of  v(x) meet eq(x, u)
    eq(u, v)  = meet over x in dom u of (u(x) -> mem(x, v))
                meet over y in dom v of (v(y) -> mem(y, u))
    and under pa every factor also carries (mem* -> entry*).
    """

    def __init__(self, tables: Tables, entries: list, assignment: str):
        self.t = tables
        self.entries = entries
        self.pa = assignment == "pa"
        self._eq: dict = {}
        self._mem: dict = {}

    def mem(self, u: int, v: int) -> int:
        key = (u, v)
        if key not in self._mem:
            t = self.t
            acc = t.bottom
            for x, vx in self.entries[v]:
                acc = t.join[acc][t.meet[vx][self.eq(x, u)]]
            self._mem[key] = acc
        return self._mem[key]

    def eq(self, u: int, v: int) -> int:
        key = (u, v)
        if key not in self._eq:
            t = self.t
            acc = t.top
            for a, b in ((u, v), (v, u)):
                for x, ax in self.entries[a]:
                    m = self.mem(x, b)
                    factor = t.imp[ax][m]
                    if self.pa:
                        factor = t.meet[factor][t.imp[t.star[m]][t.star[ax]]]
                    acc = t.meet[acc][factor]
            self._eq[key] = acc
        return self._eq[key]


def closed_form_size(elements: int, rank: int) -> int:
    """Names of rank at most r: (|A|+1)^(names of rank at most r-1)."""
    size = 1
    for _ in range(rank - 1):
        size = (elements + 1) ** size
    return size


class CheckFailed(Exception):
    pass


# What a malformed or wrong output raises while it is checked.
BAD_OUTPUT = (CheckFailed, ValueError, KeyError, TypeError, IndexError, AttributeError)


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def sample_pairs(n: int, k: int, rng: random.Random) -> list:
    if n * n <= k:
        return [(u, v) for u in range(n) for v in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]


def compare_engine(algval, algebra_name: str, rank: int, seed: int,
                   sample: int = 0) -> dict:
    """Compare `EvalContext` with the reference clauses on pairs of names.

    Every pair when `sample` is 0, else a seeded sample of that many pairs.
    Also checks the universe size against the closed form and, on Boolean
    tables, that ba and pa coincide.
    """
    alg, d = algval.algebra.builtin(algebra_name)
    tables = Tables.of(alg, d)
    if algebra_name == "ps3":
        ref = ps3_tables()
        for op in ("meet", "join", "imp"):
            for (a, b), c in ref[op].items():
                expect(getattr(alg, op)(a, b) == c, f"ps3 {op}({a}, {b}) is not {c}")
        for a, c in ref["star"].items():
            expect(alg.star(a) == c, f"ps3 star({a}) is not {c}")
        expect(set(d) == PS3_DESIGNATED, f"ps3 designated set is {sorted(d)}")
    uni = algval.universe.build_universe(alg, rank)
    n = len(uni)
    expect(n == closed_form_size(len(alg.elements), rank),
           f"{algebra_name} rank {rank}: {n} names, closed form says "
           f"{closed_form_size(len(alg.elements), rank)}")
    entries = [uni.names[i].entries for i in range(n)]
    pairs = sample_pairs(n, sample, random.Random(seed)) if sample else \
        [(u, v) for u in range(n) for v in range(n)]
    boolean = tables.is_boolean()
    refs = {}
    for assignment in ("ba", "pa"):
        ref = refs[assignment] = Clauses(tables, entries, assignment)
        ctx = algval.evaluate.EvalContext(uni, d, assignment)
        for u, v in pairs:
            for rel, mine, theirs in (("=", ref.eq, ctx.equality),
                                      ("in", ref.mem, ctx.membership)):
                a, b = mine(u, v), theirs(u, v)
                expect(a == b, f"{algebra_name} rank {rank} {assignment}: #{u} {rel} #{v} "
                               f"is {alg.elements[b]}, reference says {alg.elements[a]}")
    if boolean:
        for u, v in pairs:
            expect(refs["ba"].eq(u, v) == refs["pa"].eq(u, v)
                   and refs["ba"].mem(u, v) == refs["pa"].mem(u, v),
                   f"{algebra_name}: ba and pa differ at #{u}, #{v}")
    return {"names": n, "pairs": len(pairs), "boolean": boolean}


class Facts:
    """What the records of one algebra at one rank must say, from the reference."""

    def __init__(self, algval, algebra_name: str, rank: int):
        alg, d = algval.algebra.builtin(algebra_name)
        self.name = algebra_name
        self.rank = rank
        self.tables = t = Tables.of(alg, d)
        self.boolean = t.is_boolean()
        self.elements = len(t.elements)
        self.names = closed_form_size(self.elements, rank)
        self._facts: dict = {}
        self._algval = algval
        self._alg, self._d = alg, d

    def _universe_entries(self) -> list:
        uni = self._algval.universe.build_universe(self._alg, self.rank)
        return [uni.names[i].entries for i in range(len(uni))]

    def paraconsistency(self) -> dict:
        """phi = exists x exists y (x in y and not x in y), its negation and
        explosion (phi and not phi) -> not forall x (x = x), under both
        assignments, over the enumerated universe."""
        if "para" not in self._facts:
            t = self.tables
            entries = self._universe_entries()
            n = len(entries)
            out = {}
            for assignment in ("ba", "pa"):
                ref = Clauses(t, entries, assignment)
                phi = t.bottom
                for x in range(n):
                    for y in range(n):
                        m = ref.mem(x, y)
                        phi = t.join[phi][t.meet[m][t.star[m]]]
                refl = t.top
                for x in range(n):
                    refl = t.meet[refl][ref.eq(x, x)]
                psi = t.star[refl]
                explosion = t.imp[t.meet[phi][t.star[phi]]][psi]
                out[assignment] = {"phi": t.elements[phi],
                                   "not_phi": t.elements[t.star[phi]],
                                   "explosion": t.elements[explosion]}
            self._facts["para"] = out
        return self._facts["para"]

    def contrast(self, mid: str) -> dict:
        """pa and ba equality of {#0: mid} and {#0: top}."""
        t = self.tables
        entries = [(), ((0, t.elements.index(mid)),), ((0, t.top),)]
        return {a: t.elements[Clauses(t, entries, a).eq(1, 2)] for a in ("ba", "pa")}

    def quotient_classes(self) -> list:
        """Class sizes of designated pa equality, ordered by lowest member."""
        if "classes" not in self._facts:
            t = self.tables
            entries = self._universe_entries()
            n = len(entries)
            ref = Clauses(t, entries, "pa")
            parent = list(range(n))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for u in range(n):
                for v in range(u + 1, n):
                    if ref.eq(u, v) in t.designated:
                        ru, rv = find(u), find(v)
                        if ru != rv:
                            parent[max(ru, rv)] = min(ru, rv)
            sizes: dict = {}
            for u in range(n):
                r = find(u)
                sizes[r] = sizes.get(r, 0) + 1
            self._facts["classes"] = [sizes[r] for r in sorted(sizes)]
        return self._facts["classes"]


WORK_KEYS = ("pairs", "instances", "sentences")


def work_count(details) -> int:
    """Sum of the work counts a record declares: every integer under a key
    that is, or ends in, pairs/instances/sentences, plus corpus."""
    total = 0
    if isinstance(details, dict):
        for key, value in details.items():
            if isinstance(value, dict):
                total += work_count(value)
            elif isinstance(value, int) and not isinstance(value, bool) and (
                    key == "corpus" or any(key == w or key.endswith("_" + w)
                                           for w in WORK_KEYS)):
                total += value
    return total


def check_records(facts: Facts, stdout: str, expected_checks: list) -> int:
    """Validate one invocation's records; returns its work count."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    records = [json.loads(ln) for ln in lines]
    got = [r["check"] for r in records]
    expect(got == expected_checks, f"{facts.name}: checks {got}, expected {expected_checks}")
    by = {r["check"]: r for r in records}
    for r in records:
        expect(r["verdict"] in ("pass", "skipped"),
               f"{facts.name} {r['check']}: verdict {r['verdict']} "
               f"{json.dumps(r['counterexample'])}")
    t = facts.tables
    if "boolean-coincidence" in by:
        r = by["boolean-coincidence"]
        expect(r["verdict"] == ("pass" if facts.boolean else "skipped"),
               f"{facts.name}: boolean-coincidence {r['verdict']}, table test says "
               f"boolean={facts.boolean}")
        if r["verdict"] == "pass":
            expect(r["details"]["names"] == facts.names
                   and r["details"]["atomic_pairs"] == facts.names ** 2,
                   f"{facts.name}: boolean-coincidence sizes {r['details']}")
    for check in ("two-valued", "properties"):
        r = by.get(check)
        if r and r["verdict"] == "pass":
            expect(r["details"]["names"] == facts.names,
                   f"{facts.name} {check}: {r['details']['names']} names, closed form "
                   f"says {facts.names}")
    r = by.get("two-valued")
    if r and r["verdict"] == "pass":
        n = facts.names
        expect(r["details"]["pairs"] == n * (n + 1) // 2, f"{facts.name}: two-valued pairs")
    r = by.get("paraconsistency")
    if r and r["verdict"] == "pass":
        ref = facts.paraconsistency()
        for a in ("ba", "pa"):
            expect(r["details"][f"phi_{a}"] == ref[a]["phi"] == ref[a]["not_phi"],
                   f"{facts.name} paraconsistency {a}: record {r['details']}, reference {ref}")
            expect(r["details"][f"explosion_{a}"] == ref[a]["explosion"]
                   == t.elements[t.bottom],
                   f"{facts.name} explosion {a}: record {r['details']}, reference {ref}")
        if facts.name == "ps3":
            expect(all(ref[a] == {"phi": "half", "not_phi": "half", "explosion": "0"}
                       for a in ref), f"ps3 paraconsistency values {ref}")
    r = by.get("extensionality-contrast")
    if r and r["verdict"] == "pass":
        mid = r["details"]["witness_u"].split(":")[1].strip(" }")
        ref = facts.contrast(mid)
        expect(r["details"]["eq_pa"] == ref["pa"] == t.elements[t.bottom]
               and r["details"]["eq_ba"] == ref["ba"] == t.elements[t.top],
               f"{facts.name} extensionality contrast: record {r['details']}, reference {ref}")
    r = by.get("quotient")
    if r and r["verdict"] == "pass":
        ref = facts.quotient_classes()
        expect(r["details"]["classes"] == len(ref) and r["details"]["class_sizes"] == ref,
               f"{facts.name} quotient: record {r['details']['class_sizes']}, "
               f"reference {ref}")
    return sum(work_count(rec["details"]) for rec in records)
