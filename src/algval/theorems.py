"""Named, reproducible validation runs over a configured algebra.

The theorems hold for classes of algebras, so every check is a claim plus
its hypotheses.  A `CHECKS` entry declares both: the body that sweeps and
judges, the `check --list` help text, the record's description (a
template whose only parameter is the rank bound) and the gates, an
ordered list of (condition, skip reason) pairs.  A condition is a key of
the run's structure profile (computed once per run, on first use),
`rank>=2` or `star` (the algebra has a star table).  `run_check` is the
one place that checks the gates in order, turns a resource overrun into a
skip, times the check and builds its `CheckResult`.

A body is `fn(run: Run)` and returns a `Verdict`: the counterexample
(None when the check passes) and the details.  A run has one rank, and
owns the one universe enumerated at it and that universe's class tables.
A body sweeps a workspace from `Run.workspace`: a copy of that universe
whose contexts share the run's class tables and each own an atomic
store.  A body that needs another rank or another algebra builds another
`Run`.  `properties` and `quotient` read one partition by pa equality,
`Run.quotient`, built once per run; a pair on which it is not well
defined fails both, with the law it breaks.

A failing result carries a counterexample of one of five kinds, one
builder each.  `replay` repeats the evaluation that three of them name:
`sentence` (a closed formula) and `atomic` (a relation at two names), each
with its assignment, value and the ad-hoc names inserted before the
failure, in order, so that the universe is rebuilt exactly; and
`valuation` (a propositional formula and a valuation).  `law` (an algebra
law with element witnesses) and `missing` (a witness the theorem
guarantees that the sweep did not find) name none.  Quantified verdicts
are approximations bounded at the configured rank and say so.
"""

from __future__ import annotations

import itertools
import json
import operator
import time
from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .algebra import (
    Algebra, check_cobounded, check_drim, check_filter, check_lattice,
    collapse_f, ps3,
)
from .errors import InputError, ResourceError
from .evaluate import ASSIGNMENTS, ColumnClasses, EvalContext, NameClasses, bq_mismatch
from .formulas import (
    And, Bot, Const, Eq, Exists, Forall, Formula, Imp, Mem, Not, Or, Var,
    battery, enumerate_formulas, free_vars, iff, instantiate_axiom,
    is_negation_free, map_terms, parse, print_formula, subst_const,
)
from .proplogic import (
    EXPLOSION, PropFormula, PVar, eval_prop, is_tautology, parse_prop, print_prop,
)
from .quotient import (
    QuotientDefect, QuotientModel, build_quotient, quotient_satisfies, satisfaction,
)
from .universe import DEFAULT_BUDGET, Universe, build_universe


class CheckResult:
    def __init__(self, name: str, description: str, verdict: str,
                 counterexample: Optional[dict] = None, skip_reason: Optional[str] = None,
                 wall_time: float = 0.0, details: Optional[dict] = None):
        self.name, self.description = name, description
        self.verdict = verdict  # "pass" | "fail" | "skipped"
        self.counterexample, self.skip_reason = counterexample, skip_reason
        self.wall_time, self.details = wall_time, {} if details is None else details

    def record_line(self) -> str:
        """One machine-readable line; excludes timing so identical runs
        produce byte-identical output."""
        payload = {
            "check": self.name,
            "description": self.description,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "skip_reason": self.skip_reason,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True)

    def text_lines(self) -> list[str]:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.verdict]
        out = [f"[{mark}] {self.name} ({self.wall_time * 1000:.1f} ms)  {self.description}"]
        if self.skip_reason:
            out.append(f"       reason: {self.skip_reason}")
        if self.counterexample:
            out.append(f"       counterexample: {json.dumps(self.counterexample, sort_keys=True)}")
        return out


class Workspace:
    """A copy of a run's enumerated universe plus contexts for both
    assignments.

    Built only by `Run.workspace`, it starts with the run's names and ids,
    and its contexts read the run's class tables; each context fills an
    atomic store of its own (see `evaluate`).  Ad-hoc witness names go
    through `insert`, which keeps a log (id plus entry literal) so failures
    can be replayed against a rebuilt universe.
    """

    def __init__(self, run: Run):
        self.run = run
        self.algebra, self.designated, self.rank_bound = (
            run.algebra, run.designated, run.rank_bound)
        self.universe = run.universe.copy()
        self.enumerated = len(self.universe)
        self.insertion_log: list[list] = []
        self._ctxs: dict[str, EvalContext] = {}

    def ctx(self, assignment: str) -> EvalContext:
        if assignment not in self._ctxs:
            self._ctxs[assignment] = EvalContext(
                self.universe, self.designated, assignment,
                columns=self.run.columns[assignment])
        return self._ctxs[assignment]

    @property
    def pa(self) -> EvalContext:
        return self.ctx("pa")

    @property
    def ba(self) -> EvalContext:
        return self.ctx("ba")

    def insert(self, entries: dict[int, int]) -> int:
        before = len(self.universe)
        nid = self.universe.insert(entries)
        if nid >= before:
            literal = [[c, self.algebra.elements[v]]
                       for c, v in self.universe.entries_of(nid)]
            self.insertion_log.append([nid, literal])
        return nid

    def numerals(self, n: int) -> list[int]:
        """NameIds of the von Neumann numerals 0..n."""
        ids: list[int] = []
        top = self.algebra.top_i
        for _ in range(n + 1):
            ids.append(self.insert({c: top for c in ids}))
        return ids

    def sentence_counterexample(self, assignment: str, formula: Formula,
                                value: str, note: str = "") -> dict:
        out = {
            "kind": "sentence",
            "assignment": assignment,
            "formula": print_formula(formula),
            "value": value,
            "inserted": [list(item) for item in self.insertion_log],
        }
        if note:
            out["note"] = note
        return out

    def atomic_counterexample(self, assignment: str, rel: str, u: int, v: int,
                              value: str, note: str = "") -> dict:
        out = {
            "kind": "atomic",
            "assignment": assignment,
            "rel": rel,
            "u": u,
            "v": v,
            "u_literal": self.universe.pretty(u),
            "v_literal": self.universe.pretty(v),
            "value": value,
            "inserted": [list(item) for item in self.insertion_log],
        }
        if note:
            out["note"] = note
        return out


def valuation_counterexample(formula: PropFormula, valuation: dict, value: str,
                             note: str = "") -> dict:
    out = {"kind": "valuation", "formula": print_prop(formula),
           "valuation": valuation, "value": value}
    if note:
        out["note"] = note
    return out


def law_counterexample(witnesses: dict[str, list], note: str = "") -> dict:
    """The laws that fail, in order, each with its element witnesses."""
    out = {"kind": "law", "laws": list(witnesses), "witnesses": witnesses}
    if note:
        out["note"] = note
    return out


def missing_counterexample(note: str) -> dict:
    return {"kind": "missing", "note": note}


class Run:
    """The configuration one check runs under: one algebra, one designated
    set, one rank bound and one budget.  A check that needs another rank
    or another algebra builds another `Run`.

    `designated` is resolved to element ids once.  `profile`, the
    enumerated universe, its class tables and the pa partition are built
    on first use and kept, so the checks that `run_all` runs on one `Run`
    gate on one profile, share one universe and one pair of tables, and
    read one partition.  An enumeration over the budget raises
    `ResourceError` and is not kept, so each check that asks for it skips
    with the budget reason.  Atomic stores are not kept: each belongs to a
    context of one workspace, and goes with it.  Every check enumerates
    what it sweeps, so a check's record depends on the four arguments
    alone.
    """

    def __init__(self, algebra: Algebra, designated: Iterable[str], rank_bound: int = 2,
                 budget: int = DEFAULT_BUDGET):
        self.algebra, self.rank_bound, self.budget = algebra, rank_bound, budget
        self.designated = frozenset(algebra.resolve(d) for d in designated)

    @cached_property
    def profile(self) -> dict[str, bool]:
        return profile(self.algebra, self.designated)

    @cached_property
    def universe(self) -> Universe:
        """The enumerated universe at the rank bound, which every workspace
        copies and none grows."""
        return build_universe(self.algebra, self.rank_bound, budget=self.budget)

    @cached_property
    def columns(self) -> dict[str, ColumnClasses]:
        """The class tables of `universe`, one per assignment, that the
        contexts of every workspace read.  They cover enumerated names
        only, on which every workspace agrees."""
        return {a: ColumnClasses(self.universe, a) for a in ASSIGNMENTS}

    @cached_property
    def quotient(self) -> QuotientModel:
        """The quotient by pa equality at the run's rank bound.  A partition
        that is not well defined raises its `QuotientDefect` on each read."""
        return build_quotient(self.workspace().pa)

    def meets(self, condition: str) -> bool:
        """Whether the run meets a gate condition: `rank>=2`, `star` or a
        profile key."""
        if condition == "rank>=2":
            return self.rank_bound >= 2
        if condition == "star":
            return self.algebra.star_t is not None
        return self.profile[condition]

    def workspace(self) -> Workspace:
        """A workspace on the run's enumerated universe and class tables.
        It starts at the enumerated length, whatever earlier workspaces
        inserted."""
        return Workspace(self)


def replay(algebra: Algebra, designated: Iterable[str], rank_bound: int,
           counterexample: dict, budget: int = DEFAULT_BUDGET) -> str:
    """Re-evaluate a recorded counterexample from scratch and return the
    element identifier obtained.

    A `valuation` is evaluated through `eval_prop`.  A `sentence` or
    `atomic` rebuilds the enumerated universe, re-interns the logged ad-hoc
    names (checking they land on the recorded ids) and evaluates the
    recorded formula or atomic pair.  A `law` or `missing` counterexample
    names no evaluation, so it raises `InputError`.
    """
    kind = counterexample.get("kind")
    if kind == "valuation":
        return eval_prop(algebra, counterexample["valuation"],
                         parse_prop(counterexample["formula"]))
    if kind not in ("sentence", "atomic"):
        raise InputError(f"a {kind!r} counterexample names no evaluation to replay")
    uni = build_universe(algebra, rank_bound, budget=budget)
    for nid, literal in counterexample.get("inserted", []):
        got = uni.insert({int(c): algebra.index[algebra.resolve(v)] for c, v in literal})
        if got != nid:
            raise InputError(f"replay divergence: literal for #{nid} interned as #{got}")
    ctx = EvalContext(uni, designated, counterexample["assignment"])
    if kind == "atomic":
        return ctx.atomic(counterexample["rel"], counterexample["u"], counterexample["v"])
    f = parse(counterexample["formula"], max_name=len(uni.names))
    return ctx.eval(f)


# -- gating helpers ------------------------------------------------------------------


def profile(algebra: Algebra, designated: Iterable[str]) -> dict[str, bool]:
    """Structure verdicts used as check preconditions."""
    d = frozenset(algebra.resolve(x) for x in designated)
    filt = check_filter(algebra, d)
    cob = check_cobounded(algebra)
    return {
        "cobounded": cob.ok("cobounded"),
        "designated_cobounded": filt.ok("designated-cobounded"),
        "ultra_designated_cobounded": filt.ok("ultra-designated-cobounded"),
        "boolean": is_boolean(algebra),
        "big_designated": len(d) >= 2,
        "has_intermediate": len(algebra) >= 3,
    }


def is_boolean(algebra: Algebra) -> bool:
    """Boolean test: star is a complement and imp is the classical one."""
    if algebra.star_t is None:
        return False
    rep = check_lattice(algebra)
    if not (rep.ok("lattice") and rep.ok("bounded") and rep.ok("distributive")):
        return False
    for a in algebra.elements:
        c = algebra.star(a)
        if algebra.meet(a, c) != algebra.bottom or algebra.join(a, c) != algebra.top:
            return False
        for b in algebra.elements:
            if algebra.imp(a, b) != algebra.join(c, b):
                return False
    return True


def _first_intermediate(algebra: Algebra) -> Optional[str]:
    mids = algebra.intermediates()
    return mids[0] if mids else None


# What a check body returns: the counterexample, None when the check
# passes, and the details.
Verdict = tuple[Optional[dict], dict]


# -- formula batteries ---------------------------------------------------------------


class Battery(NamedTuple):
    """The arguments of `formulas.battery` for one kind of caller; a check
    passes the name constants."""

    variables: tuple[str, ...]
    max_nodes: int
    negation: bool
    bounded: int = 0

    def read(self, constants: Sequence[int]) -> tuple[list[tuple[str, Formula]], dict]:
        """The formulas, and the record's declaration of them."""
        forms = battery(self.variables, constants, self.max_nodes, self.negation, self.bounded)
        return forms, {"formulas": len(forms), "max_nodes": self.max_nodes,
                       "negation": self.negation, "bounded": self.bounded}


# leibniz, bounded-quantification, boolean-coincidence's sentences and
# Foundation, over the first four names (`first_names`): 36 formulas.
ONE_VARIABLE = Battery(("x",), 2, negation=True, bounded=1)
# Collection's parameters: the 3 atoms in y and z.
COLLECTION = Battery(("y", "z"), 1, negation=True)
# nff-transfer's bodies, over one name: 30 formulas, each under both quantifiers.
NEGATION_FREE = Battery(("x",), 3, negation=False)


def first_names(ws: Workspace) -> range:
    """The name constants of the one-variable battery."""
    return range(min(4, ws.enumerated))


# -- algebra-level checks ------------------------------------------------------------


def check_algebra_laws(run: Run) -> Verdict:
    """Lattice laws, boundedness, distributivity and the filter verdicts."""
    rep = check_lattice(run.algebra)
    filt = check_filter(run.algebra, run.designated)
    details = {**rep.verdicts, **filt.verdicts}
    bad = [k for k in ("lattice", "bounded", "distributive") if not rep.ok(k)]
    if not filt.ok("filter"):
        bad.append("filter")
    if bad:
        witnesses = {**rep.witnesses, **filt.witnesses}
        return law_counterexample({k: list(witnesses.get(k, ())) for k in bad}), details
    return None, details


def check_implication_laws(run: Run) -> Verdict:
    """The four implication laws, exhaustively over element triples."""
    rep = check_drim(run.algebra)
    if rep.ok("drim"):
        return None, {}
    return law_counterexample({"drim": list(rep.witnesses.get("drim", ()))}), {}


def check_cobounded_routes(run: Run) -> Verdict:
    """Cobounded verdict with agreement between its two detection routes."""
    rep = check_cobounded(run.algebra)
    details = {"cobounded": rep.ok("cobounded"), **rep.info}
    subset = rep.info.get("cobounded-subset-search")
    closed = rep.info.get("cobounded-closed-form")
    if subset is not None and subset != closed:
        ce = law_counterexample({"cobounded": []}, note=f"the subset search says {subset}, "
                                f"the closed form says {closed}")
        return ce, details
    return None, details


# -- valuation checks -----------------------------------------------------------------


def first_bad_pair(classes: NameClasses, bad: Callable[[int, int], bool],
                   symmetric: bool = False) -> Optional[tuple[int, int]]:
    """The first pair of names (u, v) in id order, with v >= u when
    `symmetric`, whose classes A and B have bad(A, B).  Names of one class
    are interchangeable (`EvalContext.name_classes`), so bad is asked once
    per pair of classes, with A <= B when `symmetric` (see
    `NameClasses.first_pair`)."""
    k = len(classes.reps)
    found: dict[int, set[int]] = {}
    for a in range(k):
        for b in range(a if symmetric else 0, k):
            if bad(a, b):
                found.setdefault(a, set()).add(b)
                if symmetric:
                    found.setdefault(b, set()).add(a)
    return classes.first_pair(found) if found else None


def check_two_valued(run: Run) -> Verdict:
    """Equality under pa takes only the top or bottom value, on all pairs.

    It is asked once per pair of classes of interchangeable names, at
    their first names (`first_bad_pair`)."""
    algebra = run.algebra
    ws = run.workspace()
    ctx = ws.pa
    ok_values = (algebra.top_i, algebra.bottom_i)
    n = len(ws.universe)
    classes = ctx.name_classes()
    reps = classes.reps
    pair = first_bad_pair(classes, lambda a, b: ctx.equality(reps[a], reps[b]) not in ok_values,
                          symmetric=True)
    if pair:
        return ws.atomic_counterexample("pa", "=", *pair, ctx.atomic("=", *pair)), {}
    return None, {"names": n, "pairs": n * (n + 1) // 2}


def entry_classes(universe: Universe, designated_i: frozenset[int],
                  top_i: int) -> list[int]:
    """The class of each name under the entry-matching criterion, in one
    pass over the names in id order; it never consults the engine.

    The criterion relates u and v when every designated entry of either
    is matched by a designated entry of the other with a related key, and
    every top entry by a top entry.  A name's class is read off its key:
    the set of the classes of its designated entry keys, and that of its
    top entry keys.  Entry keys have lower ids than the name, so their
    classes are known when it is reached.  Related names are exactly
    those of one class, by induction on rank(u) + rank(v): the keys of
    u's and v's entries have lower ranks, so, by the hypothesis, each is
    related to another key iff the two share a class.  So "every
    designated entry of u is matched by a designated entry of v" says that
    u's designated classes are among v's, the converse says the reverse
    inclusion, and likewise for the top entries: u and v are related iff
    their keys are equal.
    """
    ids: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    out: list[int] = []
    for name in universe.names:
        key = (frozenset(out[x] for x, a in name.entries if a in designated_i),
               frozenset(out[x] for x, a in name.entries if a == top_i))
        out.append(ids.setdefault(key, len(ids)))
    return out


def check_equality_characterization(run: Run) -> Verdict:
    """Pa equality is designated exactly on the pairs that the
    entry-matching criterion relates.

    The criterion is one partition of the names (`entry_classes`).  The
    engine is asked `u = v` once per pair of classes of names that share
    both their class of interchangeable names and their criterion class,
    at their first names (`first_bad_pair`).
    """
    ws = run.workspace()
    ctx = ws.pa
    d_i = ctx.designated_i
    n = len(ws.universe)
    criterion = entry_classes(ws.universe, d_i, run.algebra.top_i)
    classes = NameClasses.by_key(zip(ctx.name_classes().of, criterion))
    reps = classes.reps
    pair = first_bad_pair(classes, lambda a, b: (ctx.equality(reps[a], reps[b]) in d_i)
                          != (criterion[reps[a]] == criterion[reps[b]]), symmetric=True)
    if pair:
        u, v = pair
        ce = ws.atomic_counterexample("pa", "=", u, v, ctx.atomic("=", u, v),
                                      note=f"criterion says {criterion[u] == criterion[v]}")
        return ce, {}
    return None, {"pairs": n * (n + 1) // 2}


def check_extensionality_contrast(run: Run) -> Verdict:
    """The singleton-weight witness separates the two equality readings.

    With w the empty name, a strictly intermediate and u = {w: a},
    v = {w: top}: the plain extensionality antecedent is designated yet pa
    equality collapses to bottom (while ba equality is top), so plain
    extensionality fails under pa; the strengthened antecedent with negated
    memberships rejects the pair, and the strengthened axiom itself holds
    on the bounded universe.
    """
    algebra = run.algebra
    mid = _first_intermediate(algebra)
    ws = run.workspace()
    u = ws.insert({0: algebra.index[mid]})
    v = ws.insert({0: algebra.top_i})
    pa, ba = ws.pa, ws.ba
    details: dict = {"witness_u": ws.universe.pretty(u),
                     "witness_v": ws.universe.pretty(v)}

    eq_pa = pa.atomic("=", u, v)
    eq_ba = ba.atomic("=", u, v)
    details["eq_pa"], details["eq_ba"] = eq_pa, eq_ba
    if eq_pa != algebra.bottom:
        return ws.atomic_counterexample("pa", "=", u, v, eq_pa, "expected bottom"), {}
    if eq_ba != algebra.top:
        return ws.atomic_counterexample("ba", "=", u, v, eq_ba, "expected top"), {}

    z = Var("z")
    plain_antecedent = Forall("z", iff(Mem(z, Const(u)), Mem(z, Const(v))))
    if not pa.holds(plain_antecedent):
        ce = ws.sentence_counterexample(
            "pa", plain_antecedent, pa.eval(plain_antecedent),
            "plain antecedent should be designated for the witness pair")
        return ce, {}
    plain_axiom = instantiate_axiom("Extensionality")
    if pa.holds(plain_axiom):
        ce = ws.sentence_counterexample(
            "pa", plain_axiom, pa.eval(plain_axiom),
            "plain extensionality should fail on the witness pair")
        return ce, {}
    details["plain_extensionality_fails_pa"] = True
    details["plain_axiom_value"] = pa.eval(plain_axiom)

    strong_antecedent = Forall("z", And(
        iff(Mem(z, Const(u)), Mem(z, Const(v))),
        iff(Not(Mem(z, Const(u))), Not(Mem(z, Const(v))))))
    if pa.holds(strong_antecedent):
        ce = ws.sentence_counterexample(
            "pa", strong_antecedent, pa.eval(strong_antecedent),
            "strengthened antecedent should reject the witness pair")
        return ce, {}
    details["strong_antecedent_rejected"] = True

    axiom = instantiate_axiom("ExtensionalityBar")
    if not pa.holds(axiom):
        return ws.sentence_counterexample("pa", axiom, pa.eval(axiom)), {}
    details["strengthened_axiom_holds_pa"] = True
    return None, details


# -- the axiom battery ----------------------------------------------------------------


def _axiom_failure(ws: Workspace, formula: Formula, axiom: str) -> Verdict:
    """The failure of a pa instance of `axiom`."""
    ce = ws.sentence_counterexample("pa", formula, ws.pa.eval(formula),
                                    note=f"axiom {axiom}")
    return ce, {"axiom": axiom}


def check_zfbar_witnesses(run: Run) -> Verdict:
    """Witness constructions for every axiom, validated instance by instance.

    Each instance builds the explicit witness name (pair set, union set,
    power set, filtered subset, numeral), then evaluates the instance over
    the bounded universe under pa.  The negated-emptiness separation
    instance is additionally evaluated under ba, where it is expected to
    fail whenever an intermediate element exists.  The Collection
    instances whose antecedents hold share one witness that names every
    name present before it (see the Collection block).
    """
    rank_bound = run.rank_bound
    ws = run.workspace()
    pa = ws.pa
    alg = run.algebra
    top = alg.top_i
    details: dict = {}
    # Quantified instances cost a sweep each, and several axioms nest
    # sweeps.  A sweep visits one name per class of interchangeable names
    # and every witness where the class tables are on, every name where
    # they are off, and each instance adds witnesses that later sweeps
    # visit; past 24 names (8 on big universes) the instance base is the
    # names of rank up to 2 plus an evenly strided sample of the rest.
    cap = 8 if ws.enumerated > 64 else 24
    base = list(range(ws.enumerated))
    if len(base) > cap:
        low = [nid for nid in base if ws.universe.rank_of(nid) <= 2]
        rest = [nid for nid in base if ws.universe.rank_of(nid) > 2]
        want = max(cap - len(low), 0)
        if want and rest:
            low += rest[::max(len(rest) // want, 1)][:want]
        base = sorted(low)
    details["sweep_base"] = len(base)

    axiom = instantiate_axiom("ExtensionalityBar")
    if not pa.holds(axiom):
        return _axiom_failure(ws, axiom, "ExtensionalityBar")
    details["extensionality_bar"] = "valid"

    # Pairing: z = {x: top, y: top}.
    count = 0
    for x in base:
        for y in base:
            if y < x:
                continue
            z = ws.insert({x: top, y: top})
            inst = Forall("w", iff(Mem(Var("w"), Const(z)),
                                   Or(Eq(Var("w"), Const(x)), Eq(Var("w"), Const(y)))))
            if not pa.holds(inst):
                return _axiom_failure(ws, inst, "Pairing")
            count += 1
    details["pairing_instances"] = count

    # Union: dom(v) is the union of the member domains, each point weighted
    # by its membership-of-a-member value.
    member_of_member = pa.sentence(
        Exists("m", And(Mem(Var("m"), Var("u")), Mem(Var("x"), Var("m")))), ("x", "u"))
    count = 0
    for u in base:
        dom_v = sorted({c for y, _ in ws.universe.entries_of(u)
                        for c, _ in ws.universe.entries_of(y)})
        v = ws.insert({xid: member_of_member(xid, u) for xid in dom_v})
        inst = Forall("x", iff(
            Mem(Var("x"), Const(v)),
            Exists("m", And(Mem(Var("m"), Const(u)), Mem(Var("x"), Var("m"))))))
        if not pa.holds(inst):
            return _axiom_failure(ws, inst, "Union")
        count += 1
    details["union_instances"] = count

    # Power set: dom(y) holds every total map dom(x) -> carrier, weighted by
    # its subset-of-x value.
    subset_of = pa.sentence(
        Forall("w", Imp(Mem(Var("w"), Var("z")), Mem(Var("w"), Var("x")))), ("z", "x"))
    count = 0
    for x in base:
        dom_x = [c for c, _ in ws.universe.entries_of(x)]
        y_entries: dict[int, int] = {}
        for values in itertools.product(range(len(alg.elements)), repeat=len(dom_x)):
            z = ws.insert(dict(zip(dom_x, values)))
            y_entries[z] = subset_of(z, x)
        y = ws.insert(y_entries)
        inst = Forall("z", iff(
            Mem(Var("z"), Const(y)),
            Forall("w", Imp(Mem(Var("w"), Var("z")), Mem(Var("w"), Const(x))))))
        if not pa.holds(inst):
            return _axiom_failure(ws, inst, "PowerSet")
        count += 1
    details["powerset_instances"] = count

    # Separation, including the negated-emptiness property that breaks the
    # ba reading on algebras with an intermediate element.
    sep_params: list[tuple[str, Formula]] = [
        ("z = z", Eq(Var("z"), Var("z"))),
        ("~exists m (m in z)", Not(Exists("m", Mem(Var("m"), Var("z"))))),
        ("(z in #0) -> false", Imp(Mem(Var("z"), Const(0)), Bot())),
    ]
    sep_base = list(base)
    mid = _first_intermediate(alg)
    if mid is not None:
        v_mid = ws.insert({0: alg.index[mid]})
        sep_base.append(ws.insert({v_mid: top}))
    count = 0
    ba_contrast = None
    for label, phi in sep_params:
        weight = {a: ws.ctx(a).sentence(phi, ("z",)) for a in ("pa", "ba")}
        for x in sep_base:
            for ctx_name in ("pa", "ba"):
                ctx = ws.ctx(ctx_name)
                y = ws.insert({
                    zid: alg.meet_t[xv][weight[ctx_name](zid)]
                    for zid, xv in ws.universe.entries_of(x)
                })
                inst = Forall("z", iff(
                    Mem(Var("z"), Const(y)),
                    And(Mem(Var("z"), Const(x)), phi)))
                holds = ctx.holds(inst)
                if ctx_name == "pa":
                    if not holds:
                        return _axiom_failure(ws, inst, f"Separation[{label}]")
                    count += 1
                elif not holds and ba_contrast is None and "~" in label:
                    ba_contrast = {
                        "parameter": label,
                        "x": ws.universe.pretty(x),
                        "value": ctx.eval(inst),
                    }
    details["separation_instances"] = count
    if mid is not None:
        details["separation_fails_under_ba"] = ba_contrast is not None
        if ba_contrast:
            details["separation_ba_witness"] = ba_contrast

    # Truncated infinity: the numeral at the rank bound stands in for the
    # infinite witness; successor instances whose successor would exceed
    # the truncation are reported, not asserted.
    nums = ws.numerals(rank_bound)
    omega_trunc = nums[-1]
    empty_member = Exists("m", And(Forall("z", Not(Mem(Var("z"), Var("m")))),
                                   Mem(Var("m"), Const(omega_trunc))))
    if not pa.holds(empty_member):
        return _axiom_failure(ws, empty_member, "Infinity")
    # the successor of the last numeral below the bound is out of the truncation
    successors = range(rank_bound - 1)
    for k in successors:
        inst = Exists("u", And(Mem(Var("u"), Const(omega_trunc)),
                               Mem(Const(nums[k]), Var("u"))))
        if not pa.holds(inst):
            return _axiom_failure(ws, inst, f"Infinity successor of {k}")
    for k in range(rank_bound):
        for n2 in range(k + 1, rank_bound + 1):
            if pa.value(Mem(Const(nums[k]), Const(nums[n2]))) != top:
                inst = Mem(Const(nums[k]), Const(nums[n2]))
                return _axiom_failure(ws, inst, "Infinity membership chain")
    details["infinity"] = {"numerals": rank_bound + 1,
                           "successor_instances": len(successors),
                           "out_of_truncation": 1}

    # Bounded collection: the witness set ranges over everything present.
    # Each instance means: if its antecedent holds over X, the names
    # present, then its consequent holds over X and the witness {X: top}.
    # X is the same for every instance, the names present before the first
    # witness, so neither an antecedent nor {X: top} depends on the other
    # instances: every antecedent is read over X first, and the instances
    # that hold share one witness, inserted once and read by each
    # consequent.
    params, details["collection_battery"] = COLLECTION.read(())
    instances = [(label, phi, u) for label, phi in params for u in base]
    held = [(label, phi, u) for label, phi, u in instances
            if pa.holds(Forall("y", Imp(Mem(Var("y"), Const(u)), Exists("z", phi))))]
    if held:
        v_big = ws.insert({nid: top for nid in range(len(ws.universe))})
        for label, phi, u in held:
            consequent = Forall("y", Imp(
                Mem(Var("y"), Const(u)),
                Exists("z", And(Mem(Var("z"), Const(v_big)), phi))))
            if not pa.holds(consequent):
                return _axiom_failure(ws, consequent, f"Collection[{label}]")
    details["collection_instances"] = len(held)
    details["collection_vacuous"] = len(instances) - len(held)

    # Bounded foundation: the closed schema per battery formula.
    params, details["foundation_battery"] = ONE_VARIABLE.read(first_names(ws))
    for label, phi in params:
        axiom = instantiate_axiom("Foundation", phi)
        if not pa.holds(axiom):
            return _axiom_failure(ws, axiom, f"Foundation[{label}]")
    details["foundation_instances"] = len(params)
    return None, details


# -- collapse transfer ----------------------------------------------------------------


def same_tables(a: Algebra, b: Algebra) -> bool:
    """Whether two algebras have the same elements, bounds and tables."""
    return all(getattr(a, key) == getattr(b, key) for key in (
        "elements", "top", "bottom", "meet_t", "join_t", "imp_t", "star_t"))


def bar_values(src: Algebra, dst: Algebra) -> list[int]:
    """Element-index map of the collapse homomorphism into the three-valued core."""
    out = []
    for e in src.elements:
        out.append(dst.index[collapse_f(src, e)])
    return out


def bar_name(src: Universe, dst: Universe, value_map: list[int], nid: int,
             memo: dict[int, int]) -> int:
    """Rebuild a name over the three-valued core, collapsing its weights.

    When two domain names collapse onto the same image the weights are
    joined, which keeps the image a well-defined name and agrees with the
    transfer equations.
    """
    hit = memo.get(nid)
    if hit is not None:
        return hit
    entries: dict[int, int] = {}
    join = dst.algebra.join_t
    for child, value in src.entries_of(nid):
        image = bar_name(src, dst, value_map, child, memo)
        fv = value_map[value]
        entries[image] = join[entries[image]][fv] if image in entries else fv
    out = dst.insert(entries)
    memo[nid] = out
    return out


def bar_formula(f: Formula, name_map: dict[int, int]) -> Formula:
    return map_terms(f, lambda t: Const(name_map[t.name_id]) if isinstance(t, Const) else t)


def check_nff_transfer(run: Run) -> Verdict:
    """Collapsing a negation-free value commutes with moving the sentence
    into the three-valued model at the same rank bound, for `forall x. B`
    and `exists x. B`, B each formula of the `NEGATION_FREE` battery over
    the last of the first four names (60 sentences), and for the five
    negation-free axioms.  On an algebra with ps3's tables the collapse is
    the identity and the target model is the run's own, so each value is
    compared with itself and the check cannot fail there."""
    algebra = run.algebra
    src_ws = run.workspace()
    src_ctx = src_ws.ba
    ps3_alg, ps3_d = ps3()
    # On the three-valued model itself the collapse is the identity and the
    # run's workspace is the target, so each sentence moves to itself and
    # keeps its value.
    same = same_tables(algebra, ps3_alg)
    if not same:
        dst_ws = Run(ps3_alg, ps3_d, run.rank_bound, run.budget).workspace()
        dst_ctx = dst_ws.ba
        vmap = bar_values(algebra, ps3_alg)
        memo: dict[int, int] = {}
        name_map = {nid: bar_name(src_ws.universe, dst_ws.universe, vmap, nid, memo)
                    for nid in range(src_ws.enumerated)}
    bodies, declared = NEGATION_FREE.read(first_names(src_ws)[-1:])
    sentences = [(print_formula(f), f) for _, body in bodies
                 for f in (Forall("x", body), Exists("x", body))]
    sentences += [(name, instantiate_axiom(name))
                  for name in ("Extensionality", "Pairing", "Union", "PowerSet")]
    sentences.append(("Separation[z = z]",
                      instantiate_axiom("Separation", Eq(Var("z"), Var("z")))))
    for label, sentence in sentences:
        src_val = src_ctx.eval(sentence)
        dst_val = src_val if same else dst_ctx.eval(bar_formula(sentence, name_map))
        collapsed = collapse_f(algebra, src_val)
        if collapsed != dst_val:
            ce = src_ws.sentence_counterexample(
                "ba", sentence, src_val,
                note=f"{label}: collapses to {collapsed}; the three-valued core gives {dst_val}")
            return ce, {}
    return None, {"sentences": len(sentences), "battery": declared}


# -- paraconsistency ------------------------------------------------------------------


def check_paraconsistency(run: Run) -> Verdict:
    """A sentence and its negation both valid, without explosion.

    The witness sentence says some name both belongs and does not belong
    somewhere; its value and the value of its negation must both be the
    coatom, and the explosion implication must evaluate to bottom, under
    both assignments.  The coatom is designated: the designated filter
    holds a non-top element, which lies below it.
    """
    algebra = run.algebra
    ws = run.workspace()
    phi = Exists("x", Exists("y", And(Mem(Var("x"), Var("y")),
                                      Not(Mem(Var("x"), Var("y"))))))
    psi = Not(Forall("x", Eq(Var("x"), Var("x"))))
    coatom = algebra.big_join([e for e in algebra.elements if e != algebra.top])
    details = {"coatom": coatom}
    for assignment in ("ba", "pa"):
        ctx = ws.ctx(assignment)
        val_phi = ctx.eval(phi)
        val_not_phi = ctx.eval(Not(phi))
        if val_phi != coatom or val_not_phi != coatom:
            ce = ws.sentence_counterexample(
                assignment, phi, val_phi,
                note=f"expected coatom {coatom}; negation gave {val_not_phi}")
            return ce, {}
        explosion = Imp(And(phi, Not(phi)), psi)
        val_exp = ctx.eval(explosion)
        if val_exp != algebra.bottom:
            ce = ws.sentence_counterexample(assignment, explosion, val_exp,
                                            note="expected bottom")
            return ce, {}
        details[f"phi_{assignment}"] = val_phi
        details[f"explosion_{assignment}"] = val_exp
    return None, details


# -- equivalence-style properties ------------------------------------------------------


def designated_entry(d: frozenset[int]) -> Callable[[frozenset[int], int, int], frozenset[int]]:
    """The move of a name's set of designated-entry keys by one more entry
    (x, a), for `Universe.states`."""
    return lambda held, x, a: held | {x} if a in d else held


def check_properties(run: Run) -> Verdict:
    """Reflexivity, designated-entry membership, transitivity and the two
    substitution laws, exhaustively over the bounded universe.

    The engine is asked reflexivity once per class of interchangeable
    names, at its first name.

    The designated-entry law fails at the first name u, in id order, with
    an entry (x, a), a designated and `x in u` not, at its first such x.
    It is decided by state.  The keys of u's designated entries are its
    prefix's and perhaps its last entry's, so one pass down the prefix
    arrays gives every name that set (`designated_entry`).  The keys are
    low names, so `x in u` depends on u only through its class of
    interchangeable names, and the law is asked once per (set, class), at
    the first name that has them: the first name of the first pair that
    fails is the first name that fails.

    The other three take u, v, w with e = `u = v` in D, the designated
    set: if a, the value of `v = w`, `v in w` or `w in v`, has e /\\ a in
    D, then `u = w`, `u in w` or `w in u` is in D.  They are a reading of
    the run's partition (`Run.quotient`).  D is a proper filter under the
    gate, so for u = v, e /\\ a in D puts a, the conclusion, in D.  For
    u != v, `build_quotient` has checked that pa equality is top or
    bottom, and bottom is not in D, so e is top, u and v share a class and
    e /\\ a is a; it has also checked that the verdicts of `=` and `in`,
    both sides, are constant on classes.  A pair on which the partition
    fails fails the check with its law.
    """
    ws = run.workspace()
    ctx = ws.pa
    d = ctx.designated_i
    n = len(ws.universe)

    def fail(rel: str, u: int, v: int, note: str) -> Verdict:
        return ws.atomic_counterexample("pa", rel, u, v, ctx.atomic(rel, u, v), note), {}

    classes = ctx.name_classes()
    irreflexive = {c for c, r in enumerate(classes.reps) if ctx.equality(r, r) not in d}
    if irreflexive:
        u = next(u for u in range(n) if classes.of[u] in irreflexive)
        return fail("=", u, u, "reflexivity")
    states, held = ws.universe.states(frozenset(), designated_entry(d), n)
    for u in NameClasses.by_key(zip(states, classes.of)).reps:
        for x in sorted(held[states[u]]):
            if ctx.membership(x, u) not in d:
                return fail("in", x, u, "designated entry not a member")
    try:
        run.quotient  # its checks answer the other three laws
    except QuotientDefect as defect:
        return fail(defect.rel, defect.u, defect.v, defect.note)
    return None, {"names": n}


def check_leibniz(run: Run) -> Verdict:
    """Indiscernibility of pa-equal names, plus the ba-side contrast.

    For every pa-equal pair and battery formula, validity transfers from
    one name to the other, and the value class (top, strictly intermediate,
    bottom) is preserved.  Names of one class of interchangeable names
    (`EvalContext.name_classes`, with the battery's constants apart) have
    the same values, so each formula is evaluated once per class, at its
    first name, and pairs of classes are compared; the counterexample is
    the first pair of names in id order of a bad pair of classes.  Under
    ba, at least one negated battery formula must break indiscernibility
    whenever an intermediate element exists.
    """
    algebra, prof = run.algebra, run.profile
    ws = run.workspace()
    pa = ws.pa
    d = pa.designated_i
    forms, declared = ONE_VARIABLE.read(first_names(ws))
    top_i, bottom_i = algebra.top_i, algebra.bottom_i

    def value_class(val: int) -> str:
        if val == top_i:
            return "top"
        if val == bottom_i:
            return "bottom"
        return "intermediate"

    def broken(row_u: tuple, row_v: tuple) -> Optional[tuple[int, bool]]:
        """The first formula that breaks indiscernibility between two rows
        of values, and whether it breaks validity."""
        for i, (val_u, val_v) in enumerate(zip(row_u, row_v)):
            if (val_u in d) and (val_v not in d):
                return i, True
            if value_class(val_u) != value_class(val_v):
                return i, False
        return None

    classes = pa.name_classes().apart(first_names(ws))
    reps, sizes = classes.reps, classes.sizes
    handles = [pa.sentence(phi, ("x",)) for _, phi in forms]
    rows = [tuple([at(r) for at in handles]) for r in reps]
    equal_pairs = 0

    def bad(a: int, b: int) -> bool:
        nonlocal equal_pairs
        if pa.equality(reps[a], reps[b]) not in d:
            return False
        equal_pairs += sizes[a] * (sizes[b] - (a == b))
        return rows[a] != rows[b] and broken(rows[a], rows[b]) is not None

    pair = first_bad_pair(classes, bad)
    if pair:
        u, v = pair
        i, invalid = broken(rows[classes.of[u]], rows[classes.of[v]])
        label, phi = forms[i]
        note = (f"{label}: valid at #{u} but not at pa-equal #{v}" if invalid
                else f"{label}: value class changed across a pa-equal pair")
        ce = ws.sentence_counterexample(
            "pa", subst_const(phi, "x", v), algebra.elements[rows[classes.of[v]][i]], note=note)
        return ce, {}

    details: dict = {"pa_equal_pairs": equal_pairs, "battery": declared}
    if prof["big_designated"] and prof["has_intermediate"]:
        ba = ws.ba
        negated = [(label, ba.sentence(phi, ("x",))) for label, phi in forms
                   if not is_negation_free(phi)]
        classes = ba.name_classes().apart(first_names(ws))
        reps = classes.reps
        values = [tuple([at(r) for _, at in negated]) for r in reps]

        def breaks(a: int, b: int) -> Optional[int]:
            """The first negated formula valid at class a and not at class b."""
            if a == b or ba.equality(reps[a], reps[b]) not in d:
                return None
            return next((i for i, (vu, vv) in enumerate(zip(values[a], values[b]))
                         if vu in d and vv not in d), None)

        pair = first_bad_pair(classes, lambda a, b: breaks(a, b) is not None)
        if pair is None:
            return missing_counterexample(
                "no negated battery formula broke ba indiscernibility"), details
        u, v = pair
        a, b = classes.of[u], classes.of[v]
        i = breaks(a, b)
        label, vu, vv = negated[i][0], values[a][i], values[b][i]
        details["ba_violation"] = {
            "formula": label,
            "u": ws.universe.pretty(u),
            "v": ws.universe.pretty(v),
            "value_u": algebra.elements[vu],
            "value_v": algebra.elements[vv],
        }
    return None, details


def check_bounded_quantification(run: Run) -> Verdict:
    """The domain-indexed form of a bounded universal matches the
    quantifier, for every enumerated name and battery formula.

    The first failing (name, formula) counts, name outer and formula
    inner.  It is found by class and state (`bq_mismatch`)."""
    ws = run.workspace()
    ctx = ws.pa
    forms, declared = ONE_VARIABLE.read(first_names(ws))
    phis = [phi for _, phi in forms]
    found = bq_mismatch(ctx, phis)
    if found is not None:
        u, i, res = found
        sentence = Forall("x", Imp(Mem(Var("x"), Const(u)), phis[i]))
        ce = ws.sentence_counterexample("pa", sentence, res.quantified,
                                        note=f"the domain-indexed meet is {res.domain_indexed}")
        return ce, {}
    return None, {"instances": ws.enumerated * len(phis), "battery": declared}


# -- boolean coincidence ---------------------------------------------------------------


def coincidence_mismatches(ws: Workspace, limit: int = 1) -> list[dict]:
    """Pairs where the two assignments give different atomic values, in
    order: the low rows (names of rank below the bound against every name,
    `in` then `=`), then `=` for u <= v, then `in` for all (u, v).  Every
    value is the engine's; it is asked only the pairs of bad class pairs.

    The classes are those shared under ba and pa: names of one class under
    both `name_classes()` (16 classes beside the 5 low names for the 3125
    names of bool4 at rank 3, where the tables cover every name; every
    name alone where they do not, as at rank 2).  Two names of one class
    answer every atom alike under either assignment, against each other
    too, so each relation has one value per pair of classes and
    assignment, the value at the classes' first names.  A pair of classes
    is bad for a relation where its two values differ, and every pair of
    names from a bad pair of classes is asked, in the order above.
    """
    n = len(ws.universe)
    alg, ba, pa = ws.algebra, ws.ba, ws.pa
    classes = NameClasses.by_key(zip(ba.name_classes().of, pa.name_classes().of))
    of, reps = classes.of, classes.reps

    def values(rel: str, u: int, v: int) -> tuple[int, int]:
        """The engine's values of rel at (u, v) under ba and under pa."""
        if rel == "=":
            return ba.equality(u, v), pa.equality(u, v)
        return ba.membership(u, v), pa.membership(u, v)

    bad: dict[str, dict[int, set[int]]] = {"=": {}, "in": {}}
    for rel, by_class in bad.items():
        for a, u in enumerate(reps):
            row = {b for b, v in enumerate(reps) if operator.ne(*values(rel, u, v))}
            if row:
                by_class[a] = row
    if not any(bad.values()):
        return []
    out: list[dict] = []
    low = [s for s in range(n) if ws.universe.rank_of(s) < ws.rank_bound]
    for rel, u, v in itertools.chain(
            ((rel, s, v) for s in low for v in range(n) for rel in ("in", "=")),
            (("=", u, v) for u in range(n) if of[u] in bad["="] for v in range(u, n)),
            (("in", u, v) for u in range(n) if of[u] in bad["in"] for v in range(n))):
        if of[v] in bad[rel].get(of[u], ()):
            vba, vpa = values(rel, u, v)
            if vba != vpa:
                out.append(ws.atomic_counterexample("pa", rel, u, v, alg.elements[vpa],
                                                    note=f"ba gives {alg.elements[vba]}"))
                if len(out) >= limit:
                    break
    return out


def check_boolean_coincidence(run: Run) -> Verdict:
    """On boolean algebras the two assignments agree everywhere.

    Atomic values, as the engine gives them, are compared on every pair of
    the bounded universe (see `coincidence_mismatches`).  Sentence validity
    on the battery is compared at rank 2 at most: in the run's workspace
    at rank 2 or below, else in that of a rank-2 `Run`, and the details
    then say so (sweeps at the full bound would be quadratic).
    """
    algebra = run.algebra
    ws = run.workspace()
    bad = coincidence_mismatches(ws, limit=1)
    if bad:
        return bad[0], {}
    ws2 = ws if run.rank_bound <= 2 else Run(algebra, run.designated, 2, run.budget).workspace()
    checked = 0
    battery_forms, declared = ONE_VARIABLE.read(first_names(ws2))
    forms = [(phi, ws2.ba.sentence(phi, ("x",)), ws2.pa.sentence(phi, ("x",)))
             for _, phi in battery_forms]
    for u in range(len(ws2.universe)):
        for phi, at_ba, at_pa in forms:
            vba = at_ba(u)
            vpa = at_pa(u)
            checked += 1
            if (vba in ws2.ba.designated_i) != (vpa in ws2.pa.designated_i):
                ce = ws2.sentence_counterexample(
                    "pa", subst_const(phi, "x", u), algebra.elements[vpa],
                    note=f"ba gave {algebra.elements[vba]}")
                return ce, {}
    n = len(ws.universe)
    details = {"names": n, "atomic_pairs": n * n, "battery_sentences": checked,
               "battery": declared}
    if ws2 is not ws:
        details["battery_rank"] = ws2.rank_bound
    return None, details


# -- quotient model --------------------------------------------------------------------


def check_quotient(run: Run) -> Verdict:
    """Validate the relation laws of the run's quotient (`Run.quotient`).

    A pair on which the relations are not well defined fails the check
    with its law.  Equal-classes is the identity relation and
    distinct-classes its exact complement; member/non-member cover every
    class pair, and overlap somewhere when the designated set has a
    non-top element.  A pair of classes that breaks a law fails the check
    with the atomic value at their representatives.  The connective
    clauses run on the same model (`check_connective_theorem`).  Both read
    classes only: the partition, from the class tables where they cover
    the universe (`build_quotient`), and the clauses once per key of atom
    values.
    """
    def fail(rel: str, u: int, v: int, note: str) -> dict:
        ws = run.workspace()
        return ws.atomic_counterexample("pa", rel, u, v, ws.pa.atomic(rel, u, v), note)

    try:
        qm = run.quotient
    except QuotientDefect as defect:
        return fail(defect.rel, defect.u, defect.v, defect.note), {}
    k = len(qm.classes)
    details: dict = {"classes": k,
                     "class_sizes": [len(c) for c in qm.classes]}

    all_pairs = {(i, j) for i in range(k) for j in range(k)}
    for law, rel, got, want in (
            ("equality-is-identity", "=", qm.r_eq, {(i, i) for i in range(k)}),
            ("distinct-is-complement", "=", qm.r_neq, all_pairs - qm.r_eq),
            ("membership-covers", "in", qm.r_mem | qm.r_nmem, all_pairs)):
        if got != want:
            i, j = min(got ^ want)
            u, v = qm.representatives[i], qm.representatives[j]
            return fail(rel, u, v, f"{law} at classes {[i, j]}"), details
    overlap = sorted(qm.r_mem & qm.r_nmem)
    details["membership_overlap"] = [list(p) for p in overlap]
    if run.profile["big_designated"] and not overlap:
        ce = missing_counterexample("no class pair is both member and non-member, "
                                    "although a non-top element is designated")
        return ce, details

    ce, details["connectives"] = check_connective_theorem(run, overlap[0] if overlap else None)
    return ce, details


def check_connective_theorem(run: Run, overlap: Optional[tuple[int, int]]) -> Verdict:
    """Satisfaction in the run's quotient distributes over the connectives.

    Implication is material, conjunction and disjunction are componentwise,
    an unsatisfied formula has a satisfied negation (one direction only),
    and the quantifier clauses are class sweeps.  `overlap`, a class pair
    both member and non-member, witnesses the failure of the converse; it
    is None when the two relations do not overlap.  A clause that fails
    gives the sentence it names at the representatives of the classes.

    Every formula of the clauses but the quantified ones is built by the
    connectives from `x in y` and `x = y`, and its value is a function of
    the values of those two atoms.  So each pair of classes (i, j) has a
    key, the two atoms' values at their representatives, and the formulas
    are asked once per key, at its first pair in the order i outer, j
    inner: a key that fails fails at each of its pairs, and its first pair
    comes before the others.  The instances still count every pair.
    """
    qm = run.quotient
    k = len(qm.classes)
    x, y = Var("x"), Var("y")
    atoms = [Mem(x, y), Eq(x, y), Not(Mem(x, y))]
    details: dict = {"classes": k}
    sat = cache(partial(satisfaction, qm))  # one handle per distinct formula

    def fail(clause: str, f: Formula, *classes: int) -> Verdict:
        """f with its free variables, in sorted order, at the classes' representatives."""
        for var, cls in zip(sorted(free_vars(f)), classes):
            f = subst_const(f, var, qm.representatives[cls])
        ws = run.workspace()
        note = f"{clause} clause at classes {list(classes)}"
        return ws.sentence_counterexample("pa", f, ws.pa.eval(f), note), {}

    ctx, reps = qm.context, qm.representatives
    keys = [[(ctx.membership(u, v), ctx.equality(u, v)) for v in reps] for u in reps]
    firsts: dict[tuple[int, int], tuple[int, int]] = {}  # the first pair of each key
    for i, j in itertools.product(range(k), repeat=2):
        firsts.setdefault(keys[i][j], (i, j))
    checked = 0
    for fa, fb in [(a, b) for a in atoms for b in atoms]:
        a, b, imp, conj, disj, neg = map(sat, (fa, fb, Imp(fa, fb), And(fa, fb),
                                               Or(fa, fb), Not(fa)))
        for i, j in firsts.values():
            va, vb = a(i, j), b(i, j)
            if imp(i, j) != ((not va) or vb):
                return fail("implication", Imp(fa, fb), i, j)
            if conj(i, j) != (va and vb):
                return fail("conjunction", And(fa, fb), i, j)
            if disj(i, j) != (va or vb):
                return fail("disjunction", Or(fa, fb), i, j)
            if not va and not neg(i, j):
                return fail("negation-direction", Not(fa), i, j)
        checked += k * k
    details["connective_instances"] = checked

    # Quantifier clauses: a quantified atom is satisfied iff the class
    # sweep says so; the atom is read once per key.
    quantifier_checked = 0
    for f in atoms:
        body, forall, exists = sat(f), sat(Forall("x", f)), sat(Exists("x", f))
        held = {key: body(i, j) for key, (i, j) in firsts.items()}
        for j in range(k):
            column = [held[keys[i][j]] for i in range(k)]
            if forall(j) != all(column):
                return fail("universal", Forall("x", f), j)
            if exists(j) != any(column):
                return fail("existential", Exists("x", f), j)
            quantifier_checked += 2
    details["quantifier_instances"] = quantifier_checked

    # Tautological sample: a universally satisfied body.
    if not quotient_satisfies(qm, Forall("x", Eq(x, x)), []):
        return fail("reflexive-universal", Forall("x", Eq(x, x)))

    # The converse of the negation clause fails at the overlap, whose two
    # relations read the same membership values as `sat` does.
    if overlap is not None:
        i, j = overlap
        details["negation_converse_failure"] = {
            "classes": [i, j],
            "note": "membership and its negation both satisfied",
        }
    return None, details


# -- propositional logic ---------------------------------------------------------------


def check_paraconsistent(run: Run) -> Verdict:
    """Search for a valuation that defeats explosion.

    On a designated cobounded algebra with a second designated element the
    witness valuation (that element for p, bottom for q) must defeat it; on
    a classical two-valued setup no valuation can.
    """
    alg, d = run.algebra, run.designated
    ok, falsifier = is_tautology(alg, d, EXPLOSION)
    details: dict = {"witness": falsifier}
    if run.profile["designated_cobounded"] and run.profile["big_designated"]:
        mid = sorted(d - {alg.top})[0]
        guaranteed = {"p": mid, "q": alg.bottom}
        val = eval_prop(alg, guaranteed, EXPLOSION)
        if alg.resolve(val) in d:
            ce = valuation_counterexample(EXPLOSION, guaranteed, val,
                                          note="the guaranteed falsifier is designated")
            return ce, details
        details["guaranteed_witness"] = guaranteed
    details["explosion_valid"] = ok
    return None, details


def check_ps3_agreement(run: Run) -> Verdict:
    """Propositional validity agrees with the three-valued core.

    Soundness side: every formula valid here is valid there, via the
    collapse of valuations.  Completeness side: each falsifying valuation
    of the core pulls back through the section top->top, half->(a fixed
    intermediate), bottom->bottom and still falsifies here.  The corpus is
    every formula of at most 5 nodes over p, q and r (771 of them).
    """
    alg, d = run.algebra, run.designated
    corpus = enumerate_formulas([PVar(v) for v in "pqr"], 5, negation=True)
    core, core_d = ps3()
    section = {"1": alg.top, "half": alg.intermediates()[0], "0": alg.bottom}
    for f in corpus:
        _, falsifier = is_tautology(core, core_d, f)
        if falsifier is not None:
            # valid here but not on the core fails here too: the pullback is designated
            pulled = {v: section[e] for v, e in falsifier.items()}
            val = eval_prop(alg, pulled, f)
            if alg.resolve(val) in d:
                ce = valuation_counterexample(
                    f, pulled, val, note=f"pulls back the core's falsifier {falsifier}")
                return ce, {}
        else:
            here, local = is_tautology(alg, d, f)
            if not here:
                ce = valuation_counterexample(f, local, eval_prop(alg, local, f),
                                              note="valid on the three-valued core")
                return ce, {}
    return None, {"corpus": len(corpus), "agreements": len(corpus)}


# -- registry --------------------------------------------------------------------------


class Check(NamedTuple):
    """A registry entry: the body, the `check --list` help text, the
    record's description (`{rank}` stands for the rank bound) and the
    gates, (condition, skip reason) pairs that `run_check` checks in order
    with `Run.meets`."""

    fn: Callable[[Run], Verdict]
    help: str
    description: str
    gates: list[tuple[str, str]]


_DESIGNATED = ("designated_cobounded", "needs a designated cobounded algebra")
_ULTRA = ("ultra_designated_cobounded", "needs an ultra-designated cobounded algebra")
# The checks whose witnesses need a name with an intermediate entry skip
# below rank 2 with this gate.
_RANK2 = ("rank>=2", "needs rank 2 or more: the rank-1 universe holds only #0")

CHECKS: dict[str, Check] = {
    "algebra-laws": Check(
        check_algebra_laws, "lattice, boundedness, distributivity, filter shape",
        "lattice, boundedness, distributivity and designated-set shape", []),
    "drim": Check(
        check_implication_laws, "implication laws P1-P4 over all triples",
        "implication laws P1-P4 over all element triples", []),
    "cobounded": Check(
        check_cobounded_routes, "cobounded verdict via subset search and closed form",
        "cobounded verdict; subset search and closed form must agree", []),
    "two-valued": Check(
        check_two_valued, "pa equality takes only top or bottom on every pair",
        "pa equality is two-valued on every pair (bounded at rank {rank})",
        [_DESIGNATED]),
    "equality-characterization": Check(
        check_equality_characterization,
        "recursive equality equals the entry-matching criterion",
        "pa equality validity equals the entry-matching criterion "
        "(bounded at rank {rank})",
        [_ULTRA]),
    "extensionality-contrast": Check(
        check_extensionality_contrast,
        "plain extensionality fails under pa, strengthened form holds",
        "extensionality contrast witness (bounded at rank {rank})",
        [_DESIGNATED, ("has_intermediate", "needs at least three elements")]),
    "zfbar-witnesses": Check(
        check_zfbar_witnesses, "witness constructions for every axiom valid under pa",
        "axiom witnesses valid under pa (bounded at rank {rank})",
        [_ULTRA]),
    "nff-transfer": Check(
        check_nff_transfer, "collapse commutes with negation-free evaluation",
        "collapse of negation-free values matches the collapsed model "
        "(bounded at rank {rank})",
        [("cobounded", "needs a cobounded algebra"),
         ("has_intermediate", "needs at least three elements (collapse must be onto)")]),
    "paraconsistency": Check(
        check_paraconsistency, "a sentence and its negation jointly valid without explosion",
        "joint validity of a sentence and its negation (bounded at rank {rank})",
        [_DESIGNATED, ("big_designated", "needs at least two designated elements"),
         _RANK2]),
    "properties": Check(
        check_properties, "equality is a congruence-like equivalence on the universe",
        "equality behaves like an equivalence compatible with membership (rank {rank})",
        [_ULTRA]),
    "leibniz": Check(
        check_leibniz, "indiscernibility under pa, with the ba violation witness",
        "indiscernibility under pa with a ba violation witness (rank {rank})",
        [_ULTRA, _RANK2]),
    "bounded-quantification": Check(
        check_bounded_quantification, "bounded universals equal domain-indexed meets",
        "bounded universals equal their domain-indexed meets "
        "(pa, bounded at rank {rank})",
        [_ULTRA]),
    "boolean-coincidence": Check(
        check_boolean_coincidence, "ba and pa coincide on boolean algebras",
        "ba and pa coincide on atoms and battery sentences (rank {rank})",
        [("boolean", "needs a boolean algebra")]),
    "quotient": Check(
        check_quotient, "quotient model relations and connective clauses",
        "class relations of the quotient model (rank {rank})",
        [_ULTRA, _RANK2]),
    "prop-paraconsistency": Check(
        check_paraconsistent, "propositional explosion fails on the algebra",
        "explosion (p /\\ ~p) -> q fails for some valuation",
        [("star", "no star table for negation")]),
    "prop-agreement": Check(
        check_ps3_agreement, "propositional validity agrees with the three-valued core",
        "validity agrees with the three-valued core on every formula "
        "of at most 5 nodes over p, q, r",
        [_ULTRA, ("has_intermediate", "needs more than two elements")]),
}


def run_check(name: str, run: Run) -> CheckResult:
    """Run one named check and time it.  The first gate the run does not
    meet skips it with that gate's reason, and so does a resource overrun
    (an enumeration or valuation count over its budget, or memory run
    out); otherwise the body's counterexample decides between fail and
    pass."""
    if name not in CHECKS:
        raise InputError(f"unknown check {name!r}; see `check --list`")
    check = CHECKS[name]
    t0 = time.perf_counter()
    counterexample, details = None, {}
    reason = next((why for condition, why in check.gates if not run.meets(condition)), None)
    if reason is None:
        try:
            counterexample, details = check.fn(run)
        except ResourceError as exc:
            reason = f"budget exceeded: {exc}"
        except MemoryError:
            reason = "out of memory: the check needed more memory than the process could get"
    verdict = "skipped" if reason else "pass" if counterexample is None else "fail"
    return CheckResult(name, check.description.format(rank=run.rank_bound), verdict,
                       counterexample, reason, time.perf_counter() - t0, details)


def run_all(algebra: Algebra, designated: Iterable[str], rank_bound: int = 2,
            seed: int = 0, budget: int = DEFAULT_BUDGET,
            names: Optional[Iterable[str]] = None,
            jobs: int = 1) -> list[CheckResult]:
    """Run the selected checks (all by default) in registry order, on one
    `Run`, so all of them share one structure profile.

    `seed` is ignored: every check enumerates what it sweeps, so the
    records do not depend on it; the keyword stays so that callers passing
    it keep working.  `jobs` accepts only 1: the checks are pure Python and
    hold the interpreter lock, so a thread pool ran slower than serial and
    was removed; the keyword stays so that callers passing `jobs=1` keep
    working.
    """
    if jobs != 1:
        raise InputError(f"jobs={jobs}: checks run serially, so jobs must be 1")
    selected = list(names) if names is not None else list(CHECKS)
    for nm in selected:
        if nm not in CHECKS:
            raise InputError(f"unknown check {nm!r}")
    run = Run(algebra, designated, rank_bound, budget)
    return [run_check(nm, run) for nm in selected]
