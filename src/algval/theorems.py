"""Named, reproducible validation runs over a configured algebra.

Every check builds its own fresh bounded universe, runs a sweep, and emits
one CheckResult.  A failing result carries a replayable counterexample: the
assignment, the formula (or atomic pair), and the ad-hoc names inserted up
to the point of failure, in insertion order, so that `replay` can rebuild
the exact evaluation from scratch.  Quantified verdicts are approximations
bounded at the configured rank and say so in their description.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .algebra import (
    Algebra, check_cobounded, check_drim, check_filter, check_lattice,
    collapse_f, ps3,
)
from .errors import InputError, InvariantError
from .evaluate import (
    EvalContext, battery, check_bq, nff_battery, two_var_battery,
)
from .formulas import (
    BINDERS, And, Bot, Const, Eq, Exists, Forall, Formula, Imp, Mem, Not, Or, Var,
    children, iff, instantiate_axiom, is_negation_free, map_terms, parse,
    print_formula, subst_const,
)
from .universe import DEFAULT_BUDGET, Universe, build_universe


@dataclass
class CheckResult:
    name: str
    description: str
    verdict: str  # "pass" | "fail" | "skipped"
    counterexample: Optional[dict] = None
    skip_reason: Optional[str] = None
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

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
    """A fresh enumerated universe plus contexts for both assignments.

    Ad-hoc witness names go through `insert`, which keeps a log (id plus
    entry literal) so failures can be replayed against a rebuilt universe.
    """

    def __init__(self, algebra: Algebra, designated: Iterable[str],
                 rank_bound: int = 2, budget: int = DEFAULT_BUDGET):
        self.algebra = algebra
        self.designated = frozenset(algebra.resolve(d) for d in designated)
        self.rank_bound = rank_bound
        self.universe = build_universe(algebra, rank_bound, budget=budget)
        self.enumerated = len(self.universe)
        self.insertion_log: list[list] = []
        self._ctxs: dict[str, EvalContext] = {}

    def ctx(self, assignment: str) -> EvalContext:
        if assignment not in self._ctxs:
            self._ctxs[assignment] = EvalContext(self.universe, self.designated, assignment)
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


def replay(algebra: Algebra, designated: Iterable[str], rank_bound: int,
           counterexample: dict, budget: int = DEFAULT_BUDGET) -> str:
    """Re-evaluate a recorded counterexample from scratch.

    Rebuilds the enumerated universe, re-interns the logged ad-hoc names
    (checking they land on the recorded ids) and evaluates the recorded
    formula or atomic pair, returning the element identifier obtained.
    """
    uni = build_universe(algebra, rank_bound, budget=budget)
    for nid, literal in counterexample.get("inserted", []):
        got = uni.insert({int(c): algebra.index[algebra.resolve(v)] for c, v in literal})
        if got != nid:
            raise InputError(f"replay divergence: literal for #{nid} interned as #{got}")
    ctx = EvalContext(uni, designated, counterexample["assignment"])
    if counterexample["kind"] == "atomic":
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


def _sweep_base(ws: Workspace, cap: int = 24) -> list[int]:
    """Names to sweep: everything when small, else the low ranks plus an
    evenly strided sample of the rest."""
    if ws.enumerated <= cap:
        return list(range(ws.enumerated))
    low = [nid for nid in range(ws.enumerated) if ws.universe.rank_of(nid) <= 2]
    rest = [nid for nid in range(ws.enumerated) if ws.universe.rank_of(nid) > 2]
    want = max(cap - len(low), 0)
    if want and rest:
        stride = max(len(rest) // want, 1)
        low.extend(rest[::stride][:want])
    return sorted(set(low))


def _first_intermediate(algebra: Algebra) -> Optional[str]:
    mids = algebra.intermediates()
    return mids[0] if mids else None


def _timed(fn: Callable[..., CheckResult]) -> Callable[..., CheckResult]:
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        out.wall_time = time.perf_counter() - t0
        return out
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _skip(name: str, description: str, reason: str) -> CheckResult:
    return CheckResult(name, description, "skipped", skip_reason=reason)


# -- algebra-level checks ------------------------------------------------------------


@_timed
def check_algebra_laws(algebra: Algebra, designated: Iterable[str],
                       rank_bound: int = 2, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Lattice laws, boundedness, distributivity and the filter verdicts."""
    desc = "lattice, boundedness, distributivity and designated-set shape"
    rep = check_lattice(algebra)
    filt = check_filter(algebra, designated)
    details = {**rep.verdicts, **filt.verdicts}
    bad = [k for k in ("lattice", "bounded", "distributive") if not rep.ok(k)]
    if not filt.ok("filter"):
        bad.append("filter")
    if bad:
        witnesses = {**rep.witnesses, **filt.witnesses}
        ce = {"kind": "law", "laws": bad,
              "witnesses": {k: list(witnesses.get(k, ())) for k in bad}}
        return CheckResult("algebra-laws", desc, "fail", counterexample=ce,
                           details=details)
    return CheckResult("algebra-laws", desc, "pass", details=details)


@_timed
def check_implication_laws(algebra: Algebra, designated: Iterable[str],
                           rank_bound: int = 2, seed: int = 0,
                           budget: int = DEFAULT_BUDGET) -> CheckResult:
    """The four implication laws, exhaustively over element triples."""
    desc = "implication laws P1-P4 over all element triples"
    rep = check_drim(algebra)
    if rep.ok("drim"):
        return CheckResult("drim", desc, "pass")
    ce = {"kind": "law", "laws": ["drim"],
          "witnesses": {"drim": list(rep.witnesses.get("drim", ()))}}
    return CheckResult("drim", desc, "fail", counterexample=ce)


@_timed
def check_cobounded_routes(algebra: Algebra, designated: Iterable[str],
                           rank_bound: int = 2, seed: int = 0,
                           budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Cobounded verdict with agreement between its two detection routes."""
    desc = "cobounded verdict; subset search and closed form must agree"
    rep = check_cobounded(algebra)
    details = {"cobounded": rep.ok("cobounded"), **rep.info}
    subset = rep.info.get("cobounded-subset-search")
    closed = rep.info.get("cobounded-closed-form")
    if subset is not None and subset != closed:
        ce = {"kind": "route-disagreement", "subset_search": subset,
              "closed_form": closed}
        return CheckResult("cobounded", desc, "fail", counterexample=ce,
                           details=details)
    return CheckResult("cobounded", desc, "pass", details=details)


# -- valuation checks -----------------------------------------------------------------


@_timed
def check_two_valued(algebra: Algebra, designated: Iterable[str],
                     rank_bound: int = 3, seed: int = 0,
                     budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Equality under pa takes only the top or bottom value, on all pairs."""
    prof = profile(algebra, designated)
    desc = f"pa equality is two-valued on every pair (bounded at rank {rank_bound})"
    if not prof["designated_cobounded"]:
        return _skip("two-valued", desc, "needs a designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    ctx = ws.pa
    ok_values = (algebra.top_i, algebra.bottom_i)
    n = len(ws.universe)
    for u in range(n):
        for v in range(u, n):
            val = ctx.equality(u, v)
            if val not in ok_values:
                ce = ws.atomic_counterexample("pa", "=", u, v, algebra.elements[val])
                return CheckResult("two-valued", desc, "fail", counterexample=ce)
    return CheckResult("two-valued", desc, "pass",
                       details={"names": n, "pairs": n * (n + 1) // 2})


def _characteristic_equality(uni: Universe, designated_i: frozenset[int],
                             top_i: int, memo: dict, u: int, v: int) -> bool:
    """Entry-matching equality criterion, computed by its own recursion.

    Designated entries of either name must be matched by designated entries
    of the other with equal keys, and top entries by top entries; this is
    the combinatorial mirror of the pa equality clause and never consults
    the valuation engine.
    """
    if u > v:
        u, v = v, u
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    names = uni.names

    def matched(src: int, dst: int) -> bool:
        for x, ux in names[src].entries:
            if ux in designated_i:
                if not any(
                    vy in designated_i
                    and _characteristic_equality(uni, designated_i, top_i, memo, x, y)
                    for y, vy in names[dst].entries
                ):
                    return False
            if ux == top_i:
                if not any(
                    vy == top_i
                    and _characteristic_equality(uni, designated_i, top_i, memo, x, y)
                    for y, vy in names[dst].entries
                ):
                    return False
        return True

    out = matched(u, v) and matched(v, u)
    memo[key] = out
    return out


@_timed
def check_equality_characterization(algebra: Algebra, designated: Iterable[str],
                                    rank_bound: int = 2, seed: int = 0,
                                    budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Recursive pa equality agrees with the entry-matching criterion."""
    prof = profile(algebra, designated)
    desc = (f"pa equality validity equals the entry-matching criterion "
            f"(bounded at rank {rank_bound})")
    if not prof["ultra_designated_cobounded"]:
        return _skip("equality-characterization", desc,
                     "needs an ultra-designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    ctx = ws.pa
    memo: dict = {}
    d_i = ctx.designated_i
    n = len(ws.universe)
    checked = 0
    for u in range(n):
        for v in range(u, n):
            recursive = ctx.equality(u, v) in d_i
            combinatorial = _characteristic_equality(
                ws.universe, d_i, algebra.top_i, memo, u, v)
            checked += 1
            if recursive != combinatorial:
                ce = ws.atomic_counterexample(
                    "pa", "=", u, v, ctx.atomic("=", u, v),
                    note=f"criterion says {combinatorial}")
                return CheckResult("equality-characterization", desc, "fail",
                                   counterexample=ce)
    return CheckResult("equality-characterization", desc, "pass",
                       details={"pairs": checked})


@_timed
def check_extensionality_contrast(algebra: Algebra, designated: Iterable[str],
                                  rank_bound: int = 2, seed: int = 0,
                                  budget: int = DEFAULT_BUDGET) -> CheckResult:
    """The singleton-weight witness separates the two equality readings.

    With w the empty name, a strictly intermediate and u = {w: a},
    v = {w: top}: the plain extensionality antecedent is designated yet pa
    equality collapses to bottom (while ba equality is top), so plain
    extensionality fails under pa; the strengthened antecedent with negated
    memberships rejects the pair, and the strengthened axiom itself holds
    on the bounded universe.
    """
    prof = profile(algebra, designated)
    desc = f"extensionality contrast witness (bounded at rank {rank_bound})"
    if not prof["designated_cobounded"]:
        return _skip("extensionality-contrast", desc,
                     "needs a designated cobounded algebra")
    if not prof["has_intermediate"]:
        return _skip("extensionality-contrast", desc,
                     "needs at least three elements")
    mid = _first_intermediate(algebra)
    ws = Workspace(algebra, designated, rank_bound, budget)
    u = ws.insert({0: algebra.index[mid]})
    v = ws.insert({0: algebra.top_i})
    pa, ba = ws.pa, ws.ba
    details: dict = {"witness_u": ws.universe.pretty(u),
                     "witness_v": ws.universe.pretty(v)}

    eq_pa = pa.atomic("=", u, v)
    eq_ba = ba.atomic("=", u, v)
    details["eq_pa"], details["eq_ba"] = eq_pa, eq_ba
    if eq_pa != algebra.bottom:
        ce = ws.atomic_counterexample("pa", "=", u, v, eq_pa, "expected bottom")
        return CheckResult("extensionality-contrast", desc, "fail", counterexample=ce)
    if eq_ba != algebra.top:
        ce = ws.atomic_counterexample("ba", "=", u, v, eq_ba, "expected top")
        return CheckResult("extensionality-contrast", desc, "fail", counterexample=ce)

    z = Var("z")
    plain_antecedent = Forall("z", iff(Mem(z, Const(u)), Mem(z, Const(v))))
    if not pa.holds(plain_antecedent):
        ce = ws.sentence_counterexample(
            "pa", plain_antecedent, pa.eval(plain_antecedent),
            "plain antecedent should be designated for the witness pair")
        return CheckResult("extensionality-contrast", desc, "fail", counterexample=ce)
    plain_axiom = instantiate_axiom("Extensionality")
    if pa.holds(plain_axiom):
        ce = ws.sentence_counterexample(
            "pa", plain_axiom, pa.eval(plain_axiom),
            "plain extensionality should fail on the witness pair")
        return CheckResult("extensionality-contrast", desc, "fail", counterexample=ce)
    details["plain_extensionality_fails_pa"] = True
    details["plain_axiom_value"] = pa.eval(plain_axiom)

    strong_antecedent = Forall("z", And(
        iff(Mem(z, Const(u)), Mem(z, Const(v))),
        iff(Not(Mem(z, Const(u))), Not(Mem(z, Const(v))))))
    if pa.holds(strong_antecedent):
        ce = ws.sentence_counterexample(
            "pa", strong_antecedent, pa.eval(strong_antecedent),
            "strengthened antecedent should reject the witness pair")
        return CheckResult("extensionality-contrast", desc, "fail", counterexample=ce)
    details["strong_antecedent_rejected"] = True

    axiom = instantiate_axiom("ExtensionalityBar")
    if not pa.holds(axiom):
        ce = ws.sentence_counterexample("pa", axiom, pa.eval(axiom))
        return CheckResult("extensionality-contrast", desc, "fail", counterexample=ce)
    details["strengthened_axiom_holds_pa"] = True
    return CheckResult("extensionality-contrast", desc, "pass", details=details)


# -- the axiom battery ----------------------------------------------------------------


def _axiom_failure(ws: Workspace, name: str, desc: str, assignment: str,
                   formula: Formula, value: str, axiom: str) -> CheckResult:
    ce = ws.sentence_counterexample(assignment, formula, value, note=f"axiom {axiom}")
    return CheckResult(name, desc, "fail", counterexample=ce,
                       details={"axiom": axiom})


@_timed
def check_zfbar_witnesses(algebra: Algebra, designated: Iterable[str],
                          rank_bound: int = 2, seed: int = 0,
                          budget: int = DEFAULT_BUDGET,
                          powerset_domain_cap: int = 3) -> CheckResult:
    """Witness constructions for every axiom, validated instance by instance.

    Each instance builds the explicit witness name (pair set, union set,
    power set, filtered subset, numeral), then evaluates the instance over
    the bounded universe under pa.  The negated-emptiness separation
    instance is additionally evaluated under ba, where it is expected to
    fail whenever an intermediate element exists.
    """
    name = "zfbar-witnesses"
    prof = profile(algebra, designated)
    desc = f"axiom witnesses valid under pa (bounded at rank {rank_bound})"
    if not prof["ultra_designated_cobounded"]:
        return _skip(name, desc, "needs an ultra-designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    pa = ws.pa
    alg = algebra
    top = alg.top_i
    details: dict = {}
    # Quantified instances cost at least a universe sweep each, and several
    # axioms nest sweeps; shrink the instance base on big universes.
    big = ws.enumerated > 64
    base = _sweep_base(ws, cap=8 if big else 24)
    details["sweep_base"] = len(base)

    axiom = instantiate_axiom("ExtensionalityBar")
    if not pa.holds(axiom):
        return _axiom_failure(ws, name, desc, "pa", axiom, pa.eval(axiom),
                              "ExtensionalityBar")
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
                return _axiom_failure(ws, name, desc, "pa", inst, pa.eval(inst),
                                      "Pairing")
            count += 1
    details["pairing_instances"] = count

    # Union: dom(v) is the union of the member domains, each point weighted
    # by its membership-of-a-member value.
    def member_of_member(xid: int, uid: int) -> Formula:
        return Exists("m", And(Mem(Var("m"), Const(uid)), Mem(Const(xid), Var("m"))))

    count = 0
    for u in base:
        dom_v = sorted({c for y, _ in ws.universe.entries_of(u)
                        for c, _ in ws.universe.entries_of(y)})
        v = ws.insert({xid: pa.value(member_of_member(xid, u)) for xid in dom_v})
        inst = Forall("x", iff(
            Mem(Var("x"), Const(v)),
            Exists("m", And(Mem(Var("m"), Const(u)), Mem(Var("x"), Var("m"))))))
        if not pa.holds(inst):
            return _axiom_failure(ws, name, desc, "pa", inst, pa.eval(inst), "Union")
        count += 1
    details["union_instances"] = count

    # Power set: dom(y) holds every total map dom(x) -> carrier, weighted by
    # its subset-of-x value.
    def subset_of(zid: int, xid: int) -> Formula:
        return Forall("w", Imp(Mem(Var("w"), Const(zid)), Mem(Var("w"), Const(xid))))

    count = skipped = 0
    for x in base:
        dom_x = [c for c, _ in ws.universe.entries_of(x)]
        if len(dom_x) > powerset_domain_cap:
            skipped += 1
            continue
        y_entries: dict[int, int] = {}
        for values in itertools.product(range(len(alg.elements)), repeat=len(dom_x)):
            z = ws.insert(dict(zip(dom_x, values)))
            y_entries[z] = pa.value(subset_of(z, x))
        y = ws.insert(y_entries)
        inst = Forall("z", iff(
            Mem(Var("z"), Const(y)),
            Forall("w", Imp(Mem(Var("w"), Var("z")), Mem(Var("w"), Const(x))))))
        if not pa.holds(inst):
            return _axiom_failure(ws, name, desc, "pa", inst, pa.eval(inst),
                                  "PowerSet")
        count += 1
    details["powerset_instances"] = count
    if skipped:
        details["powerset_skipped_large_domains"] = skipped

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
        for x in sep_base:
            for ctx_name in ("pa", "ba"):
                ctx = ws.ctx(ctx_name)
                y = ws.insert({
                    zid: alg.meet_t[xv][ctx.value(subst_const(phi, "z", zid))]
                    for zid, xv in ws.universe.entries_of(x)
                })
                inst = Forall("z", iff(
                    Mem(Var("z"), Const(y)),
                    And(Mem(Var("z"), Const(x)), phi)))
                holds = ctx.holds(inst)
                if ctx_name == "pa":
                    if not holds:
                        return _axiom_failure(ws, name, desc, "pa", inst,
                                              ctx.eval(inst), f"Separation[{label}]")
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
        return _axiom_failure(ws, name, desc, "pa", empty_member,
                              pa.eval(empty_member), "Infinity")
    successor_checked = boundary = 0
    for k in range(rank_bound):
        if k + 1 <= rank_bound - 1:
            inst = Exists("u", And(Mem(Var("u"), Const(omega_trunc)),
                                   Mem(Const(nums[k]), Var("u"))))
            if not pa.holds(inst):
                return _axiom_failure(ws, name, desc, "pa", inst, pa.eval(inst),
                                      f"Infinity successor of {k}")
            successor_checked += 1
        else:
            boundary += 1
    for k in range(rank_bound):
        for n2 in range(k + 1, rank_bound + 1):
            if pa.value(Mem(Const(nums[k]), Const(nums[n2]))) != top:
                inst = Mem(Const(nums[k]), Const(nums[n2]))
                return _axiom_failure(ws, name, desc, "pa", inst, pa.eval(inst),
                                      "Infinity membership chain")
    details["infinity"] = {"numerals": rank_bound + 1,
                           "successor_instances": successor_checked,
                           "out_of_truncation": boundary}

    # Bounded collection: the witness set ranges over everything present.
    count = vacuous = 0
    for label, phi in two_var_battery():
        for u in base:
            antecedent = Forall("y", Imp(Mem(Var("y"), Const(u)), Exists("z", phi)))
            if not pa.holds(antecedent):
                vacuous += 1
                continue
            v_big = ws.insert({nid: top for nid in range(len(ws.universe))})
            consequent = Forall("y", Imp(
                Mem(Var("y"), Const(u)),
                Exists("z", And(Mem(Var("z"), Const(v_big)), phi))))
            if not pa.holds(consequent):
                return _axiom_failure(ws, name, desc, "pa", consequent,
                                      pa.eval(consequent), f"Collection[{label}]")
            count += 1
    details["collection_instances"] = count
    details["collection_vacuous"] = vacuous

    # Bounded foundation: the closed schema per battery formula.  The
    # schema already nests two universe sweeps, so on big universes only
    # quantifier-free battery bodies stay affordable.
    count = trimmed = 0
    for label, phi in battery(ws.universe, t_ids=range(min(3, ws.enumerated))):
        if big and _quantifier_depth(phi) > 0:
            trimmed += 1
            continue
        axiom = instantiate_axiom("Foundation", phi)
        if not pa.holds(axiom):
            return _axiom_failure(ws, name, desc, "pa", axiom, pa.eval(axiom),
                                  f"Foundation[{label}]")
        count += 1
    details["foundation_instances"] = count
    if trimmed:
        details["foundation_trimmed_quantified_bodies"] = trimmed

    return CheckResult(name, desc, "pass", details=details)


def _quantifier_depth(f: Formula) -> int:
    inner = max(map(_quantifier_depth, children(f)), default=0)
    return inner + 1 if isinstance(f, BINDERS) else inner


# -- collapse transfer ----------------------------------------------------------------


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


@_timed
def check_nff_transfer(algebra: Algebra, designated: Iterable[str],
                       rank_bound: int = 2, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Collapsing a negation-free value commutes with moving the sentence
    into the three-valued model at the same rank bound."""
    prof = profile(algebra, designated)
    desc = (f"collapse of negation-free values matches the collapsed model "
            f"(bounded at rank {rank_bound})")
    if not prof["cobounded"]:
        return _skip("nff-transfer", desc, "needs a cobounded algebra")
    if not prof["has_intermediate"]:
        return _skip("nff-transfer", desc,
                     "needs at least three elements (collapse must be onto)")
    src_ws = Workspace(algebra, designated, rank_bound, budget)
    ps3_alg, ps3_d = ps3()
    dst_ws = Workspace(ps3_alg, ps3_d, rank_bound, budget)
    vmap = bar_values(algebra, ps3_alg)
    memo: dict[int, int] = {}
    name_map = {nid: bar_name(src_ws.universe, dst_ws.universe, vmap, nid, memo)
                for nid in range(src_ws.enumerated)}
    rng = random.Random(seed)
    src_ctx = src_ws.ba
    dst_ctx = dst_ws.ba
    big = src_ws.enumerated > 64
    checked = trimmed = 0
    for label, sentence in nff_battery(src_ws.universe, rng=rng):
        if big and _quantifier_depth(sentence) > 2:
            trimmed += 1
            continue
        src_val = src_ctx.eval(sentence)
        moved = bar_formula(sentence, name_map)
        dst_val = dst_ctx.eval(moved)
        collapsed = collapse_f(algebra, src_val)
        checked += 1
        if collapsed != dst_val:
            ce = {
                "kind": "transfer-mismatch",
                "sentence": print_formula(sentence),
                "label": label,
                "source_value": src_val,
                "collapsed": collapsed,
                "target_value": dst_val,
            }
            return CheckResult("nff-transfer", desc, "fail", counterexample=ce)
    details = {"sentences": checked}
    if trimmed:
        details["trimmed_deeply_quantified"] = trimmed
    return CheckResult("nff-transfer", desc, "pass", details=details)


# -- paraconsistency ------------------------------------------------------------------


@_timed
def check_paraconsistency(algebra: Algebra, designated: Iterable[str],
                          rank_bound: int = 2, seed: int = 0,
                          budget: int = DEFAULT_BUDGET) -> CheckResult:
    """A sentence and its negation both valid, without explosion.

    The witness sentence says some name both belongs and does not belong
    somewhere; its value and the value of its negation must both be the
    coatom, and the explosion implication must evaluate to bottom, under
    both assignments.
    """
    prof = profile(algebra, designated)
    desc = f"joint validity of a sentence and its negation (bounded at rank {rank_bound})"
    if not prof["designated_cobounded"]:
        return _skip("paraconsistency", desc, "needs a designated cobounded algebra")
    if not prof["big_designated"]:
        return _skip("paraconsistency", desc,
                     "needs at least two designated elements")
    ws = Workspace(algebra, designated, rank_bound, budget)
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
            return CheckResult("paraconsistency", desc, "fail", counterexample=ce)
        if not (ctx.holds(phi) and ctx.holds(Not(phi))):
            ce = ws.sentence_counterexample(assignment, phi, val_phi,
                                            note="witness or negation not designated")
            return CheckResult("paraconsistency", desc, "fail", counterexample=ce)
        explosion = Imp(And(phi, Not(phi)), psi)
        val_exp = ctx.eval(explosion)
        if val_exp != algebra.bottom:
            ce = ws.sentence_counterexample(assignment, explosion, val_exp,
                                            note="expected bottom")
            return CheckResult("paraconsistency", desc, "fail", counterexample=ce)
        details[f"phi_{assignment}"] = val_phi
        details[f"explosion_{assignment}"] = val_exp
    return CheckResult("paraconsistency", desc, "pass", details=details)


# -- equivalence-style properties ------------------------------------------------------


@_timed
def check_properties(algebra: Algebra, designated: Iterable[str],
                     rank_bound: int = 2, seed: int = 0,
                     budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Reflexivity, designated-entry membership, transitivity and the two
    substitution laws, exhaustively over the bounded universe."""
    prof = profile(algebra, designated)
    desc = f"equality behaves like an equivalence compatible with membership (rank {rank_bound})"
    if not prof["ultra_designated_cobounded"]:
        return _skip("properties", desc, "needs an ultra-designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    ctx = ws.pa
    d = ctx.designated_i
    n = len(ws.universe)

    for u in range(n):
        if ctx.equality(u, u) not in d:
            ce = ws.atomic_counterexample("pa", "=", u, u, ctx.atomic("=", u, u),
                                          "reflexivity")
            return CheckResult("properties", desc, "fail", counterexample=ce)
    for u in range(n):
        for x, ux in ws.universe.entries_of(u):
            if ux in d and ctx.membership(x, u) not in d:
                ce = ws.atomic_counterexample("pa", "in", x, u,
                                              ctx.atomic("in", x, u),
                                              "designated entry not a member")
                return CheckResult("properties", desc, "fail", counterexample=ce)
    meet = algebra.meet_t
    for u in range(n):
        for v in range(n):
            eq_uv = ctx.equality(u, v)
            if eq_uv not in d:
                continue
            for w in range(n):
                if meet[eq_uv][ctx.equality(v, w)] in d and ctx.equality(u, w) not in d:
                    ce = ws.atomic_counterexample("pa", "=", u, w,
                                                  ctx.atomic("=", u, w),
                                                  f"transitivity via #{v}")
                    return CheckResult("properties", desc, "fail", counterexample=ce)
                if meet[eq_uv][ctx.membership(v, w)] in d and ctx.membership(u, w) not in d:
                    ce = ws.atomic_counterexample("pa", "in", u, w,
                                                  ctx.atomic("in", u, w),
                                                  f"member substitution via #{v}")
                    return CheckResult("properties", desc, "fail", counterexample=ce)
                if meet[eq_uv][ctx.membership(w, v)] in d and ctx.membership(w, u) not in d:
                    ce = ws.atomic_counterexample("pa", "in", w, u,
                                                  ctx.atomic("in", w, u),
                                                  f"container substitution via #{v}")
                    return CheckResult("properties", desc, "fail", counterexample=ce)
    return CheckResult("properties", desc, "pass", details={"names": n})


@_timed
def check_leibniz(algebra: Algebra, designated: Iterable[str],
                  rank_bound: int = 2, seed: int = 0,
                  budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Indiscernibility of pa-equal names, plus the ba-side contrast.

    For every pa-equal pair and battery formula, validity transfers from
    one name to the other, and the value class (top, strictly intermediate,
    bottom) is preserved.  Under ba, at least one negated battery formula
    must break indiscernibility whenever an intermediate element exists.
    """
    prof = profile(algebra, designated)
    desc = f"indiscernibility under pa with a ba violation witness (rank {rank_bound})"
    if not prof["ultra_designated_cobounded"]:
        return _skip("leibniz", desc, "needs an ultra-designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    pa = ws.pa
    d = pa.designated_i
    n = len(ws.universe)
    big = ws.enumerated > 64
    forms = [(label, phi) for label, phi in battery(ws.universe)
             if not (big and _quantifier_depth(phi) > 1)]
    top_i, bottom_i = algebra.top_i, algebra.bottom_i

    def value_class(val: int) -> str:
        if val == top_i:
            return "top"
        if val == bottom_i:
            return "bottom"
        return "intermediate"

    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and pa.equality(u, v) in d]
    if big and len(pairs) > 200:
        stride = len(pairs) // 200
        pairs = pairs[::stride]
    for u, v in pairs:
        for label, phi in forms:
            val_u = pa.value(subst_const(phi, "x", u))
            val_v = pa.value(subst_const(phi, "x", v))
            if (val_u in d) and (val_v not in d):
                ce = ws.sentence_counterexample(
                    "pa", subst_const(phi, "x", v), algebra.elements[val_v],
                    note=f"{label}: valid at #{u} but not at pa-equal #{v}")
                return CheckResult("leibniz", desc, "fail", counterexample=ce)
            if value_class(val_u) != value_class(val_v):
                ce = ws.sentence_counterexample(
                    "pa", subst_const(phi, "x", v), algebra.elements[val_v],
                    note=f"{label}: value class changed across a pa-equal pair")
                return CheckResult("leibniz", desc, "fail", counterexample=ce)

    details: dict = {"pa_equal_pairs": len(pairs), "battery": len(forms)}
    if prof["big_designated"] and prof["has_intermediate"]:
        ba = ws.ba
        violation = None
        for u in range(n):
            for v in range(n):
                if u == v or ba.equality(u, v) not in d:
                    continue
                for label, phi in forms:
                    if is_negation_free(phi):
                        continue
                    vu = ba.value(subst_const(phi, "x", u))
                    vv = ba.value(subst_const(phi, "x", v))
                    if vu in d and vv not in d:
                        violation = {
                            "formula": label,
                            "u": ws.universe.pretty(u),
                            "v": ws.universe.pretty(v),
                            "value_u": algebra.elements[vu],
                            "value_v": algebra.elements[vv],
                        }
                        break
                if violation:
                    break
            if violation:
                break
        if violation is None:
            ce = {"kind": "missing-ba-violation",
                  "note": "no negated battery formula broke ba indiscernibility"}
            return CheckResult("leibniz", desc, "fail", counterexample=ce,
                               details=details)
        details["ba_violation"] = violation
    return CheckResult("leibniz", desc, "pass", details=details)


@_timed
def check_bounded_quantification(algebra: Algebra, designated: Iterable[str],
                                 rank_bound: int = 2, seed: int = 0,
                                 budget: int = DEFAULT_BUDGET) -> CheckResult:
    """The domain-indexed form of a bounded universal matches the quantifier."""
    prof = profile(algebra, designated)
    desc = (f"bounded universals equal their domain-indexed meets "
            f"(pa, bounded at rank {rank_bound})")
    if not prof["ultra_designated_cobounded"]:
        return _skip("bounded-quantification", desc,
                     "needs an ultra-designated cobounded algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    ctx = ws.pa
    big = ws.enumerated > 64
    names = _sweep_base(ws) if big else list(range(ws.enumerated))
    forms = [(label, phi) for label, phi in battery(ws.universe)
             if not (big and _quantifier_depth(phi) > 1)]
    checked = 0
    for u in names:
        for label, phi in forms:
            res = check_bq(ctx, u, phi)
            checked += 1
            if not res.equal:
                ce = {
                    "kind": "bq-mismatch",
                    "u": ws.universe.pretty(u),
                    "formula": label,
                    "quantified": res.quantified,
                    "domain_indexed": res.domain_indexed,
                }
                return CheckResult("bounded-quantification", desc, "fail",
                                   counterexample=ce)
    details = {"instances": checked}
    if big:
        details["sampled_names"] = len(names)
    return CheckResult("bounded-quantification", desc, "pass", details=details)


# -- boolean coincidence ---------------------------------------------------------------


def coincidence_mismatches(ws: Workspace, limit: int = 1,
                           rng: Optional[random.Random] = None) -> list[dict]:
    """Pairs where the two assignments give different atomic values, in
    order: the low rows (names of rank below the bound against every name,
    `in` then `=`), then `=` for u <= v, then `in` for all (u, v).

    The low rows come from the engine.  Above them, `=` of (u, v) reads
    only u's entries against v's membership column (the (ba, pa) values
    of `x in v` over the low names x) and v's entries against u's column;
    `in` reads only v's entries against u's equality column.  Names with
    the same column form a class, and classes are few (16 membership and
    9 equality classes for the 3125 names of bool4 at rank 3), so each
    name is folded once per class.  Within two classes u and v range
    independently, so meeting every half from class pair (a, b) with
    every half from (b, a) gives exactly the values of all their pairs:
    the verdict covers every pair.  Only bad class pairs are rescanned
    pair by pair to list the offenders.  With `rng`, a clean sweep is
    cross-checked against the engine's `=` and `in` on sampled pairs.
    """
    uni = ws.universe
    alg = ws.algebra
    n = len(uni)
    low = [nid for nid in range(n) if uni.rank_of(nid) < ws.rank_bound]
    ba, pa = ws.ba, ws.pa
    out: list[dict] = []

    def mismatch(rel: str, u: int, v: int, vba: int, vpa: int) -> dict:
        return {"kind": "coincidence-mismatch", "rel": rel, "u": uni.pretty(u),
                "v": uni.pretty(v), "ba": alg.elements[vba], "pa": alg.elements[vpa]}

    m_ba, m_pa, e_ba, e_pa = {}, {}, {}, {}
    for s in low:
        m_ba[s] = [ba.membership(s, v) for v in range(n)]
        m_pa[s] = [pa.membership(s, v) for v in range(n)]
        e_ba[s] = [ba.equality(s, v) for v in range(n)]
        e_pa[s] = [pa.equality(s, v) for v in range(n)]
        for v in range(n):
            if m_ba[s][v] != m_pa[s][v]:
                out.append(mismatch("in", s, v, m_ba[s][v], m_pa[s][v]))
            if e_ba[s][v] != e_pa[s][v]:
                out.append(mismatch("=", s, v, e_ba[s][v], e_pa[s][v]))
            if len(out) >= limit:
                return out

    meet, join, imp, star = alg.meet_t, alg.join_t, alg.imp_t, alg.star_t
    entries = [uni.names[nid].entries for nid in range(n)]

    def classes(row_ba: dict, row_pa: dict) -> tuple[list[int], list[dict]]:
        # Each name's class id, and each class's column {x: (ba, pa)}.
        ids: dict[tuple, int] = {}
        of = [ids.setdefault(tuple((row_ba[x][v], row_pa[x][v]) for x in low), len(ids))
              for v in range(n)]
        return of, [dict(zip(low, key)) for key in ids]

    m_of, m_cols = classes(m_ba, m_pa)
    e_of, e_cols = classes(e_ba, e_pa)

    def half(u: int, col: dict) -> tuple[int, int]:
        # The dom(u) factors of `u = v`, for a v with membership column col.
        acc_ba = acc_pa = alg.top_i
        for x, ux in entries[u]:
            mb, mp = col[x]
            acc_ba = meet[acc_ba][imp[ux][mb]]
            acc_pa = meet[acc_pa][meet[imp[ux][mp]][imp[star[mp]][star[ux]]]]
        return acc_ba, acc_pa

    def member(v: int, col: dict) -> tuple[int, int]:
        # `u in v`, for a u with equality column col.
        acc_ba = acc_pa = alg.bottom_i
        for x, vx in entries[v]:
            acc_ba = join[acc_ba][meet[vx][col[x][0]]]
            acc_pa = join[acc_pa][meet[vx][col[x][1]]]
        return acc_ba, acc_pa

    def eq_value(u: int, v: int) -> tuple[int, int]:
        (b1, p1), (b2, p2) = half(u, m_cols[m_of[v]]), half(v, m_cols[m_of[u]])
        return meet[b1][b2], meet[p1][p2]

    halves: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for u in range(n):
        for b, col in enumerate(m_cols):
            halves.setdefault((m_of[u], b), set()).add(half(u, col))
    bad_eq: dict[int, set[int]] = {}
    for (a, b), hs in halves.items():
        if any(meet[hb][gb] != meet[hp][gp] for hb, hp in hs for gb, gp in halves[b, a]):
            bad_eq.setdefault(a, set()).add(b)
    bad_in = {c for c, col in enumerate(e_cols)
              if any(vb != vp for vb, vp in (member(v, col) for v in range(n)))}

    suspects = itertools.chain(
        (("=", u, v) for u in range(n) if m_of[u] in bad_eq
         for v in range(u, n) if m_of[v] in bad_eq[m_of[u]]),
        (("in", u, v) for u in range(n) if e_of[u] in bad_in for v in range(n)))
    for rel, u, v in suspects:
        vb, vp = eq_value(u, v) if rel == "=" else member(v, e_cols[e_of[u]])
        if vb != vp:
            out.append(mismatch(rel, u, v, vb, vp))
            if len(out) >= limit:
                return out

    if rng is not None and not out:
        # Second route: the class-derived values of both relations must
        # agree with the engine's clauses on a sample of pairs.
        for _ in range(min(200, n * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            eq, mem = eq_value(u, v), member(v, e_cols[e_of[u]])
            for i, ctx in enumerate((ba, pa)):
                if ctx.equality(u, v) != eq[i] or ctx.membership(u, v) != mem[i]:
                    raise InvariantError(
                        f"class-derived values diverged from the engine at (#{u}, #{v})")
    return out


@_timed
def check_boolean_coincidence(algebra: Algebra, designated: Iterable[str],
                              rank_bound: int = 3, seed: int = 0,
                              budget: int = DEFAULT_BUDGET) -> CheckResult:
    """On boolean algebras the two assignments agree everywhere.

    Atomic values are compared on every pair of the bounded universe, by
    column class (see `coincidence_mismatches`).  Sentence validity on the
    battery is compared at rank 2 at most, in the same workspace when the
    bound allows (sweeps at the full bound would be quadratic).
    """
    prof = profile(algebra, designated)
    desc = f"ba and pa coincide on atoms and battery sentences (rank {rank_bound})"
    if not prof["boolean"]:
        return _skip("boolean-coincidence", desc, "needs a boolean algebra")
    ws = Workspace(algebra, designated, rank_bound, budget)
    rng = random.Random(seed)
    bad = coincidence_mismatches(ws, limit=1, rng=rng)
    if bad:
        return CheckResult("boolean-coincidence", desc, "fail", counterexample=bad[0])
    ws2 = ws if rank_bound <= 2 else Workspace(algebra, designated, 2, budget)
    checked = 0
    for u in range(len(ws2.universe)):
        for label, phi in battery(ws2.universe):
            sentence = subst_const(phi, "x", u)
            vba = ws2.ba.value(sentence)
            vpa = ws2.pa.value(sentence)
            checked += 1
            if (vba in ws2.ba.designated_i) != (vpa in ws2.pa.designated_i):
                ce = ws2.sentence_counterexample(
                    "pa", sentence, algebra.elements[vpa],
                    note=f"ba gave {algebra.elements[vba]}")
                return CheckResult("boolean-coincidence", desc, "fail",
                                   counterexample=ce)
    n = len(ws.universe)
    return CheckResult("boolean-coincidence", desc, "pass",
                       details={"names": n, "atomic_pairs": n * n,
                                "battery_sentences": checked})


# -- registry --------------------------------------------------------------------------


def _quotient_check(algebra, designated, rank_bound=2, seed=0,
                    budget=DEFAULT_BUDGET) -> CheckResult:
    from .quotient import check_quotient

    return check_quotient(algebra, designated, rank_bound, seed, budget)


def _prop_paraconsistency_check(algebra, designated, rank_bound=2, seed=0,
                                budget=DEFAULT_BUDGET) -> CheckResult:
    from .proplogic import check_paraconsistent

    return check_paraconsistent(algebra, designated)


def _prop_agreement_check(algebra, designated, rank_bound=2, seed=0,
                          budget=DEFAULT_BUDGET) -> CheckResult:
    from .proplogic import check_ps3_agreement

    return check_ps3_agreement(algebra, designated, seed=seed)


CHECKS: dict[str, tuple[Callable[..., CheckResult], str]] = {
    "algebra-laws": (check_algebra_laws,
                     "lattice, boundedness, distributivity, filter shape"),
    "drim": (check_implication_laws,
             "implication laws P1-P4 over all triples"),
    "cobounded": (check_cobounded_routes,
                  "cobounded verdict via subset search and closed form"),
    "two-valued": (check_two_valued,
                   "pa equality takes only top or bottom on every pair"),
    "equality-characterization": (check_equality_characterization,
                                  "recursive equality equals the entry-matching criterion"),
    "extensionality-contrast": (check_extensionality_contrast,
                                "plain extensionality fails under pa, strengthened form holds"),
    "zfbar-witnesses": (check_zfbar_witnesses,
                        "witness constructions for every axiom valid under pa"),
    "nff-transfer": (check_nff_transfer,
                     "collapse commutes with negation-free evaluation"),
    "paraconsistency": (check_paraconsistency,
                        "a sentence and its negation jointly valid without explosion"),
    "properties": (check_properties,
                   "equality is a congruence-like equivalence on the universe"),
    "leibniz": (check_leibniz,
                "indiscernibility under pa, with the ba violation witness"),
    "bounded-quantification": (check_bounded_quantification,
                               "bounded universals equal domain-indexed meets"),
    "boolean-coincidence": (check_boolean_coincidence,
                            "ba and pa coincide on boolean algebras"),
    "quotient": (_quotient_check,
                 "quotient model relations and connective clauses"),
    "prop-paraconsistency": (_prop_paraconsistency_check,
                             "propositional explosion fails on the algebra"),
    "prop-agreement": (_prop_agreement_check,
                       "propositional validity agrees with the three-valued core"),
}


def run_check(name: str, algebra: Algebra, designated: Iterable[str],
              rank_bound: int = 2, seed: int = 0,
              budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Run one named check; an enumeration over budget degrades to a skip."""
    if name not in CHECKS:
        raise InputError(f"unknown check {name!r}; see `check --list`")
    fn, help_text = CHECKS[name]
    from .errors import ResourceError

    try:
        return fn(algebra, designated, rank_bound=rank_bound, seed=seed,
                  budget=budget)
    except ResourceError as exc:
        return CheckResult(name, help_text, "skipped",
                           skip_reason=f"budget exceeded: {exc}")


def run_all(algebra: Algebra, designated: Iterable[str], rank_bound: int = 2,
            seed: int = 0, budget: int = DEFAULT_BUDGET,
            names: Optional[Iterable[str]] = None,
            jobs: int = 1) -> list[CheckResult]:
    """Run the selected checks (all by default) in registry order.

    With jobs > 1 the checks run on a thread pool; results are still
    reported in registry order, and each check derives its own seed from
    the run seed and its name so scheduling cannot change any output.
    """
    selected = list(names) if names is not None else list(CHECKS)
    for nm in selected:
        if nm not in CHECKS:
            raise InputError(f"unknown check {nm!r}")

    def job(nm: str) -> CheckResult:
        child_seed = (seed * 1_000_003 + sum(ord(c) for c in nm)) % (2**31)
        return run_check(nm, algebra, designated, rank_bound, child_seed, budget)

    if jobs <= 1:
        return [job(nm) for nm in selected]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(job, nm) for nm in selected]
        return [f.result() for f in futures]
