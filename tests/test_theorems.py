import functools
import gc
import inspect
import itertools
import json
import weakref
from pathlib import Path

import pytest
from test_cli import run_cli
from test_evaluate import (
    assert_clauses_match_reference, bq_reference, patch_atoms, reference_clauses, stored_values,
    tracked_contexts,
)
from test_quotient import class_of

from algval import evaluate, quotient, theorems
from algval.algebra import BUILTIN_NAMES, Algebra, builtin, is_filter, loads_algebra, ps3
from algval.errors import InputError
from algval.evaluate import (
    ASSIGNMENTS, ColumnClasses, EvalContext, NameClasses, bq_mismatch, domain_indexed,
)
from algval.formulas import And, Const, Eq, Forall, Imp, Mem, Not, Or, Var, parse, print_formula
from algval.theorems import (
    CHECKS,
    ONE_VARIABLE,
    CheckResult,
    Run,
    Workspace,
    check_leibniz,
    check_properties,
    coincidence_mismatches,
    first_names,
    is_boolean,
    profile,
    replay,
    run_all,
    run_check,
)
from algval.quotient import QuotientDefect, build_quotient
from algval.universe import Universe

GOLDEN = Path(__file__).parent / "golden"


class TestProfile:
    def test_ps3(self):
        alg, d = ps3()
        prof = profile(alg, d)
        assert prof["cobounded"] and prof["designated_cobounded"]
        assert prof["ultra_designated_cobounded"] and prof["big_designated"]
        assert not prof["boolean"]

    def test_bool4(self):
        alg, d = builtin("bool4")
        prof = profile(alg, d)
        assert prof["boolean"] and not prof["cobounded"]
        assert not prof["designated_cobounded"]

    def test_bool2_is_both(self):
        alg, d = builtin("bool2")
        prof = profile(alg, d)
        assert prof["boolean"] and prof["ultra_designated_cobounded"]
        assert not prof["big_designated"]
        assert is_boolean(alg)


class TestPassVerdicts:
    @pytest.mark.parametrize("algname", ["ps3", "chain4"])
    def test_full_registry_has_no_failures(self, algname):
        alg, d = builtin(algname)
        results = run_all(alg, d, rank_bound=2, seed=0)
        assert [r.name for r in results] == list(CHECKS)
        assert not [r.name for r in results if r.verdict == "fail"]

    def test_two_valued(self):
        alg, d = ps3()
        r = run_check("two-valued", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        assert r.details["names"] == 4

    def test_equality_characterization(self):
        for algname in ("ps3", "chain4"):
            alg, d = builtin(algname)
            r = run_check("equality-characterization", Run(alg, d, rank_bound=2))
            assert r.verdict == "pass"
            assert r.details["pairs"] > 0

    def test_extensionality_contrast_values(self):
        alg, d = ps3()
        r = run_check("extensionality-contrast", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        assert r.details["eq_pa"] == "0"
        assert r.details["eq_ba"] == "1"
        assert r.details["plain_extensionality_fails_pa"]
        assert r.details["strengthened_axiom_holds_pa"]

    def test_zfbar_details(self):
        alg, d = ps3()
        r = run_check("zfbar-witnesses", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        assert r.details["extensionality_bar"] == "valid"
        assert r.details["pairing_instances"] == 10
        assert r.details["separation_fails_under_ba"] is True
        assert r.details["infinity"]["successor_instances"] >= 1
        assert r.details["foundation_instances"] > 0

    def test_leibniz_finds_the_ba_violation(self):
        alg, d = ps3()
        r = run_check("leibniz", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        violation = r.details["ba_violation"]
        assert "~" in violation["formula"]

    def test_bounded_quantification(self):
        alg, d = ps3()
        r = run_check("bounded-quantification", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        assert r.details["instances"] > 0

    def test_properties(self):
        alg, d = builtin("chain3")
        assert run_check("properties", Run(alg, d, rank_bound=2)).verdict == "pass"

    def test_paraconsistency_coatom(self):
        alg, d = builtin("chain4")
        r = run_check("paraconsistency", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        assert r.details["coatom"] == "b"
        assert r.details["phi_ba"] == "b" and r.details["phi_pa"] == "b"

    @pytest.mark.parametrize("algname", ["chain4", "chain5"])
    def test_nff_transfer(self, algname):
        alg, d = builtin(algname)
        r = run_check("nff-transfer", Run(alg, d, rank_bound=2))
        assert r.verdict == "pass"
        assert r.details["sentences"] > 10

    def test_boolean_coincidence_small(self):
        alg, d = builtin("bool2")
        r = run_check("boolean-coincidence", Run(alg, d, rank_bound=3))
        assert r.verdict == "pass"
        assert r.details["names"] == 27


class TestSkips:
    def test_contrast_needs_three_elements(self):
        alg, d = builtin("bool2")
        r = run_check("extensionality-contrast", Run(alg, d))
        assert r.verdict == "skipped"
        assert "three" in r.skip_reason

    def test_pa_checks_skip_on_plain_boolean(self):
        alg, d = builtin("bool4")
        for name in ("two-valued", "equality-characterization", "zfbar-witnesses",
                     "leibniz", "properties"):
            assert run_check(name, Run(alg, d, rank_bound=2)).verdict == "skipped"

    @pytest.mark.parametrize("name", ["paraconsistency", "leibniz", "quotient"])
    def test_witness_checks_skip_at_rank_1_naming_the_rank(self, name):
        # the rank-1 universe holds only #0, so no name has an
        # intermediate entry to build a witness from
        alg, d = ps3()
        r = run_check(name, Run(alg, d, rank_bound=1))
        assert r.verdict == "skipped"
        assert "rank 2" in r.skip_reason and "rank-1" in r.skip_reason

    def test_paraconsistency_needs_two_designated(self):
        alg, d = builtin("bool2")
        r = run_check("paraconsistency", Run(alg, d))
        assert r.verdict == "skipped"
        assert "two designated" in r.skip_reason
        # at rank 1 the later rank gate fails too; the first failing gate
        # names the skip
        r = run_check("paraconsistency", Run(alg, d, rank_bound=1))
        assert r.skip_reason == "needs at least two designated elements"

    def test_coincidence_needs_boolean(self):
        alg, d = ps3()
        assert run_check("boolean-coincidence", Run(alg, d)).verdict == "skipped"


class TestCoincidenceSweep:
    def test_battery_rank_declared_above_rank_two(self):
        # the battery runs at rank 2 at most, on another run past it
        alg, d = builtin("bool2")
        results = [run_check("boolean-coincidence", Run(alg, d, rank)) for rank in (2, 3)]
        assert [r.verdict for r in results] == ["pass", "pass"]
        assert [r.details.get("battery_rank") for r in results] == [None, 2]
        assert results[0].details["battery_sentences"] == results[1].details["battery_sentences"]

    def test_finds_the_divergent_pair_outside_boolean(self):
        # On the three-valued core the assignments genuinely disagree, and
        # the sweep must surface a witness pair.
        alg, d = ps3()
        ws = Run(alg, d, 2).workspace()
        bad = coincidence_mismatches(ws, limit=5)
        assert bad
        literals = {(m["u_literal"], m["v_literal"]) for m in bad}
        assert any("half" in u + v for u, v in literals)
        for m in bad:
            assert m["kind"] == "atomic" and m["note"].startswith("ba gives")
            assert replay(alg, d, 2, m) == m["value"]

    def test_flattened_fold_cross_checked(self):
        alg, d = builtin("bool2")
        ws = Run(alg, d, 3).workspace()
        assert coincidence_mismatches(ws) == []

    @pytest.mark.parametrize("plant", ["factor", "member_cell", "column", "class_column"])
    def test_planted_table_defect_found_on_every_pair(self, plant, monkeypatch):
        # a defect in the pa tables alone makes the engine's two assignments
        # disagree; the classes must send the engine to every such pair.
        # The plants: top => bottom := top in pa's factor table, where it is
        # built (so the clause reads it too), the cell of `u in last` for a
        # top-level u, the cell of `x in last` for a low x (a low row), and
        # the cell of `x = last` both ways round
        alg, d = builtin("bool2")
        k = len(alg.elements)
        if plant == "factor":
            build = evaluate.value_column

            def planted(algebra, f, capped=True):
                variables, column = build(algebra, f, capped)
                if f is evaluate.FACTORS["pa"]:
                    column = bytearray(column)
                    column[alg.top_i * k + alg.bottom_i] = alg.top_i
                return variables, column
            monkeypatch.setattr(evaluate, "value_column", planted)
        ws = Run(alg, d, 3).workspace()
        last = len(ws.universe) - 1
        tables = ws.pa._columns
        of, low = tables.of, tables.low
        assert last >= low and of[low] != of[last]
        if plant == "member_cell":
            tables.mem[of[last]][of[low]] = (tables.mem[of[last]][of[low]] + 1) % k
        elif plant == "column":
            tables.mem[of[last]][1] = (tables.mem[of[last]][1] + 1) % k
        elif plant == "class_column":
            wrong = (tables.eq[of[last]][1] + 1) % k
            tables.eq[of[last]][1] = tables.eq[1][of[last]] = wrong
        got = coincidence_mismatches(ws, limit=10**9)
        assert got and got == engine_mismatches(ws)

    def test_coincidence_asks_only_first_names_on_bool4_rank3(self, monkeypatch):
        # past the low names, the engine is asked only at the first names of
        # the classes shared under ba and pa, once per pair, relation and
        # assignment
        alg, d = builtin("bool4")
        ws = Run(alg, d, 3).workspace()
        low = sum(ws.universe.rank_of(nid) < 3 for nid in range(len(ws.universe)))
        reps = set(NameClasses.by_key(zip(ws.ba.name_classes().of,
                                          ws.pa.name_classes().of)).reps)
        calls = []
        for name in ("equality", "membership"):
            engine = getattr(EvalContext, name)

            def counted(self, u, v, engine=engine):
                if max(u, v) >= low:
                    calls.append((u, v))
                return engine(self, u, v)
            monkeypatch.setattr(EvalContext, name, counted)
        assert coincidence_mismatches(ws) == []
        assert calls and {u for pair in calls for u in pair} <= reps
        assert len(calls) <= 2 * 2 * len(reps) ** 2 < len(ws.universe)

    def test_tables_fill_only_low_pairs_on_bool4_rank3(self):
        # the tables read only the low x low pairs through the clauses, and
        # their values never enter the store, so only those pairs do
        alg, d = builtin("bool4")
        ws = Run(alg, d, 3).workspace()
        assert coincidence_mismatches(ws) == []
        for assignment in ASSIGNMENTS:
            ctx = ws.ctx(assignment)
            low = ctx._columns.low
            stored = [pair for pair, _ in stored_values(ctx._memo)]
            assert stored and all(max(u, v) < low for _, u, v in stored)
            assert len(stored) <= 2 * low ** 2


def engine_mismatches(ws):
    """The mismatch list built pair by pair from the engine's clauses, in
    the documented order: low rows, then `=` for u <= v, then `in`."""
    uni, alg, n = ws.universe, ws.algebra, len(ws.universe)
    out = []

    def add(rel, u, v):
        vba, vpa = (ctx.equality(u, v) if rel == "=" else ctx.membership(u, v)
                    for ctx in (ws.ba, ws.pa))
        if vba != vpa:
            out.append(ws.atomic_counterexample("pa", rel, u, v, alg.elements[vpa],
                                                note=f"ba gives {alg.elements[vba]}"))

    for s in (nid for nid in range(n) if uni.rank_of(nid) < ws.rank_bound):
        for v in range(n):
            add("in", s, v)
            add("=", s, v)
    for u in range(n):
        for v in range(u, n):
            add("=", u, v)
    for u in range(n):
        for v in range(n):
            add("in", u, v)
    return out


class TestCoincidenceExhaustive:
    @pytest.mark.parametrize("name,rank,count", [
        ("ps3", 3, 15228), ("chain4", 2, 2), ("stretch-bool4", 2, 4),
        ("bool2", 3, 0), ("bool4", 2, 0),
    ])
    def test_matches_the_engine_on_every_pair(self, name, rank, count):
        alg, d = builtin(name)
        expected = engine_mismatches(Run(alg, d, rank).workspace())
        got = coincidence_mismatches(Run(alg, d, rank).workspace(), limit=10**9)
        assert got == expected
        assert len(got) == count

    def test_limit_gives_a_prefix(self):
        alg, d = ps3()
        ws = Run(alg, d, 3).workspace()
        full = coincidence_mismatches(ws, limit=10**9)
        for k in (1, 2, 5, 100, 1000, len(full)):
            assert coincidence_mismatches(ws, limit=k) == full[:k]


class TestReplay:
    def test_atomic_counterexample_replays(self):
        alg, d = ps3()
        ws = Run(alg, d, 2).workspace()
        h, t = alg.index["half"], alg.top_i
        u = ws.insert({0: h})
        v = ws.insert({0: t})
        value = ws.ba.atomic("=", u, v)
        ce = ws.atomic_counterexample("ba", "=", u, v, value)
        assert replay(alg, d, 2, ce) == value == "1"
        ce_pa = ws.atomic_counterexample("pa", "=", u, v, ws.pa.atomic("=", u, v))
        assert replay(alg, d, 2, ce_pa) == "0"

    def test_sentence_counterexample_replays(self):
        alg, d = ps3()
        ws = Run(alg, d, 2).workspace()
        w = ws.insert({1: alg.index["half"], 2: alg.top_i})
        sentence = parse(f"exists x. x in #{w}", max_name=len(ws.universe.names))
        value = ws.pa.eval(sentence)
        ce = ws.sentence_counterexample("pa", sentence, value)
        assert replay(alg, d, 2, ce) == value

    def test_replay_covers_inserted_chains(self):
        alg, d = builtin("chain4")
        ws = Run(alg, d, 2).workspace()
        member = ws.insert({0: alg.index["a"]})
        holder = ws.insert({member: alg.top_i})
        ce = ws.atomic_counterexample("pa", "in", member, holder,
                                      ws.pa.atomic("in", member, holder))
        assert replay(alg, d, 2, ce) == ce["value"]

    def test_leibniz_failure_replays(self):
        # The body, called without its gate on a designated set that is no
        # filter, finds a battery formula that tells a pa-equal pair apart.
        # The check reads the value through a handle and prints the
        # substituted sentence; replay evaluates that sentence from scratch.
        alg, _ = builtin("chain4")
        d = frozenset({"1", "a"})
        ce, _ = check_leibniz(Run(alg, d, rank_bound=2))
        assert ce is not None and ce["kind"] == "sentence"
        assert replay(alg, d, 2, ce) == ce["value"]

    def test_zfbar_failure_replays(self, monkeypatch):
        # Every multi-entry witness weighs its last entry bottom, so the first
        # pairing instance over two distinct names fails; replay rebuilds
        # the faulty witnesses from the insertion log.
        alg, d = ps3()
        insert = Workspace.insert

        def faulty(self, entries):
            if len(entries) > 1:
                entries = {**entries, max(entries): alg.bottom_i}
            return insert(self, entries)

        monkeypatch.setattr(Workspace, "insert", faulty)
        result = run_check("zfbar-witnesses", Run(alg, d, rank_bound=2))
        ce = result.counterexample
        assert result.verdict == "fail" and ce["kind"] == "sentence"
        assert ce["note"] == "axiom Pairing" and ce["inserted"]
        assert replay(alg, d, 2, ce) == ce["value"]

    def test_replay_detects_divergence(self):
        alg, d = ps3()
        ws = Run(alg, d, 2).workspace()
        u = ws.insert({0: alg.index["half"]})
        ce = ws.atomic_counterexample("pa", "=", u, u, "1")
        ce["inserted"] = [[999, [[0, "half"]]]]
        with pytest.raises(InputError, match="divergence"):
            replay(alg, d, 2, ce)


def properties_by_triples(run):
    """(verdict, counterexample) of the properties laws asked pair by pair
    and triple by triple of the engine, in the order the check promises."""
    ws = run.workspace()
    ctx, meet = ws.pa, run.algebra.meet_t
    d, n = ctx.designated_i, len(ws.universe)

    def fail(rel, u, v, note):
        return "fail", ws.atomic_counterexample("pa", rel, u, v, ctx.atomic(rel, u, v), note)

    for u in range(n):
        if ctx.equality(u, u) not in d:
            return fail("=", u, u, "reflexivity")
    for u in range(n):
        for x, ux in ws.universe.entries_of(u):
            if ux in d and ctx.membership(x, u) not in d:
                return fail("in", x, u, "designated entry not a member")
    for u in range(n):
        for v in range(n):
            e = ctx.equality(u, v)
            if e not in d:
                continue
            for w in range(n):
                if meet[e][ctx.equality(v, w)] in d and ctx.equality(u, w) not in d:
                    return fail("=", u, w, f"transitivity via #{v}")
                if meet[e][ctx.membership(v, w)] in d and ctx.membership(u, w) not in d:
                    return fail("in", u, w, f"member substitution via #{v}")
                if meet[e][ctx.membership(w, v)] in d and ctx.membership(w, u) not in d:
                    return fail("in", w, u, f"container substitution via #{v}")
    return "pass", None


def characteristic_by_pairs(uni, designated_i, top_i):
    """The entry-matching criterion by its own recursion, pair by pair:
    related(u, v) when every designated entry of either name is matched by
    a designated entry of the other with a related key, and every top entry
    by a top entry."""
    names = uni.names

    def matched(src, dst):
        for x, ux in names[src].entries:
            if ux in designated_i and not any(
                    vy in designated_i and related(x, y) for y, vy in names[dst].entries):
                return False
            if ux == top_i and not any(
                    vy == top_i and related(x, y) for y, vy in names[dst].entries):
                return False
        return True

    @functools.cache
    def related(u, v):
        return matched(u, v) and matched(v, u)
    return related


ENGINE_LAWS = ("reflexivity", "designated entry not a member")


def flip(monkeypatch, clause, a, b):
    """Make the `clause` value ("equality" or "membership") at (a, b) change
    sides of the designated set: bottom when it was designated, else top,
    in the clause and in the rows.  Equality is symmetric, so its flip
    holds at (b, a) too."""
    pairs = {(a, b), (b, a)} if clause == "equality" else {(a, b)}

    def flipped(ctx, value):
        return ctx.algebra.bottom_i if value in ctx.designated_i else ctx.algebra.top_i

    patch_atoms(monkeypatch, "=" if clause == "equality" else "in", flipped,
                lambda u, v: (u, v) in pairs)


def planted_defects(rank):
    """(clause, a, b, law): a flip on ps3 at `rank` that breaks `law`.

    u is the highest top-rank name off the representatives, c the highest
    top-rank representative of another class.  No name's domain holds a
    top-rank name, so no other atomic value reads a flipped one.  `u = c`
    made top puts u in two classes; `u in #0` made top sets u apart from
    its representative as a member, and `c in u` as a container."""
    alg, d = ps3()
    run = Run(alg, d, rank_bound=rank)
    qm, uni = run.quotient, run.workspace().universe
    top = [nid for nid in range(len(uni)) if uni.rank_of(nid) == rank]
    u = max(nid for nid in top if nid not in qm.representatives)
    of = class_of(qm)
    c = max(nid for nid in top if nid in qm.representatives and of[nid] != of[u])
    return [("equality", u, c, "transitivity"),
            ("membership", u, 0, "member substitution"),
            ("membership", c, u, "container substitution")]


class TestFailurePath:
    def test_defective_algebra_fails_law_check_with_witness(self):
        text = """
        elements 0 a 1
        top 1
        bottom 0
        designated 1 a
        """
        rows = []
        order = "0a1"
        for x in order:
            for y in order:
                rows.append(f"meet {x} {y} {min(x, y, key=order.index)}")
                rows.append(f"join {x} {y} {max(x, y, key=order.index)}")
                rows.append(f"imp {x} {y} {'0' if x != '0' and y == '0' else '1'}")
        text += "\n".join(rows) + "\nstar 0 1\nstar a a\nstar 1 0\n"
        text = text.replace("join a 1 1", "join a 1 a")  # break commutativity
        alg, d = loads_algebra(text)
        result = run_check("algebra-laws", Run(alg, d))
        assert result.verdict == "fail"
        assert result.counterexample["kind"] == "law"
        assert result.counterexample["laws"] == ["lattice"]
        assert result.counterexample["witnesses"]["lattice"]
        with pytest.raises(InputError, match="'law'"):
            replay(alg, d, 2, result.counterexample)

    def test_properties_matches_the_triple_loop(self):
        # Every designated set, the body called without its gate.  Both
        # routes ask reflexivity and the designated-entry law first, so
        # there they agree exactly; past them the body reads the partition,
        # which fails whenever the triple loop fails if the designated set
        # is a proper filter, and gives the same verdict under the gate.
        notes = set()
        for algname in BUILTIN_NAMES:
            alg, _ = builtin(algname)
            for r in range(1, len(alg.elements)):
                for des in itertools.combinations(alg.elements, r):
                    run = Run(alg, frozenset(des), rank_bound=2)
                    want = properties_by_triples(run)
                    ce, _ = check_properties(run)
                    got = ("pass" if ce is None else "fail", ce)
                    if want[1] and want[1]["note"] in ENGINE_LAWS:
                        assert got == want, (algname, des)
                    if is_filter(alg, des)[0] and want[0] == "fail":
                        assert got[0] == "fail", (algname, des)
                    if run.meets("ultra_designated_cobounded"):
                        assert got[0] == want[0], (algname, des)
                    if want[1]:
                        notes.add(want[1]["note"].split(" via")[0])
        for rank in (2, 3):
            for clause, a, b, law in planted_defects(rank):
                with pytest.MonkeyPatch.context() as mp:
                    flip(mp, clause, a, b)
                    alg, d = ps3()
                    run = Run(alg, d, rank_bound=rank)
                    assert run.meets("ultra_designated_cobounded")
                    want = properties_by_triples(run)
                    ce, _ = check_properties(run)
                    assert want[0] == "fail" and ce is not None, (rank, law)
                    assert ce["kind"] == "atomic" and ce["note"].startswith(law + " via")
                    assert replay(alg, d, rank, ce) == ce["value"]
                    notes.add(want[1]["note"].split(" via")[0])
        assert notes == {"reflexivity", "transitivity", "member substitution",
                         "container substitution"}

    def test_planted_defect_fails_properties_and_quotient(self, monkeypatch):
        # `u in #0` flipped for a top-rank name u off the representatives:
        # both readers of the partition fail with a replayable atomic pair,
        # and every other check still reports
        clause, a, b, law = planted_defects(2)[1]
        assert (clause, b, law) == ("membership", 0, "member substitution")
        flip(monkeypatch, clause, a, b)
        r = run_cli(["check", "all", "-a", "ps3", "--rank", "2", "--format", "records"])
        assert r.exit_code == 1
        records = {rec["check"]: rec for rec in map(json.loads, r.output.splitlines())}
        assert list(records) == list(CHECKS) and len(records) == 16
        alg, d = ps3()
        for name in ("properties", "quotient"):
            ce = records[name]["counterexample"]
            assert records[name]["verdict"] == "fail"
            assert ce["kind"] == "atomic" and ce["note"].startswith(law)
            assert replay(alg, d, 2, ce) == ce["value"]

    def test_planted_transitivity_defect_fails_leibniz(self, monkeypatch):
        # `u = c` made top on ps3 at rank 3 makes a pair pa-equal that the
        # battery tells apart.  Leibniz reads every pa-equal pair, so it
        # fails with a sentence at one of the two names.
        clause, a, b, law = planted_defects(3)[0]
        assert (clause, law) == ("equality", "transitivity")
        flip(monkeypatch, clause, a, b)
        alg, d = ps3()
        ce, _ = check_leibniz(Run(alg, d, rank_bound=3))
        assert ce is not None and ce["kind"] == "sentence"
        assert f"#{a}" in ce["formula"] or f"#{b}" in ce["formula"]
        assert replay(alg, d, 3, ce) == ce["value"]

    def test_record_lines_report_the_failure(self):
        alg, d = ps3()
        r = CheckResult("demo", "demo check", "fail",
                        counterexample={"kind": "sentence", "formula": "true"})
        assert '"verdict": "fail"' in r.record_line()
        assert any("counterexample" in line for line in r.text_lines())


def forced(name, run):
    """The counterexample of the body of check `name`, called without its
    gates, after checking that it has the kind that `replay` reads and
    replays to its recorded value."""
    ce, _ = CHECKS[name].fn(run)
    assert ce is not None and ce["kind"] in ("sentence", "atomic", "valuation"), ce
    assert replay(run.algebra, run.designated, run.rank_bound, ce) == ce["value"]
    return ce


class TestFailureKinds:
    """Each failure site of the checks below, forced by a bypassed gate or
    a planted defect, gives a counterexample that replays."""

    def test_nff_transfer_mismatch_is_the_source_sentence(self, monkeypatch):
        # a collapse that sends every element to bottom
        monkeypatch.setattr(theorems, "bar_values",
                            lambda src, dst: [dst.bottom_i] * len(src.elements))
        alg, d = builtin("chain4")
        ce = forced("nff-transfer", Run(alg, d, rank_bound=2))
        assert ce["kind"] == "sentence" and ce["assignment"] == "ba"
        assert "collapses to" in ce["note"]

    def test_bounded_quantification_mismatch_is_the_quantified_sentence(self, monkeypatch):
        # the last name given a state of its own, whose domain-indexed
        # sides are all made wrong
        alg, d = ps3()
        indexed, k = evaluate.domain_indexed, len(alg.elements)

        def skewed(ctx, phis):
            states, sides = indexed(ctx, phis)
            last = len(ctx.universe) - 1
            wrong = tuple((side + 1) % k for side in sides[states[last]])
            states[last] = len(sides)
            return states, [*sides, wrong]
        monkeypatch.setattr(evaluate, "domain_indexed", skewed)
        ce = forced("bounded-quantification", Run(alg, d, rank_bound=2))
        assert ce["kind"] == "sentence" and ce["formula"].startswith("forall x. x in #3 ->")
        assert ce["note"].startswith("the domain-indexed meet is")

    def test_coincidence_failures_replay_outside_boolean(self, monkeypatch):
        alg, d = ps3()
        ce = forced("boolean-coincidence", Run(alg, d, rank_bound=2))
        assert ce["kind"] == "atomic" and ce["note"] == "ba gives 1"
        # with the atoms declared equal, the battery tells the assignments apart
        monkeypatch.setattr(theorems, "coincidence_mismatches", lambda ws, limit=1: [])
        ce = forced("boolean-coincidence", Run(alg, d, rank_bound=2))
        assert ce["kind"] == "sentence"

    @pytest.mark.parametrize("designated,rel,law", [
        ("a", "=", "equality-is-identity"), ("1", "in", "membership-covers"),
    ])
    def test_relation_law_is_an_atomic_pair_at_the_representatives(self, designated, rel, law):
        alg, _ = builtin("chain3")
        ce = forced("quotient", Run(alg, frozenset({designated}), rank_bound=2))
        assert ce["kind"] == "atomic" and ce["rel"] == rel and ce["note"].startswith(law)

    def test_distinct_classes_law_is_an_atomic_pair(self, monkeypatch):
        # `=` at the representative of a singleton class made half, which is
        # designated and is its own star
        alg, d = ps3()
        qm = Run(alg, d, rank_bound=2).quotient
        r = next(cls[0] for cls in qm.classes if len(cls) == 1)
        half = alg.index["half"]
        patch_atoms(monkeypatch, "=", lambda _, value: half, lambda u, v: u == v == r)
        ce = forced("quotient", Run(alg, d, rank_bound=2))
        assert (ce["kind"], ce["u"], ce["v"], ce["value"]) == ("atomic", r, r, "half")
        assert ce["note"].startswith("distinct-is-complement")

    def test_no_membership_overlap_is_missing_and_does_not_replay(self, monkeypatch):
        # half memberships read as top, so no class pair is both member and
        # non-member
        alg, d = ps3()
        half = alg.index["half"]
        patch_atoms(monkeypatch, "in", lambda _, value: alg.top_i if value == half else value,
                    lambda u, v: True)
        ce, details = CHECKS["quotient"].fn(Run(alg, d, rank_bound=2))
        assert ce["kind"] == "missing" and details["membership_overlap"] == []
        with pytest.raises(InputError, match="'missing'"):
            replay(alg, d, 2, ce)

    def test_connective_clause_is_a_sentence_at_the_representatives(self, monkeypatch):
        # a quotient satisfaction that negates every implication
        sat = quotient.satisfaction

        def flipped(qm, f):
            holds = sat(qm, f)
            return (lambda *classes: not holds(*classes)) if isinstance(f, Imp) else holds
        monkeypatch.setattr(theorems, "satisfaction", flipped)
        alg, d = ps3()
        ce = forced("quotient", Run(alg, d, rank_bound=2))
        assert ce["kind"] == "sentence" and ce["formula"] == "#0 in #0 -> #0 in #0"
        assert ce["note"] == "implication clause at classes [0, 0]"

    def test_broken_explosion_witness_is_a_valuation(self, monkeypatch):
        # bool4 with two designated elements, declared designated cobounded:
        # p1 /\ ~p1 is bottom, so explosion holds at the guaranteed valuation
        alg, _ = builtin("bool4")
        run = Run(alg, frozenset({"1", "p1"}), rank_bound=2)
        monkeypatch.setitem(run.profile, "designated_cobounded", True)
        ce = forced("prop-paraconsistency", run)
        assert ce["kind"] == "valuation" and ce["valuation"] == {"p": "p1", "q": "0"}
        assert ce["value"] == "1"

    @pytest.mark.parametrize("designated,formula,valuation", [
        (("1",), "p \\/ ~p", {"p": "a"}),  # valid on the core only
        (("0", "a"), "p", {"p": "0"}),      # the core's falsifier pulls back designated
    ])
    def test_agreement_failures_are_valuations(self, designated, formula, valuation):
        alg, _ = builtin("chain3")
        ce = forced("prop-agreement", Run(alg, frozenset(designated), rank_bound=2))
        assert ce["kind"] == "valuation"
        assert (ce["formula"], ce["valuation"]) == (formula, valuation)


def criterion_universes():
    """(algebra, designated set, universe): every builtin at rank 2 under
    each of its designated sets, ps3 and chain3 at rank 3, and rank-2
    universes grown by witness names."""
    for name in BUILTIN_NAMES:
        alg, _ = builtin(name)
        uni = Run(alg, alg.elements, 2).workspace().universe
        for r in range(1, len(alg.elements) + 1):
            for des in itertools.combinations(alg.elements, r):
                yield alg, frozenset(des), uni
    for name in ("ps3", "chain3"):
        alg, d = builtin(name)
        yield alg, d, Run(alg, d, 3).workspace().universe
    for name in ("ps3", "chain4"):
        alg, d = builtin(name)
        ws = Run(alg, d, 2).workspace()
        nums = ws.numerals(3)
        for a in range(len(alg.elements)):
            for b in range(len(alg.elements)):
                ws.insert({nums[1]: a, nums[2]: b})
                ws.insert({0: a, nums[3]: b})
        yield alg, d, ws.universe


class TestEqualityCriterion:
    def test_partition_matches_the_pairwise_recursion(self):
        for alg, d, uni in criterion_universes():
            d_i = frozenset(alg.index[x] for x in d)
            classes = theorems.entry_classes(uni, d_i, alg.top_i)
            related = characteristic_by_pairs(uni, d_i, alg.top_i)
            for u in uni.ids():
                for v in uni.ids():
                    assert (classes[u] == classes[v]) == related(u, v), (alg.name, d, u, v)

    def test_a_key_without_the_top_entries_fails_with_a_replayable_pair(self, monkeypatch):
        # {#0: half} and {#0: 1} have the same designated entries, but pa
        # equality tells them apart
        def designated_only(universe, designated_i, top_i):
            ids, out = {}, []
            for name in universe.names:
                key = frozenset(out[x] for x, a in name.entries if a in designated_i)
                out.append(ids.setdefault(key, len(ids)))
            return out
        monkeypatch.setattr(theorems, "entry_classes", designated_only)
        alg, d = ps3()
        ce = forced("equality-characterization", Run(alg, d, rank_bound=2))
        assert (ce["kind"], ce["rel"], ce["value"]) == ("atomic", "=", "0")
        assert ce["note"] == "criterion says True"


class TestCompileOnce:
    """Checks that evaluate one formula over many names compile it once
    per loop, not once per evaluation."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The formulas compiled at top level, one entry per compile."""
        from algval.evaluate import EvalContext

        out: list = []
        depth = [0]
        compile_ = EvalContext._compile

        def counted(self, f, scope, slots):
            if not depth[0]:
                out.append((self.assignment, f))
            depth[0] += 1
            try:
                return compile_(self, f, scope, slots)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(EvalContext, "_compile", counted)
        return out

    def test_quotient_compiles_each_formula_once(self, compiled):
        alg, d = ps3()
        assert run_check("quotient", Run(alg, d, rank_bound=2)).verdict == "pass"
        assert len(compiled) == len(set(compiled)) <= 39

    @pytest.mark.parametrize("name", ["leibniz", "bounded-quantification"])
    def test_battery_checks_compile_twice_per_formula_at_most(self, compiled, name):
        alg, d = ps3()
        run = Run(alg, d, rank_bound=2)
        assert run_check(name, run).verdict == "pass"
        assert 0 < len(compiled) <= 2 * len(ONE_VARIABLE.read(first_names(run.workspace()))[0])


class TestRegistry:
    def test_unknown_check_rejected(self):
        alg, d = ps3()
        with pytest.raises(InputError, match="unknown check"):
            run_check("mystery", Run(alg, d))
        with pytest.raises(InputError, match="unknown check"):
            run_all(alg, d, names=["mystery"])

    def test_selection_preserves_registry_order(self):
        alg, d = ps3()
        results = run_all(alg, d, names=["drim", "cobounded"], rank_bound=2)
        assert [r.name for r in results] == ["drim", "cobounded"]

    def test_every_check_has_help_text(self):
        for check in CHECKS.values():
            assert check.help
            assert callable(check.fn)

    def test_run_sets_four_fields(self):
        assert list(inspect.signature(Run).parameters) == [
            "algebra", "designated", "rank_bound", "budget"]
        with pytest.raises(TypeError):
            Run(*ps3(), _profile={"ultra_designated_cobounded": True})

    def test_every_check_takes_one_run(self):
        for name, check in CHECKS.items():
            assert list(inspect.signature(check.fn).parameters) == ["run"], name

    def test_profile_computed_once_per_run(self, monkeypatch):
        calls = []

        def counted(algebra, designated):
            calls.append(algebra.name)
            return profile(algebra, designated)

        monkeypatch.setattr(theorems, "profile", counted)
        alg, d = ps3()
        run_all(alg, d, rank_bound=2, seed=0)
        assert calls == [alg.name]

    def test_partition_built_once_per_run(self, monkeypatch):
        calls = []
        build = theorems.build_quotient

        def counted(ctx):
            calls.append(len(ctx.universe))
            return build(ctx)

        monkeypatch.setattr(theorems, "build_quotient", counted)
        alg, d = ps3()
        run_all(alg, d, rank_bound=2, seed=0)
        assert calls == [4]
        calls.clear()
        run_all(alg, d, rank_bound=3, names=["properties", "quotient"])
        assert calls == [256]

    def test_jobs_other_than_one_rejected(self):
        alg, d = ps3()
        with pytest.raises(InputError, match="jobs"):
            run_all(alg, d, names=["drim"], jobs=2)


class TestRobustness:
    def test_engine_properties_on_random_chain_universes(self):
        # Seeded randomized sweep: over random chains, random ad-hoc names
        # and both assignments, the structural laws must keep holding.
        import random

        from algval.evaluate import EvalContext
        from algval.universe import build_universe

        rng = random.Random(1234)
        for _ in range(6):
            k = rng.randint(2, 6)
            alg, d = builtin(f"chain{k}") if k >= 3 else builtin("bool2")
            uni = build_universe(alg, 2)
            for _ in range(5):
                size = rng.randint(0, min(3, len(uni.names)))
                children = rng.sample(range(len(uni.names)), size)
                uni.insert({c: rng.randrange(len(alg.elements)) for c in children})
            ba = EvalContext(uni, d, "ba")
            pa = EvalContext(uni, d, "pa")
            dsg = pa.designated_i
            two = (alg.top_i, alg.bottom_i)
            n = len(uni.names)
            for u in range(n):
                assert pa.equality(u, u) in dsg
                assert ba.equality(u, u) in dsg
                for v in range(n):
                    assert pa.equality(u, v) in two
                    if pa.equality(u, v) in dsg:
                        assert ba.equality(u, v) in dsg

    def test_all_builtins_run_clean_at_rank_2(self):
        for name in ("ps3", "bool2", "bool4", "chain3", "chain5", "chain8",
                     "stretch-bool4"):
            alg, d = builtin(name)
            results = run_all(alg, d, rank_bound=2, seed=1)
            failed = [r.name for r in results if r.verdict == "fail"]
            assert not failed, f"{name}: {failed}"


class TestBarCollisions:
    def test_colliding_domain_weights_join(self):
        # Two chain names with different intermediate weights collapse onto
        # the same image; the image weight must be their join and the
        # atomic transfer equations must survive the merge.
        from algval.algebra import collapse_f, ps3 as mk_ps3
        from algval.theorems import bar_formula, bar_name, bar_values
        from algval.evaluate import EvalContext
        from algval.universe import build_universe

        alg, d = builtin("chain4")
        core, core_d = mk_ps3()
        src = build_universe(alg, 2)
        dst = build_universe(core, 2)
        sa, sb = src.insert({0: alg.index["a"]}), src.insert({0: alg.index["b"]})
        u = src.insert({sa: alg.index["1"], sb: alg.index["a"]})
        vmap = bar_values(alg, core)
        memo = {}
        image = bar_name(src, dst, vmap, u, memo)
        entries = dict(dst.entries_of(image))
        assert len(entries) == 1  # the two children merged
        merged_weight = core.elements[next(iter(entries.values()))]
        assert merged_weight == "1"  # join of 1 and half
        src_ba = EvalContext(src, d, "ba")
        dst_ba = EvalContext(dst, core_d, "ba")
        for w in range(len(src.names)):
            w_img = bar_name(src, dst, vmap, w, memo)
            for rel in ("=", "in"):
                collapsed = collapse_f(alg, src_ba.atomic(rel, w, u))
                assert collapsed == dst_ba.atomic(rel, w_img, image)


class TestBudgetDegradation:
    def test_over_budget_checks_skip_instead_of_erroring(self):
        alg, d = ps3()
        r = run_check("two-valued", Run(alg, d, rank_bound=4))
        assert r.verdict == "skipped"
        assert "budget exceeded" in r.skip_reason
        results = run_all(alg, d, rank_bound=4, names=["two-valued", "leibniz"])
        assert all(x.verdict == "skipped" for x in results)

    def test_running_out_of_memory_is_a_skip(self, monkeypatch):
        # a body that runs out of memory, planted rather than provoked
        def exhausted(run):
            raise MemoryError

        monkeypatch.setitem(CHECKS, "two-valued", CHECKS["two-valued"]._replace(fn=exhausted))
        result = run_check("two-valued", Run(*ps3()))
        assert result.verdict == "skipped"
        assert result.skip_reason.startswith("out of memory")
        r = run_cli(["check", "two-valued", "-a", "ps3"])
        assert r.exit_code == 0 and "[SKIP] two-valued" in r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("algname", BUILTIN_NAMES)
    def test_budget_skips_carry_the_check_description(self, algname):
        # At rank 2 enumeration needs more candidate names than a zero
        # budget allows, so each check that builds a workspace skips for
        # the budget, under the description of its golden record.
        golden = Path(__file__).parent / "golden" / f"rank2-{algname}.records"
        want = {rec["check"]: rec["description"]
                for rec in map(json.loads, golden.read_text(encoding="utf-8").splitlines())}
        alg, d = builtin(algname)
        run = Run(alg, d, rank_bound=2, budget=0)
        results = [run_check(name, run) for name in CHECKS]
        assert {r.name: r.description for r in results} == want
        assert any(r.skip_reason.startswith("budget exceeded")
                   for r in results if r.verdict == "skipped")


def _is_stored(memo, rel: int, u: int, v: int) -> bool:
    """Whether an atomic store holds (rel, u, v): eq[max][min] for rel 0,
    mem[v][u] for rel 1."""
    if rel == 0:
        u, v = min(u, v), max(u, v)
    row = memo[rel].get(v, ())
    return u < len(row) and row[u] != (1 << 8 * row.itemsize) - 1


def _atomic_table(ws: Workspace, assignments=("ba", "pa")) -> dict:
    """Every atomic value of the workspace's universe."""
    n = len(ws.universe)
    return {(a, rel, u, v): ws.ctx(a).atomic(rel, u, v)
            for a in assignments for rel in ("=", "in")
            for u in range(n) for v in range(n)}


class TestSharedUniverse:
    """A run enumerates its one rank once and its workspaces share its
    class tables; each context fills a store of its own, so witness ids
    never share an entry.  Another rank is another run."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_each_check_alone_matches_run_all(self, name):
        alg, d = builtin(name)
        together = [r.record_line() for r in run_all(alg, d, rank_bound=2, seed=5)]
        alone = [run_all(alg, d, rank_bound=2, seed=5, names=[check])[0].record_line()
                 for check in CHECKS]
        assert alone == together

    def test_two_live_workspaces_keep_their_own_witnesses(self):
        alg, d = ps3()
        half, top = alg.index["half"], alg.top_i
        a_entries = {1: top, 2: half}
        b_entries = {1: half, 3: top}
        expected = {}
        for label, entries in (("a", a_entries), ("b", b_entries)):
            scratch = Run(alg, d, 2).workspace()
            scratch.insert(entries)
            expected[label] = _atomic_table(scratch)
        run = Run(alg, d, rank_bound=2)
        ws_a, ws_b = run.workspace(), run.workspace()
        # a fills its pa store with its witness, then b interns another name
        # under the same id while a is still alive; a opens its ba context
        # only after that
        assert ws_a.insert(a_entries) == ws_a.enumerated
        pa_only = _atomic_table(ws_a, ("pa",))
        assert pa_only.items() <= expected["a"].items()
        assert ws_b.insert(b_entries) == ws_a.enumerated
        assert _atomic_table(ws_b) == expected["b"]
        assert _atomic_table(ws_a) == expected["a"]
        assert expected["a"] != expected["b"]

    def test_a_held_handle_reads_its_own_workspace(self):
        # A handle compiled before its workspace grows must read the values
        # of its own witness, when another workspace's witness takes the
        # same id.
        alg, d = ps3()
        top = alg.top_i
        x, y = Var("x"), Var("y")
        run = Run(alg, d, rank_bound=2)
        ws1 = run.workspace()
        h = ws1.pa.sentence(Eq(x, y), ("x", "y"))
        assert ws1.insert({3: top}) == 4
        ws2 = run.workspace()
        assert ws2.insert({2: top}) == 4
        others = [ws2.pa.equality(4, v) for v in range(4)]  # fills #4 = {#2}
        mine = [ws1.pa.value(Eq(x, y), {"x": 4, "y": v}) for v in range(4)]
        assert [h(4, v) for v in range(4)] == mine
        assert mine != others

    def test_run_all_enumerates_each_rank_once(self, monkeypatch):
        calls = []
        build = theorems.build_universe

        def counted(algebra, rank_bound, **kwargs):
            calls.append((algebra, rank_bound))
            return build(algebra, rank_bound, **kwargs)

        monkeypatch.setattr(theorems, "build_universe", counted)
        for name, rank, ranks in (("ps3", 2, [2]), ("bool4", 3, [3, 2])):
            alg, d = builtin(name)
            calls.clear()
            run_all(alg, d, rank_bound=rank, seed=0)
            # nff-transfer's target universe belongs to another algebra
            assert [r for a, r in calls if a is alg] == ranks

    def test_each_enumerated_atom_filled_once_per_assignment(self, monkeypatch):
        from collections import Counter

        from algval.evaluate import EvalContext

        fills: Counter = Counter()
        contexts = tracked_contexts(monkeypatch)
        for rel, clause_name in ((0, "equality"), (1, "membership")):
            clause = getattr(EvalContext, clause_name)

            def logged(self, u, v, clause=clause, rel=rel):
                if not _is_stored(self._memo, rel, u, v):
                    a, b = (v, u) if rel == 0 and u > v else (u, v)
                    fills[self, rel, a, b] += 1
                return clause(self, u, v)

            monkeypatch.setattr(EvalContext, clause_name, logged)
        alg, d = ps3()
        run_all(alg, d, rank_bound=2, seed=0)
        n = len(Run(alg, d, 2).workspace().universe)
        mine = {k: c for k, c in fills.items() if k[0].algebra is alg}
        enumerated = {(ctx.assignment, rel, u, v) for ctx, rel, u, v in mine if u < n and v < n}
        assert len(enumerated) > 2 * n * n  # both assignments, both relations
        # at most once per context: each store keeps what its clauses compute
        assert max(mine.values()) == 1
        # the counter counts exactly the values computed into the stores
        assert sum(c.atomic_fills for c in contexts if c.algebra is alg) == sum(mine.values())


def _live_contexts(monkeypatch, run: Run, check: str) -> tuple[CheckResult, list]:
    """Run one check and return its result with the contexts made during
    it that are still alive after a collection, other than the one that
    `Run.quotient` keeps."""
    refs = []
    init = EvalContext.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(EvalContext, "__init__", tracked)
    result = run_check(check, run)
    gc.collect()
    quotient = run.__dict__.get("quotient")
    kept = quotient.context if quotient is not None else None
    return result, [ctx for ctx in (ref() for ref in refs) if ctx is not None and ctx is not kept]


class TestMemory:
    @pytest.mark.parametrize("check", list(CHECKS))
    def test_a_check_keeps_no_context_alive(self, check, monkeypatch):
        # a check's stores, rows and witnesses go with its contexts, so
        # nothing it filled outlives it but the run's quotient
        result, live = _live_contexts(monkeypatch, Run(*ps3(), rank_bound=3), check)
        assert result.verdict != "skipped" or check == "boolean-coincidence"
        assert live == []

    def test_a_check_out_of_memory_keeps_no_context_alive(self, monkeypatch):
        def exhausted(run):
            ws = run.workspace()
            ws.insert({0: run.algebra.top_i, 1: run.algebra.top_i})
            for ctx in (ws.ba, ws.pa):
                ctx.value(parse("forall x. exists y. (x = x /\\ y in x)"))
            raise MemoryError

        monkeypatch.setitem(CHECKS, "two-valued", CHECKS["two-valued"]._replace(fn=exhausted))
        result, live = _live_contexts(monkeypatch, Run(*ps3(), rank_bound=3), "two-valued")
        assert result.skip_reason.startswith("out of memory")
        assert live == []

    def test_paraconsistency_on_ps3_rank3_traced_peak(self):
        # Traced peak of paraconsistency on ps3 at rank 3 (Python 3.11): about
        # 11.1 MB with the atomic memo as a dict keyed by one int per atom,
        # 0.65 MB with byte rows per name.  The bound lies midway.
        import tracemalloc

        alg, d = ps3()
        tracemalloc.start()
        try:
            result = run_check("paraconsistency", Run(alg, d, rank_bound=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "pass"
        assert peak < 5.9e6


# -- the pair checks by class against their every-pair references ------------------------


def two_valued_by_pairs(run):
    """`two-valued` asked of the engine pair by pair, u <= v in id order."""
    ws, alg = run.workspace(), run.algebra
    ctx, n = ws.pa, len(ws.universe)
    for u in range(n):
        for v in range(u, n):
            val = ctx.equality(u, v)
            if val not in (alg.top_i, alg.bottom_i):
                return ws.atomic_counterexample("pa", "=", u, v, alg.elements[val]), {}
    return None, {"names": n, "pairs": n * (n + 1) // 2}


def characterization_by_pairs(run):
    """`equality-characterization` asked of the engine pair by pair."""
    ws = run.workspace()
    ctx, n = ws.pa, len(ws.universe)
    d_i = ctx.designated_i
    classes = theorems.entry_classes(ws.universe, d_i, run.algebra.top_i)
    for u in range(n):
        for v in range(u, n):
            combinatorial = classes[u] == classes[v]
            if (ctx.equality(u, v) in d_i) != combinatorial:
                return ws.atomic_counterexample("pa", "=", u, v, ctx.atomic("=", u, v),
                                                note=f"criterion says {combinatorial}"), {}
    return None, {"pairs": n * (n + 1) // 2}


def leibniz_by_pairs(run):
    """`leibniz` with every formula evaluated at every name and every
    ordered pair of names asked of the engine."""
    alg, prof = run.algebra, run.profile
    ws = run.workspace()
    pa, n = ws.pa, len(ws.universe)
    d = pa.designated_i
    forms, declared = ONE_VARIABLE.read(first_names(ws))

    def value_class(val):
        return "top" if val == alg.top_i else "bottom" if val == alg.bottom_i else "mid"

    rows = list(zip(*[[at(u) for u in range(n)] for at in
                      [pa.sentence(phi, ("x",)) for _, phi in forms]]))
    equal_pairs = 0
    for u in range(n):
        for v in range(n):
            if u == v or pa.equality(u, v) not in d:
                continue
            equal_pairs += 1
            for (label, phi), val_u, val_v in zip(forms, rows[u], rows[v]):
                if val_u in d and val_v not in d:
                    note = f"{label}: valid at #{u} but not at pa-equal #{v}"
                elif value_class(val_u) != value_class(val_v):
                    note = f"{label}: value class changed across a pa-equal pair"
                else:
                    continue
                return ws.sentence_counterexample("pa", theorems.subst_const(phi, "x", v),
                                                  alg.elements[val_v], note=note), {}
    details = {"pa_equal_pairs": equal_pairs, "battery": declared}
    if prof["big_designated"] and prof["has_intermediate"]:
        ba = ws.ba
        negated = [(label, ba.sentence(phi, ("x",))) for label, phi in forms
                   if not theorems.is_negation_free(phi)]
        for u in range(n):
            for v in range(n):
                if u == v or ba.equality(u, v) not in d:
                    continue
                for label, at in negated:
                    vu, vv = at(u), at(v)
                    if vu in d and vv not in d:
                        details["ba_violation"] = {
                            "formula": label, "u": ws.universe.pretty(u),
                            "v": ws.universe.pretty(v), "value_u": alg.elements[vu],
                            "value_v": alg.elements[vv]}
                        return None, details
        return theorems.missing_counterexample(
            "no negated battery formula broke ba indiscernibility"), details
    return None, details


def quotient_by_names(ctx):
    """`build_quotient` asking the clauses at every pair of names: the
    partition of the first pass and the verdicts of the second, name by
    name, as a tuple of its fields, or the `QuotientDefect` it raises."""
    alg, n = ctx.algebra, len(ctx.universe)
    top, two = alg.top_i, {alg.top_i, alg.bottom_i}
    d, star = ctx.designated_i, alg.star_t
    code = [(e in d) + 2 * (star[e] in d) for e in range(len(alg.elements))]
    classes, class_of = [], {}
    for u in range(n):
        row = [ctx.equality(u, z) for z in range(n)]
        if not two.issuperset(row[u + 1:]):
            v = next(v for v in range(u + 1, n) if row[v] not in two)
            return QuotientDefect("=", u, v, "not two-valued")
        if u not in class_of:
            cls = [u] + [v for v in range(u + 1, n) if row[v] == top and v not in class_of]
            for v in cls:
                class_of[v] = len(classes)
            classes.append(cls)
    reps = [cls[0] for cls in classes]

    def verdicts(u):
        return [code[ctx.equality(u, z)] + 4 * code[ctx.membership(u, z)] for z in range(n)]

    rep_of = [reps[class_of[v]] for v in range(n)]
    at_reps = []
    for cls in classes:
        base = verdicts(cls[0])
        at_reps.append([base[r] for r in reps])
        for u in cls:
            row = verdicts(u)
            for pos, other in enumerate((base, [row[r] for r in rep_of])):
                if row != other:
                    v = next(v for v in range(n) if row[v] != other[v])
                    moved = (rep_of[u], v) if pos == 0 else (u, rep_of[v])
                    bit = (row[v] ^ other[v]) & -(row[v] ^ other[v])
                    good, bad = ((u, v), moved) if row[v] & bit else (moved, (u, v))
                    rel, law = ("=", "transitivity") if bit < 4 else (
                        "in", ("member substitution", "container substitution")[pos])
                    negation = " of the negation" if bit in (2, 8) else ""
                    return QuotientDefect(rel, *bad, f"{law}{negation} via #{good[pos]}")
    relations = [{(i, j) for i in range(len(reps)) for j in range(len(reps))
                  if at_reps[i][j] & bit} for bit in (1, 2, 4, 8)]
    return classes, class_of, reps, *relations


def quotient_by_class(ctx, names=None):
    """`build_quotient`, or its pass over the partition `names`, in the
    form `quotient_by_names` gives."""
    try:
        qm = build_quotient(ctx) if names is None else quotient._quotient(ctx, names)
    except QuotientDefect as defect:
        return defect
    return qm.classes, class_of(qm), qm.representatives, qm.r_eq, qm.r_neq, qm.r_mem, qm.r_nmem


def quotient_by_single_names(ctx):
    """The pass of `build_quotient` over every name alone, which a clean
    universe never reaches."""
    return quotient_by_class(ctx, NameClasses.singletons(len(ctx.universe)))


def same_outcome(a, b):
    """Equal quotient outcomes; a defect compares by its law and pair."""
    if isinstance(a, QuotientDefect) or isinstance(b, QuotientDefect):
        return type(a) is type(b) and (a.rel, a.u, a.v, a.note) == (b.rel, b.u, b.v, b.note)
    return a == b


def properties_by_names(run):
    """`properties` with reflexivity asked name by name and the partition
    read name by name."""
    ws = run.workspace()
    ctx, n = ws.pa, len(ws.universe)
    d = ctx.designated_i

    def fail(rel, u, v, note):
        return ws.atomic_counterexample("pa", rel, u, v, ctx.atomic(rel, u, v), note), {}

    for u in range(n):
        if ctx.equality(u, u) not in d:
            return fail("=", u, u, "reflexivity")
    for u in range(n):
        for x, ux in ws.universe.entries_of(u):
            if ux in d and ctx.membership(x, u) not in d:
                return fail("in", x, u, "designated entry not a member")
    found = quotient_by_names(ctx)
    if isinstance(found, QuotientDefect):
        return fail(found.rel, found.u, found.v, found.note)
    return None, {"names": n}


PAIR_ROUTES = [("two-valued", two_valued_by_pairs),
               ("equality-characterization", characterization_by_pairs),
               ("leibniz", leibniz_by_pairs), ("properties", properties_by_names)]


def plant_cell(run, rel, name, value):
    """Set one cell of the run's pa tables at the class of the last name:
    rel names the column the cell was read against, as the cells of
    names were, so 'in' sets `#name = #last`, the meet of the two halves
    (both ways round, for the table is symmetric), and '=' sets
    `#name in #last`.  Every name of the two classes reads the planted
    value.  The cell must change."""
    tables = run.workspace().pa._columns
    a, b = tables.of[name], tables.of[-1]
    table = tables.eq if rel == "in" else tables.mem
    assert table[b][a] != value
    table[b][a] = value
    if rel == "in":
        table[a][b] = value


# (rel, name, value) of `plant_cell` on ps3 at rank 3
PLANTS = [("in", 255, "half"),  # `#255 = #255` made half
          ("in", 255, "0"),     # `#255 = #255` made bottom
          ("=", 4, "1"),        # `#4 in #255` made top
          ("=", 0, "half")]     # `#0 in #255` made half


class TestClassRoutes:
    @pytest.mark.parametrize("name, rank", [("ps3", 3), ("chain3", 3), ("ps3", 2),
                                            ("chain4", 2), ("stretch-bool4", 2)])
    def test_pair_checks_match_every_pair(self, name, rank):
        alg, d = builtin(name)
        for check, reference in PAIR_ROUTES:
            assert CHECKS[check].fn(Run(alg, d, rank)) == reference(Run(alg, d, rank)), check
        run = Run(alg, d, rank)
        classes = run.workspace().pa.name_classes()
        assert (len(classes.reps) < len(classes.of)) == (rank > 2)

    @pytest.mark.parametrize("name, rank", [("ps3", 3), ("chain3", 3), ("bool2", 3),
                                            ("ps3", 2), ("chain5", 2)])
    def test_quotient_matches_the_pass_by_names(self, name, rank):
        alg, d = builtin(name)
        by_class = quotient_by_class(Run(alg, d, rank).workspace().pa)
        assert same_outcome(by_class, quotient_by_names(Run(alg, d, rank).workspace().pa))

    @pytest.mark.parametrize("name, rank", [(name, 2) for name in BUILTIN_NAMES]
                             + [("ps3", 3), ("chain3", 3)])
    def test_the_pass_over_single_names_matches_the_pass_by_names(self, name, rank):
        alg, d = builtin(name)
        by_names = quotient_by_names(Run(alg, d, rank).workspace().pa)
        assert same_outcome(quotient_by_single_names(Run(alg, d, rank).workspace().pa), by_names)

    @pytest.mark.parametrize("rel, name, value", [("in", 255, "a"),  # `#255 = #255` is a
                                                  ("=", 0, "a")])     # `#0 in #255` is a
    def test_a_defect_the_classes_hand_to_the_single_names(self, rel, name, value):
        alg, d = builtin("chain3")

        def planted():
            run = Run(alg, d, 3)
            plant_cell(run, rel, name, alg.index[value])
            return run.workspace().pa

        ctx = planted()
        classes = ctx.name_classes()
        assert len(classes.reps) < len(classes.of)
        assert quotient._quotient(ctx, classes) is None
        found = quotient_by_class(ctx)
        assert isinstance(found, QuotientDefect)
        assert same_outcome(found, quotient_by_names(planted()))

    def test_single_names_break_first_in_quotient_class_order(self, monkeypatch):
        # two memberships in #0 flipped: the name in quotient class 0 comes
        # last in id order, but the second pass reaches its class first
        alg, d = ps3()
        qm = build_quotient(Run(alg, d, 3).workspace().pa)
        early = min(u for cls in qm.classes[1:] for u in cls[1:])
        late = qm.classes[0][-1]
        assert early < late
        patch_atoms(monkeypatch, "in",
                    lambda ctx, value: alg.bottom_i if value in ctx.designated_i else alg.top_i,
                    lambda u, v: v == 0 and u in (early, late))
        found = quotient_by_class(Run(alg, d, 3).workspace().pa)
        assert isinstance(found, QuotientDefect) and found.note.endswith(f"via #{late}")
        assert same_outcome(found, quotient_by_names(Run(alg, d, 3).workspace().pa))

    def test_single_names_see_a_break_at_the_next_name(self, monkeypatch):
        alg, d = ps3()
        patch_atoms(monkeypatch, "=", lambda ctx, value: alg.index["half"],
                    lambda u, v: {u, v} == {40, 41})
        found = quotient_by_class(Run(alg, d, 3).workspace().pa)
        assert (found.rel, found.u, found.v, found.note) == ("=", 40, 41, "not two-valued")
        assert same_outcome(found, quotient_by_names(Run(alg, d, 3).workspace().pa))

    def test_classes_hand_over_a_class_the_pass_by_names_splits(self, monkeypatch):
        # every pair of one class of names made unequal, a class that is a
        # quotient class of its own: its rows still agree with the classes,
        # but the pass by names puts each of its names apart
        alg, d = ps3()
        ctx = Run(alg, d, 3).workspace().pa
        classes, qm = ctx.name_classes(), build_quotient(ctx)
        a = next(classes.of[cls[0]] for cls in qm.classes
                 if 1 < len(cls) == classes.sizes[classes.of[cls[0]]])
        patch_atoms(monkeypatch, "=", lambda ctx, value: alg.bottom_i,
                    lambda u, v: classes.of[u] == classes.of[v] == a)
        ctx = Run(alg, d, 3).workspace().pa
        assert quotient._quotient(ctx, classes) is None
        assert same_outcome(quotient_by_class(ctx),
                            quotient_by_names(Run(alg, d, 3).workspace().pa))

    def test_quotient_export_is_unchanged(self):
        alg, d = ps3()
        got = quotient.export_relations(build_quotient(Run(alg, d, 3).workspace().pa))
        classes, _, _, *relations = quotient_by_names(Run(alg, d, 3).workspace().pa)
        want = [f"class [{i}] = " + " ".join(f"#{u}" for u in cls)
                for i, cls in enumerate(classes)]
        for tag, rel in zip(("eq", "neq", "mem", "nmem"), relations):
            want += [f"{tag} [{i}] [{j}]" for i, j in sorted(rel)]
        assert got == "\n".join(want) + "\n"

    @pytest.mark.parametrize("rel, name, value", PLANTS)
    def test_a_planted_cell_fails_where_the_reference_does(self, rel, name, value):
        # every name of the last name's class reads the planted cell alike,
        # so the classes stay as they were, and the routes by classes fail
        # as the routes by names do
        alg, d = ps3()

        def planted():
            run = Run(alg, d, 3)
            plant_cell(run, rel, name, alg.index[value])
            return run

        for check, reference in PAIR_ROUTES:
            assert CHECKS[check].fn(planted()) == reference(planted()), check
        ctx = planted().workspace().pa
        by_names = quotient_by_names(planted().workspace().pa)
        assert same_outcome(quotient_by_class(ctx), by_names)
        assert same_outcome(quotient_by_single_names(planted().workspace().pa), by_names)
        classes = ctx.name_classes()
        assert list(classes.of) == list(Run(alg, d, 3).workspace().pa.name_classes().of)
        assert classes.sizes[classes.of[255]] > 1

    def test_planted_cells_fail_every_pair_check(self):
        alg, d = ps3()
        failed = set()
        for rel, name, value in PLANTS:
            for check, _ in PAIR_ROUTES:
                run = Run(alg, d, 3)
                plant_cell(run, rel, name, alg.index[value])
                if CHECKS[check].fn(run)[0] is not None:
                    failed.add(check)
        assert failed == {check for check, _ in PAIR_ROUTES}

    def test_two_names_of_one_membership_class_with_different_halves_stay_apart(self):
        # an implication table with no laws, under ba: {#1: 1} and
        # {#1: half} have one membership column but different halves
        base, d = ps3()
        es = base.elements
        imp = {("0", "0"): "1", ("0", "1"): "0", ("0", "half"): "0", ("1", "0"): "0",
               ("1", "1"): "0", ("1", "half"): "half", ("half", "0"): "0",
               ("half", "1"): "half", ("half", "half"): "0"}
        alg = Algebra("imp-skew", es, {(a, b): base.meet(a, b) for a in es for b in es},
                      {(a, b): base.join(a, b) for a in es for b in es}, imp, "1", "0",
                      {a: base.star(a) for a in es})
        # the low names, and every name of one entry
        uni = Universe(alg, 3)
        for a in range(len(es)):
            uni.insert({0: a})
        for x, a in itertools.product(range(len(uni)), range(len(es))):
            uni.insert({x: a})
        u, v = uni.insert({1: alg.top_i}), uni.insert({1: alg.index["half"]})  # both interned
        ctx = EvalContext(uni, d, "ba")
        tables = ctx._columns
        assert tables.n == len(uni)
        a, b, low = tables.of[u], tables.of[v], tables.low  # the low names lead each row
        assert tables.mem[a][:low] == tables.mem[b][:low] and tables.halves[a] != tables.halves[b]
        classes = ctx.name_classes()
        assert classes.of[u] != classes.of[v]
        assert_clauses_match_reference(ctx)

    def test_classes_of_a_grown_universe_are_single_names(self):
        alg, d = ps3()
        ws = Run(alg, d, 3).workspace()
        assert len(ws.pa.name_classes().reps) == 31
        ws.insert({0: alg.top_i, 5: alg.top_i})
        classes = ws.pa.name_classes()
        assert list(classes.of) == list(classes.reps) == list(range(len(ws.universe)))

    def test_boolean_coincidence_builds_each_table_once(self, monkeypatch):
        # one build per assignment, when its first context is made
        alg, d = builtin("bool4")
        built, build = [], ColumnClasses.build
        monkeypatch.setattr(ColumnClasses, "build",
                            lambda self, ctx: built.append(ctx.assignment) or build(self, ctx))
        run = Run(alg, d, 3)
        assert run_check("boolean-coincidence", run).verdict == "pass"
        assert sorted(built) == ["ba", "pa"]

    def test_both_tables_read_the_prefix_arrays_of_the_run_universe(self):
        alg, d = ps3()
        run = Run(alg, d, 3)
        columns = run.columns
        assert columns["pa"].universe is columns["ba"].universe is run.universe
        for tables in columns.values():
            assert not hasattr(tables, "prefix") and not hasattr(tables, "last_entry")


def zfbar_witnesses(ws):
    """One witness of each kind that zfbar builds, over the last top-rank
    names: a pair set, a power set, a separation subset under each
    assignment, the everything-present set and its union set."""
    alg, pa, top = ws.algebra, ws.pa, ws.algebra.top_i
    x, y = ws.enumerated - 1, ws.enumerated - 2
    out = {"pair": ws.insert({x: top, y: top})}
    subset_of = pa.sentence(parse("forall w. (w in z -> w in x)"), ("z", "x"))
    dom_x = [c for c, _ in ws.universe.entries_of(x)]
    subsets = [ws.insert(dict(zip(dom_x, values)))
               for values in itertools.product(range(len(alg.elements)), repeat=len(dom_x))]
    out["power set"] = ws.insert({z: subset_of(z, x) for z in subsets})
    for a in ASSIGNMENTS:
        weight = ws.ctx(a).sentence(parse("~exists m. (m in z)"), ("z",))
        out[f"separation {a}"] = ws.insert({z: alg.meet_t[xv][weight(z)]
                                            for z, xv in ws.universe.entries_of(out["pair"])})
    out["collection"] = ws.insert({nid: top for nid in range(len(ws.universe))})
    # the union of the last: its members' members include top-rank names
    member_of_member = pa.sentence(parse("exists m. (m in u /\\ x in m)"), ("x", "u"))
    u = out["collection"]
    dom = sorted({c for e, _ in ws.universe.entries_of(u) for c, _ in ws.universe.entries_of(e)})
    out["union"] = ws.insert({c: member_of_member(c, u) for c in dom})
    return out


@pytest.mark.parametrize("name", ["ps3", "chain3"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_witness_values_match_the_clauses(name, assignment):
    # a witness's values against the covered names come from its class
    # rows; every pair with a witness name must be the clause's
    alg, d = builtin(name)
    ws = Run(alg, d, 3).workspace()
    witnesses = zfbar_witnesses(ws)
    assert min(witnesses.values()) >= ws.enumerated
    ctx = ws.ctx(assignment)
    eq, mem = reference_clauses(EvalContext(ws.universe, d, assignment))
    n = len(ws.universe)
    for w in range(ws.enumerated, n):
        for z in range(n):
            assert ctx.equality(z, w) == ctx.equality(w, z) == eq(z, w), ("=", z, w)
            assert ctx.membership(z, w) == mem(z, w), ("in", z, w)
            assert ctx.membership(w, z) == mem(w, z), ("in", w, z)



def battery_of(ws):
    return [phi for _, phi in ONE_VARIABLE.read(first_names(ws))[0]]


def bq_mismatch_by_names(run):
    """The first (u, i), name u outer and battery formula i inner, at which
    the quantified side asked at u itself differs from the domain-indexed
    side folded over u's own entries by the steps of
    `ColumnClasses.step_table`, on or off: (u, i, quantified,
    domain-indexed), or None."""
    ws = run.workspace()
    ctx, alg = ws.pa, run.algebra
    tables, k = ctx._columns, len(alg.elements)
    phis = battery_of(ws)
    steps = []
    for phi in phis:
        at = ctx.sentence(phi, ("x",))
        steps.append(tables.step_table(alg.imp_t, alg.meet_t,
                                       [at(x) for x in range(tables.low)]))
    quantified = [ctx.sentence(Forall("x", Imp(Mem(Var("x"), Var("u")), phi)), ("u",))
                  for phi in phis]
    for u in range(len(ws.universe)):
        for i, step in enumerate(steps):
            acc = alg.top_i
            for x, a in ws.universe.entries_of(u):
                acc = step[acc][x * k + a]
            q = quantified[i](u)
            if q != acc:
                return u, i, alg.elements[q], alg.elements[acc]
    return None


def designated_entry_failure_by_names(run):
    """The first (x, u) in id order of u, then of x, with x a key of u's
    designated entries as `theorems.designated_entry` folds them over u's
    own entries, and `x in u` undesignated; or None."""
    ws = run.workspace()
    ctx = ws.pa
    d = ctx.designated_i
    move = theorems.designated_entry(d)
    for u in range(len(ws.universe)):
        held = frozenset()
        for x, a in ws.universe.entries_of(u):
            held = move(held, x, a)
        for x in sorted(held):
            if ctx.membership(x, u) not in d:
                return x, u
    return None


def assert_a_wrong_step_fails_bounded_quantification(monkeypatch, rank, x, a):
    """The step from top by the entry (x, a) made wrong for every battery
    formula on ps3 at `rank`, in the pass and in the fold over each name's
    entries: bounded-quantification fails at the (name, formula) and with
    the sides that `bq_mismatch_by_names` gives."""
    alg, d = ps3()
    k, e = len(alg.elements), x * len(alg.elements) + alg.index[a]
    step_table = ColumnClasses.step_table

    def wrong(self, table, fold, col):
        out = step_table(self, table, fold, col)
        if table is alg.imp_t:
            out[alg.top_i][e] = (out[alg.top_i][e] + 1) % k
        return out

    monkeypatch.setattr(ColumnClasses, "step_table", wrong)
    want = bq_mismatch_by_names(Run(alg, d, rank))
    assert want is not None
    u, i, quantified, indexed = want
    run = Run(alg, d, rank)
    ce = forced("bounded-quantification", run)
    phi = battery_of(run.workspace())[i]
    assert ce["formula"] == print_formula(Forall("x", Imp(Mem(Var("x"), Const(u)), phi)))
    assert (ce["value"], ce["note"]) == (quantified, f"the domain-indexed meet is {indexed}")


def assert_a_wrong_designated_entry_fails_properties(monkeypatch, rank, x):
    """The entry (x, bottom) counted as designated by the move of
    `theorems.designated_entry`, on ps3 at `rank`: properties fails at the
    pair that `designated_entry_failure_by_names` gives."""
    alg, d = ps3()
    move = theorems.designated_entry

    def wrong(d):
        right = move(d)
        return lambda held, y, a: held | {y} if (y, a) == (x, alg.bottom_i) \
            else right(held, y, a)

    monkeypatch.setattr(theorems, "designated_entry", wrong)
    want = designated_entry_failure_by_names(Run(alg, d, rank))
    assert want is not None
    ce, _ = check_properties(Run(alg, d, rank))
    assert (ce["u"], ce["v"], ce["note"]) == (*want, "designated entry not a member")


def connective_failure_by_pairs(run):
    """The first failing connective clause of the quotient, asked at every
    pair of classes through `theorems.satisfaction`: (clause, i, j), or
    None."""
    qm = run.quotient
    k = len(qm.classes)
    x, y = Var("x"), Var("y")
    atoms = [Mem(x, y), Eq(x, y), Not(Mem(x, y))]
    for fa, fb in itertools.product(atoms, repeat=2):
        a, b, imp, conj, disj, neg = (theorems.satisfaction(qm, f) for f in (
            fa, fb, Imp(fa, fb), And(fa, fb), Or(fa, fb), Not(fa)))
        for i, j in itertools.product(range(k), repeat=2):
            va, vb = a(i, j), b(i, j)
            for clause, holds in (("implication", imp(i, j) == ((not va) or vb)),
                                  ("conjunction", conj(i, j) == (va and vb)),
                                  ("disjunction", disj(i, j) == (va or vb)),
                                  ("negation-direction", va or neg(i, j))):
                if not holds:
                    return clause, i, j
    return None


def atom_key(qm, i, j):
    """`x in y` and `x = y` at the representatives of classes i and j."""
    ctx, reps = qm.context, qm.representatives
    return ctx.membership(reps[i], reps[j]), ctx.equality(reps[i], reps[j])


class TestByClass:
    """The checks that read classes and states instead of names, on ps3 at
    rank 3, and at rank 2 where the classes are single names: each agrees
    with a loop over names, and a planted defect fails it at the first name
    or pair at which that loop fails."""

    def test_the_domain_indexed_pass_matches_the_sides_by_names(self):
        alg, d = ps3()
        ctx = Run(alg, d, 3).workspace().pa
        phis = battery_of(Run(alg, d, 3).workspace())
        states, sides = domain_indexed(ctx, phis)
        for i, phi in enumerate(phis):
            compare = bq_reference(ctx, phi)
            for u in range(len(ctx.universe)):
                res = compare(u)
                assert res.equal, (u, i)
                assert res.domain_indexed == alg.elements[sides[states[u]][i]], (u, i)
        assert bq_mismatch(ctx, phis) is None
        assert bq_mismatch_by_names(Run(alg, d, 3)) is None

    @pytest.mark.parametrize("x, a", [(1, "half"), (3, "0"), (2, "1")])
    def test_a_wrong_step_fails_bounded_quantification_where_the_names_do(
            self, monkeypatch, x, a):
        # the step from top by the entry (x, a) made wrong for every battery
        # formula, in the pass and in the fold over each name's entries
        assert_a_wrong_step_fails_bounded_quantification(monkeypatch, 3, x, a)

    @pytest.mark.parametrize("rel, a, b, value", [
        ("in", 4, 6, "1"), ("in", 6, 4, "1"), ("in", 9, 10, "1"), ("=", 4, 6, "half"),
        ("=", 5, 6, "1")])
    def test_a_wrong_table_cell_fails_the_quotient_where_the_names_do(self, rel, a, b, value):
        # `u in v` or `u = v` for u of signature class a and v of class b,
        # two classes of top-rank names, set in the pa tables: no clause
        # reads it, since no domain holds a top-rank name, and the quotient
        # reads it through the clauses, as the pass by names does
        alg, d = ps3()

        def planted():
            run = Run(alg, d, 3)
            tables = run.workspace().pa._columns
            assert tables.low <= min(a, b)
            if rel == "in":
                assert tables.mem[b][a] != alg.index[value]
                tables.mem[b][a] = alg.index[value]
            else:
                assert tables.eq[a][b] != alg.index[value]
                tables.eq[a][b] = tables.eq[b][a] = alg.index[value]
            return run

        want = quotient_by_names(planted().workspace().pa)
        assert isinstance(want, QuotientDefect)
        assert same_outcome(quotient_by_class(planted().workspace().pa), want)
        ce, _ = CHECKS["quotient"].fn(planted())  # a replay rebuilds the tables unplanted
        assert (ce["rel"], ce["u"], ce["v"], ce["note"]) == (want.rel, want.u, want.v, want.note)

    def test_a_wrong_designated_entry_state_fails_properties_where_the_names_do(
            self, monkeypatch):
        # an entry (#3, bottom) counted as designated
        assert_a_wrong_designated_entry_fails_properties(monkeypatch, 3, 3)

    @pytest.mark.parametrize("a", ["0", "half", "1"])
    def test_a_wrong_step_fails_bounded_quantification_at_rank_2(self, monkeypatch, a):
        # the tables are off at rank 2, and the pass down the prefix arrays
        # still gives the domain-indexed side: the step from top by the
        # entry (#0, a) made wrong
        assert Run(*ps3(), 2).columns["pa"].n == 0
        assert_a_wrong_step_fails_bounded_quantification(monkeypatch, 2, 0, a)

    def test_a_wrong_designated_entry_move_fails_properties_at_rank_2(self, monkeypatch):
        # the tables are off at rank 2, and the pass down the prefix arrays
        # still gives the keys: an entry (#0, bottom) counted as designated
        assert Run(*ps3(), 2).columns["pa"].n == 0
        assert_a_wrong_designated_entry_fails_properties(monkeypatch, 2, 0)

    def test_a_connective_defect_at_one_value_key_fails_where_the_pairs_do(self, monkeypatch):
        # disjunction negated at the pairs of classes of the last key to
        # appear, i outer and j inner
        alg, d = ps3()
        qm = Run(alg, d, 3).quotient
        k = len(qm.classes)
        keys = dict.fromkeys(atom_key(qm, i, j) for i, j in itertools.product(range(k), repeat=2))
        key = list(keys)[-1]
        sat = quotient.satisfaction

        def wrong(qm, f):
            holds = sat(qm, f)
            if not isinstance(f, Or):
                return holds
            return lambda i, j: holds(i, j) != (atom_key(qm, i, j) == key)

        monkeypatch.setattr(theorems, "satisfaction", wrong)
        clause, i, j = connective_failure_by_pairs(Run(alg, d, 3))
        assert clause == "disjunction" and (i, j) != (0, 0)
        ce = forced("quotient", Run(alg, d, 3))
        assert ce["note"] == f"disjunction clause at classes [{i}, {j}]"

    def test_zfbar_inserts_one_collection_witness(self, monkeypatch):
        workspaces, make = [], Run.workspace
        monkeypatch.setattr(Run, "workspace",
                            lambda self: workspaces.append(make(self)) or workspaces[-1])
        alg, d = ps3()
        ce, details = CHECKS["zfbar-witnesses"].fn(Run(alg, d, 3))
        assert ce is None
        (ws,) = workspaces
        everything = [nid for nid, literal in ws.insertion_log
                      if literal == [[c, alg.top] for c in range(nid)]]
        assert len(everything) == 1
        golden = {rec["check"]: rec["details"] for rec in map(
            json.loads, (GOLDEN / "rank3-ps3.records").read_text(encoding="utf-8").splitlines())}
        for key in ("collection_instances", "collection_vacuous"):
            assert details[key] == golden["zfbar-witnesses"][key], key
