"""Acceptance criteria, one test per criterion.

Algebra arithmetic is discrete, so every comparison is exact equality; the
stated runtime budgets are asserted with wall-clock measurements.  Each
criterion prints one pass/fail line.
"""

import time

from test_evaluate import bq_reference
from test_quotient import class_of

from algval.algebra import (
    builtin,
    check_cobounded,
    check_drim,
    ps3,
)
from algval.evaluate import EvalContext, bq_mismatch, domain_indexed
from algval.proplogic import EXPLOSION, is_tautology
from algval.quotient import build_quotient
from algval.theorems import ONE_VARIABLE, Run, check_connective_theorem, run_check
from algval.universe import build_universe

ALL_BUILTINS = ["ps3", "bool2", "bool4", "chain3", "chain4", "chain5",
                "chain6", "chain7", "chain8", "stretch-bool4"]


def _report(num: int, label: str, ok: bool, note: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"acceptance {num:02d} [{verdict}] {label}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {label} {note}"


def test_01_ps3_tables():
    alg, designated = ps3()
    expected_meet = {("1", "1"): "1", ("1", "half"): "half", ("1", "0"): "0",
                     ("half", "1"): "half", ("half", "half"): "half",
                     ("half", "0"): "0", ("0", "1"): "0", ("0", "half"): "0",
                     ("0", "0"): "0"}
    expected_join = {("1", "1"): "1", ("1", "half"): "1", ("1", "0"): "1",
                     ("half", "1"): "1", ("half", "half"): "half",
                     ("half", "0"): "half", ("0", "1"): "1",
                     ("0", "half"): "half", ("0", "0"): "0"}
    expected_imp = {("1", "1"): "1", ("1", "half"): "1", ("1", "0"): "0",
                    ("half", "1"): "1", ("half", "half"): "1",
                    ("half", "0"): "0", ("0", "1"): "1", ("0", "half"): "1",
                    ("0", "0"): "1"}
    expected_star = {"1": "0", "half": "half", "0": "1"}
    t0 = time.perf_counter()
    ok = all(alg.meet(a, b) == want for (a, b), want in expected_meet.items())
    ok &= all(alg.join(a, b) == want for (a, b), want in expected_join.items())
    ok &= all(alg.imp(a, b) == want for (a, b), want in expected_imp.items())
    ok &= all(alg.star(a) == want for a, want in expected_star.items())
    elapsed = time.perf_counter() - t0
    ok &= designated == frozenset({"1", "half"})
    ok &= elapsed < 0.001
    _report(1, "three-valued tables and star entries", ok,
            f"{elapsed * 1e6:.0f}us for 30 lookups")


def test_02_cobounded_verdicts():
    t0 = time.perf_counter()
    expected = {"ps3": True, "bool4": False, "bool2": True,
                "stretch-bool4": True}
    ok = True
    for name, want in expected.items():
        ok &= check_cobounded(builtin(name)[0]).ok("cobounded") == want
    for name in ALL_BUILTINS:
        rep = check_cobounded(builtin(name)[0])
        ok &= (rep.info["cobounded-subset-search"]
               == rep.info["cobounded-closed-form"])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(2, "cobounded verdicts with route agreement", ok,
            f"{elapsed * 1e3:.0f}ms")


def test_03_implication_laws():
    t0 = time.perf_counter()
    ok = True
    for name in ("ps3", "bool2", "bool4", "chain3", "chain4", "chain5", "chain6"):
        ok &= check_drim(builtin(name)[0]).ok("drim")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(3, "implication laws P1-P4 hold exhaustively", ok,
            f"{elapsed * 1e3:.0f}ms")


def test_04_pa_equality_two_valued_rank3():
    alg, designated = ps3()
    t0 = time.perf_counter()
    uni = build_universe(alg, 3)
    levels = uni.level_sizes()
    result = run_check("two-valued", Run(alg, designated, rank_bound=3))
    elapsed = time.perf_counter() - t0
    ok = levels == {1: 1, 2: 4, 3: 256}
    ok &= result.verdict == "pass"
    ok &= result.details["names"] == 256
    ok &= result.details["pairs"] == 256 * 257 // 2
    ok &= elapsed < 120.0
    _report(4, "pa equality two-valued over the rank-3 universe", ok,
            f"{result.details['pairs']} pairs in {elapsed:.1f}s; "
            f"levels {levels[1]}/{levels[2]}/{levels[3]}")


def test_05_equality_characterization():
    ok = True
    pairs = {}
    for name in ("ps3", "chain4"):
        alg, designated = builtin(name)
        result = run_check("equality-characterization", Run(alg, designated, rank_bound=2))
        ok &= result.verdict == "pass"
        pairs[name] = result.details.get("pairs", 0)
    _report(5, "recursive equality matches the entry-matching criterion", ok,
            f"pairs swept: {pairs}")


def test_06_extensionality_contrast():
    alg, designated = ps3()
    result = run_check("extensionality-contrast", Run(alg, designated, rank_bound=2))
    ok = result.verdict == "pass"
    ok &= result.details.get("eq_pa") == "0"
    ok &= result.details.get("eq_ba") == "1"
    _report(6, "witness pair separates the equality readings", ok,
            f"pa={result.details.get('eq_pa')} ba={result.details.get('eq_ba')}")


def test_07_leibniz_sweep():
    alg, designated = ps3()
    result = run_check("leibniz", Run(alg, designated, rank_bound=2))
    ok = result.verdict == "pass"
    violation = result.details.get("ba_violation", {})
    ok &= bool(violation) and "~" in violation.get("formula", "")
    _report(7, "indiscernibility under pa with a negated ba violation", ok,
            f"violation via {violation.get('formula')!r}")


def test_08_bounded_quantification_identity():
    alg, designated = ps3()
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, designated, "pa")
    phis = [phi for _, phi in ONE_VARIABLE.read(range(4))[0]]
    states, sides = domain_indexed(ctx, phis)
    checked = 0
    ok = bq_mismatch(ctx, phis) is None
    for i, phi in enumerate(phis):
        reference = bq_reference(ctx, phi)
        for u in uni.ids():
            res = reference(u)
            ok &= res.equal and res.domain_indexed == alg.elements[sides[states[u]][i]]
            checked += 1
    _report(8, "bounded universals equal domain-indexed meets", ok,
            f"{checked} instances")


def test_09_zfbar_witnesses():
    ok = True
    notes = []
    for name in ("ps3", "chain4"):
        alg, designated = builtin(name)
        result = run_check("zfbar-witnesses", Run(alg, designated, rank_bound=2))
        ok &= result.verdict == "pass"
        notes.append(f"{name}:{result.verdict}")
        if name == "ps3":
            ok &= result.details.get("separation_fails_under_ba") is True
    _report(9, "axiom witnesses valid under pa, separation breaks under ba",
            ok, " ".join(notes))


def test_10_boolean_coincidence():
    alg, designated = builtin("bool4")
    result = run_check("boolean-coincidence", Run(alg, designated, rank_bound=3))
    ok = result.verdict == "pass"
    ok &= result.details.get("names") == 3125
    _report(10, "assignments coincide on the rank-3 boolean universe", ok,
            f"{result.details.get('atomic_pairs')} atomic pairs, "
            f"{result.details.get('battery_sentences')} sentences")


def test_11_collapse_transfer():
    ok = True
    counts = {}
    for name in ("chain4", "chain5"):
        alg, designated = builtin(name)
        result = run_check("nff-transfer", Run(alg, designated, rank_bound=2))
        ok &= result.verdict == "pass"
        counts[name] = result.details.get("sentences", 0)
    _report(11, "negation-free transfer onto the three-valued core", ok,
            f"sentences: {counts}")


def test_12_paraconsistency():
    ok = True
    notes = []
    for name in ("ps3", "chain4"):
        alg, designated = builtin(name)
        result = run_check("paraconsistency", Run(alg, designated, rank_bound=2))
        ok &= result.verdict == "pass"
        coatom = alg.big_join([e for e in alg.elements if e != alg.top])
        ok &= result.details.get("coatom") == coatom
        ok &= result.details.get("phi_ba") == coatom
        ok &= result.details.get("phi_pa") == coatom
        ok &= result.details.get("explosion_ba") == alg.bottom
        ok &= result.details.get("explosion_pa") == alg.bottom
        notes.append(f"{name}: coatom={coatom}")
    _report(12, "sentence and negation both valid, explosion collapses", ok,
            "; ".join(notes))


def test_13_quotient_model():
    alg, designated = ps3()
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, designated, "pa")
    qm = build_quotient(ctx)
    k = len(qm)
    ok = k == 3
    all_pairs = {(i, j) for i in range(k) for j in range(k)}
    ok &= qm.r_eq == {(i, i) for i in range(k)}
    ok &= qm.r_neq == all_pairs - qm.r_eq
    ok &= qm.r_mem | qm.r_nmem == all_pairs
    overlap = qm.r_mem & qm.r_nmem
    ok &= (class_of(qm)[0], class_of(qm)[2]) in overlap
    run = Run(alg, designated, rank_bound=2)
    counterexample, connectives = check_connective_theorem(run, min(overlap))
    ok &= counterexample is None
    ok &= bool(connectives.get("negation_converse_failure"))
    full = run_check("quotient", run)
    ok &= full.verdict == "pass"
    _report(13, "quotient classes, relations and connective clauses", ok,
            f"classes={k}, overlap={sorted(overlap)}")


def test_14_propositional_logics():
    ok = True
    for name in ("ps3", "chain4"):
        alg, designated = builtin(name)
        valid, falsifier = is_tautology(alg, designated, EXPLOSION)
        ok &= not valid and falsifier is not None
    b2, d2 = builtin("bool2")
    valid, _ = is_tautology(b2, d2, EXPLOSION)
    ok &= valid
    alg5, d5 = builtin("chain5")
    first = run_check("prop-agreement", Run(alg5, d5))
    second = run_check("prop-agreement", Run(alg5, d5))
    ok &= first.verdict == "pass"
    ok &= first.details.get("corpus") == 771
    ok &= first.record_line() == second.record_line()
    _report(14, "explosion verdicts and corpus agreement with the core", ok,
            f"corpus={first.details.get('corpus')}")
