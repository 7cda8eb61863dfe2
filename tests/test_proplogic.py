import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algval.algebra import builtin, collapse_f, ps3
from algval.errors import CapabilityError, InputError, ResourceError
from algval.formulas import And, Bot, Imp, Not, Or, Top, enumerate_formulas
from algval.proplogic import (
    EXPLOSION,
    PVar,
    eval_prop,
    is_tautology,
    parse_prop,
    print_prop,
    prop_vars,
)
from algval.theorems import Run, run_check


class TestEval:
    def test_excluded_middle_at_half(self):
        alg, _ = ps3()
        f = Or(PVar("p"), Not(PVar("p")))
        assert eval_prop(alg, {"p": "half"}, f) == "half"

    def test_truth_constant(self):
        for name in ("ps3", "bool4", "chain5"):
            alg, _ = builtin(name)
            assert eval_prop(alg, {}, Top()) == alg.top

    def test_explosion_at_the_witness_valuation(self):
        alg, _ = ps3()
        assert eval_prop(alg, {"p": "half", "q": "0"}, EXPLOSION) == "0"

    def test_missing_valuation(self):
        alg, _ = ps3()
        with pytest.raises(InputError, match="no value"):
            eval_prop(alg, {}, PVar("p"))

    def test_negation_needs_star(self):
        from algval.algebra import Algebra

        es = ("0", "1")
        meet = {(a, b): min(a, b) for a in es for b in es}
        join = {(a, b): max(a, b) for a in es for b in es}
        imp = {(a, b): "0" if a == "1" and b == "0" else "1" for a in es for b in es}
        bare = Algebra("bare", es, meet, join, imp, "1", "0")
        with pytest.raises(CapabilityError):
            eval_prop(bare, {"p": "1"}, Not(PVar("p")))


class TestTautology:
    def test_explosion_classically_valid(self):
        alg, d = builtin("bool2")
        ok, falsifier = is_tautology(alg, d, EXPLOSION)
        assert ok and falsifier is None

    def test_explosion_fails_on_the_three_valued_core(self):
        alg, d = ps3()
        ok, falsifier = is_tautology(alg, d, EXPLOSION)
        assert not ok
        assert falsifier == {"p": "half", "q": "0"}

    def test_excluded_middle_valid_on_the_core(self):
        alg, d = ps3()
        ok, _ = is_tautology(alg, d, Or(PVar("p"), Not(PVar("p"))))
        assert ok

    def test_valuation_cap(self):
        alg, d = builtin("chain5")
        wide = And(PVar("p0"), PVar("p1"))
        for i in range(2, 12):
            wide = And(wide, PVar(f"p{i}"))
        with pytest.raises(ResourceError, match="valuations"):
            is_tautology(alg, d, wide)

    def test_classical_agreement_with_truth_tables(self):
        # Oracle: plain boolean truth-table evaluation.
        def truth(f, env):
            if isinstance(f, PVar):
                return env[f.name]
            if isinstance(f, Top):
                return True
            if isinstance(f, Bot):
                return False
            if isinstance(f, Not):
                return not truth(f.body, env)
            if isinstance(f, And):
                return truth(f.left, env) and truth(f.right, env)
            if isinstance(f, Or):
                return truth(f.left, env) or truth(f.right, env)
            return (not truth(f.left, env)) or truth(f.right, env)

        alg, d = builtin("bool2")
        atoms = [PVar("p"), PVar("q"), PVar("r"), Top(), Bot()]
        for f in enumerate_formulas(atoms, 4, negation=True):
            variables = sorted(prop_vars(f))
            classical = all(
                truth(f, dict(zip(variables, combo)))
                for combo in itertools.product([False, True], repeat=len(variables))
            )
            assert is_tautology(alg, d, f)[0] == classical


class TestParaconsistencyCheck:
    @pytest.mark.parametrize("algname", ["ps3", "chain4", "stretch-bool4"])
    def test_witness_found(self, algname):
        alg, d = builtin(algname)
        r = run_check("prop-paraconsistency", Run(alg, d))
        assert r.verdict == "pass"
        assert r.details["witness"] is not None
        assert r.details["guaranteed_witness"]["q"] == alg.bottom

    def test_classical_case_has_no_witness(self):
        alg, d = builtin("bool2")
        r = run_check("prop-paraconsistency", Run(alg, d))
        assert r.verdict == "pass"
        assert r.details["witness"] is None
        assert r.details["explosion_valid"]

    def test_plain_boolean_with_singleton_designated(self):
        alg, d = builtin("bool4")
        r = run_check("prop-paraconsistency", Run(alg, d))
        assert r.verdict == "pass"
        assert r.details["witness"] is None


class TestAgreement:
    def test_chain5_agrees_with_the_core(self):
        alg, d = builtin("chain5")
        r = run_check("prop-agreement", Run(alg, d))
        assert r.verdict == "pass"
        assert r.details == {"corpus": 771, "agreements": 771}

    def test_corpus_deterministic(self):
        # The corpus is enumerated, so two runs give the same record.
        alg, d = builtin("chain4")
        first = run_check("prop-agreement", Run(alg, d))
        second = run_check("prop-agreement", Run(alg, d))
        assert first.record_line() == second.record_line()

    def test_skipped_on_two_element_algebras(self):
        alg, d = builtin("bool2")
        assert run_check("prop-agreement", Run(alg, d)).verdict == "skipped"

    def test_skipped_without_ultrafilter(self):
        alg, d = builtin("bool4")
        assert run_check("prop-agreement", Run(alg, d)).verdict == "skipped"


class ReferenceEvaluator:
    """Per-valuation recursive evaluation over copies of an algebra's
    tables taken at construction, written apart from the value columns."""

    def __init__(self, alg, designated):
        self.alg, self.n = alg, len(alg.elements)
        self.tables = {And: alg.meet_t, Or: alg.join_t, Imp: alg.imp_t, Not: alg.star_t}
        self.designated = {alg.index[alg.resolve(x)] for x in designated}

    def value(self, f, valuation: dict) -> int:
        kind = type(f)
        if kind is PVar:
            return valuation[f.name]
        if kind is Top or kind is Bot:
            return self.alg.top_i if kind is Top else self.alg.bottom_i
        if kind is Not:
            return self.tables[Not][self.value(f.body, valuation)]
        return self.tables[kind][self.value(f.left, valuation)][self.value(f.right, valuation)]

    def tautology(self, f):
        """(valid, the first falsifying valuation in product order)."""
        variables = sorted(prop_vars(f))
        for combo in itertools.product(range(self.n), repeat=len(variables)):
            if self.value(f, dict(zip(variables, combo))) not in self.designated:
                return False, {v: self.alg.elements[i] for v, i in zip(variables, combo)}
        return True, None

    def at(self, f, valuation: dict) -> str:
        index = {v: self.alg.index[e] for v, e in valuation.items()}
        return self.alg.elements[self.value(f, index)]


CORPUS = enumerate_formulas([PVar(v) for v in "pqr"], 5, negation=True)


def column_mismatches(alg, d, reference) -> list:
    """The corpus formulas on which the columns and the reference disagree:
    validity and the first falsifier on the algebra and on the core, and
    the algebra's value at the core falsifier pulled back as
    `prop-agreement` pulls it back, where there is an intermediate."""
    core, core_d = ps3()
    core_reference = ReferenceEvaluator(core, core_d)
    mid = (alg.intermediates() or [None])[0]
    section = {"1": alg.top, "half": mid, "0": alg.bottom}
    bad = []
    for f in CORPUS:
        there = is_tautology(core, core_d, f)
        ok = is_tautology(alg, d, f) == reference.tautology(f)
        ok &= there == core_reference.tautology(f)
        if there[1] is not None and mid is not None:
            pulled = {v: section[e] for v, e in there[1].items()}
            ok &= eval_prop(alg, pulled, f) == reference.at(f, pulled)
        if not ok:
            bad.append(f)
    return bad


class TestColumnsAgainstReference:
    @pytest.mark.parametrize("name", ["ps3", "bool2", "bool4", "chain3", "chain4", "chain5",
                                      "chain6", "chain7", "chain8", "stretch-bool4"])
    def test_corpus(self, name):
        alg, d = builtin(name)
        assert column_mismatches(alg, d, ReferenceEvaluator(alg, d)) == []

    def test_planted_table_entry_is_caught(self):
        # the reference keeps chain4's tables; the columns read a meet with
        # one wrong entry, a /\ 1 = 0
        alg, d = builtin("chain4")
        reference = ReferenceEvaluator(alg, d)
        meet = [list(row) for row in alg.meet_t]
        meet[alg.index["a"]][alg.top_i] = alg.bottom_i
        alg.meet_t = tuple(map(tuple, meet))
        assert column_mismatches(alg, d, reference)

    def test_chain300_agreement_skips_for_the_valuation_cap(self):
        alg, d = builtin("chain300")
        r = run_check("prop-agreement", Run(alg, d))
        assert r.verdict == "skipped"
        assert r.skip_reason == ("budget exceeded: 3 variables over 300 elements "
                                 "need 27000000 valuations; cap is 100000")


@st.composite
def prop_formula(draw):
    variables = st.sampled_from([PVar("p"), PVar("q"), PVar("r")])
    atoms = st.one_of(variables, st.just(Top()), st.just(Bot()))
    return draw(st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Imp, kids, kids),
            st.builds(Not, kids),
        ),
        max_leaves=16,
    ))


class TestCollapseInvariance:
    @settings(max_examples=200, deadline=None)
    @given(prop_formula(), st.sampled_from(["0", "a", "b", "1"]),
           st.sampled_from(["0", "a", "b", "1"]),
           st.sampled_from(["0", "a", "b", "1"]))
    def test_collapse_commutes_with_valuation(self, f, vp, vq, vr):
        alg, _ = builtin("chain4")
        core, _ = ps3()
        valuation = {"p": vp, "q": vq, "r": vr}
        pushed = {k: collapse_f(alg, v) for k, v in valuation.items()}
        assert collapse_f(alg, eval_prop(alg, valuation, f)) == \
            eval_prop(core, pushed, f)


class TestPropParser:
    def test_round_trip(self):
        for text in ("p", "p /\\ q", "p -> q -> r", "~(p \\/ q)",
                     "(p /\\ ~p) -> q", "true", "false"):
            f = parse_prop(text)
            assert parse_prop(print_prop(f)) == f

    @settings(max_examples=300, deadline=None)
    @given(prop_formula())
    def test_print_parse_round_trip(self, f):
        assert parse_prop(print_prop(f)) == f

    def test_iff_desugar(self):
        f = parse_prop("p <-> q")
        assert f == And(Imp(PVar("p"), PVar("q")), Imp(PVar("q"), PVar("p")))

    def test_rejects_sentence_syntax(self):
        with pytest.raises(InputError):
            parse_prop("x in y")
        with pytest.raises(InputError):
            parse_prop("forall x. p")
        with pytest.raises(InputError):
            parse_prop("p /\\")

    def test_nesting_limit(self):
        for text in ("~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000,
                     " \\/ ".join(["p"] * 3000)):
            with pytest.raises(InputError, match="nested deeper"):
                parse_prop(text)
