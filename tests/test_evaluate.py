import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formulas import formula_strategy

from algval import algebra
from algval.algebra import BUILTIN_NAMES, Algebra, builtin, ps3
from algval.errors import CapabilityError, InputError, ResourceError
from algval.evaluate import (
    _REL_EQ, _REL_MEM, _Z_BOTH, _Z_RIGHT, ASSIGNMENTS, BqResult, ColumnClasses, EvalContext,
    NameClasses, bq_mismatch, domain_indexed,
)
from algval.formulas import (
    And, Bot, Const, Eq, Exists, Forall, Imp, Mem, Not, Or, Top, Var,
    children, free_vars, instantiate_axiom, is_negation_free, parse, print_formula, subst_const,
)
from algval.proplogic import MAX_VALUATIONS, parse_prop, value_column
from algval.theorems import (
    CHECKS, COLLECTION, NEGATION_FREE, ONE_VARIABLE, Run, run_check,
)
from algval.universe import Universe, build_universe


@pytest.fixture(scope="module")
def ps3_rank2():
    alg, d = ps3()
    uni = build_universe(alg, 2)
    return uni, d


def contexts(uni, d):
    return EvalContext(uni, d, "ba"), EvalContext(uni, d, "pa")


def one_variable(uni):
    """The one-variable battery as the checks read it, over uni's first names."""
    return ONE_VARIABLE.read(range(min(4, len(uni))))[0]


class TestAtomic:
    def test_empty_name_equals_itself(self, ps3_rank2):
        uni, d = ps3_rank2
        for ctx in contexts(uni, d):
            assert ctx.atomic("=", 0, 0) == "1"

    def test_half_weight_membership(self, ps3_rank2):
        uni, d = ps3_rank2
        h = uni.algebra.index["half"]
        v = uni.insert({0: h})
        ba, _ = contexts(uni, d)
        assert ba.atomic("in", 0, v) == "half"

    def test_singleton_weight_pair_separates_the_assignments(self, ps3_rank2):
        uni, d = ps3_rank2
        h, t = uni.algebra.index["half"], uni.algebra.top_i
        u = uni.insert({0: h})
        v = uni.insert({0: t})
        ba, pa = contexts(uni, d)
        assert ba.atomic("=", u, v) == "1"
        assert pa.atomic("=", u, v) == "0"

    def test_bad_relation(self, ps3_rank2):
        uni, d = ps3_rank2
        ba, _ = contexts(uni, d)
        with pytest.raises(InputError):
            ba.atomic("<", 0, 0)

    def test_numeral_membership(self):
        ws = Run(*ps3()).workspace()
        _, one, two = ws.numerals(2)
        for assignment in ("ba", "pa"):
            assert ws.ctx(assignment).atomic("in", one, two) == "1"

    @pytest.mark.parametrize("algname", ["ps3", "bool2"])
    @pytest.mark.parametrize("assignment", ["ba", "pa"])
    def test_embedding_reflects_structural_equality(self, algname, assignment):
        # Six distinct hereditarily finite sets, each a name whose members
        # all weigh top: 0, 1, 2, 3, {1} and {0, 2}.  Equal exactly when
        # they are the same set.
        ws = Run(*builtin(algname)).workspace()
        top = ws.algebra.top_i
        nums = ws.numerals(3)
        ids = nums + [ws.universe.insert({nums[1]: top}),
                      ws.universe.insert({nums[0]: top, nums[2]: top})]
        assert len(set(ids)) == 6
        ctx = ws.ctx(assignment)
        for i, u in enumerate(ids):
            for j, v in enumerate(ids):
                want = ws.algebra.top if i == j else ws.algebra.bottom
                assert ctx.atomic("=", u, v) == want


class TestEval:
    def test_truth_constants(self, ps3_rank2):
        uni, d = ps3_rank2
        for ctx in contexts(uni, d):
            assert ctx.eval(Top()) == "1"
            assert ctx.eval(Bot()) == "0"

    def test_contradiction_witness_hits_the_coatom(self, ps3_rank2):
        uni, d = ps3_rank2
        f = parse("exists x. exists y. (x in y /\\ ~(x in y))")
        for ctx in contexts(uni, d):
            assert ctx.eval(f) == "half"
            assert ctx.eval(Not(f)) == "half"

    def test_explosion_collapses_to_bottom(self, ps3_rank2):
        uni, d = ps3_rank2
        phi = parse("exists x. exists y. (x in y /\\ ~(x in y))")
        psi = parse("~ forall x. x = x")
        for ctx in contexts(uni, d):
            assert ctx.eval(Imp(And(phi, Not(phi)), psi)) == "0"

    def test_validity(self, ps3_rank2):
        uni, d = ps3_rank2
        ba, pa = contexts(uni, d)
        assert ba.holds(Eq(Const(0), Const(0)))
        phi = parse("exists x. exists y. (x in y /\\ ~(x in y))")
        assert ba.holds(phi) and ba.holds(Not(phi))
        h, t = uni.algebra.index["half"], uni.algebra.top_i
        u, v = uni.insert({0: h}), uni.insert({0: t})
        assert not pa.holds(Eq(Const(u), Const(v)))
        assert ba.holds(Eq(Const(u), Const(v)))

    def test_unbound_variable(self, ps3_rank2):
        uni, d = ps3_rank2
        ba, _ = contexts(uni, d)
        with pytest.raises(InputError, match="unbound"):
            ba.value(Mem(Var("x"), Const(0)))

    def test_env_binding_restored(self, ps3_rank2):
        uni, d = ps3_rank2
        ba, _ = contexts(uni, d)
        env = {"x": 0}
        ba.value(Forall("x", Eq(Var("x"), Var("x"))), env)
        assert env == {"x": 0}

    def test_unknown_constant(self, ps3_rank2):
        uni, d = ps3_rank2
        ba, _ = contexts(uni, d)
        with pytest.raises(InputError, match="name constant"):
            ba.value(Eq(Const(10_000), Const(0)))


def starless():
    """ps3's lattice and implication with no star table, and ps3's designated set."""
    alg, d = ps3()
    meet = {(a, b): alg.meet(a, b) for a in alg.elements for b in alg.elements}
    join = {(a, b): alg.join(a, b) for a in alg.elements for b in alg.elements}
    imp = {(a, b): alg.imp(a, b) for a in alg.elements for b in alg.elements}
    return Algebra("bare3", alg.elements, meet, join, imp, "1", "0"), d


class TestStarRequirements:
    def _starless(self):
        return starless()

    def test_pa_equality_needs_star(self):
        bare, d = self._starless()
        uni = build_universe(bare, 2)
        pa = EvalContext(uni, d, "pa")
        with pytest.raises(CapabilityError, match="star"):
            pa.equality(1, 2)

    def test_negation_needs_star(self):
        bare, d = self._starless()
        uni = build_universe(bare, 2)
        ba = EvalContext(uni, d, "ba")
        with pytest.raises(CapabilityError, match="star"):
            ba.value(Not(Top()))

    def test_pa_equality_needs_star_behind_a_decided_operand(self):
        # bottom -> anything is top, so the equality is never reached; the
        # capability error must not depend on that.
        bare, d = self._starless()
        uni = build_universe(bare, 2)
        pa = EvalContext(uni, d, "pa")
        for f in (Imp(Bot(), Eq(Const(1), Const(2))),
                  Forall("z", Imp(Mem(Var("z"), Const(0)), Eq(Var("z"), Const(1))))):
            with pytest.raises(CapabilityError, match="star"):
                pa.value(f)

    def test_ba_works_without_star(self):
        bare, d = self._starless()
        uni = build_universe(bare, 2)
        ba = EvalContext(uni, d, "ba")
        assert ba.atomic("=", 1, 2) in bare.elements


class TestFactorTable:
    @pytest.mark.parametrize("algname", [*BUILTIN_NAMES, "bare3"])
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_table_is_the_factor_by_hand(self, algname, assignment):
        # a -> m under ba, and (a -> m) /\ (m* -> a*) under pa, which has
        # no table where the algebra has no star
        alg = starless()[0] if algname == "bare3" else builtin(algname)[0]
        factor = ColumnClasses(build_universe(alg, 1), assignment).factor
        meet, imp, star = alg.meet_t, alg.imp_t, alg.star_t
        if assignment == "pa" and star is None:
            assert factor is None
            return
        es = range(len(alg.elements))
        assert [list(row) for row in factor] == [
            [imp[a][m] if assignment == "ba" else meet[imp[a][m]][imp[star[m]][star[a]]]
             for m in es] for a in es]

    def test_an_algebra_past_the_valuation_cap_evaluates(self, monkeypatch):
        # 317 elements have more pairs than a propositional column may hold;
        # the factor tables are built past that cap, and other columns are
        # still held to it
        monkeypatch.setattr(algebra, "CHAIN_MAX", 317)
        alg, d = algebra.chain(317)
        assert len(alg.elements) ** 2 > MAX_VALUATIONS
        uni = build_universe(alg, 2)
        pairs = [(u, v) for u in (0, 1, 2, len(uni) - 1) for v in (0, 1, 2, len(uni) - 1)]
        for assignment in ASSIGNMENTS:
            ctx = EvalContext(uni, d, assignment)
            eq, mem = reference_clauses(ctx)
            assert ctx.value(parse("#1 = #2")) == eq(1, 2)
            assert [ctx.equality(u, v) for u, v in pairs] == [eq(u, v) for u, v in pairs]
            assert [ctx.membership(u, v) for u, v in pairs] == [mem(u, v) for u, v in pairs]
        with pytest.raises(ResourceError, match="valuations"):
            value_column(alg, parse_prop("a -> m"))


class TestMemoization:
    def test_separate_caches_per_assignment(self, ps3_rank2):
        uni, d = ps3_rank2
        ba, pa = contexts(uni, d)
        h, t = uni.algebra.index["half"], uni.algebra.top_i
        u, v = uni.insert({0: h}), uni.insert({0: t})
        assert ba.atomic("=", u, v) != pa.atomic("=", u, v)

    def test_atomic_values_stable_under_insertion(self, ps3_rank2):
        uni, d = ps3_rank2
        pa = EvalContext(uni, d, "pa")
        before = pa.equality(1, 2)
        uni.insert({1: uni.algebra.top_i, 2: uni.algebra.top_i})
        assert pa.equality(1, 2) == before


class TestProperties:
    @pytest.mark.parametrize("algname", ["ps3", "chain4"])
    def test_pa_two_valued_on_rank2(self, algname):
        alg, d = builtin(algname)
        uni = build_universe(alg, 2)
        pa = EvalContext(uni, d, "pa")
        for u in uni.ids():
            for v in uni.ids():
                assert pa.atomic("=", u, v) in (alg.top, alg.bottom)

    @pytest.mark.parametrize("algname", ["ps3", "chain4"])
    def test_pa_validity_finer_than_ba(self, algname):
        alg, d = builtin(algname)
        uni = build_universe(alg, 2)
        ba, pa = contexts(uni, d)
        for u in uni.ids():
            for v in uni.ids():
                for rel in ("=", "in"):
                    if alg.resolve(pa.atomic(rel, u, v)) in pa.designated:
                        assert alg.resolve(ba.atomic(rel, u, v)) in ba.designated

    @pytest.mark.parametrize("algname", ["bool2", "bool4"])
    def test_boolean_assignments_coincide_rank2(self, algname):
        alg, d = builtin(algname)
        uni = build_universe(alg, 2)
        ba, pa = contexts(uni, d)
        for u in uni.ids():
            for v in uni.ids():
                assert ba.atomic("=", u, v) == pa.atomic("=", u, v)
                assert ba.atomic("in", u, v) == pa.atomic("in", u, v)

    @pytest.mark.parametrize("algname", ["ps3", "chain4"])
    def test_join_collapse_law(self, algname):
        # (join of S) => b equals the meet of the pointwise implications.
        alg, _ = builtin(algname)
        es = alg.elements
        for r in range(len(es) + 1):
            for subset in itertools.combinations(es, r):
                for b in es:
                    lhs = alg.imp(alg.big_join(subset), b)
                    rhs = alg.big_meet([alg.imp(a, b) for a in subset])
                    assert lhs == rhs


class TestBoundedQuantification:
    def test_tautological_body(self, ps3_rank2):
        uni, d = ps3_rank2
        pa = EvalContext(uni, d, "pa")
        u = uni.insert({0: uni.algebra.index["half"]})
        res = bq_reference(pa, Eq(Var("x"), Var("x")))(u)
        assert res.quantified == res.domain_indexed == "1"

    def test_absurd_body(self, ps3_rank2):
        uni, d = ps3_rank2
        pa = EvalContext(uni, d, "pa")
        u = uni.insert({0: uni.algebra.index["half"]})
        res = bq_reference(pa, Bot())(u)
        assert res.quantified == res.domain_indexed == "0"

    def test_full_sweep_rank2(self):
        # the sides that the pass down the prefix arrays gives each name,
        # and the first mismatch by class and state, against the sides
        # asked name by name (at rank 3 in `test_theorems.TestByClass`)
        alg, d = ps3()
        uni = build_universe(alg, 2)
        pa = EvalContext(uni, d, "pa")
        phis = [phi for _, phi in one_variable(uni)]
        states, sides = domain_indexed(pa, phis)
        for i, phi in enumerate(phis):
            reference = bq_reference(pa, phi)
            for u in uni.ids():
                res = reference(u)
                assert res.equal, (u, i)
                assert res.domain_indexed == alg.elements[sides[states[u]][i]], (u, i)
        assert bq_mismatch(pa, phis) is None


class TestBatteries:
    def test_battery_contains_the_published_forms(self, ps3_rank2):
        # the atoms against each of the first four names, their negations,
        # then the bounded layer, in that order
        uni, _ = ps3_rank2
        labels = [label for label, _ in one_variable(uni)]
        assert labels[:3] == ["x in #0", "x = #0", "#0 in x"]
        assert labels[12:15] == ["~x in #0", "~x = #0", "~#0 in x"]
        assert labels[24] == "exists m. m in x /\\ m in #0"
        assert labels[-1] == "exists m. m in x /\\ #3 in m"
        assert [label for label, _ in COLLECTION.read(())[0]] == ["y in z", "y = z", "z in y"]

    def test_battery_formulas_have_one_free_variable(self, ps3_rank2):
        uni, _ = ps3_rank2
        for _, phi in one_variable(uni):
            assert free_vars(phi) == {"x"}

    def test_nff_battery_is_negation_free_and_closed(self):
        # nff-transfer quantifies x in each body: 60 closed sentences
        bodies, declared = NEGATION_FREE.read((3,))
        assert declared == {"formulas": 30, "max_nodes": 3, "negation": False, "bounded": 0}
        sentences = {q("x", body) for _, body in bodies for q in (Forall, Exists)}
        assert len(sentences) == 60
        for f in sentences:
            assert is_negation_free(f)
            assert not free_vars(f)


# -- differential test against a direct reading of the semantics -------------------


def reference_value(ctx, f, env):
    """Recursive evaluation over the context's atomic clauses, with no
    compilation and no short-circuit in the quantifier folds."""
    alg = ctx.algebra

    def term(t):
        return t.name_id if isinstance(t, Const) else env[t.name]

    if isinstance(f, Mem):
        return ctx.membership(term(f.left), term(f.right))
    if isinstance(f, Eq):
        return ctx.equality(term(f.left), term(f.right))
    if isinstance(f, Top):
        return alg.top_i
    if isinstance(f, Bot):
        return alg.bottom_i
    if isinstance(f, Not):
        return alg.star_t[reference_value(ctx, f.body, env)]
    if isinstance(f, (And, Or, Imp)):
        table = {And: alg.meet_t, Or: alg.join_t, Imp: alg.imp_t}[type(f)]
        return table[reference_value(ctx, f.left, env)][reference_value(ctx, f.right, env)]
    table, acc = ((alg.meet_t, alg.top_i) if isinstance(f, Forall)
                  else (alg.join_t, alg.bottom_i))
    for nid in ctx.universe.ids():
        acc = table[acc][reference_value(ctx, f.body, {**env, f.var: nid})]
    return acc


def bq_reference(ctx, phi):
    """The two sides of the bounded universal of phi at a name u, asked
    name by name: `forall x (x in u -> phi(x))` at u, and the meet over
    u's own entries (x, a) of a => phi(x)."""
    alg = ctx.algebra
    quantified = ctx.sentence(Forall("x", Imp(Mem(Var("x"), Var("u")), phi)), ("u",))
    at = ctx.sentence(phi, ("x",))

    def sides(u):
        q, acc = quantified(u), alg.top_i
        for x, a in ctx.universe.entries_of(u):
            acc = alg.meet_t[acc][alg.imp_t[a][at(x)]]
        return BqResult(alg.elements[q], alg.elements[acc], q == acc)
    return sides


VARS = ("x", "y", "z")


def random_formula(rng, n_names, depth):
    """Negation, nested binders that shadow each other and the free variables
    x, y, z, and name constants mixed into the atoms."""
    if depth == 0 or rng.random() < 0.15:
        def term():
            return Const(rng.randrange(n_names)) if rng.random() < 0.3 else Var(rng.choice(VARS))
        kind = rng.choice((Mem, Mem, Eq, Eq, Top, Bot))
        return kind(term(), term()) if kind in (Mem, Eq) else kind()
    kind = rng.choice((And, Or, Imp, Not, Forall, Exists, Forall, Exists))
    if kind is Not:
        return Not(random_formula(rng, n_names, depth - 1))
    if kind in (Forall, Exists):
        return kind(rng.choice(VARS), random_formula(rng, n_names, depth - 1))
    return kind(random_formula(rng, n_names, depth - 1),
                random_formula(rng, n_names, depth - 1))


@pytest.mark.parametrize("algname", ["ps3", "chain4", "bool4"])
@pytest.mark.parametrize("assignment", ["ba", "pa"])
def test_value_matches_reference_evaluator(algname, assignment):
    alg, d = builtin(algname)
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    rng = random.Random(f"{algname}-{assignment}")
    for _ in range(150):
        f = random_formula(rng, len(uni.names), depth=4)
        env = {v: rng.randrange(len(uni.names)) for v in VARS}
        got = ctx.value(f, dict(env))
        assert got == reference_value(ctx, f, env), print_formula(f)


# Quantifier-free bodies are swept over atom rows, run once per distinct row
# value, and connectives skip a right operand their table row makes
# irrelevant; all must agree with the reference evaluator on every binding.

ROW_SWEEP_SENTENCES = [
    "forall z. x in y",
    "exists z. (x = y \\/ #1 in x)",
    "exists z. z in x",
    "forall z. (z in x -> z in y)",
    "forall z. (x in z -> ~(y in z))",
    "exists z. (z in x /\\ x in z)",
    "forall z. (z in x <-> (z = y \\/ #2 = z))",
    "exists z. (#3 in z /\\ z in #4 /\\ ~(z = x) /\\ (y in z \\/ z in #1))",
    "forall z. (z in z -> z = z)",
    "exists z. (~(z in z) /\\ z = #1 /\\ x = z)",
    "exists z. (z in x -> false) /\\ forall z. (y in z \\/ ~(z in y))",
    # no atom rows at all
    "x = x /\\ forall x. false",
    "forall z. ~false -> x in y",
    # atoms that read bindings made outside the body, not the swept variable
    "forall z. (z in x -> x = y)",
    "forall x. forall y. forall z. (z in x -> x = y)",
    "exists x. exists z. (z = x /\\ ~(y in x))",
    "forall x. exists y. forall z. ((z in x <-> z in y) /\\ (x in y \\/ #1 = y))",
]


@pytest.mark.parametrize("algname", ["ps3", "chain4"])
@pytest.mark.parametrize("assignment", ["ba", "pa"])
def test_row_sweeps_match_reference_evaluator(algname, assignment):
    alg, d = builtin(algname)
    uni = build_universe(alg, 2)
    top = alg.top_i
    uni.insert({1: top, 2: top})
    uni.insert({0: top, 3: top})
    ctx = EvalContext(uni, d, assignment)
    for text in ROW_SWEEP_SENTENCES * 2:  # cold rows first, then warm ones
        f = parse(text)
        for x in uni.ids():
            for y in uni.ids():
                env = {"x": x, "y": y}
                assert ctx.value(f, dict(env)) == reference_value(ctx, f, env), text


@pytest.mark.parametrize("assignment", ["ba", "pa"])
@pytest.mark.parametrize("text", ["exists z. #c in z", "forall z. ~(#c in z)",
                                  "forall y. exists z. (#c in z /\\ ~(z in y))"])
def test_rows_extend_when_the_universe_grows(assignment, text):
    alg, d = ps3()
    uni = build_universe(alg, 2)
    c = uni.insert({0: alg.top_i})  # already interned at rank 2
    ctx = EvalContext(uni, d, assignment)
    f = parse(text.replace("#c", f"#{c}"))
    before = ctx.value(f)
    assert before == reference_value(ctx, f, {})
    uni.insert({c: alg.top_i})  # the first name with #c as a member
    after = ctx.value(f)
    assert after == reference_value(ctx, f, {})
    assert after != before


def _skewed_ps3():
    """ps3 with a defective implication whose bottom row is not constant:
    0 -> half is half, 0 -> b is 1 otherwise."""
    alg, d = ps3()
    es = alg.elements
    table = lambda op: {(a, b): op(a, b) for a in es for b in es}  # noqa: E731
    imp = {(a, b): ("half" if (a, b) == ("0", "half") else alg.imp(a, b))
           for a in es for b in es}
    star = {a: alg.star(a) for a in es}
    skew = Algebra("skew3", es, table(alg.meet), table(alg.join), imp, "1", "0", star)
    return skew, d


@pytest.mark.parametrize("assignment", ["ba", "pa"])
def test_undecided_right_operand_is_evaluated(assignment):
    alg, d = _skewed_ps3()
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    half_seen = False
    for text in ("#0 in #0 -> x in y",
                 "forall z. (z in #0 -> z in x)",
                 "exists z. ((#0 in #0 -> x in z) /\\ z in y)"):
        f = parse(text)
        for x in uni.ids():
            for y in uni.ids():
                env = {"x": x, "y": y}
                got = ctx.value(f, dict(env))
                assert got == reference_value(ctx, f, env), text
                half_seen |= got == alg.index["half"]
    assert half_seen


@pytest.fixture(scope="module")
def ps3_six_names():
    """ps3 at rank 2 plus two inserted names, so #0..#5 all exist."""
    alg, d = ps3()
    uni = build_universe(alg, 2)
    h, t = alg.index["half"], alg.top_i
    assert (uni.insert({1: h}), uni.insert({1: t, 2: h})) == (4, 5)
    return contexts(uni, d)


@settings(max_examples=400, deadline=None)
@given(f=formula_strategy(), ids=st.tuples(*[st.integers(0, 5)] * len(VARS)))
def test_substitution_matches_env_binding(ps3_six_names, f, ids):
    env = dict(zip(VARS, ids))
    closed = f
    for var, nid in env.items():
        closed = subst_const(closed, var, nid)
    for ctx in ps3_six_names:
        assert ctx.value(closed) == ctx.value(f, env), print_formula(f)


@pytest.mark.parametrize("algname", BUILTIN_NAMES)
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_env_binding_matches_substitution_on_the_batteries(algname, assignment):
    # The checks bind battery variables through env; a counterexample prints
    # the substituted sentence, so both must have one value.
    alg, d = builtin(algname)
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    for _, phi in one_variable(uni):
        for u in uni.ids():
            assert ctx.value(phi, {"x": u}) == ctx.value(subst_const(phi, "x", u)), \
                print_formula(phi)
    for _, phi in COLLECTION.read(())[0]:
        for y in uni.ids():
            for z in uni.ids():
                closed = subst_const(subst_const(phi, "y", y), "z", z)
                assert ctx.value(phi, {"y": y, "z": z}) == ctx.value(closed), \
                    print_formula(phi)


# A constant gets one slot per scope: repeated within a scope, first used
# inside a binder and again outside it, and mixed into a row sweep with an
# free variable and the bound one.  #a and #b range over every name.
CONSTANT_SLOT_SENTENCES = [
    "#a in #b /\\ forall y. (#a in y -> exists z. (z = #a \\/ #b in z))",
    "(forall y. (y in #a \\/ #a = y)) \\/ (#a in #b /\\ ~(#b = #a))",
    "(exists y. (#b in y \\/ ~(#a in y))) /\\ (exists y. (y in #b /\\ ~(y = #a))) /\\ ~(#a = #b)",
    "forall y. forall z. (z in #b -> (y = z \\/ #b in y))",
    "exists y. (#a in y /\\ forall z. (z in #a -> (z in y /\\ ~(#b = z))))",
]


@pytest.mark.parametrize("algname", ["ps3", "chain4", "bool4"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_constant_slots_match_reference_evaluator(algname, assignment):
    alg, d = builtin(algname)
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    for text in CONSTANT_SLOT_SENTENCES:
        for a in uni.ids():
            for b in uni.ids():
                f = parse(text.replace("#a", f"#{a}").replace("#b", f"#{b}"))
                assert ctx.value(f) == reference_value(ctx, f, {}), print_formula(f)


@pytest.mark.parametrize("algname", ["ps3", "chain4", "bool4"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_held_handles_match_reference_evaluator_as_the_universe_grows(algname, assignment):
    # One handle per formula for the whole test, called with every id in a
    # new order each round, while inserts grow the universe between rounds:
    # each sweep must read rows and row classes of the universe it runs on.
    alg, d = builtin(algname)
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    rng = random.Random(f"handles-{algname}-{assignment}")
    y = Var("y")
    one = [(phi, ("x",)) for _, phi in one_variable(uni)]
    two = [(phi, ("y", "z")) for _, phi in COLLECTION.read(())[0]]
    swept = [(Exists("z", phi), ("y",)) for phi, _ in two]
    swept += [(Forall("y", Imp(Mem(y, Var("x")), f)), ("x",)) for f, _ in swept]
    handles = [(f, params, ctx.sentence(f, params)) for f, params in one + two + swept]
    for _ in range(4):
        ids = list(uni.ids())
        for f, params, h in handles:
            for args in itertools.product(ids, repeat=len(params)):
                env = dict(zip(params, args))
                assert h(*args) == reference_value(ctx, f, env), (print_formula(f), env)
            rng.shuffle(ids)
        for _ in range(2):
            members = rng.sample(range(len(uni.names)), 2)
            uni.insert({m: rng.randrange(len(alg.elements)) for m in members})


def test_a_self_atom_keeps_one_row():
    # `z in z` reads z's own slot, which holds -1 while the rows are keyed,
    # so the row does not fork on the last name the sweep bound.
    alg, d = ps3()
    uni = build_universe(alg, 2)
    ctx = EvalContext(uni, d, "pa")
    assert ctx.value(parse("forall x. exists z. (z in z \\/ z in x \\/ z = x)")) == alg.top_i
    assert sorted(key for key in ctx._rows if key[1] == 2) == [(1, 2, -1)]
    assert {key[2] for key in ctx._rows if key[1] == 0} == set(uni.ids())


# Bodies with binders are swept by signature: the rows of the swept name's
# atoms with terms bound outside the body, and the classes of its own rows
# that the inner binders read.  On ps3 at rank 3 many names share their
# rows, so a wrong signature gives a wrong value for some of them.
NESTED_SENTENCES = [
    # the inner z shadows the swept one, so only its `z in y` is a row
    "forall z. (z in y -> exists z. (z in y /\\ ~(z = y)))",
    # no row of x beside y: only the class of x's members tells x apart
    "exists x. forall z. (z in x <-> z in y)",
    # a self atom beside an inner binder that reads x's members
    "exists x. (x in x \\/ forall z. (z in x -> z in z))",
    # `->` skips the inner sweep wherever x in y is bottom
    "forall x. (x in y -> exists z. (z in x /\\ ~(z = y)))",
    # the parameter is rebound inside, and x's containers are read
    "exists x. (x = y \\/ forall y. (x in y -> ~(y in x)))",
]


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_nested_sweeps_match_reference_evaluator_on_ps3_rank3(assignment):
    alg, d = ps3()
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, assignment)
    top = alg.top_i
    # two top-rank names that no atom tells apart
    a, b = next((u, v) for u in uni.ids() for v in uni.ids()
                if u < v and uni.rank_of(u) == 3 and ctx.equality(u, v) == top)
    handles = [(parse(text), ctx.sentence(parse(text), ("y",))) for text in NESTED_SENTENCES]
    for ids in ((a, b), (b,)):
        for f, h in handles:
            for y in ids:
                assert h(y) == reference_value(ctx, f, {"y": y}), (print_formula(f), y)
        uni.insert({a: top, 255: alg.index["half"]})  # the held handles must see it


def test_a_body_that_sweeps_nothing_fills_no_rows_of_its_own():
    # Where `x in #c` is bottom, `->` skips the inner sweep: the body's value
    # is stored under that row value alone, so x's row of members is filled
    # for the members of #c and for one name besides.  The body is top
    # everywhere, so the fold never stops early.
    alg, d = ps3()
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, "pa")
    c = uni.insert({0: alg.top_i})
    f = parse(f"forall x. (x in #{c} -> exists z. (z in x \\/ ~(z in x)))")
    assert ctx.value(f) == reference_value(ctx, f, {}) == alg.top_i
    members = {x for x in uni.ids() if ctx.membership(x, c) != alg.bottom_i}
    own = {key[2] for key in ctx._rows if key[:2] == (1, 0)} - {c}
    assert len(own - members) <= 1 < len(uni) - len(members)


# Where the class tables are on, a sweep visits the first name of each class
# of interchangeable names and then every witness, not every name.  The
# reference evaluator folds over every name, so it checks that the skipped
# names add nothing to a fold and that the early stop comes out the same.


def nesting(f):
    """The deepest nesting of binders in f."""
    return max(map(nesting, children(f)), default=0) + isinstance(f, (Forall, Exists))


SHALLOW_SENTENCES = [t for t in ROW_SWEEP_SENTENCES if nesting(parse(t)) == 1]


def assert_sweeps_match_reference(ctx, texts, names):
    """Each sentence, through a held handle, at every binding of its free
    variables to `names` (a closed one once), against the reference."""
    for text in texts:
        f = parse(text)
        params = sorted(free_vars(f))
        h = ctx.sentence(f, params)
        for ids in itertools.product(names, repeat=len(params)):
            assert h(*ids) == reference_value(ctx, f, dict(zip(params, ids))), (text, ids)


def same_class_pair(ctx):
    """The first two names of the largest class of interchangeable names."""
    classes = ctx.name_classes()
    big = max(range(len(classes.sizes)), key=classes.sizes.__getitem__)
    return [u for u, c in enumerate(classes.of) if c == big][:2]


@pytest.mark.parametrize("algname", ["ps3", "chain3"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_class_visit_sweeps_match_reference_evaluator_at_rank_3(algname, assignment):
    alg, d = builtin(algname)
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, assignment)
    assert len(ctx._visit()) < len(uni)
    a, b = same_class_pair(ctx)
    last = len(uni) - 1
    deep = [t for t in ROW_SWEEP_SENTENCES + NESTED_SENTENCES if nesting(parse(t)) == 2]
    assert_sweeps_match_reference(ctx, SHALLOW_SENTENCES, [0, ctx._columns.low - 1, a, b, last])
    assert_sweeps_match_reference(ctx, deep, [b])


@pytest.mark.parametrize("algname", ["ps3", "chain4"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_class_visit_sweeps_match_reference_evaluator_on_covered_universes(algname, assignment):
    # every sentence of both lists, on universes small enough for the
    # reference to fold the deepest ones, before and after two witnesses
    alg, d = builtin(algname)
    uni = covered_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    top, n = alg.top_i, len(uni)
    assert ctx._columns.n == n and len(ctx._visit()) < n
    names = sorted({*range(0, n, 6), *same_class_pair(ctx)})
    for _ in range(2):
        assert_sweeps_match_reference(ctx, ROW_SWEEP_SENTENCES + NESTED_SENTENCES, names)
        names += [uni.insert({1: top, n - 1: top}), uni.insert({len(uni) - 1: top, 2: top})]


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_class_visit_sweeps_match_reference_evaluator_after_zfbar_witnesses(assignment):
    # one witness of each kind that zfbar-witnesses builds, on ps3 at rank 3
    alg, d = ps3()
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, assignment)
    top, meet = alg.top_i, alg.meet_t
    a, b = same_class_pair(ctx)
    x, y = b, len(uni) - 1
    pair = uni.insert({x: top, y: top})
    subset_of = ctx.sentence(parse("forall w. (w in z -> w in x)"), ("z", "x"))
    dom_x = [c for c, _ in uni.entries_of(x)]
    power = uni.insert({z: subset_of(z, x) for z in [
        uni.insert(dict(zip(dom_x, values)))
        for values in itertools.product(range(len(alg.elements)), repeat=len(dom_x))]})
    # the union of {pair, power} and a part of power, so that each is new
    u = uni.insert({pair: top, power: top})
    member_of_member = ctx.sentence(parse("exists m. (m in u /\\ x in m)"), ("x", "u"))
    dom = sorted({c for z in (pair, power) for c, _ in uni.entries_of(z)})
    union = uni.insert({c: member_of_member(c, u) for c in dom})
    empty = ctx.sentence(parse("~(exists m. m in z)"), ("z",))
    sep = uni.insert({z: meet[v][empty(z)] for z, v in uni.entries_of(power)})
    assert len({pair, union, power, sep}) == 4 and min(pair, union, power, sep) >= 256
    assert_sweeps_match_reference(ctx, [
        f"forall w. (w in #{pair} <-> (w = #{x} \\/ w = #{y}))",
        f"forall w. (w in #{union} <-> exists m. (m in #{u} /\\ w in m))",
        f"forall z. (z in #{power} <-> forall w. (w in z -> w in #{x}))",
        f"forall z. (z in #{sep} <-> (z in #{power} /\\ ~(exists m. m in z)))",
    ], [])
    assert_sweeps_match_reference(ctx, SHALLOW_SENTENCES, [a, pair, union, power, sep])
    assert_sweeps_match_reference(ctx, NESTED_SENTENCES, [power])


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_a_witness_that_names_one_name_of_a_class_keeps_the_class_visit(assignment):
    # w has a as an entry and not b, which shares a's class: `z in w` is
    # top /\ `a = z`, and `a = z` is `b = z` for every z, so w keeps a and
    # b interchangeable (no builtin at rank 3 has a witness column that no
    # class has) and the sweep still visits a alone, with every witness
    # value kept once per signature class
    alg, d = ps3()
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, assignment)
    top, half = alg.top_i, alg.index["half"]
    a, b = same_class_pair(ctx)
    w = uni.insert({a: top})
    v = uni.insert({w: top, b: half})
    visit = ctx._visit()
    assert a in visit and b not in visit and visit[-2:] == [w, v]
    signatures = ctx._columns.signatures
    assert visit[:-2] == signatures.reps
    for x in (w, v):
        assert ctx._witness(x).of is signatures.of
        assert len(ctx._witness(x).members) == len(ctx._witness(x).containers) == len(visit) - 2
    assert_sweeps_match_reference(ctx, [
        f"exists z. (z in #{w} /\\ ~(z = #{a}))",
        f"forall z. (z in #{w} -> z = #{b})",
        f"exists z. (#{w} in z /\\ z in #{v})",
        f"forall z. (z in #{v} <-> (z = #{w} \\/ z = #{a}))",
    ], [])
    assert_sweeps_match_reference(ctx, SHALLOW_SENTENCES, [a, b, w, v])
    assert_sweeps_match_reference(ctx, NESTED_SENTENCES, [w])


def witness_grown(algname, assignment):
    """(context, names): algname's universe at rank 3 grown by two pair
    witnesses and a witness of a witness, and names to bind: two of one
    class of interchangeable names, the witnesses and a low name."""
    alg, d = builtin(algname)
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, assignment)
    top = alg.top_i
    a, b = same_class_pair(ctx)
    pair = uni.insert({a: top, len(uni) - 1: top})
    other = uni.insert({1: top, b: top})
    up = uni.insert({pair: top, other: top, a: top})
    return ctx, [a, b, pair, other, up, 1]


@pytest.mark.parametrize("algname", ["ps3", "chain3"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_sweep_rows_hold_one_value_per_visited_name(algname, assignment):
    # with the tables on, a row holds its values at the names a sweep
    # visits, read from the class rows and the witnesses' values by class
    ctx, names = witness_grown(algname, assignment)
    n = len(ctx.universe)
    assert_sweeps_match_reference(ctx, SHALLOW_SENTENCES, names)
    visit = ctx._visit()
    assert ctx._covered is ctx._columns.signatures and len(visit) < n
    eq, mem = reference_clauses(ctx)
    assert ctx._rows
    for (rel, side, t), row in ctx._rows.items():
        assert len(row) <= len(visit), (rel, side, t)
        for z, value in zip(visit, row):
            u, v = (t, z) if side == _Z_RIGHT else (z, z) if side == _Z_BOTH else (z, t)
            assert value == (eq if rel == _REL_EQ else mem)(u, v), (rel, u, v)
    for t in names:  # the clauses still answer at every name
        for z in range(n):
            assert ctx.equality(t, z) == eq(t, z), ("=", t, z)
            assert ctx.membership(t, z) == mem(t, z), ("in", t, z)


@pytest.mark.parametrize("algname", ["ps3", "chain3"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_a_wrong_class_cell_that_only_a_sweep_reads_fails_the_reference(algname, assignment):
    # `d = a` for a low d and a top-level a is read by the clause at
    # eq[of[d]][of[a]], and by the sweep row of `z = a` at eq[of[a]][of[d]]:
    # planted there, `a = a`'s value makes d's row value the one of a's
    # class, whose body value the sweep then takes from d
    ctx, names = witness_grown(algname, assignment)
    a, tables = names[0], ctx._columns
    c = tables.of[a]
    d = next(x for x in range(tables.low) if ctx.equality(x, a) != ctx.equality(a, a))
    tables.eq[c][d] = tables.eq[c][c]
    sentences = ["exists z. z = x", "forall z. ~(z = x)"]
    assert ctx.equality(d, a) == ctx.equality(a, d) != tables.eq[c][d]
    with pytest.raises(AssertionError):
        assert_sweeps_match_reference(ctx, sentences, [a])


# -- the atomic clauses against a direct transcription ------------------------------


def reference_clauses(ctx):
    """(equality, membership) transcribed from the two clauses with no store
    and no mid-side exit: equality stops only between its sides, once it is
    bottom, and membership once it is top.  Both are cached by argument
    pair, which only saves repeated work."""
    alg, names = ctx.algebra, ctx.universe.names
    meet, join, imp, star = alg.meet_t, alg.join_t, alg.imp_t, alg.star_t
    pa = ctx.assignment == "pa"

    @functools.cache
    def eq(u, v):
        if u > v:
            u, v = v, u
        acc = alg.top_i
        for hi, lo in ((u, v), (v, u)):
            for x, ux in names[hi].entries:
                m = mem(x, lo)
                c = imp[ux][m]
                if pa:
                    c = meet[c][imp[star[m]][star[ux]]]
                acc = meet[acc][c]
            if acc == alg.bottom_i:
                break
        return acc

    @functools.cache
    def mem(u, v):
        acc = alg.bottom_i
        for x, vx in names[v].entries:
            acc = join[acc][meet[vx][eq(x, u)]]
            if acc == alg.top_i:
                break
        return acc

    return eq, mem


def assert_clauses_match_reference(ctx):
    eq, mem = reference_clauses(ctx)
    for u in ctx.universe.ids():
        for v in ctx.universe.ids():
            assert ctx.equality(u, v) == eq(u, v), ("=", u, v)
            assert ctx.membership(u, v) == mem(u, v), ("in", u, v)


@pytest.mark.parametrize("algname", BUILTIN_NAMES)
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_atomic_clauses_match_reference_clauses(algname, assignment):
    alg, d = builtin(algname)
    assert_clauses_match_reference(EvalContext(build_universe(alg, 2), d, assignment))


def covered_universe(alg, rank):
    """A universe whose top-level names the class tables cover.  At rank 3
    it is the enumerated one.  At rank 2 the tables are never built (one
    low name, so nothing to gain); there the whole rank-2 level serves as
    the low names of a universe of bound 3, whose top-level names are every
    name of one entry and every name on the last two low names."""
    if rank > 2:
        return build_universe(alg, rank)
    low, uni = build_universe(alg, 2), Universe(alg, 3)
    for nid in low.ids():
        uni.insert(low.entries_of(nid))
    values = range(len(alg.elements))
    for x in low.ids():
        for a in values:
            uni.insert({x: a})
    last = len(low) - 2, len(low) - 1
    for a, b in itertools.product(values, repeat=2):
        uni.insert(dict(zip(last, (a, b))))
    return uni


@pytest.mark.parametrize("algname, rank", [(name, 2) for name in BUILTIN_NAMES]
                         + [("ps3", 3), ("chain3", 3)])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_class_derived_atoms_match_reference_clauses(algname, rank, assignment):
    alg, d = builtin(algname)
    uni = covered_universe(alg, rank)
    ctx = EvalContext(uni, d, assignment)
    columns = ctx._columns
    assert columns.low >= 2 and columns.n == len(uni)
    eq, mem, of = *reference_clauses(ctx), columns.of
    for u in uni.ids():
        for v in uni.ids():
            if max(u, v) >= columns.low:  # two low names take the clause
                assert columns.eq[of[u]][of[v]] == eq(u, v), ("=", u, v)
                assert columns.mem[of[v]][of[u]] == mem(u, v), ("in", u, v)


@pytest.mark.parametrize("algname, rank", [(name, 2) for name in BUILTIN_NAMES]
                         + [("ps3", 3), ("chain3", 3), ("bool4", 3)])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_folded_columns_match_reference_clauses(algname, rank, assignment):
    # a top-level name's columns come from the passes down the prefix
    # arrays, the engine answers every low x top pair from the class rows,
    # and the columns the tables know are those of the covered names
    alg, d = builtin(algname)
    uni = covered_universe(alg, rank)
    ctx = EvalContext(uni, d, assignment)
    columns, low = ctx._columns, ctx._columns.low
    assert low >= 2 and columns.n == len(uni)
    eq, mem, of = *reference_clauses(ctx), columns.of
    for v in range(low, len(uni)):
        for x in range(low):
            assert ctx.equality(x, v) == ctx.equality(v, x) == eq(x, v), ("=", x, v)
            assert ctx.membership(x, v) == mem(x, v), ("in", x, v)
            assert ctx.membership(v, x) == mem(v, x), ("in", v, x)
    eq_cols = [tuple(eq(x, v) for x in range(low)) for v in uni.ids()]
    in_cols = [tuple(mem(x, v) for x in range(low)) for v in uni.ids()]
    for v in range(low, len(uni)):  # the low names are the first classes
        assert tuple(columns.eq[of[v]][:low]) == eq_cols[v], ("=", v)
        assert tuple(columns.mem[of[v]][:low]) == in_cols[v], ("in", v)
    assert list(columns.columns[_REL_EQ]) == list(dict.fromkeys(eq_cols))
    assert list(columns.columns[_REL_MEM]) == list(dict.fromkeys(in_cols))


def per_entry_folds(ctx):
    """(half_cell, member_cell): a name's cell of a class, folded from the
    clause over its entries one at a time.  half_cell(u, col) is u's half
    of `u = v` for a v with membership column col, and member_cell(v, col)
    is `u in v` for a u with equality column col."""
    alg, names = ctx.algebra, ctx.universe.names
    meet, join, imp, star = alg.meet_t, alg.join_t, alg.imp_t, alg.star_t

    def factor(a, m):
        c = imp[a][m]
        return meet[c][imp[star[m]][star[a]]] if ctx.assignment == "pa" else c

    def half_cell(u, col):
        acc = alg.top_i
        for x, a in names[u].entries:
            acc = meet[acc][factor(a, col[x])]
        return acc

    def member_cell(v, col):
        acc = alg.bottom_i
        for x, a in names[v].entries:
            acc = join[acc][meet[a][col[x]]]
        return acc

    return half_cell, member_cell


def reference_route(ctx):
    """The differences between ctx's class tables and the signature
    computed from every cell: each covered name's membership and equality
    columns over the low names, its halves at every membership column and
    its memberships at every equality column, through the clauses one name
    at a time (`reference_clauses`, `per_entry_folds`), and its class of
    equal signatures, the low names each alone.  A difference names what
    differs, the first name with a wrong class or else every name with
    wrong columns or cells; none is found where the tables are right."""
    tables = ctx._columns
    low, n, of = tables.low, tables.n, tables.of
    eq, mem = reference_clauses(ctx)
    half_cell, member_cell = per_entry_folds(ctx)
    in_col = [tuple(mem(x, v) for x in range(low)) for v in range(n)]
    eq_col = [tuple(eq(x, v) for x in range(low)) for v in range(n)]
    in_cols, eq_cols = list(dict.fromkeys(in_col)), list(dict.fromkeys(eq_col))
    halves = [tuple(half_cell(v, col) for col in in_cols) for v in range(n)]
    members = [tuple(member_cell(v, col) for col in eq_cols) for v in range(n)]
    signatures = NameClasses.by_key(itertools.chain(
        range(-low, 0), zip(halves[low:], members[low:])))
    out = [("classes", v) for v in range(n) if of[v] != signatures.of[v]][:1]
    # the low names are the first classes, so a class's row of each table
    # begins with its names' column
    out += [("columns", v) for v in range(low, n)
            if (tuple(tables.eq[of[v]][:low]), tuple(tables.mem[of[v]][:low]))
            != (eq_col[v], in_col[v])]
    for rel, cols, cells, by_class in ((_REL_MEM, in_cols, halves, tables.halves),
                                       (_REL_EQ, eq_cols, members, tables.members)):
        known = tables.columns[rel]
        if set(known) != set(cols):
            out.append(("columns", rel))
        else:
            out += [("cells", rel, v) for v in range(n)
                    if tuple(by_class[of[v]][known[col]] for col in cols) != cells[v]]
    return out


@pytest.mark.parametrize("algname, rank", [(name, 2) for name in BUILTIN_NAMES]
                         + [("ps3", 3), ("chain3", 3), ("bool4", 3), ("bool2", 3),
                            ("chain4", 3)])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_class_cells_match_per_entry_folds(algname, rank, assignment):
    # the tables find each name's cells and class by transition, one move
    # per (state, last entry) of a pass down the prefix arrays; every cell
    # of every name must be the clause's fold over its entries, and every
    # column and class the one the reference route gives
    alg, d = builtin(algname)
    uni = covered_universe(alg, rank)
    ctx = EvalContext(uni, d, assignment)
    assert ctx._columns.n == len(uni)
    assert reference_route(ctx) == []


@pytest.mark.parametrize("target", [0, 1, 2])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_a_planted_wrong_step_fails_the_reference_route(monkeypatch, target, assignment):
    # one step of one pass made wrong (the memberships at the low names'
    # equality classes, the halves, the memberships): at the pass's first
    # column, the move of the last name's prefix's cell by its last entry,
    # and with it that name's (state, last entry) transition
    alg, d = ps3()
    uni = build_universe(alg, 3)
    half_cell, member_cell = per_entry_folds(EvalContext(uni, d, assignment))
    last, k = len(uni) - 1, len(alg.elements)
    x, a = uni.entries_of(last)[-1]
    run_pass, steps, firsts = ColumnClasses._pass, ColumnClasses._steps, []

    def counted_pass(self, rel, cols):
        firsts.append(cols[0])
        return run_pass(self, rel, cols)

    def wrong_steps(self, rel, col):
        out = steps(self, rel, col)
        if len(firsts) == target + 1 and col is firsts[-1]:
            h = (half_cell if rel == _REL_MEM else member_cell)(self.universe.prefix[last], col)
            out[h][x * k + a] = (out[h][x * k + a] + 1) % k
        return out

    monkeypatch.setattr(ColumnClasses, "_pass", counted_pass)
    monkeypatch.setattr(ColumnClasses, "_steps", wrong_steps)
    ctx = EvalContext(uni, d, assignment)
    assert len(firsts) == 3 and reference_route(ctx) != []


@pytest.mark.parametrize("prefix", ["before", "after", "never"])
@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_a_covered_name_without_its_prefix_below_keeps_the_clauses(prefix, assignment):
    # {x: half, y: one} folds from the cells of {x: half}, its prefix; the
    # tables are on only where that name is interned below it
    alg, d = ps3()
    low, uni = build_universe(alg, 2), Universe(alg, 3)
    for nid in low.ids():
        uni.insert(low.entries_of(nid))
    x, y = len(low) - 2, len(low) - 1
    half, one = alg.index["half"], alg.top_i
    uni.insert({y: one})
    if prefix == "before":
        uni.insert({x: half})
    v = uni.insert({x: half, y: one})
    if prefix == "after":
        uni.insert({x: half})
    p = uni.prefix[v]
    assert {"before": 0 <= p < v, "after": p == -1, "never": p == -1}[prefix]
    ctx = EvalContext(uni, d, assignment)
    assert ctx._columns.n == (len(uni) if prefix == "before" else 0)
    assert_clauses_match_reference(ctx)


def _skewed_imp_ps3():
    """ps3's lattice and star with an implication table that keeps no law,
    on which a witness's column splits the signature classes."""
    alg, d = ps3()
    es = alg.elements
    table = lambda op: {(a, b): op(a, b) for a in es for b in es}  # noqa: E731
    imp = {("0", "0"): "half", ("0", "1"): "0", ("0", "half"): "1", ("1", "0"): "1",
           ("1", "1"): "0", ("1", "half"): "0", ("half", "0"): "0", ("half", "1"): "1",
           ("half", "half"): "0"}
    return Algebra("skew-imp3", es, table(alg.meet), table(alg.join), imp, "1", "0",
                   {a: alg.star(a) for a in es}), d


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_witnesses_past_the_classes_of_the_tables_match_the_clauses(assignment):
    # Few top-level names, so the columns of {#4: 1, #10: 1} over the low
    # names are, under ba, no class of the tables: its cells at them are
    # folded anew, and from then on the covered names go one by one.
    # Every value with a witness name, and every row of one, must be the
    # clause's.
    alg, d = _skewed_imp_ps3()
    uni = covered_universe(alg, 2)
    ctx = EvalContext(uni, d, assignment)
    tables, top = ctx._columns, alg.top_i
    assert tables.n == len(uni)
    w = uni.insert({4: top, 10: top})
    v = uni.insert({w: top})
    others = [uni.insert({x: top, y: top}) for x, y in itertools.combinations(range(4, 22, 3), 2)]
    eq, mem = reference_clauses(ctx)
    if assignment == "ba":
        assert list(ctx._witness(w).of) == list(ctx._witness(v).of) == list(range(tables.n))
        sig = tables.signatures.of
        # two names of one signature class that w's columns set apart, as
        # the entries of one witness
        x, y = next((x, y) for x, y in itertools.combinations(range(tables.n), 2)
                    if sig[x] == sig[y] and mem(x, v) != mem(y, v))
        others.append(uni.insert({x: top, y: top}))
    for t in [w, v] + others:
        for z in uni.ids():
            assert ctx.equality(z, t) == ctx.equality(t, z) == eq(z, t), ("=", z, t)
            assert ctx.membership(z, t) == mem(z, t), ("in", z, t)
            assert ctx.membership(t, z) == mem(t, z), ("in", t, z)
    for text in (f"exists z. forall y. (y in z -> y in #{v})",
                 f"forall z. exists y. (z in y /\\ ~(y = #{w}))",
                 f"exists z. forall y. (z = y -> #{w} in y)"):
        f = parse(text)
        assert ctx.value(f) == reference_value(ctx, f, {}), text
    # sweeps whose rows set apart names of one signature class
    assert_sweeps_match_reference(ctx, SHALLOW_SENTENCES, [w, v] + others)
    # under ba, y differs from x, the first name of its signature class,
    # only in `y in v`, which these folds read
    assert_sweeps_match_reference(
        ctx, [f"exists z. (~(z in #{t}) -> ~(z in #{v}))" for t in others], [])
    # a sweep visits the first name of each class of names that are
    # interchangeable beside the witnesses, and every witness: under ba,
    # after the split, every covered name and then the witnesses
    visit, classes = ctx._visit(), ctx._covered
    assert visit == [*classes.reps, *range(tables.n, len(uni))]
    assert (visit == list(uni.ids())) == (assignment == "ba")
    for z in range(tables.n):
        r = classes.reps[classes.of[z]]
        for x in uni.ids():
            assert ctx.equality(z, x) == ctx.equality(r, x), ("=", z, x)
            assert ctx.membership(z, x) == ctx.membership(r, x), ("in", z, x)
        assert [mem(x, z) for x in uni.ids()] == [mem(x, r) for x in uni.ids()], z


def test_lattice_verdict_computed_once_per_algebra(monkeypatch):
    # the tables of every assignment and rank read one verdict per algebra
    calls = []
    laws = algebra._laws
    monkeypatch.setattr(algebra, "_laws", lambda alg: calls.append(alg.name) or laws(alg))
    alg, d = ps3()
    uni = build_universe(alg, 3)
    for assignment in ASSIGNMENTS * 2:
        assert EvalContext(uni, d, assignment)._columns.n == len(uni)
    assert calls == ["ps3"]


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_a_meet_that_is_no_lattice_s_keeps_the_clauses(assignment):
    alg, d = _skewed_meet_ps3()
    ctx = EvalContext(covered_universe(alg, 3), d, assignment)
    assert ctx._columns.n == 0  # no name covered
    assert_clauses_match_reference(ctx)


def patch_atoms(monkeypatch, rel, change, at):
    """Make the value of rel ('=' or 'in') at each pair (u, v) where
    at(u, v) holds `change(ctx, value)`, where the engine asks the clause
    (`EvalContext.equality` or `membership`).  For '=', `at` must hold at
    (v, u) wherever it holds at (u, v).

    The readers that go by classes of interchangeable names ask each class
    at its first name.  A changed value no longer answers alike for every
    name of a class, as a changed cell of the tables would not, so each
    name of a changed pair is set in a class of its own
    (`EvalContext.name_classes`)."""
    name = "equality" if rel == "=" else "membership"
    clause, name_classes = getattr(EvalContext, name), EvalContext.name_classes

    def patched(self, u, v):
        value = clause(self, u, v)
        return change(self, value) if at(u, v) else value

    def patched_classes(self):
        classes = name_classes(self)
        n = len(classes.of)
        return classes.apart({x for u in range(n) for v in range(n) if at(u, v) for x in (u, v)})

    monkeypatch.setattr(EvalContext, name, patched)
    monkeypatch.setattr(EvalContext, "name_classes", patched_classes)


def stored_values(memo):
    """Every value set in an atomic store, as ((rel, u, v), value), with
    u <= v for `=`."""
    for rel, rows in zip(("=", "in"), memo):
        for key, row in rows.items():
            unset = (1 << 8 * row.itemsize) - 1
            for i, value in enumerate(row):
                if value != unset:
                    yield (rel, i, key), value


def tracked_contexts(monkeypatch):
    """A list that every EvalContext made from now on joins."""
    made = []
    init = EvalContext.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(EvalContext, "__init__", tracked)
    return made


@pytest.mark.parametrize("algname, rank",
                         [(name, 2) for name in BUILTIN_NAMES] + [("ps3", 3)])
def test_shared_store_matches_reference_clauses_after_all_checks(algname, rank, monkeypatch):
    # the loop of run_all, with every context kept to read its own store
    # afterwards, witness values included
    alg, d = builtin(algname)
    made = tracked_contexts(monkeypatch)
    run = Run(alg, d, rank)
    results = {name: run_check(name, run) for name in CHECKS}
    enumerated = len(run.universe)
    checked = witnesses = 0
    for ctx in made:
        eq, mem = reference_clauses(ctx)
        for (rel, u, v), value in stored_values(ctx._memo):
            assert rel == "in" or u <= v, ("eq rows are keyed by the larger id", u, v)
            assert value == (eq if rel == "=" else mem)(u, v), (ctx.assignment, rel, u, v)
            checked += 1
            if ctx.algebra is alg:
                witnesses += max(u, v) >= enumerated
    assert checked and (witnesses or results["zfbar-witnesses"].verdict == "skipped")


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_diagonal_sweeps_leave_covered_pairs_out_of_the_store(assignment):
    # A sweep of `z = z` or `z in z` asks the clause on each diagonal pair;
    # the tables answer the covered ones, and their values stay out of the
    # store, which would otherwise grow row z to z + 1 cells.
    alg, d = builtin("chain4")
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, assignment)
    low, n = ctx._columns.low, ctx._columns.n
    assert 2 <= low < n == len(uni)
    eq, mem = reference_clauses(ctx)
    star = alg.star_t
    reflexive = ctx.value(parse("forall x. x = x"))
    irreflexive = ctx.value(parse("forall x. ~(x in x)"))
    assert [(rel, u, v) for (rel, u, v), _ in stored_values(ctx._memo) if v >= low] == []
    assert reflexive == functools.reduce(lambda a, z: alg.meet_t[a][eq(z, z)], uni.ids(),
                                         alg.top_i)
    assert irreflexive == functools.reduce(lambda a, z: alg.meet_t[a][star[mem(z, z)]],
                                           uni.ids(), alg.top_i)
    names = list(range(low)) + [low, low + 1, n // 3, n // 2, n - 2, n - 1]
    for u in names:
        for v in names:
            assert ctx.equality(u, v) == eq(u, v), ("=", u, v)
            assert ctx.membership(u, v) == mem(u, v), ("in", u, v)
    assert [(rel, u, v) for (rel, u, v), _ in stored_values(ctx._memo) if v >= low] == []


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_clauses_match_reference_past_one_byte(assignment):
    alg, d = builtin("chain300")
    ctx = EvalContext(build_universe(alg, 2), d, assignment)
    assert_clauses_match_reference(ctx)
    assert max(value for _, value in stored_values(ctx._memo)) >= 255


def _skewed_meet_ps3():
    """ps3 with a defective meet whose bottom row is not constant:
    0 /\\ 1 is half, so an equality that reaches bottom mid-side can rise."""
    alg, d = ps3()
    es = alg.elements
    table = lambda op: {(a, b): op(a, b) for a in es for b in es}  # noqa: E731
    meet = {(a, b): ("half" if (a, b) == ("0", "1") else alg.meet(a, b))
            for a in es for b in es}
    star = {a: alg.star(a) for a in es}
    skew = Algebra("skew-meet3", es, meet, table(alg.join), table(alg.imp), "1", "0", star)
    return skew, d


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_atomic_clauses_match_reference_on_a_skewed_meet(assignment):
    alg, d = _skewed_meet_ps3()
    uni = build_universe(alg, 2)
    # names with two entries, so each side of an equality has a middle
    for pair in itertools.combinations(range(len(uni.names)), 2):
        for values in itertools.product(range(len(alg.elements)), repeat=2):
            uni.insert(dict(zip(pair, values)))
    assert_clauses_match_reference(EvalContext(uni, d, assignment))


# -- sweep counters ------------------------------------------------------------------


def test_extensionality_bar_runs_one_inner_sweep_per_column_pair():
    # ps3 at rank 3: 256 names, 27 distinct membership columns.  The body of
    # forall x runs once per class of x, so forall y runs at most 27 times;
    # its body runs once per class of y beside x, and each of those runs
    # sweeps the inner forall z once, so z is swept at most 27 * 27 times.
    alg, d = ps3()
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, "pa")
    columns = {tuple(ctx.membership(x, v) for x in uni.ids()) for v in uni.ids()}
    assert len(columns) == 27
    assert ctx.holds(instantiate_axiom("ExtensionalityBar"))
    assert ctx.sweeps_run <= 1 + 27 + 27 * 27


def test_extensionality_bar_visits_one_name_per_class():
    # 27 top-level classes and the 4 low names of ps3 at rank 3 under pa
    alg, d = ps3()
    uni = build_universe(alg, 3)
    ctx = EvalContext(uni, d, "pa")
    assert len(ctx._visit()) == 31
    assert ctx.holds(instantiate_axiom("ExtensionalityBar"))
    assert 0 < ctx.names_swept <= 31 * ctx.sweeps_run


def test_a_sweep_without_the_tables_visits_every_name():
    # `z in #1 /\ false` is bottom everywhere, so the fold never stops early
    f = parse("exists z. (z in #1 /\\ false)")
    alg, d = ps3()
    uni = build_universe(alg, 2)
    uni.insert({1: alg.top_i, 2: alg.top_i})
    ctx = EvalContext(uni, d, "pa")
    assert ctx._columns.n == 0 and ctx.value(f) == alg.bottom_i
    assert (ctx.sweeps_run, ctx.names_swept) == (1, len(uni))
    # with the tables on, the same sweep visits one name per class while
    # no witness brings a column that no class has
    uni = covered_universe(alg, 2)
    last = len(uni) - 1
    uni.insert({0: alg.top_i, last: alg.top_i})
    ctx = EvalContext(uni, d, "pa")
    assert ctx._columns.n == len(uni) - 1 and ctx.value(f) == alg.bottom_i
    classes = len(ctx._columns.signatures.reps)
    assert ctx.names_swept == classes + 1 < len(uni)
    # and every name once one does: {#1: 1, last: 1} has such a column
    uni.insert({1: alg.top_i, last: alg.top_i})
    assert ctx.value(f) == alg.bottom_i
    assert ctx.names_swept == classes + 1 + len(uni)
