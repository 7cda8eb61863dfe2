import pytest
from test_evaluate import patch_atoms

from algval.algebra import boolean_algebra, builtin, ps3
from algval.errors import InputError, InvariantError
from algval.evaluate import EvalContext
from algval.formulas import Eq, Exists, Forall, Mem, Not, Var
from algval.quotient import build_quotient, export_relations, quotient_satisfies
from algval.theorems import Run, check_connective_theorem, run_check
from algval.universe import build_universe


def pa_context(algname, rank):
    alg, d = builtin(algname)
    uni = build_universe(alg, rank)
    return EvalContext(uni, d, "pa")


def class_of(qm):
    """The quotient class of each name, by name."""
    return {u: i for i, cls in enumerate(qm.classes) for u in cls}


def brute_classes(ctx):
    """Oracle: group names by their set of designated-equality partners."""
    n = len(ctx.universe.names)
    d = ctx.designated_i
    partners = {u: frozenset(v for v in range(n) if ctx.equality(u, v) in d)
                for u in range(n)}
    groups = {}
    for u in range(n):
        groups.setdefault(partners[u], []).append(u)
    return sorted(sorted(g) for g in groups.values())


@pytest.fixture(scope="module")
def qm():
    return build_quotient(pa_context("ps3", 2))


class TestBuild:
    def test_ps3_rank2_has_three_classes(self):
        ctx = pa_context("ps3", 2)
        qm = build_quotient(ctx)
        assert len(qm) == 3
        # the zero-weight singleton collapses onto the empty name
        assert qm.classes[0][0] == 0 and len(qm.classes[0]) == 2

    def test_two_element_algebra_rank2_has_two_classes(self):
        ctx = pa_context("bool2", 2)
        assert len(build_quotient(ctx)) == 2

    def test_rank1_is_a_single_class(self):
        ctx = pa_context("ps3", 1)
        assert len(build_quotient(ctx)) == 1

    @pytest.mark.parametrize("algname,rank", [("ps3", 2), ("chain4", 2),
                                              ("bool2", 3)])
    def test_union_find_matches_brute_partition(self, algname, rank):
        ctx = pa_context(algname, rank)
        qm = build_quotient(ctx)
        assert [list(c) for c in qm.classes] == brute_classes(ctx)

    def test_representatives_are_lowest_ids(self):
        ctx = pa_context("ps3", 2)
        qm = build_quotient(ctx)
        assert qm.representatives == [min(c) for c in qm.classes]

    def test_requires_pa(self):
        alg, d = ps3()
        uni = build_universe(alg, 2)
        with pytest.raises(InputError, match="pa"):
            build_quotient(EvalContext(uni, d, "ba"))

    def test_non_two_valued_equality_is_an_invariant_violation(self):
        alg, d = boolean_algebra(2)
        uni = build_universe(alg, 2)
        with pytest.raises(InvariantError, match="two-valued"):
            build_quotient(EvalContext(uni, d, "pa"))

    def test_computes_no_atomic_value_on_ps3_rank3(self):
        # the pairs of classes not both low are read from the class tables,
        # and the pairs of two low names from the store their build filled
        ctx = pa_context("ps3", 3)
        fills = ctx.atomic_fills
        assert len(build_quotient(ctx)) == 27
        assert ctx.atomic_fills == fills

    def test_asks_each_pair_of_classes_once_on_ps3_rank3(self, monkeypatch):
        # a clean universe is partitioned by its classes of names alone,
        # with no pass over single names after it: 2k² clause calls, each
        # at two first names of classes
        ctx = pa_context("ps3", 3)
        reps = ctx.name_classes().reps
        assert len(reps) < len(ctx.universe)
        calls = []
        for name in ("equality", "membership"):
            engine = getattr(EvalContext, name)

            def counted(self, u, v, name=name, engine=engine):
                calls.append((name, u, v))
                return engine(self, u, v)
            monkeypatch.setattr(EvalContext, name, counted)
        assert len(build_quotient(ctx)) == 27
        assert len(calls) == 2 * len(reps) ** 2
        assert set(calls) == {(name, u, v) for name in ("equality", "membership")
                              for u in reps for v in reps}

    @pytest.mark.parametrize("rank", [2, 3])
    def test_one_wrong_membership_off_the_representatives_is_caught(
            self, monkeypatch, rank):
        # Flip `u in #0` for one top-rank name u that represents no class.
        # No name's domain holds u, so no other atomic value reads the
        # flipped one, and only the well-definedness sweep can see it.
        reps = set(build_quotient(pa_context("ps3", rank)).representatives)
        ctx = pa_context("ps3", rank)
        uni = ctx.universe
        u = max(nid for nid in range(len(uni)) if nid not in reps)
        assert uni.rank_of(u) == rank
        alg, d = ctx.algebra, ctx.designated_i
        patch_atoms(monkeypatch, "in",
                    lambda _, value: alg.bottom_i if value in d else alg.top_i,
                    lambda a, b: (a, b) == (u, 0))
        with pytest.raises(InvariantError, match="representatives"):
            build_quotient(ctx)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_one_wrong_membership_in_another_representative_is_caught(
            self, monkeypatch, rank):
        # Flip `u in c`, c the representative of a class other than u's:
        # only u's verdicts against its representative's tell the break.
        qm = build_quotient(pa_context("ps3", rank))
        of = class_of(qm)
        u = max(nid for nid in of if nid not in qm.representatives)
        c = max(r for r in qm.representatives if of[r] != of[u])
        ctx = pa_context("ps3", rank)
        alg, d = ctx.algebra, ctx.designated_i
        patch_atoms(monkeypatch, "in",
                    lambda _, value: alg.bottom_i if value in d else alg.top_i,
                    lambda a, b: (a, b) == (u, c))
        with pytest.raises(InvariantError, match=f"at \\(#{u}, #{c}\\), member substitution"):
            build_quotient(ctx)


class TestRelations:
    def test_equality_is_the_identity(self, qm):
        k = len(qm)
        assert qm.r_eq == {(i, i) for i in range(k)}

    def test_distinct_is_the_complement(self, qm):
        k = len(qm)
        assert qm.r_neq == {(i, j) for i in range(k) for j in range(k)} - qm.r_eq

    def test_membership_covers_all_pairs(self, qm):
        k = len(qm)
        assert qm.r_mem | qm.r_nmem == {(i, j) for i in range(k) for j in range(k)}

    def test_membership_overlap_witness(self, qm):
        overlap = qm.r_mem & qm.r_nmem
        assert overlap
        # the half-weight singleton over the empty name both contains and
        # does not contain the empty class
        half_class, empty_class = class_of(qm)[2], class_of(qm)[0]
        assert (empty_class, half_class) in overlap


class TestSatisfaction:
    def test_reflexive(self, qm):
        for i in range(len(qm)):
            assert quotient_satisfies(qm, Eq(Var("x"), Var("y")), [i, i])

    def test_membership_and_its_negation_both_satisfied(self, qm):
        i, j = class_of(qm)[0], class_of(qm)[2]
        assert quotient_satisfies(qm, Mem(Var("x"), Var("y")), [i, j])
        assert quotient_satisfies(qm, Not(Mem(Var("x"), Var("y"))), [i, j])

    def test_distinct_iff_not_equal(self, qm):
        for i in range(len(qm)):
            for j in range(len(qm)):
                eq = quotient_satisfies(qm, Eq(Var("x"), Var("y")), [i, j])
                neq = quotient_satisfies(qm, Not(Eq(Var("x"), Var("y"))), [i, j])
                assert neq == (not eq)

    def test_representative_choice_is_immaterial(self, qm):
        ctx = qm.context
        d = ctx.designated_i
        for i, ci in enumerate(qm.classes):
            for j, cj in enumerate(qm.classes):
                verdicts = {(ctx.membership(u, v) in d) for u in ci for v in cj}
                assert len(verdicts) == 1

    def test_arity_checked(self, qm):
        with pytest.raises(InputError, match="free variables"):
            quotient_satisfies(qm, Eq(Var("x"), Var("y")), [0])
        with pytest.raises(InputError, match="class"):
            quotient_satisfies(qm, Eq(Var("x"), Var("y")), [0, 99])

    def test_closed_formulas_take_no_arguments(self, qm):
        assert quotient_satisfies(qm, Forall("x", Eq(Var("x"), Var("x"))), [])
        assert quotient_satisfies(
            qm, Exists("x", Exists("y", Mem(Var("x"), Var("y")))), [])


class TestChecks:
    @pytest.mark.parametrize("algname", ["ps3", "chain4"])
    def test_quotient_check_passes(self, algname):
        alg, d = builtin(algname)
        result = run_check("quotient", Run(alg, d, rank_bound=2))
        assert result.verdict == "pass"
        assert result.details["membership_overlap"]

    def test_ps3_class_count_detail(self):
        alg, d = ps3()
        result = run_check("quotient", Run(alg, d, rank_bound=2))
        assert result.details["classes"] == 3

    def test_connective_clauses(self):
        alg, d = ps3()
        run = Run(alg, d, rank_bound=2)
        qm = run.quotient
        counterexample, details = check_connective_theorem(run, min(qm.r_mem & qm.r_nmem))
        assert counterexample is None
        failure = details["negation_converse_failure"]
        assert failure["classes"]

    def test_skipped_without_ultra_designated(self):
        alg, d = builtin("bool4")
        assert run_check("quotient", Run(alg, d)).verdict == "skipped"


class TestExport:
    def test_format(self):
        qm = build_quotient(pa_context("ps3", 2))
        text = export_relations(qm)
        lines = text.strip().splitlines()
        assert lines[0].startswith("class [0] = #0")
        assert "eq [0] [0]" in lines
        assert any(line.startswith("mem [") for line in lines)
        assert any(line.startswith("nmem [") for line in lines)
        # every name appears in exactly one class line
        members = [tok for line in lines if line.startswith("class")
                   for tok in line.split("=")[1].split()]
        assert sorted(members) == sorted(f"#{i}" for i in range(4))
