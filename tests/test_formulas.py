import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algval.errors import InputError
from algval.formulas import (
    MAX_NESTING,
    And,
    Bot,
    Const,
    Eq,
    Exists,
    Forall,
    Imp,
    Mem,
    Not,
    Or,
    Top,
    Var,
    bound_vars,
    enumerate_formulas,
    free_vars,
    iff,
    instantiate_axiom,
    is_negation_free,
    parse,
    print_formula,
    rename_var,
    subst_const,
    subformulas,
)
from algval.proplogic import PVar
from algval.theorems import COLLECTION, NEGATION_FREE, ONE_VARIABLE


class TestParsing:
    def test_quantified_implication(self):
        f = parse("forall x. (x in #5 -> x = #5)")
        assert f == Forall("x", Imp(Mem(Var("x"), Const(5)), Eq(Var("x"), Const(5))))

    def test_negated_atom(self):
        assert parse("~(p in q)") == Not(Mem(Var("p"), Var("q")))

    def test_paraconsistency_witness(self):
        f = parse("exists x. exists y. (x in y /\\ ~(x in y))")
        want = Exists("x", Exists("y", And(Mem(Var("x"), Var("y")),
                                           Not(Mem(Var("x"), Var("y"))))))
        assert f == want

    def test_precedence(self):
        f = parse("a in b /\\ c in d \\/ e in f -> g in h")
        assert isinstance(f, Imp)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)

    def test_imp_right_associative(self):
        f = parse("a = a -> b = b -> c = c")
        assert isinstance(f, Imp) and isinstance(f.right, Imp)

    def test_not_binds_tightest(self):
        f = parse("~a in b /\\ c in d")
        assert isinstance(f, And) and isinstance(f.left, Not)

    def test_iff_desugars(self):
        f = parse("a in b <-> b in a")
        assert f == iff(Mem(Var("a"), Var("b")), Mem(Var("b"), Var("a")))

    def test_bounded_quantifier_sugar(self):
        f = parse("forall x in #1. x = x")
        assert f == Forall("x", Imp(Mem(Var("x"), Const(1)), Eq(Var("x"), Var("x"))))
        g = parse("exists x in #1. x = x")
        assert g == Exists("x", And(Mem(Var("x"), Const(1)), Eq(Var("x"), Var("x"))))

    def test_constants_and_truth(self):
        assert parse("true") == Top()
        assert parse("false") == Bot()
        assert parse("#0 = #1") == Eq(Const(0), Const(1))

    def test_quantifier_body_extends_right(self):
        f = parse("forall x. x = x -> false")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Imp)

    def test_negated_quantifier(self):
        f = parse("~ forall x. x = x")
        assert f == Not(Forall("x", Eq(Var("x"), Var("x"))))

    def test_errors(self):
        for text in ("forall . x = x", "x =", "(x = x", "x ? y",
                     "x in in y", "forall in. x = x", "x = x )"):
            with pytest.raises(InputError):
                parse(text)

    def test_nesting_limit(self):
        ok = "~" * (MAX_NESTING - 1) + "(x = x)"
        assert parse(ok) is not None
        for text in ("~" * 3000 + "x = x",
                     "(" * 3000 + "x = x" + ")" * 3000,
                     "forall x. " * 3000 + "x = x",
                     " -> ".join(["x = x"] * 3000),
                     " /\\ ".join(["x = x"] * 3000)):
            with pytest.raises(InputError, match="nested deeper"):
                parse(text)

    def test_unknown_constant_with_bound(self):
        with pytest.raises(InputError, match="unknown name constant"):
            parse("#9 = #9", max_name=4)
        assert parse("#3 = #3", max_name=4) == Eq(Const(3), Const(3))


def formula_strategy():
    terms = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Var("z")]),
        st.builds(Const, st.integers(min_value=0, max_value=5)),
    )
    atoms = st.one_of(
        st.builds(Eq, terms, terms),
        st.builds(Mem, terms, terms),
        st.just(Top()),
        st.just(Bot()),
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Imp, kids, kids),
            st.builds(Not, kids),
            st.builds(Forall, st.sampled_from(["x", "y", "z"]), kids),
            st.builds(Exists, st.sampled_from(["x", "y", "z"]), kids),
        ),
        max_leaves=25,
    )


class TestPrinting:
    @settings(max_examples=300, deadline=None)
    @given(formula_strategy())
    def test_parse_print_round_trip(self, f):
        assert parse(print_formula(f)) == f

    @settings(max_examples=150, deadline=None)
    @given(formula_strategy())
    def test_printed_form_is_a_fixed_point(self, f):
        text = print_formula(f)
        assert print_formula(parse(text)) == text

    def test_readable_output(self):
        f = Forall("x", Imp(Mem(Var("x"), Const(2)), Eq(Var("x"), Const(2))))
        assert print_formula(f) == "forall x. x in #2 -> x = #2"


class TestNodes:
    """A node is the tuple (class name, *fields): equal to another exactly
    when class and fields are equal, hashed alike then, and immutable."""

    def test_nodes_of_two_classes_with_equal_fields_are_unequal(self):
        x, y = Var("x"), Var("y")
        for a, b in ((And(x, y), Or(x, y)), (Eq(x, y), Mem(x, y)), (PVar("x"), x),
                     (Top(), Bot()), (Forall("x", Top()), Exists("x", Top()))):
            assert a != b and b != a, (a, b)
            assert len({a, b}) == 2

    @settings(max_examples=100, deadline=None)
    @given(formula_strategy())
    def test_equal_nodes_hash_alike(self, f):
        for g in (parse(print_formula(f)), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f) and repr(g) == repr(f)

    def test_fields_cannot_be_assigned(self):
        f = And(Mem(Var("x"), Var("y")), Top())
        with pytest.raises(AttributeError):
            f.left = Bot()
        with pytest.raises(AttributeError):
            f.left.right.name = "z"
        with pytest.raises(AttributeError):
            f.extra = 1
        assert f == And(Mem(Var("x"), Var("y")), Top())

    @pytest.mark.parametrize("make,fields", [(Var, ()), (Var, ("x", "y")), (Const, ()),
                                             (And, (Top(),)), (Not, (Top(), Top())),
                                             (Top, (1,)), (Forall, ("x",)), (PVar, ())])
    def test_the_wrong_number_of_fields_is_refused(self, make, fields):
        with pytest.raises(TypeError):
            make(*fields)

    def test_positional_match(self):
        match Forall("x", Imp(Mem(Var("x"), Const(2)), Not(Bot()))):
            case Forall(var, Imp(Mem(Var(name), Const(nid)), Not(Bot()))):
                assert (var, name, nid) == ("x", "x", 2)
            case _:
                pytest.fail("no case matched")
        match Or(Top(), Top()):
            case And():
                pytest.fail("an Or matched And")
            case Or(left, right):
                assert left == right == Top()

    def test_repr(self):
        assert repr(And(Mem(Var("x"), Var("x")), Top())) == (
            "And(left=Mem(left=Var(name='x'), right=Var(name='x')), right=Top())")
        assert repr(Exists("y", Not(Eq(Const(3), Var("y"))))) == (
            "Exists(var='y', body=Not(body=Eq(left=Const(name_id=3), right=Var(name='y'))))")
        assert repr(PVar("p")) == "PVar(name='p')"


class TestFragments:
    def test_negation_free_examples(self):
        assert is_negation_free(Imp(Mem(Var("x"), Var("y")), Bot()))
        assert not is_negation_free(Not(Mem(Var("x"), Var("y"))))
        assert is_negation_free(Top())
        assert not is_negation_free(Forall("x", Not(Eq(Var("x"), Var("x")))))

    def test_free_and_bound(self):
        f = parse("forall x. x in y")
        assert free_vars(f) == {"y"}
        assert bound_vars(f) == {"x"}
        assert not free_vars(parse("forall x. forall y. x in y"))

    def test_subst_const(self):
        f = parse("forall x. x in y")
        g = subst_const(f, "y", 3)
        assert g == parse("forall x. x in #3")
        # bound occurrences stay untouched
        assert subst_const(f, "x", 3) == f

    def test_rename_var(self):
        f = parse("x in y")
        assert rename_var(f, "x", "w") == parse("w in y")
        with pytest.raises(InputError):
            rename_var(f, "x", "y")


def count_by_size(atoms, max_nodes, negation):
    """Formulas of at most max_nodes nodes, by the size recurrence: a(1) is
    the atom count, and a(n) is a(n - 1) negations (when allowed) plus,
    for each of the three binary connectives, a(i) * a(n - 1 - i) for
    every left size i."""
    a = [0, atoms]
    for n in range(2, max_nodes + 1):
        binary = 3 * sum(a[i] * a[n - 1 - i] for i in range(1, n - 1))
        a.append((a[n - 1] if negation else 0) + binary)
    return sum(a[:max_nodes + 1])


PQR = [PVar("p"), PVar("q"), PVar("r")]


class TestEnumerate:
    @pytest.mark.parametrize("atoms,max_nodes,count", [
        (PQR, 5, 771),
        (PQR + [Top(), Bot()], 4, 320),
        (PQR + [Top(), Bot()], 5, 3025),
    ], ids=["pqr-5", "pqr-tf-4", "pqr-tf-5"])
    def test_counts_match_the_size_recurrence(self, atoms, max_nodes, count):
        forms = enumerate_formulas(atoms, max_nodes, negation=True)
        assert len(forms) == count == count_by_size(len(atoms), max_nodes, True)

    def test_negation_free_count(self):
        x, c = Var("x"), Const(3)
        atoms = [Mem(x, c), Mem(c, x), Eq(x, c)]
        forms = enumerate_formulas(atoms, 3, negation=False)
        assert len(forms) == 30 == count_by_size(3, 3, False)
        assert all(is_negation_free(f) for f in forms)

    def test_no_duplicates_and_a_fixed_order_by_size(self):
        forms = enumerate_formulas(PQR + [Top(), Bot()], 5, negation=True)
        assert len(set(forms)) == len(forms)
        assert enumerate_formulas(PQR + [Top(), Bot()], 5, negation=True) == forms
        sizes = [sum(1 for _ in subformulas(f)) for f in forms]
        assert sizes == sorted(sizes) and max(sizes) == 5

    def test_at_most_max_nodes(self):
        assert enumerate_formulas(PQR, 0, negation=True) == []
        assert enumerate_formulas(PQR, 1, negation=True) == PQR
        assert enumerate_formulas(PQR, 2, negation=True) == PQR + [Not(f) for f in PQR]


# Each kind of caller's battery, over the constants a rank-2 universe gives it.
BATTERIES = {
    "one-variable": (ONE_VARIABLE, range(4)),
    "collection": (COLLECTION, ()),
    "negation-free": (NEGATION_FREE, (3,)),
}


class TestBattery:
    def test_counts_for_each_kind_of_caller(self):
        one, declared = ONE_VARIABLE.read(range(4))
        assert len(one) == declared["formulas"] == 36
        # 24 of at most 2 nodes, then the 12 bounded ones
        assert sum(isinstance(f, Exists) for _, f in one) == 12
        assert all(isinstance(f, Exists) for _, f in one[24:])
        assert len(COLLECTION.read(())[0]) == 3
        # nff-transfer quantifies x in each body both ways
        assert 2 * len(NEGATION_FREE.read((3,))[0]) == 60

    @pytest.mark.parametrize("kind", BATTERIES)
    def test_no_formula_is_listed_twice(self, kind):
        spec, constants = BATTERIES[kind]
        forms = [f for _, f in spec.read(constants)[0]]
        assert len(set(forms)) == len(forms)

    @pytest.mark.parametrize("kind", BATTERIES)
    def test_free_variables_are_the_declared_ones(self, kind):
        spec, constants = BATTERIES[kind]
        for label, f in spec.read(constants)[0]:
            assert free_vars(f) == set(spec.variables), label

    @pytest.mark.parametrize("kind", BATTERIES)
    def test_every_label_parses_back(self, kind):
        # replay parses the printed sentence
        spec, constants = BATTERIES[kind]
        for label, f in spec.read(constants)[0]:
            assert label == print_formula(f) and parse(label) == f

    def test_schemas_accept_every_parameter(self):
        for _, phi in ONE_VARIABLE.read(range(4))[0]:
            instantiate_axiom("Foundation", phi)
        for _, phi in COLLECTION.read(())[0]:
            instantiate_axiom("Collection", phi)


class TestAxiomSchemas:
    def test_pairing_shape(self):
        f = instantiate_axiom("Pairing")
        want = Forall("x", Forall("y", Exists("z", Forall("w", iff(
            Mem(Var("w"), Var("z")),
            Or(Eq(Var("w"), Var("x")), Eq(Var("w"), Var("y"))))))))
        assert f == want

    def test_separation_with_trivial_parameter(self):
        f = instantiate_axiom("Separation", Eq(Var("z"), Var("z")))
        want = Forall("x", Exists("y", Forall("z", iff(
            Mem(Var("z"), Var("y")),
            And(Mem(Var("z"), Var("x")), Eq(Var("z"), Var("z")))))))
        assert f == want

    def test_extensionality_bar_shape(self):
        f = instantiate_axiom("ExtensionalityBar")
        z, x, y = Var("z"), Var("x"), Var("y")
        want = Forall("x", Forall("y", Imp(
            Forall("z", And(iff(Mem(z, x), Mem(z, y)),
                            iff(Not(Mem(z, x)), Not(Mem(z, y))))),
            Eq(x, y))))
        assert f == want

    def test_all_schemas_are_closed(self):
        for name in ("Extensionality", "ExtensionalityBar", "Pairing",
                     "Infinity", "Union", "PowerSet"):
            assert not free_vars(instantiate_axiom(name))
        assert not free_vars(instantiate_axiom("Separation", Eq(Var("z"), Var("z"))))
        assert not free_vars(instantiate_axiom("Collection", Mem(Var("y"), Var("z"))))
        assert not free_vars(instantiate_axiom("Foundation", Eq(Var("x"), Var("x"))))

    def test_parameter_arity_enforced(self):
        with pytest.raises(InputError, match="may only use"):
            instantiate_axiom("Separation", Eq(Var("q"), Var("q")))
        with pytest.raises(InputError, match="needs a parameter"):
            instantiate_axiom("Separation")
        with pytest.raises(InputError, match="avoid"):
            instantiate_axiom("Foundation",
                              Exists("y", Mem(Var("y"), Var("x"))))
        with pytest.raises(InputError, match="unknown axiom schema"):
            instantiate_axiom("Choice")

    def test_infinity_mentions_empty_and_successor(self):
        f = instantiate_axiom("Infinity")
        text = print_formula(f)
        assert text.startswith("exists x.")
        assert "~" in text  # the emptiness clause
