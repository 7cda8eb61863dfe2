import itertools
import time

import pytest

from algval.algebra import (
    Algebra,
    boolean_algebra,
    builtin,
    chain,
    check_cobounded,
    check_drim,
    check_filter,
    check_lattice,
    collapse_f,
    dumps_algebra,
    is_bounded_lattice,
    loads_algebra,
    ps3,
    stretch,
)
from algval.errors import CapabilityError, InputError

ALL_BUILTINS = ["ps3", "bool2", "bool4", "chain3", "chain4", "chain5",
                "chain6", "chain7", "chain8", "stretch-bool4"]


# Expected three-valued tables: meet is min, join is max on 0 < half < 1,
# implication collapses to 0 exactly when the antecedent is nonzero and the
# consequent is zero, and star swaps the bounds while fixing half.
PS3_MEET = {
    ("1", "1"): "1", ("1", "half"): "half", ("1", "0"): "0",
    ("half", "1"): "half", ("half", "half"): "half", ("half", "0"): "0",
    ("0", "1"): "0", ("0", "half"): "0", ("0", "0"): "0",
}
PS3_JOIN = {
    ("1", "1"): "1", ("1", "half"): "1", ("1", "0"): "1",
    ("half", "1"): "1", ("half", "half"): "half", ("half", "0"): "half",
    ("0", "1"): "1", ("0", "half"): "half", ("0", "0"): "0",
}
PS3_IMP = {
    ("1", "1"): "1", ("1", "half"): "1", ("1", "0"): "0",
    ("half", "1"): "1", ("half", "half"): "1", ("half", "0"): "0",
    ("0", "1"): "1", ("0", "half"): "1", ("0", "0"): "1",
}
PS3_STAR = {"1": "0", "half": "half", "0": "1"}


class TestPs3Tables:
    def test_binary_tables(self):
        alg, _ = ps3()
        for (a, b), want in PS3_MEET.items():
            assert alg.meet(a, b) == want
        for (a, b), want in PS3_JOIN.items():
            assert alg.join(a, b) == want
        for (a, b), want in PS3_IMP.items():
            assert alg.imp(a, b) == want

    def test_star_table(self):
        alg, _ = ps3()
        for a, want in PS3_STAR.items():
            assert alg.star(a) == want

    def test_spec_spot_values(self):
        alg, _ = ps3()
        assert alg.meet("half", "1") == "half"
        assert alg.imp("half", "0") == "0"
        assert alg.meet(alg.top, alg.top) == alg.top
        assert alg.star("1") == "0"
        assert alg.star("half") == "half"
        assert alg.star("0") == "1"

    def test_designated_set(self):
        _, d = ps3()
        assert d == frozenset({"1", "half"})


class TestBigOps:
    def test_examples(self):
        alg, _ = ps3()
        assert alg.big_meet(["1", "half", "0"]) == "0"
        assert alg.big_join(["half", "0"]) == "half"
        assert alg.big_meet([]) == "1"
        assert alg.big_join([]) == "0"

    @pytest.mark.parametrize("name", ["ps3", "chain4", "bool4"])
    def test_fold_matches_order_oracle(self, name):
        # Oracle: the order-theoretic least upper / greatest lower bound
        # found by scanning the carrier, independent of the fold.
        alg, _ = builtin(name)
        es = alg.elements
        for r in range(len(es) + 1):
            for subset in itertools.combinations(es, r):
                lub = [c for c in es
                       if all(alg.le(x, c) for x in subset)
                       and all(alg.le(c, o) for o in es
                               if all(alg.le(x, o) for x in subset))]
                glb = [c for c in es
                       if all(alg.le(c, x) for x in subset)
                       and all(alg.le(o, c) for o in es
                               if all(alg.le(o, x) for x in subset))]
                assert alg.big_join(subset) in lub
                assert alg.big_meet(subset) in glb


class TestLatticeChecks:
    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_builtins_are_distributive_bounded_lattices(self, name):
        alg, _ = builtin(name)
        rep = check_lattice(alg)
        assert rep.ok("lattice") and rep.ok("bounded") and rep.ok("distributive")
        assert not rep.witnesses

    def test_injected_defect_reports_witness(self):
        # join(a, b) != join(b, a) for one pair
        es = ("0", "a", "1")
        meet = {(x, y): min(x, y, key="0a1".index) for x in es for y in es}
        join = {(x, y): max(x, y, key="0a1".index) for x in es for y in es}
        join[("a", "1")] = "a"
        imp = {(x, y): "1" for x in es for y in es}
        alg = Algebra("broken", es, meet, join, imp, "1", "0")
        rep = check_lattice(alg)
        assert not rep.ok("lattice")
        law = rep.witnesses["lattice"][0]
        assert law.startswith(("commutativity", "absorption"))

    def test_totality_enforced(self):
        es = ("0", "1")
        good = {(x, y): "0" for x in es for y in es}
        bad = dict(good)
        del bad[("0", "1")]
        with pytest.raises(InputError, match="not total"):
            Algebra("partial", es, bad, good, good, "1", "0")


def reference_check_lattice(alg):
    """The element-by-element loops over the string-level operations that
    `check_lattice` replaced: (verdicts, witnesses) in law order."""
    es = alg.elements
    witness = None

    def fail(*w):
        nonlocal witness
        witness = witness or w

    for a, b in itertools.product(es, repeat=2):
        if alg.meet(a, b) != alg.meet(b, a):
            fail("commutativity-meet", a, b)
        if alg.join(a, b) != alg.join(b, a):
            fail("commutativity-join", a, b)
        if alg.meet(a, alg.join(a, b)) != a:
            fail("absorption-meet", a, b)
        if alg.join(a, alg.meet(a, b)) != a:
            fail("absorption-join", a, b)
    for a in es:
        if alg.meet(a, a) != a:
            fail("idempotence-meet", a)
        if alg.join(a, a) != a:
            fail("idempotence-join", a)
    for a, b, c in itertools.product(es, repeat=3):
        if alg.meet(a, alg.meet(b, c)) != alg.meet(alg.meet(a, b), c):
            fail("associativity-meet", a, b, c)
        if alg.join(a, alg.join(b, c)) != alg.join(alg.join(a, b), c):
            fail("associativity-join", a, b, c)
    bw = dw = None
    for a in es:
        if alg.meet(a, alg.top) != a:
            bw = ("top", a)
        elif alg.join(a, alg.bottom) != a:
            bw = ("bottom", a)
        if bw:
            break
    for a, b, c in itertools.product(es, repeat=3):
        if alg.meet(a, alg.join(b, c)) != alg.join(alg.meet(a, b), alg.meet(a, c)):
            dw = ("meet-over-join", a, b, c)
        elif alg.join(a, alg.meet(b, c)) != alg.meet(alg.join(a, b), alg.join(a, c)):
            dw = ("join-over-meet", a, b, c)
        if dw:
            break
    found = {"lattice": witness, "bounded": bw, "distributive": dw}
    return ({k: w is None for k, w in found.items()},
            {k: w for k, w in found.items() if w is not None})


def with_entry(alg, op, a, b, value):
    """alg with one entry of its meet or join table replaced."""
    es = alg.elements
    tables = {name: {(x, y): getattr(alg, name)(x, y) for x in es for y in es}
              for name in ("meet", "join", "imp")}
    tables[op][a, b] = value
    return Algebra(f"{alg.name}-{op}-{a}-{b}-{value}", es, tables["meet"], tables["join"],
                   tables["imp"], alg.top, alg.bottom)


class TestLatticeReference:
    """`check_lattice` against the element-by-element loops: the same
    verdicts and the same first witness."""

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_builtins(self, name):
        alg = builtin(name)[0]
        rep = check_lattice(alg)
        assert (rep.verdicts, rep.witnesses) == reference_check_lattice(alg)

    @pytest.mark.parametrize("name", ["ps3", "bool4", "chain4"])
    def test_every_single_entry_defect(self, name):
        alg = builtin(name)[0]
        laws = set()
        for op, a, b, value in itertools.product(("meet", "join"), alg.elements,
                                                 alg.elements, alg.elements):
            bad = with_entry(alg, op, a, b, value)
            rep = check_lattice(bad)
            assert (rep.verdicts, rep.witnesses) == reference_check_lattice(bad), bad.name
            laws |= {w[0] for w in rep.witnesses.values()}
        assert {"commutativity-meet", "commutativity-join", "absorption-meet",
                "absorption-join", "top", "bottom"} <= laws

    @pytest.mark.parametrize("law,meet,join", [
        # a commutative, absorptive (so idempotent) pair that is not associative
        ("associativity-meet", "0 0 2|0 1 1|2 1 2", "0 1 0|1 1 2|0 2 2"),
        # the pentagon N5 and the diamond M3: lattices that are not distributive
        ("join-over-meet", "0 0 0 0 0|0 1 0 1 1|0 0 2 0 2|0 1 0 3 3|0 1 2 3 4",
         "0 1 2 3 4|1 1 4 3 4|2 4 2 4 4|3 3 4 3 4|4 4 4 4 4"),
        ("meet-over-join", "0 0 0 0 0|0 1 0 0 1|0 0 2 0 2|0 0 0 3 3|0 1 2 3 4",
         "0 1 2 3 4|1 1 4 4 4|2 4 2 4 4|3 4 4 3 4|4 4 4 4 4"),
    ])
    def test_planted_law(self, law, meet, join):
        rows = lambda text: [r.split() for r in text.split("|")]  # noqa: E731
        es = [str(i) for i in range(len(rows(meet)))]
        table = lambda text: {(x, y): v for x, r in zip(es, rows(text))  # noqa: E731
                              for y, v in zip(es, r)}
        alg = Algebra("planted", es, table(meet), table(join), table(join), es[-1], "0")
        rep = check_lattice(alg)
        assert (rep.verdicts, rep.witnesses) == reference_check_lattice(alg)
        assert law in {w[0] for w in rep.witnesses.values()}

    def test_planted_idempotence(self):
        # meet(half, half) = 0: absorption at (half, half) fails before it
        alg = with_entry(ps3()[0], "meet", "half", "half", "0")
        rep = check_lattice(alg)
        assert (rep.verdicts, rep.witnesses) == reference_check_lattice(alg)
        assert rep.witnesses["lattice"][0].startswith("absorption")

    def test_one_element(self):
        alg = Algebra("one", ["e"], {("e", "e"): "e"}, {("e", "e"): "e"},
                      {("e", "e"): "e"}, "e", "e")
        assert check_lattice(alg).verdicts == reference_check_lattice(alg)[0]

    def test_chain300_gate_takes_seconds(self):
        # 112.6 s with the element-by-element loops
        alg = builtin("chain300")[0]
        start = time.process_time()
        assert is_bounded_lattice(alg)
        assert time.process_time() - start < 10


class TestDrim:
    @pytest.mark.parametrize("name", ["ps3", "bool2", "bool4", "chain3",
                                      "chain4", "chain5", "chain6"])
    def test_builtins_satisfy_p1_to_p4(self, name):
        alg, _ = builtin(name)
        assert check_drim(alg).ok("drim")

    def test_broken_implication_found(self):
        alg, d = ps3()
        imp = {(a, b): alg.imp(a, b) for a in alg.elements for b in alg.elements}
        imp[("half", "half")] = "0"  # violates P2 style monotonicity
        meet = {(a, b): alg.meet(a, b) for a in alg.elements for b in alg.elements}
        join = {(a, b): alg.join(a, b) for a in alg.elements for b in alg.elements}
        bad = Algebra("bad-imp", alg.elements, meet, join, imp, "1", "0")
        rep = check_drim(bad)
        assert not rep.ok("drim")
        assert rep.witnesses["drim"]

    def test_every_single_imp_entry_against_the_loop(self):
        laws = set()
        for name in ("ps3", "bool4", "chain4", "stretch-bool4"):
            alg = builtin(name)[0]
            for a, b, value in itertools.product(alg.elements, repeat=3):
                bad = with_entry(alg, "imp", a, b, value)
                rep = check_drim(bad)
                assert (rep.ok("drim"), rep.witnesses.get("drim")) == reference_drim(bad)
                laws |= {rep.witnesses["drim"][0]} if "drim" in rep.witnesses else set()
        assert laws == {"P1", "P2", "P3", "P4"}


def reference_drim(alg):
    """The loop over element triples that `check_drim` replaced, on a
    bounded lattice: (verdict, witness or None)."""
    for a, b, c in itertools.product(alg.elements, repeat=3):
        if alg.le(alg.meet(a, b), c) and not alg.le(a, alg.imp(b, c)):
            return False, ("P1", a, b, c)
        if alg.le(b, c):
            if not alg.le(alg.imp(a, b), alg.imp(a, c)):
                return False, ("P2", a, b, c)
            if not alg.le(alg.imp(c, a), alg.imp(b, a)):
                return False, ("P3", a, b, c)
        if alg.imp(alg.meet(a, b), c) != alg.imp(a, alg.imp(b, c)):
            return False, ("P4", a, b, c)
    return True, None


class TestCobounded:
    def test_verdicts(self):
        assert check_cobounded(ps3()[0]).ok("cobounded")
        assert check_cobounded(builtin("bool2")[0]).ok("cobounded")
        assert not check_cobounded(builtin("bool4")[0]).ok("cobounded")
        assert check_cobounded(builtin("stretch-bool4")[0]).ok("cobounded")

    def test_bool4_witness_is_the_atom_pair(self):
        rep = check_cobounded(builtin("bool4")[0])
        witness = rep.witnesses["cobounded"]
        assert witness[0] == "join"
        assert set(witness[1:]) == {"p1", "p2"}

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_routes_agree(self, name):
        rep = check_cobounded(builtin(name)[0])
        assert rep.info["cobounded-subset-search"] == rep.info["cobounded-closed-form"]

    def test_atom_and_coatom_reported(self):
        rep = check_cobounded(builtin("chain5")[0])
        assert rep.info["atom"] == "a"
        assert rep.info["coatom"] == "c"


class TestFilters:
    def test_ps3_examples(self):
        alg, _ = ps3()
        full = check_filter(alg, {"1", "half"})
        assert full.ok("filter") and full.ok("ultrafilter")
        small = check_filter(alg, {"1"})
        assert small.ok("filter") and not small.ok("ultrafilter")
        broken = check_filter(alg, {"half"})
        assert not broken.ok("filter")
        assert broken.witnesses["filter"] == ("missing-top",)

    def test_ultra_designated_complement_is_bottom(self):
        alg, d = ps3()
        rep = check_filter(alg, d)
        assert rep.ok("ultra-designated-cobounded")
        assert rep.info["complement-of-designated"] == "0"

    def test_witness_follows_the_carrier(self):
        # a is the first designated element in carrier order with an
        # undesignated element above it
        rep = check_filter(chain(6)[0], {"1", "b", "a"})
        assert rep.witnesses["filter"] == ("not-upward-closed", "a", "c")

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_chain_default_designated_is_ultra(self, k):
        alg, d = chain(k)
        assert d == frozenset(alg.elements) - {"0"}
        rep = check_filter(alg, d)
        assert rep.ok("ultrafilter")
        assert rep.ok("ultra-designated-cobounded")


class TestStarLaws:
    @pytest.mark.parametrize("name", ["ps3", "chain3", "chain6", "stretch-bool4"])
    def test_designated_star_shape(self, name):
        alg, d = builtin(name)
        assert alg.star(alg.top) == alg.bottom
        assert alg.star(alg.bottom) == alg.top
        for a in alg.elements:
            if a not in d:
                assert alg.star(a) == alg.top or a == alg.top
            elif a != alg.top:
                assert alg.star(a) == a
                assert alg.star(alg.star(a)) == a


class TestBuilders:
    def test_chain2_is_two_element_boolean(self):
        alg, d = chain(2)
        b2, d2 = boolean_algebra(1)
        assert d == d2 == frozenset({"1"})
        for a in ("0", "1"):
            for b in ("0", "1"):
                assert alg.meet(a, b) == b2.meet(a, b)
                assert alg.join(a, b) == b2.join(a, b)
                assert alg.imp(a, b) == b2.imp(a, b)
            assert alg.star(a) == b2.star(a)

    def test_stretch_of_two_element_boolean_is_a_chain(self):
        alg, d = stretch(boolean_algebra(1)[0])
        assert len(alg) == 4
        assert check_cobounded(alg).ok("cobounded")
        order = sorted(alg.elements, key=lambda e: sum(alg.le(x, e) for x in alg.elements))
        assert order[0] == "0" and order[-1] == "1"

    def test_stretch_requires_bounded_base(self):
        es = ("x", "y")
        tbl = {(a, b): "x" for a in es for b in es}
        lying = Algebra("unbounded", es, tbl, tbl, tbl, "y", "x")
        with pytest.raises(InputError, match="bounded"):
            stretch(lying)

    def test_builder_sizes(self):
        assert ps3()[0].name == "ps3"
        assert len(boolean_algebra(3)[0]) == 8
        assert len(chain(6)[0]) == 6

    def test_builtin_unknown(self):
        with pytest.raises(InputError, match="unknown builtin"):
            builtin("chainX")


class TestCollapse:
    def test_examples(self):
        alg, _ = chain(5)
        assert collapse_f(alg, "b") == "half"
        assert collapse_f(alg, alg.top) == "1"
        assert collapse_f(alg, alg.imp("a", "0")) == "0"
        assert collapse_f(alg, "a") == "half"

    @pytest.mark.parametrize("name", ["ps3", "chain5", "stretch-bool4", "bool2"])
    def test_homomorphism_exhaustive(self, name):
        alg, _ = builtin(name)
        core, _ = ps3()
        f = lambda a: collapse_f(alg, a)
        for a in alg.elements:
            for b in alg.elements:
                assert f(alg.meet(a, b)) == core.meet(f(a), f(b))
                assert f(alg.join(a, b)) == core.join(f(a), f(b))
                assert f(alg.imp(a, b)) == core.imp(f(a), f(b))

    @pytest.mark.parametrize("name", ["ps3", "chain4", "chain6"])
    def test_star_commutes(self, name):
        alg, _ = builtin(name)
        core, _ = ps3()
        for a in alg.elements:
            assert collapse_f(alg, alg.star(a)) == core.star(collapse_f(alg, a))

    @pytest.mark.parametrize("name", ["ps3", "chain5", "stretch-bool4"])
    def test_big_op_transfer_all_subsets(self, name):
        alg, _ = builtin(name)
        core, _ = ps3()
        f = lambda a: collapse_f(alg, a)
        es = alg.elements
        for r in range(len(es) + 1):
            for subset in itertools.combinations(es, r):
                assert f(alg.big_meet(subset)) == core.big_meet([f(a) for a in subset])
                assert f(alg.big_join(subset)) == core.big_join([f(a) for a in subset])

    def test_needs_cobounded(self):
        alg, _ = boolean_algebra(2)
        with pytest.raises(CapabilityError, match="cobounded"):
            collapse_f(alg, "p1")


class TestTextFormat:
    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_round_trip(self, name):
        alg, d = builtin(name)
        text = dumps_algebra(alg, d)
        back, d2 = loads_algebra(text)
        assert back.elements == alg.elements
        assert d2 == d
        assert back.meet_t == alg.meet_t
        assert back.join_t == alg.join_t
        assert back.imp_t == alg.imp_t
        assert back.star_t == alg.star_t

    def test_comments_and_errors(self):
        text = "# chain of two\nelements 0 1\ntop 1\nbottom 0\ndesignated 1\n"
        text += "".join(f"meet {a} {b} {min(a, b)}\n" for a in "01" for b in "01")
        text += "".join(f"join {a} {b} {max(a, b)}\n" for a in "01" for b in "01")
        text += "".join(f"imp {a} {b} {'0' if a == '1' and b == '0' else '1'}\n"
                        for a in "01" for b in "01")
        alg, d = loads_algebra(text)
        assert check_lattice(alg).ok("lattice")
        assert alg.star_t is None
        with pytest.raises(InputError, match="unknown keyword"):
            loads_algebra("elements 0 1\nfoo bar\n")
        with pytest.raises(InputError, match="top"):
            loads_algebra("elements 0 1\n")


class TestElementResolution:
    def test_aliases(self):
        alg, _ = ps3()
        assert alg.resolve("one") == "1"
        assert alg.resolve("zero") == "0"
        assert alg.resolve("top") == "1"
        assert alg.resolve("bottom") == "0"
        assert alg.resolve("half") == "half"
        with pytest.raises(InputError, match="unknown element"):
            alg.resolve("third")

    def test_unknown_element_in_op(self):
        alg, _ = ps3()
        with pytest.raises(InputError):
            alg.meet("1", "2")

    def test_star_absent(self):
        es = ("0", "1")
        tbl = {(a, b): "0" for a in es for b in es}
        join = {(a, b): "1" if "1" in (a, b) else "0" for a in es for b in es}
        meet = {(a, b): "0" if "0" in (a, b) else "1" for a in es for b in es}
        alg = Algebra("bare", es, meet, join, tbl, "1", "0")
        with pytest.raises(CapabilityError, match="star"):
            alg.star("1")


class TestDesignatedOverride:
    def test_star_rebuilt_for_designated_rule_algebras(self):
        from algval.algebra import override_designated

        alg, _ = ps3()
        new, d = override_designated(alg, {"1"})
        assert d == frozenset({"1"})
        assert new.star("half") == "1"  # no longer designated
        assert new.star("1") == "0" and new.star("0") == "1"
        rep = check_filter(new, d)
        assert rep.ok("designated-cobounded")
        assert not rep.ok("ultrafilter")

    def test_complement_star_left_alone(self):
        from algval.algebra import override_designated

        alg, _ = boolean_algebra(2)
        new, d = override_designated(alg, {"1", "p1"})
        assert new is alg
        assert d == frozenset({"1", "p1"})

    def test_non_filter_rejected(self):
        from algval.algebra import override_designated

        alg, _ = ps3()
        with pytest.raises(InputError, match="filter"):
            override_designated(alg, {"half"})
