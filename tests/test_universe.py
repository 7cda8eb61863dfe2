import math

import pytest

from algval.algebra import builtin, ps3
from algval.errors import InputError, ResourceError
from algval.evaluate import EvalContext
from algval.universe import (
    build_universe,
    check_name,
    hf_nat,
    parse_hf,
    parse_name_literal,
)


def level_oracle(n_values, rank_bound, domain_cap=None):
    """Independent count of cumulative level sizes: the level at rank r
    holds all maps from subsets of the previous level into the values."""
    sizes = {1: 1}
    for r in range(2, rank_bound + 1):
        prev = sizes[r - 1]
        cap = prev if domain_cap is None else min(domain_cap, prev)
        sizes[r] = sum(math.comb(prev, k) * n_values**k for k in range(cap + 1))
    return sizes


class TestEnumeration:
    def test_ps3_levels(self):
        uni = build_universe(ps3()[0], 3)
        assert uni.level_sizes() == {1: 1, 2: 4, 3: 256}
        assert len(uni) == 256

    def test_rank_one_is_just_the_empty_name(self):
        for name in ("ps3", "bool4", "chain6"):
            uni = build_universe(builtin(name)[0], 1)
            assert len(uni) == 1
            assert uni.entries_of(0) == ()
            assert uni.rank_of(0) == 1

    @pytest.mark.parametrize("name,rank", [("bool2", 3), ("ps3", 3),
                                           ("chain4", 2), ("bool4", 2)])
    def test_levels_match_combinatorial_oracle(self, name, rank):
        alg, _ = builtin(name)
        uni = build_universe(alg, rank)
        assert uni.level_sizes() == level_oracle(len(alg.elements), rank)

    def test_bool2_rank3_counts(self):
        uni = build_universe(builtin("bool2")[0], 3)
        assert uni.level_sizes() == {1: 1, 2: 3, 3: 27}

    def test_value_restriction(self):
        alg, _ = builtin("bool2")
        uni = build_universe(alg, 3, value_restriction={"1"})
        assert uni.level_sizes() == level_oracle(1, 3)
        for nid in uni.ids():
            assert all(v == alg.top_i for _, v in uni.entries_of(nid))

    def test_domain_cap(self):
        alg, _ = ps3()
        uni = build_universe(alg, 3, domain_cap=1)
        assert uni.level_sizes() == level_oracle(3, 3, domain_cap=1)
        assert all(len(uni.entries_of(nid)) <= 1 for nid in uni.ids())

    def test_budget_refusal_names_the_rank(self):
        with pytest.raises(ResourceError, match="rank 4"):
            build_universe(ps3()[0], 4)

    def test_bad_rank(self):
        with pytest.raises(InputError):
            build_universe(ps3()[0], 0)

    def test_ranks_strictly_decrease_into_domains(self):
        uni = build_universe(ps3()[0], 3)
        for nid in uni.ids():
            r = uni.rank_of(nid)
            for child, _ in uni.entries_of(nid):
                assert uni.rank_of(child) < r


class TestInterning:
    def test_duplicate_maps_share_an_id(self):
        uni = build_universe(ps3()[0], 2)
        h = uni.algebra.index["half"]
        first = uni.insert({0: h})
        second = uni.insert({0: h})
        assert first == second
        assert first < 4  # already enumerated

    def test_empty_map_is_the_canonical_empty_name(self):
        uni = build_universe(ps3()[0], 2)
        assert uni.insert({}) == 0

    def test_rank_rule_for_fresh_names(self):
        uni = build_universe(ps3()[0], 2)
        h = uni.algebra.index["half"]
        w = uni.insert({0: h})
        fresh = uni.insert({w: uni.algebra.top_i})
        assert uni.rank_of(fresh) == uni.rank_of(w) + 1

    def test_dangling_reference_rejected(self):
        uni = build_universe(ps3()[0], 2)
        with pytest.raises(InputError, match="unknown NameId"):
            uni.insert({99: 0})
        with pytest.raises(InputError, match="element index"):
            uni.insert({0: 17})


class TestHfSets:
    def test_parse_examples(self):
        assert parse_hf("{}") == frozenset()
        assert parse_hf("{{}}") == frozenset([frozenset()])
        assert parse_hf("{{},{{}}}") == hf_nat(2)
        # duplicate members collapse
        assert parse_hf("{{},{}}") == parse_hf("{{}}")

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_hf("{{}")
        with pytest.raises(InputError):
            parse_hf("{}}")
        with pytest.raises(InputError):
            parse_hf("x")

    def test_numerals(self):
        assert hf_nat(0) == frozenset()
        assert hf_nat(1) == frozenset([frozenset()])
        assert len(hf_nat(3)) == 3


class TestCheckName:
    def test_base_cases(self):
        uni = build_universe(ps3()[0], 2)
        assert check_name(uni, frozenset()) == 0
        one = check_name(uni, "{{}}")
        assert uni.entries_of(one) == ((0, uni.algebra.top_i),)

    def test_idempotent(self):
        uni = build_universe(ps3()[0], 2)
        assert check_name(uni, hf_nat(2)) == check_name(uni, hf_nat(2))

    def test_numeral_membership(self):
        uni = build_universe(ps3()[0], 2)
        one = check_name(uni, hf_nat(1))
        two = check_name(uni, hf_nat(2))
        for assignment in ("ba", "pa"):
            ctx = EvalContext(uni, {"1", "half"}, assignment)
            assert ctx.atomic("in", one, two) == "1"

    @pytest.mark.parametrize("algname", ["ps3", "bool2"])
    @pytest.mark.parametrize("assignment", ["ba", "pa"])
    def test_embedding_reflects_structural_equality(self, algname, assignment):
        # Oracle: structural equality of the hereditarily finite sets.
        alg, d = builtin(algname)
        uni = build_universe(alg, 2)
        sets = [hf_nat(0), hf_nat(1), hf_nat(2), hf_nat(3),
                frozenset([hf_nat(1)]), frozenset([hf_nat(0), hf_nat(2)])]
        ids = [check_name(uni, s) for s in sets]
        ctx = EvalContext(uni, d, assignment)
        for s, sid in zip(sets, ids):
            for t, tid in zip(sets, ids):
                want = alg.top if s == t else alg.bottom
                assert ctx.atomic("=", sid, tid) == want


class TestNameLiterals:
    def test_parse_and_aliases(self):
        uni = build_universe(ps3()[0], 2)
        nid = parse_name_literal("{#0: half, #1: one}", uni)
        entries = dict(uni.entries_of(nid))
        assert entries == {0: uni.algebra.index["half"], 1: uni.algebra.top_i}

    def test_empty_literal(self):
        uni = build_universe(ps3()[0], 2)
        assert parse_name_literal("{}", uni) == 0

    def test_pretty_round_trip(self):
        uni = build_universe(ps3()[0], 2)
        h = uni.algebra.index["half"]
        nid = uni.insert({0: h, 1: uni.algebra.top_i})
        assert parse_name_literal(uni.pretty(nid), uni) == nid

    def test_errors(self):
        uni = build_universe(ps3()[0], 2)
        with pytest.raises(InputError):
            parse_name_literal("#0: half", uni)
        with pytest.raises(InputError):
            parse_name_literal("{0: half}", uni)
        with pytest.raises(InputError):
            parse_name_literal("{#0: third}", uni)
        with pytest.raises(InputError, match="duplicate key #0"):
            parse_name_literal("{#0: half, #0: 1}", uni)
