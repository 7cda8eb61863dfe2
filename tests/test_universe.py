import math

import pytest

from algval.algebra import builtin, ps3
from algval.errors import InputError, ResourceError
from algval.universe import build_universe, parse_name_literal


def level_oracle(n_values, rank_bound):
    """Independent count of cumulative level sizes: the level at rank r
    holds all maps from subsets of the previous level into the values."""
    sizes = {1: 1}
    for r in range(2, rank_bound + 1):
        prev = sizes[r - 1]
        sizes[r] = sum(math.comb(prev, k) * n_values**k for k in range(prev + 1))
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
