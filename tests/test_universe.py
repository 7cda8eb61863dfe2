import math

import pytest

from algval.algebra import BUILTIN_NAMES, builtin, ps3
from algval.errors import InputError, ResourceError
from algval.theorems import Run
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


class TestPrefixArrays:
    @pytest.mark.parametrize("name, rank", [(name, 2) for name in BUILTIN_NAMES]
                             + [("ps3", 3), ("chain3", 3), ("chain4", 3)])
    def test_each_name_records_its_entries_less_the_last(self, name, rank):
        alg, _ = builtin(name)
        uni = build_universe(alg, rank)
        ids = {uni.entries_of(v): v for v in uni.ids()}
        k = len(alg.elements)
        assert len(uni.prefix) == len(uni.last_entry) == len(uni)
        assert (uni.prefix[0], uni.last_entry[0]) == (-1, -1)  # the empty name has neither
        for v in range(1, len(uni)):
            entries = uni.entries_of(v)
            x, a = entries[-1]
            assert (uni.prefix[v], uni.last_entry[v]) == (ids[entries[:-1]], x * k + a), v

    def test_a_witness_without_its_prefix_gets_minus_one(self):
        alg, _ = ps3()
        uni = build_universe(alg, 2)
        half, top, k = alg.index["half"], alg.top_i, len(alg.elements)
        w = uni.insert({1: half, 2: top})  # {#1: half} is not interned
        assert (uni.prefix[w], uni.last_entry[w]) == (-1, 2 * k + top)
        p = uni.insert({1: half})
        assert (uni.prefix[w], uni.prefix[p]) == (-1, 0)  # recorded as w was interned
        v = uni.insert({1: half, 3: top})
        assert (uni.prefix[v], uni.last_entry[v]) == (p, 3 * k + top)

    def test_two_workspaces_keep_arrays_of_their_own(self):
        alg, d = ps3()
        run = Run(alg, d, 2)
        one, two = run.workspace(), run.workspace()
        n, half, top = len(run.universe), alg.index["half"], alg.top_i
        w = one.insert({1: half, 2: top})
        assert len(one.universe.prefix) == len(one.universe.last_entry) == n + 1
        assert len(two.universe.prefix) == len(run.universe.prefix) == n
        p = two.insert({1: half})
        assert two.insert({1: half, 2: top}) == w + 1
        assert (one.universe.prefix[w], two.universe.prefix[w + 1]) == (-1, p)
        assert list(run.universe.prefix) == list(two.universe.prefix[:n])

    def test_states_fold_each_name_from_its_prefix(self):
        # the number of entries, one more than the prefix's; each move once
        # per distinct (state, last entry)
        uni = build_universe(ps3()[0], 3)
        moves = []
        states, values = uni.states(0, lambda s, x, a: moves.append((s, x, a)) or s + 1, len(uni))
        assert [values[states[v]] for v in uni.ids()] == [len(uni.entries_of(v)) for v in uni.ids()]
        assert len(moves) == len(set(moves)) < len(uni) - 1


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
