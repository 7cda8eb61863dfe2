"""Bounded-rank universes of names over an algebra.

A name is a finite map from previously built names into algebra elements;
the universe interns these maps so that identical maps always share one
NameId.  Enumeration is stratified by rank: the empty name has rank 1 and
any other name sits one rank above the highest name in its domain.  The
level of rank r therefore holds exactly the maps whose domain lies in the
levels below r, and the enumerated universe at rank bound r is the level of
rank r.

Construction is a single-writer phase; afterwards the universe only grows
through explicit `insert` calls for ad-hoc witness names, which never
invalidates previously computed atomic values.
"""

from __future__ import annotations

import copy
import itertools
import math
import re
from typing import Iterable, Mapping, Optional, Union

from .algebra import Algebra
from .errors import InputError, ResourceError

DEFAULT_BUDGET = 100_000

HF = frozenset  # hereditarily finite sets as nested frozensets


class Name:
    """An interned name: sorted (child NameId, element index) pairs."""

    __slots__ = ("entries", "rank")

    def __init__(self, entries: tuple[tuple[int, int], ...], rank: int):
        self.entries = entries
        self.rank = rank

    def domain(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)


class Universe:
    def __init__(self, algebra: Algebra, rank_bound: int, budget: int = DEFAULT_BUDGET):
        self.algebra = algebra
        self.rank_bound = rank_bound
        self.budget = budget
        self.names: list[Name] = []
        self._index: dict[tuple[tuple[int, int], ...], int] = {}
        self.insert({})  # the empty name, always NameId 0

    # -- interning --------------------------------------------------------------

    def insert(self, entries: Union[Mapping[int, int], Iterable[tuple[int, int]]]) -> int:
        """Intern a name, returning the existing id when the map is known.

        A fresh name lands at rank 1 + max rank of its domain (rank 1 for
        the empty map).  Every domain id must already be interned.
        """
        if isinstance(entries, Mapping):
            items = sorted(entries.items())
        else:
            items = sorted(entries)
        key = tuple(items)
        hit = self._index.get(key)
        if hit is not None:
            return hit
        n = len(self.names)
        rank = 1
        for child, value in items:
            if not 0 <= child < n:
                raise InputError(f"name entry refers to unknown NameId #{child}")
            if not 0 <= value < len(self.algebra.elements):
                raise InputError(f"name entry has unknown element index {value}")
            rank = max(rank, self.names[child].rank + 1)
        self.names.append(Name(key, rank))
        self._index[key] = n
        return n

    def copy(self) -> "Universe":
        """An independent universe holding the same names under the same ids."""
        out = copy.copy(self)
        out.names = list(self.names)
        out._index = dict(self._index)
        return out

    def __len__(self) -> int:
        return len(self.names)

    def rank_of(self, nid: int) -> int:
        return self.names[nid].rank

    def entries_of(self, nid: int) -> tuple[tuple[int, int], ...]:
        return self.names[nid].entries

    def level_sizes(self) -> dict[int, int]:
        """Cumulative level sizes: how many names exist at or below each rank."""
        out: dict[int, int] = {}
        for r in range(1, self.rank_bound + 1):
            out[r] = sum(1 for nm in self.names if nm.rank <= r)
        return out

    def ids(self) -> range:
        return range(len(self.names))

    def pretty(self, nid: int) -> str:
        """Render a name in the entry-literal syntax, e.g. `{#0: half}`."""
        es = self.algebra.elements
        inner = ", ".join(f"#{k}: {es[v]}" for k, v in self.names[nid].entries)
        return "{" + inner + "}"


def _enumeration_count(n_prev: int, n_values: int, domain_cap: Optional[int]) -> int:
    if domain_cap is None or domain_cap >= n_prev:
        return (n_values + 1) ** n_prev
    return sum(math.comb(n_prev, k) * n_values**k for k in range(domain_cap + 1))


def build_universe(
    algebra: Algebra,
    rank_bound: int,
    value_restriction: Optional[Iterable[str]] = None,
    domain_cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> Universe:
    """Enumerate every name up to the rank bound.

    At each rank the candidates are all maps from subsets of the previous
    level into the allowed values (all elements unless restricted), so the
    level of rank r has (v+1)^(size of level r-1) candidates before
    deduplication.  Enumeration refuses to start a rank whose candidate
    count would exceed the budget.
    """
    if rank_bound < 1:
        raise InputError("rank bound must be at least 1")
    if value_restriction is None:
        values = list(range(len(algebra.elements)))
    else:
        values = sorted({algebra.index[algebra.resolve(v)] for v in value_restriction})
        if not values:
            raise InputError("value restriction must allow at least one element")
    uni = Universe(algebra, rank_bound, budget)
    for rank in range(2, rank_bound + 1):
        prev = [nid for nid in uni.ids() if uni.rank_of(nid) <= rank - 1]
        candidates = _enumeration_count(len(prev), len(values), domain_cap)
        if candidates > budget:
            shown = (str(candidates) if candidates < 10**9
                     else f"about 10^{len(str(candidates)) - 1}")
            raise ResourceError(
                f"rank {rank}: enumeration needs {shown} candidate names, "
                f"budget is {budget}"
            )
        cap = len(prev) if domain_cap is None else min(domain_cap, len(prev))
        for size in range(cap + 1):
            for domain in itertools.combinations(prev, size):
                for assignment in itertools.product(values, repeat=size):
                    uni.insert(tuple(zip(domain, assignment)))
    return uni


# -- hereditarily finite sets -----------------------------------------------------


def parse_hf(text: str) -> HF:
    """Parse a nested-braces literal such as `{{},{{}}}` into nested frozensets."""
    text = re.sub(r"\s+", "", text)
    pos = 0

    def parse() -> HF:
        nonlocal pos
        if pos >= len(text) or text[pos] != "{":
            raise InputError(f"expected '{{' at position {pos} of HF literal")
        pos += 1
        members = []
        while pos < len(text) and text[pos] != "}":
            members.append(parse())
            if pos < len(text) and text[pos] == ",":
                pos += 1
        if pos >= len(text):
            raise InputError("unterminated HF literal")
        pos += 1  # closing brace
        return frozenset(members)

    out = parse()
    if pos != len(text):
        raise InputError(f"trailing characters at position {pos} of HF literal")
    return out


def hf_nat(n: int) -> HF:
    """The von Neumann numeral n as a hereditarily finite set."""
    out: HF = frozenset()
    for _ in range(n):
        out = out | frozenset([out])
    return out


def check_name(universe: Universe, x: Union[HF, str]) -> int:
    """Embed a hereditarily finite set: every member mapped to top, recursively."""
    if isinstance(x, str):
        x = parse_hf(x)
    top = universe.algebra.top_i

    def build(s: HF) -> int:
        children = sorted(build(m) for m in s)
        return universe.insert([(c, top) for c in children])

    return build(x)


# -- CLI name-entry literals --------------------------------------------------------

_ENTRY_RE = re.compile(r"#(\d+)\s*:\s*([A-Za-z0-9_]+)")


def parse_name_literal(text: str, universe: Universe) -> int:
    """Parse and intern a name given as `{#0: half, #1: one}`.

    Keys are existing NameIds; values are element identifiers of the
    universe's algebra (the aliases one/zero/top/bottom are accepted).
    """
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise InputError(f"name literal must be brace-delimited: {text!r}")
    inner = body[1:-1].strip()
    entries: dict[int, int] = {}
    if inner:
        parts = [p.strip() for p in inner.split(",")]
        for part in parts:
            m = _ENTRY_RE.fullmatch(part)
            if not m:
                raise InputError(f"bad name entry {part!r}; expected '#k: element'")
            nid = int(m.group(1))
            if nid in entries:
                raise InputError(f"duplicate key #{nid} in name literal {text!r}")
            elem = universe.algebra.resolve(m.group(2))
            entries[nid] = universe.algebra.index[elem]
    return universe.insert(entries)
