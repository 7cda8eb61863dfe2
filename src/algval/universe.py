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
from collections.abc import Iterable, Mapping
from typing import Optional, Union

from .algebra import Algebra
from .errors import InputError, ResourceError

DEFAULT_BUDGET = 100_000


class Name:
    """An interned name: sorted (child NameId, element index) pairs."""

    __slots__ = ("entries", "rank")

    def __init__(self, entries: tuple[tuple[int, int], ...], rank: int):
        self.entries = entries
        self.rank = rank


class Universe:
    def __init__(self, algebra: Algebra, rank_bound: int):
        self.algebra = algebra
        self.rank_bound = rank_bound
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

    def find(self, entries: tuple[tuple[int, int], ...]) -> Optional[int]:
        """The id of the name with these sorted entries, if it is interned."""
        return self._index.get(entries)

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


def build_universe(algebra: Algebra, rank_bound: int,
                   budget: int = DEFAULT_BUDGET) -> Universe:
    """Enumerate every name up to the rank bound.

    At each rank the candidates are all maps from subsets of the previous
    level into the elements, so the level of rank r has (v+1)^(size of
    level r-1) candidates before deduplication, for v elements.
    Enumeration refuses to start a rank whose candidate count would exceed
    the budget; a count whose order of magnitude alone is past it is
    refused before it is formed.
    """
    if rank_bound < 1:
        raise InputError("rank bound must be at least 1")
    values = range(len(algebra.elements))
    uni = Universe(algebra, rank_bound)
    for rank in range(2, rank_bound + 1):
        prev = [nid for nid in uni.ids() if uni.rank_of(nid) <= rank - 1]
        # the order of magnitude first: the count itself may have more
        # digits than an integer may be printed with
        magnitude = len(prev) * math.log10(len(values) + 1)
        if magnitude >= 9 and magnitude > math.log10(max(budget, 1)) + 1:
            raise ResourceError(
                f"rank {rank}: enumeration needs about 10^{int(magnitude)} candidate names, "
                f"budget is {budget}"
            )
        candidates = (len(values) + 1) ** len(prev)
        if candidates > budget:
            shown = (str(candidates) if candidates < 10**9
                     else f"about 10^{len(str(candidates)) - 1}")
            raise ResourceError(
                f"rank {rank}: enumeration needs {shown} candidate names, "
                f"budget is {budget}"
            )
        for size in range(len(prev) + 1):
            for domain in itertools.combinations(prev, size):
                for assignment in itertools.product(values, repeat=size):
                    uni.insert(tuple(zip(domain, assignment)))
    return uni


# -- CLI name-entry literals --------------------------------------------------------

# an element is any token without whitespace, ',' or '#', as in the
# algebra text format; `Algebra.resolve` rejects one the algebra lacks
_ENTRY_RE = re.compile(r"#(\d+)\s*:\s*([^\s,#]+)")


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
