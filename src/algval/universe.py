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

The prefix of a name is the name less its last entry (x, a), in the sorted
order of its entries.  `insert` records, for each fresh name, the id of its
prefix in `prefix` and that last entry as x * k + a in `last_entry`, for an
algebra of k elements; a prefix that is not interned when the name is gets
-1, and so does the empty name, which has neither.  Enumeration interns
every prefix before its name (`build_universe`), so a pass down the two
arrays (`Universe.states`) computes any function of a name's entries that
is one step from its prefix's, once per distinct step.
"""

from __future__ import annotations

import copy
import itertools
import math
import re
from array import array
from collections.abc import Hashable, Iterable, Mapping
from typing import Callable, Union

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
        # the empty name, always NameId 0, has neither a prefix nor a last entry
        self.names: list[Name] = [Name((), 1)]
        self._index: dict[tuple[tuple[int, int], ...], int] = {(): 0}
        # each name's prefix id and last entry (see the module docstring)
        self.prefix, self.last_entry = array("i", [-1]), array("i", [-1])

    # -- interning --------------------------------------------------------------

    def insert(self, entries: Union[Mapping[int, int], Iterable[tuple[int, int]]]) -> int:
        """Intern a name, returning the existing id when the map is known.

        A fresh name lands at rank 1 + max rank of its domain (rank 1 for
        the empty map).  Every domain id must already be interned.  Its
        prefix and last entry are recorded as the name is interned.
        """
        if isinstance(entries, Mapping):
            items = sorted(entries.items())
        else:
            items = sorted(entries)
        key = tuple(items)
        names, index = self.names, self._index
        hit = index.get(key)
        if hit is not None:
            return hit
        n, k = len(names), len(self.algebra.elements)
        rank = 1
        for child, value in items:
            if not 0 <= child < n:
                raise InputError(f"name entry refers to unknown NameId #{child}")
            if not 0 <= value < k:
                raise InputError(f"name entry has unknown element index {value}")
            if names[child].rank >= rank:
                rank = names[child].rank + 1
        names.append(Name(key, rank))
        x, a = key[-1]  # a fresh name has entries: the empty one is interned first
        self.prefix.append(index.get(key[:-1], -1))
        self.last_entry.append(x * k + a)
        index[key] = n
        return n

    def copy(self) -> "Universe":
        """An independent universe holding the same names under the same ids."""
        out = copy.copy(self)
        out.names = list(self.names)
        out._index = dict(self._index)
        out.prefix, out.last_entry = self.prefix[:], self.last_entry[:]
        return out

    def states(self, start: Hashable, move: Callable[[Hashable, int, int], Hashable],
               n: int) -> tuple[array, list]:
        """A value of every name below n, down the prefix arrays: `start` at
        the empty name, and move(s, x, a) at a name whose prefix has s and
        whose last entry is (x, a).  Each name gets the id of its value, in
        the order of the first name that has it, and the values come by id.
        `move` runs once per distinct (id, last entry), not per name.  Every
        name from 1 up to n must have its prefix interned below it, as the
        names of an enumerated universe do (`build_universe`), a check's
        workspace among them until its first insert."""
        k = len(self.algebra.elements)
        values, ids, moves = [start], {start: 0}, {}
        states, width = array("i", [0]) * n, n * k  # every last entry below n is below width
        for v, p, e in zip(range(1, n), self.prefix[1:n], self.last_entry[1:n]):
            key = states[p] * width + e
            s = moves.get(key)
            if s is None:
                to = move(values[states[p]], *divmod(e, k))
                s = moves[key] = ids.setdefault(to, len(values))
                if s == len(values):
                    values.append(to)
            states[v] = s
        return states, values

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
        # every name so far is of lower rank: a map into lower levels was interned at its own
        prev = range(len(uni))
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
