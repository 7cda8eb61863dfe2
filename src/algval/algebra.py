"""Finite bounded lattices with implication and star, plus their validators.

Every algebra here is a small finite carrier with total operation tables.
Element identifiers are opaque interned strings; the partial order is always
induced from the meet table (a <= b iff a /\\ b == a), never from identifier
order.  Operations are pure lookups in immutable tables, and what an algebra
keeps (its law verdicts, propositional columns) is written once per key.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CapabilityError, InputError

# Canonical three-valued target of the collapse map.
PS3_TOP = "1"
PS3_MID = "half"
PS3_BOT = "0"

# Maximum carrier size for exhaustive subset sweeps (2^n subsets).
SUBSET_SWEEP_CAP = 12


class Algebra:
    """A finite bounded lattice with implication and an optional star table.

    `meet`, `join`, `imp` are total binary tables and `star` a total unary
    table, all over `elements`.  Nothing is validated beyond totality at
    construction time; the lattice and implication laws are checked
    separately so that deliberately defective tables can be built and
    reported on.
    """

    def __init__(
        self,
        name: str,
        elements: Sequence[str],
        meet: Mapping[tuple[str, str], str],
        join: Mapping[tuple[str, str], str],
        imp: Mapping[tuple[str, str], str],
        top: str,
        bottom: str,
        star: Optional[Mapping[str, str]] = None,
        star_rule: Optional[str] = None,
    ):
        if len(set(elements)) != len(elements):
            raise InputError(f"duplicate element identifiers in {elements!r}")
        self.name = name
        self.elements: tuple[str, ...] = tuple(elements)
        self.index: dict[str, int] = {e: i for i, e in enumerate(self.elements)}
        if top not in self.index or bottom not in self.index:
            raise InputError("top/bottom must be carrier elements")
        self.top = top
        self.bottom = bottom
        self.top_i = self.index[top]
        self.bottom_i = self.index[bottom]
        self.meet_t = self._binary_table(meet, "meet")
        self.join_t = self._binary_table(join, "join")
        self.imp_t = self._binary_table(imp, "imp")
        self.star_t = self._unary_table(star, "star") if star is not None else None
        # How the star table was derived; "designated" stars are rebuilt when
        # the designated set is overridden.
        self.star_rule = star_rule
        self._cobounded_cache: Optional[bool] = None
        self._lattice: dict[str, Optional[tuple[str, ...]]] = {}  # see _decided
        self._columns: dict = {}  # proplogic's kept columns and index maps

    # -- construction helpers -------------------------------------------------

    def _binary_table(self, table, label) -> tuple[tuple[int, ...], ...]:
        n = len(self.elements)
        out = [[-1] * n for _ in range(n)]
        for (a, b), c in table.items():
            try:
                out[self.index[a]][self.index[b]] = self.index[c]
            except KeyError as exc:
                raise InputError(f"{label} entry {a},{b}->{c}: unknown element {exc}")
        for i, row in enumerate(out):
            for j, v in enumerate(row):
                if v < 0:
                    raise InputError(
                        f"{label} table is not total: missing entry "
                        f"({self.elements[i]}, {self.elements[j]})"
                    )
        return tuple(tuple(row) for row in out)

    def _unary_table(self, table, label) -> tuple[int, ...]:
        n = len(self.elements)
        out = [-1] * n
        for a, b in table.items():
            try:
                out[self.index[a]] = self.index[b]
            except KeyError as exc:
                raise InputError(f"{label} entry {a}->{b}: unknown element {exc}")
        for i, v in enumerate(out):
            if v < 0:
                raise InputError(f"{label} table missing entry for {self.elements[i]}")
        return tuple(out)

    # -- string-level API ------------------------------------------------------

    def _i(self, a: str) -> int:
        try:
            return self.index[a]
        except KeyError:
            raise InputError(f"unknown element {a!r} of algebra {self.name}")

    def resolve(self, a: str) -> str:
        """Resolve an element identifier, accepting the documented aliases
        one/zero (for elements named 1/0) and top/bottom."""
        if a in self.index:
            return a
        low = a.lower()
        if low == "one" and "1" in self.index:
            return "1"
        if low == "zero" and "0" in self.index:
            return "0"
        if low == "top":
            return self.top
        if low == "bottom":
            return self.bottom
        raise InputError(f"unknown element {a!r} of algebra {self.name}")

    def meet(self, a: str, b: str) -> str:
        return self.elements[self.meet_t[self._i(a)][self._i(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self.join_t[self._i(a)][self._i(b)]]

    def imp(self, a: str, b: str) -> str:
        return self.elements[self.imp_t[self._i(a)][self._i(b)]]

    def star(self, a: str) -> str:
        if self.star_t is None:
            raise CapabilityError(f"algebra {self.name} has no star table")
        return self.elements[self.star_t[self._i(a)]]

    def le(self, a: str, b: str) -> bool:
        return self.meet(a, b) == a

    def big_meet(self, elems: Iterable[str]) -> str:
        """Meet of a finite subset; the empty meet is the top element."""
        acc = self.top_i
        t = self.meet_t
        for a in elems:
            acc = t[acc][self._i(a)]
        return self.elements[acc]

    def big_join(self, elems: Iterable[str]) -> str:
        """Join of a finite subset; the empty join is the bottom element."""
        acc = self.bottom_i
        t = self.join_t
        for a in elems:
            acc = t[acc][self._i(a)]
        return self.elements[acc]

    def intermediates(self) -> list[str]:
        """Elements strictly between bottom and top, in carrier order."""
        return [e for e in self.elements if e != self.top and e != self.bottom]

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Algebra({self.name}, {len(self.elements)} elements)"


# -- law reports ---------------------------------------------------------------


@dataclass
class AlgebraReport:
    """Named verdicts plus a counterexample tuple for every failed law."""

    algebra: str
    verdicts: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, tuple[str, ...]] = field(default_factory=dict)
    info: dict[str, str] = field(default_factory=dict)

    def record(self, law: str, ok: bool, witness: tuple[str, ...] = ()):
        self.verdicts[law] = ok
        if not ok:
            self.witnesses[law] = witness
        else:
            self.witnesses.pop(law, None)

    def ok(self, law: str) -> bool:
        return self.verdicts.get(law, False)

    def lines(self) -> list[str]:
        out = []
        for law in sorted(self.verdicts):
            mark = "true" if self.verdicts[law] else "false"
            suffix = ""
            if law in self.witnesses:
                suffix = "  witness: " + " ".join(self.witnesses[law])
            out.append(f"{law}: {mark}{suffix}")
        for k in sorted(self.info):
            out.append(f"{k}: {self.info[k]}")
        return out


def check_lattice(alg: Algebra) -> AlgebraReport:
    """Exhaustively test the lattice laws, boundedness and distributivity.

    The witness of a failed verdict is its first failing point in element
    order, and at that point the first failing law in the order listed by
    `_laws`."""
    rep = AlgebraReport(alg.name)
    verdicts = ("lattice", "bounded", "distributive")
    for law, witness in zip(verdicts, _decided(alg, verdicts)):
        rep.record(law, witness is None, witness or ())
    return rep


def is_bounded_lattice(alg: Algebra) -> bool:
    """Whether meet and join form a bounded lattice, without deciding
    distributivity."""
    return _decided(alg, ("lattice", "bounded")) == [None, None]


def _decided(alg: Algebra, verdicts: tuple[str, ...]) -> list[Optional[tuple[str, ...]]]:
    """The first witness of each of the `check_lattice` verdicts named
    (None when it holds), each decided once per algebra."""
    todo = [v for v in verdicts if v not in alg._lattice]
    if todo:
        laws = _laws(alg)
        alg._lattice.update((v, _first_failure(alg.elements, laws[v])) for v in todo)
    return [alg._lattice[v] for v in verdicts]


def _laws(alg: Algebra) -> dict[str, list]:
    """The laws of each `check_lattice` verdict as (points, sides) groups
    for `_first_failure`.  A side is a nested row of element indices, each
    row read with one C-level call: for associativity of meet at a, row b
    of one side is `meet[b]` read at a's row, and of the other the row of
    a /\\ b."""
    ids = tuple(range(len(alg.elements)))
    m, j, at_m, at_j = alg.meet_t, alg.join_t, _readers(alg.meet_t), _readers(alg.join_t)
    cols_m, cols_j, each = tuple(zip(*m)), tuple(zip(*j)), [(a,) for a in ids]
    own = [(a,) * len(ids) for a in ids]
    return {
        "lattice": [([()], lambda: [
            ("commutativity-meet", m, cols_m), ("commutativity-join", j, cols_j),
            ("absorption-meet", [g(r) for g, r in zip(at_j, m)], own),
            ("absorption-join", [g(r) for g, r in zip(at_m, j)], own)]),
            # idempotence follows from absorption, a /\\ a = a /\\ (a \\/ (a /\\ a)) = a,
            # so it never gives the first witness
            (each, lambda a: [
                ("associativity-meet", [g(m[a]) for g in at_m], list(at_m[a](m))),
                ("associativity-join", [g(j[a]) for g in at_j], list(at_j[a](j)))])],
        "bounded": [([()], lambda: [("top", cols_m[alg.top_i], ids),
                                    ("bottom", cols_j[alg.bottom_i], ids)])],
        "distributive": [(each, lambda a: [
            ("meet-over-join", [g(m[a]) for g in at_j], list(map(at_m[a], at_m[a](j)))),
            ("join-over-meet", [g(j[a]) for g in at_m], list(map(at_j[a], at_j[a](m))))])],
    }


def _readers(table: tuple[tuple[int, ...], ...]) -> list:
    """For each row r of a table, a reader of any sequence at r's entries,
    into a tuple."""
    return [itemgetter(*r) if len(r) > 1 else lambda row, x=r[0]: (row[x],) for r in table]


def _first_failure(es: Sequence[str], groups: list) -> Optional[tuple[str, ...]]:
    """The name and elements of the first point, group by group and in
    element order within one, where a law fails (the first such law there);
    None if every law holds.  A group is (points, sides), and sides(*p) lists
    each law as (name, lhs, rhs): its two sides at every point that begins
    with p, as nested rows indexed by the rest."""
    for points, sides in groups:
        for p in points:
            found = [(rest, order, name) for order, (name, lhs, rhs) in enumerate(sides(*p))
                     if (rest := _difference(lhs, rhs))]
            if found:
                rest, _, name = min(found)
                return (name, *(es[i] for i in (*p, *rest)))
    return None


def _difference(lhs, rhs) -> tuple[int, ...]:
    """The index path to the first entry where two nested rows of the same
    shape differ; () where they are equal."""
    if lhs == rhs or isinstance(lhs, int):
        return ()
    c = next(c for c in range(len(lhs)) if lhs[c] != rhs[c])
    return (c, *_difference(lhs[c], rhs[c]))


def check_drim(alg: Algebra) -> AlgebraReport:
    """Test the four implication laws P1-P4 over all element triples.

    P1: a /\\ b <= c implies a <= b => c
    P2: b <= c implies a => b <= a => c
    P3: b <= c implies c => a <= b => a
    P4: (a /\\ b) => c == a => (b => c)
    """
    rep = check_lattice(alg)
    if not (rep.ok("lattice") and rep.ok("bounded")):
        rep.record("drim", False, ("not-a-bounded-lattice",))
        return rep
    m, i, ids = alg.meet_t, alg.imp_t, range(len(alg.elements))
    le = lambda x, y: m[x][y] == x  # noqa: E731  (x <= y)
    holds = [True] * len(ids)
    witness = _first_failure(alg.elements, [(itertools.product(ids, repeat=2), lambda a, b: [
        ("P1", [not le(m[a][b], c) or le(a, i[b][c]) for c in ids], holds),
        ("P2", [not le(b, c) or le(i[a][b], i[a][c]) for c in ids], holds),
        ("P3", [not le(b, c) or le(i[c][a], i[b][a]) for c in ids], holds),
        ("P4", list(i[m[a][b]]), [i[a][x] for x in i[b]])])])
    rep.record("drim", witness is None, witness or ())
    return rep


def check_cobounded(alg: Algebra) -> AlgebraReport:
    """Test the cobounded-algebra conditions two independent ways.

    A cobounded algebra is a complete distributive bounded lattice where a
    join reaches top only via a member that is already top (dually for meets
    and bottom), and whose implication collapses to two values:
    a => b == bottom iff a != bottom and b == bottom, else top.

    The join/meet conditions are verified both by exhaustive subset search
    (carriers up to 12 elements) and by the closed-form characterization
    join(carrier minus top) != top / meet(carrier minus bottom) != bottom.
    The unique atom and coatom are reported when the verdict is true.
    """
    rep = check_lattice(alg)
    es = alg.elements
    structural = rep.ok("lattice") and rep.ok("bounded") and rep.ok("distributive")

    coatom = alg.big_join([e for e in es if e != alg.top])
    atom = alg.big_meet([e for e in es if e != alg.bottom])
    closed_ok = coatom != alg.top and atom != alg.bottom
    closed_witness: tuple[str, ...] = ()
    if coatom == alg.top:
        closed_witness = ("join-of-non-top-elements-is-top",)
    elif atom == alg.bottom:
        closed_witness = ("meet-of-non-bottom-elements-is-bottom",)

    subset_ok: Optional[bool] = None
    subset_witness: tuple[str, ...] = ()
    if len(es) <= SUBSET_SWEEP_CAP:
        subset_ok = True
        for r in range(1, len(es) + 1):
            for combo in itertools.combinations(es, r):
                if alg.big_join(combo) == alg.top and alg.top not in combo:
                    subset_ok, subset_witness = False, ("join",) + combo
                    break
                if alg.big_meet(combo) == alg.bottom and alg.bottom not in combo:
                    subset_ok, subset_witness = False, ("meet",) + combo
                    break
            if not subset_ok:
                break
        rep.info["cobounded-subset-search"] = "true" if subset_ok else "false"
    rep.info["cobounded-closed-form"] = "true" if closed_ok else "false"

    imp_witness = next((("imp", a, b, alg.imp(a, b)) for (a, b), want
                        in _collapsing_imp(es, alg.bottom, alg.top).items()
                        if alg.imp(a, b) != want), ())
    imp_ok = not imp_witness

    conditions_ok = closed_ok if subset_ok is None else (closed_ok and subset_ok)
    ok = structural and conditions_ok and imp_ok
    if not structural:
        rep.record("cobounded", False, ("not-a-distributive-bounded-lattice",))
    elif not conditions_ok:
        rep.record("cobounded", False, subset_witness or closed_witness)
    else:
        rep.record("cobounded", ok, imp_witness)
    if ok:
        rep.info["atom"] = atom
        rep.info["coatom"] = coatom
    return rep


def is_filter(alg: Algebra, members: Iterable[str]) -> tuple[bool, tuple[str, ...]]:
    """Filter test: contains top, excludes bottom, upward closed, meet closed."""
    d = frozenset(alg.resolve(m) for m in members)
    if alg.top not in d:
        return False, ("missing-top",)
    if alg.bottom in d:
        return False, ("contains-bottom",)
    for x in filter(d.__contains__, alg.elements):
        for y in alg.elements:
            if alg.le(x, y) and y not in d:
                return False, ("not-upward-closed", x, y)
    for x, y in itertools.product(sorted(d), repeat=2):
        if alg.meet(x, y) not in d:
            return False, ("not-meet-closed", x, y)
    return True, ()


def _generated_filter_is_proper(alg: Algebra, d: frozenset, a: str) -> bool:
    """Whether the filter generated by d and a is still a proper filter."""
    base = {alg.meet(x, a) for x in d} | {a}
    closure = {y for b in base for y in alg.elements if alg.le(b, y)}
    return alg.bottom not in closure


def check_filter(alg: Algebra, members: Iterable[str]) -> AlgebraReport:
    """Filter/ultrafilter verdicts for a candidate designated set.

    Also reports whether the pair (algebra, set) forms a designated
    cobounded algebra (star present and matching the designated-relative
    rule) and an ultra-designated one (the set is additionally maximal, in
    which case everything outside it must be the bottom element).
    """
    rep = AlgebraReport(alg.name)
    d = frozenset(alg.resolve(m) for m in members)
    ok, witness = is_filter(alg, d)
    rep.record("filter", ok, witness)

    if ok:
        ultra = True
        uw: tuple[str, ...] = ()
        for a in alg.elements:
            if a in d:
                continue
            if _generated_filter_is_proper(alg, d, a):
                ultra, uw = False, ("extendable-by", a)
                break
        if len(alg.elements) <= SUBSET_SWEEP_CAP:
            # Dual route: brute maximality among all filters.
            brute = True
            for r in range(len(d) + 1, len(alg.elements) + 1):
                for combo in itertools.combinations(alg.elements, r):
                    cs = frozenset(combo)
                    if d < cs and is_filter(alg, cs)[0]:
                        brute = False
                        break
                if not brute:
                    break
            rep.info["ultrafilter-subset-search"] = "true" if brute else "false"
            rep.info["ultrafilter-maximality"] = "true" if ultra else "false"
            ultra = ultra and brute
        rep.record("ultrafilter", ultra, uw)
    else:
        rep.record("ultrafilter", False, witness)

    cob = check_cobounded(alg)
    desig_ok = cob.ok("cobounded") and ok and alg.star_t is not None
    dw: tuple[str, ...] = ()
    if desig_ok:
        want = _designated_star(alg.elements, alg.top, alg.bottom, d)
        bad = [a for a in alg.elements if alg.star(a) != want[a]]
        if bad:
            desig_ok, dw = False, ("star", bad[0], alg.star(bad[0]), "expected", want[bad[0]])
    elif cob.ok("cobounded") and ok:
        dw = ("star-table-absent",)
    else:
        dw = ("not-cobounded-or-not-a-filter",)
    rep.record("designated-cobounded", desig_ok, dw)

    ultra_desig = desig_ok and rep.ok("ultrafilter")
    udw: tuple[str, ...] = ()
    if ultra_desig:
        outside = frozenset(alg.elements) - d
        if outside != frozenset({alg.bottom}):
            # Cannot happen for a genuine ultrafilter on a cobounded algebra;
            # reported as a failed verdict rather than silently ignored.
            ultra_desig = False
            udw = ("complement-of-designated-not-bottom",) + tuple(sorted(outside))
        else:
            rep.info["complement-of-designated"] = alg.bottom
    rep.record("ultra-designated-cobounded", ultra_desig, udw)
    return rep


# -- collapse map ----------------------------------------------------------------


def _is_cobounded(alg: Algebra) -> bool:
    if alg._cobounded_cache is None:
        alg._cobounded_cache = check_cobounded(alg).ok("cobounded")
    return alg._cobounded_cache


def collapse_f(alg: Algebra, a: str) -> str:
    """Collapse an element of a cobounded algebra into the three-valued core.

    Top maps to 1, bottom to 0, everything strictly between to half.  This
    is a homomorphism for meet, join, imp and (designated-rule) star, and it
    commutes with arbitrary finite meets and joins.
    """
    if not _is_cobounded(alg):
        raise CapabilityError(f"collapse is only defined on cobounded algebras, not {alg.name}")
    a = alg.resolve(a)
    if a == alg.top:
        return PS3_TOP
    if a == alg.bottom:
        return PS3_BOT
    return PS3_MID


# -- builders --------------------------------------------------------------------


def _designated_star(elements, top, bottom, designated) -> dict[str, str]:
    star_table = {}
    for a in elements:
        if a == top:
            star_table[a] = bottom
        elif a in designated:
            star_table[a] = a
        else:
            star_table[a] = top
    return star_table


def _collapsing_imp(elements, bottom, top) -> dict[tuple[str, str], str]:
    return {
        (a, b): (bottom if (a != bottom and b == bottom) else top)
        for a in elements
        for b in elements
    }


def ps3() -> tuple[Algebra, frozenset[str]]:
    """The three-valued algebra with designated set {1, half}.

    The star table follows the designated-relative rule (1* = 0,
    half* = half, 0* = 1), which is what every downstream result relies on.
    """
    es = ("1", "half", "0")
    meet = {
        ("1", "1"): "1", ("1", "half"): "half", ("1", "0"): "0",
        ("half", "1"): "half", ("half", "half"): "half", ("half", "0"): "0",
        ("0", "1"): "0", ("0", "half"): "0", ("0", "0"): "0",
    }
    join = {
        ("1", "1"): "1", ("1", "half"): "1", ("1", "0"): "1",
        ("half", "1"): "1", ("half", "half"): "half", ("half", "0"): "half",
        ("0", "1"): "1", ("0", "half"): "half", ("0", "0"): "0",
    }
    imp = {
        ("1", "1"): "1", ("1", "half"): "1", ("1", "0"): "0",
        ("half", "1"): "1", ("half", "half"): "1", ("half", "0"): "0",
        ("0", "1"): "1", ("0", "half"): "1", ("0", "0"): "1",
    }
    designated = frozenset({"1", "half"})
    star_table = {"1": "0", "half": "half", "0": "1"}
    alg = Algebra("ps3", es, meet, join, imp, "1", "0", star_table, star_rule="designated")
    return alg, designated


def boolean_algebra(n_atoms: int) -> tuple[Algebra, frozenset[str]]:
    """Powerset algebra on n atoms with classical implication and complement."""
    if n_atoms < 1:
        raise InputError("a boolean algebra needs at least one atom")
    masks = list(range(1 << n_atoms))
    full = (1 << n_atoms) - 1

    def label(m: int) -> str:
        if m == 0:
            return "0"
        if m == full:
            return "1"
        return "".join(f"p{i + 1}" for i in range(n_atoms) if m >> i & 1)

    es = [label(m) for m in masks]
    by_mask = dict(zip(masks, es))
    meet = {(by_mask[a], by_mask[b]): by_mask[a & b] for a in masks for b in masks}
    join = {(by_mask[a], by_mask[b]): by_mask[a | b] for a in masks for b in masks}
    imp = {(by_mask[a], by_mask[b]): by_mask[(a ^ full) | b] for a in masks for b in masks}
    star_table = {by_mask[a]: by_mask[a ^ full] for a in masks}
    alg = Algebra(
        f"bool{len(es)}", es, meet, join, imp, by_mask[full], by_mask[0],
        star_table, star_rule="complement",
    )
    return alg, frozenset({by_mask[full]})


CHAIN_MAX = 300


def chain(k: int, designated: Optional[Iterable[str]] = None
          ) -> tuple[Algebra, frozenset[str]]:
    """Totally ordered k-element algebra with the collapsing implication
    and the designated-relative star.

    Elements are 0 < a < b < ... < z < { < | < } < ~ < e31 < e32 < ... < 1:
    the letters run on through printable ASCII, and past `~` the element
    at position i from the bottom is named `e<i>`, which the text format
    and `--designated` read like any other name.  The default designated
    set is everything except bottom, which is an ultrafilter.

    k is at most CHAIN_MAX (300), checked before any table is built.  The
    tables hold k * k entries each, so time and memory grow with k squared
    (a process that builds chain300 peaks at about 55 MB of RSS, one that
    builds chain1000 at 360 MB), while `check all` on chain300 at rank 2
    does not finish within 300 s of CPU: a longer chain would only cost
    more.
    """
    if k < 2:
        raise InputError("a chain needs at least two elements")
    if k > CHAIN_MAX:
        raise InputError(f"a chain has at most {CHAIN_MAX} elements, not {k}: "
                         "its tables grow with the square of its size")
    es = ["0"] + [chr(ord("a") + i - 1) if i <= 30 else f"e{i}" for i in range(1, k - 1)] + ["1"]
    order = {e: i for i, e in enumerate(es)}
    meet = {(x, y): (x if order[x] <= order[y] else y) for x in es for y in es}
    join = {(x, y): (y if order[x] <= order[y] else x) for x in es for y in es}
    imp = _collapsing_imp(es, "0", "1")
    if designated is None:
        d = frozenset(es[1:])
    else:
        d = frozenset(designated)
    star_table = _designated_star(es, "1", "0", d)
    alg = Algebra(f"chain{k}", es, meet, join, imp, "1", "0", star_table,
                  star_rule="designated")
    ok, witness = is_filter(alg, d)
    if not ok:
        raise InputError(f"designated set {sorted(d)} is not a filter: {witness}")
    return alg, d


def stretch(base: Algebra, designated: Optional[Iterable[str]] = None
            ) -> tuple[Algebra, frozenset[str]]:
    """Add a fresh top and bottom around a bounded lattice.

    The base's top and bottom become the unique coatom and atom of the
    result, so the stretched algebra is cobounded; implication and star are
    installed per the designated-cobounded rules.
    """
    if not is_bounded_lattice(base):
        raise InputError(f"cannot stretch {base.name}: not a bounded lattice")
    ren = {e: f"b_{e}" for e in base.elements}
    es = ["0"] + [ren[e] for e in base.elements] + ["1"]

    def mt(x: str, y: str) -> str:
        if x == "0" or y == "0":
            return "0"
        if x == "1":
            return y
        if y == "1":
            return x
        return ren[base.meet(x[2:], y[2:])]

    def jn(x: str, y: str) -> str:
        if x == "1" or y == "1":
            return "1"
        if x == "0":
            return y
        if y == "0":
            return x
        return ren[base.join(x[2:], y[2:])]

    meet = {(x, y): mt(x, y) for x in es for y in es}
    join = {(x, y): jn(x, y) for x in es for y in es}
    imp = _collapsing_imp(es, "0", "1")
    d = frozenset(es[1:]) if designated is None else frozenset(designated)
    star_table = _designated_star(es, "1", "0", d)
    alg = Algebra(f"stretch-{base.name}", es, meet, join, imp, "1", "0",
                  star_table, star_rule="designated")
    ok, witness = is_filter(alg, d)
    if not ok:
        raise InputError(f"designated set {sorted(d)} is not a filter: {witness}")
    return alg, d


BUILTIN_NAMES = ("ps3", "bool2", "bool4") + tuple(f"chain{k}" for k in range(3, 9)) + (
    "stretch-bool4",
)


def builtin(name: str) -> tuple[Algebra, frozenset[str]]:
    """Resolve one of the named builtin algebras."""
    if name == "ps3":
        return ps3()
    if name == "bool2":
        return boolean_algebra(1)
    if name == "bool4":
        return boolean_algebra(2)
    if name.startswith("chain") and name[5:].isdecimal():
        return chain(int(name[5:]))
    if name == "stretch-bool4":
        base, _ = boolean_algebra(2)
        return stretch(base)
    raise InputError(f"unknown builtin algebra {name!r}; choose from {', '.join(BUILTIN_NAMES)}")


def override_designated(alg: Algebra, designated: Iterable[str]
                        ) -> tuple[Algebra, frozenset[str]]:
    """Replace the designated set, rebuilding the star table when it was
    derived from the old set."""
    d = frozenset(alg.resolve(m) for m in designated)
    ok, witness = is_filter(alg, d)
    if not ok:
        raise InputError(f"designated set {sorted(d)} is not a filter: {witness}")
    if alg.star_rule != "designated":
        return alg, d
    es = alg.elements
    meet = {(a, b): alg.meet(a, b) for a in es for b in es}
    join = {(a, b): alg.join(a, b) for a in es for b in es}
    imp = {(a, b): alg.imp(a, b) for a in es for b in es}
    star_table = _designated_star(es, alg.top, alg.bottom, d)
    out = Algebra(alg.name, es, meet, join, imp, alg.top, alg.bottom,
                  star_table, star_rule="designated")
    return out, d


# -- textual definition files ------------------------------------------------------
#
# Line-oriented format, '#' starts a comment:
#   elements 1 half 0
#   top 1
#   bottom 0
#   designated 1 half
#   meet A B C      (one line per ordered pair, tables must be total)
#   join A B C
#   imp A B C
#   star A B        (optional; either absent or total)


def loads_algebra(text: str, name: str = "file") -> tuple[Algebra, frozenset[str]]:
    elements: list[str] = []
    tables: dict[str, dict] = {"meet": {}, "join": {}, "imp": {}, "star": {}}
    top = bottom = None
    designated: list[str] = []
    seen: dict[tuple[str, ...], int] = {}  # line number of each table entry or keyword
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw, args = tokens[0], tokens[1:]
        key = (kw, *args[:-1]) if kw in ("meet", "join", "imp", "star") else (kw,)
        if key in seen:
            raise InputError(f"line {lineno}: {' '.join(key)} already given on line {seen[key]}")
        seen[key] = lineno
        if kw == "elements":
            elements = args
        elif kw in ("top", "bottom"):
            if len(args) != 1:
                raise InputError(f"line {lineno}: {kw} takes one element")
            if kw == "top":
                top = args[0]
            else:
                bottom = args[0]
        elif kw == "designated":
            designated = args
        elif kw in ("meet", "join", "imp"):
            if len(args) != 3:
                raise InputError(f"line {lineno}: {kw} takes a triple")
            tables[kw][(args[0], args[1])] = args[2]
        elif kw == "star":
            if len(args) != 2:
                raise InputError(f"line {lineno}: star takes a pair")
            tables["star"][args[0]] = args[1]
        else:
            raise InputError(f"line {lineno}: unknown keyword {kw!r}")
    if not elements:
        raise InputError("algebra file declares no elements")
    if top is None or bottom is None:
        raise InputError("algebra file must declare top and bottom")
    star_table = tables["star"] or None
    alg = Algebra(name, elements, tables["meet"], tables["join"], tables["imp"],
                  top, bottom, star_table, star_rule="explicit" if star_table else None)
    return alg, frozenset(alg.resolve(m) for m in designated)


def load_algebra(path: str) -> tuple[Algebra, frozenset[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read algebra file {path}: {exc}") from exc
    return loads_algebra(text, name=os.path.splitext(os.path.basename(path))[0])


def dumps_algebra(alg: Algebra, designated: Iterable[str]) -> str:
    lines = ["elements " + " ".join(alg.elements),
             f"top {alg.top}", f"bottom {alg.bottom}",
             "designated " + " ".join(sorted(designated))]
    for op in ("meet", "join", "imp"):
        for a in alg.elements:
            for b in alg.elements:
                lines.append(f"{op} {a} {b} {getattr(alg, op)(a, b)}")
    if alg.star_t is not None:
        for a in alg.elements:
            lines.append(f"star {a} {alg.star(a)}")
    return "\n".join(lines) + "\n"
