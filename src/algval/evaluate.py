"""Truth-value assignment over a bounded universe of names.

Two assignment styles share one membership clause and differ on equality:

  membership(u, v) = join over x in dom(v) of  v(x) /\\ equality(x, u)

  equality under "ba" (the boolean-style reading):
      meet over x in dom(u) of (u(x) => membership(x, v))
      /\\ meet over y in dom(v) of (v(y) => membership(y, u))

  equality under "pa" (the paraconsistent reading) adds the contrapositive
  conjunct (membership(x, v)* => u(x)*) to every factor, and symmetrically
  for dom(v).

The two clauses are mutually recursive; termination is by descent on the
sum of the argument ranks, since every recursive call replaces one argument
by a member of the other's domain.  Each context memoizes the atomic
values that the clauses compute in a store of its own, so "ba" and "pa"
values never alias.  A store is two dicts of rows, one row per name and
relation: `mem[v][u]` is `u in v` and `eq[max(u, v)][min(u, v)]` is
`u = v`.  A row is an array of element indices whose item type is the
narrowest unsigned one that holds every index below its maximum, which
marks a value not yet computed; it grows only up to the largest index
written to it.  Values read from the class tables below never enter the
store, so where the tables are on it holds the pairs of two low names
and the pairs with a witness name: bool4's 5 low names at rank 3 make 5
rows of 5 items a relation, whatever the sweeps read of its 3125 names.
Every value is deterministic; quantifiers always sweep the universe
contents at call time, and atomic values never depend on what else has
been interned.  `atomic_fills` counts the values the store gains.

A pair of two covered names, not both low, is read by column class
(`ColumnClasses`), before the store is looked at.  The entries of every
enumerated name lie among the low names L, those of lower rank.  So
`u = v` reads u's entries only against v's membership column, the values
of `x in v` for x in L, and v's entries only against u's; and `u in v`
reads v's entries only against u's equality column, `x = u` for x in L.
Names with equal columns form a class (ps3 at rank 3: 256 names, 27
membership and 4 equality classes), and the tables hold one cell per
class and name: H[c][u], u's half of `u = v` for a v of membership class
c, and M[c][v], `u in v` for a u of equality class c:

    `=`(u, v) = H[mc(v)][u] /\\ H[mc(u)][v]        `in`(u, v) = M[ec(u)][v]

where mc(v) is the class of v's membership column and ec(u) that of u's
equality column; a pair of a low name x and a top-level v reads `x = v`
or `x in v` from v's column itself.

A class's cells are filled in one pass down the names, by prefix.  The
prefix p(v) of a name v is v less its last entry (x, a).  Enumeration
interns it before v: it has v's weights on a smaller domain, and
`build_universe` goes by rank and then by domain size.  The clause folds
v's entries in order, so its fold over v is its fold over p(v) and one
step more:

    H[c][v] = H[c][p(v)] /\\ factor[a][col_c[x]]
    M[c][v] = M[c][p(v)] \\/ (a /\\ col_c[x])

from top and bottom at the empty name, where col_c is class c's column and
factor[a][m] the clause's factor for an entry of weight a against a
membership m.  The steps are the clause's own, in its order, so the cells
are its folds on any table.  A covered name whose prefix is not interned
below it (a hand-built universe may lack one) turns the tables off.

The low names' columns, the |L| x |L| tables of `y = x` and `y in x`, are
read through the clauses once, when the first class is needed.  A
top-level name's columns are folded from the low names' cells by Bell's
clauses (`ColumnClasses.fold`), not asked of the clauses, so they put
nothing in the store.  The names are sorted into classes in id order, and
each class's cells filled, only as far as a reader needs.  The sweep rows
of enumerated names are filled from the same tables, unless both names
are low; such a row reads every name's cell at one class, a slice of one
array (`ColumnClasses.column`).  Meeting u's half with v's, where the
clause folds one into the other, is sound only for a lattice's meet: the
tables are used only when meet and join pass `algebra.is_bounded_lattice`,
whose verdict each algebra keeps (and, under pa, the algebra has a star
table).  They are not used where they cannot pay: with one low name, as
at rank 2, a clause reads at most one entry a side.  Pairs of two
witness names, and defective tables, take the clause.  The tables cover
enumerated names only, so a run's contexts of one assignment share them
across all the workspaces of a rank.  The class fold of
`theorems.coincidence_mismatches` compares their columns and reads their
cells.

Names by signature.  The signature of a top-level covered name u is its
membership class mc(u), its equality class ec(u), its row of halves
H[.][u] and its row of memberships M[.][u]; a low name is a class of its
own (`ColumnClasses.signatures`).  The four table formulas read a name
only through its signature: `=`(u, v) and `in`(u, v) above, `x = v` and
`x in v` for a low x from v's two columns, and `v in x` as M[ec(v)][x].
So if u and u' share a signature, each atom of u with a covered z has the
value of the same atom of u' with z, z = u and z = u' included: `u = u'`
is H[mc(u)][u] /\\ H[mc(u)][u'], which is `u = u`, and `u in u'` is
M[ec(u)][u'], which is `u in u`.  Swapping u and u' is then an
automorphism of the covered names under `=` and `in`, and a formula whose
constants the swap fixes has one value at u and at u' while the universe
holds no other name.  `EvalContext.name_classes` gives these classes (27
top-level classes of 256 names on ps3 at rank 3 under pa, 9 under ba).  A
reader asks a class at its first name, weights its counts by the sizes
of the classes, and sets a formula's constants apart in classes of their
own (`NameClasses.apart`); `theorems.first_bad_pair` and
`quotient.build_quotient` read pairs of classes so.

Witness names, one level up (`_Witness`).  To a witness w the covered
names play the part that the low names play for a top-level name.  For a
covered r,

    `r in w` = join over the entries (y, a) of w of  a /\\ `y = r`
    w's half of `r = w` = meet over the entries (y, a) of w of
                          factor[a][`y in r`]
    r's half of `r = w` = r's cell at w's membership column over L
    `w in r` = r's cell at w's equality column over L

A covered y has `y = r` and `y in r` at the pair of signature classes of
y and r (`ColumnClasses.class_atoms`), and a witness y its own values
against r.  So w's values depend on r only through r's signature and its
cells at the columns over L of w and of the witnesses below w that no
class of the tables has (`extra`), which split the signature classes
(`ColumnClasses.refined`): w keeps `r in w` and its half once per class.
The folds reassociate meets and joins, and count a repeated (weight,
class) term once, which a lattice's idempotent, commutative and
associative meet and join allow; the gate of the tables is that.  A
clause on two witnesses reads a covered entry's value from the other
witness's values the same way.  Covered names that share a class split
by every witness's extra columns are interchangeable in the grown
universe too, so a sweep visits the first name of each such class alone
(`EvalContext._visit`).

Connectives evaluate homomorphically: /\\, \\/ and -> through the algebra
tables, ~ through star, and the quantifiers as big meet/join over the
names of the (bounded) universe, stopping early once the fold reaches its
absorbing element (bottom for forall, top for exists).  Where the class
tables are on, a fold visits the first name of each class of
interchangeable names, the signature classes split by the witnesses'
extra columns, and then every witness, in id order: 31 of ps3's 256 names
at rank 3 under pa.  Where they are off (rank 2, defective tables, a
covered name whose prefix is missing) it visits every name.  Skipping
the other names is exact for three reasons.  The gate of the tables makes
meet and join idempotent, commutative and associative, so a value met or
joined again changes nothing.  Names of one class answer every atom
alike, each other included, so a skipped name's body has the value of its
class's first name's.  And the visit is a subsequence of id order that
holds the first name of every class, so after each visited name the fold
holds what a fold over every name holds there: it reaches the absorbing
element at the same name, and the bodies run before it are the same.

`sentence(f, params)` compiles a formula into nested closures, once, and
returns a handle: a function of the name ids of `params` that writes them
into the first slots and runs the closures.  `value(f, env)` is a handle
made and called once, so there is one evaluation path; a caller that
evaluates one formula over many names holds a handle for its loop instead,
and the context caches no compiled formula of its own.  Every term is a
slot in a list owned by the handle: the params fill the first slots, every
binder gets a fresh slot, so shadowing is lexical, and a name constant gets
a slot on first use, shared within its scope, that holds its id for the
handle's life.  A constant `#k` and a variable bound to k are thus the same
to the evaluator, and a caller binds a name through a parameter rather than
substituting it into the formula.  Each relation has one atom closure,
which calls its clause on its two slots; the clause reads the tables or
the context's store and computes on a miss.

A connective whose left value fixes the whole table row (bottom -> b, for
instance, on a table where that row is constant) skips its right operand.
The rows are read from the tables, not assumed, so defective tables from
files evaluate exactly as before.

Every quantifier sweeps its variable z by signature.  Each distinct atom
of the body that pairs z with a term bound outside the body (`z in t`,
`t in z`, `z = t`, with t a variable or a constant) or with itself
(`z in z`, `z = z`) has a row: the atom's value at z = 0, 1, 2, ...,
keyed by relation, the side z stands on and t's name id.  An atom that
pairs z with a variable w bound inside the body reads a row of z's own:
`w in z` the row of z's members (the row keyed like `x in t`, with t = z),
`z in w` the row of its containers and `z = w` its equality row.  A row is
an array of the store's item type.  Before it is read a row is filled to
the end of the universe, never rebuilt, which is sound because atomic
values never depend on later inserts.  Past the enumerated names, the row
of `z in t` is a copy of the store's own row for t with its holes filled
through the clause.  The rows are filled for every name but read only at
the names the fold visits (above), each by one C-level gather kept with
the visit for the universe's length.  Within one fold the body's value
depends on z only through z's signature: its values in the rows of the
first kind and the contents of its own rows.  Many visited names share a
signature, so the sweep keeps one dict of body values for its fold and
runs the body once per key.  A name is looked up first under its row
values alone: a run of the body that started no inner sweep read no own
row, so its value holds for every name with those row values and is stored
under them, as is every value of a body without own rows.  On a miss the
name's own rows are filled and interned by their bytes into class ids that
hold while the universe keeps its length, and the value is looked up, or
else stored, under the row values and those ids.  No value outlives its
fold.  `sweeps_run` counts the sweeps, and `names_swept` the names their
folds visited.

`row(rel, u)` gives a caller the values of `u = z` or of `u in z` for
every name z, filled by `_extend` like the sweep row of `z = u` or of
`u in z`: from the class tables where they cover both names, else through
the clauses.  The row is a fresh array that the context does not keep, so
a caller that reads one name's rows at a time holds O(n) values, and
values read from the tables do not enter the store.
`quotient.build_quotient` reads its partition and its verdicts this way,
where asking pair by pair would make 2n² clause calls.

An equality clause stops as soon as its meet reaches bottom, but only when
the meet table's bottom row is constant, so defective tables evaluate as
they always have.  The clauses read the store inline on their recursive
calls.

The store and the rows only ever gain deterministic values.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .algebra import Algebra, is_bounded_lattice
from .errors import CapabilityError, InputError
from .formulas import (
    And, Bot, Eq, Exists, Forall, Formula, Imp, Mem, Not, Or, Term, Top, Var, children,
    constants,
)
from .universe import Universe

ASSIGNMENTS = ("ba", "pa")

_REL_EQ, _REL_MEM = 0, 1
_Z_LEFT, _Z_RIGHT, _Z_BOTH = 0, 1, 2  # where a row's swept variable stands


def _item_type(size: int) -> tuple[str, int]:
    """The narrowest unsigned array typecode that holds every index of an
    algebra of `size` elements below its maximum, and that maximum, which
    marks an unset value."""
    for typecode in "BHIQ":
        unset = (1 << 8 * array(typecode).itemsize) - 1
        if size <= unset:
            break
    return typecode, unset


def _decided(table: tuple[tuple[int, ...], ...]) -> list[Optional[int]]:
    """For each left operand, the value its whole row of the table holds,
    or None when the right operand matters."""
    return [row[0] if len(set(row)) == 1 else None for row in table]


def _atoms(f: Formula, bound: frozenset[str] = frozenset()
           ) -> Iterator[tuple[Eq | Mem, frozenset[str]]]:
    """The atoms of f, each with the variables that binders of f bind
    above it."""
    if isinstance(f, (Eq, Mem)):
        yield f, bound
        return
    if isinstance(f, (Forall, Exists)):
        bound = bound | {f.var}
    for g in children(f):
        yield from _atoms(g, bound)


class _Witness(NamedTuple):
    """A witness w's values against the covered names r (see the module
    docstring): `members[of[r]]` is `r in w`, `halves[of[r]]` w's half of
    `r = w`, `covered_halves[r]` r's half and `containers[r]` `w in r`;
    `extra` holds the columns of w and of the witnesses below it that no
    class of the tables has, by which `of` splits the signature classes.
    `entries` are w's entries with one covered entry per weight and
    signature class, which the clauses fold where their terms depend on a
    covered name only through its signature class."""

    of: Sequence[int]
    members: list[int]
    halves: list[int]
    covered_halves: array
    containers: array
    extra: frozenset[tuple[int, tuple[int, ...]]]
    entries: list[tuple[int, int]]


class NameClasses:
    """A partition of the names of a universe into classes numbered in the
    order of their first names: `of[u]` is u's class, `reps[c]` the first
    name of class c and `sizes[c]` its size."""

    def __init__(self, of: Sequence[int], reps: Sequence[int], sizes: Sequence[int]):
        self.of, self.reps, self.sizes = of, reps, sizes
        self._apart: dict[frozenset[int], NameClasses] = {}

    @classmethod
    def by_key(cls, keys: Iterable[object]) -> NameClasses:
        """The names 0, 1, ... grouped by equal keys."""
        ids: dict[object, int] = {}
        of, reps, sizes = array("i"), [], []
        for u, key in enumerate(keys):
            c = ids.setdefault(key, len(ids))
            if c == len(reps):
                reps.append(u)
                sizes.append(0)
            sizes[c] += 1
            of.append(c)
        return cls(of, reps, sizes)

    @classmethod
    def singletons(cls, n: int) -> NameClasses:
        return cls(range(n), range(n), [1] * n)

    def apart(self, names: Iterable[int]) -> NameClasses:
        """This partition with each of `names` in a class of its own, as a
        formula that names them as constants needs."""
        split = frozenset(u for u in names if self.sizes[self.of[u]] > 1)
        if not split:
            return self
        hit = self._apart.get(split)
        if hit is None:
            hit = self._apart[split] = NameClasses.by_key(
                ~u if u in split else c for u, c in enumerate(self.of))
        return hit

    def first_pair(self, bad: dict[int, set[int]]) -> Optional[tuple[int, int]]:
        """The first pair of names (u, v) in id order whose classes have
        of[v] in bad[of[u]].  When bad is symmetric, v >= u: a partner
        below u would have a partner itself, and come first."""
        of = self.of
        for u in range(len(of)):
            row = bad.get(of[u])
            if row:
                return u, next(v for v in range(len(of)) if of[v] in row)
        return None


class ColumnClasses:
    """Bell's clauses by column class, for the names of one universe whose
    ids lie below `n` (see the module docstring).

    The names before `low` are of lower rank than the universe's bound;
    the ones from `low` up to `n` are of the bound's rank, and the low
    names hold the entries of them all.  `n` is 0 where the tables would
    not pay or not be sound.  A pair of two low names takes the clause,
    and so do the low names' columns, read through a context's clauses
    once; every other pair below `n` is read from the tables.  The names
    are sorted into classes in id order, a top-level name's columns folded
    from the low names' (`fold`), so each table numbers its classes in the
    order of the first name that has them.  Each relation keeps its
    columns by class id (`by_id`) beside the class id of each name.

    Every cell comes from one place, `column`: for each class, an array
    over the names in id order, filled by one fold step per name from the
    cell of its prefix.  `half` and `member` read a name's cells across
    the classes.  The tables may be shared by the contexts of one
    assignment over universes that agree on their first `n` names.

    The signature classes (`signatures`), the values at the pairs of
    classes (`class_atoms`) and the classes split for witnesses
    (`refined`) are computed from the cells on first use.
    """

    def __init__(self, universe: Universe, assignment: str,
                 like: Optional[ColumnClasses] = None):
        """`like`, the tables of another assignment over the same universe,
        lends its prefix arrays."""
        alg, names, bound = universe.algebra, universe.names, universe.rank_bound
        low = 0
        while low < len(names) and names[low].rank < bound:
            low += 1
        self.low, self.n = low, 0
        self._class_atoms: Optional[tuple[Sequence[int], list[list[int]],
                                          list[list[int]]]] = None
        self._signatures: Optional[NameClasses] = None
        self._refined: dict[frozenset[tuple[int, tuple[int, ...]]], NameClasses] = {}
        self._extra: dict[tuple[int, tuple[int, ...]], array] = {}
        # With one low name a clause reads one entry a side, as a table
        # lookup would.  The halves meet in another order than the clause
        # folds, which only a lattice's meet allows.
        if low < 2 or assignment == "pa" and alg.star_t is None or not is_bounded_lattice(alg):
            return
        k = len(alg.elements)
        if like is not None and like.n:
            n, self.prefix, self.last_entry = like.n, like.prefix, like.last_entry
        else:
            n = low
            while n < len(names) and names[n].rank == bound:
                n += 1
            # each name's prefix, itself less its last entry (x, a), and
            # that entry as x * k + a; a cell is one step from its
            # prefix's, so the prefix must come first
            self.prefix, self.last_entry = array("i", [0]) * n, array("i", [0]) * n
            for v in range(1, n):
                entries = names[v].entries
                p = universe.find(entries[:-1])
                if p is None or p >= v:
                    return
                x, a = entries[-1]
                self.prefix[v], self.last_entry[v] = p, x * k + a
        self.n = n
        self.alg = alg
        self.typecode = _item_type(k)[0]
        meet, imp, star = alg.meet_t, alg.imp_t, alg.star_t
        # the factor of `u = v` for an entry of weight a against a membership m
        self.factor = [[meet[imp[a][m]][imp[star[m]][star[a]]] if assignment == "pa"
                        else imp[a][m] for m in range(k)] for a in range(k)]
        # by relation: each name's class id, in id order, each class's id
        # by its column, and by class id its column, its cells (`column`)
        # and its steps: the cell of a name whose prefix's cell is h and
        # whose last entry is e, at [h][e]
        self.ids = (array("i"), array("i"))
        self.columns: tuple[dict[tuple[int, ...], int], ...] = ({}, {})
        self.by_id: tuple[list[tuple[int, ...]], ...] = ([], [])
        self.steps: tuple[list[list[list[int]]], ...] = ([], [])
        self.cells: tuple[list[array], ...] = ([], [])

    def class_of(self, ctx: EvalContext, rel: int, v: int) -> int:
        """The class of v's column of `x = v` or of `x in v` over the low x."""
        ids = self.ids[rel]
        return ids[v] if v < len(ids) else self.classes(ctx, rel, v, v + 1)[0]

    def classes(self, ctx: EvalContext, rel: int, lo: int, hi: int) -> array:
        """The classes of the names lo .. hi - 1, sorting every name below
        hi into its class first, in id order."""
        ids = self.ids[rel]
        if len(ids) < hi:
            if not ids:  # the low names' columns, through the clauses
                for r, clause in ((_REL_EQ, ctx.equality), (_REL_MEM, ctx.membership)):
                    for v in range(self.low):
                        self._add(r, tuple([clause(x, v) for x in range(self.low)]))
            if rel == _REL_EQ:  # `x = v` reads v's membership class
                self.classes(ctx, _REL_MEM, lo, hi)
            for col in self.fold(rel, len(ids), hi):
                self._add(rel, col)
        return ids[lo:hi]

    def _add(self, rel: int, col: tuple[int, ...]) -> None:
        """Give the next name the class of col, a new one if col is new."""
        known = self.columns[rel]
        c = known.get(col)
        if c is None:
            c = known[col] = len(known)
            self.by_id[rel].append(col)
            self.steps[rel].append(self._steps(rel, col))
            self.cells[rel].append(self._start(rel))
        self.ids[rel].append(c)

    def _steps(self, rel: int, col: tuple[int, ...]) -> list[list[int]]:
        """The steps of a column's cells: the cell of a name whose prefix's
        cell is h and whose last entry is e, at [h][e]."""
        alg = self.alg
        table, fold = ((self.factor, alg.meet_t) if rel == _REL_MEM
                       else (alg.meet_t, alg.join_t))
        step = [table[a][m] for m in col for a in range(len(alg.elements))]
        return [[row[s] for s in step] for row in fold]

    def _start(self, rel: int) -> array:
        """The cells of a column at the empty name: top for a half, bottom
        for a membership."""
        return array(self.typecode, [self.alg.top_i if rel == _REL_MEM else self.alg.bottom_i])

    def fold(self, rel: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """The columns of the top-level names lo .. hi - 1, of `x = v` (rel
        `=`) or of `x in v` (rel `in`) over the low x, folded from the
        low names' classes' cells: for each low x,

            `x in v` = M[ec(x)][v]        `x = v` = H[mc(v)][x] /\\ H[mc(x)][v]

        where H[c][u] is u's half against the membership column of class c
        and M[c][v] is `u in v` for a u of equality class c (`column`).
        This is Bell's clause for a pair with one low side: the entries of
        x and of v are low, so every value the clause reads is a cell of
        the low names' columns or of v's membership column.  The clause
        stops its join at top and its meet at bottom, and meets v's entries
        into x's half one by one; only meets and joins are reassociated,
        which the lattice gate of the tables allows.  Equality reads the
        membership classes of lo .. hi - 1, which must be known."""
        low = self.low
        if rel == _REL_MEM:
            yield from zip(*[self.column(_REL_EQ, c, hi)[lo:hi] for c in self.ids[_REL_EQ][:low]])
            return
        meet, heads = self.alg.meet_t, {}
        theirs = zip(*[self.column(_REL_MEM, c, hi)[lo:hi] for c in self.ids[_REL_MEM][:low]])
        for c, hv in zip(self.ids[_REL_MEM][lo:hi], theirs):
            hx = heads.get(c)
            if hx is None:
                hx = heads[c] = self.column(_REL_MEM, c, low)[:low]
            yield tuple([meet[a][b] for a, b in zip(hx, hv)])

    def partition(self, ctx: EvalContext, rel: str) -> tuple[array, list[tuple[int, ...]]]:
        """The class of each covered name's column of `x = v` (rel '=') or of
        `x in v` (rel 'in'), and the column of each class, by class id."""
        r = _REL_EQ if rel == "=" else _REL_MEM
        return self.classes(ctx, r, 0, self.n), self.by_id[r]

    def column(self, rel: int, c: int, stop: int) -> array:
        """Class c's cell of each name z below stop: z's half of `z = v`
        for a v of membership class c (rel `in`), or `x in z` for an x of
        equality class c (rel `=`).  With (x, a) z's last entry and p its
        prefix,

            H[c][z] = H[c][p] /\\ factor[a][`x in v`]
            M[c][z] = M[c][p] \\/ (a /\\ `x = u`)

        from H[c][0] = top and M[c][0] = bottom for the empty name: the
        clause's fold over z's entries, in their order, one step a name."""
        return self._grow(self.cells[rel][c], self.steps[rel][c], stop)

    def _grow(self, cells: array, step: list[list[int]], stop: int) -> array:
        """Fill cells by prefix, one step a name, up to stop."""
        m = len(cells)
        if m < stop:
            append = cells.append
            for p, e in zip(self.prefix[m:stop], self.last_entry[m:stop]):
                append(step[cells[p]][e])
        return cells

    def cells_of(self, rel: str) -> list[array]:
        """Each class's cells of every covered name, by class id (`column`):
        halves by membership class (rel 'in'), memberships by equality
        class (rel '=')."""
        r = _REL_EQ if rel == "=" else _REL_MEM
        return [self.column(r, c, self.n) for c in range(len(self.by_id[r]))]

    def half(self, u: int) -> list[int]:
        """u's side of `u = v`, for each membership class of v."""
        return [self.column(_REL_MEM, c, u + 1)[u] for c in range(len(self.by_id[_REL_MEM]))]

    def member(self, v: int) -> list[int]:
        """`u in v`, for each equality class of u."""
        return [self.column(_REL_EQ, c, v + 1)[v] for c in range(len(self.by_id[_REL_EQ]))]

    def equality(self, ctx: EvalContext, u: int, v: int) -> int:
        """`u = v` for u <= v and a top-level v."""
        if u < self.low:
            return self.by_id[_REL_EQ][self.class_of(ctx, _REL_EQ, v)][u]
        ids, cells = self.ids[_REL_MEM], self.cells[_REL_MEM]
        try:  # cells already filled are read directly
            return self.alg.meet_t[cells[ids[v]][u]][cells[ids[u]][v]]
        except IndexError:
            cu, cv = self.class_of(ctx, _REL_MEM, u), self.class_of(ctx, _REL_MEM, v)
            return self.alg.meet_t[self.column(_REL_MEM, cv, v + 1)[u]][
                self.column(_REL_MEM, cu, v + 1)[v]]

    def membership(self, ctx: EvalContext, u: int, v: int) -> int:
        """`u in v` for u and v not both low."""
        if u < self.low:
            return self.by_id[_REL_MEM][self.class_of(ctx, _REL_MEM, v)][u]
        try:  # cells already filled are read directly
            return self.cells[_REL_EQ][self.ids[_REL_EQ][u]][v]
        except IndexError:
            return self.column(_REL_EQ, self.class_of(ctx, _REL_EQ, u), v + 1)[v]

    def signatures(self, ctx: EvalContext) -> NameClasses:
        """The covered names by signature: a top-level name's membership
        class, equality class, row of halves H[.][u] and row of memberships
        M[.][u]; each low name alone.  Names of one class are
        interchangeable (see the module docstring)."""
        if self._signatures is None:
            low, n = self.low, self.n
            keys = zip(self.classes(ctx, _REL_MEM, low, n), self.classes(ctx, _REL_EQ, low, n),
                       *[cells[low:] for cells in self.cells_of("in") + self.cells_of("=")])
            self._signatures = NameClasses.by_key(chain(range(-low, 0), keys))
        return self._signatures

    def class_atoms(self, ctx: EvalContext) -> tuple[Sequence[int], list[list[int]],
                                                    list[list[int]]]:
        """The signature class of each covered name, `=` by class pair and
        `in` by class pair, read at the classes' first names: `a = b` at
        [A][B] and `a in b` at [B][A]."""
        if self._class_atoms is None:
            sig, low = self.signatures(ctx), self.low
            reps = sig.reps

            def eq(a: int, b: int) -> int:
                a, b = min(a, b), max(a, b)
                return ctx.equality(a, b) if b < low else self.equality(ctx, a, b)

            def mem(a: int, b: int) -> int:
                return ctx.membership(a, b) if max(a, b) < low else self.membership(ctx, a, b)
            self._class_atoms = (sig.of, [[eq(a, b) for b in reps] for a in reps],
                                 [[mem(a, b) for a in reps] for b in reps])
        return self._class_atoms

    def refined(self, ctx: EvalContext, extra: frozenset[tuple[int, tuple[int, ...]]]
                ) -> NameClasses:
        """The signature classes split by each name's cells in the extra
        columns, (rel, column) pairs that no class of the tables has: for
        rel `in` a membership column, whose cells are halves, and for rel
        `=` an equality column, whose cells are memberships."""
        hit = self._refined.get(extra)
        if hit is None:
            base = self.signatures(ctx)
            hit = base if not extra else NameClasses.by_key(zip(
                base.of, *[self._extra_cells(rel, col) for rel, col in sorted(extra)]))
            self._refined[extra] = hit
        return hit

    def cells_at(self, rel: int, col: tuple[int, ...]) -> array:
        """The cells of every covered name at a column over the low names:
        halves for a membership column (rel `in`), memberships for an
        equality column (rel `=`)."""
        c = self.columns[rel].get(col)
        return self._extra_cells(rel, col) if c is None else self.column(rel, c, self.n)

    def _extra_cells(self, rel: int, col: tuple[int, ...]) -> array:
        cells = self._extra.get((rel, col))
        if cells is None:
            cells = self._extra[rel, col] = self._grow(self._start(rel), self._steps(rel, col),
                                                       self.n)
        return cells


class EvalContext:
    """A universe, a designated set and one assignment style.

    The context owns its atomic store.  `columns` are the class tables,
    fresh ones by default; tables passed in may be shared with other
    contexts of the same assignment over universes that agree on every
    name id the tables cover.
    """

    def __init__(self, universe: Universe, designated: Iterable[str],
                 assignment: str = "pa", columns: Optional[ColumnClasses] = None):
        if assignment not in ASSIGNMENTS:
            raise InputError(f"unknown assignment {assignment!r}; use 'ba' or 'pa'")
        self.universe = universe
        self.algebra: Algebra = universe.algebra
        alg = self.algebra
        self.assignment = assignment
        self.designated = frozenset(alg.resolve(d) for d in designated)
        self.designated_i = frozenset(alg.index[d] for d in self.designated)
        # the atomic store: (eq, mem), indexed by relation, where
        # eq[max(u, v)][min(u, v)] is `u = v` and mem[v][u] is `u in v`
        self._memo: tuple[dict[int, array], dict[int, array]] = ({}, {})
        self._typecode, self._unset = _item_type(len(alg.elements))
        self._meet = alg.meet_t
        self._join = alg.join_t
        self._imp = alg.imp_t
        self._star = alg.star_t
        self._top = alg.top_i
        self._bottom = alg.bottom_i
        self._connectives = {op: (table, _decided(table)) for op, table in
                             ((And, alg.meet_t), (Or, alg.join_t), (Imp, alg.imp_t))}
        # equality may stop mid-side at bottom only if bottom absorbs the meet
        self._eq_stop = (self._bottom if _decided(alg.meet_t)[self._bottom] == self._bottom
                         else -1)
        self._rows: dict[tuple[int, int, int], array] = {}
        # class ids of the rows, by content and by row key, valid for a
        # universe of _classes_n names
        self._classes: dict[bytes, int] = {}
        self._row_class: dict[tuple[int, int, int], int] = {}
        self._classes_n = 0
        self.atomic_fills = 0  # values computed into the store, not read from the tables
        self.sweeps_run = 0  # quantifier sweeps that folded the universe
        self.names_swept = 0  # names the folds of those sweeps visited
        self._columns = ColumnClasses(universe, assignment) if columns is None else columns
        self._witnesses: dict[int, _Witness] = {}  # by witness id (`_witness`)
        # (universe length, the witnesses' extra columns, `_visit`)
        self._visit_at: tuple[int, frozenset, Sequence[int], Optional[itemgetter]] = (
            0, frozenset(), (), None)

    # -- atomic clauses ---------------------------------------------------------

    def _put(self, rows: dict[int, array], key: int, i: int, value: int) -> None:
        """Set rows[key][i], growing the row to i + 1 with unset marks."""
        row = rows.get(key)
        if row is None:
            row = rows[key] = array(self._typecode)
        k = len(row)
        if i < k:
            row[i] = value
            return
        if i > k:
            row.extend(repeat(self._unset, i - k))
        row.append(value)

    def equality(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u  # the clause is symmetric
        cc = self._columns
        if cc.low <= v < cc.n:  # a top-level name and a covered one
            return cc.equality(self, u, v)
        eq_rows, mem_rows = self._memo
        unset = self._unset
        row = eq_rows.get(v)
        if row is not None and u < len(row):
            hit = row[u]
            if hit != unset:
                return hit
        names = self.universe.names
        meet, imp = self._meet, self._imp
        pa = self.assignment == "pa"
        star = self._star
        if pa and star is None:
            raise CapabilityError(
                f"the pa assignment needs a star table; {self.algebra.name} has none"
            )
        self.atomic_fills += 1
        if u < cc.n <= v:  # a covered name and a witness
            w = self._witness(v)
            acc = meet[w.covered_halves[u]][w.halves[w.of[u]]]
            self._put(eq_rows, v, u, acc)
            return acc
        mem, stop = self.membership, self._eq_stop
        acc = self._top
        for hi, lo in ((u, v), (v, u)):
            col = mem_rows.get(lo, ())  # `x in lo` for every x
            # a witness's values against the covered names, when lo is one
            w = self._witness(lo) if lo >= cc.n > 0 else None
            entries = names[hi].entries
            if w is not None and hi >= cc.n and not w.extra:
                entries = self._witness(hi).entries
            for x, ux in entries:
                if __debug__:
                    assert names[x].rank < names[hi].rank
                if w is not None and x < cc.n:
                    m = w.members[w.of[x]]
                else:
                    try:
                        m = col[x]
                    except IndexError:
                        m = unset
                    if m == unset:
                        m = mem(x, lo)
                        col = mem_rows.get(lo, ())
                c = imp[ux][m]
                if pa:
                    c = meet[c][imp[star[m]][star[ux]]]
                acc = meet[acc][c]
                if acc == stop:
                    break
            if acc == self._bottom:
                break
        self._put(eq_rows, v, u, acc)
        return acc

    def membership(self, u: int, v: int) -> int:
        cc = self._columns
        if cc.low <= (u if u > v else v) < cc.n:  # a top-level name and a covered one
            return cc.membership(self, u, v)
        eq_rows, mem_rows = self._memo
        unset = self._unset
        row = mem_rows.get(v)
        if row is not None and u < len(row):
            hit = row[u]
            if hit != unset:
                return hit
        self.atomic_fills += 1
        if u < cc.n <= v:  # a covered name in a witness
            w = self._witness(v)
            acc = w.members[w.of[u]]
        elif v < cc.n <= u:  # a witness in a covered name
            acc = self._witness(u).containers[v]
        else:  # the clause; where u is a witness, `x = u` for a covered x
            # comes from u's values against the covered names
            names = self.universe.names
            meet, join = self._meet, self._join
            eq, top = self.equality, self._top
            col = eq_rows.get(u, ())  # `x = u` for every x <= u
            w = self._witness(u) if u >= cc.n > 0 else None
            entries = names[v].entries
            if w is not None and v >= cc.n and not w.extra:
                entries = self._witness(v).entries
            acc = self._bottom
            for x, vx in entries:
                if w is not None and x < cc.n:
                    e = meet[w.covered_halves[x]][w.halves[w.of[x]]]
                else:
                    try:
                        e = col[x] if x <= u else eq_rows.get(x, ())[u]
                    except IndexError:
                        e = unset
                    if e == unset:
                        e = eq(x, u)
                        col = eq_rows.get(u, ())
                acc = join[acc][meet[vx][e]]
                if acc == top:
                    break
        self._put(mem_rows, v, u, acc)
        return acc

    def _extend(self, row: array, rel: int, side: int, t: int, n: int) -> None:
        """Extend the row of (rel, side, t) to n names: from the class
        tables while both names are covered and not both low, else through
        the clauses."""
        cc = self._columns
        if 0 < cc.n <= t and len(row) < cc.n:  # a witness t and the covered z
            w, zs = self._witness(t), range(len(row), min(n, cc.n))
            if rel == _REL_EQ:  # z = t
                meet, halves, of = self._meet, w.halves, w.of
                row.extend([meet[h][halves[of[z]]] for z, h in zip(zs, w.covered_halves[zs.start:])])
            elif side == _Z_LEFT:  # z in t
                row.extend([w.members[c] for c in w.of[zs.start:zs.stop]])
            else:  # t in z
                row.extend(w.containers[zs.start:zs.stop])
        elif 0 <= t < cc.n and len(row) < cc.n:  # t is -1 in `z in z`, `z = z`
            if t < cc.low:
                self._fill(row, rel, side, t, min(cc.low, n))
            zs = range(len(row), min(n, cc.n))
            if rel == _REL_MEM and side == _Z_LEFT:  # z in t
                cs = cc.classes(self, _REL_EQ, zs.start, zs.stop)
                mt = cc.member(t)
                row.extend([mt[c] for c in cs])
            elif rel == _REL_MEM:  # t in z
                c = cc.class_of(self, _REL_EQ, t)
                row.extend(cc.column(_REL_EQ, c, zs.stop)[zs.start:zs.stop])
            else:  # z = t
                cs = cc.classes(self, _REL_MEM, zs.start, zs.stop)
                c = cc.class_of(self, _REL_MEM, t)
                meet, ht = self._meet, cc.half(t)
                hz = cc.column(_REL_MEM, c, zs.stop)[zs.start:zs.stop]
                row.extend([meet[a][ht[cz]] for a, cz in zip(hz, cs)])
        self._fill(row, rel, side, t, n)

    def _witness(self, w: int) -> _Witness:
        """The values of a witness w against the covered names (see the
        module docstring), computed once."""
        hit = self._witnesses.get(w)
        if hit is None:
            hit = self._witnesses[w] = self._witness_values(w)
        return hit

    def _witness_values(self, w: int) -> _Witness:
        cc = self._columns
        sig, eq_at, in_to = cc.class_atoms(self)
        meet, join, factor = self._meet, self._join, cc.factor
        top, bottom = self._top, self._bottom
        entries = self.universe.names[w].entries
        # equal terms of a join or a meet count once
        firsts = {(a, sig[y]): y for y, a in reversed(entries) if y < cc.n}
        covered = list(firsts)
        lower = [(a, self._witness(y)) for y, a in entries if y >= cc.n]
        inherited = frozenset().union(*[x.extra for _, x in lower])
        classes = cc.refined(self, inherited)
        members, halves = [], []
        for r in classes.reps:
            s = sig[r]
            eqs, ins = eq_at[s], in_to[s]  # `y = r` and `y in r` by the class of y
            m = bottom
            for a, c in covered:
                m = join[m][meet[a][eqs[c]]]
            for a, x in lower:
                m = join[m][meet[a][meet[x.covered_halves[r]][x.halves[x.of[r]]]]]
            members.append(m)
            h = top
            for a, c in covered:
                h = meet[h][factor[a][ins[c]]]
            for a, x in lower:
                h = meet[h][factor[a][x.containers[r]]]
            halves.append(h)
        # w's columns over the low names, whose cells are every covered
        # name's half of `r = w` and `w in r`
        low = range(cc.low)
        in_col = tuple([members[classes.of[x]] for x in low])
        covered_halves = cc.cells_at(_REL_MEM, in_col)
        eq_col = tuple([meet[covered_halves[x]][halves[classes.of[x]]] for x in low])
        extra = inherited.union([(rel, col) for rel, col in ((_REL_MEM, in_col), (_REL_EQ, eq_col))
                                 if col not in cc.columns[rel]])
        return _Witness(classes.of, members, halves, covered_halves,
                        cc.cells_at(_REL_EQ, eq_col), extra,
                        sorted((y, a) for (a, _), y in firsts.items())
                        + [(y, a) for y, a in entries if y >= cc.n])

    def _visit(self) -> tuple[Sequence[int], Optional[itemgetter]]:
        """The names a sweep visits, in id order, and a gather of a row's
        values at them.  With the class tables on, the first name of each
        class of names interchangeable in the current universe, the
        signature classes split by the extra columns of every witness (see
        the module docstring), and then every witness; the low names are
        classes of their own, so there are at least two.  With the tables
        off, every name, and no gather: the rows are read whole."""
        cc, n = self._columns, len(self.universe.names)
        m, extra, visit, gather = self._visit_at
        if m != n:
            if cc.n:
                extra = extra.union(*[self._witness(w).extra for w in range(max(m, cc.n), n)])
                visit = [*cc.refined(self, extra).reps, *range(cc.n, n)]
                gather = itemgetter(*visit)
            else:
                visit = range(n)
            self._visit_at = (n, extra, visit, gather)
        return visit, gather

    def _fill(self, row: array, rel: int, side: int, t: int, n: int) -> None:
        """Extend the row of (rel, side, t) to n names through the clauses,
        or, for witnesses z against a covered t, from their values against
        the covered names."""
        m, unset = len(row), self._unset
        if 0 <= t < self._columns.n <= m:
            ws = [self._witness(z) for z in range(m, n)]
            if rel == _REL_EQ:  # z = t
                meet = self._meet
                row.extend([meet[w.covered_halves[t]][w.halves[w.of[t]]] for w in ws])
            elif side == _Z_LEFT:  # z in t
                row.extend([w.containers[t] for w in ws])
            else:  # t in z
                row.extend([w.members[w.of[t]] for w in ws])
            return
        if rel == _REL_MEM and side == _Z_LEFT:
            # `z in t` is the store's own row for t, with its holes filled
            row.extend(self._memo[_REL_MEM].get(t, ())[m:n])
            row.extend(repeat(unset, n - len(row)))
            for z in range(m, n):
                if row[z] == unset:
                    row[z] = self.membership(z, t)
            return
        clause = self.equality if rel == _REL_EQ else self.membership
        for z in range(m, n):
            u, v = (t, z) if side == _Z_RIGHT else (z, z) if side == _Z_BOTH else (z, t)
            row.append(clause(u, v))

    def _row_classes(self, keys: list[tuple[int, int, int]]) -> list[int]:
        """Fill the rows of keys to the end of the universe and return their
        class ids: rows with equal contents share an id while the universe
        keeps its length."""
        n = len(self.universe.names)
        rows, row_class, classes = self._rows, self._row_class, self._classes
        if self._classes_n != n:
            row_class.clear()
            classes.clear()
            self._classes_n = n
        ids = []
        for key in keys:
            cid = row_class.get(key)
            if cid is None:
                row = rows.get(key)
                if row is None:
                    row = rows[key] = array(self._typecode)
                self._extend(row, *key, n)
                cid = row_class[key] = classes.setdefault(row.tobytes(), len(classes))
            ids.append(cid)
        return ids

    def row(self, rel: str, u: int) -> array:
        """`u = z` (rel '=') or `u in z` (rel 'in') for every name z, in a
        fresh array filled as a sweep row is; the context keeps no copy."""
        if rel not in ("=", "in"):
            raise InputError(f"unknown atomic relation {rel!r}")
        out = array(self._typecode)
        key = (_REL_EQ, _Z_LEFT, u) if rel == "=" else (_REL_MEM, _Z_RIGHT, u)
        self._extend(out, *key, len(self.universe.names))
        return out

    def name_classes(self) -> NameClasses:
        """Classes of interchangeable names: while the universe holds just
        the names the class tables cover, their signature classes
        (`ColumnClasses.signatures`); otherwise every name alone."""
        cc, n = self._columns, len(self.universe.names)
        return cc.signatures(self) if 0 < cc.n == n else NameClasses.singletons(n)

    def atomic(self, rel: str, u: int, v: int) -> str:
        """String-level access to one atomic value; rel is '=' or 'in'."""
        if rel == "=":
            return self.algebra.elements[self.equality(u, v)]
        if rel == "in":
            return self.algebra.elements[self.membership(u, v)]
        raise InputError(f"unknown atomic relation {rel!r}")

    # -- formula evaluation -------------------------------------------------------

    def value(self, f: Formula, env: Optional[dict[str, int]] = None) -> int:
        """Evaluate to an element index; free variables must be bound in env."""
        env = env or {}
        return self.sentence(f, tuple(env))(*env.values())

    def sentence(self, f: Formula, params: Sequence[str] = ()) -> Callable[..., int]:
        """f compiled once, as a function from the name ids of `params`, in
        order, to f's value.  A caller that evaluates one formula over many
        names holds the handle for its loop; the handle grows with the
        universe like `value` does."""
        k = len(params)
        slots = [0] * k
        run = self._compile(f, dict(zip(params, range(k))), slots)

        def handle(*ids: int) -> int:
            if len(ids) != k:
                raise InputError(f"expected {k} name ids, got {len(ids)}")
            slots[:k] = ids
            return run()
        return handle

    def _compile(self, f: Formula, scope: dict[str | int, int],
                 slots: list[int]) -> Callable[[], int]:
        """Turn f into a closure; scope maps each variable (by name) and each
        name constant (by id) to its slot."""
        match f:
            case Mem() | Eq():
                return self._atom(f, scope, slots)
            case And(left, right) | Or(left, right) | Imp(left, right):
                table, decided = self._connectives[type(f)]
                a = self._compile(left, scope, slots)
                b = self._compile(right, scope, slots)

                def connective() -> int:
                    x = a()
                    y = decided[x]
                    return table[x][b()] if y is None else y
                return connective
            case Not(body):
                star = self._star
                if star is None:
                    raise CapabilityError(
                        f"negation needs a star table; {self.algebra.name} has none"
                    )
                a = self._compile(body, scope, slots)
                return lambda: star[a()]
            case Top():
                top = self._top
                return lambda: top
            case Bot():
                bottom = self._bottom
                return lambda: bottom
            case Forall(var, body) | Exists(var, body):
                k = len(slots)
                slots.append(0)
                inner = {**scope, var: k}
                run = self._compile(body, inner, slots)
                if isinstance(f, Forall):
                    table, unit, absorbing = self._meet, self._top, self._bottom
                else:
                    table, unit, absorbing = self._join, self._bottom, self._top
                return self._sweep(var, body, inner, slots, k, run, table, unit, absorbing)
        raise InputError(f"cannot evaluate {f!r}")

    def _sweep(self, var: str, body: Formula, scope: dict[str | int, int],
               slots: list[int], k: int, run: Callable[[], int],
               table: tuple[tuple[int, ...], ...], unit: int,
               absorbing: int) -> Callable[[], int]:
        """A sweep of `var` (slot k in scope) that folds the values of `run`
        over the names it visits (`_visit`), running it once per distinct
        key of its row values and, where inner sweeps read them, its own
        rows' class ids (see the module docstring)."""
        specs: list[tuple[int, int, int]] = []  # (rel, side, slot of the other term)
        own: list[tuple[int, int]] = []  # (rel, side) of z's own rows that inner binders read
        for g, bound in _atoms(body):
            rel = _REL_EQ if isinstance(g, Eq) else _REL_MEM
            zl, zr = (isinstance(t, Var) and t.name == var and var not in bound
                      for t in (g.left, g.right))
            il, ir = (isinstance(t, Var) and t.name in bound for t in (g.left, g.right))
            if not (zl or zr):
                continue
            if zl and zr:
                spec = (rel, _Z_BOTH, k)
            elif il or ir:
                # `w in z` reads the row of z's members, `z in w` the row
                # of z's containers, and `z = w` its equality row
                pair = (rel, _Z_LEFT if zr or rel == _REL_EQ else _Z_RIGHT)
                if pair not in own:
                    own.append(pair)
                continue
            else:
                # equality is symmetric, so both of its orientations share a row
                side = _Z_LEFT if zl or rel == _REL_EQ else _Z_RIGHT
                spec = (rel, side, self._slot(g.right if zl else g.left, scope, slots))
            if spec not in specs:
                specs.append(spec)
        rows_of = self._rows

        def sweep() -> int:
            self.sweeps_run += 1
            slots[k] = -1  # so the row of `z in z` or `z = z` keys on -1
            keys = [(rel, side, slots[j]) for rel, side, j in specs]
            self._row_classes(keys)
            visit, gather = self._visit()
            rows = [rows_of[rk] if gather is None else gather(rows_of[rk]) for rk in keys]
            # body values by row values, and by row values and own rows' class
            # ids where a run that swept inside the body read its own rows
            seen: dict[tuple[int, ...], int] = {}
            acc, swept = unit, 0
            # zip() of no rows is empty, but a body without them still runs
            for nid, atoms in zip(visit, zip(*rows) if rows else repeat(())):
                swept += 1
                v = seen.get(atoms)
                if v is None:
                    sig = atoms
                    if own:
                        sig += tuple(self._row_classes([(rel, side, nid) for rel, side in own]))
                        v = seen.get(sig)
                    if v is None:
                        slots[k] = nid
                        started = self.sweeps_run
                        v = run()
                        seen[sig if self.sweeps_run != started else atoms] = v
                acc = table[acc][v]
                if acc == absorbing:
                    break
            self.names_swept += swept
            return acc
        return sweep

    def _slot(self, t: Term, scope: dict[str | int, int], slots: list[int]) -> int:
        """The slot of a term.  A name constant gets one on first use, added
        to scope and holding its id for the whole call."""
        if isinstance(t, Var):
            try:
                return scope[t.name]
            except KeyError:
                raise InputError(f"unbound variable {t.name!r}")
        nid = t.name_id
        j = scope.get(nid)
        if j is None:
            if not 0 <= nid < len(self.universe.names):
                raise InputError(f"unknown name constant #{nid}")
            j = scope[nid] = len(slots)
            slots.append(nid)
        return j

    def _atom(self, f: Mem | Eq, scope: dict[str | int, int],
              slots: list[int]) -> Callable[[], int]:
        """An atom closure that calls its clause on the names in its two
        slots; the clause reads the context's tables and store."""
        i, j = self._slot(f.left, scope, slots), self._slot(f.right, scope, slots)
        if isinstance(f, Mem):
            clause = self.membership
        elif self.assignment == "pa" and self._star is None:
            # equality raises on every pair; say so here, where neither a
            # skipped operand nor a row sweep can keep it from being called
            raise CapabilityError(
                f"the pa assignment needs a star table; {self.algebra.name} has none"
            )
        else:
            clause = self.equality
        return lambda: clause(slots[i], slots[j])

    def eval(self, f: Formula, env: Optional[dict[str, int]] = None) -> str:
        """Evaluate to an element identifier."""
        return self.algebra.elements[self.value(f, env)]

    def holds(self, f: Formula, env: Optional[dict[str, int]] = None) -> bool:
        """Validity: the value lands in the designated set."""
        return self.value(f, env) in self.designated_i


# -- bounded quantification ------------------------------------------------------


@dataclass
class BqResult:
    quantified: str
    domain_indexed: str
    equal: bool


def bq_sides(ctx: EvalContext, phi: Formula) -> Callable[[int], BqResult]:
    """Compare, for a name u, the quantified bounded formula against its
    domain-indexed form.

    Left side:  value of `forall x (x in u -> phi(x))` over the whole
    universe.  Right side: meet over x in dom(u) of u(x) => phi(x).  Each
    side is compiled once, with u a parameter rather than a constant, and
    the returned function of u is held for a sweep over many names.
    phi(x) is evaluated once per name x and universe length, since the
    domains of many names share x.  The left side is evaluated once per
    class of interchangeable names (`EvalContext.name_classes`, with phi's
    constants apart) while the universe keeps the length those classes
    are of; the right side reads u's own entries, so it stays per name.
    """
    quantified = ctx.sentence(Forall("x", Imp(Mem(Var("x"), Var("u")), phi)), ("u",))
    indexed = ctx.sentence(phi, ("x",))
    names, meet, imp, top = ctx.universe.names, ctx._meet, ctx._imp, ctx._top
    es = ctx.algebra.elements
    known: dict[tuple[int, int], int] = {}  # phi(x) by (universe length, x)
    classes = ctx.name_classes().apart(constants(phi))
    by_class: dict[int, int] = {}  # the left side, by class

    def compare(u: int) -> BqResult:
        if len(names) == len(classes.of):
            c = classes.of[u]
            q = by_class.get(c)
            if q is None:
                q = by_class[c] = quantified(u)
        else:
            q = quantified(u)
        acc = top
        for x, ux in names[u].entries:
            key = (len(names), x)
            value = known.get(key)
            if value is None:
                value = known[key] = indexed(x)
            acc = meet[acc][imp[ux][value]]
        return BqResult(es[q], es[acc], q == acc)
    return compare
