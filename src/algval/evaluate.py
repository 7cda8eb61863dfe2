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

A pair of two covered names, not both low, is read from the class tables
(`ColumnClasses`), before the store is looked at.  The entries of every
enumerated name lie among the low names L, those of lower rank.  So
`u = v` reads u's entries only against v's membership column, the values
of `x in v` for x in L, and v's entries only against u's; and `u in v`
reads v's entries only against u's equality column, `x = u` for x in L.
Names with equal columns form a membership or an equality class (ps3 at
rank 3: 256 names, 27 membership and 4 equality classes).  With H[c][u]
u's half of `u = v` for a v of membership class c, and M[c][v] `u in v`
for a u of equality class c,

    `=`(u, v) = H[mc(v)][u] /\\ H[mc(u)][v]        `in`(u, v) = M[ec(u)][v]

where mc(v) is v's membership class and ec(u) u's equality class.

Names by signature.  The signature of a top-level covered name u is
mc(u), ec(u), its row of halves H[.][u] and its row of memberships
M[.][u]; a low name is a class of its own.  The two formulas read a name
only through its signature, and so do `x = v` and `x in v` for a low x,
which are v's columns, and `v in x`, which is M[ec(v)][x].  So the tables
keep one signature class id per covered name (`of`) and two class x class
tables, filled at the classes' first names: every covered pair not both
low reads `eq[of[u]][of[v]]` or `mem[of[v]][of[u]]`, and a sweep row a
class row.  If u and u' share a signature, each atom of u
with a covered z has the value of the same atom of u' with z, z = u and
z = u' included: `u = u'` is H[mc(u)][u] /\\ H[mc(u)][u'], which is
`u = u`, and `u in u'` is M[ec(u)][u'], which is `u in u`.  Swapping u
and u' is then an automorphism of the covered names under `=` and `in`,
and a formula whose constants the swap fixes has one value at u and at
u' while the universe holds no other name.  `EvalContext.name_classes`
gives these classes (27 top-level classes of 256 names on ps3 at rank 3
under pa, 9 under ba).  A reader asks a class at its first name, weights
its counts by the sizes of the classes, and sets a formula's constants
apart in classes of their own (`NameClasses.apart`);
`theorems.first_bad_pair`, `theorems.coincidence_mismatches` and
`quotient.build_quotient` read pairs of classes so.

Signatures by transition.  The prefix p(v) of a name v is v less its
last entry (x, a).  Enumeration interns it before v: it has v's weights
on a smaller domain, and `build_universe` goes by rank and then by domain
size.  The clause folds v's entries in order, so its fold over v is its
fold over p(v) and one step more:

    H[c][v] = H[c][p(v)] /\\ factor[a][col_c[x]]
    M[c][v] = M[c][p(v)] \\/ (a /\\ col_c[x])

from top and bottom at the empty name, where col_c is class c's column
and factor[a][m] the clause's factor for an entry of weight a against a
membership m.  So a name's cells at any list of columns are a function
of its prefix's cells there and its last entry, and a pass down the
prefix arrays gives every covered name its tuple of cells with one dict
lookup per name, each (tuple, last entry) move computed once
(`ColumnClasses.states`).  Any function of a name's entries that is one
step from its prefix's is computed so: `domain_indexed` folds the right
side of a bounded universal that way, and `theorems.check_properties`
the keys of a name's designated entries.  Three passes find the
signatures.  The
memberships at the low names' equality classes give each name's
membership column, `x in v` = M[ec(x)][v]; the halves at every
membership class give, with it, its equality column, `x = v` =
H[mc(v)][x] /\\ H[mc(x)][v]; and the memberships at every equality class
complete the signature.  A name's signature, its cells and the two
columns they give, is thus a function of its prefix's signature and its
last entry.  A covered name whose prefix is not interned
below it (a hand-built universe may lack one) turns the tables off.

The steps are the clause's own, in its order, but the clause stops its
join at top and its meet at bottom, and meets v's entries into u's half
one by one where the table meets two halves: only meets and joins are
reassociated, which a lattice allows.  The tables are used only when
meet and join pass `algebra.is_bounded_lattice`, whose verdict each
algebra keeps (and, under pa, the algebra has a star table), and not
where they cannot pay: with one low name, as at rank 2, a clause reads at
most one entry a side.  The pairs of two low names keep the clause.
Their entries lie below L, so no cell reads them, and the first pass
needs the low names' equality columns before any class is known: they
are the base the passes start from.  They are read through a context's
clauses, into its store, when the tables are built, once per assignment,
as the first context that reads them is made.  Pairs of two witness
names, and defective tables, take the clause.  The tables cover
enumerated names only, so a run's contexts of one assignment share them
across all of its workspaces.

Witness names, one level up (`_Witness`).  To a witness w the covered
names play the part that the low names play for a top-level name.  For a
covered r,

    `r in w` = join over the entries (y, a) of w of  a /\\ `y = r`
    w's half of `r = w` = meet over the entries (y, a) of w of
                          factor[a][`y in r`]
    r's half of `r = w` = r's cell at w's membership column over L
    `w in r` = r's cell at w's equality column over L

A covered y has `y = r` and `y in r` at the pair of signature classes of
y and r (`ColumnClasses.eq` and `mem`), and a witness y its own values
against r.  While the columns over L of w and of the witnesses below it
are columns of covered names, r's cells at them are part of r's
signature, so these values depend on r only through its signature
class, and w keeps `r in w`, `r = w` (the two halves met) and `w in r`
once per class.  The folds reassociate meets and
joins, and count a repeated (weight, class) term once, which a lattice's
idempotent, commutative and associative meet and join allow; the gate of
the tables is that.  A clause on two witnesses reads a covered entry's
value from the other witness's values the same way.  A witness with a
column that no class has (none of a builtin's at rank 3) makes the
context's covered classes single names for good: the rows read at the
old classes go, and later witnesses keep their values once per name,
while earlier ones keep theirs by signature class.  Either way, the
names of one covered class of the context are interchangeable in the
grown universe too, so a sweep visits the first name of each class alone
(`EvalContext._visit`).

Connectives evaluate homomorphically: /\\, \\/ and -> through the algebra
tables, ~ through star, and the quantifiers as big meet/join over the
names of the (bounded) universe, stopping early once the fold reaches its
absorbing element (bottom for forall, top for exists).  Where the class
tables are on, a fold visits the first name of each covered class of
interchangeable names (above) and then every witness, in id order: 31 of
ps3's 256 names at rank 3 under pa.  Where they are off (rank 2, defective
tables, a covered name whose prefix is missing) it visits every name.
Skipping the other names is exact for three reasons.  The gate of the
tables makes meet and join idempotent, commutative and associative, so a
value met or joined again changes nothing.  Names of one class answer
every atom alike, each other included, so a skipped name's body has the
value of its class's first name's.  And the visit is a subsequence of id
order that holds the first name of every class, so after each visited name
the fold holds what a fold over every name holds there: it reaches the
absorbing element at the same name, and the bodies run before it are the
same.

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
(`z in z`, `z = z`) has a row: the atom's value at each name the fold
visits, in order, keyed by relation, the side z stands on and t's name
id.  An atom that pairs z with a variable w bound inside the body reads a
row of z's own: `w in z` the row of z's members (the row keyed like
`x in t`, with t = z), `z in w` the row of its containers and `z = w` its
equality row.  A row is an array of the store's item type.  Before it is
read it is extended to the end of the visit, never rebuilt, which is sound
because atomic values never depend on later inserts.  With the class
tables on, its covered part is a class row as it stands, since the visit's
covered names are the first names of the classes: `eq[c]` or `mem[c]` for
a t of class c, `mem[.][c]` for `t in z`, the diagonal for `z = z` and `z
in z`, and a witness t's values by class.  Its part past the covered names
is the witnesses' values against a covered t, or the clause; the row of `z
in t` copies the store's own row for t and fills its holes through the
clause.  With the tables off the visit and the rows span every name.
Within one fold the body's value depends on z only through z's signature:
its values in the rows of the first kind and the contents of its own rows.
Many visited names share a signature, so the sweep keeps one dict of body
values for its fold and runs the body once per key.  A name is looked up
first under its row values alone: a run of the body that started no inner
sweep read no own row, so its value holds for every name with those row
values and is stored under them, as is every value of a body without own
rows.  On a miss the name's own rows are filled and interned by their
bytes into class ids that hold while the universe keeps its length, and
the value is looked up, or else stored, under the row values and those
ids.  No value outlives its fold.  `sweeps_run` counts the sweeps, and
`names_swept` the names their folds visited.

`row(rel, u)` gives a caller the values of `u = z` or of `u in z` for
every name z: with the tables on, one gather of u's class row over the
covered names (`ColumnClasses.gather`), and past them the values a sweep
row of `z = u` or of `u in z` holds.  The row is a fresh array that the
context does not keep, so a caller that reads one name's rows at a time
holds O(n) values, and values read from the tables do not enter the store.
`quotient.build_quotient` reads its partition and its verdicts this way
where the tables do not cover the universe, and where asking pair by pair
would make 2n² clause calls; where they do (`EvalContext.tables`), it
reads the values by pair of classes (`ColumnClasses.by_pair`), which
those rows only spread over the names.

An equality clause stops as soon as its meet reaches bottom, but only when
the meet table's bottom row is constant, so defective tables evaluate as
they always have.  The clauses read the store inline on their recursive
calls.

The store and the rows only ever gain deterministic values; the rows
go when the covered classes become single names.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
    """A witness w's values against the covered names r, one per class of
    the covered names (see the module docstring), with c = of[r]:
    `members[c]` is `r in w`, `equals[c]` `r = w` and `containers[c]`
    `w in r`.  `of` is the signature classes' or, once the covered names
    went one by one, a class per name.  `entries` are w's entries with one covered entry per
    weight and signature class, which the clauses fold where their terms
    depend on a covered name only through its signature class."""

    of: Sequence[int]
    members: list[int]
    equals: list[int]
    containers: list[int]
    entries: list[tuple[int, int]]


class NameClasses:
    """A partition of the names of a universe into classes numbered in the
    order of their first names: `of[u]` is u's class, `reps[c]` the first
    name of class c and `sizes[c]` its size."""

    def __init__(self, of: Sequence[int], reps: Sequence[int], sizes: Sequence[int]):
        self.of, self.reps, self.sizes = of, reps, sizes

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
        return NameClasses.by_key(~u if u in split else c for u, c in enumerate(self.of))

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
    """Bell's clauses by signature class, for the names of one universe
    whose ids lie below `n` (see the module docstring).

    The names before `low` are of lower rank than the universe's bound;
    the ones from `low` up to `n` are of the bound's rank, and the low
    names hold the entries of them all.  `n` is 0 where the tables would
    not pay or not be sound.  `build` gives each covered name its
    signature class (`signatures`, and its `of` array), found by passes
    down the prefix arrays (`_pass`), and fills two class x class tables
    at the classes' first names: `u = v` is eq[of[u]][of[v]] and `u in v`
    is mem[of[v]][of[u]] for every covered pair not both low.  The low
    names are classes of their own, and their pairs come from a context's
    clauses, which also answer them outside the tables.

    Each class keeps the cells of its names, their halves by membership
    class (`halves`) and their memberships by equality class (`members`),
    whose columns over the low names `columns` numbers by relation.  A
    column that no class has, which a witness may bring, has its cells
    folded by prefix (`cells_at`).  The tables may be shared by the
    contexts of one assignment over universes that agree on their first
    `n` names.
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
        self.eq: list[list[int]] = []
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

    def build(self, ctx: EvalContext) -> None:
        """Fill the tables, reading the pairs of two low names through ctx's
        clauses.  Three passes down the prefix arrays find each name's
        cells: its memberships at the low names' equality classes, which
        give its membership column; its halves at every membership class,
        which with that column give its equality column; and its
        memberships at every equality class.  Its membership column, its
        halves and those memberships are its signature."""
        low, meet = self.low, self.alg.meet_t
        lows = range(low)
        eq_low = [[ctx.equality(x, v) for x in lows] for v in lows]
        mem_low = [[ctx.membership(x, v) for x in lows] for v in lows]
        e_low, low_cols = _numbered(map(tuple, eq_low))
        states, cells = self._pass(_REL_EQ, list(low_cols))
        of_state, in_cols = _numbered(tuple([h[e] for e in e_low]) for h in cells)
        mc = array("i", map(of_state.__getitem__, states))
        hs, halves = self._pass(_REL_MEM, list(in_cols))
        # `x = v` is x's half against v's membership class met with v's
        # against x's, so v's equality column is a function of the two
        ec = dict.fromkeys(zip(mc, hs))
        eq_cols: dict[tuple[int, ...], int] = {}
        for c, s in ec:
            col = tuple([meet[halves[hs[x]][c]][halves[s][mc[x]]] for x in lows])
            ec[c, s] = eq_cols.setdefault(col, len(eq_cols))
        ms, members = self._pass(_REL_EQ, list(eq_cols))
        self.signatures = NameClasses.by_key(chain(
            range(-low, 0), zip(mc[low:], hs[low:], ms[low:])))
        self.of, reps = self.signatures.of, self.signatures.reps
        self.gather = itemgetter(*self.of)  # a class row's values at every name
        self.halves = [halves[hs[r]] for r in reps]
        self.members = [members[ms[r]] for r in reps]
        self.columns = (eq_cols, in_cols)
        mcs, ecs = [mc[r] for r in reps], [ec[mc[r], hs[r]] for r in reps]
        self.eq = [[meet[h[c]][g[d]] for g, c in zip(self.halves, mcs)]
                   for h, d in zip(self.halves, mcs)]
        self.mem = [[m[c] for c in ecs] for m in self.members]
        for v in lows:
            self.eq[v][:low], self.mem[v][:low] = eq_low[v], mem_low[v]

    def _pass(self, rel: int, cols: list[tuple[int, ...]]) -> tuple[array, list[tuple[int, ...]]]:
        """Every covered name's cells at the columns cols over the low
        names, folded by the clause's steps (`fold`, `_steps`)."""
        alg = self.alg
        start = alg.top_i if rel == _REL_MEM else alg.bottom_i
        return self.fold([self._steps(rel, col) for col in cols], start)

    def _steps(self, rel: int, col: tuple[int, ...]) -> list[list[int]]:
        """The steps of a column's cells: a half (rel `in`) meets the
        factor of an entry's weight against its membership in col, and a
        membership (rel `=`) joins its weight met with its equality."""
        alg = self.alg
        if rel == _REL_MEM:
            return self.step_table(self.factor, alg.meet_t, col)
        return self.step_table(alg.meet_t, alg.join_t, col)

    def step_table(self, table: Sequence[Sequence[int]], fold: Sequence[Sequence[int]],
                   col: Sequence[int]) -> list[list[int]]:
        """The steps of a fold of table[a][col[x]] over a name's entries
        (x, a), col a column over the low names: at [h][e] the fold of a
        name whose prefix's fold is h and whose last entry is e."""
        step = [table[a][m] for m in col for a in range(len(self.alg.elements))]
        return [[row[s] for s in step] for row in fold]

    def fold(self, steps: list[list[list[int]]], start: int
             ) -> tuple[array, list[tuple[int, ...]]]:
        """Every covered name's folds by `steps` (each a `step_table`) from
        `start`, as `states` of their tuple."""
        k = len(self.alg.elements)
        return self.states((start,) * len(steps), lambda cell, x, a: tuple(
            [step[h][x * k + a] for step, h in zip(steps, cell)]))

    def states(self, start: Hashable, move: Callable[[Hashable, int, int], Hashable]
               ) -> tuple[array, list]:
        """A value of every covered name, down the prefix arrays: `start`
        at the empty name, and move(s, x, a) at a name whose prefix has s
        and whose last entry is (x, a).  Each name gets the id of its value,
        in the order of the first name that has it, and the values come by
        id.  `move` runs once per distinct (id, last entry), not per name."""
        k = len(self.alg.elements)
        values, ids, moves = [start], {start: 0}, {}
        states, width = array("i", [0]) * self.n, self.low * k
        for v, p, e in zip(range(1, self.n), self.prefix[1:], self.last_entry[1:]):
            key = states[p] * width + e
            s = moves.get(key)
            if s is None:
                to = move(values[states[p]], *divmod(e, k))
                s = moves[key] = ids.setdefault(to, len(values))
                if s == len(values):
                    values.append(to)
            states[v] = s
        return states, values

    def by_pair(self) -> tuple[list[list[int]], list[list[int]]]:
        """`=` and `in` by pair of signature classes: at [a][b] the value
        at (u, v) for every u of class a and v of class b."""
        return self.eq, [list(col) for col in zip(*self.mem)]

    def cells_at(self, rel: int, col: tuple[int, ...], classes: NameClasses) -> list[int]:
        """The cells at a column over the low names, halves for a
        membership column (rel `in`) and memberships for an equality column
        (rel `=`), of the first name of each of `classes`: the signature
        classes or a class per name."""
        c = self.columns[rel].get(col)
        if c is not None:
            by_class = [cells[c] for cells in (self.halves if rel == _REL_MEM else self.members)]
            return by_class if classes is self.signatures else list(self.gather(by_class))
        states, cells = self._pass(rel, [col])
        return [cells[states[r]][0] for r in classes.reps]


def _numbered(keys: Iterable[tuple[int, ...]]) -> tuple[list[int], dict[tuple[int, ...], int]]:
    """The number of each key, distinct keys numbered in order of first
    sight, and the numbers by key."""
    ids: dict[tuple[int, ...], int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys], ids


class EvalContext:
    """A universe, a designated set and one assignment style.

    The context owns its atomic store.  `columns` are the class tables,
    fresh ones by default, which the first context made with them builds;
    tables passed in may be shared with other contexts of the same
    assignment over universes that agree on every name id the tables
    cover.
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
        self._witnesses: dict[int, _Witness] = {}  # by witness id (`_witness`)
        self._visit_at: tuple[int, Sequence[int]] = (0, ())  # (universe length, `_visit`)
        cc = self._columns = ColumnClasses(universe, assignment) if columns is None else columns
        if cc.n and not cc.eq:  # built before any atom reads them
            cc.build(self)
        # the classes of the covered names that sweeps visit and witnesses
        # keep their values by (see the module docstring)
        self._covered = cc.signatures if cc.n else NameClasses.singletons(0)

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
            of = cc.of
            return cc.eq[of[u]][of[v]]
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
        mem, stop = self.membership, self._eq_stop
        acc = self._top
        for hi, lo in ((u, v), (v, u)):
            col = mem_rows.get(lo, ())  # `x in lo` for every x
            # a witness's values against the covered names, when lo is one
            w = self._witness(lo) if lo >= cc.n > 0 else None
            entries = names[hi].entries
            if w is not None and hi >= cc.n and w.of is cc.of:
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
            of = cc.of
            return cc.mem[of[v]][of[u]]
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
            w = self._witness(u)
            acc = w.containers[w.of[v]]
        else:  # the clause; where u is a witness, `x = u` for a covered x
            # comes from u's values against the covered names
            names = self.universe.names
            meet, join = self._meet, self._join
            eq, top = self.equality, self._top
            col = eq_rows.get(u, ())  # `x = u` for every x <= u
            w = self._witness(u) if u >= cc.n > 0 else None
            entries = names[v].entries
            if w is not None and v >= cc.n and w.of is cc.of:
                entries = self._witness(v).entries
            acc = self._bottom
            for x, vx in entries:
                if w is not None and x < cc.n:
                    e = w.equals[w.of[x]]
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
        """Extend the sweep row of (rel, side, t) to the names that a sweep
        visits in a universe of n names (`_visit`): with the class tables
        on, first the class row at the visit's covered names."""
        cc, m = self._columns, len(row)
        if cc.n:
            if not row:
                by_class, of = self._class_row(rel, side, t)
                row.extend(by_class if of is self._covered.of else cc.gather(by_class))
            m = cc.n + len(row) - len(self._covered.reps)
        self._fill(row, rel, side, t, m, n)

    def _class_row(self, rel: int, side: int, t: int) -> tuple[Sequence[int], Sequence[int]]:
        """The row of (rel, side, t) over the covered names, one value per
        class, and the `of` of those classes: the signature classes' from
        the tables, or a witness t's own."""
        cc = self._columns
        if t >= cc.n:  # a witness t
            w = self._witness(t)
            return (w.equals if rel == _REL_EQ else w.members if side == _Z_LEFT
                    else w.containers), w.of
        table = cc.eq if rel == _REL_EQ else cc.mem
        if t < 0:  # z = z, z in z
            return [table[c][c] for c in range(len(table))], cc.of
        if rel == _REL_MEM and side == _Z_RIGHT:  # t in z
            return [in_z[cc.of[t]] for in_z in table], cc.of
        return table[cc.of[t]], cc.of  # z = t, z in t

    def _witness(self, w: int) -> _Witness:
        """The values of a witness w against the covered names (see the
        module docstring), computed once."""
        hit = self._witnesses.get(w)
        if hit is None:
            hit = self._witnesses[w] = self._witness_values(w)
        return hit

    def _witness_values(self, w: int) -> _Witness:
        cc = self._columns
        sig, eq_at, in_to = cc.of, cc.eq, cc.mem
        meet, join, factor = self._meet, self._join, cc.factor
        top, bottom = self._top, self._bottom
        entries = self.universe.names[w].entries
        # equal terms of a join or a meet count once
        firsts = {(a, sig[y]): y for y, a in reversed(entries) if y < cc.n}
        covered = list(firsts)
        lower = [(a, self._witness(y)) for y, a in entries if y >= cc.n]
        classes = self._covered  # read after the witnesses below, which may split it
        members, halves = [], []
        for r in classes.reps:
            s = sig[r]
            eqs, ins = eq_at[s], in_to[s]  # `y = r` and `y in r` by the class of y
            m, h = bottom, top
            for a, c in covered:
                m = join[m][meet[a][eqs[c]]]
                h = meet[h][factor[a][ins[c]]]
            for a, x in lower:
                c = x.of[r]
                m = join[m][meet[a][x.equals[c]]]
                h = meet[h][factor[a][x.containers[c]]]
            members.append(m)
            halves.append(h)
        # w's columns over the low names, the first classes, whose cells are
        # each class's half of `r = w` and `w in r`
        in_col = tuple(members[:cc.low])
        equals = [meet[h][g] for h, g in zip(cc.cells_at(_REL_MEM, in_col, classes), halves)]
        eq_col = tuple(equals[:cc.low])
        if classes is cc.signatures and not (in_col in cc.columns[_REL_MEM]
                                             and eq_col in cc.columns[_REL_EQ]):
            # a column that no class has: from now on the covered names go
            # one by one, and the rows read at the old visit go
            self._covered = NameClasses.singletons(cc.n)
            self._rows.clear()
            return self._witness_values(w)
        return _Witness(classes.of, members, equals, cc.cells_at(_REL_EQ, eq_col, classes),
                        sorted((y, a) for (a, _), y in firsts.items())
                        + [(y, a) for y, a in entries if y >= cc.n])

    def _visit(self) -> Sequence[int]:
        """The names a sweep visits, in id order.  With the class tables
        on, the first name of each covered class, and then every witness;
        the low names are classes of their own, so there are at least two.
        With the tables off, every name."""
        cc, n = self._columns, len(self.universe.names)
        m, visit = self._visit_at
        if m != n:
            if cc.n:
                for w in range(max(m, cc.n), n):
                    self._witness(w)  # which may make the covered classes single names
                visit = [*self._covered.reps, *range(cc.n, n)]
            else:
                visit = range(n)
            self._visit_at = (n, visit)
        return visit

    def _fill(self, row: array, rel: int, side: int, t: int, m: int, n: int) -> None:
        """Extend the row of (rel, side, t) by its values at the names m to
        n, through the clauses or, for witnesses z against a covered t,
        from their values against the covered names."""
        if 0 <= t < self._columns.n <= m:
            ws = [self._witness(z) for z in range(m, n)]
            if rel == _REL_EQ:  # z = t
                row.extend([w.equals[w.of[t]] for w in ws])
            elif side == _Z_LEFT:  # z in t
                row.extend([w.containers[w.of[t]] for w in ws])
            else:  # t in z
                row.extend([w.members[w.of[t]] for w in ws])
            return
        if rel == _REL_MEM and side == _Z_LEFT:
            # `z in t` is the store's own row for t, with its holes filled
            unset, i = self._unset, len(row) - m
            row.extend(self._memo[_REL_MEM].get(t, ())[m:n])
            row.extend(repeat(unset, i + n - len(row)))
            for z in range(m, n):
                if row[i + z] == unset:
                    row[i + z] = self.membership(z, t)
            return
        clause = self.equality if rel == _REL_EQ else self.membership
        for z in range(m, n):
            u, v = (t, z) if side == _Z_RIGHT else (z, z) if side == _Z_BOTH else (z, t)
            row.append(clause(u, v))

    def _row_classes(self, keys: list[tuple[int, int, int]]) -> list[int]:
        """Extend the rows of keys to the current visit and return their
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
        fresh array that the context keeps no copy of: one gather of u's
        class row over the covered names, and the rest as a sweep row's."""
        if rel not in ("=", "in"):
            raise InputError(f"unknown atomic relation {rel!r}")
        out, cc = array(self._typecode), self._columns
        r, side = (_REL_EQ, _Z_LEFT) if rel == "=" else (_REL_MEM, _Z_RIGHT)
        if cc.n:
            by_class, of = self._class_row(r, side, u)
            out.extend(cc.gather(by_class) if of is cc.of else by_class)
        self._fill(out, r, side, u, len(out), len(self.universe.names))
        return out

    def tables(self) -> Optional[ColumnClasses]:
        """The class tables while the universe holds just the names they
        cover, else None."""
        cc = self._columns
        return cc if 0 < cc.n == len(self.universe.names) else None

    def name_classes(self) -> NameClasses:
        """Classes of interchangeable names: while the universe holds just
        the names the class tables cover, their signature classes
        (`ColumnClasses.signatures`); otherwise every name alone."""
        cc = self.tables()
        n = len(self.universe.names)
        return cc.signatures if cc is not None else NameClasses.singletons(n)

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
            visit = self._visit()  # before the rows, which it may drop
            self._row_classes(keys)
            rows = [rows_of[rk] for rk in keys]
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


class BqResult(NamedTuple):
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
    domains of many names share x.  Where the class tables cover the
    universe, `bq_mismatch` compares the two sides by class instead.
    """
    quantified = ctx.sentence(Forall("x", Imp(Mem(Var("x"), Var("u")), phi)), ("u",))
    indexed = ctx.sentence(phi, ("x",))
    names, meet, imp, top = ctx.universe.names, ctx._meet, ctx._imp, ctx._top
    es = ctx.algebra.elements
    known: dict[tuple[int, int], int] = {}  # phi(x) by (universe length, x)

    def compare(u: int) -> BqResult:
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


def domain_indexed(ctx: EvalContext, phis: Sequence[Formula]
                   ) -> tuple[array, list[tuple[int, ...]]]:
    """The right side of `bq_sides` for each of phis at every name, by one
    pass down the prefix arrays, where the class tables cover the universe
    (`EvalContext.tables`): each name's state, and by state the tuple of
    its sides, one per formula.

    The side of a name v is the meet, over its entries (x, a) in order, of
    a => phi(x).  Its prefix p(v) has v's entries less the last, so the
    meet over v's entries is the meet over p(v)'s and one step more,

        d(v) = d(p(v)) /\\ (a => phi(x))

    from top at the empty name: the steps of `bq_sides`, in its order, so
    no lattice law is needed.  The x are low names, so phi is read once
    per low name (`ColumnClasses.fold`)."""
    cc, alg = ctx.tables(), ctx.algebra
    steps = []
    for phi in phis:
        at = ctx.sentence(phi, ("x",))
        steps.append(cc.step_table(alg.imp_t, alg.meet_t, [at(x) for x in range(cc.low)]))
    return cc.fold(steps, alg.top_i)


def bq_mismatch(ctx: EvalContext, phis: Sequence[Formula]
                ) -> Optional[tuple[int, int, BqResult]]:
    """The first (u, i), name u outer and formula i inner, at which the two
    sides of `bq_sides(ctx, phis[i])` differ, with its result, or None;
    where the class tables cover the universe (`EvalContext.tables`).

    The left side is a function of u's class of interchangeable names,
    with the formulas' constants apart, and the right side of u's state
    in `domain_indexed`.  So both sides are asked once per distinct (class,
    state), at the first name that has them, in id order; the left side
    once per class.  The first name of the first pair that fails is the
    first name that fails: each name before it has a pair whose first name
    passed."""
    cc = ctx.tables()
    states, sides = domain_indexed(ctx, phis)
    classes = cc.signatures.apart(frozenset().union(*map(constants, phis)))
    quantified = [ctx.sentence(Forall("x", Imp(Mem(Var("x"), Var("u")), phi)), ("u",))
                  for phi in phis]
    left: dict[int, list[int]] = {}  # the left sides, by class
    es = ctx.algebra.elements
    for u in NameClasses.by_key(zip(classes.of, states)).reps:
        c = classes.of[u]
        if c not in left:
            left[c] = [at(u) for at in quantified]
        for i, (q, d) in enumerate(zip(left[c], sides[states[u]])):
            if q != d:
                return u, i, BqResult(es[q], es[d], False)
    return None
