"""Guards over the package source, read with `ast`, and over the names
the benchmark binds.

Dead-code guard: every public module-level function, class and name
bound by assignment in the package is reachable by name from code that
runs.  The live parts of `src/algval/` are its module-level statements
other than definitions, assignments to plain names and imports (the
command line's `main` call, for instance), the allowlisted entry points,
and every definition that a live part names; so the command handlers are
live because the parser that `main` builds names them.  An assignment is
a definition of each name it binds, which names what its value and
annotation name.  A public definition that only names itself, or is only
named by dead definitions or by the package's re-exports, is reported.

Import guards: the package needs nothing past the standard library, so
`src/` imports only its own modules and `sys.stdlib_module_names`, and
`pyproject.toml` declares no runtime dependency.  Start-up is part of
every verdict, so importing the command line loads none of `click`,
`dataclasses` and `inspect`, whose import alone took about a fifth of a
check process's start-up.

Record guard: `CheckResult` is built only in `run_check`, and no
registered check body names a "skipped" verdict, so gates and skips live
in the registry and in `run_check` alone.

Partition guard: `build_quotient` is called only by `Run.quotient`, so a
run builds the pa partition once and every reader shares it.

Workspace guard: `Workspace` is built only by `Run.workspace`, so every
workspace copies a run's enumerated universe and reads that run's class
tables; a check that needs another universe builds another `Run`.

Clause guard: Bell's atomic clauses live in `evaluate` alone, so no other
module keeps a copy of them; a copy needs the implication table, so no
module but `evaluate` reads `imp_t`.  `algebra` defines the table, and
`proplogic` evaluates the propositional connectives with it.

Row guard: the sweep rows are filled in `evaluate` alone, so no other
module reads `_extend`, `_fill` or `_rows`; a caller that needs a name's
values against every name asks the clauses pair by pair, at the first
names of classes where it reads the classes of names.

Cell guard: the class tables, each name's signature class and the
`=` and `in` values by pair of classes, come from passes down the prefix
arrays in `evaluate` alone, whose steps are the clause's folds.  So no
other module reads what they are computed from (`factor`, `steps`,
`prefix`, `last_entry`), the tables (`eq`, `mem`) or a class's cells
(`halves`, `members`); a reader asks the engine its values, and
`EvalContext.name_classes` its classes.  The prefix arrays are the
universe's, which records them as it interns its names, so `universe`
may read `prefix` and `last_entry`, and nothing else of these.

Assignment guard: the assignments differ only in the factor of the
equality clause, a formula per assignment (`evaluate.FACTORS`) whose table
every reader of the factor reads, and whether an assignment has equality
on an algebra is whether that table exists.  So no code in `evaluate`
compares an assignment with a string literal.

Formula-source guard: every formula list a check sweeps comes from
`formulas.battery`, so only it and `check_ps3_agreement`'s propositional
corpus call `enumerate_formulas`.

Kind guard: every dict literal with a "kind" key names one of the five
counterexample kinds, so `replay` and the readers of records know every
kind there is.

Benchmark guard: `bench/layers.py` wraps package attributes by name
(`quotient_satisfies`, `subst_const`, `Workspace.__init__`, `run_all`'s
keywords, the atomic methods of `EvalContext`, ...), so a traced pass
runs in a process of its own and must give the records of an untraced
one, with the quotient layers seen.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algval
from algval.evaluate import ASSIGNMENTS

SRC = Path(algval.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

# public entry points with no caller in the package: `replay` rebuilds a
# value from a record, `dumps_algebra` writes the algebra file format
ALLOWED = {"replay", "dumps_algebra"}


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _bound(node: ast.AST) -> list[str]:
    """The names a module-level assignment binds, or [] when it is no
    assignment or binds something other than plain names."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return [n.id for n in names] if all(isinstance(n, ast.Name) for n in names) else []


def dead_definitions(src: Path) -> list[str]:
    """`module.name` of each public definition in src/*.py that is not live."""
    defs: dict[tuple[str, str], set[str]] = {}  # (module, name) -> names it uses
    roots: set[str] = set(ALLOWED)
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            bound = _bound(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used = _names(node) - {node.name}
                defs[(path.stem, node.name)] = used
            elif bound:
                for name in bound:
                    defs[(path.stem, name)] = _names(node) - set(bound)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    live = set(roots)
    grown = True
    while grown:
        grown = False
        for (_, name), used in defs.items():
            if name in live and not used <= live:
                live |= used
                grown = True
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if not name.startswith("_") and name not in live)


def test_every_public_definition_has_a_caller():
    assert dead_definitions(SRC) == []


def test_guard_sees_a_definition_named_only_by_the_dead(tmp_path):
    # a dead pair, a live pair and re-exports: only the dead pair is
    # reported, since a name used by a dead definition does not count
    (tmp_path / "probe.py").write_text(
        "def orphan():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def used():\n    return inner()\n\n\n"
        "def inner():\n    return 2\n\n\nprint(used())\n",
        encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .probe import helper, orphan\n",
                                          encoding="utf-8")
    assert dead_definitions(tmp_path) == ["probe.helper", "probe.orphan"]


def test_guard_sees_an_assigned_name_that_nothing_reads(tmp_path):
    # a constant no code reads, and one read only by it, are dead; one a
    # live function reads, and the private names, are not reported
    (tmp_path / "probe.py").write_text(
        "NAMES = (LEFT, 'b')\n"
        "LEFT: str = 'a'\n"
        "_SLOTS, WIDTH = {'x': 1}, 2\n"
        "READ = {'y': 2}\n\n\n"
        "def main():\n    return READ, _SLOTS\n\n\n"
        "main()\n",
        encoding="utf-8")
    assert dead_definitions(tmp_path) == ["probe.LEFT", "probe.NAMES", "probe.WIDTH"]


def foreign_imports(src: Path) -> list[str]:
    """`module: name` for each import in src/*.py of a module that is
    neither the package's own nor in the standard library."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [f"{path.stem}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_the_package_imports_only_the_standard_library():
    assert foreign_imports(SRC) == []


def test_import_guard_sees_a_third_party_import(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import os\nimport click\nfrom . import theorems\nfrom .errors import InputError\n"
        "from click.testing import CliRunner\n\n\ndef main():\n    import numpy.linalg\n",
        encoding="utf-8")
    assert foreign_imports(tmp_path) == ["cli: click", "cli: click.testing", "cli: numpy.linalg"]


def test_no_runtime_dependency_is_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(BENCH.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def test_importing_the_command_line_loads_no_slow_module():
    script = ("import sys, algval.cli\n"
              "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    r = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def record_violations(src: Path) -> tuple[set[str], list[str]]:
    """The registered check bodies (first arguments of `Check(...)`), and
    `module.owner` of each top-level definition in src/*.py that builds a
    `CheckResult` outside `run_check` or is a body naming "skipped"."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(src.glob("*.py"))}
    bodies = {call.args[0].id for tree in modules.values() for call in ast.walk(tree)
              if isinstance(call, ast.Call) and _callee(call) == "Check"
              and call.args and isinstance(call.args[0], ast.Name)}
    out = set()
    for mod, tree in modules.items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for sub in ast.walk(top):
                if (isinstance(sub, ast.Call) and _callee(sub) == "CheckResult"
                        and owner != "run_check"):
                    out.add(f"{mod}.{owner} builds a CheckResult")
                if owner in bodies and isinstance(sub, ast.Constant) and sub.value == "skipped":
                    out.add(f"{mod}.{owner} names a skipped verdict")
    return bodies, sorted(out)


def test_only_run_check_builds_records():
    bodies, violations = record_violations(SRC)
    assert len(bodies) == len(algval.CHECKS)
    assert violations == []


def test_record_guard_sees_a_body_that_skips(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def _skip(name, reason):\n"
        "    return CheckResult(name, '', 'skipped', skip_reason=reason)\n\n\n"
        "def check_gated(run):\n"
        "    if not run.profile['boolean']:\n"
        "        return 'skipped', {}\n"
        "    return None, {}\n\n\n"
        "def run_check(name, run):\n"
        "    return CheckResult(name, '', 'pass')\n\n\n"
        "CHECKS = {'gated': Check(check_gated, '', '', [])}\n",
        encoding="utf-8")
    assert record_violations(tmp_path) == ({"check_gated"}, [
        "probe._skip builds a CheckResult", "probe.check_gated names a skipped verdict"])


def _owners(src: Path, hit, skip: frozenset[str] = frozenset()) -> list[str]:
    """`module.qualified.name` of each definition in src/*.py, outside the
    modules named in skip, that holds a node for which hit(node) is true
    (`module` alone for one at module level)."""
    out = set()

    def visit(node: ast.AST, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if hit(child):
                out.add(owner)
            visit(child, owner)

    for path in sorted(src.glob("*.py")):
        if path.stem not in skip:
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(out)


def quotient_builders(src: Path) -> list[str]:
    """The definitions that call `build_quotient`."""
    return _owners(src, lambda node: isinstance(node, ast.Call)
                  and _callee(node) == "build_quotient")


def imp_table_readers(src: Path) -> list[str]:
    """The definitions outside `algebra`, `evaluate` and `proplogic` that
    read an `imp_t`."""
    return _owners(src, lambda node: isinstance(node, ast.Attribute) and node.attr == "imp_t",
                  skip=frozenset({"algebra", "evaluate", "proplogic"}))


def workspace_builders(src: Path) -> list[str]:
    """The definitions that build a `Workspace`."""
    return _owners(src, lambda node: isinstance(node, ast.Call)
                  and _callee(node) == "Workspace")


def test_only_the_run_builds_workspaces():
    assert workspace_builders(SRC) == ["theorems.Run.workspace"]


def test_workspace_guard_sees_a_check_that_builds_its_own(tmp_path):
    (tmp_path / "probe.py").write_text(
        "class Run:\n"
        "    def workspace(self):\n"
        "        return Workspace(self)\n\n\n"
        "def check_transfer(run):\n"
        "    target = theorems.Workspace(ps3_alg, ps3_d, rank_bound=run.rank_bound)\n"
        "    return None, {'names': len(target.universe)}\n",
        encoding="utf-8")
    assert workspace_builders(tmp_path) == ["probe.Run.workspace", "probe.check_transfer"]


def test_only_the_run_builds_the_partition():
    assert quotient_builders(SRC) == ["theorems.Run.quotient"]


def test_partition_guard_sees_a_check_that_builds_its_own(tmp_path):
    (tmp_path / "probe.py").write_text(
        "class Run:\n"
        "    @property\n"
        "    def quotient(self):\n"
        "        return build_quotient(self.workspace().pa)\n\n\n"
        "def check_quotient(run):\n"
        "    qm = quotient.build_quotient(run.workspace().pa)\n"
        "    return None, {'classes': len(qm)}\n",
        encoding="utf-8")
    assert quotient_builders(tmp_path) == ["probe.Run.quotient", "probe.check_quotient"]


def test_only_the_engine_reads_the_implication_table():
    assert imp_table_readers(SRC) == []


def test_clause_guard_sees_a_planted_reader(tmp_path):
    reader = "def clause(alg, a, m):\n    return alg.imp_t[a][m]\n"
    for exempt in ("algebra", "evaluate", "proplogic"):
        (tmp_path / f"{exempt}.py").write_text(reader, encoding="utf-8")
    (tmp_path / "theorems.py").write_text(
        "class Fold:\n"
        "    def half(self, a, m):\n"
        "        return self.alg.imp_t[a][m]\n\n\n"
        "def coincidence_mismatches(ws):\n"
        "    imp = ws.algebra.imp_t\n"
        "    return imp\n",
        encoding="utf-8")
    assert imp_table_readers(tmp_path) == ["theorems.Fold.half",
                                           "theorems.coincidence_mismatches"]


ROW_INTERNALS = {"_extend", "_fill", "_rows", "_class_row", "_visit", "_covered"}


def row_internal_readers(src: Path) -> list[str]:
    """The definitions outside `evaluate` that read a sweep row internal."""
    return _owners(src, lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ROW_INTERNALS, skip=frozenset({"evaluate"}))


def test_only_the_engine_fills_rows():
    assert row_internal_readers(SRC) == []


def test_row_guard_sees_a_planted_reader(tmp_path):
    (tmp_path / "evaluate.py").write_text(
        "class EvalContext:\n"
        "    def row(self, key, n):\n"
        "        return self._extend(self._rows[key], *key, n)\n",
        encoding="utf-8")
    (tmp_path / "quotient.py").write_text(
        "def build_quotient(ctx):\n"
        "    out = []\n"
        "    ctx._fill(out, 0, 0, 1, 0, 4)\n"
        "    return out\n\n\n"
        "def first_names(ctx):\n"
        "    return ctx._covered.reps, ctx._class_row(0, 0, 1)\n\n\n"
        "CACHED = len(EvalContext._rows)\n",
        encoding="utf-8")
    assert row_internal_readers(tmp_path) == ["quotient", "quotient.build_quotient",
                                              "quotient.first_names"]


CELL_SOURCES = {"factor", "steps", "prefix", "last_entry", "eq", "mem", "halves", "members"}
PREFIX_ARRAYS = {"prefix", "last_entry"}  # the universe's own


def cell_computers(src: Path) -> list[str]:
    """The definitions outside `evaluate` that read the class tables or
    what they are computed from, but for `universe` reading its prefix
    arrays."""
    def reads(attrs):
        return lambda node: isinstance(node, ast.Attribute) and node.attr in attrs
    return sorted({*_owners(src, reads(CELL_SOURCES - PREFIX_ARRAYS), skip=frozenset({"evaluate"})),
                   *_owners(src, reads(PREFIX_ARRAYS), skip=frozenset({"evaluate", "universe"}))})


def test_only_the_engine_computes_table_cells():
    assert cell_computers(SRC) == []


def test_cell_guard_sees_a_planted_reader(tmp_path):
    (tmp_path / "evaluate.py").write_text(
        "class ColumnClasses:\n"
        "    def column(self, c, v):\n"
        "        return self.steps[c][self.prefix[v]][self.last_entry[v]]\n",
        encoding="utf-8")
    (tmp_path / "theorems.py").write_text(
        "class Fold:\n"
        "    def half(self, tables, v):\n"
        "        return tables.prefix[v], tables.last_entry[v]\n\n\n"
        "def coincidence_mismatches(ws):\n"
        "    factor = ws.pa._columns.factor\n"
        "    return factor\n",
        encoding="utf-8")
    (tmp_path / "universe.py").write_text(
        "class Universe:\n"
        "    def states(self, v):\n"
        "        return self.prefix[v], self.last_entry[v]\n\n"
        "    def cells(self, tables, v):\n"
        "        return tables.halves[v]\n",
        encoding="utf-8")
    assert cell_computers(tmp_path) == ["theorems.Fold.half",
                                        "theorems.coincidence_mismatches",
                                        "universe.Universe.cells"]


def assignment_tests(src: Path) -> list[str]:
    """The definitions in `evaluate` that compare with a string literal
    either an assignment's name or something named `assignment`."""
    def test(node: ast.AST) -> bool:
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        literals = [x.value for y in operands for x in getattr(y, "elts", [y])
                    if isinstance(x, ast.Constant) and isinstance(x.value, str)]
        named = any(getattr(x, "id", getattr(x, "attr", None)) == "assignment" for x in operands)
        return bool(literals) and named or any(x in ASSIGNMENTS for x in literals)
    return _owners(src, test, skip=frozenset(p.stem for p in src.glob("*.py")) - {"evaluate"})


def test_no_assignment_is_told_apart_by_its_name():
    assert assignment_tests(SRC) == []


def test_assignment_guard_sees_a_planted_test(tmp_path):
    (tmp_path / "evaluate.py").write_text(
        "class EvalContext:\n"
        "    def equality(self, u, v):\n"
        "        pa = self.assignment == \"pa\"\n"
        "        return pa\n\n"
        "    def membership(self, u, v):\n"
        "        return u if self.rel in (\"=\", \"in\") else v\n\n\n"
        "def _atom(ctx, f):\n"
        "    if \"ba\" != ctx.name or ctx.assignment not in (\"xa\",):\n"
        "        return f\n\n\n"
        "STYLES = [a for a in ASSIGNMENTS if a == 'pa']\n",
        encoding="utf-8")
    (tmp_path / "quotient.py").write_text(
        "def build_quotient(ctx):\n"
        "    if ctx.assignment != \"pa\":\n"
        "        raise InputError('quotients are built over the pa assignment')\n",
        encoding="utf-8")
    assert assignment_tests(tmp_path) == ["evaluate", "evaluate.EvalContext.equality",
                                          "evaluate._atom"]


def formula_enumerators(src: Path) -> list[str]:
    """The definitions that call `enumerate_formulas`."""
    return _owners(src, lambda node: isinstance(node, ast.Call)
                   and _callee(node) == "enumerate_formulas")


def test_every_battery_comes_from_one_source():
    assert formula_enumerators(SRC) == ["formulas.battery", "theorems.check_ps3_agreement"]


def test_formula_source_guard_sees_a_hand_built_list(tmp_path):
    (tmp_path / "evaluate.py").write_text(
        "def nff_battery(universe):\n"
        "    out = [('#0 = #0', Eq(Const(0), Const(0)))]\n"
        "    return out + [(print_formula(f), f) for f in enumerate_formulas(ATOMS, 3, False)]\n",
        encoding="utf-8")
    (tmp_path / "formulas.py").write_text(
        "def battery(variables, constants, max_nodes, negation, bounded=0):\n"
        "    return enumerate_formulas(atoms(variables), max_nodes, negation)\n",
        encoding="utf-8")
    assert formula_enumerators(tmp_path) == ["evaluate.nff_battery", "formulas.battery"]


KINDS = {"sentence", "atomic", "valuation", "law", "missing"}


def stray_kinds(src: Path) -> list[str]:
    """The definitions that build a dict literal whose "kind" is not one of
    the five counterexample kinds."""
    def stray(node: ast.AST) -> bool:
        return isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value == "kind"
            and not (isinstance(value, ast.Constant) and value.value in KINDS)
            for key, value in zip(node.keys, node.values))
    return _owners(src, stray)


def test_every_counterexample_has_one_of_five_kinds():
    assert stray_kinds(SRC) == []


def test_kind_guard_sees_a_sixth_kind(tmp_path):
    (tmp_path / "theorems.py").write_text(
        "def law_counterexample(witnesses):\n"
        "    return {'kind': 'law', 'witnesses': witnesses}\n\n\n"
        "def check_routes(run):\n"
        "    return {'kind': 'route-disagreement', 'closed_form': True}, {}\n",
        encoding="utf-8")
    assert stray_kinds(tmp_path) == ["theorems.check_routes"]


def test_the_benchmark_finds_every_name_it_wraps():
    script = ("import json, algval, layers\n"
              "out = layers.traced_pass(algval, [('ps3', 2, 'all')], 0)\n"
              "print(json.dumps([out['traced_records'] == out['untraced_records'],\n"
              "                  out['metrics']['quotient.classes'],\n"
              "                  out['metrics']['quotient.satisfies_calls']]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(BENCH)])}
    r = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    same, classes, satisfies_calls = json.loads(r.stdout)
    assert same and classes > 0 and satisfies_calls >= 1
