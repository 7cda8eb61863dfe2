"""Per-layer metrics from a traced in-process pass.

The workload's invocations run through `theorems.run_all` twice in this
process: once untraced, once with spans around the public functions of
each algval module.  Wrappers are installed by rebinding every module
attribute (and class attribute) that holds the original, and removed
afterwards; nothing in `src/` changes.  Spans are kept in memory: hot
layers (sentence and atomic evaluation, substitution, inserts, quotient
satisfaction) only as counts and total time, the others also as
individual (layer, parent, start, end) spans for the trace dump.

Only the outermost call of a layer is timed.  Inside an outermost sentence
evaluation the atomic methods are swapped back to the originals, so the
quantifier sweeps run at full speed and `evaluate.atomic_*` counts the
atomic calls made outside sentence evaluation.
"""

from __future__ import annotations

import time
from collections import defaultdict

from reference import ALL_CHECKS

# (metric, unit, better) in the order they are reported.
PER_LAYER = [
    ("evaluate.sentence_calls", "count", "lower"),
    ("evaluate.sentence_s", "s", "lower"),
    ("evaluate.contexts", "count", "lower"),
    ("evaluate.atomic_calls", "count", "lower"),
    ("evaluate.atomic_s", "s", "lower"),
    ("theorems.coincidence_fold_s", "s", "lower"),
    ("universe.build_calls", "count", "lower"),
    ("universe.build_s", "s", "lower"),
    ("universe.names_enumerated", "count", "lower"),
    ("universe.insert_calls", "count", "lower"),
    ("universe.names_added", "count", "lower"),
    ("algebra.profile_calls", "count", "lower"),
    ("algebra.profile_s", "s", "lower"),
    ("algebra.law_calls", "count", "lower"),
    ("algebra.law_s", "s", "lower"),
    ("proplogic.taut_calls", "count", "lower"),
    ("proplogic.taut_s", "s", "lower"),
    ("quotient.build_s", "s", "lower"),
    ("quotient.classes", "count", "higher"),
    ("quotient.satisfies_calls", "count", "lower"),
    ("quotient.satisfies_s", "s", "lower"),
    ("formulas.subst_calls", "count", "lower"),
    ("formulas.subst_s", "s", "lower"),
    ("theorems.workspaces", "count", "lower"),
    *[(f"theorems.check_s.{c}", "s", "lower") for c in ALL_CHECKS],
    ("cli.import_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.wait_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Layers kept as counts and total time only (as is the atomic layer): they run
# tens of thousands to millions of times.
HOT = {"sentence", "subst", "insert", "satisfies"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self.atomic = [0, 0, 0.0]  # depth, calls, seconds
        self.spans: list = []
        self.stack: list = []
        self._undo: list = []

    # -- installing wrappers ----------------------------------------------------

    def patch(self, owner, attr: str, fn):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, fn)

    def _rebind(self, owners, orig, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, orig))

    def wrap(self, owners, name: str, layer: str, on_result=None, key=None,
             skip=None, enter=None, leave=None):
        """Time the outermost call of `layer` around attribute `name` of the
        owners.  `skip()` true passes the call through untimed; `enter` and
        `leave` run around an outermost call."""
        orig = next(vars(o)[name] for o in owners if name in vars(o))
        tracer = self
        hot = layer in HOT

        def wrapper(*args, **kwargs):
            if tracer.depth[layer] or (skip is not None and skip()):
                return orig(*args, **kwargs)
            label = layer if key is None else key(args, kwargs)
            tracer.depth[layer] += 1
            if not hot:
                parent = tracer.stack[-1] if tracer.stack else None
                tracer.stack.append(len(tracer.spans))
                tracer.spans.append([label, parent, 0.0, 0.0])
            if enter is not None:
                enter()
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if leave is not None:
                    leave()
                tracer.depth[layer] -= 1
                tracer.calls[label] += 1
                tracer.seconds[label] += t1 - t0
                if not hot:
                    span = tracer.spans[tracer.stack.pop()]
                    span[2], span[3] = t0, t1
            if on_result is not None:
                on_result(args, out)
            return out

        self._rebind(owners, orig, wrapper)

    def wrap_atomic(self, cls, name: str):
        """A leaner `wrap` for the atomic methods, called millions of times."""
        orig = vars(cls)[name]
        state = self.atomic
        perf = time.perf_counter

        def wrapper(*args):
            if state[0]:
                return orig(*args)
            state[0] = 1
            t0 = perf()
            try:
                return orig(*args)
            finally:
                state[2] += perf() - t0
                state[1] += 1
                state[0] = 0

        self._rebind([cls], orig, wrapper)

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def install(algval, tracer: Tracer):
    mods = [algval.algebra, algval.universe, algval.formulas, algval.evaluate,
            algval.theorems, algval.quotient, algval.proplogic, algval.cli, algval]
    ev, uni, th = algval.evaluate, algval.universe, algval.theorems
    ctx_cls = ev.EvalContext
    count = tracer.counts

    # evaluate: outermost sentence calls run with the original atomic methods
    atomic = ("equality", "membership", "atomic")
    originals = {m: vars(ctx_cls)[m] for m in atomic}
    for m in atomic:
        tracer.wrap_atomic(ctx_cls, m)
    wrapped = {m: vars(ctx_cls)[m] for m in atomic}

    def unwrap_atomic():
        for m, f in originals.items():
            setattr(ctx_cls, m, f)

    def rewrap_atomic():
        for m, f in wrapped.items():
            setattr(ctx_cls, m, f)

    for m in ("value", "eval", "holds"):
        tracer.wrap([ctx_cls], m, "sentence", enter=unwrap_atomic, leave=rewrap_atomic)
    tracer.wrap([ctx_cls], "__init__", "context")

    # universe: enumeration, and the inserts made outside enumeration
    def enumerated(args, out):
        count["names_enumerated"] += len(out)
    tracer.wrap(mods, "build_universe", "build", on_result=enumerated)

    insert_orig = uni.Universe.insert

    def counted_insert(self, entries):
        if tracer.depth["build"]:
            return insert_orig(self, entries)
        before = len(self.names)
        out = insert_orig(self, entries)
        count["names_added"] += len(self.names) - before
        return out

    tracer.patch(uni.Universe, "insert", counted_insert)
    tracer.wrap([uni.Universe], "insert", "insert", skip=lambda: tracer.depth["build"])

    # algebra: the gating profile and the law reports
    tracer.wrap(mods, "profile", "profile")
    for fn in ("check_lattice", "check_drim", "check_cobounded", "check_filter"):
        tracer.wrap(mods, fn, "law")

    tracer.wrap(mods, "is_tautology", "taut")
    tracer.wrap(mods, "subst_const", "subst")

    def classes(args, out):
        count["classes"] += len(out.classes)
    tracer.wrap(mods, "build_quotient", "quotient.build", on_result=classes)
    tracer.wrap(mods, "quotient_satisfies", "satisfies")

    tracer.wrap(mods, "coincidence_mismatches", "fold")
    tracer.wrap([th.Workspace], "__init__", "workspace")
    tracer.wrap(mods, "run_check", "check",
                key=lambda args, kwargs: "check:" + (args[0] if args else kwargs["name"]))


def run_invocations(algval, invocations: list, seed: int) -> tuple:
    from algval.algebra import builtin
    algebras = {a: builtin(a) for a, _, _ in invocations}
    records = []
    w0, c0 = time.perf_counter(), time.process_time()
    for algebra, rank, selection in invocations:
        alg, d = algebras[algebra]
        names = None if selection == "all" else [selection]
        results = algval.theorems.run_all(alg, d, rank_bound=rank, seed=seed,
                                          names=names, jobs=1)
        records.append("".join(r.record_line() + "\n" for r in results))
    return records, time.perf_counter() - w0, time.process_time() - c0


def traced_pass(algval, invocations: list, seed: int) -> dict:
    import algval.cli  # noqa: F401  (loads every module the wrappers cover)
    untraced_records, untraced_wall, untraced_cpu = run_invocations(algval, invocations, seed)
    tracer = Tracer()
    install(algval, tracer)
    try:
        traced_records, traced_wall, _ = run_invocations(algval, invocations, seed)
    finally:
        tracer.remove()
    c, s, n = tracer.calls, tracer.seconds, tracer.counts
    values = {
        "evaluate.sentence_calls": c["sentence"],
        "evaluate.sentence_s": s["sentence"],
        "evaluate.contexts": c["context"],
        "evaluate.atomic_calls": tracer.atomic[1],
        "evaluate.atomic_s": tracer.atomic[2],
        "theorems.coincidence_fold_s": s["fold"],
        "universe.build_calls": c["build"],
        "universe.build_s": s["build"],
        "universe.names_enumerated": n["names_enumerated"],
        "universe.insert_calls": c["insert"],
        "universe.names_added": n["names_added"],
        "algebra.profile_calls": c["profile"],
        "algebra.profile_s": s["profile"],
        "algebra.law_calls": c["law"],
        "algebra.law_s": s["law"],
        "proplogic.taut_calls": c["taut"],
        "proplogic.taut_s": s["taut"],
        "quotient.build_s": s["quotient.build"],
        "quotient.classes": n["classes"],
        "quotient.satisfies_calls": c["satisfies"],
        "quotient.satisfies_s": s["satisfies"],
        "formulas.subst_calls": c["subst"],
        "formulas.subst_s": s["subst"],
        "theorems.workspaces": c["workspace"],
        **{f"theorems.check_s.{k}": s["check:" + k] for k in ALL_CHECKS},
        "cli.cpu_s": untraced_cpu,
        "cli.wait_s": untraced_wall - untraced_cpu,
        "trace.untraced_s": untraced_wall,
        "trace.traced_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }
    return {
        "metrics": values,
        "untraced_records": untraced_records,
        "traced_records": traced_records,
        "spans": tracer.spans,
    }
