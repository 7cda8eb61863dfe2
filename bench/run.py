"""algval benchmark: time to verdict, set-up, memory and exhaustive work.

Run from the root of a checkout:

    python3 bench/run.py --workload rank2-all --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --quick

Each workload is a fixed list of `algval check ... --format records`
invocations, run one process at a time (a closed loop with one client) in
whole passes until `--seconds` have elapsed.  The invocations run pinned to
one CPU beside a low-priority calibration loop (calibrate.py); their CPU
time, scaled by how fast that loop ran meanwhile, gives the time metrics
in seconds at a fixed reference speed.  Every output is checked
against computations made apart from the program (bench/reference.py),
outside the timed region.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.  With `--trace 1` the
metrics are the per-layer figures of an in-process traced pass
(bench/layers.py) instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import reference  # the benchmark's own module, next to this file

BUILTINS = ("ps3", "bool2", "bool4", "chain3", "chain4", "chain5", "chain6",
            "chain7", "chain8", "stretch-bool4")

# workload -> invocations (algebra, rank, selection).  Why each was chosen is
# in BENCHMARK.json and README.md.
WORKLOADS = {
    "rank2-all": [(a, 2, "all") for a in BUILTINS],
    "ps3-rank3-all": [("ps3", 3, "all")],
    "bool4-rank3-coincidence": [("bool4", 3, "boolean-coincidence")],
}
ENGINE_SAMPLE = 3000  # rank-3 pairs compared with EvalContext; rank 2 takes all
SETUP_SAMPLES = 12
SETUP_SAMPLES_PER_PASS = 6
# The reference speed: calibration chunks per CPU second.  A time metric is
# the CPU seconds an invocation took, times the chunks per CPU second the
# calibration loop did meanwhile, divided by this.  It is about the rate of
# the machine the benchmark was written on when it ran at its fastest.
REF_CHUNKS_PER_S = 20000.0

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import algval.cli
t1 = time.perf_counter()
from algval.algebra import builtin
for name in sys.argv[1:]:
    builtin(name)
print(t1 - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for key in [k for k in env if k.startswith("ALGVAL_")]:
        del env[key]
    return env


def cli_argv(inv, seed: int) -> list:
    algebra, rank, selection = inv
    return [sys.executable, "-m", "algval.cli", "check", selection, "-a", algebra,
            "--rank", str(rank), "--seed", str(seed), "--format", "records"]


class Launcher:
    """The small process that spawns the CLI invocations (see launch.py), on
    the last CPU this process may use, beside the calibration loop."""

    def __init__(self, env: dict):
        OUT.mkdir(exist_ok=True)
        cpu = max(os.sched_getaffinity(0))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(cpu),
                                      str(OUT / "calibration.counter")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=str(ROOT), text=True)

    def run(self, argv: list) -> dict:
        out, err = OUT / "invocation.out", OUT / "invocation.err"
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(out),
                                          "stderr": str(err)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        res = json.loads(line)
        res["rss_mb"] = res["rss_kb"] / 1024.0
        if res["cal_cpu"] <= 0:
            raise RuntimeError("the calibration loop did not run beside an invocation")
        res["speed"] = res["cal_chunks"] / res["cal_cpu"] / REF_CHUNKS_PER_S
        res["ref_s"] = res["cpu"] * res["speed"]
        res["out"] = out.read_text(encoding="utf-8")
        res["err"] = err.read_text(encoding="utf-8")
        return res

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def measure_setup(algebras: list, launcher: Launcher, samples: int) -> list:
    """Fresh processes that import algval and build the workload's algebras,
    then exit: for each, its time at the reference speed, its wall time and
    the import time it reports."""
    out = []
    for _ in range(samples):
        res = launcher.run([sys.executable, "-c", SETUP_CHILD, *algebras])
        if res["rc"] != 0 or not res["out"].strip():
            raise reference.CheckFailed(f"set-up process exited with {res['rc']}")
        out.append((res["ref_s"], res["wall"], float(res["out"])))
    return out


class Checker:
    """The checks made apart from the program, for one workload and seed."""

    def __init__(self, invocations: list, seed: int):
        sys.path.insert(0, str(SRC))
        import algval.algebra
        import algval.evaluate
        import algval.universe
        self.algval = algval
        self.facts = {(a, r): reference.Facts(algval, a, r) for a, r, _ in invocations}
        self.engine, self.failures = [], []
        for a, r, _ in invocations:
            try:
                self.engine.append(reference.compare_engine(
                    algval, a, r, seed, sample=0 if r == 2 else ENGINE_SAMPLE))
            except reference.BAD_OUTPUT as exc:
                self.failures.append(f"engine comparison: {exc}")

    def records(self, inv, stdout: str) -> int:
        algebra, rank, selection = inv
        expected = reference.ALL_CHECKS if selection == "all" else [selection]
        return reference.check_records(self.facts[algebra, rank], stdout, expected)


def run_pass(invocations: list, seed: int, launcher: Launcher,
             checker: Checker) -> dict:
    procs = [launcher.run(cli_argv(inv, seed)) for inv in invocations]
    # outside the timed region: check every output
    failures, work = [], 0
    for inv, p in zip(invocations, procs):
        try:
            reference.expect(p["rc"] in (0, 1), f"exit code {p['rc']}: {p['err'][-2000:]}")
            work += checker.records(inv, p["out"])
            reference.expect(p["rc"] == 0, f"exit code {p['rc']}")
        except reference.BAD_OUTPUT as exc:
            failures.append(f"{inv}: {exc}")
    return {"verdict_s": sum(p["ref_s"] for p in procs),
            "wall_s": sum(p["wall"] for p in procs),
            "invocation_s": [p["wall"] for p in procs],
            "speed": [p["speed"] for p in procs],
            "cpu_s": sum(p["cpu"] for p in procs),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "instances": work, "failures": failures}


def run_untraced(workload: str, invocations: list, seed: int, seconds: float,
                 env: dict, checker: Checker) -> dict:
    # Set-up samples at the start and after every pass, so that they span the run.
    algebras = sorted({a for a, _, _ in invocations})
    passes = []
    with Launcher(env) as launcher:
        setup = measure_setup(algebras, launcher, SETUP_SAMPLES)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(invocations, seed, launcher, checker))
            setup += measure_setup(algebras, launcher, SETUP_SAMPLES_PER_PASS)
    failures = [f for p in passes for f in p["failures"]]
    counts = {p["instances"] for p in passes}
    if len(counts) != 1:
        failures.append(f"work counts differ between passes: {sorted(counts)}")
    metrics = {
        "verdict_s": (statistics.median(p["verdict_s"] for p in passes), "s"),
        "setup_s": (statistics.median(t for t, _, _ in setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "instances": (passes[-1]["instances"], "count"),
    }
    raw = {"pass_s": [p["verdict_s"] for p in passes],
           "pass_wall_s": [p["wall_s"] for p in passes],
           "invocation_wall_s": [p["invocation_s"] for p in passes],
           "invocation_speed": [p["speed"] for p in passes],
           "pass_cpu_s": [p["cpu_s"] for p in passes],
           "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
           "setup_s": [t for t, _, _ in setup],
           "setup_wall_s": [w for _, w, _ in setup],
           "import_s": [i for _, _, i in setup]}
    return {"metrics": metrics, "raw": raw, "failures": failures,
            "attempted": len(passes) * len(invocations),
            "failed": sum(len(p["failures"]) for p in passes)}


def run_traced(workload: str, invocations: list, seed: int, env: dict,
               checker: Checker) -> dict:
    import layers
    algebras = sorted({a for a, _, _ in invocations})
    with Launcher(env) as launcher:
        setup = measure_setup(algebras, launcher, SETUP_SAMPLES)
    result = layers.traced_pass(checker.algval, invocations, seed)
    failures = []
    for tag in ("untraced", "traced"):
        for inv, stdout in zip(invocations, result[tag + "_records"]):
            try:
                checker.records(inv, stdout)
            except reference.BAD_OUTPUT as exc:
                failures.append(f"{tag} {inv}: {exc}")
    failed = len(failures)
    if result["untraced_records"] != result["traced_records"]:
        failures.append("traced records differ from untraced records")
    values = dict(result["metrics"],
                  **{"cli.import_s": statistics.median(i for _, _, i in setup)})
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": result["spans"]}, fh)
    return {"metrics": metrics, "raw": {"import_s": [i for _, _, i in setup]},
            "failures": failures, "attempted": 2 * len(invocations),
            "failed": failed}


def quick() -> int:
    """Every workload's invocations and checks at rank 2, one pass each."""
    env = child_env()
    ok = True
    for workload, invocations in WORKLOADS.items():
        invocations = [(a, 2, sel) for a, _, sel in invocations]
        checker = Checker(invocations, seed=0)
        with Launcher(env) as launcher:
            p = run_pass(invocations, 0, launcher, checker)
        p["failures"] = checker.failures + p["failures"]
        status = "ok" if not p["failures"] else "FAILED"
        ok = ok and not p["failures"]
        print(f"{workload} at rank 2: {status}, {p['verdict_s']:.2f} s, "
              f"{p['instances']} instances, peak {p['peak_rss_mb']:.1f} MB")
        for f in p["failures"]:
            print(f"  {f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-test: every workload at rank 2, one pass")
    args = ap.parse_args(argv)
    if not (SRC / "algval" / "cli.py").is_file():
        print(f"error: no algval sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required")
    invocations = WORKLOADS[args.workload]
    env = child_env()
    checker = Checker(invocations, args.seed)
    if args.trace:
        res = run_traced(args.workload, invocations, args.seed, env, checker)
    else:
        res = run_untraced(args.workload, invocations, args.seed, args.seconds,
                           env, checker)
    res["failures"] = checker.failures + res["failures"]
    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "raw": res["raw"], "failures": res["failures"],
              "engine": checker.engine,
              "metrics": {k: v for k, (v, _) in res["metrics"].items()}}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for f in res["failures"]:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps({"raw": res["raw"]}))
    correct = not res["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
