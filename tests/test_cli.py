import io
import itertools
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import algval
from algval.algebra import (BUILTIN_NAMES, CHAIN_MAX, Algebra, builtin, dumps_algebra,
                            load_algebra, ps3)
from algval.cli import cli
from algval.errors import InputError
from algval.formulas import And, Bot, Imp, Not, Or, Top
from algval.proplogic import MAX_VALUATIONS, PVar, parse_prop, print_prop


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, interleaved as written


class _Tee(io.StringIO):
    """A captured stream that also copies what it is given to `both`."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def run_cli(argv, env=None) -> CliResult:
    """`cli(argv)` in this process, with stdout and stderr captured and the
    variables in `env` set: its exit code and what it wrote.  Any exception
    but SystemExit propagates."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code = 0
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        try:
            cli(list(argv))
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue())


def invoke(*args, env=None):
    return run_cli(args, env)


class TestEval:
    def test_contradiction_witness_prints_half(self):
        r = invoke("eval", "--algebra", "ps3", "--assignment", "pa",
                   "--rank", "2", "exists x. exists y. (x in y /\\ ~(x in y))")
        assert r.exit_code == 0
        assert r.output.strip() == "half"

    def test_ba_assignment(self):
        r = invoke("eval", "-a", "ps3", "--assignment", "ba",
                   "--rank", "2", "forall x. x = x")
        assert r.exit_code == 0
        assert r.output.strip() == "1"

    def test_ad_hoc_names(self):
        # {#1: half} is not in the rank-2 enumeration, so it lands on id 4.
        r = invoke("eval", "-a", "ps3", "--rank", "2",
                   "--name", "{#1: half}", "#1 in #4")
        assert r.exit_code == 0
        assert r.output.strip().splitlines()[-1] == "half"

    def test_syntax_error_exits_2(self):
        r = invoke("eval", "-a", "ps3", "x = ")
        assert r.exit_code == 2

    def test_unknown_algebra_exits_2(self):
        r = invoke("eval", "-a", "chainZ", "true")
        assert r.exit_code == 2

    def test_more_than_255_elements(self):
        # element indices past one byte: the atomic store widens its item type
        r = invoke("eval", "forall x. x = x", "-a", "chain300")
        assert r.exit_code == 0
        assert r.output.strip() == "1"

    @pytest.mark.parametrize("text", ["~" * 3000 + "#0 = #0",
                                      "(" * 3000 + "#0 = #0" + ")" * 3000])
    def test_deep_nesting_exits_2(self, text):
        r = invoke("eval", "-a", "ps3", text)
        assert r.exit_code == 2
        assert "nested deeper" in r.output and "Traceback" not in r.output


    def test_duplicate_name_key_exits_2(self):
        r = invoke("eval", "-a", "ps3", "--name", "{#0: half, #0: 1}", "true")
        assert r.exit_code == 2
        assert "duplicate key #0" in r.output

    @pytest.mark.parametrize("algebra", ["chain31", "chain40"])
    @pytest.mark.parametrize("element", ["|", "}", "~", "e31"])
    def test_name_literals_take_every_chain_element(self, algebra, element):
        # chain31's elements past `z` are `{`, `|` and `}`; chain40 has `~`
        # and `e31` too.  An element the algebra lacks is an input error.
        r = invoke("eval", "-a", algebra, "--name", f"{{#0: {element}}}", "#1 in #1")
        if element in builtin(algebra)[0].elements:
            assert r.exit_code == 0
            assert r.stderr.startswith("name #")
            assert r.stderr.endswith(f" = {{#0: {element}}}\n")
        else:
            assert r.exit_code == 2
            assert r.stderr == f"error: unknown element {element!r} of algebra {algebra}\n"


class TestStarlessAlgebra:
    """pa's equality factor needs a star table: on an algebra without one,
    every pa atom is an error, while ba and the checks that read no pa atom
    still run."""

    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        return _starless_file(tmp_path_factory.mktemp("alg"))

    @pytest.mark.parametrize("text", ["#1 = #2", "#1 in #2"])
    def test_pa_atoms_exit_2_naming_the_star_table(self, spec, text):
        r = invoke("eval", "-a", spec, "--rank", "2", text)
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == "error: the pa assignment needs a star table; bare3 has none\n"

    def test_pa_sentence_without_atoms(self, spec):
        r = invoke("eval", "-a", spec, "--rank", "2", "true")
        assert (r.exit_code, r.stdout) == (0, "1\n")

    @pytest.mark.parametrize("text, value", [("#1 = #2", "1"), ("#1 in #2", "0")])
    def test_ba_atoms(self, spec, text, value):
        r = invoke("eval", "-a", spec, "--rank", "2", "--assignment", "ba", text)
        assert (r.exit_code, r.stdout) == (0, value + "\n")

    def test_check_all(self, spec):
        r = invoke("check", "all", "-a", spec, "--rank", "2")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "4 passed, 0 failed, 12 skipped"


class TestAlgebraCheck:
    def test_ps3_passes(self):
        r = invoke("algebra", "check", "--algebra", "ps3")
        assert r.exit_code == 0
        assert "cobounded: true" in r.output
        assert "ultrafilter: true" in r.output

    def test_designated_override(self):
        r = invoke("algebra", "check", "-a", "chain4",
                   "--designated", "1,b")
        assert r.exit_code == 0
        assert "ultrafilter: false" in r.output

    def test_designated_override_names_chain_elements_past_the_letters(self):
        r = invoke("algebra", "check", "-a", "chain40",
                   "--designated", "~,e31,e32,e33,e34,e35,e36,e37,e38,1")
        assert r.exit_code == 0
        assert "designated: 1 e31 e32 e33 e34 e35 e36 e37 e38 ~\n" in r.output

    def test_non_filter_override_rejected(self):
        r = invoke("algebra", "check", "-a", "chain4",
                   "--designated", "b")
        assert r.exit_code == 2

    def test_file_algebra(self, tmp_path):
        alg, d = ps3()
        path = tmp_path / "core.alg"
        path.write_text(dumps_algebra(alg, d))
        r = invoke("algebra", "check", "--algebra", str(path))
        assert r.exit_code == 0
        assert "algebra: core" in r.output

    def test_defective_file_fails(self, tmp_path):
        alg, d = ps3()
        text = dumps_algebra(alg, d).replace("join half 1 1", "join half 1 half")
        path = tmp_path / "broken.alg"
        path.write_text(text)
        r = invoke("algebra", "check", "--algebra", str(path))
        assert r.exit_code == 1
        assert "lattice: false" in r.output

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_exits_2(self, tmp_path, case):
        path = tmp_path / "core.alg"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"elements \xff\xfe\n")
        r = invoke("algebra", "check", "-a", str(path))
        assert r.exit_code == 2
        assert "error: cannot read algebra file" in r.stderr

    @pytest.mark.parametrize("first,repeat", [("star 1 0", "star 1 1"),
                                              ("meet 1 1 1", "meet 1 1 0"),
                                              ("top 1", "top 1")])
    def test_repeated_line_exits_2(self, tmp_path, first, repeat):
        lines = dumps_algebra(*ps3()).splitlines() + [repeat]
        path = tmp_path / "core.alg"
        path.write_text("\n".join(lines) + "\n")
        r = invoke("algebra", "check", "-a", str(path))
        assert r.exit_code == 2
        assert r.stderr.startswith(f"error: line {len(lines)}: ")
        assert f"on line {lines.index(first) + 1}" in r.stderr


class TestUniverse:
    def test_level_sizes(self):
        r = invoke("universe", "build", "-a", "ps3", "--rank", "3")
        assert r.exit_code == 0
        assert "rank 3: 256 names" in r.output
        assert "total: 256 names" in r.output

    def test_budget_exceeded_exits_2(self):
        r = invoke("universe", "build", "-a", "ps3", "--rank", "4")
        assert r.exit_code == 2
        assert "rank 4" in r.output

    def test_a_count_past_printable_digits_exits_2(self):
        # 6^46656 candidates: more digits than an int may be printed with
        r = invoke("universe", "build", "-a", "chain5", "--rank", "4")
        assert r.exit_code == 2
        assert r.output.startswith("error:") and "about 10^36305" in r.output

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_no_rank_up_to_5_prints_a_traceback(self, name):
        for rank in range(1, 6):
            r = run_cli(["universe", "build", "-a", name, "--rank", str(rank)])
            assert r.exit_code in (0, 2), (rank, r.output)
            assert "Traceback" not in r.output, rank


class TestCheckCommand:
    def test_all_on_ps3(self):
        r = invoke("check", "all", "-a", "ps3", "--rank", "2")
        assert r.exit_code == 0
        assert "0 failed" in r.output

    def test_named_selection(self):
        r = invoke("check", "drim", "cobounded", "-a", "bool4")
        assert r.exit_code == 0
        assert "[PASS] drim" in r.output

    def test_list(self):
        r = invoke("check", "--list")
        assert r.exit_code == 0
        for name in ("zfbar-witnesses", "leibniz", "quotient",
                     "prop-agreement", "boolean-coincidence"):
            assert name in r.output

    def test_names_may_follow_options(self):
        r = invoke("check", "drim", "-a", "bool4", "cobounded")
        assert r.exit_code == 0
        assert "[PASS] drim" in r.output and "[PASS] cobounded" in r.output
        # a command with no list of names takes no stray argument
        r = invoke("eval", "-a", "ps3", "true", "false")
        assert r.exit_code == 2 and "unrecognized arguments: false" in r.stderr
        assert r.stderr.startswith("usage: algval eval ")

    def test_unknown_name_exits_2(self):
        r = invoke("check", "mystery", "-a", "ps3")
        assert r.exit_code == 2

    def test_negative_budget_exits_2(self):
        r = invoke("check", "drim", "-a", "ps3", "--budget", "-1")
        assert r.exit_code == 2
        assert "--budget" in r.output

    @pytest.mark.parametrize("name,rank", [("drim", "0"), ("drim", "-1"),
                                           ("two-valued", "0")])
    def test_rank_below_one_exits_2(self, name, rank):
        r = invoke("check", name, "-a", "ps3", "--rank", rank)
        assert r.exit_code == 2
        assert "--rank" in r.output

    def test_records_are_json_lines(self):
        r = invoke("check", "drim", "-a", "ps3", "--format", "records")
        assert r.exit_code == 0
        payload = json.loads(r.output.strip())
        assert payload["check"] == "drim"
        assert payload["verdict"] == "pass"

    def test_failing_check_exits_1(self, tmp_path):
        alg, d = ps3()
        text = dumps_algebra(alg, d).replace("join half 1 1", "join half 1 half")
        path = tmp_path / "broken.alg"
        path.write_text(text)
        r = invoke("check", "algebra-laws", "-a", str(path))
        assert r.exit_code == 1
        assert "FAIL" in r.output
        assert "counterexample" in r.output


class TestQuotientExport:
    def test_stdout(self):
        r = invoke("quotient", "export", "-a", "ps3", "--rank", "2")
        assert r.exit_code == 0
        assert "class [0] = #0 #3" in r.output
        assert "mem [0] [2]" in r.output
        assert "nmem [0] [2]" in r.output

    def test_file_output(self, tmp_path):
        out = tmp_path / "relations.txt"
        r = invoke("quotient", "export", "-a", "ps3", "--rank", "2",
                   "--out", str(out))
        assert r.exit_code == 0
        assert out.read_text().startswith("class [0]")

    @pytest.mark.parametrize("case", ["ps3-designated-1", "file-designated-0", "bool4"])
    def test_outside_the_quotient_class_exits_2(self, tmp_path, case):
        path = tmp_path / "bottom.alg"
        path.write_text(dumps_algebra(ps3()[0], {"0"}))
        args = {"ps3-designated-1": ["-a", "ps3", "--designated", "1"],
                "file-designated-0": ["-a", str(path)], "bool4": ["-a", "bool4"]}[case]
        r = invoke("quotient", "export", *args)
        assert r.exit_code == 2
        assert r.stderr == "error: needs an ultra-designated cobounded algebra\n"
        assert "class" not in r.stdout

    def test_unwritable_out_exits_2(self, tmp_path):
        out = tmp_path / "missing-dir" / "relations.txt"
        r = invoke("quotient", "export", "-a", "ps3", "--rank", "2",
                   "--out", str(out))
        assert r.exit_code == 2
        assert "error:" in r.stderr and str(out) in r.stderr


class TestLogic:
    def test_taut_rejects_explosion_on_ps3(self):
        r = invoke("logic", "taut", "--algebra", "ps3", "(p /\\ ~p) -> q")
        assert r.exit_code == 1
        assert "falsified by: p=half q=0" in r.output

    def test_taut_accepts_on_bool2(self):
        r = invoke("logic", "taut", "-a", "bool2", "(p /\\ ~p) -> q")
        assert r.exit_code == 0
        assert "valid" in r.output

    @pytest.mark.parametrize("text", ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000])
    def test_taut_deep_nesting_exits_2(self, text):
        r = invoke("logic", "taut", "-a", "ps3", text)
        assert r.exit_code == 2
        assert "nested deeper" in r.output and "Traceback" not in r.output

    def test_para(self):
        r = invoke("logic", "para", "-a", "chain4")
        assert r.exit_code == 0
        assert "[PASS]" in r.output

    def test_agree(self):
        r = invoke("logic", "agree", "-a", "chain5")
        assert r.exit_code == 0

    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_agree_rejects_empty_corpus(self, size):
        # the corpus is enumerated, so no corpus size is accepted at all
        r = invoke("logic", "agree", "-a", "chain5", "--corpus-size", size)
        assert r.exit_code == 2
        assert "--corpus-size" in r.output

    @pytest.mark.parametrize("args", [
        ("logic", "agree", "--seed", "1"),
        ("quotient", "export", "--seed", "1"),
    ], ids=["agree-seed", "export-seed"])
    def test_removed_options_exit_2(self, args):
        # the corpus is enumerated and nothing is sampled, so these
        # commands take neither a corpus size nor a seed
        r = invoke(*args)
        assert r.exit_code == 2
        assert "unrecognized arguments" in r.output and "Traceback" not in r.output


class TestEnvironmentOverrides:
    def test_algebra_from_env(self):
        r = invoke("universe", "build", "--rank", "2",
                   env={"ALGVAL_ALGEBRA": "chain4"})
        assert r.exit_code == 0
        assert "rank 2: 5 names" in r.output

    def test_rank_from_env(self):
        r = invoke("universe", "build", "-a", "ps3",
                   env={"ALGVAL_RANK": "3"})
        assert r.exit_code == 0
        assert "total: 256 names" in r.output

    @pytest.mark.parametrize("variable,value,argv", [
        ("ALGVAL_FORMAT", "bogus", ["check", "drim"]),
        ("ALGVAL_RANK", "0", ["check", "drim"]),
        ("ALGVAL_BUDGET", "abc", ["universe", "build"]),
        ("ALGVAL_ASSIGNMENT", "xa", ["eval", "true"])])
    def test_a_bad_variable_exits_2_naming_its_option(self, variable, value, argv):
        option = "--" + variable.removeprefix("ALGVAL_").lower()
        r = run_cli(argv, env={variable: value})
        assert r.exit_code == 2 and r.stdout == ""
        assert f"argument {option}: " in r.stderr and "Traceback" not in r.stderr
        # a flag on the command line takes the place of the variable
        given = {"--format": "text", "--rank": "1", "--budget": "9", "--assignment": "ba"}
        assert run_cli(argv + [option, given[option]], env={variable: value}).exit_code == 0

    @pytest.mark.parametrize("variable,value,option", [("ALGVAL_FORMAT", "bogus", "--format"),
                                                       ("ALGVAL_RANK", "0", "--rank"),
                                                       ("ALGVAL_BUDGET", "abc", "--budget")])
    def test_a_bad_variable_exits_2_in_a_process(self, variable, value, option):
        r = subprocess.run([sys.executable, "-m", "algval.cli", "check", "drim"],
                           env={**process_env(), variable: value}, capture_output=True,
                           text=True, timeout=120)
        assert (r.returncode, r.stdout) == (2, "")
        assert f"argument {option}: " in r.stderr and "Traceback" not in r.stderr

    def test_no_variable_for_undeclared_options(self):
        # Only the options that declare an envvar read one; `--list` does not.
        env = dict(process_env(), ALGVAL_CHECK_LIST_CHECKS="1")
        r = subprocess.run([sys.executable, "-m", "algval.cli", "check", "drim"],
                           env=env, capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert "[PASS] drim" in r.stdout
        assert "zfbar-witnesses" not in r.stdout


def process_env() -> dict:
    """The environment of a CLI process: this checkout's sources first, no
    ALGVAL_ variables."""
    src = os.path.dirname(os.path.dirname(algval.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALGVAL_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_process(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m algval.cli` with args, through `main()`, which `run_cli`
    never reaches."""
    kwargs.setdefault("capture_output", "stdout" not in kwargs)
    return subprocess.run([sys.executable, "-m", "algval.cli", *args], env=process_env(),
                          text=True, timeout=300, **kwargs)


def _broken_file(directory) -> str:
    alg, d = ps3()
    path = directory / "broken.alg"
    path.write_text(dumps_algebra(alg, d).replace("join half 1 1", "join half 1 half"))
    return str(path)


class TestProcessExit:
    """The exit-code contract and the output through a real process."""

    @pytest.mark.parametrize("case,code", [("pass", 0), ("fail", 1), ("unknown-algebra", 2),
                                           ("bad-option", 2), ("help", 0)])
    def test_exit_code(self, tmp_path, case, code):
        args = {"pass": ["check", "drim"],
                "fail": ["check", "algebra-laws", "-a", _broken_file(tmp_path)],
                "unknown-algebra": ["check", "all", "-a", "chainZ"],
                "bad-option": ["check", "drim", "--bogus"],
                "help": ["--help"]}[case]
        r = run_process(*args)
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        assert run_cli(args).exit_code == code
        if case == "help":
            assert "usage:" in r.stdout

    def test_a_chain_past_the_cap_exits_2_before_building_it(self):
        # under a 512 MB address space, which building chain100000 would exceed
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        args = ["check", "two-valued", "-a", "chain100000"]
        error = (f"error: a chain has at most {CHAIN_MAX} elements, not 100000: "
                 "its tables grow with the square of its size\n")
        r = run_process(*args, preexec_fn=limit)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", error)
        r = run_cli(args)
        assert (r.exit_code, r.output) == (2, error)

    def test_filter_error_is_the_same_under_every_hash_seed(self):
        # the witness is found in carrier order, not in the order of a set of strings
        errors = set()
        for seed in "1234":
            r = subprocess.run([sys.executable, "-m", "algval.cli", "algebra", "check", "-a",
                                "chain6", "--designated", "1,b,a"],
                               env={**process_env(), "PYTHONHASHSEED": seed},
                               capture_output=True, text=True, timeout=300)
            assert r.returncode == 2, r.stderr
            errors.add(r.stderr)
        assert errors == {"error: designated set ['1', 'a', 'b'] is not a filter: "
                          "('not-upward-closed', 'a', 'c')\n"}

    @pytest.mark.parametrize("args", [["check", "all", "-a", "chain4"],
                                      ["check", "algebra-laws", "-a", "BROKEN"]])
    def test_records_in_a_file_equal_the_runner(self, tmp_path, args):
        args = [_broken_file(tmp_path) if a == "BROKEN" else a for a in args]
        args += ["--format", "records"]
        out = tmp_path / "records"
        with open(out, "w", encoding="utf-8") as fh:
            r = run_process(*args, stdout=fh, stderr=subprocess.PIPE)
        expected = run_cli(args)
        assert r.returncode == expected.exit_code
        assert out.read_text(encoding="utf-8") == expected.stdout

    def test_a_reader_that_closes_the_pipe_leaves_no_traceback(self):
        p = subprocess.Popen([sys.executable, "-m", "algval.cli", "check", "all", "-a", "ps3",
                              "--format", "records"], env=process_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert p.stdout.readline().startswith(b'{"check": "algebra-laws"')
            p.stdout.close()
            err = p.stderr.read().decode()
        finally:
            p.wait(timeout=120)
            p.stderr.close()
        assert "Traceback" not in err and "Exception ignored" not in err, err

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_check_all_at_ranks_1_and_4(self, name):
        for rank in ("1", "4"):
            r = run_process("check", "all", "-a", name, "--rank", rank, "--format", "records")
            assert r.returncode in (0, 2), (rank, r.stderr)
            assert "Traceback" not in r.stderr, rank
            if rank == "4":
                reasons = [json.loads(line)["skip_reason"] for line in r.stdout.splitlines()]
                assert any(x and x.startswith("budget exceeded") for x in reasons)

    # chain5 at rank 3 (46,656 names) passes, but takes about 12 s of CPU
    @pytest.mark.parametrize("name, rank", [(name, rank) for name in BUILTIN_NAMES
                                            for rank in ("2", "3", "5")
                                            if (name, rank) != ("chain5", "3")])
    def test_check_all_at_ranks_2_3_and_5(self, name, rank):
        r = run_process("check", "all", "-a", name, "--rank", rank, "--format", "records")
        assert r.returncode in (0, 2), r.stderr
        assert "Traceback" not in r.stderr


class TestBuiltinSweep:
    @pytest.mark.parametrize("name", ["bool2", "bool4", "chain3", "chain6",
                                      "stretch-bool4"])
    def test_check_all_exits_zero(self, name):
        r = invoke("check", "all", "-a", name, "--rank", "2")
        assert r.exit_code == 0, r.output

    def test_agree_full_corpus_on_chain5(self):
        r = invoke("logic", "agree", "-a", "chain5", "--format", "records")
        assert r.exit_code == 0
        assert '"corpus": 771' in r.output

    def test_check_ignores_seed(self):
        plain = invoke("check", "nff-transfer", "quotient", "-a", "chain4",
                       "--format", "records")
        seeded = invoke("check", "nff-transfer", "quotient", "-a", "chain4",
                        "--seed", "7", "--format", "records")
        assert plain.exit_code == seeded.exit_code == 0
        assert plain.output == seeded.output

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_check_all_at_rank_1_exits_zero(self, name):
        # the checks whose witnesses need a second rank skip, naming it
        r = invoke("check", "all", "-a", name, "--rank", "1")
        assert r.exit_code == 0, r.output
        assert "[FAIL]" not in r.output


# -- fuzzing `logic taut` ------------------------------------------------------------

def _starless_file(directory) -> str:
    alg, d = ps3()
    es = alg.elements
    bare = Algebra("bare3", es,
                   {(a, b): alg.meet(a, b) for a in es for b in es},
                   {(a, b): alg.join(a, b) for a in es for b in es},
                   {(a, b): alg.imp(a, b) for a in es for b in es}, "1", "0")
    path = directory / "bare3.alg"
    path.write_text(dumps_algebra(bare, d))
    return str(path)


@pytest.fixture(scope="module")
def taut_algebras(tmp_path_factory):
    """(CLI spec, algebra, designated ids) for ps3, chain4 and a starless algebra."""
    path = _starless_file(tmp_path_factory.mktemp("alg"))
    out = []
    for spec, (alg, d) in (("ps3", builtin("ps3")), ("chain4", builtin("chain4")),
                           (path, load_algebra(path))):
        assert (alg.star_t is None) == (spec == path)
        out.append((spec, alg, frozenset(alg.index[x] for x in d)))
    return out


def _reference_value(alg, f, valuation: dict) -> int:
    """Per-valuation recursive evaluation, written apart from the engine."""
    if isinstance(f, PVar):
        return valuation[f.name]
    if isinstance(f, Top):
        return alg.top_i
    if isinstance(f, Bot):
        return alg.bottom_i
    if isinstance(f, Not):
        return alg.star_t[_reference_value(alg, f.body, valuation)]
    table = {And: alg.meet_t, Or: alg.join_t, Imp: alg.imp_t}[type(f)]
    return table[_reference_value(alg, f.left, valuation)][
        _reference_value(alg, f.right, valuation)]


def _expected_taut(alg, designated_i, text: str) -> tuple[int, str]:
    """(exit code, the line to find in the output) for `logic taut`."""
    try:
        f = parse_prop(text)
    except InputError:
        return 2, "error:"
    variables = sorted({n.name for n in _prop_nodes(f) if isinstance(n, PVar)})
    if len(alg.elements) ** len(variables) > MAX_VALUATIONS:
        return 2, "valuations"
    if alg.star_t is None and any(isinstance(n, Not) for n in _prop_nodes(f)):
        return 2, "star"
    for combo in itertools.product(range(len(alg.elements)), repeat=len(variables)):
        valuation = dict(zip(variables, combo))
        if _reference_value(alg, f, valuation) not in designated_i:
            parts = " ".join(f"{v}={alg.elements[i]}" for v, i in valuation.items())
            return 1, f"falsified by: {parts}"
    return 0, "valid"


def _prop_nodes(f):
    yield f
    if isinstance(f, Not):
        yield from _prop_nodes(f.body)
    elif isinstance(f, (And, Or, Imp)):
        yield from _prop_nodes(f.left)
        yield from _prop_nodes(f.right)


_prop_trees = st.recursive(
    st.one_of(st.sampled_from([PVar(v) for v in ("p", "q", "r", "s")]),
              st.just(Top()), st.just(Bot())),
    lambda kids: st.one_of(st.builds(And, kids, kids), st.builds(Or, kids, kids),
                           st.builds(Imp, kids, kids), st.builds(Not, kids)),
    max_leaves=12)

# Formula-like text: the grammar's tokens, sentence syntax and stray characters.
_prop_text = st.lists(
    st.sampled_from(["p", "q", "r", "p1", "x_2", "~", "/\\", "\\/", "->", "<->",
                     "(", ")", "true", "false", "forall", "in", "=", "#0", ".",
                     " ", "-", "/", "\\", "<", "!", "é", "\t"]),
    max_size=14).map("".join)

_taut_settings = settings(max_examples=120, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLogicTautFuzz:
    """`logic taut` exits 0, 1 or 2 without a traceback on any input, and its
    verdict and falsifier match a per-valuation reference."""

    def _check(self, taut_algebras, which: int, text: str):
        spec, alg, designated_i = taut_algebras[which]
        r = run_cli(["logic", "taut", "-a", spec, "--", text])
        assert r.exit_code in (0, 1, 2)
        assert "Traceback" not in r.stderr
        code, line = _expected_taut(alg, designated_i, text)
        assert r.exit_code == code, (spec, text, r.output)
        shown = r.stderr if code == 2 else r.stdout
        assert line in shown, (spec, text, r.output)

    @_taut_settings
    @given(which=st.integers(0, 2), text=_prop_text)
    def test_random_text(self, taut_algebras, which, text):
        self._check(taut_algebras, which, text)

    @_taut_settings
    @given(which=st.integers(0, 2), tree=_prop_trees)
    def test_generated_trees(self, taut_algebras, which, tree):
        self._check(taut_algebras, which, print_prop(tree))

    def test_valuation_cap_comes_before_the_missing_star(self, taut_algebras):
        spec, alg, designated_i = taut_algebras[2]
        text = " /\\ ".join(f"~p{i}" for i in range(12))  # 3**12 valuations
        r = run_cli(["logic", "taut", "-a", spec, "--", text])
        assert r.exit_code == 2 and "valuations" in r.stderr


# -- fuzzing `eval` ------------------------------------------------------------------

# Random token text, and sentences from the grammar that bind x and y most of
# the time; the names #4 and #5 exist only when `--name` literals intern them.
_eval_tokens = st.lists(
    st.sampled_from(["forall x.", "exists y.", "x", "y", "#0", "#4", "#9", "in", "=",
                     "~", "/\\", "\\/", "->", "<->", "(", ")", "true", "false", ".",
                     "#", "é", "\t", " "]),
    max_size=12).map("".join)
_eval_terms = st.sampled_from(["x", "y", "x", "y", "#0", "#1", "#3", "#4", "#5"])
_eval_sentences = st.recursive(
    st.builds("{} {} {}".format, _eval_terms, st.sampled_from(["in", "="]), _eval_terms),
    lambda kids: st.one_of(
        st.builds("~({})".format, kids),
        st.builds("({} {} {})".format, kids, st.sampled_from(["/\\", "\\/", "->", "<->"]),
                  kids),
        st.builds("{} {}. ({})".format, st.sampled_from(["forall", "exists"]),
                  st.sampled_from(["x", "y"]), kids)),
    max_leaves=5).flatmap(lambda f: st.sampled_from([f, f"forall x. exists y. ({f})"]))
_eval_text = st.one_of(_eval_tokens, _eval_sentences)

# well-formed literals, some naming an unknown id, element or a key twice
_literal_names = st.sampled_from(["{}", "{#0: half}", "{#1: 1, #0: 0}", "{#3: half, #2: one}",
                                  "{#4: 1}", "{#9: half}", "{#0: 7}", "{#1: 1, #1: 0}"])
_junk_names = st.lists(st.sampled_from(["{", "}", "#0", "#1", "#4", "#9", ":", ",", " ",
                                        "half", "1", "0", "one", "b", "#", "é"]),
                       max_size=8).map("".join)
_name_lists = st.one_of(st.lists(_literal_names, max_size=2),
                        st.lists(st.one_of(_literal_names, _junk_names), min_size=1, max_size=2))


class TestEvalFuzz:
    """`eval` on ps3 at rank 2 exits 0 with an element, or 2 with an error
    line, and never with a traceback, whatever the formula and names."""

    @_taut_settings
    @given(text=_eval_text, names=_name_lists)
    def test_random_text_and_names(self, text, names):
        args = ["eval", "-a", "ps3", "--rank", "2"]
        for literal in names:
            args += ["--name", literal]
        r = run_cli(args + ["--", text])
        assert r.exit_code in (0, 2), (names, text, r.output)
        assert "Traceback" not in r.stderr
        if r.exit_code == 0:
            assert r.stdout.splitlines()[-1] in ps3()[0].elements
        else:
            assert "error:" in r.stderr, (names, text, r.output)


# -- fuzzing algebra files -----------------------------------------------------------

# no builtin element or alias (one, zero, top, bottom) is spelt with these letters
_fresh_ids = st.text(alphabet="qwxyz_", min_size=1, max_size=5)


class TestAlgebraFileFuzz:
    """A builtin's algebra file with one line deleted, one line repeated (as
    it is or with another last token) or one token replaced by a fresh
    identifier is bad input: `algebra check` and `check drim` exit 2 with an
    error line and no traceback."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(BUILTIN_NAMES),
           kind=st.sampled_from(["delete", "repeat", "repeat-changed", "replace"]),
           fresh=_fresh_ids, data=st.data())
    def test_one_mutation(self, tmp_path, name, kind, fresh, data):
        alg, d = builtin(name)
        assert fresh not in alg.index
        lines = dumps_algebra(alg, d).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if kind == "delete":
            del lines[i]
        elif kind == "replace":
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = fresh
            lines[i] = " ".join(tokens)
        else:
            if kind == "repeat-changed":
                tokens[-1] = data.draw(st.sampled_from([*alg.elements, fresh]))
            lines.insert(data.draw(st.integers(0, len(lines))), " ".join(tokens))
        path = tmp_path / f"{name}.alg"
        path.write_text("\n".join(lines) + "\n")
        for args in (["algebra", "check"], ["check", "drim"]):
            r = run_cli(args + ["-a", str(path)])
            assert r.exit_code == 2, (args, lines, r.output)
            assert r.stderr.startswith("error:")
            assert "Traceback" not in r.stderr
