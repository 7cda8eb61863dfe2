import json

import pytest
from click.testing import CliRunner

from algval.algebra import dumps_algebra, ps3
from algval.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli, list(args), env=env or {}, catch_exceptions=False)


class TestEval:
    def test_contradiction_witness_prints_half(self, runner):
        r = invoke(runner, "eval", "--algebra", "ps3", "--assignment", "pa",
                   "--rank", "2", "exists x. exists y. (x in y /\\ ~(x in y))")
        assert r.exit_code == 0
        assert r.output.strip() == "half"

    def test_ba_assignment(self, runner):
        r = invoke(runner, "eval", "-a", "ps3", "--assignment", "ba",
                   "--rank", "2", "forall x. x = x")
        assert r.exit_code == 0
        assert r.output.strip() == "1"

    def test_ad_hoc_names(self, runner):
        # {#1: half} is not in the rank-2 enumeration, so it lands on id 4.
        r = invoke(runner, "eval", "-a", "ps3", "--rank", "2",
                   "--name", "{#1: half}", "#1 in #4")
        assert r.exit_code == 0
        assert r.output.strip().splitlines()[-1] == "half"

    def test_syntax_error_exits_2(self, runner):
        r = invoke(runner, "eval", "-a", "ps3", "x = ")
        assert r.exit_code == 2

    def test_unknown_algebra_exits_2(self, runner):
        r = invoke(runner, "eval", "-a", "chainZ", "true")
        assert r.exit_code == 2

    @pytest.mark.parametrize("text", ["~" * 3000 + "#0 = #0",
                                      "(" * 3000 + "#0 = #0" + ")" * 3000])
    def test_deep_nesting_exits_2(self, runner, text):
        r = invoke(runner, "eval", "-a", "ps3", text)
        assert r.exit_code == 2
        assert "nested deeper" in r.output and "Traceback" not in r.output


    def test_duplicate_name_key_exits_2(self, runner):
        r = invoke(runner, "eval", "-a", "ps3", "--name", "{#0: half, #0: 1}", "true")
        assert r.exit_code == 2
        assert "duplicate key #0" in r.output


class TestAlgebraCheck:
    def test_ps3_passes(self, runner):
        r = invoke(runner, "algebra", "check", "--algebra", "ps3")
        assert r.exit_code == 0
        assert "cobounded: true" in r.output
        assert "ultrafilter: true" in r.output

    def test_designated_override(self, runner):
        r = invoke(runner, "algebra", "check", "-a", "chain4",
                   "--designated", "1,b")
        assert r.exit_code == 0
        assert "ultrafilter: false" in r.output

    def test_non_filter_override_rejected(self, runner):
        r = invoke(runner, "algebra", "check", "-a", "chain4",
                   "--designated", "b")
        assert r.exit_code == 2

    def test_file_algebra(self, runner, tmp_path):
        alg, d = ps3()
        path = tmp_path / "core.alg"
        path.write_text(dumps_algebra(alg, d))
        r = invoke(runner, "algebra", "check", "--algebra", str(path))
        assert r.exit_code == 0
        assert "algebra: core" in r.output

    def test_defective_file_fails(self, runner, tmp_path):
        alg, d = ps3()
        text = dumps_algebra(alg, d).replace("join half 1 1", "join half 1 half")
        path = tmp_path / "broken.alg"
        path.write_text(text)
        r = invoke(runner, "algebra", "check", "--algebra", str(path))
        assert r.exit_code == 1
        assert "lattice: false" in r.output


class TestUniverse:
    def test_level_sizes(self, runner):
        r = invoke(runner, "universe", "build", "-a", "ps3", "--rank", "3")
        assert r.exit_code == 0
        assert "rank 3: 256 names" in r.output
        assert "total: 256 names" in r.output

    def test_budget_exceeded_exits_2(self, runner):
        r = invoke(runner, "universe", "build", "-a", "ps3", "--rank", "4")
        assert r.exit_code == 2
        assert "rank 4" in r.output


class TestCheckCommand:
    def test_all_on_ps3(self, runner):
        r = invoke(runner, "check", "all", "-a", "ps3", "--rank", "2")
        assert r.exit_code == 0
        assert "0 failed" in r.output

    def test_named_selection(self, runner):
        r = invoke(runner, "check", "drim", "cobounded", "-a", "bool4")
        assert r.exit_code == 0
        assert "[PASS] drim" in r.output

    def test_list(self, runner):
        r = invoke(runner, "check", "--list")
        assert r.exit_code == 0
        for name in ("zfbar-witnesses", "leibniz", "quotient",
                     "prop-agreement", "boolean-coincidence"):
            assert name in r.output

    def test_unknown_name_exits_2(self, runner):
        r = invoke(runner, "check", "mystery", "-a", "ps3")
        assert r.exit_code == 2

    def test_negative_budget_exits_2(self, runner):
        r = invoke(runner, "check", "drim", "-a", "ps3", "--budget", "-1")
        assert r.exit_code == 2
        assert "--budget" in r.output

    @pytest.mark.parametrize("name,rank", [("drim", "0"), ("drim", "-1"),
                                           ("two-valued", "0")])
    def test_rank_below_one_exits_2(self, runner, name, rank):
        r = invoke(runner, "check", name, "-a", "ps3", "--rank", rank)
        assert r.exit_code == 2
        assert "--rank" in r.output

    def test_records_are_json_lines(self, runner):
        r = invoke(runner, "check", "drim", "-a", "ps3", "--format", "records")
        assert r.exit_code == 0
        payload = json.loads(r.output.strip())
        assert payload["check"] == "drim"
        assert payload["verdict"] == "pass"

    def test_failing_check_exits_1(self, runner, tmp_path):
        alg, d = ps3()
        text = dumps_algebra(alg, d).replace("join half 1 1", "join half 1 half")
        path = tmp_path / "broken.alg"
        path.write_text(text)
        r = invoke(runner, "check", "algebra-laws", "-a", str(path))
        assert r.exit_code == 1
        assert "FAIL" in r.output
        assert "counterexample" in r.output


class TestQuotientExport:
    def test_stdout(self, runner):
        r = invoke(runner, "quotient", "export", "-a", "ps3", "--rank", "2")
        assert r.exit_code == 0
        assert "class [0] = #0 #3" in r.output
        assert "mem [0] [2]" in r.output
        assert "nmem [0] [2]" in r.output

    def test_file_output(self, runner, tmp_path):
        out = tmp_path / "relations.txt"
        r = invoke(runner, "quotient", "export", "-a", "ps3", "--rank", "2",
                   "--out", str(out))
        assert r.exit_code == 0
        assert out.read_text().startswith("class [0]")


class TestLogic:
    def test_taut_rejects_explosion_on_ps3(self, runner):
        r = invoke(runner, "logic", "taut", "--algebra", "ps3", "(p /\\ ~p) -> q")
        assert r.exit_code == 1
        assert "falsified by: p=half q=0" in r.output

    def test_taut_accepts_on_bool2(self, runner):
        r = invoke(runner, "logic", "taut", "-a", "bool2", "(p /\\ ~p) -> q")
        assert r.exit_code == 0
        assert "valid" in r.output

    @pytest.mark.parametrize("text", ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000])
    def test_taut_deep_nesting_exits_2(self, runner, text):
        r = invoke(runner, "logic", "taut", "-a", "ps3", text)
        assert r.exit_code == 2
        assert "nested deeper" in r.output and "Traceback" not in r.output

    def test_para(self, runner):
        r = invoke(runner, "logic", "para", "-a", "chain4")
        assert r.exit_code == 0
        assert "[PASS]" in r.output

    def test_agree(self, runner):
        r = invoke(runner, "logic", "agree", "-a", "chain5",
                   "--corpus-size", "40", "--seed", "1")
        assert r.exit_code == 0


    @pytest.mark.parametrize("size", ["-3", "0"])
    def test_agree_rejects_empty_corpus(self, runner, size):
        r = invoke(runner, "logic", "agree", "-a", "chain5", "--corpus-size", size)
        assert r.exit_code == 2
        assert "--corpus-size" in r.output


class TestEnvironmentOverrides:
    def test_algebra_from_env(self, runner):
        r = invoke(runner, "universe", "build", "--rank", "2",
                   env={"ALGVAL_ALGEBRA": "chain4"})
        assert r.exit_code == 0
        assert "rank 2: 5 names" in r.output

    def test_rank_from_env(self, runner):
        r = invoke(runner, "universe", "build", "-a", "ps3",
                   env={"ALGVAL_RANK": "3"})
        assert r.exit_code == 0
        assert "total: 256 names" in r.output


class TestBuiltinSweep:
    @pytest.mark.parametrize("name", ["bool2", "bool4", "chain3", "chain6",
                                      "stretch-bool4"])
    def test_check_all_exits_zero(self, runner, name):
        r = invoke(runner, "check", "all", "-a", name, "--rank", "2")
        assert r.exit_code == 0, r.output

    def test_agree_full_corpus_on_chain5(self, runner):
        r = invoke(runner, "logic", "agree", "-a", "chain5",
                   "--corpus-size", "500", "--seed", "0", "--format", "records")
        assert r.exit_code == 0
        assert '"corpus": 500' in r.output
