"""Check records byte for byte against golden copies.

Each `golden/rank2-<name>.records` is the output of

    algval check all -a <name> --rank 2 --format records

for a builtin, and each `golden/rank3-<name>.records` (ps3, bool4, chain3,
chain4 and chain5) that of

    algval check all -a <name> --rank 3 --format records

A change that is meant to alter a record must regenerate the file with
that command and say why; any other difference is a regression.  No check
reads the seed that `run_all` still accepts, so the records must not
depend on it.
"""

from pathlib import Path

import pytest

from algval.algebra import BUILTIN_NAMES, builtin
from algval.theorems import run_all

GOLDEN = Path(__file__).parent / "golden"


def records(name, rank_bound, seed=0):
    alg, d = builtin(name)
    return "".join(r.record_line() + "\n"
                   for r in run_all(alg, d, rank_bound=rank_bound, seed=seed))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rank2_records_match_golden(name):
    assert records(name, 2) == (GOLDEN / f"rank2-{name}.records").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rank2_records_do_not_depend_on_the_seed(name):
    # seed 0 is the default that the test above compares
    assert records(name, 2, seed=7) == (GOLDEN / f"rank2-{name}.records").read_text(
        encoding="utf-8")


def test_rank3_ps3_records_match_golden():
    assert records("ps3", 3) == (GOLDEN / "rank3-ps3.records").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["bool4", "chain3", "chain4", "chain5"])
def test_rank3_records_match_golden(name):
    assert records(name, 3) == (GOLDEN / f"rank3-{name}.records").read_text(encoding="utf-8")
