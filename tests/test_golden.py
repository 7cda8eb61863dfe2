"""Check records byte for byte against golden copies.

Each `golden/rank2-<name>.records` is the output of

    algval check all -a <name> --rank 2 --format records

for a builtin, and `golden/rank3-ps3.records` that of

    algval check all -a ps3 --rank 3 --format records

both with the default seed.  A change that is meant to alter a record must
regenerate the file with that command and say why; any other difference is
a regression.
"""

from pathlib import Path

import pytest

from algval.algebra import BUILTIN_NAMES, builtin
from algval.theorems import run_all

GOLDEN = Path(__file__).parent / "golden"


def records(name, rank_bound):
    alg, d = builtin(name)
    return "".join(r.record_line() + "\n" for r in run_all(alg, d, rank_bound=rank_bound))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rank2_records_match_golden(name):
    assert records(name, 2) == (GOLDEN / f"rank2-{name}.records").read_text(encoding="utf-8")


def test_rank3_ps3_records_match_golden():
    assert records("ps3", 3) == (GOLDEN / "rank3-ps3.records").read_text(encoding="utf-8")
