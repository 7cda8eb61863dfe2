"""Rank-2 check records of every builtin, byte for byte against golden copies.

Each file under `golden/` is the output of

    algval check all -a <name> --rank 2 --format records

with the default seed.  A change that is meant to alter a record must
regenerate the file with that command and say why; any other difference is
a regression.
"""

from pathlib import Path

import pytest

from algval.algebra import BUILTIN_NAMES, builtin
from algval.theorems import run_all

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rank2_records_match_golden(name):
    alg, d = builtin(name)
    got = "".join(r.record_line() + "\n" for r in run_all(alg, d, rank_bound=2))
    assert got == (GOLDEN / f"rank2-{name}.records").read_text(encoding="utf-8")
