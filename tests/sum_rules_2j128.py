"""Exact CG and 3-jm sum rules at the advertised limit 2j = 128.

The rules of test_standard_wra.py's TestExactSumRules, on the edge triads of
64 x 64 and 64 x 1/2, summed in Fraction from the tensors' exact kernel; the
row rule runs over every triad of both pairs. They take about ten seconds,
so the default run does not collect this module (its name does not start
with test_). Run it by name:

    python -m pytest -q tests/sum_rules_2j128.py
"""

from fractions import Fraction

import pytest

from test_standard_wra import cg_column_sums, cg_row_sums, threejm_column_sums

PAIRS = [(128, 128, (0, 2, 64, 128, 256)), (128, 1, (127, 129))]


@pytest.mark.parametrize("tj1, tj2, tjs", PAIRS, ids=["64x64", "64x1/2"])
def test_cg_columns_and_rows(tj1, tj2, tjs):
    for tj in tjs:
        assert cg_column_sums(tj1, tj2, tj) == [1] * (tj + 1), tj
    assert cg_row_sums(tj1, tj2) == [[1] * (tj2 + 1)] * (tj1 + 1)


@pytest.mark.parametrize("tj1, tj2, tjs", PAIRS, ids=["64x64", "64x1/2"])
def test_threejm_columns(tj1, tj2, tjs):
    for tj3 in tjs:
        assert threejm_column_sums(tj1, tj2, tj3) == [Fraction(1, tj3 + 1)] * (tj3 + 1), tj3
