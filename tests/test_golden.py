"""The counts of the four built-in tables against the golden files in tests/golden/.

The rule and its tolerance for stagnating counts live in tests/golden.py,
which also rewrites the golden files and checks the k > 60 rows of tables 1
and 2 that this suite does not run.
"""

import pytest

import golden
from helmdd.coarse import COARSE_KINDS
from helmdd.harness import builtin_table


@pytest.mark.parametrize("which", golden.TABLES)
def test_counts_match_golden(which, table_rows):
    """Every pinned count equals its golden count; every flagged one lies
    within the tolerance of its golden count."""
    found = golden.mismatches(which, table_rows(which))
    assert not found, "\n".join(found)


def test_rule_pins_127_of_271_counts():
    """The rule pins all 48 counts of table 1, table 2's 24 HOCS counts, 34 of
    table 3's 85 and 21 of table 4's 90."""
    pinned, total = {}, {}
    for which in golden.TABLES:
        problem = builtin_table(which).problem
        cells = [
            (combo, float(g["kappa_H"]))
            for g in golden.golden_rows(which)
            for combo in g
            if combo.split("_")[0] in COARSE_KINDS
        ]
        total[which] = len(cells)
        pinned[which] = sum(not golden.flagged(problem, combo, kappa_H) for combo, kappa_H in cells)
    assert total == {1: 48, 2: 48, 3: 85, 4: 90}
    assert pinned == {1: 48, 2: 24, 3: 34, 4: 21}
