import pytest

import golden

# tables 1 and 2 run to this k in the test suite; tests/golden.py checks the rest
SUITE_MAX_K = 60


@pytest.fixture(scope="session")
def table_rows():
    """rows(which): the rows of built-in table which, run once per session,
    tables 1 and 2 to k = SUITE_MAX_K and tables 3 and 4 in full."""
    runs = {}

    def rows(which):
        if which not in runs:
            runs[which] = golden.run_table(which, SUITE_MAX_K if which in (1, 2) else None)
        return runs[which]

    return rows
