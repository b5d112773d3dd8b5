"""Golden iteration counts of the four built-in tables, and the rule that compares them.

    python tests/golden.py DIR

runs `helmdd tables 1..4` in full, to k = 200 (about two minutes on 2 cores,
and near 1 GB of memory at table 1's k = 200 cell), writes each table's CSV
without its timing columns to DIR/table<N>.csv, prints each table's wall
time and the sums of its setup_seconds and solve_seconds columns, and
checks every count against the golden files in tests/golden/ by the rule
below.  It prints one
line per count the rule rejects and exits 1 if there is one.  `diff -r DIR
tests/golden` then tells whether the counts are the golden ones bit for bit,
so the command also reproduces the golden files.  tests/test_golden.py runs
tables 3 and 4 in full and tables 1 and 2 to k = 60 by the same rule.

The rule is harness's: a count of FOCS on MP1, or of a cell with
kappa_H > 1, stagnates near the tolerance and moves under any change of
rounding, so it is flagged; every other count is pinned and must equal its
golden count.  A flagged count, with `x` read as the cap plus one, may differ
from the golden count by FLAGGED_SLACK of the larger of the two, or by
FLAGGED_MIN_MOVE, whichever is more.  The moves recorded in CHANGES.md set
both: the largest is 5 at a count of 84-89 (6%), the largest relative ones
are 10 -> 9 and 22 -> 24 (10% and 9%), and the two crossings of a cap are
`x` -> 100 at cap 100 and `x` -> 48 at cap 50.
"""

import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

from helmdd.harness import builtin_table, emit_csv, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLES = (1, 2, 3, 4)
FLAGGED_SLACK = 0.1
FLAGGED_MIN_MOVE = 2


def run_table(which, max_k=None):
    """The rows of built-in table which, quietly; a paired sweep (tables 1
    and 2) drops its cells with k > max_k."""
    cfg = builtin_table(which)
    if max_k is not None:
        k_list, n_list = zip(*(cell for cell in cfg.cells() if cell[0] <= max_k))
        cfg = replace(cfg, k_list=k_list, n_list=n_list)
    return run_experiment(cfg, warn=lambda message: None)


def write_counts(rows, path):
    """emit_csv's CSV of rows at path, without its two timing columns."""
    lines = emit_csv(rows, path).read_text().splitlines()
    assert lines[0].endswith(",setup_seconds,solve_seconds"), lines[0]
    path.write_text("".join(line.rsplit(",", 2)[0] + "\n" for line in lines))


def golden_rows(which):
    """The golden CSV of table which, as dicts of strings keyed by column."""
    with open(GOLDEN / f"table{which}.csv", newline="") as f:
        return list(csv.DictReader(f))


def flagged(problem, combo, kappa_H):
    """Whether the count of combo (e.g. "FOCS_AS2") in a cell of problem with
    this kappa_H stagnates near the tolerance."""
    return (problem == "MP1" and combo.startswith("FOCS")) or kappa_H > 1


def tolerated(want, got, cap, is_flagged):
    """Whether count got (an int or "x") may stand for the golden count want."""
    if not is_flagged:
        return str(got) == want
    a, b = (cap + 1 if str(v) == "x" else int(v) for v in (want, got))
    return abs(a - b) <= max(FLAGGED_MIN_MOVE, FLAGGED_SLACK * max(a, b))


def mismatches(which, rows):
    """One line for each count of rows that the rule does not tolerate, and
    for each golden cell with k up to the rows' largest k that rows lack."""
    cfg = builtin_table(which)
    max_k = max(row.k for row in rows)
    golden = {(float(g["k"]), int(g["n"])): g for g in golden_rows(which) if float(g["k"]) <= max_k}
    found = []
    for row in rows:
        g = golden.pop((float(row.k), row.n), None)
        if g is None:
            found.append(f"table {which} (k, n) = ({row.k}, {row.n}): no golden row")
            continue
        for combo, got in row.iterations.items():
            is_flagged = flagged(cfg.problem, combo, float(g["kappa_H"]))
            if not tolerated(g[combo], got, cfg.gmres.max_iter, is_flagged):
                kind = "flagged" if is_flagged else "pinned"
                found.append(f"table {which} (k, n) = ({row.k}, {row.n}) {combo}: {got}, golden {g[combo]} ({kind})")
    found += [f"table {which} (k, n) = ({k:g}, {n}): not run" for k, n in golden]
    return found


def main(argv):
    if len(argv) != 1:
        print("usage: python tests/golden.py DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    tables = {}
    for which in TABLES:
        start = time.perf_counter()
        rows = tables[which] = run_table(which)
        wall = time.perf_counter() - start
        write_counts(rows, out / f"table{which}.csv")
        print(
            f"table {which}: {len(rows)} rows written to {out / f'table{which}.csv'};"
            f" wall {wall:.3f} s, setup_seconds {sum(r.setup_seconds for r in rows):.3f} s,"
            f" solve_seconds {sum(r.solve_seconds for r in rows):.3f} s"
        )
    found = [line for which, rows in tables.items() for line in mismatches(which, rows)]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
