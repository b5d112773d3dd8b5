"""Tests of the benchmark's own tracing and checks, on a tiny table cell.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rep import import_helmdd  # noqa: E402
from spans import CELL, RECORD, Tracer, targets  # noqa: E402
from workloads import WORKLOADS, check_rows, experiment_config  # noqa: E402

helmdd = import_helmdd()

COUNTS = (
    "harness.cells",
    "decomposition.local_matrix_calls",
    "linalg.factorize_local_calls",
    "linalg.local_fill_nnz",
    "linalg.local_distinct_ratio",
    "linalg.coarse_fill_nnz",
    "coarse.a0_nnz",
    "schwarz.apply_calls",
    "linalg.solve_calls",
    "gmres.iterations",
)


def tiny_config():
    """MP2, k = 20, n = 81: 400 subdomains, both coarse spaces, all three preconditioners."""
    return replace(helmdd.harness.builtin_table(1), k_list=(20,), n_list=(81,))


def traced_run(full=True):
    tracer = Tracer()
    with tracer.installed(targets(helmdd, full=full)):
        rows = helmdd.harness.run_experiment(tiny_config(), warn=lambda msg: None)
    return rows, tracer.table()


@pytest.fixture(scope="module")
def runs():
    return [traced_run(), traced_run()]


def test_spans_nest(runs):
    _, table = runs[0]
    inner = np.flatnonzero(table.parents >= 0)
    outer = table.parents[inner]
    assert np.all(table.starts[outer] <= table.starts[inner])
    assert np.all(table.ends[inner] <= table.ends[outer])
    # single-threaded: siblings follow one another in record order
    for parent in np.unique(table.parents):
        kids = np.flatnonzero(table.parents == parent)
        assert np.all(table.ends[kids[:-1]] <= table.starts[kids[1:]])


def test_self_times_sum_to_cell_span(runs):
    _, table = runs[0]
    assert table.self_times.min() >= 0.0
    (cell,) = table.select(CELL)
    inside = (table.starts >= table.starts[cell]) & (table.ends <= table.ends[cell])
    assert table.self_times[inside].sum() == pytest.approx(table.durations[cell], rel=1e-9)


def test_every_layer_is_traced(runs):
    _, table = runs[0]
    names = set(table.vocabulary)
    for owner, attr, name, _ in targets(helmdd, full=True):
        if attr != "extend":  # max overlap takes the extend_max path
            assert name in names, f"{owner.__name__}.{attr} was never called"
    assert RECORD in names


def test_counts_repeat_exactly(runs):
    (rows_a, table_a), (rows_b, table_b) = runs
    layers_a, layers_b = table_a.layer_metrics(), table_b.layer_metrics()
    assert {name: layers_a[name] for name in COUNTS} == {name: layers_b[name] for name in COUNTS}
    assert [r.iterations for r in rows_a] == [r.iterations for r in rows_b]
    subdomains = rows_a[0].subdomains
    assert subdomains == 400
    assert layers_a["decomposition.local_matrix_calls"] == subdomains
    assert layers_a["linalg.factorize_local_calls"] == subdomains
    # one Galerkin factorization per coarse kind, six solves in the cell
    assert len(table_a.select("linalg.factorize", "coarse.galerkin")) == 2
    assert len(table_a.select("gmres.gmres")) == 6


def test_tracing_changes_no_result(runs):
    rows, _ = runs[0]
    untraced = helmdd.harness.run_experiment(tiny_config(), warn=lambda msg: None)
    assert [r.iterations for r in rows] == [r.iterations for r in untraced]


def test_patches_are_restored():
    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in targets(helmdd, full=True)}
    with pytest.raises(RuntimeError):
        with Tracer().installed(targets(helmdd, full=True)):
            raise RuntimeError("leave the block early")
    after = {(id(o), a): o.__dict__[a] for o, a, _, _ in targets(helmdd, full=True)}
    assert before == after


def test_light_phases_split_the_cell():
    rows, table = traced_run(full=False)
    phases = table.phases()
    (cell,) = table.select(CELL)
    assert 0.0 < phases["setup_s"] < table.durations[cell]
    assert phases["setup_s"] + phases["solve_s"] <= table.durations[cell]
    assert phases["solve_s"] == pytest.approx(table.total("gmres.gmres"))


def test_workloads_expand_to_their_reference_cells():
    for name, w in WORKLOADS.items():
        cfg = experiment_config(helmdd.harness, name)
        cells = [(k, n) for k, n, *_ in helmdd.harness.validate_config(cfg)]
        assert sorted(cells) == sorted(w["expected"]), name
        combos = {f"{c}_{p}" for c in cfg.coarse_kinds for p in cfg.preconditioners}
        assert all(set(v) == combos for v in w["expected"].values()), name
        assert cfg.gmres.side == "left" and cfg.gmres.rtol == 1e-7 and cfg.overlap == "max"


def test_check_rows_reports_mismatches_and_missing_solves():
    rows = [{"k": 5, "n": 257, "iterations": {"HOCS_SHS2": 7}},
            {"k": 10, "n": 257, "iterations": {"HOCS_SHS2": 99}}]
    checked = check_rows("mp1_h16_sweep", rows)
    assert len(checked) == 6
    bad = [(k, want, got) for k, n, combo, want, got in checked if want != got]
    assert bad == [(10, 6, 99), (15, 8, None), (20, 8, None), (25, 10, None), (30, 18, None)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mp1_h16_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
