import csv
import math
import tracemalloc
from dataclasses import replace

import pytest

from helmdd import cli, harness
from helmdd.gmres import GmresConfig, gmres
from helmdd.harness import (
    ConfigError,
    ExperimentConfig,
    TableRow,
    builtin_table,
    emit_csv,
    parse_config,
    run_experiment,
    validate_config,
)

TINY_CONFIG = """
# smallest useful sweep
problem = MP1
k = 2, 3
n = 9, 9
sweep = paired
coarse_ratio = 2
coarse = FOCS, HOCS
preconditioners = AS2, SAS2, SHS2
overlap = max
rtol = 1e-7
max_iter = 50
precond_side = left
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestParseConfig:
    def test_round_trip(self, tiny_config):
        cfg = parse_config(tiny_config)
        assert cfg.problem == "MP1"
        assert cfg.k_list == (2, 3)
        assert cfg.n_list == (9, 9)
        assert cfg.coarse_kinds == ("FOCS", "HOCS")
        assert cfg.preconditioners == ("AS2", "SAS2", "SHS2")
        assert cfg.overlap == "max"
        assert cfg.gmres == GmresConfig(rtol=1e-7, max_iter=50, side="left")

    def test_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("problem = MP2\nk = 5\nn = 9\n")
        cfg = parse_config(path)
        assert cfg.sweep == "paired"
        assert cfg.coarse_ratio == 4
        assert cfg.gmres.side == "right"
        assert cfg == ExperimentConfig(problem="MP2", k_list=(5,), n_list=(9,))
        # one number rule for every key: integer-valued numbers read as ints,
        # and words in lower case
        path.write_text("problem = MP2\nk = 100\nn = 401\noverlap = max\nprecond_side = left\n")
        plain = parse_config(path)
        for k in ("1e2", "100.0"):
            path.write_text(f"problem = MP2\nk = {k}\nn = 401\noverlap = MAX\nprecond_side = LEFT\n")
            cfg = parse_config(path)
            assert cfg == plain and type(cfg.k_list[0]) is int
            assert cfg.overlap == "max" and cfg.gmres.side == "left"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for line in ("wavelength = 3", "threads = 2", "seed = 0"):
            key = line.split()[0]
            path.write_text(f"problem = MP1\nk = 2\nn = 9\n{line}\n")
            with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
                parse_config(path)

    def test_missing_sweep_lists_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = MP1\n")
        with pytest.raises(ConfigError, match="required"):
            parse_config(path)

    def test_garbled_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem MP1\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("problem = MP1\nk = 5\nn = 9\n# again\nK = 10\n")
        with pytest.raises(ConfigError, match=r"dup.cfg:5: duplicate key 'k' \(first on line 2\)"):
            parse_config(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem": "MP3"},
            {"sweep": "diagonal"},
            {"coarse": "QOCS"},
            {"preconditioners": "ILU"},
            {"precond_side": "top"},
        ],
    )
    def test_invalid_values_rejected(self, overrides, tmp_path):
        base = {"problem": "MP1", "k": "2", "n": "9", **overrides}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{name} = {text}\n" for name, text in base.items()))
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("k", "inf"),
            ("k", "nan"),
            ("k", "0"),
            ("k", "-5"),
            ("n", "33.7"),
            ("n", "1"),
            ("n", "2"),
            ("coarse_ratio", "2.5"),
            ("overlap", "1.5"),
            ("overlap", "-1"),
            ("max_iter", "1.5"),
            ("max_iter", "0"),
            ("rtol", "abc"),
            ("rtol", "-1"),
            ("rtol", "inf"),
            ("rtol", "nan"),
            ("k", ","),
            ("n", ","),
            ("coarse", ","),
            ("preconditioners", ","),
        ],
    )
    def test_malformed_numbers_name_their_key(self, key, value, tmp_path):
        base = {"problem": "MP1", "k": "2", "n": "9", key: value}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{name} = {text}\n" for name, text in base.items()))
        with pytest.raises(ConfigError, match=rf"\b{key} must"):
            parse_config(path)


class TestSweepCells:
    def test_paired(self):
        cfg = ExperimentConfig(k_list=(1, 2), n_list=(9, 17), sweep="paired")
        assert cfg.cells() == [(1, 9), (2, 17)]

    def test_product(self):
        cfg = ExperimentConfig(k_list=(1, 2), n_list=(9, 17), sweep="product")
        assert cfg.cells() == [(1, 9), (1, 17), (2, 9), (2, 17)]

    def test_paired_length_mismatch(self):
        with pytest.raises(ConfigError, match="equally long"):
            ExperimentConfig(k_list=(1, 2, 3), n_list=(9, 17), sweep="paired")


class TestValidateConfig:
    def test_under_resolved_coarse_grid_warns(self):
        cfg = ExperimentConfig(problem="MP1", k_list=(50,), n_list=(33,), coarse_ratio=4)
        ((k, n, p, rep, warnings),) = validate_config(cfg)
        assert rep.kappa_H == pytest.approx(6.25)
        assert any("kappa_H" in w for w in warnings)

    def test_resolved_regime_is_quiet(self):
        cfg = ExperimentConfig(problem="MP2", k_list=(20,), n_list=(81,), coarse_ratio=4)
        ((_, _, p, rep, warnings),) = validate_config(cfg)
        assert p == 20
        assert warnings == []
        assert rep.kappa_h == pytest.approx(0.25)

    def test_indivisible_layout_is_hard_error(self):
        with pytest.raises(ConfigError, match="divide"):
            ExperimentConfig(problem="MP1", k_list=(5,), n_list=(34,), coarse_ratio=4)

    def test_coarse_grid_without_interior_node_is_hard_error(self):
        cfg = ExperimentConfig(
            problem="MP2", k_list=(1,), n_list=(3,), coarse_ratio=2, coarse_kinds=("FOCS",)
        )
        with pytest.raises(ConfigError, match="n=3 with coarse ratio 2.*no interior node"):
            replace(cfg, problem="MP1")
        assert validate_config(cfg)

    def test_even_n_mp1_flagged(self):
        with pytest.raises(ConfigError, match="n=10: MP1 needs odd n"):
            ExperimentConfig(problem="MP1", k_list=(1,), n_list=(10,), coarse_ratio=3)

    def test_even_n_mp2_flagged(self):
        cfg = ExperimentConfig(
            problem="MP2", k_list=(1,), n_list=(10,), coarse_ratio=3, coarse_kinds=("FOCS",)
        )
        ((*_, warnings),) = validate_config(cfg)
        assert any("node 4, off the centre" in w for w in warnings)
        ((*_, odd_warnings),) = validate_config(replace(cfg, n_list=(13,)))
        assert odd_warnings == []

    def test_resonant_k_flagged(self):
        # k^2 = lambda_11 = (8/h^2) sin^2(pi h/2), the smallest eigenvalue of
        # the discrete Dirichlet Laplacian on n = 33
        h = 1.0 / 32
        k11 = math.sqrt(8.0 / h**2 * math.sin(math.pi * h / 2) ** 2)
        cfg = ExperimentConfig(problem="MP1", k_list=(k11,), n_list=(33,), coarse_ratio=4)
        ((*_, warnings),) = validate_config(cfg)
        assert any("(m, l) = (1, 1)" in w for w in warnings)
        ((*_, quiet),) = validate_config(replace(cfg, k_list=(20,)))
        assert not any("eigenvalue" in w for w in quiet)

    def test_hocs_ratio_not_power_of_two_flagged(self):
        cfg = ExperimentConfig(
            problem="MP1", k_list=(2,), n_list=(25,), coarse_ratio=6, coarse_kinds=("FOCS",)
        )
        with pytest.raises(ConfigError, match="power-of-two coarse ratio, got 6"):
            replace(cfg, coarse_kinds=("HOCS",))
        ((*_, focs_warnings),) = validate_config(cfg)
        assert focs_warnings == []

    @pytest.mark.parametrize("overlap", ["max", 0])
    def test_empty_mp1_subdomains_are_hard_error(self, overlap):
        cfg = ExperimentConfig(
            problem="MP1", k_list=(1,), n_list=(9,), coarse_ratio=1, coarse_kinds=("FOCS",),
            overlap=1,
        )
        with pytest.raises(ConfigError, match=f"n=9 with coarse ratio 1 and overlap {overlap}"):
            replace(cfg, overlap=overlap)
        assert validate_config(cfg)
        assert validate_config(replace(cfg, problem="MP2", overlap=overlap))

    def test_pollution_metric_reported_but_not_warned(self):
        # the protocol's lighter fine-resolution condition holds here even
        # though k^3 h^2 = 1.25 exceeds 1
        cfg = ExperimentConfig(problem="MP2", k_list=(20,), n_list=(81,), coarse_ratio=4)
        ((_, _, _, rep, warnings),) = validate_config(cfg)
        assert rep.pollution_metric == pytest.approx(1.25)
        assert warnings == []


def test_run_experiment_is_deterministic(tiny_config):
    cfg = parse_config(tiny_config)
    rows1 = run_experiment(cfg, warn=lambda m: None)
    rows2 = run_experiment(cfg, warn=lambda m: None)
    assert [r.iterations for r in rows1] == [r.iterations for r in rows2]
    assert all(isinstance(v, int) for r in rows1 for v in r.iterations.values())
    assert rows1[0].subdomains == 16
    assert rows1[0].fine_nodes == 81
    assert rows1[0].coarse_nodes == 25


def test_run_experiment_marks_nonconvergence():
    cfg = ExperimentConfig(
        problem="MP1",
        k_list=(10,),
        n_list=(17,),
        coarse_ratio=4,
        coarse_kinds=("FOCS",),
        preconditioners=("AS2",),
        gmres=GmresConfig(rtol=1e-13, max_iter=2),
    )
    (row,) = run_experiment(cfg, warn=lambda m: None)
    assert row.iterations["FOCS_AS2"] == "x"


def test_no_finished_solve_is_live_at_the_next(monkeypatch):
    """Of a table 1 cell's six solves, each from the second on starts with
    no earlier report (its N-length x) or preconditioner alive: the traced
    memory at its entry exceeds that at the first solve's entry by less than
    one N-vector, once LocalSolves' chunk buffers, allocated by the first
    solve's first apply, are set aside."""
    cfg = replace(builtin_table(1), k_list=(20,), n_list=(81,))
    at_entry = []

    def traced_gmres(A, M, b, gmres_cfg):
        buffers = sum(a.nbytes for a in M.local_solves._work or ())
        at_entry.append(tracemalloc.get_traced_memory()[0] - buffers)
        return gmres(A, M, b, gmres_cfg)

    monkeypatch.setattr(harness, "gmres", traced_gmres)
    tracemalloc.start()
    try:
        run_experiment(cfg, warn=lambda m: None)
    finally:
        tracemalloc.stop()
    assert len(at_entry) == 6
    assert max(at_entry[1:]) - at_entry[0] < 81 * 81 * 16


def test_one_local_solves_serves_every_preconditioner_of_a_cell(monkeypatch):
    """A table 1 cell builds its LocalSolves once, and all six preconditioners
    (2 coarse kinds x 3 kinds) hold that one object."""
    cfg = replace(builtin_table(1), k_list=(20,), n_list=(81,))
    built, preconditioners = [], []
    local_solves, preconditioner = harness.LocalSolves, harness.SchwarzPreconditioner

    def counted_local_solves(*args):
        built.append(local_solves(*args))
        return built[-1]

    def recorded_preconditioner(*args):
        preconditioners.append(preconditioner(*args))
        return preconditioners[-1]

    monkeypatch.setattr(harness, "LocalSolves", counted_local_solves)
    monkeypatch.setattr(harness, "SchwarzPreconditioner", recorded_preconditioner)
    (row,) = run_experiment(cfg, warn=lambda m: None)
    assert len(row.iterations) == len(preconditioners) == 6
    assert len(built) == 1
    assert all(M.local_solves is built[0] for M in preconditioners)


def test_run_experiment_rejects_even_n_mp1():
    with pytest.raises(ConfigError, match="even|odd|source"):
        cfg = ExperimentConfig(problem="MP1", k_list=(5,), n_list=(10,), coarse_ratio=3)
        run_experiment(cfg, warn=lambda m: None)


def test_run_experiment_rejects_hocs_ratio_before_any_cell(monkeypatch):
    from helmdd import harness as harness_mod

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness_mod, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="power-of-two"):
        cfg = ExperimentConfig(problem="MP1", k_list=(2,), n_list=(25,), coarse_ratio=6)
        run_experiment(cfg, warn=lambda m: None)


def test_run_experiment_rejects_coarse_grid_without_interior_node_before_any_cell(monkeypatch):
    from helmdd import harness as harness_mod

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness_mod, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="no interior node"):
        cfg = ExperimentConfig(
            problem="MP1", k_list=(1, 1), n_list=(9, 3), coarse_ratio=2, coarse_kinds=("FOCS",)
        )
        run_experiment(cfg, warn=lambda m: None)


def test_run_experiment_rejects_empty_subdomains_before_any_cell(monkeypatch):
    from helmdd import harness as harness_mod

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness_mod, "_run_cell", no_cell)
    with pytest.raises(ConfigError, match="subdomains empty"):
        cfg = ExperimentConfig(
            problem="MP1", k_list=(1,), n_list=(9,), coarse_ratio=1, coarse_kinds=("FOCS",)
        )
        run_experiment(cfg, warn=lambda m: None)


@pytest.mark.parametrize(
    "bad",
    [
        {"coarse_kinds": ("XYZ",)},
        {"coarse_kinds": ()},
        {"preconditioners": ("RAS",)},
        {"preconditioners": ()},
        {"problem": "MP3"},
        {"sweep": "zip"},
        {"coarse_ratio": 0},
        {"overlap": "maximum"},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_python_built_config_rejected_at_construction(bad, monkeypatch):
    """A bad field raises ConfigError when the config is made, directly or by
    replace, so run_experiment never reaches a cell."""

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "_run_cell", no_cell)
    good = ExperimentConfig(problem="MP1", k_list=(2, 3), n_list=(9, 17), coarse_ratio=2)
    with pytest.raises(ConfigError):
        replace(good, **bad)
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(**{**vars(good), **bad}), warn=lambda m: None)


def synthetic_rows(count):
    return [
        TableRow(
            k=20 * (i + 1), n=81, subdomains=400, fine_nodes=6561, coarse_nodes=441,
            kappa_h=0.25, kappa_H=1.0,
            iterations={"HOCS_SHS2": 8 if i % 2 == 0 else "x"},
            setup_seconds=0.5, solve_seconds=1.25,
        )
        for i in range(count)
    ]


class TestEmitCsv:
    def test_empty_rows_error_and_no_file(self, tmp_path):
        out = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="no rows"):
            emit_csv([], out)
        assert not out.exists()

    def test_single_row_round_trips(self, tmp_path):
        out = tmp_path / "one.csv"
        emit_csv(synthetic_rows(1), out)
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        rec = records[0]
        assert rec["k"] == "20"
        assert rec["n"] == "81"
        assert rec["subdomains"] == "400"
        assert rec["fine_nodes"] == "6561"
        assert rec["coarse_nodes"] == "441"
        assert rec["kappa_h"] == "0.25"
        assert rec["HOCS_SHS2"] == "8"
        assert rec["solve_seconds"] == "1.25"

    def test_missing_parent_directory_created(self, tmp_path):
        out = tmp_path / "results" / "table1.csv"
        emit_csv(synthetic_rows(1), out)
        assert out.exists()

    def test_nonconverged_cells_print_x(self, tmp_path):
        out = tmp_path / "x.csv"
        emit_csv(synthetic_rows(2), out)
        body = out.read_text().splitlines()
        assert body[2].split(",")[7] == "x"

    def test_table1_shape_produces_eight_rows(self, tmp_path):
        cfg = builtin_table(1)
        assert len(cfg.cells()) == 8
        out = tmp_path / "t1.csv"
        emit_csv(synthetic_rows(len(cfg.cells())), out)
        assert len(out.read_text().strip().splitlines()) == 9  # header + 8


class TestBuiltinTables:
    def test_table1_benchmark_setup(self):
        cfg = builtin_table(1)
        assert cfg.problem == "MP2"
        assert cfg.k_list[0] == 20 and cfg.n_list[0] == 81
        assert cfg.k_list[-1] == 200 and cfg.n_list[-1] == 801
        assert cfg.gmres.max_iter == 100
        assert cfg.gmres.side == "left"
        assert cfg.coarse_kinds == ("FOCS", "HOCS")

    def test_table2_is_dirichlet_twin(self):
        cfg = builtin_table(2)
        assert cfg.problem == "MP1"
        assert cfg.k_list == builtin_table(1).k_list

    def test_tables_3_and_4_sweep_n(self):
        t3, t4 = builtin_table(3), builtin_table(4)
        assert t3.sweep == "product" and t4.sweep == "product"
        assert t3.coarse_ratio == 4 and t4.coarse_ratio == 16
        assert t3.gmres.max_iter == 50 and t4.gmres.max_iter == 50
        assert t3.n_list == tuple(range(33, 162, 8))
        assert t4.n_list == tuple(range(33, 258, 16))
        assert all((n - 1) % 16 == 0 for n in t4.n_list)

    def test_all_builtin_layouts_validate(self):
        for which in (1, 2, 3, 4):
            validate_config(builtin_table(which))

    def test_unknown_table_rejected(self):
        with pytest.raises(ConfigError):
            builtin_table(5)


class TestCli:
    def test_run_tiny_config(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        rc = cli.main(["run", str(tiny_config), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert "FOCS_AS2" in lines[0]

    def test_run_exit_zero_with_nonconverged_cells(self, tmp_path):
        config = tmp_path / "capped.cfg"
        config.write_text(TINY_CONFIG.replace("max_iter = 50", "max_iter = 1"))
        out = tmp_path / "capped.csv"
        rc = cli.main(["run", str(config), "--out", str(out)])
        assert rc == 0
        assert ",x" in out.read_text()

    def test_run_missing_config_fails(self, tmp_path):
        rc = cli.main(["run", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_run_structurally_bad_config_fails(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = MP1\nk = 5\nn = 34\ncoarse_ratio = 4\n")
        rc = cli.main(["run", str(path)])
        assert rc == 2

    def test_run_rejects_directory_out_before_any_cell(self, tiny_config, tmp_path, monkeypatch, capsys):
        from helmdd import harness as harness_mod

        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness_mod, "_run_cell", no_cell)
        rc = cli.main(["run", str(tiny_config), "--out", str(tmp_path)])
        assert rc == 2
        assert "is a directory" in capsys.readouterr().err

    def test_run_unwritable_out_exits_two(self, tiny_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = cli.main(["run", str(tiny_config), "--out", str(blocker / "out.csv")])
        assert rc == 2
        assert "blocker" in capsys.readouterr().err

    def test_validate_reports_regime(self, tiny_config, capsys):
        rc = cli.main(["validate", str(tiny_config)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kappa_h" in out and "k=2" in out

    def test_validate_warnings_go_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "warn.cfg"
        path.write_text("problem = MP1\nk = 50\nn = 33\ncoarse_ratio = 4\n")
        rc = cli.main(["validate", str(path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "kappa_H" in err

    def test_tables_wiring(self, tmp_path, monkeypatch, capsys):
        from helmdd import harness as harness_mod

        seen = {}

        def fake_run(cfg, warn=None):
            seen["cfg"] = cfg
            return synthetic_rows(2)

        monkeypatch.setattr(harness_mod, "run_experiment", fake_run)
        out = tmp_path / "t3.csv"
        rc = cli.main(["tables", "3", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert seen["cfg"].gmres == GmresConfig(rtol=1e-7, max_iter=50, side="left")  # table 3's own

    @pytest.mark.parametrize("command", [["run", "x.cfg"], ["tables", "3"]], ids=["run", "tables"])
    def test_solver_flags_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--max-iter", "25"])
        assert exc.value.code == 2
        assert "--max-iter" in capsys.readouterr().err

    def test_tables_max_k_trims_the_sweep(self, tmp_path, monkeypatch):
        from helmdd import harness as harness_mod

        seen = {}

        def fake_run(cfg, warn=None):
            seen["cfg"] = cfg
            return synthetic_rows(2)

        monkeypatch.setattr(harness_mod, "run_experiment", fake_run)
        rc = cli.main(["tables", "2", "--max-k", "40", "--out", str(tmp_path / "t2.csv")])
        assert rc == 0
        assert seen["cfg"].k_list == (20, 40)
        assert seen["cfg"].n_list == (81, 161)  # paired: n trimmed with k
        rc = cli.main(["tables", "4", "--max-k", "10", "--out", str(tmp_path / "t4.csv")])
        assert rc == 0
        assert seen["cfg"].k_list == (5, 10)
        assert seen["cfg"].n_list == builtin_table(4).n_list  # product: every n kept

    def test_tables_max_k_below_every_cell_exits_two(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        rc = cli.main(["tables", "1", "--max-k", "10", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: --max-k 10 drops every cell of table 1, whose smallest k is 20\n"
        )


def test_csv_identical_apart_from_timings(tiny_config, tmp_path):
    cfg = parse_config(tiny_config)

    def strip_timings(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [row[:-2] for row in rows]

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(cfg, warn=lambda m: None), a)
    emit_csv(run_experiment(cfg, warn=lambda m: None), b)
    assert strip_timings(a.read_text()) == strip_timings(b.read_text())
