import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import helmdd
import helmdd.cli
from helmdd.discretization import kronecker_sum


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from helmdd import *", namespace)
    assert sorted(helmdd.__all__) == sorted(set(helmdd.__all__))
    for name in helmdd.__all__:
        assert namespace[name] is getattr(helmdd, name)


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_targets_exist():
    """Every name the benchmark's tracer wraps is an attribute of its owner."""
    targets = load_spans().targets(helmdd, full=True)
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is missing"


def mp2_k20_config(preconditioners=("SHS2",)):
    return helmdd.ExperimentConfig(
        problem="MP2",
        k_list=(20,),
        n_list=(81,),
        coarse_kinds=("FOCS", "HOCS"),
        preconditioners=preconditioners,
        gmres=helmdd.GmresConfig(side="left"),
    )


def test_benchmark_traced_run_reports_every_layer():
    """A fully traced run yields finite layer metrics and the untraced counts."""
    spans = load_spans()
    cfg = mp2_k20_config()
    untraced = helmdd.run_experiment(cfg)
    with spans.Tracer().installed(spans.targets(helmdd, full=True)) as tracer:
        traced = helmdd.run_experiment(cfg)
    metrics = tracer.table().layer_metrics()
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["harness.cells"] == 1
    assert untraced[0].coarse_nodes == 441  # all 21 x 21 coarse nodes of the Sommerfeld grid
    assert metrics["coarse.a0_nnz"] > 0
    assert metrics["gmres.iterations"] == sum(untraced[0].iterations.values())
    assert [r.iterations for r in traced] == [r.iterations for r in untraced]


def test_experiment_never_calls_kron(monkeypatch):
    """The first cell of each built-in table forms neither R_0 = P(x)P nor A_0:
    the coarse space is applied through P alone and solved from (T_0, W_0)."""
    calls = []
    kron = sp.kron

    def counted(*args, **kwargs):
        calls.append(args)
        return kron(*args, **kwargs)

    monkeypatch.setattr(sp, "kron", counted)
    for table in (1, 2, 3, 4):
        cfg = helmdd.builtin_table(table)
        rows = helmdd.run_experiment(replace(cfg, k_list=cfg.k_list[:1], n_list=cfg.n_list[:1]))
        assert len(rows) == 1
    assert calls == []


def test_structured_galerkin_never_assembles_a0(monkeypatch):
    """The harness never forms the sparse A_0; on access it is kronecker_sum(T_0, W_0, k)."""
    cfg = mp2_k20_config(("AS2", "SAS2", "SHS2"))
    expected = [r.iterations for r in helmdd.run_experiment(cfg)]
    grid = helmdd.Grid(81, "sommerfeld")
    prob = helmdd.assemble(grid, 20.0, "MP2")
    cs = helmdd.galerkin(helmdd.build_hocs(grid, 4), prob)
    T0, W0 = ((cs.p @ F @ cs.p.T).toarray() for F in (prob.T, prob.W))
    want = kronecker_sum((T0 + T0.T) * 0.5, (W0 + W0.T) * 0.5, prob.k)
    got = cs.a0
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr

    def refuse(*args):
        raise AssertionError("A_0 assembled")

    monkeypatch.setattr(helmdd.coarse, "kronecker_sum", refuse)
    assert [r.iterations for r in helmdd.run_experiment(cfg)] == expected


def test_every_import_is_used():
    """Each name a helmdd module (other than __init__) or a test module imports is used in it."""
    modules = sorted(Path(helmdd.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def test_every_public_name_has_a_caller():
    """Each public module-level function or class of helmdd is read by helmdd's
    own code besides its definition, through its own module: a bare name in
    that module, or `from .mod import name` or `mod.name` in another (an
    attribute of the same name on anything else does not count, nor do
    docstrings and comments).  Otherwise it is named in perfbench/ or exported
    in helmdd.__all__: no public helper lives for its tests alone."""
    defined, referenced = {}, set()
    for path in sorted(Path(helmdd.__file__).parent.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[module, node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                referenced.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                referenced |= {(node.module, a.name) for a in node.names}
    named = set(helmdd.__all__)
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        named |= set(re.findall(r"\w+", path.read_text()))
    uncalled = sorted(
        f"{where} {name}"
        for (module, name), where in defined.items()
        if (module, name) not in referenced and name not in named
    )
    assert not uncalled, f"public names without a caller: {uncalled}"


def test_sparse_lu_stays_in_linalg():
    """Only linalg.py imports scipy.sparse.linalg, and coarse.py uses no sparse LU."""
    for path in sorted(Path(helmdd.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        modules = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
        assert "scipy.sparse.linalg" not in modules, path.name
    tree = ast.parse(Path(helmdd.coarse.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert not names & {"SparseFactorization", "factorize"}


def test_import_loads_no_sparse_lu():
    """Importing the package and its solver modules leaves scipy.sparse.linalg
    unloaded: linalg.factorize imports SuperLU on its first call."""
    code = (
        "import sys, helmdd, helmdd.harness, helmdd.linalg, helmdd.schwarz; "
        "print('scipy.sparse.linalg' in sys.modules)"
    )
    src = str(Path(helmdd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_solver_path_calls_sparse_lu():
    """No helmdd function calls linalg.factorize, linalg.solve or local_matrix:
    the local and coarse solves are all formed from the 1D eigenpairs, and those
    three stay as the tests' reference only."""
    reference_only = {"factorize", "solve", "local_matrix"}
    for path in sorted(Path(helmdd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                called = f.id
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                called = f.attr if f.value.id in ("linalg", "decomposition") else None
            else:
                called = None
            assert called not in reference_only, f"{path.name}:{node.lineno} calls {called}"


def test_only_decomposition_reads_the_box_layout():
    """No helmdd module but decomposition.py reads an attribute named lo, hi,
    indices or offsets: the layout of a Decomposition is known in one module,
    and the others go through decomposition.box_indices, interval_classes and
    local_matrix."""
    layout = {"lo", "hi", "indices", "offsets"}
    for path in sorted(Path(helmdd.__file__).parent.glob("*.py")):
        if path.name == "decomposition.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in layout, f"{path.name}:{node.lineno} reads .{node.attr}"


def readme_command_flags():
    """The --flags the README's "Command line" block lists, per subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    flags, command = {}, None
    for line in block.splitlines():
        text = line.split("#", 1)[0]
        if text.startswith("helmdd "):
            command = text.split()[1]
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", text))
    return flags


def test_readme_command_line_matches_argparse(capsys):
    """Every option a subcommand's -h lists is in the README block, and nothing else."""
    documented = readme_command_flags()
    assert sorted(documented) == ["run", "tables", "validate"]
    for command, listed in documented.items():
        with pytest.raises(SystemExit):
            helmdd.cli.main([command, "-h"])
        accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == accepted, command


def test_readme_config_block_lists_every_key(tmp_path):
    """The README's "Config file format" block parses, and its keys are the
    keys parse_config reads, no more and no fewer."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config file format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    helmdd.parse_config(path)
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == set(helmdd.harness.CONFIG_KEYS)


def test_readme_library_example_runs(capsys):
    """The README's "Library use" block runs as printed and prints its stated result."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "8 True\n"
