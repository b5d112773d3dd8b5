import ast
import importlib.util
import math
import re
from pathlib import Path

import pytest

import helmdd
import helmdd.cli


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


def test_experiment_never_forms_r0(monkeypatch):
    """The harness applies the coarse space through P alone, never through R_0 = P(x)P."""
    cfg = mp2_k20_config(("AS2", "SAS2", "SHS2"))
    expected = [r.iterations for r in helmdd.run_experiment(cfg)]

    def refuse(cs):
        raise AssertionError("R_0 formed")

    monkeypatch.setattr(helmdd.coarse.CoarseSpace, "r0", property(refuse))
    assert [r.iterations for r in helmdd.run_experiment(cfg)] == expected


def test_every_import_is_used():
    """Each name a helmdd module (other than __init__) imports is used in it."""
    for path in sorted(Path(helmdd.__file__).parent.glob("*.py")):
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
