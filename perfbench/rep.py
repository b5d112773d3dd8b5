"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --trace 0|1 --out RESULT.json [--spans SPANS.npz]

Imports helmdd from the `src/` directory next to `perfbench/`, runs the
workload's `run_experiment` call once and writes a JSON record: the table
rows, the wall time of the call, its setup/solve split and, with --trace 1,
the per-layer metrics.  The peak memory of this process is read by the
parent, which started it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, targets
from workloads import experiment_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_helmdd():
    """helmdd from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import helmdd
    import helmdd.harness  # noqa: F401  (submodules the tracer patches)
    import helmdd.linalg  # noqa: F401
    import helmdd.schwarz  # noqa: F401

    if Path(helmdd.__file__).resolve().parent != SRC / "helmdd":
        raise ImportError(f"helmdd imported from {helmdd.__file__}, not from {SRC}")
    return helmdd


def run(workload: str, trace: bool, spans_path=None) -> dict:
    helmdd = import_helmdd()
    cfg = experiment_config(helmdd.harness, workload)
    tracer = Tracer()
    warnings: list = []
    error = None
    rows = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.installed(targets(helmdd, full=trace)):
        try:
            rows = helmdd.harness.run_experiment(cfg, warn=warnings.append)
        except Exception:  # a raising cell is a failed solve, reported by the parent
            error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    table = tracer.table()
    record = {
        "workload": workload,
        "trace": trace,
        "wall_s": wall,
        "cpu_s": cpu,
        **table.phases(),
        "rows": [{"k": r.k, "n": r.n, "iterations": r.iterations} for r in rows],
        "final_residuals": table.attr_values("gmres.gmres", "final_residual"),
        "warnings": warnings,
        "error": error,
        "spans": len(table),
    }
    if trace:
        record["layers"] = table.layer_metrics()
        if spans_path is not None:
            table.save(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    record = run(args.workload, bool(args.trace), args.spans)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
