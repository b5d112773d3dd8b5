"""Benchmark of helmdd: three fixed table cells, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all         # every workload, both modes

Run from the root of a checkout that holds `src/helmdd`.  Each repetition
runs the workload's `run_experiment` call once in a fresh process
(perfbench/rep.py); repetitions are started until --seconds have passed,
and every metric is the median over them.

--trace 0 reports the end-to-end metrics: wall_s (the run_experiment call),
setup_s (per cell, the time up to its first GMRES solve, summed), solve_s
(time inside GMRES, summed) and peak_rss_mb (ru_maxrss of the repetition's
process).  --trace 1 runs one untraced repetition and then traced ones, and
reports the per-layer metrics of the traced runs plus the tracing overhead.
The metric names and units are those of BENCHMARK.json.

Every solve's iteration count is checked against the reference in
workloads.py; a mismatch or an exception counts as a failed solve.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with the environment
(commit, cores, library versions, BLAS threading, load averages), goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_rows  # noqa: E402

# a run must end within 180 s; no repetition starts that could end after this
RUN_LIMIT_S = 165.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded, as it reports it."""
    import numpy  # noqa: F401  (loads the BLAS the workload uses)
    import scipy.sparse.linalg  # noqa: F401

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                found[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return found


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def repetition(workload: str, trace: bool, deadline: float, spans=None) -> dict:
    """Run rep.py once; add the process's peak RSS to its record."""
    out = RESULTS / f".rep-{os.getpid()}.json"
    argv = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
            "--trace", str(int(trace)), "--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                raise BenchmarkError(f"{workload}: repetition did not finish in time")
            time.sleep(0.02)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchmarkError(f"{workload}: repetition exited with code {code}")
    record = json.loads(out.read_text())
    out.unlink()
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    record["process"] = {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                         "minor_faults": usage.ru_minflt, "major_faults": usage.ru_majflt,
                         "involuntary_switches": usage.ru_nivcsw}
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    load_before = os.getloadavg()[0]
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}-spans.npz" if trace else None

    untraced = [repetition(workload, False, deadline)]
    traced = []
    reps = traced if trace else untraced
    while not reps or time.monotonic() - start < seconds:
        if time.monotonic() - start + 1.5 * (reps or untraced)[-1]["wall_s"] > RUN_LIMIT_S:
            if reps:
                break
            raise BenchmarkError(f"{workload}: no time left for a traced repetition")
        reps.append(repetition(workload, trace, deadline, spans))
    env["load1_before"] = load_before
    env["load1_after"] = os.getloadavg()[0]
    every = untraced + traced

    # (repetition, k, n, combination, expected, got) for every solve
    outcomes = [(r, *o) for r, rec in enumerate(every) for o in check_rows(workload, rec["rows"])]
    failures = [o for o in outcomes if o[4] != o[5]]
    problems = [f"repetition {r}: k={k} n={n} {c}: expected {w}, got {g}" for r, k, n, c, w, g in failures]
    problems += [f"repetition {i}: {rec['error']}" for i, rec in enumerate(every) if rec["error"]]

    if trace:
        metrics = {}
        for name in units:
            if name.startswith("trace."):
                continue
            values = [rec["layers"][name] for rec in traced]
            if units[name] not in ("count", "ratio"):
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            metrics[name] = values[0]
        traced_wall = statistics.median(rec["wall_s"] for rec in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced[0]["wall_s"]
    else:
        metrics = {
            name: statistics.median(rec[name] for rec in untraced)
            for name in ("wall_s", "setup_s", "solve_s", "peak_rss_mb")
        }
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "result": result,
        "problems": problems,
        "failed_solves": len(failures) / max(len(outcomes), 1),
        "cpu_share": [rec["cpu_s"] / rec["wall_s"] for rec in every],
        "repetitions": every,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    return record


def summary(record: dict) -> str:
    env, result = record["environment"], record["result"]
    lines = [
        f"# {record['workload']} trace={int(record['trace'])} seed={record['seed']}: "
        f"{len(record['repetitions'])} repetitions, failed_solves {record['failed_solves']:.4g} share "
        f"({result['failed']} of {result['attempted']})",
        f"#   commit {env['commit']} src {env['src_sha256'][:12]} nproc {env['nproc']} "
        f"numpy {env['numpy']} scipy {env['scipy']} blas {env['blas']['name']} "
        f"{env['blas']['version']} threads {env['blas_threads']} env {env['thread_env']}",
        f"#   load1 {env['load1_before']:.2f} -> {env['load1_after']:.2f}, cpu/wall per repetition "
        + " ".join(f"{s:.2f}" for s in record["cpu_share"]),
    ]
    lines += [f"#   problem: {p.strip()}" for p in record["problems"]]
    for name, m in result["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        lines.append(f"{name:34s} {value} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="recorded; the cells are fixed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "helmdd" / "__init__.py").is_file():
        print(f"error: no helmdd sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  declared[args.trace])
            print(summary(record))
            print(json.dumps(record["result"]))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run_workload(workload, args.seed, args.seconds, bool(trace), declared[trace])
                print(summary(record), flush=True)
                result = record["result"]
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
