"""Experiment runner: sweeps (k, n, coarse kind, preconditioner) cells,
collects GMRES iteration counts into table rows, and writes CSV reports.

A sweep cell builds the problem once, builds its local solves once with
schwarz.LocalSolves (the 1D intervals classed by the restrictions of the 1D
factors T and W to them, one eigenbasis per interval class, and one block
per pair of classes), and shares them across all preconditioner kinds; the
Galerkin coarse problem is built once per coarse kind.  Nonconverged solves
are reported with the literal 'x' in place of the iteration count.  Reruns
of the same configuration at a fixed BLAS thread count produce identical
counts; only the timing columns vary.  Cells whose residual stagnates near
the tolerance (FOCS on MP1, or kappa_H > 1) move by a few iterations, or
across the cap, under any change of rounding; no HOCS cell with
kappa_H <= 1 moves.  README's "Command line" section lists the counts that
have moved.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import decomposition
from .coarse import COARSE_KINDS, build_focs, build_hocs, galerkin
from .decomposition import extend, extend_max, partition
from .discretization import PROBLEMS, Grid, RegimeReport, assemble, regime
from .gmres import GmresConfig, gmres
from .schwarz import PRECONDITIONER_KINDS, LocalSolves, SchwarzPreconditioner

# not called here: perfbench/spans.targets(full=True) wraps harness.local_matrix by name
local_matrix = decomposition.local_matrix


# relative distance of k^2 from a discrete Dirichlet eigenvalue below which
# validate_config warns of a resonant MP1 cell
RESONANCE_RTOL = 1e-6


class ConfigError(ValueError):
    """A configuration that cannot produce a valid experiment."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep of (k, n) cells, checked once when made: no invalid layout reaches a cell."""

    problem: str = "MP1"
    k_list: tuple = (20,)
    n_list: tuple = (81,)
    sweep: str = "paired"  # paired: zip(k, n); product: all (k, n) combinations
    coarse_ratio: int = 4
    coarse_kinds: tuple = ("HOCS",)
    preconditioners: tuple = ("SHS2",)
    overlap: str | int = "max"
    gmres: GmresConfig = field(default_factory=GmresConfig)
    out: str | None = None

    def __post_init__(self):
        def check(ok, message):
            if not ok:
                raise ConfigError(message)

        def integer(v, least):
            return isinstance(v, numbers.Integral) and v >= least

        check(self.problem in PROBLEMS, f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        sweeps = ("paired", "product")
        check(self.sweep in sweeps, f"sweep must be 'paired' or 'product', got {self.sweep!r}")
        check(self.k_list and self.n_list, "both k and n sweep lists are required")
        check(
            self.sweep == "product" or len(self.k_list) == len(self.n_list),
            f"paired sweep needs equally long k and n lists, "
            f"got {len(self.k_list)} and {len(self.n_list)}",
        )
        for k in self.k_list:
            positive = isinstance(k, numbers.Real) and 0 < k < math.inf
            check(positive, f"k must be a finite positive number, got {k!r}")
        for n in self.n_list:
            check(integer(n, 3), f"n must be an integer >= 3, got {n!r}")
        ratio, overlap = self.coarse_ratio, self.overlap
        check(integer(ratio, 1), f"coarse_ratio must be an integer >= 1, got {ratio!r}")
        check(self.coarse_kinds and self.preconditioners, "coarse and preconditioners are required")
        for ck in self.coarse_kinds:
            check(ck in COARSE_KINDS, f"unknown coarse space {ck!r}")
        for pk in self.preconditioners:
            check(pk in PRECONDITIONER_KINDS, f"unknown preconditioner {pk!r}")
        check(
            overlap == "max" or integer(overlap, 0),
            f"overlap must be 'max' or an integer >= 0, got {overlap!r}",
        )
        layers = ratio // 2 if overlap == "max" else overlap
        for n in self.n_list:
            check((n - 1) % ratio == 0, f"coarse ratio {ratio} does not divide n-1 = {n - 1}")
            if self.problem == "MP1":
                check(n % 2 == 1, f"n={n}: MP1 needs odd n (no grid node at the source)")
                check(
                    n - 1 != ratio,
                    f"n={n} with coarse ratio {ratio} leaves the MP1 coarse grid no interior node",
                )
                # the owned nodes of the last box row and column are boundary nodes
                check(
                    ratio > 1 or layers > 0,
                    f"n={n} with coarse ratio 1 and overlap {overlap} leaves the last row and column"
                    " of MP1 subdomains empty",
                )
        check(
            "HOCS" not in self.coarse_kinds or ratio & (ratio - 1) == 0,
            f"HOCS needs a power-of-two coarse ratio, got {ratio}",
        )

    def cells(self) -> list:
        """The (k, n) pairs the sweep expands to, in output order."""
        if self.sweep == "paired":
            return list(zip(self.k_list, self.n_list))
        return [(k, n) for k in self.k_list for n in self.n_list]


@dataclass
class TableRow:
    k: float
    n: int
    subdomains: int
    fine_nodes: int
    coarse_nodes: int
    kappa_h: float
    kappa_H: float
    iterations: dict
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0


def _parse_scalar(text: str):
    try:
        v = float(text)
    except ValueError:
        return text
    return int(v) if v.is_integer() and "e" not in text.lower() and "." not in text else v


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file; keys are unique, lists comma-separated."""
    values, set_on = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first on line {set_on[key]})")
        values[key], set_on[key] = val.strip(), lineno
    return config_from_dict(values, origin=str(path))


def config_from_dict(values: dict, origin: str = "<config>") -> ExperimentConfig:
    """The ExperimentConfig of key = value strings; a key left out takes the
    default of ExperimentConfig or GmresConfig.  This only parses: the
    dataclasses check the values."""
    known = {
        "problem", "k", "n", "sweep", "coarse_ratio", "coarse", "preconditioners",
        "overlap", "rtol", "max_iter", "precond_side", "out",
    }
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"{origin}: unknown keys {sorted(unknown)}")

    def as_list(key, default):
        if key not in values:
            return default
        items = tuple(item.strip() for item in str(values[key]).split(",") if item.strip())
        if not items:
            raise ConfigError(f"{origin}: {key} must list at least one value, got {values[key]!r}")
        return items

    def number(text):  # lower-cased text, or the number it spells; "33.0" and "1e2" spell ints
        v = _parse_scalar(str(text).lower())
        return int(v) if isinstance(v, float) and v.is_integer() else v

    try:
        return ExperimentConfig(
            problem=str(values.get("problem", ExperimentConfig.problem)).upper(),
            k_list=tuple(_parse_scalar(v) for v in as_list("k", ())),
            n_list=tuple(number(v) for v in as_list("n", ())),
            sweep=number(values.get("sweep", ExperimentConfig.sweep)),
            coarse_ratio=number(values.get("coarse_ratio", ExperimentConfig.coarse_ratio)),
            coarse_kinds=tuple(v.upper() for v in as_list("coarse", ExperimentConfig.coarse_kinds)),
            preconditioners=tuple(
                v.upper() for v in as_list("preconditioners", ExperimentConfig.preconditioners)
            ),
            overlap=number(values.get("overlap", ExperimentConfig.overlap)),
            gmres=GmresConfig(
                rtol=number(values.get("rtol", GmresConfig.rtol)),
                max_iter=number(values.get("max_iter", GmresConfig.max_iter)),
                side=number(values.get("precond_side", GmresConfig.side)),
            ),
            out=values.get("out"),
        )
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def _nearest_dirichlet_mode(k, n: int):
    """(m, l, lambda) for the eigenvalue lambda of the MP1 discrete Laplacian,
    (4/h^2)(sin^2(m pi h/2) + sin^2(l pi h/2)) with m, l = 1..n-2, nearest k^2."""
    h = 1.0 / (n - 1)
    s = 4.0 / h**2 * np.sin(np.arange(1, n - 1) * np.pi * h / 2) ** 2
    lam = s[:, None] + s[None, :]
    m, l = np.unravel_index(np.argmin(np.abs(lam - k * k)), lam.shape)
    return m + 1, l + 1, lam[m, l]


def validate_config(cfg: ExperimentConfig):
    """Regime report and warnings per (k, n) cell, as (k, n, p, report,
    warnings) tuples; ExperimentConfig has already rejected invalid layouts."""
    results = []
    for k, n in cfg.cells():
        p = (n - 1) // cfg.coarse_ratio
        h = 1.0 / (n - 1)
        rep = regime(k, h, cfg.coarse_ratio * h)
        warnings = []
        if not rep.kappa_h_ok:
            warnings.append(f"k={k} n={n}: kappa_h = {rep.kappa_h:.4g} exceeds 0.25")
        if not rep.kappa_H_ok:
            warnings.append(f"k={k} n={n}: kappa_H = {rep.kappa_H:.4g} exceeds 1")
        # the pollution product k^3 h^2 is reported but not warned about: the
        # sweep protocol intentionally uses the lighter kappa_h condition
        if cfg.problem == "MP1":
            m, l, lam = _nearest_dirichlet_mode(k, n)
            if abs(k * k - lam) <= RESONANCE_RTOL * k * k:
                warnings.append(
                    f"k={k} n={n}: k^2 is within {RESONANCE_RTOL:g} k^2 of the discrete"
                    f" Dirichlet eigenvalue (m, l) = ({m}, {l}); the MP1 matrix is near"
                    " singular"
                )
        if cfg.problem == "MP2" and n % 2 == 0:
            warnings.append(
                f"n={n}: MP2 with even n puts the source at node {(n - 1) // 2}, off the centre"
            )
        results.append((k, n, p, rep, warnings))
    return results


def _run_cell(cfg: ExperimentConfig, k, n: int, p: int, rep: RegimeReport) -> TableRow:
    t0 = time.perf_counter()
    grid = Grid(n=n, bc="dirichlet" if cfg.problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, cfg.problem)
    part = partition(grid, p)
    decomp = extend_max(part) if cfg.overlap == "max" else extend(part, int(cfg.overlap))
    # the order is free: on MP1 both galerkin and LocalSolves call scipy's eigh
    # (linalg.eigenbasis), LocalSolves just before the first solve, and a pause
    # there lowered no solve_s beyond the noise (CHANGES.md, the solve-path cuts)
    builders = {"FOCS": build_focs, "HOCS": build_hocs}
    spaces = {
        ck: galerkin(builders[ck](grid, cfg.coarse_ratio), prob) for ck in cfg.coarse_kinds
    }
    local_solves = LocalSolves(decomp, prob)
    setup_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    iterations = {}
    for ck in cfg.coarse_kinds:
        for pk in cfg.preconditioners:
            M = SchwarzPreconditioner(pk, spaces[ck], local_solves)
            report = gmres(prob.A, M, prob.f, cfg.gmres)
            iterations[f"{ck}_{pk}"] = report.iterations if report.converged else "x"
            del M, report  # the next solve runs without this one's x
    solve_seconds = time.perf_counter() - t1

    return TableRow(
        k=k,
        n=n,
        subdomains=decomp.num_subdomains,
        fine_nodes=grid.num_nodes,
        coarse_nodes=(p + 1) ** 2,
        kappa_h=rep.kappa_h,
        kappa_H=rep.kappa_H,
        iterations=iterations,
        setup_seconds=setup_seconds,
        solve_seconds=solve_seconds,
    )


def run_experiment(cfg: ExperimentConfig, warn=None) -> list:
    """Run every sweep cell; returns rows in sweep order.

    Regime violations are reported through warn (default: stderr) and never
    stop the run.
    """
    if warn is None:
        warn = lambda msg: print(msg, file=sys.stderr)
    validated = validate_config(cfg)
    for _, _, _, _, warnings in validated:
        for w in warnings:
            warn(f"warning: {w}")
    return [_run_cell(cfg, k, n, p, rep) for k, n, p, rep, _ in validated]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(rows: list, path) -> Path:
    """Write table rows as CSV, creating missing parent directories; refuses
    to write an empty table."""
    if not rows:
        raise ValueError("no rows to write; the sweep produced no results")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    combos = list(rows[0].iterations.keys())
    header = ["k", "n", "subdomains", "fine_nodes", "coarse_nodes", "kappa_h", "kappa_H"]
    header += combos + ["setup_seconds", "solve_seconds"]
    lines = [",".join(header)]
    for row in rows:
        record = [
            _fmt(row.k), _fmt(row.n), _fmt(row.subdomains), _fmt(row.fine_nodes),
            _fmt(row.coarse_nodes), _fmt(row.kappa_h), _fmt(row.kappa_H),
        ]
        record += [str(row.iterations[c]) for c in combos]
        record += [_fmt(row.setup_seconds), _fmt(row.solve_seconds)]
        lines.append(",".join(record))
    path.write_text("\n".join(lines) + "\n")
    return path


# Built-in benchmark sweeps (tables 1-4), each written as what differs from
# the defaults or from another table.  The solver side is pinned to
# left-preconditioned stopping; the nominal iteration counts the acceptance
# gate checks were recorded under it.
_TABLE_K = (20, 40, 60, 80, 100, 120, 140, 200)


def builtin_table(which: int) -> ExperimentConfig:
    if which == 1:
        return ExperimentConfig(
            problem="MP2",
            k_list=_TABLE_K,
            n_list=tuple(4 * k + 1 for k in _TABLE_K),
            coarse_kinds=("FOCS", "HOCS"),
            preconditioners=("AS2", "SAS2", "SHS2"),
            gmres=GmresConfig(side="left"),
            out="table1.csv",
        )
    if which == 2:
        return replace(builtin_table(1), problem="MP1", out="table2.csv")
    if which == 3:
        return ExperimentConfig(
            k_list=(10, 20, 30, 40, 50),
            n_list=tuple(range(33, 162, 8)),
            sweep="product",
            gmres=GmresConfig(max_iter=50, side="left"),
            out="table3.csv",
        )
    if which == 4:
        return replace(
            builtin_table(3),
            k_list=(5, 10, 15, 20, 25, 30),
            n_list=tuple(range(33, 258, 16)),
            coarse_ratio=16,
            out="table4.csv",
        )
    raise ConfigError(f"no built-in table {which}; choose 1, 2, 3 or 4")
