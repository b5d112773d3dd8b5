"""Experiment runner: sweeps (k, n, coarse kind, preconditioner) cells,
collects GMRES iteration counts into table rows, and writes CSV reports.

The cells of one n run one after another and share that layout's
k-independent setup (_Layout): the coarse spaces and schwarz.LocalLayout,
which holds the decomposition, the interval classes, the gather and the
layout's one memo of eigenbases, so a later cell computes only those of
pencils that hold k (none on MP1; on MP2 the end intervals' and coarse
ones).  The first cell builds it after assembling its problem, inside its
own setup time; the layout is dropped before the next n, and the rows come
back in sweep order.  A cell factors the Galerkin coarse problem once per
coarse kind and builds its local solves once with schwarz.LocalSolves,
shared by every preconditioner kind; a SingularMatrixError in either
names its cell and level.  Nonconverged solves are reported with the
literal 'x' in place of the iteration count.  Reruns of the same
configuration at a fixed BLAS thread count produce identical counts; only
the timing columns vary.  Cells whose residual stagnates near the tolerance
(FOCS on MP1, or kappa_H > 1) move by a few iterations, or across the cap,
under any change of rounding; no HOCS cell with kappa_H <= 1 moves.
tests/golden.py states how far such a count may move, and CHANGES.md
records the counts that have moved.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import decomposition
from .coarse import COARSE_KINDS, build_focs, build_hocs, galerkin
from .decomposition import extend, extend_max, partition
from .discretization import PROBLEMS, Grid, RegimeReport, assemble, regime
from .gmres import GmresConfig, gmres
from .linalg import SingularMatrixError
from .schwarz import PRECONDITIONER_KINDS, LocalLayout, LocalSolves, SchwarzPreconditioner

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

        # bool is an Integral subclass, and True is no k, n, ratio or overlap
        def integer(v, least):
            return not isinstance(v, bool) and isinstance(v, numbers.Integral) and v >= least

        check(self.problem in PROBLEMS, f"problem must be one of {tuple(PROBLEMS)}, got {self.problem!r}")
        sweeps = ("paired", "product")
        check(self.sweep in sweeps, f"sweep must be 'paired' or 'product', got {self.sweep!r}")
        check(self.k_list and self.n_list, "both k and n sweep lists are required")
        check(
            self.sweep == "product" or len(self.k_list) == len(self.n_list),
            f"paired sweep needs equally long k and n lists, "
            f"got {len(self.k_list)} and {len(self.n_list)}",
        )
        for k in self.k_list:
            positive = not isinstance(k, bool) and isinstance(k, numbers.Real) and 0 < k < math.inf
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
        for n in self.n_list:
            check((n - 1) % ratio == 0, f"coarse ratio {ratio} does not divide n-1 = {n - 1}")
            if self.problem == "MP1":
                check(n % 2 == 1, f"n={n}: MP1 needs odd n (no grid node at the source)")
                check(
                    n - 1 != ratio,
                    f"n={n} with coarse ratio {ratio} leaves the MP1 coarse grid no interior node",
                )
                # the owned nodes of the last box row and column are boundary
                # nodes, and at ratio 1 the maximum overlap is 0 layers
                check(
                    ratio > 1 or overlap not in ("max", 0),
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
    setup_seconds: float
    solve_seconds: float


def _number(text: str):
    """The number text spells, an int when it is integer-valued ("1e2" and
    "100.0" read as 100), or else text in lower case."""
    text = text.lower()
    try:
        v = float(text)
    except ValueError:
        return text
    return int(v) if v.is_integer() else v


def _items(read):
    return lambda text: tuple(read(item.strip()) for item in text.split(",") if item.strip())


# each config key -> (the ExperimentConfig or GmresConfig field it sets, its reader)
CONFIG_KEYS = {
    "problem": ("problem", str.upper),
    "k": ("k_list", _items(_number)),
    "n": ("n_list", _items(_number)),
    "sweep": ("sweep", _number),
    "coarse_ratio": ("coarse_ratio", _number),
    "coarse": ("coarse_kinds", _items(str.upper)),
    "preconditioners": ("preconditioners", _items(str.upper)),
    "overlap": ("overlap", _number),
    "rtol": ("rtol", _number),
    "max_iter": ("max_iter", _number),
    "precond_side": ("side", _number),
    "out": ("out", str),
}


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file; keys are unique, lists
    comma-separated.  The sweep lists k and n are required; a key left out
    takes the default of ExperimentConfig or GmresConfig.  This only parses:
    the dataclasses check the values."""
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
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")

    args = {"k_list": (), "n_list": ()}  # so that a file without k or n is rejected
    for key, text in values.items():
        name, read = CONFIG_KEYS[key]
        args[name] = read(text)
        if args[name] == ():
            raise ConfigError(f"{path}: {key} must list at least one value, got {text!r}")
    solver = {f.name: args.pop(f.name) for f in fields(GmresConfig) if f.name in args}
    try:
        return ExperimentConfig(**args, gmres=GmresConfig(**solver))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


@dataclass
class _Layout:
    """The k-independent setup that the cells of one n share: the coarse
    spaces and the LocalLayout, which holds the decomposition and the one
    memo of eigenbases.  The layout's first cell fills it in."""

    spaces: dict = field(default_factory=dict)
    local: LocalLayout | None = None


def _named(what: str, k, n: int, build, *args):
    """build(*args), a SingularMatrixError raised in it named with its cell and level."""
    try:
        return build(*args)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"k={k} n={n} {what}: {exc}") from exc


def _run_cell(cfg: ExperimentConfig, k, n: int, p: int, rep: RegimeReport, layout: _Layout) -> TableRow:
    t0 = time.perf_counter()
    grid = Grid(n=n, bc=PROBLEMS[cfg.problem])
    prob = assemble(grid, k, cfg.problem)
    if layout.local is None:
        # one name for both, so the zero-overlap decomposition is not held through the solves
        decomp = partition(grid, p)
        decomp = extend_max(decomp) if cfg.overlap == "max" else extend(decomp, int(cfg.overlap))
        builders = {"FOCS": build_focs, "HOCS": build_hocs}
        layout.spaces = {ck: builders[ck](grid, cfg.coarse_ratio) for ck in cfg.coarse_kinds}
        layout.local = LocalLayout(decomp, prob)
    decomp, bases = layout.local.decomposition, layout.local.bases
    # the order is free: on MP1 only a layout's first cell calls scipy's eigh
    # (linalg.eigenbasis), in galerkin and then in LocalSolves, and a pause between
    # LocalSolves and the first solve lowered no solve_s beyond the noise
    # (CHANGES.md, the solve-path cuts); later cells take every eigenbasis from
    # the layout's one memo, layout.local.bases
    levels = {ck: _named(f"{ck} coarse problem", k, n, galerkin, cs, prob, bases) for ck, cs in layout.spaces.items()}
    local_solves = _named("local solves", k, n, LocalSolves, decomp, prob, layout.local)
    setup_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    iterations = {}
    for ck in cfg.coarse_kinds:
        for pk in cfg.preconditioners:
            M = SchwarzPreconditioner(pk, levels[ck], local_solves)
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

    The cells of one n run one after another and share one _Layout, so a
    layout is built once and only one is alive at a time.  Regime violations
    are reported through warn (default: stderr) and never stop the run.
    """
    if warn is None:
        warn = lambda msg: print(msg, file=sys.stderr)
    validated = validate_config(cfg)
    for _, _, _, _, warnings in validated:
        for w in warnings:
            warn(f"warning: {w}")
    rows = [None] * len(validated)
    for n in dict.fromkeys(n for _, n, *_ in validated):  # in the order of first appearance
        layout = _Layout()
        for i, (k, cell_n, p, rep, _) in enumerate(validated):
            if cell_n == n:
                rows[i] = _run_cell(cfg, k, n, p, rep, layout)
    return rows


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
    columns = ["k", "n", "subdomains", "fine_nodes", "coarse_nodes", "kappa_h", "kappa_H"]
    columns += [*rows[0].iterations, "setup_seconds", "solve_seconds"]
    lines = [",".join(columns)]
    for row in rows:
        values = {**vars(row), **row.iterations}
        lines.append(",".join(_fmt(values[c]) for c in columns))
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
