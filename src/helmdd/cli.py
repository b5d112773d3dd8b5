"""Command-line front end.

    helmdd run <config>        run a sweep described by a config file
    helmdd validate <config>   regime checks and warnings, no solves
    helmdd tables {1,2,3,4}    run a built-in benchmark table sweep
                               (--max-k K drops the cells with k > K)

Warnings go to stderr; the CSV lands at --out (or the config's out entry).
Exit code is 0 when the sweep completes, even if some cells did not
converge; nonzero only for structural errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .gmres import GmresConfig


def _add_solver_flags(sub):
    sub.add_argument("--out", type=Path, default=None, help="output CSV path")
    sub.add_argument("--max-iter", type=int, default=None, help="GMRES iteration cap override")
    sub.add_argument("--rtol", type=float, default=None, help="GMRES relative tolerance override")
    sub.add_argument(
        "--precond-side", choices=("left", "right"), default=None,
        help="preconditioning side override",
    )


def _apply_overrides(cfg: harness.ExperimentConfig, args) -> harness.ExperimentConfig:
    gmres_cfg = cfg.gmres
    updates = {}
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if args.rtol is not None:
        updates["rtol"] = args.rtol
    if args.precond_side is not None:
        updates["side"] = args.precond_side
    if updates:
        gmres_cfg = GmresConfig(
            rtol=updates.get("rtol", gmres_cfg.rtol),
            max_iter=updates.get("max_iter", gmres_cfg.max_iter),
            side=updates.get("side", gmres_cfg.side),
        )
        cfg = replace(cfg, gmres=gmres_cfg)
    if args.out is not None:
        cfg = replace(cfg, out=str(args.out))
    return cfg


def _drop_k_above(cfg: harness.ExperimentConfig, max_k: float) -> harness.ExperimentConfig:
    """Drop the sweep cells with k > max_k; a paired sweep loses the matching n too."""
    keep = [i for i, k in enumerate(cfg.k_list) if k <= max_k]
    k_list = tuple(cfg.k_list[i] for i in keep)
    if cfg.sweep == "paired":
        return replace(cfg, k_list=k_list, n_list=tuple(cfg.n_list[i] for i in keep))
    return replace(cfg, k_list=k_list)


def _run(cfg: harness.ExperimentConfig, default_out: str) -> int:
    rows = harness.run_experiment(cfg)
    out = cfg.out or default_out
    path = harness.emit_csv(rows, out)
    nonconverged = sum(1 for r in rows for v in r.iterations.values() if v == "x")
    print(f"wrote {len(rows)} rows to {path}" + (f" ({nonconverged} nonconverged cells)" if nonconverged else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="helmdd", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run a sweep from a config file")
    run_cmd.add_argument("config", type=Path)
    _add_solver_flags(run_cmd)

    val_cmd = commands.add_parser("validate", help="check a config without solving")
    val_cmd.add_argument("config", type=Path)

    tab_cmd = commands.add_parser("tables", help="run a built-in table sweep")
    tab_cmd.add_argument("which", type=int, choices=(1, 2, 3, 4))
    tab_cmd.add_argument("--max-k", type=float, default=None, help="drop sweep cells with k above this")
    _add_solver_flags(tab_cmd)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(harness.parse_config(args.config), args)
            return _run(cfg, default_out=f"{args.config.stem}_results.csv")
        if args.command == "validate":
            cfg = harness.parse_config(args.config)
            for k, n, p, rep, warnings in harness.validate_config(cfg):
                status = "ok" if not warnings else "WARN"
                print(
                    f"k={k} n={n}: p={p} ({p * p} subdomains), kappa_h={rep.kappa_h:.4g}, "
                    f"kappa_H={rep.kappa_H:.4g}, k^3h^2={rep.pollution_metric:.4g} [{status}]"
                )
                for w in warnings:
                    print(f"warning: {w}", file=sys.stderr)
            return 0
        cfg = _apply_overrides(harness.builtin_table(args.which), args)
        if args.max_k is not None:
            cfg = _drop_k_above(cfg, args.max_k)
        return _run(cfg, default_out=f"table{args.which}.csv")
    except (harness.ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
