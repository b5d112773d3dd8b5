"""Command-line front end.

    helmdd run <config>        run a sweep described by a config file
    helmdd validate <config>   regime checks and warnings, no solves
    helmdd tables {1,2,3,4}    run a built-in benchmark table sweep
                               (--max-k K drops the cells with k > K)

The GMRES settings (rtol, max_iter, precond_side) come from the config
file or the built-in table; no flag overrides them.  Warnings go to
stderr; the CSV lands at --out (or the config's out entry).  Exit code is
0 when the sweep completes, even if some cells did not converge; 2 for
structural errors and output paths that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness


def _drop_k_above(cfg: harness.ExperimentConfig, max_k: float) -> harness.ExperimentConfig:
    """Drop the sweep cells with k > max_k; a paired sweep loses the matching n too."""
    keep = [i for i, k in enumerate(cfg.k_list) if k <= max_k]
    k_list = tuple(cfg.k_list[i] for i in keep)
    if cfg.sweep == "paired":
        return replace(cfg, k_list=k_list, n_list=tuple(cfg.n_list[i] for i in keep))
    return replace(cfg, k_list=k_list)


def _run(cfg: harness.ExperimentConfig, out: Path) -> int:
    if out.is_dir():
        raise IsADirectoryError(f"output path {out} is a directory")
    rows = harness.run_experiment(cfg)
    path = harness.emit_csv(rows, out)
    nonconverged = sum(1 for r in rows for v in r.iterations.values() if v == "x")
    print(f"wrote {len(rows)} rows to {path}" + (f" ({nonconverged} nonconverged cells)" if nonconverged else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="helmdd", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run a sweep from a config file")
    run_cmd.add_argument("config", type=Path)
    run_cmd.add_argument("--out", type=Path, default=None, help="output CSV path")

    val_cmd = commands.add_parser("validate", help="check a config without solving")
    val_cmd.add_argument("config", type=Path)

    tab_cmd = commands.add_parser("tables", help="run a built-in table sweep")
    tab_cmd.add_argument("which", type=int, choices=(1, 2, 3, 4))
    tab_cmd.add_argument("--max-k", type=float, default=None, help="drop sweep cells with k above this")
    tab_cmd.add_argument("--out", type=Path, default=None, help="output CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = harness.parse_config(args.config)
            return _run(cfg, args.out or Path(cfg.out or f"{args.config.stem}_results.csv"))
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
        cfg = harness.builtin_table(args.which)
        if args.max_k is not None:
            if not args.max_k >= min(cfg.k_list):
                raise harness.ConfigError(
                    f"--max-k {args.max_k:g} drops every cell of table {args.which}, "
                    f"whose smallest k is {min(cfg.k_list):g}"
                )
            cfg = _drop_k_above(cfg, args.max_k)
        return _run(cfg, args.out or Path(cfg.out))
    except (harness.ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
