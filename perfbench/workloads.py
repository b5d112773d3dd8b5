"""The benchmark's workloads: fixed cells of the paper's tables.

Each workload is a built-in table of `helmdd tables` cut down to a few of
its cells, so it runs through `run_experiment` with the table's own solver
settings (left preconditioning, rtol 1e-7, max overlap, H = H_sub).  The
inputs involve no random draw; the seed the benchmark takes does not change
them.

`expected` holds the iteration count of every (k, n, combination) that the
seed code produced; 'x' is the table's mark for a solve that hit the
iteration cap, and on mp1_k80_focs_as2 it is the correct result.
"""

from __future__ import annotations

from dataclasses import replace

WORKLOADS = {
    # north-star cell, mostly setup: 10,000 subdomains of at most 49
    # unknowns with only 9 distinct blocks, and a 10,201-unknown coarse LU
    "mp2_k100_hocs_shs2": {
        "table": 1,
        "k": (100,),
        "n": (401,),
        "coarse": ("HOCS",),
        "preconditioners": ("SHS2",),
        "expected": {(100, 401): {"HOCS_SHS2": 8}},
    },
    # mostly solve: 101 one-level applies over 6,400 subdomains and GMRES
    # orthogonalization up to the 100-iteration cap, negligible coarse work
    "mp1_k80_focs_as2": {
        "table": 2,
        "k": (80,),
        "n": (321,),
        "coarse": ("FOCS",),
        "preconditioners": ("AS2",),
        "expected": {(80, 321): {"FOCS_AS2": "x"}},
    },
    # table 4's n = 257 row: six cells of 256 large blocks and a 225-unknown
    # coarse problem, the only workload where per-cell harness cost shows
    "mp1_h16_sweep": {
        "table": 4,
        "k": (5, 10, 15, 20, 25, 30),
        "n": (257,),
        "coarse": ("HOCS",),
        "preconditioners": ("SHS2",),
        "expected": {
            (5, 257): {"HOCS_SHS2": 7},
            (10, 257): {"HOCS_SHS2": 6},
            (15, 257): {"HOCS_SHS2": 8},
            (20, 257): {"HOCS_SHS2": 8},
            (25, 257): {"HOCS_SHS2": 10},
            (30, 257): {"HOCS_SHS2": 18},
        },
    },
}


def experiment_config(harness, name: str):
    """The ExperimentConfig of a workload, derived from its built-in table."""
    w = WORKLOADS[name]
    return replace(
        harness.builtin_table(w["table"]),
        k_list=w["k"],
        n_list=w["n"],
        coarse_kinds=w["coarse"],
        preconditioners=w["preconditioners"],
    )


def check_rows(name: str, rows: list) -> list:
    """Compare table rows with the reference counts.

    Returns one (k, n, combination, expected, got) tuple per solve; got is
    None for a solve that is missing from the rows.
    """
    got = {(row["k"], row["n"]): row["iterations"] for row in rows}
    return [
        (k, n, combo, want, got.get((k, n), {}).get(combo))
        for (k, n), combos in WORKLOADS[name]["expected"].items()
        for combo, want in combos.items()
    ]
