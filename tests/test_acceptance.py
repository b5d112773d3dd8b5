"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The table criteria run the built-in benchmark sweeps (left-preconditioned
stopping, the convention the nominal counts were recorded under),
restricted to the wavenumbers each criterion names.  Iteration-count
tolerances are fixed here and nowhere else.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import numpy as np

from helmdd.coarse import build_focs, build_hocs, galerkin
from helmdd.decomposition import extend, extend_max, partition
from helmdd.discretization import Grid, assemble
from helmdd.gmres import GmresConfig, gmres
from helmdd.harness import builtin_table, run_experiment
from helmdd.linalg import factorize, solve
from helmdd.schwarz import SchwarzPreconditioner
from reference import subdomains, unknown_coords, weights

KS = (20, 40, 60, 80, 100)
NS = tuple(4 * k + 1 for k in KS)


def report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def run_rows(table, **overrides):
    cfg = replace(builtin_table(table), **overrides)
    return run_experiment(cfg, warn=lambda m: None)


def test_criterion_01_table1_hocs_robustness():
    """MP-2 HOCS columns constant in k: SHS2 in [5,11] with spread <= 2,
    AS2 in [17,25], SAS2 in [13,19]; the sweep finishes within 15 min."""
    t0 = time.time()
    rows = run_rows(1, k_list=KS, n_list=NS, coarse_kinds=("HOCS",))
    elapsed = time.time() - t0
    shs = [r.iterations["HOCS_SHS2"] for r in rows]
    sas = [r.iterations["HOCS_SAS2"] for r in rows]
    as2 = [r.iterations["HOCS_AS2"] for r in rows]
    ok = (
        all(isinstance(v, int) for v in shs + sas + as2)
        and max(shs) - min(shs) <= 2
        and all(5 <= v <= 11 for v in shs)
        and all(17 <= v <= 25 for v in as2)
        and all(13 <= v <= 19 for v in sas)
        and elapsed <= 900
    )
    report(1, "Table 1 HOCS robustness (MP-2)", ok,
           f"AS2={as2} SAS2={sas} SHS2={shs} elapsed={elapsed:.0f}s")
    assert ok, (as2, sas, shs, elapsed)


def test_criterion_02_table1_focs_growth():
    """MP-2 FOCS SHS2 grows strictly from k=20 to k=100 with ratio >= 1.8."""
    rows = run_rows(1, k_list=KS, n_list=NS, coarse_kinds=("FOCS",), preconditioners=("SHS2",))
    counts = [r.iterations["FOCS_SHS2"] for r in rows]
    ok = (
        all(isinstance(v, int) for v in counts)
        and all(b > a for a, b in zip(counts, counts[1:]))
        and counts[-1] / counts[0] >= 1.8
    )
    report(2, "Table 1 FOCS growth (MP-2)", ok, f"SHS2={counts}")
    assert ok, counts


def test_criterion_03_table2_contrast():
    """MP-1: FOCS AS2 hits the 100-iteration cap by k=80; HOCS SHS2 stays
    in [4,10] for every k."""
    (row80,) = run_rows(
        2, k_list=(80,), n_list=(321,), coarse_kinds=("FOCS",), preconditioners=("AS2",)
    )
    focs_as2 = row80.iterations["FOCS_AS2"]
    rows = run_rows(2, k_list=KS, n_list=NS, coarse_kinds=("HOCS",), preconditioners=("SHS2",))
    shs = [r.iterations["HOCS_SHS2"] for r in rows]
    ok = focs_as2 == "x" and all(isinstance(v, int) and 4 <= v <= 10 for v in shs)
    report(3, "Table 2 contrast (MP-1)", ok, f"FOCS_AS2(k=80)={focs_as2} HOCS_SHS2={shs}")
    assert ok, (focs_as2, shs)


def test_criterion_04_table3_regime_boundary():
    """SHS2/HOCS H=4h sweep: k=10 counts <= 9 for n >= 41; k=20 at n=161
    within [4,9]; counts nonincreasing in n past kappa_H <= 1 (+-1)."""
    ns = tuple(range(33, 162, 8))
    rows = run_rows(3, k_list=(10, 20), n_list=ns)
    by_k = {k: [r.iterations["HOCS_SHS2"] for r in rows if r.k == k] for k in (10, 20)}

    def capped(v):
        return 50 if v == "x" else v

    k10 = [capped(v) for v in by_k[10]]
    k20 = [capped(v) for v in by_k[20]]
    k10_ok = all(v <= 9 for n, v in zip(ns, k10) if n >= 41)
    k20_at_161 = k20[ns.index(161)]
    k20_ok = 4 <= k20_at_161 <= 9
    mono_ok = True
    for k, counts in ((10, k10), (20, k20)):
        tail = [v for n, v in zip(ns, counts) if n >= 4 * k + 1]
        mono_ok &= all(b <= a + 1 for a, b in zip(tail, tail[1:]))
    ok = k10_ok and k20_ok and mono_ok
    report(4, "Table 3 regime boundary", ok,
           f"k10={k10} k20={k20} k20@161={k20_at_161} monotone={mono_ok}")
    assert ok, (k10, k20)


def test_criterion_05_table4_spot_checks():
    """SHS2/HOCS H=16h: k=5 at n in (33, 257) within [3,11]; k=30 at n=257
    within [12,24] and at least 1.5x cheaper than the under-resolved small-n
    runs."""
    ns = (33, 49, 65, 81, 97, 113, 129, 257)
    rows = run_rows(4, k_list=(5, 30), n_list=ns)

    def capped(v):
        return 50 if v == "x" else v

    by = {(r.k, r.n): r.iterations["HOCS_SHS2"] for r in rows}
    k5 = [by[(5, 33)], by[(5, 257)]]
    k5_ok = all(isinstance(v, int) and 3 <= v <= 11 for v in k5)
    k30_big = by[(30, 257)]
    k30_big_ok = isinstance(k30_big, int) and 12 <= k30_big <= 24
    small_peak = max(capped(by[(30, n)]) for n in ns[:-1])
    ratio_ok = small_peak >= 1.5 * capped(k30_big)
    ok = k5_ok and k30_big_ok and ratio_ok
    report(5, "Table 4 spot checks (H=16h)", ok,
           f"k5={k5} k30@257={k30_big} small-n peak={small_peak}")
    assert ok, (k5, k30_big, small_peak)


def test_criterion_06_operator_oracle_equivalence():
    """Dense assemblies of the three preconditioners match the matrix-free
    applications to 1e-10 on every instance with <= 200 unknowns."""
    from test_schwarz import ORACLE_INSTANCES, dense_preconditioner, make_instance

    worst = 0.0
    for n, k, problem, p, ck, ratio in ORACLE_INSTANCES:
        prob, dec, cs = make_instance(n, k, problem, p, ck, ratio)
        assert prob.A.shape[0] <= 200
        eye = np.eye(prob.A.shape[0], dtype=prob.A.dtype)
        for kind in ("AS2", "SAS2", "SHS2"):
            M = SchwarzPreconditioner(kind, prob, dec, cs)
            dense = dense_preconditioner(kind, prob.A, dec, cs)
            got = np.column_stack([M(e) for e in eye])
            worst = max(worst, np.abs(got - dense).max() / np.abs(dense).max())
    ok = worst < 1e-10
    report(6, "Operator oracle equivalence", ok, f"worst rel err={worst:.2e}")
    assert ok, worst


def test_criterion_07_partition_of_unity():
    """sum R_i^T D_i R_i = I entrywise to 1e-15 on >= 10 configurations."""
    configs = [
        (9, 2, 0, "dirichlet"), (9, 2, 1, "dirichlet"), (9, 2, 2, "dirichlet"),
        (17, 2, 2, "dirichlet"), (17, 4, 1, "dirichlet"), (17, 4, 2, "dirichlet"),
        (33, 4, 4, "dirichlet"), (9, 2, 2, "sommerfeld"), (17, 4, 2, "sommerfeld"),
        (33, 8, 2, "sommerfeld"), (25, 3, 2, "sommerfeld"), (65, 16, 2, "dirichlet"),
    ]
    worst = 0.0
    for n, p, m, bc in configs:
        g = Grid(n, bc)
        dec = extend(partition(g, p), m)
        total = np.zeros(g.num_unknowns)
        for idx, w in zip(subdomains(dec), weights(dec)):
            total[idx] += w
        worst = max(worst, np.abs(total - 1.0).max())
    ok = worst < 1e-15 and len(configs) >= 10
    report(7, "Partition-of-unity identity", ok,
           f"{len(configs)} configs, worst deviation={worst:.2e}")
    assert ok, worst


def test_criterion_08_discretization_order():
    """Manufactured MP-1 solution converges at second order: error ratios
    within [3.5, 4.5] over three refinements."""
    k = 3.0
    errors = []
    for n in (17, 33, 65, 129):
        g = Grid(n, "dirichlet")
        prob = assemble(g, k, "MP1")
        x, y = unknown_coords(g)
        ustar = np.sin(np.pi * x) * np.sin(np.pi * y)
        u = solve(factorize(prob.A), (2 * np.pi**2 - k**2) * ustar)
        errors.append(np.abs(u - ustar).max())
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(8, "Discretization order", ok, f"ratios={[f'{r:.2f}' for r in ratios]}")
    assert ok, ratios


def test_criterion_09_degenerate_exactness():
    """Full-space coarse grid makes SHS2 an exact solve (1 GMRES iteration);
    zero overlap makes SAS2 identical to AS2."""
    g = Grid(9, "dirichlet")
    prob = assemble(g, 2.0, "MP1")
    dec = extend_max(partition(g, 2))
    cs_full = galerkin(build_focs(g, 1), prob)
    shs = SchwarzPreconditioner("SHS2", prob, dec, cs_full)
    rep = gmres(prob.A, shs, prob.f, GmresConfig())
    one_iter = rep.converged and rep.iterations == 1

    dec0 = extend(partition(g, 2), 0)
    cs = galerkin(build_focs(g, 4), prob)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(g.num_unknowns)
    a = SchwarzPreconditioner("AS2", prob, dec0, cs)(x)
    b = SchwarzPreconditioner("SAS2", prob, dec0, cs)(x)
    same = np.abs(a - b).max() <= 1e-15 * np.abs(a).max()
    ok = one_iter and same
    report(9, "Degenerate exactness", ok,
           f"SHS2 full-coarse iterations={rep.iterations}, m=0 max|AS2-SAS2|={np.abs(a - b).max():.2e}")
    assert ok, (rep.iterations, np.abs(a - b).max())


def test_criterion_10_scaling_invariances():
    """Rescaling P by 3 (R_0 = P(x)P by 9) leaves all applications unchanged
    to 1e-12; scaling b by 5 leaves iteration counts unchanged exactly."""
    g = Grid(33, "dirichlet")
    prob = assemble(g, 10.0, "MP1")
    dec = extend_max(partition(g, 8))
    cs = galerkin(build_hocs(g, 4), prob)
    scaled = galerkin(replace(cs, p=(3.0 * cs.p).tocsr(), a0_factorization=None), prob)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(g.num_unknowns)
    worst = 0.0
    for kind in ("AS2", "SAS2", "SHS2"):
        a = SchwarzPreconditioner(kind, prob, dec, cs)(x)
        b = SchwarzPreconditioner(kind, prob, dec, scaled)(x)
        worst = max(worst, np.abs(a - b).max() / np.abs(a).max())
    r0_ok = worst < 1e-12

    M = SchwarzPreconditioner("SHS2", prob, dec, cs)
    counts = []
    for side in ("right", "left"):
        cfg = GmresConfig(side=side)
        r1 = gmres(prob.A, M, prob.f, cfg)
        r5 = gmres(prob.A, M, 5.0 * prob.f, cfg)
        counts.append((r1.iterations, r5.iterations))
    b_ok = all(a == b for a, b in counts)
    ok = r0_ok and b_ok
    report(10, "Scaling invariances", ok, f"R0 worst rel diff={worst:.2e}, counts={counts}")
    assert ok, (worst, counts)
