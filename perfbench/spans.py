"""Spans around helmdd's layer calls, recorded from outside the package.

A Tracer replaces a function or method with a wrapper that records one span
per call: name, start, end and the span that was open when the call began.
The wrappers are installed on the names the callers look up at run time, so
nothing inside helmdd changes:

* `harness` looks up its step functions in its own module namespace
  (`harness.local_matrix`, `harness.galerkin`, `harness.gmres`, ...),
* every factorization and triangular solve goes through the module
  attributes `linalg.factorize` and `linalg.solve`,
* the preconditioner reaches the coarse level through
  `schwarz.coarse_correct`, and GMRES calls the preconditioner object,
  which dispatches to `SchwarzPreconditioner.__call__`.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.  Work the tracer does
for a span after the call returned (hashing a block, counting fill) is
recorded as a sibling span named `trace.record`, so self times still add up
to the enclosing span.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

import numpy as np

CELL = "harness.cell"
SOLVE = "gmres.gmres"
RECORD = "trace.record"


def _factorization_attrs(args, result):
    A = args[0]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((A.shape, A.dtype.str)).encode())
    for part in (A.indptr, A.indices, A.data):
        digest.update(np.ascontiguousarray(part).tobytes())
    return {"fill_nnz": int(result.fill_nnz), "block": digest.hexdigest()}


def _galerkin_attrs(args, result):
    return {"a0_nnz": int(result.a0.nnz)}


def _solve_attrs(args, result):
    return {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "final_residual": float(result.final_residual),
    }


def targets(helmdd, full: bool) -> list:
    """(owner, attribute, span name, attribute recorder) for each wrapped call.

    The light set marks only cell and solve boundaries, which is what the
    untraced end-to-end run needs to split setup from solve time.
    """
    harness, linalg, schwarz = helmdd.harness, helmdd.linalg, helmdd.schwarz
    light = [
        (harness, "_run_cell", CELL, None),
        (harness, "gmres", SOLVE, _solve_attrs),
    ]
    if not full:
        return light
    precond = schwarz.SchwarzPreconditioner
    return light + [
        (harness, "assemble", "discretization.assemble", None),
        (harness, "partition", "decomposition.partition", None),
        (harness, "extend", "decomposition.extend", None),
        (harness, "extend_max", "decomposition.extend_max", None),
        (harness, "local_matrix", "decomposition.local_matrix", None),
        (linalg, "factorize", "linalg.factorize", _factorization_attrs),
        (linalg, "solve", "linalg.solve", None),
        (harness, "build_focs", "coarse.build_focs", None),
        (harness, "build_hocs", "coarse.build_hocs", None),
        (harness, "galerkin", "coarse.galerkin", _galerkin_attrs),
        (schwarz, "coarse_correct", "coarse.coarse_correct", None),
        (precond, "__init__", "schwarz.init", None),
        (precond, "__call__", "schwarz.apply", None),
    ]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.attrs: dict = {}
        self._open = [-1]

    def wrap(self, name: str, fn, recorder=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        attrs, open_spans, clock = self.attrs, self._open, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            parent = open_spans[-1]
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()
            if recorder is not None:
                j = len(starts)
                names.append(RECORD)
                parents.append(parent)
                starts.append(clock())
                ends.append(0.0)
                attrs[i] = recorder(args, result)
                ends[j] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, wrap_targets):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, recorder in wrap_targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, recorder))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.parents, self.starts, self.ends, self.attrs)


class SpanTable:
    """Spans as arrays, with durations and self times."""

    def __init__(self, names, parents, starts, ends, attrs):
        self.vocabulary = sorted(set(names))
        code = {name: c for c, name in enumerate(self.vocabulary)}
        self.codes = np.fromiter((code[n] for n in names), dtype=np.int64, count=len(names))
        self.parents = np.asarray(parents, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=float)
        self.ends = np.asarray(ends, dtype=float)
        self.attrs = attrs
        self.durations = self.ends - self.starts
        nested = self.parents >= 0
        child_time = np.zeros(len(self.durations))
        np.add.at(child_time, self.parents[nested], self.durations[nested])
        self.self_times = self.durations - child_time
        self.parent_codes = np.full(len(self.codes), -1)
        self.parent_codes[nested] = self.codes[self.parents[nested]]

    def __len__(self):
        return len(self.durations)

    def _code(self, name: str) -> int:
        return self.vocabulary.index(name) if name in self.vocabulary else -2

    def select(self, name: str, parent: str | None = None) -> np.ndarray:
        """Indices of the spans called name (whose parent is called parent)."""
        mask = self.codes == self._code(name)
        if parent is not None:
            mask &= self.parent_codes == self._code(parent)
        return np.flatnonzero(mask)

    def total(self, name: str, parent: str | None = None) -> float:
        return float(self.durations[self.select(name, parent)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_times[self.select(name)].sum())

    def attr_values(self, name: str, key: str, parent: str | None = None) -> list:
        return [self.attrs[i][key] for i in self.select(name, parent)]

    def phases(self) -> dict:
        """End-to-end split: setup is each cell's time up to its first solve."""
        cells = self.select(CELL)
        solves = self.select(SOLVE)
        setup = 0.0
        for c in cells:
            inside = solves[self.parents[solves] == c]
            first = self.starts[inside].min() if len(inside) else self.ends[c]
            setup += first - self.starts[c]
        return {"setup_s": setup, "solve_s": float(self.durations[solves].sum())}

    def layer_metrics(self) -> dict:
        """Per-layer times (s), counts and ratios of a fully traced run."""
        local_factor = self.select("linalg.factorize", CELL)
        blocks = {self.attrs[i]["block"] for i in local_factor}
        applies = self.select("schwarz.apply")
        apply_ms = float(np.median(self.durations[applies]) * 1e3) if len(applies) else 0.0
        return {
            "harness.cells": len(self.select(CELL)),
            "harness.self_s": self.self_total(CELL),
            "discretization.assemble_s": self.total("discretization.assemble"),
            "decomposition.local_matrix_s": self.total("decomposition.local_matrix"),
            "decomposition.local_matrix_calls": len(self.select("decomposition.local_matrix")),
            "linalg.factorize_local_s": float(self.durations[local_factor].sum()),
            "linalg.factorize_local_calls": len(local_factor),
            "linalg.local_fill_nnz": sum(self.attr_values("linalg.factorize", "fill_nnz", CELL)),
            "linalg.local_distinct_ratio": len(blocks) / max(len(local_factor), 1),
            "coarse.build_s": self.total("coarse.build_focs") + self.total("coarse.build_hocs"),
            "coarse.galerkin_s": self.self_total("coarse.galerkin"),
            "linalg.factorize_coarse_s": self.total("linalg.factorize", "coarse.galerkin"),
            "linalg.coarse_fill_nnz": sum(
                self.attr_values("linalg.factorize", "fill_nnz", "coarse.galerkin")
            ),
            "coarse.a0_nnz": sum(self.attr_values("coarse.galerkin", "a0_nnz")),
            "schwarz.apply_calls": len(applies),
            "schwarz.apply_ms": apply_ms,
            "schwarz.apply_self_s": self.self_total("schwarz.apply"),
            "linalg.solve_local_s": self.total("linalg.solve", "schwarz.apply"),
            "linalg.solve_calls": len(self.select("linalg.solve", "schwarz.apply")),
            "coarse.correct_s": self.total("coarse.coarse_correct"),
            "linalg.solve_coarse_s": self.total("linalg.solve", "coarse.coarse_correct"),
            "gmres.iterations": sum(self.attr_values(SOLVE, "iterations")),
            "gmres.self_s": self.self_total(SOLVE),
            "gmres.true_residual_max": max(self.attr_values(SOLVE, "final_residual"), default=0.0),
        }

    def save(self, path) -> None:
        """Write the spans as arrays; names are stored once, as codes."""
        np.savez(
            path,
            vocabulary=np.asarray(self.vocabulary),
            codes=self.codes.astype(np.int16),
            parents=self.parents.astype(np.int32),
            starts=self.starts,
            ends=self.ends,
        )
