"""Span recorder that times bklab's layers from outside the program.

Tracing replaces each layer's public functions where their callers bind
them (``bklab.harness.simulate_path``, ``bklab.bk.jump_grid``, ...) and
the ``MarginalOracle.cdf``/``pdf``/``quantile`` and
``EmpiricalSummary.from_sample`` methods at class level with wrappers
that record one span per call: name, start, end, parent span, and the
seed of the cell the call belongs to (the ``seed`` argument of the
``simulate_path`` call that opened the cell). Spans are kept in memory
and written out once at the end. Cells only run in-process, so a traced
run must use ``--threads 1``.

A span's self time is its duration minus the time its child spans cover.
A layer is a bklab module; ``cli.main`` counts as part of the harness.
"""

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("bk", "empirical", "model", "paths", "decomp", "harness")


def _size_of(position):
    def count(args, kwargs, result):
        return int(np.size(args[position]))
    return count


def _result_size(args, kwargs, result):
    return int(np.size(result))


# (module, attribute, span name, points counter, cell role).
# Cell role "start" opens a new cell, "outside" marks work that belongs
# to no cell (oracle builds, the covariance Monte Carlo, entry points).
FUNCTIONS = (
    ("bklab.cli", "run_rate_scan", "harness.run_rate_scan", None, "outside"),
    ("bklab.cli", "run_increment_check", "harness.run_increment_check", None,
     "outside"),
    ("bklab.cli", "run_covariance_check", "harness.run_covariance_check",
     None, "outside"),
    ("bklab.harness", "increment_modulus", "harness.increment_modulus", None,
     None),
    ("bklab.harness", "simulate_path", "paths.simulate_path", None, "start"),
    ("bklab.harness", "pit_transform", "paths.pit_transform", None, None),
    ("bklab.harness", "residual_sup", "bk.residual_sup", None, None),
    ("bklab.harness", "weighted_residual_sup", "bk.weighted_residual_sup",
     None, None),
    ("bklab.harness", "residual_pointwise", "bk.residual_pointwise", None,
     None),
    ("bklab.bk", "residual_values", "bk.residual_values", _size_of(3), None),
    ("bklab.bk", "jump_grid", "empirical.jump_grid", _result_size, None),
    ("bklab.harness", "sup_abs_beta", "empirical.sup_abs_beta", None, None),
    ("bklab.harness", "sup_abs_u", "empirical.sup_abs_u", None, None),
    ("bklab.harness", "y_summands", "decomp.y_summands", None, None),
    ("bklab.harness", "covariance_gamma", "decomp.covariance_gamma", None,
     "outside"),
    ("bklab.harness", "build_marginal_oracle", "model.build_marginal_oracle",
     None, "outside"),
    ("bklab.harness", "exact_marginal_oracle", "model.exact_marginal_oracle",
     None, "outside"),
)
METHODS = (
    ("bklab.model", "MarginalOracle", "cdf", "model.cdf", _size_of(1)),
    ("bklab.model", "MarginalOracle", "pdf", "model.pdf", _size_of(1)),
    ("bklab.model", "MarginalOracle", "quantile", "model.quantile",
     _size_of(1)),
)
CLASSMETHODS = (
    ("bklab.empirical", "EmpiricalSummary", "from_sample",
     "empirical.from_sample"),
)


def layer_of(name):
    layer = name.split(".", 1)[0]
    return "harness" if layer == "cli" else layer


class Recorder:
    """In-memory spans plus per-name point counts and per-layer errors."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.seeds = []
        self.points = Counter()
        self.errors = Counter()
        self.cell_n = {}
        self._stack = []
        self._seed = None

    def wrap(self, name, fn, count=None, cell=None):
        rec = self
        layer = layer_of(name)
        signature = inspect.signature(fn) if cell == "start" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cell == "start":
                bound = signature.bind(*args, **kwargs).arguments
                rec._seed = int(bound["seed"])
                rec.cell_n[rec._seed] = int(bound["n"])
                rec.points[name] += int(bound["n"])
            elif cell == "outside":
                rec._seed = None
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.seeds.append(rec._seed)
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.errors[layer] += 1
                raise
            finally:
                rec.ends[idx] = time.perf_counter()
                rec.starts[idx] = start
                rec._stack.pop()
                if cell == "outside":
                    rec._seed = None
            if count is not None:
                rec.points[name] += count(args, kwargs, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur, dur - child

    def write(self, path):
        t0 = min(self.starts) if self.starts else 0.0
        spans = [[n, s - t0, e - t0, p, seed] for n, s, e, p, seed in zip(
            self.names, self.starts, self.ends, self.parents, self.seeds)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "cell_seed"],
                       "cell_n": {str(k): v for k, v in self.cell_n.items()},
                       "spans": spans}, fh)


@contextmanager
def installed(recorder):
    """Replace the traced functions for the duration of the block."""
    undo = []
    try:
        for mod_name, attr, name, count, cell in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            undo.append((mod, attr, orig))
            setattr(mod, attr, recorder.wrap(name, orig, count, cell))
        for mod_name, cls_name, attr, name, count in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, recorder.wrap(name, orig, count))
        for mod_name, cls_name, attr, name in CLASSMETHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, classmethod(recorder.wrap(name, orig.__func__)))
        yield recorder
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _sum_by(names, values, wanted):
    return float(sum(v for n, v in zip(names, values) if n in wanted))


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def cell_table(rec):
    """Per cell: n, duration, inclusive stage times and per-span self times.

    A cell's stages are its spans whose parent belongs to no cell (the
    calls the harness makes for it).
    """
    dur, self_t = rec.self_times()
    cells = {}
    for i, seed in enumerate(rec.seeds):
        if seed is None:
            continue
        c = cells.setdefault(seed, {"n": rec.cell_n[seed], "start": np.inf,
                                    "end": -np.inf, "stages": Counter(),
                                    "self": Counter()})
        c["start"] = min(c["start"], rec.starts[i])
        c["end"] = max(c["end"], rec.ends[i])
        p = rec.parents[i]
        if p < 0 or rec.seeds[p] != seed:
            c["stages"][rec.names[i]] += float(dur[i])
        c["self"][rec.names[i]] += float(self_t[i])
    for c in cells.values():
        c["seconds"] = c["end"] - c["start"]
    return cells


def stage_medians(cells):
    """{n: {"cells": k, "cell_s": median, stage or span.self: median s}}."""
    out = {}
    for n in sorted({c["n"] for c in cells.values()}):
        group = [c for c in cells.values() if c["n"] == n]
        row = {"cells": len(group),
               "cell_s": float(np.median([c["seconds"] for c in group]))}
        for key in ("stages", "self"):
            names = sorted({k for c in group for k in c[key]})
            for name in names:
                label = name if key == "stages" else f"{name}.self"
                row[label] = float(np.median([c[key][name] for c in group]))
        out[n] = row
    return out


def layer_metrics(rec, samples):
    """The per-layer metrics that come from the spans alone."""
    names = rec.names
    dur, self_t = rec.self_times()

    def self_of(*span_names):
        return _sum_by(names, self_t, set(span_names))

    calls = Counter(names)
    m = {}
    m["bk.residual_sup.self_s"] = self_of("bk.residual_sup")
    m["bk.weighted_residual_sup.self_s"] = self_of("bk.weighted_residual_sup")
    m["bk.residual_values.self_s"] = self_of("bk.residual_values")
    m["bk.residual_values.calls"] = calls["bk.residual_values"]
    m["bk.residual_values.points"] = rec.points["bk.residual_values"]
    m["bk.points_per_sample"] = rec.points["bk.residual_values"] / samples
    m["empirical.jump_grid.self_s"] = self_of("empirical.jump_grid")
    m["empirical.jump_grid.points"] = rec.points["empirical.jump_grid"]
    m["empirical.from_sample.self_s"] = self_of("empirical.from_sample")
    m["empirical.from_sample.calls"] = calls["empirical.from_sample"]
    m["empirical.sup_abs.self_s"] = self_of("empirical.sup_abs_beta",
                                            "empirical.sup_abs_u")
    m["model.build_oracle_s"] = _sum_by(
        names, dur, {"model.build_marginal_oracle",
                     "model.exact_marginal_oracle"})
    m["model.cdf.self_s"] = self_of("model.cdf")
    m["model.cdf.points"] = rec.points["model.cdf"]
    m["model.pdf.self_s"] = self_of("model.pdf")
    m["model.quantile.self_s"] = self_of("model.quantile")
    m["model.quantile.points"] = rec.points["model.quantile"]
    m["paths.simulate_path.self_s"] = self_of("paths.simulate_path")
    m["paths.simulate_path.samples"] = rec.points["paths.simulate_path"]
    m["paths.pit_transform.self_s"] = self_of("paths.pit_transform")
    m["decomp.y_summands.self_s"] = self_of("decomp.y_summands")
    m["decomp.covariance_gamma.self_s"] = self_of("decomp.covariance_gamma")
    m["harness.self_s"] = _sum_by(
        names, self_t, {n for n in calls if layer_of(n) == "harness"
                        and n != "harness.increment_modulus"})
    m["harness.increment_modulus.self_s"] = self_of(
        "harness.increment_modulus")

    cells = list(cell_table(rec).values())
    m["harness.cells"] = len(cells)
    ns = [c["n"] for c in cells]
    top = [1e3 * c["seconds"] for c in cells if c["n"] == max(ns, default=0)]
    bottom = [1e3 * c["seconds"] for c in cells if c["n"] == min(ns, default=0)]
    m["harness.cell_ms.top.p50"] = _percentile(top, 50)
    m["harness.cell_ms.top.p90"] = _percentile(top, 90)
    m["harness.cell_ms.bottom.p50"] = _percentile(bottom, 50)
    for layer in LAYERS:
        if layer != "harness":
            m[f"{layer}.self_s"] = float(sum(
                s for n, s in zip(names, self_t) if layer_of(n) == layer))
        m[f"{layer}.errors"] = rec.errors[layer]
    return m


def consistency_problems(rec, traced_wall, untraced_wall):
    """Check that the spans account for the traced wall time.

    The self times must add up to the root spans' time, and the root
    spans must cover the traced wall time up to the tracing overhead.
    """
    problems = []
    dur, self_t = rec.self_times()
    roots = float(sum(d for d, p in zip(dur, rec.parents) if p < 0))
    if abs(float(self_t.sum()) - roots) > 1e-6 * max(roots, 1.0):
        problems.append(f"self times sum to {float(self_t.sum())!r} s, "
                        f"root spans to {roots!r} s")
    if float(self_t.min(initial=0.0)) < -1e-9:
        problems.append("a span has negative self time")
    gap = traced_wall - roots
    overhead = max(traced_wall - untraced_wall, 0.0)
    # 1 ms covers the runner's own bookkeeping between CLI calls
    if gap < 0.0 or gap > overhead + 1e-3 * traced_wall + 1e-3:
        problems.append(f"root spans cover {roots:.6f} s of a {traced_wall:.6f} s "
                        f"traced wall; overhead is {overhead:.6f} s")
    return problems
