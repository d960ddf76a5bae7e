"""Spans around the calls into each powerprobe layer, for the traced run.

`Tracer.install` replaces module attributes of the imported package with
timing wrappers, in this process only, so nothing under src/ changes.  Spans
stay in memory until the run ends; `write` dumps them as JSON lines and
`layer_metrics` folds them into the per-layer metrics of BENCHMARK.json.

Queries to a hidden oracle (one made by `make_oracle`) are not spans: each is
counted, and its time added, on the innermost open span.  A benchmark op
makes tens of thousands of them, and one span each would swamp memory.
"""

from __future__ import annotations

import functools
import json
import time

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("ff_core.ctx_builds", "count"),
    ("ff_core.ctx_build_ms", "ms"),
    ("ff_core.extract_roots_calls", "count"),
    ("ff_core.extract_roots_ms", "ms"),
    ("oracle.queries", "queries"),
    ("oracle.query_ms", "ms"),
    ("algorithms.step1_ms", "ms"),
    ("algorithms.step1_queries", "queries"),
    ("algorithms.step1_pairs", "count"),
    ("algorithms.step2_ms", "ms"),
    ("algorithms.step2_rank_events", "count"),
    ("algorithms.step2_candidates", "count"),
    ("algorithms.step3_ms", "ms"),
    ("algorithms.step3_value_filter_kept", "count"),
    ("algorithms.step3_survivors", "count"),
    ("algorithms.step3_queries", "queries"),
    ("algorithms.candidate_yield", "ratio"),
    ("algorithms.identity_ms", "ms"),
    ("algorithms.identity_queries", "queries"),
    ("poly_algebra.perfect_power_decompose_ms", "ms"),
    ("poly_algebra.resultant_shifted_ms", "ms"),
    ("bounds_lab.cells", "count"),
    ("bounds_lab.value_set_ms", "ms"),
    ("bounds_lab.curve_points_ms", "ms"),
    ("bounds_lab.shifted_intersection_ms", "ms"),
    ("bounds_lab.interpolating_count_ms", "ms"),
    ("bounds_lab.sweep_self_ms", "ms"),
    ("cli.self_ms", "ms"),
)


class Span:
    __slots__ = ("name", "op", "parent", "t0", "t1", "child_s", "q", "q_s",
                 "q_incl", "counts")

    def __init__(self, name, op, parent, t0):
        self.name = name
        self.op = op
        self.parent = parent
        self.t0 = t0
        self.t1 = t0
        self.child_s = 0.0   # time covered by direct child spans
        self.q = 0           # hidden-oracle queries made directly inside
        self.q_s = 0.0       # their time
        self.q_incl = 0      # queries inside this span and its children
        self.counts = {}

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1000.0

    @property
    def self_ms(self) -> float:
        return self.ms - (self.child_s + self.q_s) * 1000.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._hidden: set[int] = set()
        self._op = -1

    # ---------- spans ----------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()
        span.q_incl += span.q
        if span.parent is not None:
            span.parent.child_s += span.t1 - span.t0
            span.parent.q_incl += span.q_incl

    def begin_op(self, name: str) -> Span:
        """Open the root span of one benchmark operation."""
        self._op += 1
        self._hidden.clear()
        return self._open(name)

    def end_op(self, root: Span) -> int:
        """Close the root span; return the hidden-oracle queries it saw."""
        self._close(root)
        return root.q_incl

    # ---------- patching ----------

    def _wrap(self, owner, attr, name, counts=None, before=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            span = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts:
                span.counts.update(counts(out, args, kwargs, pre))
            return out

        setattr(owner, attr, traced)

    def _wrap_make_oracle(self, module):
        orig = module.make_oracle
        hidden = self._hidden

        @functools.wraps(orig)
        def make_oracle(*args, **kwargs):
            oracle = orig(*args, **kwargs)
            hidden.add(id(oracle))
            return oracle

        module.make_oracle = make_oracle

    def _wrap_query(self, cls):
        orig = cls.query
        hidden, stack = self._hidden, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def query(oracle, x):
            if id(oracle) not in hidden:
                return orig(oracle, x)
            t0 = clock()
            answer = orig(oracle, x)
            span = stack[-1]
            span.q_s += clock() - t0
            span.q += 1
            return answer

        cls.query = query

    def install(self, pkg) -> None:
        """Wrap the attributes that interpolate, identity_test, sweep and the
        CLI call through.  `pkg` is the imported powerprobe package."""
        ff, orc, alg = pkg.ff_core, pkg.oracle, pkg.algorithms
        bl, cli = pkg.bounds_lab, pkg.cli

        w = self._wrap
        w(ff.PrimeFieldCtx, "__init__", "ff_core.ctx_build")
        w(ff.PrimeFieldCtx, "extract_roots", "ff_core.extract_roots")
        self._wrap_query(orc.PowerOracle)
        self._wrap_make_oracle(orc)
        self._wrap_make_oracle(cli)

        w(alg, "step1_collect", "algorithms.step1",
          counts=lambda s1, a, k, pre: {
              "pairs": sum(len(g.pairs) for g in s1.groups)})

        def rank_before(args, kwargs):
            log = kwargs.get("rank_log")
            return log.events if log is not None else 0

        w(alg, "step2_candidates", "algorithms.step2", before=rank_before,
          counts=lambda cs, a, k, pre: {
              "rank_events": cs.rank.events - pre,
              "candidates": len(cs.polys)})
        w(alg, "step3_filter", "algorithms.step3",
          counts=lambda out, a, k, pre: {
              "candidates_in": out[1].candidates_in,
              "value_filter_kept": out[1].after_value_filter,
              "survivors": len(out[1].survivors),
              "winners": len(out[1].winners)})
        for module in (alg, cli):
            w(module, "identity_test", "algorithms.identity")

        for module in (orc, bl):
            w(module, "perfect_power_decompose",
              "poly_algebra.perfect_power_decompose")
        w(bl, "resultant_shifted", "poly_algebra.resultant_shifted")
        for exp, fn in (("value_set", "count_value_set_in_subgroup"),
                        ("curve_points", "count_curve_points_on_subgroups"),
                        ("shifted_intersection",
                         "count_shifted_subgroup_intersection"),
                        ("interpolating_count",
                         "count_interpolating_polynomials")):
            w(bl, fn, "bounds_lab." + exp)
        w(cli, "sweep", "bounds_lab.sweep",
          counts=lambda rows, a, k, pre: {"cells": len(rows)})

    # ---------- output ----------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, each a total over the run divided by `ops`,
        except candidate_yield, which is recovered / candidates examined."""
        tot: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
        recovered = examined = 0

        def add(key, value):
            tot[key] += value

        for s in self.spans:
            add("oracle.queries", s.q)
            add("oracle.query_ms", s.q_s * 1000.0)
            n, c = s.name, s.counts
            if n == "ff_core.ctx_build":
                add("ff_core.ctx_builds", 1)
                add("ff_core.ctx_build_ms", s.ms)
            elif n == "ff_core.extract_roots":
                add("ff_core.extract_roots_calls", 1)
                add("ff_core.extract_roots_ms", s.ms)
            elif n == "algorithms.step1":
                add("algorithms.step1_ms", s.ms)
                add("algorithms.step1_queries", s.q_incl)
                add("algorithms.step1_pairs", c.get("pairs", 0))
            elif n == "algorithms.step2":
                add("algorithms.step2_ms", s.ms)
                add("algorithms.step2_rank_events", c.get("rank_events", 0))
                add("algorithms.step2_candidates", c.get("candidates", 0))
            elif n == "algorithms.step3":
                add("algorithms.step3_ms", s.ms)
                add("algorithms.step3_queries", s.q_incl)
                add("algorithms.step3_value_filter_kept",
                    c.get("value_filter_kept", 0))
                add("algorithms.step3_survivors", c.get("survivors", 0))
                recovered += c.get("winners", 0) == 1
                examined += c.get("candidates_in", 0)
            elif n == "algorithms.identity":
                add("algorithms.identity_ms", s.ms)
                add("algorithms.identity_queries", s.q_incl)
            elif n.startswith("poly_algebra."):
                add(n + "_ms", s.ms)
            elif n == "bounds_lab.sweep":
                add("bounds_lab.cells", c.get("cells", 0))
                add("bounds_lab.sweep_self_ms", s.self_ms)
            elif n.startswith("bounds_lab."):
                add(n + "_ms", s.ms)
            elif n == "cli.main":
                add("cli.self_ms", s.self_ms)
        out = {k: v / ops for k, v in tot.items()}
        out["algorithms.candidate_yield"] = recovered / examined if examined else 0.0
        return out

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        base = self.spans[0].t0 if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "op": s.op, "name": s.name,
                       "parent": index[id(s.parent)] if s.parent else None,
                       "start_ms": round((s.t0 - base) * 1000.0, 3),
                       "end_ms": round((s.t1 - base) * 1000.0, 3),
                       "self_ms": round(s.self_ms, 3),
                       "queries": s.q, "query_ms": round(s.q_s * 1000.0, 3)}
                rec.update(s.counts)
                fh.write(json.dumps(rec) + "\n")
