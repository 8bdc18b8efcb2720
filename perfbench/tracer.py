"""Outside-in tracing: wraps fracdim's public functions from the benchmark.

Nothing under ``src/`` changes.  While installed, every binding of a traced
function in any ``fracdim`` module (including names imported with ``from
.x import y``) points at a wrapper that records a span: its layer name, the
request it belongs to, its parent span, start and duration.  A layer's self
time is its duration minus the time of its child spans.  Counts are taken at
the same boundaries from the arguments and results.
"""

from __future__ import annotations

import json
import math
import sys
import time

# (module, function) -> span name.  The modules are the layers.
TRACED = {
    ("fracdim.cli", "main"): "cli",
    ("fracdim.families", "generate"): "families.generate",
    ("fracdim.graph", "all_pairs_distances"): "graph.apsp",
    ("fracdim.metric", "constraint_system"): "metric.constraint_system",
    ("fracdim.dimension", "joint_cover_sets"): "dimension.joint_cover_sets",
    ("fracdim.dimension", "simultaneous_fractional_dimension"): "dimension.sdimf",
    ("fracdim.dimension", "fractional_dimension"): "dimension.dimf",
    ("fracdim.dimension", "simultaneous_dimension"): "dimension.sdim",
    ("fracdim.dimension", "metric_dimension"): "dimension.dim",
    ("fracdim.dimension", "bounds_report"): "dimension.bounds_report",
    ("fracdim.lp", "reduce_sets"): "lp.reduce_sets",
    ("fracdim.lp", "solve_covering_lp"): "lp.solve",
    ("fracdim.lp", "verify_solution"): "lp.verify",
    ("fracdim.lp", "min_hitting_set"): "lp.hitting_set",
    ("fracdim.oracles", "oracle_dimf"): "oracles",
    ("fracdim.oracles", "oracle_sdimf"): "oracles",
    ("fracdim.harness", "run_suite"): "harness.run_suite",
}

# Inclusive times are summed over the outermost span of a group only, so a
# recursive call or a span nested in another of the group counts once.
GROUPS = {
    "families.generate": {"families.generate"},
    "graph.apsp": {"graph.apsp"},
    "lp.reduce_sets": {"lp.reduce_sets"},
    "lp.solve": {"lp.solve"},
    "lp.verify": {"lp.verify"},
    "oracles": {"oracles"},
    "prep": {"graph.apsp", "metric.constraint_system", "lp.reduce_sets"},
}

# Spans whose family argument decides whether the LPs under them are pooled.
POOLING = ("dimension.sdimf", "dimension.sdim")

# Counters that must repeat exactly for the same code and seed.
COUNTS = (
    "families.generate.calls", "metric.pairs", "dimension.joint_cover_sets.calls",
    "dimension.sets_raw", "dimension.sets_reduced", "lp.reduce_sets.calls",
    "lp.solve.calls", "lp.solve.tableau_cells", "lp.solve.den_bits",
    "lp.verify.calls", "lp.hitting_set.calls", "lp.hitting_set.k_tried",
    "harness.checks",
)


class _Span:
    __slots__ = ("name", "req", "parent", "start", "dur", "child", "groups", "lp_value", "pooled")

    def __init__(self, name, req, parent, start, groups):
        self.name, self.req, self.parent, self.start = name, req, parent, start
        self.groups = groups
        self.dur = self.child = 0
        self.lp_value = None
        # Inside a family computation over two or more members.
        self.pooled = parent is not None and parent.pooled


class Tracer:
    def __init__(self):
        self.req = 0
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._depth = dict.fromkeys(GROUPS, 0)
        self.group_ns = dict.fromkeys(GROUPS, 0)
        self.self_ns: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.pooled_solves_by_req: dict[int, int] = {}

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for (mod, attr), name in TRACED.items():
            fn = getattr(sys.modules[mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "fracdim" and not modname.startswith("fracdim."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def remove(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        groups = [g for g, members in GROUPS.items() if name in members]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            outer = [g for g in groups if self._depth[g] == 0]
            for g in groups:
                self._depth[g] += 1
            span = _Span(name, self.req, parent, clock(), outer)
            if name in POOLING:
                span.pooled = len(args[0].members) >= 2
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = clock() - span.start
                stack.pop()
                for g in groups:
                    self._depth[g] -= 1
                self._close(span)
            self._count(span, args, result)
            return result

        return traced

    def _close(self, span: _Span) -> None:
        self.spans.append(span)
        if span.parent is not None:
            span.parent.child += span.dur
        self.self_ns[span.name] = self.self_ns.get(span.name, 0) + span.dur - span.child
        for g in span.groups:
            self.group_ns[g] += span.dur

    def _count(self, span: _Span, args, result) -> None:
        c, name = self.counts, span.name
        if name == "families.generate":
            c["families.generate.calls"] += 1
        elif name == "metric.constraint_system":
            n = args[0].n
            c["metric.pairs"] += n * (n - 1) // 2
        elif name == "dimension.joint_cover_sets":
            fam = args[0]
            c["dimension.joint_cover_sets.calls"] += 1
            c["dimension.sets_raw"] += len(fam.members) * fam.n * (fam.n - 1) // 2
            c["dimension.sets_reduced"] += len(result)
        elif name == "lp.reduce_sets":
            c["lp.reduce_sets.calls"] += 1
        elif name == "lp.solve":
            lp = args[0]
            m, n = len(lp.cover_sets), lp.n_vars
            c["lp.solve.calls"] += 1
            c["lp.solve.tableau_cells"] += (m + n) * (2 * n + 2 * m)
            dens = [result.value.denominator]
            dens += [v.denominator for v in result.assignment + result.dual]
            c["lp.solve.den_bits"] = max(c["lp.solve.den_bits"], max(dens).bit_length())
            if span.pooled:
                by_req = self.pooled_solves_by_req
                by_req[span.req] = by_req.get(span.req, 0) + 1
            if span.parent is not None and span.parent.name == "lp.hitting_set":
                span.parent.lp_value = result.value
        elif name == "lp.verify":
            c["lp.verify.calls"] += 1
        elif name == "lp.hitting_set":
            c["lp.hitting_set.calls"] += 1
            if span.lp_value is not None:  # None: nothing to hit, no k tried
                lower = max(math.ceil(span.lp_value), 1)
                c["lp.hitting_set.k_tried"] += len(result) - lower + 1
        elif name == "harness.run_suite":
            c["harness.checks"] += len(result.checks)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, wall_s: float, reqs) -> dict[str, float]:
        """Per-layer metrics of one traced pass (times are pass totals)."""
        n_req = len(reqs)
        bounds_reqs = [i for i, argv in enumerate(reqs) if "--bounds" in argv]
        pooled = sum(self.pooled_solves_by_req.get(i, 0) for i in bounds_reqs)
        ms = {g: ns / 1e6 for g, ns in self.group_ns.items()}
        self_ms = {k: v / 1e6 for k, v in self.self_ns.items()}
        c = self.counts
        solves = c["lp.solve.calls"]
        return {
            "cli.self_ms": self_ms.get("cli", 0.0),
            "families.generate.ms": ms["families.generate"],
            "families.generate.calls": c["families.generate.calls"],
            "graph.apsp.ms": ms["graph.apsp"],
            "metric.constraint_system.self_ms": self_ms.get("metric.constraint_system", 0.0),
            "metric.pairs": c["metric.pairs"],
            "dimension.joint_cover_sets.calls_per_req": c["dimension.joint_cover_sets.calls"] / n_req,
            "dimension.sets_raw": c["dimension.sets_raw"],
            "dimension.sets_reduced": c["dimension.sets_reduced"],
            "lp.reduce_sets.ms": ms["lp.reduce_sets"],
            "lp.reduce_sets.calls": c["lp.reduce_sets.calls"],
            "lp.solve.self_ms": self_ms.get("lp.solve", 0.0),
            "lp.solve.calls": solves,
            "lp.solve.calls_per_req": solves / n_req,
            "lp.solve.pooled_per_bounds_req": pooled / len(bounds_reqs) if bounds_reqs else 0.0,
            "lp.solve.tableau_cells": c["lp.solve.tableau_cells"],
            "lp.solve.den_bits": c["lp.solve.den_bits"],
            "lp.solve.share_pct": 100 * ms["lp.solve"] / (1000 * wall_s),
            "prep.share_pct": 100 * ms["prep"] / (1000 * wall_s),
            "lp.verify.ms": ms["lp.verify"],
            "lp.verify.calls_per_solve": c["lp.verify.calls"] / solves if solves else 0.0,
            "lp.hitting_set.self_ms": self_ms.get("lp.hitting_set", 0.0),
            "lp.hitting_set.k_tried": c["lp.hitting_set.k_tried"],
            "harness.run_suite.self_ms": self_ms.get("harness.run_suite", 0.0),
            "harness.checks": c["harness.checks"],
            "oracles.ms": ms["oracles"],
        }

    def write_spans(self, path) -> None:
        """One JSON line per span: request, id, parent id, name, start and duration in us."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else None
                row = [s.req, i, parent, s.name, (s.start - t0) // 1000, s.dur // 1000]
                fh.write(json.dumps(row) + "\n")


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Names of counters that differ between two passes of the same requests."""
    return [k for k in COUNTS if a.get(k) != b.get(k)]
