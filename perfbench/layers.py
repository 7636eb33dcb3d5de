"""Per-layer metrics and the self-time table of a traced run.

Every ``*_ms`` metric is a mean per timed operation unless its definition
in ``perfbench/design.json`` says per statement; every count is per
operation.  Counters the engine keeps itself (distance computations,
index probes, candidates, spooled rows) come from the difference of two
``Database.metrics_snapshot()`` scrapes around the traced window.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: The per-layer metric names, in report order (BENCHMARK.json lists the
#: same names).  Strategy counts cover every strategy the chooser knows,
#: so retiring one shows as a count that stays 0 rather than a gap.
ANY_STRATEGIES = ("all-pairs", "index", "grid", "kdtree", "rtree-bulk",
                  "hilbert-grid")
ALL_STRATEGIES = ("all-pairs", "bounds-checking", "index")
STRATEGY_METRICS = tuple(
    [f"stats.strategy.any.{s}" for s in ANY_STRATEGIES]
    + [f"stats.strategy.all.{s}" for s in ALL_STRATEGIES]
)
PER_LAYER = (
    "sql.parse_ms", "sql.plan_ms",
    "stats.refresh_count", "stats.refresh_ms",
) + STRATEGY_METRICS + (
    "engine.execute_self_ms", "engine.exec_self_ms", "engine.insert_ms",
    "engine.rows_spooled",
    "core.sgb_any_ms", "core.sgb_all_ms", "core.distance_computations",
    "core.index_probes", "core.candidates", "core.refine_hit_ratio",
    "kernels.calls", "kernels.ms", "kernels.rows_per_call",
    "index.build_ms", "index.probe_ms",
    "dsu.union_calls", "dsu.union_ms",
    "streaming.flush_ms", "streaming.rows_flushed", "streaming.snapshot_ms",
    "service.queue_wait_ms", "service.exec_ms", "service.wire_ms",
    "service.ping_rtt_ms", "service.rejected", "service.timeouts",
    "obs.analyze_ratio", "loadgen.late_p99_ms", "trace.overhead_ratio",
)

UNITS = {
    "ratio": ("core.refine_hit_ratio", "obs.analyze_ratio",
              "trace.overhead_ratio"),
    "rows": ("kernels.rows_per_call",),
}

_ENGINE_COUNTERS = {
    "engine.rows_spooled": "repro_exec_rows_spooled_total",
    "core.distance_computations": "repro_sgb_distance_computations_total",
    "core.index_probes": "repro_sgb_index_probes_total",
    "core.candidates": "repro_sgb_candidates_total",
}


def unit_of(name: str) -> str:
    for unit, names in UNITS.items():
        if name in names:
            return unit
    return "ms" if name.endswith(("_ms", ".ms")) else "count"


def engine_counters(snapshot_text: str) -> Dict[str, float]:
    """Batch-source SGB/executor counters from a Prometheus snapshot."""
    from repro.obs.export import parse_prometheus_text

    samples = parse_prometheus_text(snapshot_text)
    out = {}
    for metric, series in _ENGINE_COUNTERS.items():
        out[metric] = sum(v for (name, labels), v in samples.items()
                          if name == series
                          and dict(labels).get("source") == "batch")
    return out


def counter_delta(before: Dict[str, float], after: Dict[str, float]
                  ) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0.0) for k in after}


class Totals:
    """Recorder totals summed over op kinds, with per-name accessors."""

    def __init__(self, agg: Dict[Tuple[str, str], List[float]],
                 counts: Dict[Tuple[str, str], float]) -> None:
        self.agg = agg
        self.counts = counts

    def _sum(self, names: Iterable[str], field: int) -> float:
        names = set(names)
        return sum(v[field] for (_, n), v in self.agg.items() if n in names)

    def self_s(self, *names: str) -> float:
        return self._sum(names, 2)

    def calls(self, *names: str) -> float:
        return self._sum(names, 0)

    def prefixed(self, prefix: str) -> List[str]:
        return sorted({n for (_, n) in self.agg if n.startswith(prefix)})

    def count(self, name: str) -> float:
        return sum(v for (_, n), v in self.counts.items() if n == name)

    def count_prefixed(self, prefix: str, suffix: str) -> float:
        return sum(v for (_, n), v in self.counts.items()
                   if n.startswith(prefix) and n.endswith(suffix))


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Totals, n_ops: int,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The engine-side per-layer metrics of one traced window of ``n_ops``
    operations.  Service, obs, load-generator and overhead metrics are
    filled in by the workload."""
    ms = 1000.0
    per_op = lambda x: _div(x, n_ops)  # noqa: E731
    kernel_names = t.prefixed("kernels.")
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "sql.parse_ms": _div(t.self_s("sql.parse") * ms,
                             t.calls("sql.parse")),
        "sql.plan_ms": _div(t.self_s("sql.plan") * ms, t.calls("sql.plan")),
        "stats.refresh_count": per_op(t.calls("stats.refresh")),
        "stats.refresh_ms": per_op(t.self_s("stats.refresh") * ms),
        "engine.execute_self_ms": per_op(
            t.self_s("engine.execute", "engine.stream_snapshot") * ms),
        "engine.exec_self_ms": per_op(t.self_s("engine.exec") * ms),
        "engine.insert_ms": per_op(t.self_s("engine.insert") * ms),
        "core.sgb_any_ms": per_op(t.self_s("core.sgb_any") * ms),
        "core.sgb_all_ms": per_op(t.self_s("core.sgb_all") * ms),
        "core.refine_hit_ratio": _div(
            t.count_prefixed("kernels.", ".hits"),
            t.count_prefixed("kernels.", ".rows")),
        "kernels.calls": per_op(t.calls(*kernel_names)),
        "kernels.ms": per_op(t.self_s(*kernel_names) * ms),
        "kernels.rows_per_call": _div(
            t.count_prefixed("kernels.", ".rows"),
            t.calls(*[n for n in kernel_names
                      if t.count(n + ".rows")])),
        "index.build_ms": per_op(t.self_s("index.build") * ms),
        "index.probe_ms": per_op(t.self_s("index.probe") * ms),
        "dsu.union_calls": per_op(t.calls("dsu.union")),
        "dsu.union_ms": per_op(t.self_s("dsu.union") * ms),
        "streaming.flush_ms": per_op(t.self_s("streaming.flush") * ms),
        "streaming.rows_flushed": per_op(t.count("streaming.rows_flushed")),
        "streaming.snapshot_ms": per_op(t.self_s("streaming.snapshot") * ms),
    })
    for name in STRATEGY_METRICS:
        out[name] = per_op(t.count(name))
    for name, value in counters.items():
        out[name] = per_op(value)
    return out


def self_time_table(t: Totals, kinds: Sequence[str], roots: Sequence[str],
                    title: str) -> List[str]:
    """Self ms per op of each span name (rows) for each op kind (columns),
    with the sum of self times against the root spans' mean duration."""
    names = sorted({n for (_, n) in t.agg})

    def root_sum(k: str, field: int) -> float:
        return sum(t.agg.get((k, r), [0, 0.0, 0.0])[field] for r in roots)

    n_ops = {k: int(root_sum(k, 0)) for k in kinds}
    width = max([len(n) for n in names] + [10])
    lines = [f"## {title}: self ms per op",
             f"{'span':<{width}} " + " ".join(f"{k:>11}" for k in kinds)]
    sums = {k: 0.0 for k in kinds}
    for name in names:
        cells = []
        for k in kinds:
            v = _div(t.agg.get((k, name), [0, 0, 0])[2] * 1000, n_ops[k])
            sums[k] += v
            cells.append(f"{v:11.3f}")
        lines.append(f"{name:<{width}} " + " ".join(cells))
    e2e = {k: _div(root_sum(k, 1) * 1000, n_ops[k]) for k in kinds}
    lines.append(f"{'sum of self':<{width}} "
                 + " ".join(f"{sums[k]:11.3f}" for k in kinds))
    lines.append(f"{'traced e2e':<{width}} "
                 + " ".join(f"{e2e[k]:11.3f}" for k in kinds))
    lines.append(f"{'ops':<{width}} "
                 + " ".join(f"{n_ops[k]:11d}" for k in kinds))
    return lines


def analyze_ratio(medians: Dict[str, float]) -> float:
    if "analyze" in medians and medians.get("any_fine"):
        return medians["analyze"] / medians["any_fine"]
    return 0.0
