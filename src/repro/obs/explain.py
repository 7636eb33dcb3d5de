"""Plan-level instrumentation behind ``EXPLAIN ANALYZE``.

Every :class:`~repro.engine.executor.base.PhysicalOperator` funnels its
iteration through ``__iter__``, which checks a per-instance ``_obs`` slot:
``None`` (the default) returns the raw iterator untouched, so ordinary
execution pays nothing.  :func:`attach` walks a plan tree and hangs a
:class:`NodeMetrics` on every node; a single execution of the root then
yields, per node, rows out, loop count, inclusive wall time (like
PostgreSQL's EXPLAIN ANALYZE, times include the children), and whatever
SGB counters the node's operators put into its :class:`MetricBag`.

:func:`render_analyze` formats the annotated tree as text and
:func:`plan_metrics` exports it as a JSON-ready dict — the
``metrics_json()`` trajectory format the benchmark harness writes to disk.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricBag


class memory_tracking:
    """Ensure tracemalloc is tracing within the block.

    Starts tracemalloc on entry if (and only if) it was not already
    running, and stops it again on exit in that case — so nesting, or a
    caller that profiles allocations themselves, is safe.  Memory-aware
    :class:`NodeMetrics` sample peaks only while tracing is active, so
    wrapping an instrumented execution in this context is what turns the
    ``mem_peak`` column on.
    """

    __slots__ = ("_started",)

    def __enter__(self) -> "memory_tracking":
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started:
            tracemalloc.stop()


class NodeMetrics:
    """Per-plan-node execution accounting (rows, loops, time, counters)."""

    __slots__ = ("rows_out", "loops", "time_s", "bag", "track_memory",
                 "mem_peak_bytes")

    def __init__(self, track_memory: bool = False) -> None:
        self.rows_out = 0
        self.loops = 0
        self.time_s = 0.0
        self.bag = MetricBag()
        #: When True *and* tracemalloc is tracing, :meth:`record` samples
        #: traced memory at row boundaries; ``mem_peak_bytes`` is then the
        #: peak observed growth over the node's start baseline (inclusive
        #: of children, like the times).  ``None`` = never measured.
        self.track_memory = track_memory
        self.mem_peak_bytes: Optional[int] = None

    def record(self, it: Iterator[tuple]) -> Iterator[tuple]:
        """Wrap one pass over the node's output, timing time-to-next-row.

        The accumulated time is *inclusive* of the node's children (they
        run inside its ``next()``), mirroring PostgreSQL.  Time the
        consumer spends between rows is not charged to the node.  Rows
        and time accumulate in locals and land on the node once, in the
        ``finally``.

        Close/exception-safe: if the producer raises mid-``next()`` or
        the consumer stops early (LIMIT closing the generator, an error
        in a downstream node), the ``finally`` still charges the
        in-flight ``next()`` (``t0`` is None only while a row is out with
        the consumer) instead of silently dropping it.

        With memory tracking on, traced bytes are sampled at the same
        row boundaries the clock reads at: a blocking node's spool is
        still alive when its first row emerges, so boundary sampling
        observes materialization peaks without per-allocation hooks.
        """
        self.loops += 1
        clock = time.perf_counter
        track_mem = self.track_memory and tracemalloc.is_tracing()
        traced = tracemalloc.get_traced_memory
        mem_base = traced()[0] if track_mem else 0
        peak = self.mem_peak_bytes or 0
        rows = 0
        spent = 0.0
        t0: Optional[float] = clock()
        try:
            for row in it:
                spent += clock() - t0
                rows += 1
                if track_mem:
                    peak = max(peak, traced()[0] - mem_base)
                t0 = None
                yield row
                t0 = clock()
        finally:
            if t0 is not None:
                spent += clock() - t0
            self.time_s += spent
            self.rows_out += rows
            if track_mem:
                self.mem_peak_bytes = max(peak, traced()[0] - mem_base)

    def derived_ratios(self) -> Dict[str, float]:
        """Candidate/refinement ratios from the node's SGB counters.

        ``candidates_per_probe`` is the average index-probe fan-out;
        ``refines_per_candidate`` how many exact distance checks each
        candidate cost — together they say whether the index pruned
        (low fan-out) and whether refinement amplified work.
        """
        probes = self.bag.get("index_probes")
        candidates = self.bag.get("candidates")
        distances = self.bag.get("distance_computations")
        out: Dict[str, float] = {}
        if probes > 0 and candidates > 0:
            out["candidates_per_probe"] = candidates / probes
        if candidates > 0 and distances > 0:
            out["refines_per_candidate"] = distances / candidates
        return out

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rows": self.rows_out,
            "loops": self.loops,
            "time_ms": self.time_s * 1000.0,
        }
        if self.mem_peak_bytes is not None:
            out["mem_peak_bytes"] = self.mem_peak_bytes
        counters = self.bag.as_dict()
        if counters:
            out["counters"] = counters
        derived = self.derived_ratios()
        if derived:
            out["derived"] = {k: round(v, 4) for k, v in derived.items()}
        histograms = self.bag.histogram_summaries()
        if histograms:
            out["histograms"] = histograms
        return out


def attach(plan, tracer=None, memory: bool = False) -> List[NodeMetrics]:
    """Hang a fresh NodeMetrics on every node of ``plan`` (pre-order).

    With ``tracer`` (a :class:`~repro.obs.trace.Tracer`) given, every
    node additionally opens a span per execution pass — the plan-node
    layer of the query span hierarchy.  With ``memory=True`` the nodes
    sample tracemalloc at row boundaries (run the execution inside
    :class:`memory_tracking` — otherwise the flag is inert).
    """
    attached: List[NodeMetrics] = []

    def walk(node) -> None:
        node._obs = NodeMetrics(track_memory=memory)
        node._tracer = tracer
        attached.append(node._obs)
        for child in node.children():
            walk(child)

    walk(plan)
    return attached


def detach(plan) -> None:
    """Remove instrumentation so later executions run uninstrumented."""

    def walk(node) -> None:
        node._obs = None
        node._tracer = None
        for child in node.children():
            walk(child)

    walk(plan)


def render_analyze(plan, planning_s: Optional[float] = None,
                   execution_s: Optional[float] = None) -> str:
    """Format an executed, instrumented plan like EXPLAIN ANALYZE output.

    Given ``planning_s``/``execution_s``, PostgreSQL-style ``Planning
    Time`` / ``Execution Time`` footer lines follow the node lines; a plan
    run with memory sampling adds a note that its times include the
    tracemalloc overhead.
    """
    lines: List[str] = []

    def walk(node, indent: int) -> None:
        obs: Optional[NodeMetrics] = getattr(node, "_obs", None)
        est = getattr(node, "_estimate", None)
        est_part = f"({est.render()})  " if est is not None else ""
        pad = "  " * indent
        if obs is None:  # pragma: no cover - defensive
            lines.append(f"{pad}-> {node.describe()}  {est_part}".rstrip())
        else:
            mem_part = ""
            if obs.mem_peak_bytes is not None:
                mem_part = f", mem_peak={_fmt_bytes(obs.mem_peak_bytes)}"
            lines.append(
                f"{pad}-> {node.describe()}  {est_part}"
                f"(actual rows={obs.rows_out} loops={obs.loops}, "
                f"time={obs.time_s * 1000.0:.2f} ms{mem_part})"
            )
            counters = obs.bag.as_dict()
            if counters:
                body = " ".join(
                    f"{k}={_fmt(v)}" for k, v in sorted(counters.items())
                )
                lines.append(f"{pad}     {body}")
            derived = obs.derived_ratios()
            if derived:
                body = " ".join(
                    f"{k}={v:.2f}" for k, v in sorted(derived.items())
                )
                lines.append(f"{pad}     {body}")
        for child in node.children():
            walk(child, indent + 1)

    walk(plan, 0)
    if planning_s is not None:
        lines.append(f"Planning Time: {planning_s * 1000.0:.3f} ms")
    if execution_s is not None:
        lines.append(f"Execution Time: {execution_s * 1000.0:.3f} ms")
    root = getattr(plan, "_obs", None)
    if root is not None and root.mem_peak_bytes is not None:
        lines.append("Note: MEMORY samples tracemalloc; the times above "
                     "include its overhead")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_bytes(n: int) -> str:
    """Human-readable byte count (binary units, one decimal)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{int(value)} B"  # pragma: no cover - unreachable


def plan_metrics(plan) -> Dict[str, Any]:
    """Export an instrumented plan as a nested JSON-ready dict."""

    def walk(node) -> Dict[str, Any]:
        obs: Optional[NodeMetrics] = getattr(node, "_obs", None)
        out: Dict[str, Any] = {"node": node.describe()}
        est = getattr(node, "_estimate", None)
        if est is not None:
            out["estimated_rows"] = est.rows_int
            out["estimated_cost"] = {
                "startup": round(est.startup_cost, 4),
                "total": round(est.total_cost, 4),
            }
        if obs is not None:
            out.update(obs.as_dict())
        kids = [walk(child) for child in node.children()]
        if kids:
            out["children"] = kids
        return out

    return walk(plan)


class AnalyzeResult:
    """Rows plus execution metrics from :meth:`Database.analyze`.

    ``rows``/``columns`` are the ordinary query result; ``plan_text`` is
    the EXPLAIN ANALYZE rendering; ``metrics`` the nested per-node dict.
    """

    def __init__(self, columns: List[str], rows: List[tuple],
                 plan_text: str, metrics: Dict[str, Any]):
        self.columns = columns
        self.rows = rows
        self.plan_text = plan_text
        self.metrics = metrics

    def metrics_json(self, indent: Optional[int] = None) -> str:
        """The per-node metrics tree as a JSON string (for bench output)."""
        return json.dumps(self.metrics, indent=indent, sort_keys=True)

    def node_counters(self) -> Dict[str, float]:
        """All node counter bags folded into one flat dict (sums)."""
        totals: Dict[str, float] = {}

        def walk(node: Dict[str, Any]) -> None:
            for name, value in node.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + value
            for child in node.get("children", ()):
                walk(child)

        walk(self.metrics)
        return totals

    def __repr__(self) -> str:
        return (
            f"AnalyzeResult({self.columns}, {len(self.rows)} rows, "
            f"{len(self.plan_text.splitlines())} plan lines)"
        )
