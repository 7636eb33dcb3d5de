"""Counter and span primitives for operator observability.

The paper's evaluation (§8) argues for SGB through measured operator
internals — distance computations avoided, index probes issued, groups
touched — so the engine needs a uniform way to collect exactly those
numbers.  This module provides the two primitives everything else is built
on:

* :class:`MetricBag` — a per-node bag of monotonic counters and wall-time
  accumulators.  Operators hold ``metrics=None`` by default and guard every
  counting site with ``if bag is not None``, so the instrumentation costs
  nothing unless a caller (EXPLAIN ANALYZE, a benchmark harness) attaches a
  bag.
* :func:`span` / :class:`Span` — a context-manager timer that adds its
  elapsed wall time to a named accumulator in a bag.

:data:`SGB_COUNTER_FIELDS` is the canonical counter vocabulary, shared by
the streaming engines' :class:`~repro.streaming.stats.StreamStats` (which
imports its field tuple from here) and the batch
:class:`~repro.core.sgb_all.SGBAllOperator` /
:class:`~repro.core.sgb_any.SGBAnyOperator`, so per-batch stream deltas and
per-query EXPLAIN ANALYZE rows report the same names for the same things.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs.hist import HistogramTimer, LatencyHistogram


#: Canonical SGB counter names, in reporting order.  Shared between the
#: streaming StreamStats and the batch operators' MetricBag entries:
#:
#: points
#:     Points ingested by the operator.
#: groups_created
#:     Groups opened (SGB-Any: one per point, pre-merge; SGB-All: new
#:     cliques started, including FORM-NEW-GROUP regrouping passes).
#: groups_merged
#:     SGB-Any component merges (unions that reduced the component count).
#: groups_dropped
#:     SGB-All groups emptied by ELIMINATE / FORM-NEW-GROUP overlap
#:     processing.
#: eliminated / deferred
#:     Points dropped or deferred by the ON-OVERLAP clause.
#: index_probes
#:     FindCloseGroups / neighbor probes issued (R-tree or grid window
#:     queries for the indexed strategies; one per scan for the naive ones).
#: candidates
#:     Entries returned by those probes before exact verification (groups
#:     scanned, for the linear strategies).
#: distance_computations
#:     Similarity-predicate evaluations.  Attaching a MetricBag wraps the
#:     operator's metric in a CountingMetric automatically.
SGB_COUNTER_FIELDS = (
    "points",
    "groups_created",
    "groups_merged",
    "groups_dropped",
    "eliminated",
    "deferred",
    "index_probes",
    "candidates",
    "distance_computations",
)

#: Executor-level counters (maintained by plan nodes, not the core
#: operators).  ``rows_skipped_null`` counts input rows discarded because a
#: grouping attribute was NULL — a deliberate divergence from vanilla GROUP
#: BY's single-NULL-group semantics (see docs/sql_dialect.md).
#: ``rows_spooled`` counts rows materialized into a blocking node's tuple
#: store (the SGB §8.2 spool) — the "rows materialized" column of
#: EXPLAIN ANALYZE's resource accounting.
EXEC_COUNTER_FIELDS = ("rows_skipped_null", "rows_spooled")


class MetricBag:
    """Monotonic counters plus named wall-time accumulators.

    >>> bag = MetricBag()
    >>> bag.incr("index_probes")
    >>> bag.incr("candidates", 4)
    >>> bag.get("candidates")
    4
    >>> with bag.span("finalize"):
    ...     pass
    >>> bag.time("finalize") >= 0.0
    True

    Latency *distributions* (per-probe, per-micro-batch, ...) go into
    log-bucketed :class:`~repro.obs.hist.LatencyHistogram` entries via
    :meth:`observe` / :meth:`hist_timer`; they merge across bags (and
    worker processes) exactly like the flat counters.
    """

    __slots__ = ("counters", "timings", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timings: Dict[str, float] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    # -- counters ----------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        counters = self.counters
        if name in counters:
            counters[name] += n
        elif name.endswith("_s"):
            # ``as_dict()`` suffixes timings with ``_s``; a counter named
            # ``foo_s`` would silently collide with the ``foo`` timing.
            raise ValueError(
                f"counter name {name!r} ends with '_s', which is reserved "
                f"for timing keys in as_dict()"
            )
        else:
            counters[name] = n

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    # -- timers ------------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + seconds

    def time(self, name: str, default: float = 0.0) -> float:
        return self.timings.get(name, default)

    def span(self, name: str) -> "Span":
        return Span(self, name)

    # -- histograms --------------------------------------------------------
    def histogram(self, name: str) -> LatencyHistogram:
        """Get-or-create the named latency histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into the named histogram."""
        self.histogram(name).observe(seconds)

    def hist_timer(self, name: str) -> HistogramTimer:
        """``with bag.hist_timer("probe_latency"):`` — one observation."""
        return self.histogram(name).timer()

    # -- aggregation -------------------------------------------------------
    def merge(self, other: "MetricBag") -> "MetricBag":
        """Fold ``other``'s counters, timings, and histograms into this."""
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, seconds in other.timings.items():
            self.add_time(name, seconds)
        for name, hist in other.histograms.items():
            self.histogram(name).merge(hist)
        return self

    def as_dict(self) -> Dict[str, float]:
        """Flat dict: counters verbatim, timings suffixed with ``_s``.

        The ``_s`` suffix is a reserved namespace: :meth:`incr` rejects
        counter names ending in ``_s``, so a timing can never be shadowed
        by (or shadow) a counter.  Histograms are *not* flattened here —
        see :meth:`histogram_summaries` and the Prometheus exporter.
        """
        out: Dict[str, float] = dict(self.counters)
        for name, seconds in self.timings.items():
            out[f"{name}_s"] = seconds
        return out

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-histogram ``{count, sum_s, p50_s, p95_s, p99_s, max_s}``."""
        return {
            name: hist.as_dict() for name, hist in self.histograms.items()
        }

    def __bool__(self) -> bool:
        return bool(self.counters or self.timings or self.histograms)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={v}" for k, v in sorted(self.as_dict().items())
        )
        return f"MetricBag({body})"


class Span:
    """Context manager adding its elapsed wall time to a bag entry.

    Single-use at a time: nesting ``__enter__`` on one instance raises
    (two overlapping timers sharing one ``_t0`` would corrupt both
    measurements), and exiting an unentered Span raises instead of
    relying on an ``assert`` that ``python -O`` strips — which would
    have surfaced as a ``TypeError`` on the float subtraction.
    Sequential reuse of a finished Span is fine.
    """

    __slots__ = ("_bag", "_name", "_t0")

    def __init__(self, bag: MetricBag, name: str):
        self._bag = bag
        self._name = name
        self._t0: Optional[float] = None

    def __enter__(self) -> "Span":
        if self._t0 is not None:
            raise RuntimeError(
                f"Span {self._name!r} is not re-entrant; it is already "
                f"entered — create a new Span instead"
            )
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._t0 is None:
            raise RuntimeError(
                f"Span {self._name!r} exited without being entered"
            )
        self._bag.add_time(self._name, time.perf_counter() - self._t0)
        self._t0 = None


def span(bag: Optional[MetricBag], name: str):
    """``with span(bag, "phase"):`` — a no-op when ``bag`` is None."""
    if bag is None:
        return _NULL_SPAN
    return Span(bag, name)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
