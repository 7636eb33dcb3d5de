"""The Database facade: tables + SQL execution.

>>> from repro import Database
>>> db = Database()
>>> db.execute("CREATE TABLE pts (x float, y float)")
StatementResult(status='CREATE TABLE')
>>> db.execute("INSERT INTO pts VALUES (1, 1), (1.5, 1.2), (9, 9)")
StatementResult(status='INSERT 3')
>>> db.execute(
...     "SELECT count(*) FROM pts "
...     "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
... ).rows
[(2,), (1,)]
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.cancel import CancelToken
from repro.engine.catalog import Catalog
from repro.engine.executor.base import attach_cancel
from repro.engine.executor.sgb import SGBConfig
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.errors import CatalogError, InvalidParameterError, PlanningError
from repro.obs.explain import (
    AnalyzeResult,
    attach,
    detach,
    memory_tracking,
    plan_metrics,
    render_analyze,
)
from repro.obs.metrics import MetricBag
from repro.obs.profile import SamplingProfiler
from repro.obs.querylog import QueryLog
from repro.obs.trace import Tracer, maybe_span
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse
from repro.sql.planner import Planner


class QueryResult:
    """Materialized result of a SELECT."""

    def __init__(self, columns: List[str], rows: List[tuple]):
        self.columns = columns
        self.rows = rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise InvalidParameterError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __repr__(self) -> str:
        return f"QueryResult({self.columns}, {len(self.rows)} rows)"


class StatementResult:
    """Result of a DDL/DML statement."""

    def __init__(self, status: str):
        self.status = status

    def __repr__(self) -> str:
        return f"StatementResult(status={self.status!r})"


class Database:
    """An embedded relational database with similarity GROUP BY support.

    Parameters configure how the SGB executor node runs (they correspond to
    the algorithm choices evaluated in the paper):

    ``sgb_all_strategy`` / ``sgb_any_strategy``
        ``"auto"`` (default) lets the cost-based planner pick the cheapest
        strategy per query from table statistics (``ANALYZE``); a concrete
        name — ``"all-pairs"`` | ``"bounds-checking"`` | ``"index"`` |
        ``"grid"`` for All, ``"all-pairs"`` | ``"index"`` | ``"grid"`` |
        ``"kdtree"`` | ``"rtree-bulk"`` | ``"hilbert-grid"`` for Any — is an
        override that always wins.  Every strategy produces bit-identical
        groups, so the knob only moves time around.
    ``tiebreak`` / ``seed``
        JOIN-ANY arbitration, see :class:`~repro.core.sgb_all.SGBAllOperator`.
    ``parallel``
        Worker processes for PARTITION BY queries: ``None`` (default)
        decided by the planner from estimated partition counts, ``0``/``1``
        serial, ``n > 1`` a pool of ``n``, negative one per CPU.
        Results are bit-identical to serial execution.
    ``trace``
        Start with hierarchical span tracing enabled (see
        :meth:`set_trace`).  Traced SELECTs run instrumented — every plan
        node, SGB strategy phase, and worker partition emits a span into
        :attr:`tracer`, and per-node counters/histograms fold into the
        cumulative bag behind :meth:`metrics_snapshot`.
    ``profile``
        Start with the sampling profiler running (see :meth:`set_profile`):
        collapsed stacks, attributed to trace spans when tracing is also
        on, exportable as flamegraph "folded" lines.
    ``query_log``
        ``True`` (in-memory ring only), a path (append JSONL there too),
        or a pre-built :class:`~repro.obs.querylog.QueryLog`.  Every
        SELECT records plan fingerprint, chosen strategy, estimated vs
        actual rows, and latency; estimate drift outside the log's band
        is flagged (see :meth:`set_query_log`).
    """

    def __init__(
        self,
        sgb_all_strategy: str = "auto",
        sgb_any_strategy: str = "auto",
        tiebreak: str = "random",
        seed: int = 0,
        parallel: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
        query_log: Union[None, bool, str, QueryLog] = None,
    ):
        self.catalog = Catalog()
        self.sgb_config = SGBConfig(
            all_strategy=sgb_all_strategy,
            any_strategy=sgb_any_strategy,
            tiebreak=tiebreak,
            seed=seed,
            parallel=parallel,
        )
        self._stream_views: Dict[str, Any] = {}
        #: Statement lock: one statement executes at a time, so the
        #: catalog, table storage, and stream-view state see a single
        #: writer.  Re-entrant because nested execution helpers
        #: (``analyze`` → plan run) share it.  Concurrent callers — e.g.
        #: the :mod:`repro.service` worker pool — interleave *between*
        #: statements; partition parallelism inside one statement still
        #: fans out to worker processes.
        self._lock = threading.RLock()
        #: Guards the cumulative metric bag and query counter only, so
        #: ``metrics_snapshot()`` never has to wait behind a long query
        #: holding the statement lock.  Lock order: ``_lock`` may be held
        #: when taking ``_metrics_lock``, never the reverse.
        self._metrics_lock = threading.Lock()
        #: Cumulative engine metrics (counters / timings / histograms)
        #: collected from every instrumented execution — traced SELECTs,
        #: ``analyze()`` runs, and streaming micro-batch flushes.
        self._metrics = MetricBag()
        self._queries = 0
        #: The database's tracer; ``None`` until tracing is first enabled,
        #: then kept (with its ring buffer) across :meth:`set_trace`
        #: toggles so a dump after ``set_trace(False)`` still works.
        self.tracer: Optional[Tracer] = None
        #: The sampling profiler; ``None`` until first enabled, then kept
        #: (with its collected profile) across :meth:`set_profile` toggles
        #: so a report after ``set_profile(False)`` still works.
        self.profiler: Optional[SamplingProfiler] = None
        #: The query log; ``None`` until enabled via the ``query_log``
        #: ctor parameter or :meth:`set_query_log`.
        self.query_log: Optional[QueryLog] = None
        self._query_log_on = False
        if trace:
            self.set_trace(True)
        if profile:
            self.set_profile(True)
        if query_log is not None and query_log is not False:
            if isinstance(query_log, QueryLog):
                self.query_log = query_log
                self._query_log_on = True
            elif query_log is True:
                self.set_query_log(True)
            else:
                self.set_query_log(True, path=str(query_log))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self.sgb_config.trace is not None

    def set_trace(self, enabled: bool = True) -> None:
        """Toggle span tracing for subsequent SELECTs and stream flushes.

        Enabling installs the database tracer into the SGB executor config
        (so operator phases and parallel workers emit spans) and into every
        attached stream view's micro-batcher.  Disabling uninstalls it but
        keeps the buffered spans, so :meth:`export_trace` still works.
        """
        with self._lock:
            if enabled:
                if self.tracer is None:
                    self.tracer = Tracer()
                self.sgb_config.trace = self.tracer
            else:
                self.sgb_config.trace = None
            for view in self._stream_views.values():
                view.batcher.tracer = self.sgb_config.trace
            if self.profiler is not None:
                # Span attribution follows the *active* tracer: samples
                # stop carrying span prefixes the moment tracing is
                # turned off.
                self.profiler.tracer = self.sgb_config.trace

    def export_trace(self, path: str) -> int:
        """Dump buffered spans to ``path``; returns the span count.

        A ``.jsonl`` suffix selects one-record-per-line JSON; anything
        else gets the Chrome ``trace_event`` payload (Perfetto-loadable).
        """
        if self.tracer is None:
            raise PlanningError(
                "tracing was never enabled on this Database"
            )
        if str(path).endswith(".jsonl"):
            return self.tracer.to_jsonl(path)
        return self.tracer.to_chrome_trace_file(path)

    @property
    def profile_enabled(self) -> bool:
        return self.profiler is not None and self.profiler.running

    def set_profile(self, enabled: bool = True, *,
                    interval_s: Optional[float] = None,
                    mode: str = "thread") -> None:
        """Start/stop the sampling profiler for subsequent executions.

        The profiler samples collapsed Python stacks in the background
        (see :class:`~repro.obs.profile.SamplingProfiler`); with tracing
        also enabled, samples are attributed to the live span path, and
        partition-parallel queries fold worker-process samples back into
        one profile.  The collected profile accumulates across toggles —
        use :meth:`clear_profile` to reset it.
        """
        if enabled:
            if self.profiler is None:
                kwargs: Dict[str, Any] = {"mode": mode}
                if interval_s is not None:
                    kwargs["interval_s"] = interval_s
                self.profiler = SamplingProfiler(
                    tracer=self.sgb_config.trace, **kwargs
                )
            self.profiler.tracer = self.sgb_config.trace
            if not self.profiler.running:
                self.profiler.start()
            self.sgb_config.profile = self.profiler
        else:
            if self.profiler is not None and self.profiler.running:
                self.profiler.stop()
            self.sgb_config.profile = None

    def clear_profile(self) -> None:
        if self.profiler is not None:
            self.profiler.clear()

    def profile_report(self, top: int = 15) -> str:
        """Human-readable profile summary (per-span and hottest frames)."""
        if self.profiler is None:
            raise PlanningError(
                "profiling was never enabled on this Database"
            )
        return self.profiler.report(top=top)

    def export_profile(self, path: str) -> int:
        """Write the collected profile as flamegraph "folded" lines;
        returns the number of distinct stacks written."""
        if self.profiler is None:
            raise PlanningError(
                "profiling was never enabled on this Database"
            )
        return self.profiler.to_folded_file(path)

    @property
    def query_log_enabled(self) -> bool:
        return self._query_log_on and self.query_log is not None

    def set_query_log(self, enabled: bool = True, *,
                      path: Optional[str] = None,
                      band: Optional[Tuple[float, float]] = None) -> None:
        """Toggle per-query logging (plan fingerprint, estimates, drift).

        Enabling with a ``path`` (or a new ``band``) replaces the current
        log; enabling with neither keeps the existing one (creating an
        in-memory-only log on first use).  Disabling stops recording and
        closes the JSONL file but keeps the ring buffer, so
        ``query_log.recent()`` and the drift summary still work.
        """
        if enabled:
            if self.query_log is None or path is not None or band is not None:
                if self.query_log is not None:
                    self.query_log.close()
                kwargs: Dict[str, Any] = {"path": path}
                if band is not None:
                    kwargs["band"] = band
                self.query_log = QueryLog(**kwargs)
            self._query_log_on = True
        else:
            self._query_log_on = False
            if self.query_log is not None:
                self.query_log.close()

    def metrics_snapshot(self) -> str:
        """One Prometheus text-format snapshot of the engine's metrics.

        Unifies the cumulative SGB/executor counters, accumulated
        timings, and latency histograms with per-stream-view counters
        (labelled ``source="stream:<view>"``) and process-level extras
        (queries executed, trace-buffer occupancy).  The full counter and
        histogram vocabulary is always present, zero-valued when unused.
        """
        from repro.obs.export import prometheus_text

        with self._metrics_lock:
            extra: Dict[str, float] = {"queries": float(self._queries)}
            if self.tracer is not None:
                extra["trace_spans_retained"] = float(len(self.tracer))
                extra["trace_spans_dropped"] = float(self.tracer.dropped)
            return prometheus_text(
                self._metrics,  # sgblint: disable=SGB007 -- deliberately under _metrics_lock only: scrapes must not queue behind a long query holding the statement lock
                streams={
                    name: view.stats  # stats reads are point-in-time
                    for name, view in self._stream_views.items()  # sgblint: disable=SGB007 -- same snapshot-over-consistency tradeoff as above
                },
                extra_counters=extra,
            )

    # ------------------------------------------------------------------
    # python-level API
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, columns: Sequence[Tuple[str, str]]
    ) -> Table:
        with self._lock:
            return self.catalog.create_table(name, columns)

    def insert(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        with self._lock:
            return self.catalog.get(table).insert_many(rows)

    def table(self, name: str) -> Table:
        with self._lock:
            return self.catalog.get(name)

    # ------------------------------------------------------------------
    # streaming views (INSERT-then-requery without recomputing)
    # ------------------------------------------------------------------
    def create_stream_view(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        mode: str = "any",
        *,
        eps: float,
        metric: str = "l2",
        batch_size: int = 32,
        **engine_options,
    ):
        """Attach an incremental SGB engine to ``table``.

        Existing rows are back-filled immediately; every later INSERT (SQL
        or :meth:`insert`) updates the maintained grouping, so re-querying
        the view is a snapshot read instead of a batch recompute.  Returns
        the :class:`~repro.streaming.view.StreamingGroupView`.
        """
        from repro.streaming.view import StreamingGroupView

        key = name.lower()
        with self._lock:
            if key in self._stream_views:
                raise CatalogError(f"stream view {name!r} already exists")
            view = StreamingGroupView(
                key,
                self.catalog.get(table),
                columns,
                mode,
                eps=eps,
                metric=metric,
                batch_size=batch_size,
                metrics=self._metrics,
                tracer=self.sgb_config.trace,
                **engine_options,
            )
            self._stream_views[key] = view
        return view

    def stream_view(self, name: str):
        with self._lock:
            try:
                return self._stream_views[name.lower()]
            except KeyError:
                raise CatalogError(
                    f"stream view {name!r} does not exist"
                ) from None

    def stream_snapshot(self, name: str):
        """A consistent snapshot of one stream view's grouping.

        Taken under the statement lock so concurrent INSERTs (which feed
        the view through the table's insert listeners) cannot interleave
        with the snapshot — this is the read path the query service's
        ``stream`` op uses.
        """
        with self._lock:
            return self.stream_view(name).snapshot()

    def stream_view_names(self) -> List[str]:
        with self._lock:
            return sorted(self._stream_views)

    def drop_stream_view(self, name: str) -> None:
        # Re-entrant statement lock: nested stream_view() re-acquires.
        with self._lock:
            view = self.stream_view(name)
            view.detach()
            del self._stream_views[view.name]

    def _drop_views_of_table(self, table_name: str) -> None:
        doomed = [
            v.name
            for v in self._stream_views.values()
            if v.table.name == table_name.lower()
        ]
        for name in doomed:
            self.drop_stream_view(name)

    # ------------------------------------------------------------------
    # SQL API
    # ------------------------------------------------------------------
    def execute(self, sql: str, *, cancel: Optional[CancelToken] = None):
        """Execute one or more ``;``-separated statements.

        Returns the result of the *last* statement: a :class:`QueryResult`
        for SELECT, a :class:`StatementResult` otherwise.

        Safe under concurrent callers: statements from different threads
        serialize on the database's statement lock (results are fully
        materialized before the lock is released, so nothing lazy escapes
        it).  ``cancel`` is an optional
        :class:`~repro.core.cancel.CancelToken`: it is re-checked before
        each statement, while *waiting* for the statement lock, and at
        every plan-node iteration boundary during SELECT execution, so a
        deadline or client cancel surfaces as a typed error even when the
        query is queued behind a slow writer.
        """
        result: Any = None
        for stmt in parse(sql):
            if cancel is not None:
                cancel.check()
            self._acquire_statement_lock(cancel)
            try:
                result = self._execute_statement(stmt, cancel, sql=sql)
            finally:
                self._lock.release()
        return result

    def query(self, sql: str, *,
              cancel: Optional[CancelToken] = None) -> QueryResult:
        """Execute a single SELECT and return its result."""
        result = self.execute(sql, cancel=cancel)
        if not isinstance(result, QueryResult):
            raise PlanningError("query() expects a SELECT statement")
        return result

    def _acquire_statement_lock(self,
                                cancel: Optional[CancelToken]) -> None:
        """Take the statement lock, polling the cancel token while blocked
        so a queued query can still time out behind a slow one."""
        if cancel is None:
            self._lock.acquire()  # sgblint: disable=SGB010 -- ownership transfer: execute() releases in its finally
            return
        while not self._lock.acquire(timeout=0.05):  # sgblint: disable=SGB010 -- ownership transfer: execute() releases in its finally
            cancel.check()

    def explain(self, sql: str) -> str:
        """Render the physical plan of a SELECT (like EXPLAIN)."""
        stmts = parse(sql)
        if len(stmts) != 1 or not isinstance(stmts[0], (ast.Select, ast.Union)):
            raise PlanningError("explain() expects a single SELECT")
        # Plan under the statement lock: planning reads the catalog and
        # table statistics, which a concurrent DDL/INSERT may mutate.
        with self._lock:
            plan = self._planner().plan_query(stmts[0])
            return plan.explain()

    def explain_analyze(self, sql: str) -> str:
        """The ``EXPLAIN ANALYZE`` text of a SELECT (see :meth:`analyze`)."""
        return self.analyze(sql).plan_text

    def analyze(self, sql: str, *, memory: bool = False) -> AnalyzeResult:
        """Run a SELECT once, instrumented, and return an
        :class:`~repro.obs.explain.AnalyzeResult`: rows, the EXPLAIN
        ANALYZE text (per node: rows out, loops, inclusive wall time like
        PostgreSQL's, SGB counters) and the per-node metrics tree for
        ``metrics_json()``.

        Memory is opt-in: ``memory=True`` (``EXPLAIN (ANALYZE, MEMORY)``)
        adds per-node ``mem_peak`` by running the query under
        tracemalloc, which multiplies its time several-fold."""
        stmts = parse(sql)
        if len(stmts) != 1 or not isinstance(stmts[0], (ast.Select, ast.Union)):
            raise PlanningError("explain_analyze() expects a single SELECT")
        with self._lock:
            return self._analyze_query(stmts[0], sql, memory)

    # ------------------------------------------------------------------
    def _planner(self) -> Planner:
        return Planner(self.catalog, self.sgb_config)

    def _log_query(self, sql: str, plan, actual_rows: int,
                   latency_s: float, node_metrics=None) -> None:
        """Record one executed SELECT into the query log (if enabled)."""
        if not (self._query_log_on and self.query_log is not None):
            return
        counters: Optional[Dict[str, float]] = None
        if node_metrics:
            counters = {}
            for nm in node_metrics:
                for name, value in nm.bag.counters.items():
                    counters[name] = counters.get(name, 0) + value
        self.query_log.record_query(
            sql, plan, actual_rows=actual_rows, latency_s=latency_s,
            counters=counters,
        )

    def _run_select_plan(
        self, plan, cancel: Optional[CancelToken] = None, sql: str = ""
    ) -> QueryResult:
        """Run a planned SELECT, instrumented when tracing is enabled.

        With tracing off this is the plain (near-zero-overhead) path:
        no per-node instrumentation, just a latency clock read for the
        query log.  With it on, the query takes the instrumented path
        (see :meth:`_run_instrumented`).
        """
        with self._metrics_lock:
            self._queries += 1
        if cancel is not None:
            attach_cancel(plan, cancel)
        if self.sgb_config.trace is not None:
            analyzed = self._run_instrumented(plan, sql)
            return QueryResult(analyzed.columns, analyzed.rows)
        t0 = time.perf_counter()
        rows = plan.rows()
        self._log_query(sql, plan, len(rows), time.perf_counter() - t0)
        return QueryResult(plan.schema.names(), rows)

    def _analyze_query(self, query, sql: str, memory: bool,
                       cancel: Optional[CancelToken] = None) -> AnalyzeResult:
        """Plan ``query`` (timed for the footer) and run it instrumented."""
        t0 = time.perf_counter()
        plan = self._planner().plan_query(query)
        planning_s = time.perf_counter() - t0
        if cancel is not None:
            attach_cancel(plan, cancel)
        return self._run_instrumented(plan, sql, memory=memory,
                                      planning_s=planning_s)

    def _run_instrumented(self, plan, sql: str, *, memory: bool = False,
                          planning_s: Optional[float] = None
                          ) -> AnalyzeResult:
        """The one instrumented run behind ``analyze()``, SQL ``EXPLAIN
        ANALYZE`` and traced SELECTs: attach → run (in a root ``query``
        span when tracing; under tracemalloc only with ``memory``) → log
        → render → fold the node bags into :meth:`metrics_snapshot`, even
        when the run fails → detach."""
        tracer = self.sgb_config.trace
        node_metrics = attach(plan, tracer=tracer, memory=memory)
        try:
            with memory_tracking() if memory else nullcontext():
                t0 = time.perf_counter()
                with maybe_span(tracer, "query", root=plan.describe()) as sp:
                    rows = list(plan)
                    sp.set(rows=len(rows))
                execution_s = time.perf_counter() - t0
            self._log_query(sql, plan, len(rows), execution_s, node_metrics)
            return AnalyzeResult(
                plan.schema.names(), rows,
                render_analyze(plan, planning_s, execution_s),
                plan_metrics(plan),
            )
        finally:
            with self._metrics_lock:
                for nm in node_metrics:
                    self._metrics.merge(nm.bag)
            detach(plan)

    def _execute_statement(self, stmt: Any,
                           cancel: Optional[CancelToken] = None,
                           sql: str = ""):
        if isinstance(stmt, (ast.Select, ast.Union)):
            plan = self._planner().plan_query(stmt)
            return self._run_select_plan(plan, cancel, sql=sql)
        if isinstance(stmt, ast.CreateTable):
            self.catalog.create_table(
                stmt.name,
                [(c.name, c.type_name) for c in stmt.columns],
                if_not_exists=stmt.if_not_exists,
            )
            return StatementResult("CREATE TABLE")
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
            self._drop_views_of_table(stmt.name)
            return StatementResult("DROP TABLE")
        if isinstance(stmt, ast.CreateIndex):
            table = self.catalog.get(stmt.table)
            if stmt.if_not_exists and stmt.name.lower() in table.indexes:
                return StatementResult("CREATE INDEX")
            table.create_index(stmt.name, stmt.column)
            return StatementResult("CREATE INDEX")
        if isinstance(stmt, ast.DropIndex):
            self.catalog.get(stmt.table).drop_index(stmt.name)
            return StatementResult("DROP INDEX")
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(stmt, cancel, sql)
        if isinstance(stmt, ast.Analyze):
            self.update_statistics(stmt.table)
            return StatementResult("ANALYZE")
        raise PlanningError(f"unsupported statement {type(stmt).__name__}")

    def update_statistics(self, table: Optional[str] = None) -> None:
        """Collect table statistics, as the SQL ``ANALYZE`` statement does.

        With ``table`` refreshes that table's stats; without, every table
        in the catalog.  Statistics feed the planner's cardinality and
        cost estimates and the SGB strategy chooser.
        """
        with self._lock:
            if table is not None:
                self.catalog.get(table).analyze()
            else:
                for t in self.catalog:
                    t.analyze()

    def _execute_explain(self, stmt: ast.Explain,
                         cancel: Optional[CancelToken] = None,
                         sql: str = "") -> QueryResult:
        """EXPLAIN [ANALYZE] as a statement: one plan line per result row."""
        if stmt.analyze:
            text = self._analyze_query(stmt.query, sql, stmt.memory,
                                       cancel).plan_text
        else:
            text = self._planner().plan_query(stmt.query).explain()
        return QueryResult(["QUERY PLAN"], [(line,) for line in text.splitlines()])

    def _execute_insert(self, stmt: ast.Insert) -> StatementResult:
        table = self.catalog.get(stmt.table)
        ctx = ast.BindContext(Schema([]))
        count = 0
        for row_exprs in stmt.rows:
            values = [e.bind(ctx)(()) for e in row_exprs]
            if stmt.columns is not None:
                by_name = dict(zip([c.lower() for c in stmt.columns], values))
                ordered = []
                for col in table.schema:
                    if col.name not in by_name:
                        ordered.append(None)
                    else:
                        ordered.append(by_name.pop(col.name))
                if by_name:
                    raise PlanningError(
                        f"unknown insert columns: {sorted(by_name)}"
                    )
                values = ordered
            table.insert(values)
            count += 1
        return StatementResult(f"INSERT {count}")
