"""Timing shims and the span recorder for the traced run.

The traced run wraps public entry points of each layer (the SQL parser
and planner, ``Database``/``Table`` methods, the plan root's iteration,
the SGB operators, ``repro.kernels``, the spatial indexes, ``UnionFind``,
stream views and the wire codec) with functions that push a frame on a
per-thread stack.  When a frame pops, its duration is added to its
parent's child time, so every frame's self time (duration minus the time
its children cover) is known without keeping the frames.  Coarse frames
(statements, operators, flushes) are also kept as spans — name, start,
end, parent, request id — and written out at the end; the frequent
calls of the core, kernel, index and DSU layers and per-row inserts are
only aggregated.

Nothing under ``src/`` changes: :func:`install` patches attributes in
memory and returns a handle whose :meth:`Shims.remove` restores them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Span-name prefixes recorded only as aggregates (too frequent to keep).
AGGREGATE_ONLY = ("kernels.", "index.", "dsu.", "core.", "service.wire",
                  "engine.exec", "engine.insert")


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id", "kind",
                 "request", "nested")

    def __init__(self, name, start, span_id, parent, kind, request):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else 0
        self.kind = kind if kind is not None else (
            parent.kind if parent is not None else "-")
        self.request = request if request is not None else (
            parent.request if parent is not None else "")
        # A re-entrant call (same name as its caller) is not a new call.
        self.nested = parent is not None and parent.name == name


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        #: (kind, name) -> [outer calls, total s, self s]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: (kind, name) -> count
        self.counts: Dict[Tuple[str, str], float] = {}
        self.spans: List[tuple] = []
        self.exec_depth = 0


class Recorder:
    """Per-thread frame stacks with aggregated self times and kept spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._states_lock:
                self._states.append(st)
        return st

    # -- frames ------------------------------------------------------------
    def push(self, name: str, kind: Optional[str] = None,
             request: Optional[str] = None) -> _Frame:
        st = self.state()
        parent = st.stack[-1] if st.stack else None
        frame = _Frame(name, _clock(), next(self._ids), parent, kind, request)
        st.stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> float:
        end = _clock()
        st = self.state()
        stack = st.stack
        # Frames pop in LIFO order; an exception unwinding through a
        # generator may leave deeper frames behind, so drop down to ours.
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        key = (frame.kind, frame.name)
        acc = st.agg.get(key)
        if acc is None:
            acc = st.agg[key] = [0, 0.0, 0.0]
        if not frame.nested:
            acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame.child
        if not frame.name.startswith(AGGREGATE_ONLY):
            st.spans.append((frame.span_id, frame.name, frame.start, end,
                             frame.parent_id, frame.request, frame.kind))
        return dur

    def count(self, name: str, n: float = 1) -> None:
        st = self.state()
        kind = st.stack[-1].kind if st.stack else "-"
        key = (kind, name)
        st.counts[key] = st.counts.get(key, 0) + n

    def in_stack(self, name: str) -> bool:
        return any(f.name == name for f in self.state().stack)

    # -- results -----------------------------------------------------------
    def totals(self) -> Tuple[Dict[Tuple[str, str], List[float]],
                              Dict[Tuple[str, str], float]]:
        agg: Dict[Tuple[str, str], List[float]] = {}
        counts: Dict[Tuple[str, str], float] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for key, (calls, total, self_s) in st.agg.items():
                acc = agg.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            for key, n in st.counts.items():
                counts[key] = counts.get(key, 0) + n
        return agg, counts

    def write_spans(self, path: str) -> int:
        """Write every kept span as one JSON object per line."""
        with self._states_lock:
            states = list(self._states)
        n = 0
        with open(path, "w") as f:
            for st in states:
                for sid, name, start, end, parent, request, kind in st.spans:
                    f.write(json.dumps({
                        "id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "request": request, "kind": kind,
                    }) + "\n")
                    n += 1
        return n


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
def _count_hits(result: Any) -> int:
    """Neighbours returned by a kernel call: list lengths or mask trues."""
    if isinstance(result, tuple) and result and isinstance(result[0], list):
        result = result[0]  # (ids, window tally)
    if isinstance(result, list):
        if result and isinstance(result[0], list):
            return sum(len(r) for r in result)
        if result and isinstance(result[0], bool):
            return sum(result)
        return len(result)
    if hasattr(result, "sum") and hasattr(result, "dtype"):
        return int(result.sum()) if result.dtype == bool else len(result)
    return 0


def _len0(args: tuple) -> int:
    try:
        return len(args[0])
    except (TypeError, IndexError):
        return 0


def _len_self(args: tuple) -> int:
    return len(args[0])


def _len_ids(args: tuple) -> int:
    return len(args[1])


class Shims:
    """Installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: Any, *,
             rows: Optional[Callable[[tuple], int]] = None,
             hits: bool = False, generator: bool = False) -> None:
        """Time ``owner.attr`` as span ``name`` (a string, or a callable of
        the call's args returning one)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapper_kind = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper_kind = type(raw)
            fn = raw.__func__
        rec = self.rec
        name_of = name if callable(name) else (lambda args, _n=name: _n)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = name_of(args)
            frame = rec.push(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.pop(frame)
            if rows is not None:
                rec.count(span + ".rows", rows(args))
            if hits:
                rec.count(span + ".hits", _count_hits(result))
            if generator and isinstance(result, types.GeneratorType):
                return _timed_resumptions(rec, span, result)
            return result

        new = wrapper_kind(timed) if wrapper_kind is not None else timed
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _timed_resumptions(rec: Recorder, name: str, gen,
                       st: Optional[_ThreadState] = None):
    """Iterate ``gen`` timing each resumption as a frame named ``name``;
    with ``st``, plan nodes iterated inside a resumption run untimed."""
    while True:
        frame = rec.push(name)
        if st is not None:
            st.exec_depth += 1
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            if st is not None:
                st.exec_depth -= 1
            rec.pop(frame)
        yield item


def install(rec: Recorder, classify: Optional[Callable[[str], str]] = None
            ) -> Shims:
    """Wrap every layer boundary; ``classify(sql)`` names the op kind of a
    statement that starts a new request (server side, where the client's
    op frame is in another process)."""
    from repro import kernels
    from repro.dsu.union_find import UnionFind
    from repro.core.sgb_all import SGBAllOperator
    from repro.core.sgb_any import SGBAnyOperator
    from repro.engine import database as database_mod
    from repro.engine.database import Database
    from repro.engine.executor.base import PhysicalOperator
    from repro.engine.executor.sgb import SGBAggregate
    from repro.engine.table import Table
    from repro.index.grid import GridIndex
    from repro.index.kdtree import KDTree
    from repro.index.rtree import RTree
    from repro.service import wire
    from repro.sql.planner import Planner
    from repro.streaming.micro_batch import MicroBatcher
    from repro.streaming.view import StreamingGroupView

    shims = Shims(rec)
    w = shims.wrap

    # repro.sql
    w(database_mod, "parse", "sql.parse")
    w(Planner, "plan_query", "sql.plan")

    # repro.stats: a refresh is an analyze that runs inside planning.
    w(Table, "analyze", lambda args: (
        "stats.refresh" if rec.in_stack("sql.plan") else "stats.analyze"))
    orig_apply = SGBAggregate.__dict__["apply_choice"]

    def apply_choice(self, choice):
        rec.count(f"stats.strategy.{self.mode}.{choice.strategy}")
        return orig_apply(self, choice)

    shims.replace(SGBAggregate, "apply_choice", apply_choice)

    # repro.engine: statements open a request frame when none is open.
    for attr, span in (("execute", "engine.execute"),
                       ("stream_snapshot", "engine.stream_snapshot")):
        orig = Database.__dict__[attr]

        def entry(self, arg, *a, _orig=orig, _span=span, **kw):
            kind = None
            request = None
            if not rec.state().stack:
                cancel = kw.get("cancel")
                request = getattr(cancel, "label", "") or ""
                if classify is not None:
                    kind = classify(arg if _span == "engine.execute"
                                    else "stream:" + arg)
            frame = rec.push(_span, kind=kind, request=request)
            try:
                return _orig(self, arg, *a, **kw)
            finally:
                rec.pop(frame)

        shims.replace(Database, attr, functools.wraps(orig)(entry))
    w(Table, "insert", "engine.insert")
    w(Table, "insert_many", "engine.insert")
    orig_iter = PhysicalOperator.__dict__["__iter__"]

    def plan_iter(self):
        # Only the plan root is timed: nested nodes iterate inside it.
        st = rec.state()
        if st.exec_depth:
            return orig_iter(self)
        return _timed_resumptions(rec, "engine.exec", orig_iter(self), st)

    shims.replace(PhysicalOperator, "__iter__", plan_iter)

    # repro.core
    for op, span in ((SGBAnyOperator, "core.sgb_any"),
                     (SGBAllOperator, "core.sgb_all")):
        # ``add_many`` covers the per-point ``add`` calls the engine makes.
        for attr in ("add_many", "finalize"):
            w(op, attr, span)

    # repro.kernels: module functions and the active backend's stores.
    for fn in ("pairwise_within", "neighbors_in_eps", "points_in_rect",
               "all_within", "any_within", "batch_window_query",
               "batch_eps_neighbors"):
        w(kernels, fn, "kernels." + fn, rows=_len0, hits=True)
    store_cls = type(kernels.make_point_store())
    w(store_cls, "append", "kernels.store_append")
    w(store_cls, "query_all", "kernels.query_all", rows=_len_self, hits=True)
    w(store_cls, "query_ids", "kernels.query_ids", rows=_len_ids, hits=True)
    w(store_cls, "query_ids_eps_box", "kernels.query_ids_eps_box",
      rows=_len_ids, hits=True)
    block = kernels.make_group_block()
    if block is not None:
        w(type(block), "within_mask", "kernels.within_mask",
          rows=_len_self, hits=True)
    rects = kernels.make_rect_store(2)
    if rects is not None:
        for attr in ("eps_contains", "mbr_intersects"):
            w(type(rects), attr, "kernels." + attr, rows=_len_self,
              hits=True)

    # repro.index
    for attr in ("insert", "delete", "bulk_build"):
        w(GridIndex, attr, "index.build")
    for attr in ("search", "search_with_points", "items_in_cell_range"):
        w(GridIndex, attr, "index.probe")
    w(KDTree, "build", "index.build")
    for attr in ("window_ids", "eps_candidates"):
        w(KDTree, attr, "index.probe")
    w(KDTree, "leaves", "index.probe", generator=True)
    for attr in ("insert", "delete", "update", "bulk_load"):
        w(RTree, attr, "index.build")
    for attr in ("search", "search_with_rects", "nearest"):
        w(RTree, attr, "index.probe")

    # repro.dsu: union only.  Its finds run inside it; a shim on every
    # find (one per point at finalize, two per union) would cost more than
    # the finds themselves.
    w(UnionFind, "union", "dsu.union")

    # repro.streaming
    orig_flush = MicroBatcher.__dict__["flush"]

    def flush(self):
        rec.count("streaming.rows_flushed", len(self._pending))
        frame = rec.push("streaming.flush")
        try:
            return orig_flush(self)
        finally:
            rec.pop(frame)

    shims.replace(MicroBatcher, "flush", functools.wraps(orig_flush)(flush))
    w(StreamingGroupView, "snapshot", "streaming.snapshot")

    # repro.service wire codec (client and server side)
    w(wire, "dumps", "service.wire")
    w(wire, "loads", "service.wire")
    return shims
