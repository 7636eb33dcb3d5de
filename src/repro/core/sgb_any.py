"""SGB-Any: similarity group-by under the *distance-to-any* semantics (§7).

Groups are the connected components of the ε-neighbourhood graph: a point
belongs to a group if it is within ``ε`` of at least one other member.  When
a new point touches several groups they merge, so no overlap clause exists.

Strategies for ``FindCandidateGroups``:

* :class:`NaiveAnyStrategy` — scan every previously processed point (O(n²));
* :class:`RTreeAnyStrategy` — Procedure 8: an R-tree over processed points
  answers the ε-box window query, L2 candidates are verified exactly, and a
  Union-Find forest tracks created/merged groups (Procedure 9).

Because SGB-Any groups are the connected components of the ε-graph, they
do not depend on the order points are processed in — which admits a
second family of *batch* strategies that defer all probing to
``finalize`` and work over the complete point set at once:

* :class:`GridAnyStrategy` — ablation: a uniform grid of cell side ε
  instead of the R-tree.  One :func:`repro.kernels.grid_eps_components`
  call joins neighbouring cells and labels the components (vectorized
  block by block under the numpy backend);
* :class:`KDTreeAnyStrategy` — a bucketed k-d tree; each leaf's members
  are verified against the leaf's ε-expanded window candidates in one
  :func:`repro.kernels.batch_eps_neighbors` call;
* :class:`STRBulkAnyStrategy` — an STR bulk-loaded (packed) R-tree
  probed in Hilbert order with bulk leaf verification;
* :class:`HilbertGridAnyStrategy` — a Hilbert-bulk-built uniform grid
  probed in curve order.

All strategies, incremental and batch, produce bit-identical group
memberships; the batch ones exist purely to make the probe phase faster
(see ``benchmarks/bench_index.py``).
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro import kernels
from repro.core.distance import Metric, resolve_metric
from repro.core.result import GroupingResult
from repro.dsu.union_find import UnionFind
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.rectangle import Rect, probe_box
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.obs.metrics import MetricBag
from repro.obs.trace import Tracer, maybe_span

Point = Tuple[float, ...]


class _AnyStrategyBase:
    """Finds ids of previously-seen points within ε of a probe point.

    ``metrics`` (set by the owning operator) receives ``index_probes`` —
    one per probe point — and ``candidates`` — raw entries the probe
    returned before exact verification (points scanned, for the naive
    strategy).
    """

    name = "abstract"
    #: Batch strategies defer all probing to ``finalize``: the operator
    #: only spools points and asks :meth:`batch_labels` for the
    #: components once every point has arrived.
    batch = False

    def __init__(self, eps: float, metric: Metric):
        self.eps = eps
        self.metric = metric
        self.metrics: Optional[MetricBag] = None

    def neighbors(self, point: Point) -> List[int]:
        raise NotImplementedError

    def insert(self, point_id: int, point: Point) -> None:
        raise NotImplementedError

    def batch_labels(self, points: Sequence[Point]) -> List[int]:
        """First-appearance component labels of ``points`` (batch
        strategies only)."""
        raise NotImplementedError


class NaiveAnyStrategy(_AnyStrategyBase):
    """All-pairs scan over processed points.

    The scan is one :meth:`~repro.kernels.PointStore.query_all` over the
    backend-native point store — a single vectorized distance expression
    under the numpy backend, the original ``within`` loop otherwise.
    """

    name = "all-pairs"

    def __init__(self, eps: float, metric: Metric):
        super().__init__(eps, metric)
        self._store = kernels.make_point_store()

    def neighbors(self, point: Point) -> List[int]:
        if self.metrics is not None:
            self.metrics.incr("index_probes")
            self.metrics.incr("candidates", len(self._store))
            t0 = time.perf_counter()
            result = self._store.query_all(point, self.eps, self.metric)
            self.metrics.observe(
                "distance_batch_latency", time.perf_counter() - t0
            )
            return result
        return self._store.query_all(point, self.eps, self.metric)

    def insert(self, point_id: int, point: Point) -> None:
        stored = self._store.append(point)
        assert point_id == stored, "ids must be dense and ordered"


class RTreeAnyStrategy(_AnyStrategyBase):
    """Procedure 8: R-tree (``Points_IX``) over processed points.

    The ε-box window (widened by :func:`~repro.geometry.probe_box`) is
    verified by the exact L∞ box test and, for other metrics, the actual
    distance (``VerifyPoints`` in the paper).
    """

    name = "index"

    def __init__(self, eps: float, metric: Metric, rtree_max_entries: int = 16):
        super().__init__(eps, metric)
        self._rtree = RTree(max_entries=rtree_max_entries)
        self._store = kernels.make_point_store()

    def neighbors(self, point: Point) -> List[int]:
        hits = self._rtree.search(probe_box(point, self.eps))
        bag = self.metrics
        t0 = time.perf_counter() if bag is not None else 0.0
        # VerifyPoints: one bulk pass over the leaf hits.
        result, _ = self._store.query_ids_eps_box(
            hits, point, self.eps, self.metric,
            count=hasattr(self.metric, "calls"),
        )
        if bag is not None:
            bag.observe("distance_batch_latency", time.perf_counter() - t0)
            bag.incr("index_probes")
            bag.incr("candidates", len(hits))
        return result

    def insert(self, point_id: int, point: Point) -> None:
        self._rtree.insert(Rect.from_point(point), point_id)
        self._store.append(point)


class _BatchAnyStrategyBase(_AnyStrategyBase):
    """Deferred (batch) strategies: nothing happens per point; the
    operator hands over the complete point set at finalize.

    The default :meth:`batch_labels` unions the ε-neighbour lists
    :meth:`batch_neighbors` yields into a Union-Find forest.
    """

    batch = True

    def batch_neighbors(
        self, points: Sequence[Point]
    ) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(point_id, ε-neighbor ids)`` over all points.

        Neighbor lists are computed against the *complete* point set
        (self excluded); since SGB-Any components are order-independent,
        the resulting forest matches the incremental strategies'
        exactly.
        """
        raise NotImplementedError

    def batch_labels(self, points: Sequence[Point]) -> List[int]:
        uf = UnionFind(range(len(points)))
        for pid, neighbors in self.batch_neighbors(points):
            for nb in neighbors:
                uf.union(pid, nb)
        return uf.labels(range(len(points)))


class GridAnyStrategy(_BatchAnyStrategyBase):
    """Uniform-grid variant (ablation; see DESIGN.md).

    A batch strategy: :func:`repro.kernels.grid_eps_components` gathers
    every point's cell neighbourhood, verifies the candidates and labels
    the components in one call.  Counters match the per-point probe it
    replaces: one ``index_probes`` per point, and ``candidates`` the
    pairs that pass the ε-box test.
    """

    name = "grid"

    def __init__(self, eps: float, metric: Metric):
        if eps <= 0:
            raise InvalidParameterError(
                "the grid strategy requires eps > 0 (cell side is eps)"
            )
        super().__init__(eps, metric)

    def batch_labels(self, points: Sequence[Point]) -> List[int]:
        labels, n_window = kernels.grid_eps_components(
            points, self.eps, self.metric
        )
        if self.metrics is not None:
            self.metrics.incr("index_probes", len(points))
            self.metrics.incr("candidates", n_window)
        return labels


class KDTreeAnyStrategy(_BatchAnyStrategyBase):
    """Static bucketed k-d tree with leaf-grouped vectorized probes.

    The tree is built once over all points (median splits, O(n log n)).
    Probing walks the leaves in split order — already a spatial order —
    and for each leaf gathers the candidates of the leaf MBR's ε-expanded
    window *once*, then verifies every leaf member against that one
    candidate block with a single :func:`repro.kernels.batch_eps_neighbors`
    call.  Under the numpy backend that is one broadcasted distance
    expression per leaf instead of one python-level probe per point.
    """

    name = "kdtree"

    def __init__(self, eps: float, metric: Metric, leaf_size: int = 32):
        super().__init__(eps, metric)
        self._leaf_size = leaf_size

    def batch_neighbors(
        self, points: Sequence[Point]
    ) -> Iterator[Tuple[int, List[int]]]:
        from repro.index.kdtree import KDTree

        tree = KDTree.build(points, leaf_size=self._leaf_size)
        eps = self.eps
        metric = self.metric
        bag = self.metrics
        for leaf_ids, lo, hi in tree.leaves():
            wlo = tuple(v - eps for v in lo)
            whi = tuple(v + eps for v in hi)
            cand = tree.window_ids(wlo, whi)
            cand_pts = [points[i] for i in cand]
            probes = [points[i] for i in leaf_ids]
            if bag is not None:
                bag.incr("index_probes", len(leaf_ids))
                bag.incr("candidates", len(cand) * len(leaf_ids))
                t0 = time.perf_counter()
                hits = kernels.batch_eps_neighbors(cand_pts, probes,
                                                   eps, metric)
                bag.observe(
                    "distance_batch_latency", time.perf_counter() - t0
                )
            else:
                hits = kernels.batch_eps_neighbors(cand_pts, probes,
                                                   eps, metric)
            for pid, local in zip(leaf_ids, hits):
                yield pid, [cand[j] for j in local if cand[j] != pid]


class STRBulkAnyStrategy(_BatchAnyStrategyBase):
    """STR bulk-loaded R-tree probed in Hilbert order.

    The packed tree replaces n Guttman inserts with one O(n log n)
    build; probes then run in space-filling-curve order so consecutive
    window queries descend largely the same subtrees, and each window's
    leaf hits are verified with one vectorized pass over the point
    store (the ``VerifyPoints`` step of Procedure 8).
    """

    name = "rtree-bulk"

    def __init__(self, eps: float, metric: Metric,
                 rtree_max_entries: int = 16):
        super().__init__(eps, metric)
        self._max_entries = rtree_max_entries

    def batch_neighbors(
        self, points: Sequence[Point]
    ) -> Iterator[Tuple[int, List[int]]]:
        from repro.index.hilbert import sort_indices

        tree = RTree.bulk_load(
            [(Rect.from_point(p), i) for i, p in enumerate(points)],
            max_entries=self._max_entries,
        )
        store = kernels.make_point_store()
        for p in points:
            store.append(p)
        eps = self.eps
        metric = self.metric
        bag = self.metrics
        count = hasattr(metric, "calls")
        for pid in sort_indices(points):
            point = points[pid]
            hits = tree.search(probe_box(point, eps))
            t0 = time.perf_counter() if bag is not None else 0.0
            verified, _ = store.query_ids_eps_box(
                hits, point, eps, metric, count=count
            )
            if bag is not None:
                bag.observe(
                    "distance_batch_latency", time.perf_counter() - t0
                )
                bag.incr("index_probes")
                bag.incr("candidates", len(hits))
            yield pid, [i for i in verified if i != pid]


class HilbertGridAnyStrategy(_BatchAnyStrategyBase):
    """Hilbert-bulk-built uniform grid probed in curve order.

    One cell-neighbourhood probe per point, as in the python backend's
    :func:`~repro.kernels.grid_eps_components` loop, but the grid's
    buckets are allocated in space-filling-curve order and the probe
    loop walks the same order, so the gather phase revisits adjacent
    buckets instead of hopping across the hash table.
    """

    name = "hilbert-grid"

    def __init__(self, eps: float, metric: Metric):
        if eps <= 0:
            raise InvalidParameterError(
                "the hilbert-grid strategy requires eps > 0 (cell side is eps)"
            )
        super().__init__(eps, metric)

    def batch_neighbors(
        self, points: Sequence[Point]
    ) -> Iterator[Tuple[int, List[int]]]:
        from repro.index.hilbert import sort_indices

        grid = GridIndex.bulk_build(
            [(p, i) for i, p in enumerate(points)],
            cell_size=self.eps, presort="hilbert",
        )
        store = kernels.make_point_store()
        for p in points:
            store.append(p)
        eps = self.eps
        metric = self.metric
        bag = self.metrics
        count = bag is not None or hasattr(metric, "calls")
        for pid in sort_indices(points):
            point = points[pid]
            ids = grid.items_in_cell_range(probe_box(point, eps))
            t0 = time.perf_counter() if bag is not None else 0.0
            result, n_window = store.query_ids_eps_box(
                ids, point, eps, metric, count=count
            )
            if bag is not None:
                bag.observe(
                    "distance_batch_latency", time.perf_counter() - t0
                )
                bag.incr("index_probes")
                bag.incr("candidates", n_window)
            yield pid, [i for i in result if i != pid]


_STRATEGIES = {
    "all-pairs": NaiveAnyStrategy,
    "allpairs": NaiveAnyStrategy,
    "naive": NaiveAnyStrategy,
    "index": RTreeAnyStrategy,
    "indexed": RTreeAnyStrategy,
    "rtree": RTreeAnyStrategy,
    "grid": GridAnyStrategy,
    "kdtree": KDTreeAnyStrategy,
    "kd-tree": KDTreeAnyStrategy,
    "rtree-bulk": STRBulkAnyStrategy,
    "str": STRBulkAnyStrategy,
    "hilbert-grid": HilbertGridAnyStrategy,
}


class SGBAnyOperator:
    """Streaming SGB-Any operator (Procedure 7).

    Under an incremental strategy each arriving point is unioned with
    every ε-neighbour already seen; the Union-Find forest merges groups on
    contact (Procedure 9, ``MergeGroupsInsert``), so the final components
    are exactly the connected components of the ε-graph regardless of
    input order.  A batch strategy only spools points and labels the
    components of the complete point set at :meth:`finalize`.
    """

    def __init__(
        self,
        eps: float,
        metric: Union[str, Metric] = "l2",
        strategy: str = "index",
        rtree_max_entries: int = 16,
        count_distance_computations: bool = False,
        metrics: Optional[MetricBag] = None,
        tracer: Optional[Tracer] = None,
    ):
        if eps < 0:
            raise InvalidParameterError(f"eps must be non-negative, got {eps}")
        self.eps = float(eps)
        self.metric = resolve_metric(metric)
        self.metrics = metrics
        self.tracer = tracer
        if count_distance_computations or metrics is not None:
            from repro.core.stats import CountingMetric

            if not hasattr(self.metric, "calls"):
                self.metric = CountingMetric(self.metric)
        key = strategy.strip().lower()
        try:
            strategy_cls = _STRATEGIES[key]
        except KeyError:
            raise InvalidParameterError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{sorted(set(_STRATEGIES))}"
            ) from None
        if (strategy_cls in (GridAnyStrategy, HilbertGridAnyStrategy)
                and self.eps == 0):
            # eps == 0 degenerates to equality grouping, which the grid
            # cannot express (the cell side is eps); the naive scan gives
            # identical components, so quietly take that path instead.
            strategy_cls = NaiveAnyStrategy
        if strategy_cls is RTreeAnyStrategy:
            self._strategy: _AnyStrategyBase = RTreeAnyStrategy(
                self.eps, self.metric, rtree_max_entries
            )
        elif strategy_cls is STRBulkAnyStrategy:
            self._strategy = STRBulkAnyStrategy(
                self.eps, self.metric, rtree_max_entries
            )
        else:
            self._strategy = strategy_cls(self.eps, self.metric)
        self._strategy.metrics = metrics
        #: The incremental strategies' forest (batch ones label at
        #: finalize and never touch it).
        self._uf = UnionFind()
        self._points: List[Point] = []
        self._dim: Optional[int] = None
        self._finalized = False

    @property
    def strategy_name(self) -> str:
        return self._strategy.name

    @property
    def distance_computations(self) -> int:
        """Similarity-predicate evaluations so far (requires
        ``count_distance_computations=True``)."""
        calls = getattr(self.metric, "calls", None)
        if calls is None:
            raise RuntimeError(
                "construct the operator with count_distance_computations="
                "True to collect this statistic"
            )
        return calls

    def add(self, point: Sequence[float]) -> None:
        self._append_block((point,))
        if not self._strategy.batch:
            pid = len(self._points) - 1
            self._probe(pid, self._points[pid])

    def add_many(self, points: Iterable[Sequence[float]]) -> "SGBAnyOperator":
        with maybe_span(self.tracer, "ingest",
                        strategy=self.strategy_name) as sp:
            n0 = len(self._points)
            self._append_block(points)
            if not self._strategy.batch:
                # Incremental strategy: each point meets the points
                # before it, in arrival order.
                pts = self._points
                for pid in range(n0, len(pts)):
                    self._probe(pid, pts[pid])
            sp.set(points=len(self._points) - n0)
        return self

    def _append_block(self, points: Iterable[Sequence[float]]) -> None:
        """Validate a block of points and spool it.  Batch strategies do
        nothing more until finalize (components are order-independent)."""
        if self._finalized:
            raise RuntimeError("operator already finalized")
        block = [tuple(map(float, p)) for p in points]
        if not block:
            return
        if self._dim is None:
            self._dim = len(block[0])
            if self._dim < 1:
                raise InvalidParameterError("points must have >= 1 dimension")
        dim = self._dim
        for pt in block:
            if len(pt) != dim:
                raise DimensionMismatchError(
                    f"point dimension {len(pt)} != {dim}"
                )
        self._points.extend(block)

    def _probe(self, pid: int, pt: Point) -> None:
        """Union point ``pid`` with its ε-neighbours among the points
        before it, then index it (incremental strategies)."""
        self._uf.add(pid)
        bag = self.metrics
        if bag is not None:
            t0 = time.perf_counter()
            neighbors = self._strategy.neighbors(pt)
            bag.observe("probe_latency", time.perf_counter() - t0)
        else:
            neighbors = self._strategy.neighbors(pt)
        for nb in neighbors:
            self._uf.union(pid, nb)
        self._strategy.insert(pid, pt)

    def finalize(self) -> GroupingResult:
        if self._finalized:
            raise RuntimeError("operator already finalized")
        self._finalized = True
        n = len(self._points)
        labels: Optional[List[int]] = None
        if self._strategy.batch and n:
            labels = self._run_batch_probe()
        bag = self.metrics
        with maybe_span(self.tracer, "finalize", points=n) as sp:
            if labels is None:
                labels = self._uf.labels(range(n))
            n_groups = max(labels) + 1 if labels else 0
            sp.set(groups=n_groups)
        if bag is not None:
            if n:
                # Every point starts a singleton group and every effective
                # union merges two, so the group counters are tallied once
                # here rather than per point.
                bag.incr("points", n)
                bag.incr("groups_created", n)
                bag.incr("groups_merged", n - n_groups)
            bag.incr("distance_computations", getattr(self.metric, "calls", 0))
        return GroupingResult(labels, self._points)

    def _run_batch_probe(self) -> List[int]:
        """A batch strategy's deferred probe pass: component labels."""
        bag = self.metrics
        with maybe_span(self.tracer, "probe_batch",
                        strategy=self.strategy_name,
                        points=len(self._points)):
            t0 = time.perf_counter()
            labels = self._strategy.batch_labels(self._points)
            if bag is not None:
                bag.observe("probe_latency", time.perf_counter() - t0)
        return labels
