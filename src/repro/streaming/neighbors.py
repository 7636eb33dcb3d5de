"""Point-neighbor indexes for the incremental SGB-Any engine.

The streaming engine only ever asks one question: *which already-ingested
points lie within ε of this new point?*  Both indexes answer it with the
same filter-refine shape the batch operator uses (paper Procedure 8): an
ε-box window query (widened by :func:`~repro.geometry.probe_box`, so a
pair at rounded distance exactly ε is never lost at the box edge), followed
by exact verification under the metric.  Verification runs as one
:func:`repro.kernels.pairwise_within` call over the gathered candidates —
vectorized under the numpy backend — instead of a per-candidate python
loop.

Unlike the batch strategies these adapters report their work: ``probe``
returns the raw candidate count alongside the verified neighbor ids, so the
engine's :class:`~repro.streaming.stats.StreamStats` can expose index
selectivity per micro-batch.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import kernels
from repro.core.distance import Metric
from repro.errors import InvalidParameterError
from repro.geometry.rectangle import Rect, probe_box
from repro.index.grid import GridIndex
from repro.index.rtree import RTree

Point = Tuple[float, ...]


class NeighborIndex:
    """Interface: insert points, probe for ε-neighbors with hit accounting."""

    name = "abstract"

    def __init__(self, eps: float, metric: Metric):
        self.eps = eps
        self.metric = metric

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        """Return ``(candidates, neighbor_ids)`` for one ε-range query.

        ``candidates`` counts entries the window query returned before
        exact verification; ``neighbor_ids`` are the ids actually within ε.
        """
        raise NotImplementedError

    def insert(self, point_id: int, point: Point) -> None:
        raise NotImplementedError


class GridNeighborIndex(NeighborIndex):
    """Uniform hash grid with cell side ε (a window touches ≤ 3^d cells)."""

    name = "grid"

    def __init__(self, eps: float, metric: Metric):
        if eps <= 0:
            raise InvalidParameterError(
                "the grid neighbor index requires eps > 0 (cell side is eps)"
            )
        super().__init__(eps, metric)
        self._grid = GridIndex(cell_size=eps)

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        hits = self._grid.search_with_points(probe_box(point, self.eps))
        mask = kernels.pairwise_within(
            [pt for pt, _ in hits], point, self.eps, self.metric
        )
        return len(hits), [pid for (_, pid), ok in zip(hits, mask) if ok]

    def insert(self, point_id: int, point: Point) -> None:
        self._grid.insert(point, point_id)


class RTreeNeighborIndex(NeighborIndex):
    """Guttman R-tree over ingested points (the paper's ``Points_IX``)."""

    name = "rtree"

    def __init__(self, eps: float, metric: Metric, max_entries: int = 16):
        if eps <= 0:
            raise InvalidParameterError(
                "the streaming neighbor index requires eps > 0"
            )
        super().__init__(eps, metric)
        self._rtree = RTree(max_entries=max_entries)

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        hits = self._rtree.search_with_rects(probe_box(point, self.eps))
        mask = kernels.pairwise_within(
            [rect.lo for rect, _ in hits], point, self.eps, self.metric
        )
        return len(hits), [pid for (_, pid), ok in zip(hits, mask) if ok]

    def insert(self, point_id: int, point: Point) -> None:
        self._rtree.insert(Rect.from_point(point), point_id)


class LinearNeighborIndex(NeighborIndex):
    """All-pairs scan — the O(n) probe baseline, used by tests/ablations."""

    name = "linear"

    def __init__(self, eps: float, metric: Metric):
        if eps <= 0:
            raise InvalidParameterError(
                "the streaming neighbor index requires eps > 0"
            )
        super().__init__(eps, metric)
        self._points: List[Point] = []

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        return len(self._points), kernels.neighbors_in_eps(
            self._points, point, self.eps, self.metric
        )

    def insert(self, point_id: int, point: Point) -> None:
        assert point_id == len(self._points), "ids must be dense and ordered"
        self._points.append(point)


_INDEXES = {
    "grid": GridNeighborIndex,
    "rtree": RTreeNeighborIndex,
    "index": RTreeNeighborIndex,
    "linear": LinearNeighborIndex,
    "all-pairs": LinearNeighborIndex,
}


def make_neighbor_index(
    kind: str, eps: float, metric: Metric, rtree_max_entries: int = 16
) -> NeighborIndex:
    key = kind.strip().lower()
    try:
        cls = _INDEXES[key]
    except KeyError:
        raise InvalidParameterError(
            f"unknown neighbor index {kind!r}; expected one of "
            f"{sorted(set(_INDEXES))}"
        ) from None
    if cls is RTreeNeighborIndex:
        return RTreeNeighborIndex(eps, metric, rtree_max_entries)
    return cls(eps, metric)
