"""Pure-Python kernel backend: the dependency-free reference loops.

Every primitive here is semantically the ground truth the numpy backend
must agree with — the hot-path strategies used exactly these loops inline
before the kernel layer existed, so keeping them verbatim preserves the
seed behaviour (including which ``Metric.within`` calls a
:class:`~repro.core.stats.CountingMetric` observes) when numpy is absent
or ``REPRO_BACKEND=python`` forces this backend.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dsu.union_find import UnionFind
from repro.geometry.rectangle import probe_box
from repro.index.grid import GridIndex
from repro.kernels._protocols import Coords, MetricLike, Point

name = "python"


# ----------------------------------------------------------------------
# stateless batch primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    """Per-point similarity predicate results against probe ``q``."""
    within = metric.within
    return [within(p, q, eps) for p in points]


def neighbors_in_eps(points: Sequence[Coords], q: Coords, eps: float,
                     metric: MetricLike) -> List[int]:
    """Indices of ``points`` within ``eps`` of ``q`` (ascending)."""
    within = metric.within
    return [i for i, p in enumerate(points) if within(p, q, eps)]


def points_in_rect(points: Sequence[Coords], lo: Coords,
                   hi: Coords) -> List[bool]:
    """Bulk closed-boundary PointInRectangleTest."""
    if len(lo) == 2:
        l0, l1 = lo
        h0, h1 = hi
        return [l0 <= p[0] <= h0 and l1 <= p[1] <= h1 for p in points]
    return [
        all(l <= v <= h for v, l, h in zip(p, lo, hi)) for p in points
    ]


def batch_window_query(points: Sequence[Coords], lo: Coords,
                       hi: Coords) -> List[int]:
    """Ascending indices of ``points`` inside the closed box ``[lo, hi]``.

    The index-returning sibling of :func:`points_in_rect`: index gathers
    (grid cell scans, k-d tree / R-tree leaf verification) consume ids,
    not masks, so this saves callers a flatnonzero pass per probe.
    """
    if len(lo) == 2:
        l0, l1 = lo
        h0, h1 = hi
        return [
            i for i, p in enumerate(points)
            if l0 <= p[0] <= h0 and l1 <= p[1] <= h1
        ]
    return [
        i for i, p in enumerate(points)
        if all(l <= v <= h for v, l, h in zip(p, lo, hi))
    ]


def batch_eps_neighbors(points: Sequence[Coords], probes: Sequence[Coords],
                        eps: float, metric: MetricLike) -> List[List[int]]:
    """Per-probe ascending indices of ``points`` within ``eps``.

    The many-probes-at-once primitive behind the batch SGB-Any
    strategies: one candidate block (a k-d tree window gather, an R-tree
    leaf run) verified against a whole chunk of probe points.  Every
    (probe, point) pair is evaluated — no early exit — so a
    ``CountingMetric`` observes exactly ``len(probes) * len(points)``
    calls, matching the numpy backend's bulk charge.
    """
    if not points or not probes:
        return [[] for _ in probes]
    within = metric.within
    return [
        [i for i, p in enumerate(points) if within(p, q, eps)]
        for q in probes
    ]


def all_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    within = metric.within
    return all(within(p, q, eps) for p in points)


def any_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    within = metric.within
    return any(within(p, q, eps) for p in points)


# ----------------------------------------------------------------------
# incremental stores
# ----------------------------------------------------------------------
class PointStore:
    """Append-only dense-id point collection with ε-query primitives.

    Ids are the append order (0, 1, 2, ...), matching how the SGB-Any
    strategies number processed points.
    """

    backend = name

    def __init__(self) -> None:
        self._points: List[Point] = []

    def __len__(self) -> int:
        return len(self._points)

    def append(self, point: Point) -> int:
        self._points.append(point)
        return len(self._points) - 1

    def get(self, i: int) -> Point:
        return self._points[i]

    def query_all(self, q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        """Ids of all stored points within ``eps`` of ``q``."""
        within = metric.within
        return [
            i for i, p in enumerate(self._points) if within(p, q, eps)
        ]

    def query_ids(self, ids: Iterable[int], q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        """Subset of ``ids`` whose point is within ``eps`` of ``q``
        (input order preserved)."""
        within = metric.within
        points = self._points
        return [i for i in ids if within(points[i], q, eps)]

    def query_ids_eps_box(
        self, ids: Iterable[int], q: Coords, eps: float,
        metric: MetricLike, count: bool = True,
    ) -> Tuple[List[int], int]:
        """ε-box-filter ``ids`` around ``q`` then verify with the metric
        (see :func:`eps_box_filter`).  ``count`` is a hint for backends
        whose counting costs extra; here the box tally is a free
        byproduct."""
        return eps_box_filter(self._points, ids, q, eps, metric)


def eps_box_filter(points: Sequence[Coords], ids: Iterable[int], q: Coords,
                   eps: float, metric: MetricLike) -> Tuple[List[int], int]:
    """The ``ids`` whose point is within ``eps`` of ``q``, and how many
    passed the box test.

    The box test compares coordinate differences, ``|p_i - q_i| <= eps``,
    so it *is* the L∞ predicate, bit for bit, whatever window gathered
    ``ids``; no metric evaluation — hence no ``CountingMetric`` charge —
    happens for L∞.
    """
    in_window: List[int] = []
    if len(q) == 2:
        q0, q1 = q
        for i in ids:
            p = points[i]
            if -eps <= p[0] - q0 <= eps and -eps <= p[1] - q1 <= eps:
                in_window.append(i)
    else:
        for i in ids:
            if all(-eps <= v - c <= eps for v, c in zip(points[i], q)):
                in_window.append(i)
    if metric.name == "linf":
        return in_window, len(in_window)
    within = metric.within
    return (
        [i for i in in_window if within(points[i], q, eps)],
        len(in_window),
    )


def grid_eps_components(points: Sequence[Point], eps: float,
                        metric: MetricLike) -> Tuple[List[int], int]:
    """Connected components of the ε-graph over ``points`` (``eps > 0``).

    Returns first-appearance component labels and the number of
    candidate pairs that passed the ε-box test (``n_window``).  The
    reference loop: each point, in id order, gathers the earlier points
    in the cells its widened ε-window (:func:`~repro.geometry.probe_box`)
    overlaps on a uniform grid of cell side ``eps``, box-filters and
    verifies them (:func:`eps_box_filter`, so a ``CountingMetric``
    observes ``n_window`` calls unless the metric is L∞), and unions
    every hit into a Union-Find forest.
    """
    grid = GridIndex(cell_size=eps)
    uf = UnionFind()
    n_window = 0
    for pid, point in enumerate(points):
        uf.add(pid)
        ids = grid.items_in_cell_range(probe_box(point, eps))
        hits, k = eps_box_filter(points, ids, point, eps, metric)
        n_window += k
        for nb in hits:
            uf.union(pid, nb)
        grid.insert(point, pid)
    return uf.labels(range(len(points))), n_window


def make_point_store() -> PointStore:
    return PointStore()


def make_group_block() -> Optional["object"]:
    """No per-group coordinate block either; ``Group`` keeps its loops."""
    return None
