"""Numpy kernel backend: array-at-a-time similarity primitives.

The strategies' hot loops evaluate the similarity predicate against a
*block* of points (every processed point, a grid neighbourhood, the R-tree
window hits, a group's members).  This backend turns each block into one
vectorized expression over a contiguous ``float64`` buffer instead of a
per-pair ``Metric.within`` call.

Counting contract: the SGB operators observe predicate work through a
:class:`~repro.core.stats.CountingMetric` (``metric.calls``).  Vectorized
kernels cannot route every pair through ``within``, so they *charge* the
wrapped metric with the number of pairs evaluated.  For the SGB-Any paths
this equals the pure-Python call count exactly (those loops never
early-exit between pairs); for SGB-All member scans the python backend may
count fewer thanks to first-miss early exits — see docs/architecture.md.

Incremental stores grow by capacity doubling so per-append cost stays
amortized O(d) with no list→array conversion on the query path.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rectangle import EDGE_TOLERANCE
from repro.kernels._protocols import Coords, MetricLike, Point
from repro.kernels.python_backend import (
    eps_box_filter,
    grid_eps_components as _grid_reference,
)

name = "numpy"

#: Below this many points a vectorized member scan loses to the plain
#: loop (array slicing + ufunc launch overhead); group-level helpers fall
#: back to the python loop under it.
SMALL_BLOCK = 24

#: The ε-box grid probe has a cheaper python loop per candidate (inline
#: box test, metric only on box hits), so its vectorization threshold
#: sits higher.
_EPS_BOX_FALLBACK = 96


def _metric_kind(metric: MetricLike) -> Tuple[str, float]:
    """Collapse a metric (possibly a CountingMetric proxy) to a kernel
    dispatch key: ``("l2"|"linf"|"lp", p)``."""
    inner = getattr(metric, "inner", metric)
    mname = inner.name
    if mname == "l2":
        return "l2", 2.0
    if mname == "linf":
        return "linf", 0.0
    p = getattr(inner, "p", None)
    if p is not None:
        return "lp", float(p)
    # Unknown metric object: no vectorized form; caller must loop.
    return "other", 0.0


def _charge(metric: MetricLike, n: int) -> None:
    """Record ``n`` predicate evaluations on a counting metric proxy."""
    if hasattr(metric, "calls"):
        metric.calls += n  # type: ignore[attr-defined]


def _within_mask(coords: "np.ndarray", q: Coords, eps: float,
                 metric: MetricLike) -> Optional["np.ndarray"]:
    """Boolean mask of rows of ``coords`` within ``eps`` of ``q``, or
    None when the metric has no vectorized form."""
    kind, p = _metric_kind(metric)
    diff = coords - np.asarray(q, dtype=np.float64)
    if kind == "l2":
        return np.einsum("ij,ij->i", diff, diff) <= eps * eps
    if kind == "linf":
        return np.abs(diff).max(axis=1) <= eps
    if kind == "lp":
        return (np.abs(diff) ** p).sum(axis=1) <= eps**p
    return None


# ----------------------------------------------------------------------
# stateless batch primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    mask = _within_mask(coords, q, eps, metric)
    if mask is None:
        within = metric.within
        return [within(p, q, eps) for p in points]
    _charge(metric, len(coords))
    return mask.tolist()


def neighbors_in_eps(points: Sequence[Coords], q: Coords, eps: float,
                     metric: MetricLike) -> List[int]:
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    mask = _within_mask(coords, q, eps, metric)
    if mask is None:
        within = metric.within
        return [i for i, p in enumerate(points) if within(p, q, eps)]
    _charge(metric, len(coords))
    return np.flatnonzero(mask).tolist()


def points_in_rect(points: Sequence[Coords], lo: Coords,
                   hi: Coords) -> List[bool]:
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    lo_a = np.asarray(lo, dtype=np.float64)
    hi_a = np.asarray(hi, dtype=np.float64)
    mask = ((coords >= lo_a) & (coords <= hi_a)).all(axis=1)
    return mask.tolist()


def batch_window_query(points: Sequence[Coords], lo: Coords,
                       hi: Coords) -> List[int]:
    """Ascending indices of ``points`` inside the closed box ``[lo, hi]``."""
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    lo_a = np.asarray(lo, dtype=np.float64)
    hi_a = np.asarray(hi, dtype=np.float64)
    mask = ((coords >= lo_a) & (coords <= hi_a)).all(axis=1)
    return np.flatnonzero(mask).tolist()


def batch_eps_neighbors(points: Sequence[Coords], probes: Sequence[Coords],
                        eps: float, metric: MetricLike) -> List[List[int]]:
    """Per-probe ascending indices of ``points`` within ``eps``.

    One broadcasted ``(m, n, d)`` distance expression per call — the
    block shapes the batch strategies feed (a leaf's probes × its
    ε-window candidates) stay small enough that the full matrix beats m
    separate kernel launches.  Charges the counting metric ``m * n``
    pairs, matching the python backend's no-early-exit loops.
    """
    m = len(probes)
    n = len(points)
    if m == 0 or n == 0:
        return [[] for _ in range(m)]
    kind, p = _metric_kind(metric)
    if kind == "other" or m * n < SMALL_BLOCK:
        within = metric.within
        return [
            [i for i, pt in enumerate(points) if within(pt, q, eps)]
            for q in probes
        ]
    coords = np.asarray(points, dtype=np.float64)
    qs = np.asarray(probes, dtype=np.float64)
    diff = qs[:, None, :] - coords[None, :, :]
    if kind == "l2":
        mask = np.einsum("ijk,ijk->ij", diff, diff) <= eps * eps
    elif kind == "linf":
        mask = np.abs(diff).max(axis=2) <= eps
    else:  # lp
        mask = (np.abs(diff) ** p).sum(axis=2) <= eps**p
    _charge(metric, m * n)
    return [np.flatnonzero(mask[j]).tolist() for j in range(m)]


def all_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    if len(points) < SMALL_BLOCK:
        within = metric.within
        return all(within(p, q, eps) for p in points)
    mask = _within_mask(np.asarray(points, dtype=np.float64), q, eps, metric)
    if mask is None:
        within = metric.within
        return all(within(p, q, eps) for p in points)
    _charge(metric, len(points))
    return bool(mask.all())


def any_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    if len(points) < SMALL_BLOCK:
        within = metric.within
        return any(within(p, q, eps) for p in points)
    mask = _within_mask(np.asarray(points, dtype=np.float64), q, eps, metric)
    if mask is None:
        within = metric.within
        return any(within(p, q, eps) for p in points)
    _charge(metric, len(points))
    return bool(mask.any())


# ----------------------------------------------------------------------
# lazily-synced coordinate buffer (shared by PointStore / GroupBlock)
# ----------------------------------------------------------------------
class _LazyCoords:
    """Tuple list + contiguous ``float64`` mirror, synced on first use.

    Appends only touch the python list; the array mirror catches up in
    bulk (one ``np.asarray`` over the pending slice) the next time a
    vectorized query actually needs it.  Workloads whose blocks stay
    under the fallback thresholds therefore never pay any array
    maintenance at all.
    """

    __slots__ = ("tuples", "_buf", "_synced")

    def __init__(self) -> None:
        self.tuples: List[Point] = []
        self._buf: Optional[np.ndarray] = None
        self._synced = 0

    def __len__(self) -> int:
        return len(self.tuples)

    def append(self, point: Point) -> int:
        self.tuples.append(point)
        return len(self.tuples) - 1

    def rebuild(self, points: Sequence[Point]) -> None:
        self.tuples = list(points)
        self._buf = None
        self._synced = 0

    def view(self) -> "np.ndarray":
        n = len(self.tuples)
        buf = self._buf
        if self._synced < n:
            if buf is None or buf.shape[0] < n:
                cap = max(16, 2 * n)
                grown = np.empty(
                    (cap, len(self.tuples[0])), dtype=np.float64
                )
                if buf is not None and self._synced:
                    grown[: self._synced] = buf[: self._synced]
                self._buf = buf = grown
            buf[self._synced : n] = np.asarray(
                self.tuples[self._synced : n], dtype=np.float64
            )
            self._synced = n
        assert buf is not None
        return buf[:n]


class PointStore:
    """Dense-id point collection over a doubling ``float64`` buffer.

    Points are stored twice: as rows of the contiguous array the
    vectorized queries run over, and as the original float tuples so that
    small batches — where ufunc launch overhead exceeds the loop cost —
    can take the exact pure-python path, ``CountingMetric`` semantics
    included.
    """

    backend = name

    def __init__(self) -> None:
        self._coords = _LazyCoords()

    def __len__(self) -> int:
        return len(self._coords)

    def append(self, point: Point) -> int:
        return self._coords.append(point)

    def get(self, i: int) -> Point:
        return self._coords.tuples[i]

    def query_all(self, q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        n = len(self._coords)
        if n == 0:
            return []
        if n >= SMALL_BLOCK:
            mask = _within_mask(self._coords.view(), q, eps, metric)
            if mask is not None:
                _charge(metric, n)
                return np.flatnonzero(mask).tolist()
        within = metric.within
        return [
            i
            for i, p in enumerate(self._coords.tuples)
            if within(p, q, eps)
        ]

    def query_ids(self, ids: Sequence[int], q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        if not ids:
            return []
        if len(ids) >= SMALL_BLOCK:
            ids_a = np.fromiter(ids, dtype=np.intp, count=len(ids))
            mask = _within_mask(
                self._coords.view()[ids_a], q, eps, metric
            )
            if mask is not None:
                _charge(metric, len(ids))
                return ids_a[mask].tolist()
        tuples = self._coords.tuples
        within = metric.within
        return [i for i in ids if within(tuples[i], q, eps)]

    def query_ids_eps_box(
        self, ids: Sequence[int], q: Coords, eps: float,
        metric: MetricLike, count: bool = True,
    ) -> Tuple[List[int], int]:
        """ε-box-filter ``ids`` around ``q`` then metric-verify.

        Every Minkowski ε-ball is contained in the ε-box, so the
        vectorized path needs only the metric mask; the box tally (the
        strategies' ``candidates`` counter, and the charge matching the
        python backend's per-window-hit ``within`` calls) is computed
        only when ``count`` is requested.
        """
        k = len(ids)
        if k < _EPS_BOX_FALLBACK or _metric_kind(metric)[0] == "other":
            # The python backend's loop, so both backends agree bit for bit.
            return eps_box_filter(self._coords.tuples, ids, q, eps, metric)
        kind, p = _metric_kind(metric)
        ids_a = np.fromiter(ids, dtype=np.intp, count=k)
        diff = self._coords.view()[ids_a] - np.asarray(q, dtype=np.float64)
        if kind == "linf":
            wmask = (np.abs(diff) <= eps).all(axis=1)
            return ids_a[wmask].tolist(), int(wmask.sum()) if count else 0
        if kind == "l2":
            mask = np.einsum("ij,ij->i", diff, diff) <= eps * eps
        else:  # lp
            mask = (np.abs(diff) ** p).sum(axis=1) <= eps**p
        if count:
            n_window = int((np.abs(diff) <= eps).all(axis=1).sum())
            _charge(metric, n_window)
            return ids_a[mask].tolist(), n_window
        return ids_a[mask].tolist(), 0


# ----------------------------------------------------------------------
# group-side stores
# ----------------------------------------------------------------------
class GroupBlock:
    """Per-group member coordinates kept as a contiguous array.

    ``Group`` mirrors every ``add``/``remove_members`` into this block so
    clique scans over large groups become single vectorized expressions.
    """

    backend = name
    __slots__ = ("_coords",)

    def __init__(self) -> None:
        self._coords = _LazyCoords()

    def __len__(self) -> int:
        return len(self._coords)

    def append(self, point: Sequence[float]) -> None:
        self._coords.append(tuple(point))

    def rebuild(self, points: Sequence[Sequence[float]]) -> None:
        self._coords.rebuild([tuple(p) for p in points])

    def within_mask(
        self, q: Coords, eps: float, metric: MetricLike,
    ) -> "Optional[np.ndarray]":
        """Boolean mask over members (empty for an empty block), or None
        if not vectorizable."""
        if len(self._coords) == 0:
            return np.zeros(0, dtype=bool)
        mask = _within_mask(self._coords.view(), q, eps, metric)
        if mask is None:
            return None
        _charge(metric, len(self._coords))
        return mask


# ----------------------------------------------------------------------
# ε-graph components on a uniform grid
# ----------------------------------------------------------------------
#: Candidate pairs :func:`grid_eps_components` expands and tests per
#: block.  The kernel's working set is O(block) whatever the density:
#: each block's ε-edges are folded into the label array and dropped, so
#: no edge list is ever held.
_PAIR_BLOCK = 1 << 13

#: Below this many points the reference loop beats the kernel's fixed
#: set-up (sort, cell table, one lookup per neighbour offset); a
#: PARTITION BY with many tiny partitions then pays no numpy set-up.
_GRID_FALLBACK = 48

#: Cell keys must stay exact in float64 and their mixed-radix code must
#: fit an int64; inputs beyond either take the reference loop.
_KEY_LIMIT = float(2**52)
_CODE_LIMIT = 2**62

#: Candidate rows ``(a, b_start, b_len)`` over sorted positions.
_Rows = Tuple["np.ndarray", "np.ndarray", "np.ndarray"]


def grid_eps_components(points: Sequence[Point], eps: float,
                        metric: MetricLike) -> Tuple[List[int], int]:
    """Connected components of the ε-graph, as one batch grid join.

    Same contract as the python backend's reference loop: first-appearance
    labels plus the number of candidate pairs passing the ε-box test, and
    a ``CountingMetric`` charged that many calls unless the metric is L∞.

    Points are sorted by the integer key of their cell (side ``eps``, the
    cells :class:`~repro.index.grid.GridIndex` uses).  Candidate pairs
    are every pair within a cell or across neighbouring cells (the 3^d
    neighbourhood, each cell pair once), plus, for a point whose widened
    probe window (:func:`~repro.geometry.probe_box`) reaches a cell two
    steps away (a point on a cell edge), that cell's earlier points:
    every pair the reference loop gathers that can pass the box test, so
    the box tally matches it.  Pairs are expanded, box-tested and
    metric-verified in blocks of :data:`_PAIR_BLOCK`; each block's
    ε-edges are folded into a label array by min-label hooking with
    pointer jumping, so every root is its component's smallest id.
    """
    kind, p = _metric_kind(metric)
    if len(points) < max(2, _GRID_FALLBACK) or kind == "other":
        return _grid_reference(points, eps, metric)
    pts = np.asarray(points, dtype=np.float64)
    table = _cell_rows(pts, eps)
    if table is None:
        return _grid_reference(points, eps, metric)
    order, cols, near, edge = table
    parent = np.arange(len(pts), dtype=order.dtype)
    limit = eps * eps if kind == "l2" else eps**p
    n_window = 0
    for rows, earlier_only in ((near, False), (edge, True)):
        for ia, ib in _row_pairs(*rows):
            if earlier_only:
                # A cell two steps away is gathered only by the later
                # point of a pair, as the reference loop does.
                keep = order[ib] < order[ia]
                ia, ib = ia[keep], ib[keep]
            # Axis by axis, summed in coordinate order from 0.0 like the
            # metric's own loop, so both backends decide every pair alike.
            box = np.ones(len(ia), dtype=bool)
            total = np.zeros(len(ia))
            for col in cols:
                dk = col[ib] - col[ia]
                box &= np.abs(dk) <= eps
                if kind == "l2":
                    total += dk * dk
                elif kind == "lp":
                    total += np.abs(dk) ** p
            n_window += int(np.count_nonzero(box))
            mask = box if kind == "linf" else box & (total <= limit)
            if mask.any():
                _hook(parent, order[ia[mask]], order[ib[mask]])
    if kind != "linf":
        _charge(metric, n_window)
    while True:  # pointer jumping to the roots (each component's min id)
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped
    # Roots are the smallest ids: ascending roots are first appearances.
    labels = np.unique(parent, return_inverse=True)[1]
    return labels.tolist(), n_window


def _cell_rows(
    pts: "np.ndarray", eps: float,
) -> Optional[Tuple["np.ndarray", List["np.ndarray"], _Rows, _Rows]]:
    """Sort ``pts`` by cell and list the candidate rows to join.

    Returns ``(order, sorted coordinate columns, near, edge)``, or None
    when the keys cannot be coded exactly (non-finite input, a key beyond
    float64's integers, or a key range beyond an int64 code).  A row
    list is ``(a, b_start, b_len)`` over sorted positions: point ``a``
    pairs with positions ``b_start .. b_start + b_len - 1``.  ``near``
    covers each pair inside a cell or across adjacent cells once;
    ``edge`` pairs each edge point with the cells two steps away that
    its probe window reaches.  Rows hold O(n 3^d) entries, not pairs.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        key = np.floor_divide(pts, eps)
        # probe_box's widening, element for element.
        r = eps + (np.abs(pts) + eps) * EDGE_TOLERANCE
        lo = np.floor_divide(pts - r, eps) - key
        hi = np.floor_divide(pts + r, eps) - key
    if not (np.isfinite(key).all() and np.isfinite(lo).all()
            and np.isfinite(hi).all()):
        return None
    if np.abs(key).max() >= _KEY_LIMIT or lo.min() < -2 or hi.max() > 2:
        return None
    key_i = key.astype(np.int64)
    base = key_i.min(axis=0) - 2  # room for offsets of ±2 on every axis
    stride: List[int] = []
    size = 1
    for span in reversed((key_i.max(axis=0) - base + 3).tolist()):
        stride.insert(0, size)
        size *= span
    if size >= _CODE_LIMIT:
        return None
    codes = (key_i - base) @ np.array(stride, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    scodes = codes[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(scodes)) + 1))
    counts = np.diff(np.append(starts, len(scodes)))
    ucodes = scodes[starts]
    cell_start = np.repeat(starts, counts)  # per sorted position
    positions = np.arange(len(pts))

    def rows_to(a: "np.ndarray", targets: "np.ndarray") -> _Rows:
        """Rows pairing each ``a`` with all of the cell coded ``targets``
        (where that cell exists)."""
        j = np.searchsorted(ucodes, targets)
        found = np.zeros(len(a), dtype=bool)
        inside = j < len(ucodes)
        found[inside] = ucodes[j[inside]] == targets[inside]
        j = j[found]
        return a[found], starts[j], counts[j]

    d = pts.shape[1]
    rank = positions - cell_start
    later = rank > 0
    # Inside a cell: each point against the cell's earlier positions.
    near = [(positions[later], cell_start[later], rank[later])]
    for off in itertools.product((-1, 0, 1), repeat=d):
        if any(off) and next(o for o in off if o) > 0:
            # Adjacent cells, each unordered cell pair once.
            near.append(rows_to(positions, scodes + int(np.dot(off, stride))))

    edge: List[_Rows] = []
    pos = np.flatnonzero(((lo < -1) | (hi > 1)).any(axis=1)[order])
    if len(pos):
        window = np.concatenate((lo[order][pos], hi[order][pos]),
                                axis=1).astype(np.int64)
        shapes, which = np.unique(window, axis=0, return_inverse=True)
        which = which.reshape(-1)
        for k, shape in enumerate(shapes.tolist()):
            members = pos[which == k]
            ranges = [range(a, b + 1) for a, b in zip(shape[:d], shape[d:])]
            for off in itertools.product(*ranges):
                if max(map(abs, off)) == 2:  # outside the 3^d block
                    edge.append(rows_to(
                        members, scodes[members] + int(np.dot(off, stride))
                    ))
    idx_t = np.int32 if len(pts) < 2**31 else np.int64

    def stack(rows: List[_Rows]) -> _Rows:
        if not rows:
            empty = np.zeros(0, dtype=idx_t)
            return empty, empty, empty
        a, b_start, b_len = (np.concatenate(x).astype(idx_t)
                             for x in zip(*rows))
        return a, b_start, b_len

    cols = [np.ascontiguousarray(pts[order, k]) for k in range(d)]
    return order.astype(idx_t), cols, stack(near), stack(edge)


def _row_pairs(
    a: "np.ndarray", b_start: "np.ndarray", b_len: "np.ndarray",
) -> Iterator[Tuple["np.ndarray", "np.ndarray"]]:
    """Blocks ``(ia, ib)`` of at most :data:`_PAIR_BLOCK` position pairs:
    row ``k`` pairs ``a[k]`` with ``b_start[k] + i`` for ``i < b_len[k]``.
    A row may straddle two blocks."""
    if not len(b_len):
        return
    ends = np.cumsum(b_len, dtype=np.int64)
    firsts = ends - b_len
    total = int(ends[-1])
    for t0 in range(0, total, _PAIR_BLOCK):
        t1 = min(t0 + _PAIR_BLOCK, total)
        r0 = int(np.searchsorted(ends, t0, side="right"))
        r1 = int(np.searchsorted(ends, t1 - 1, side="right")) + 1
        lens = np.minimum(ends[r0:r1], t1) - np.maximum(firsts[r0:r1], t0)
        row = np.repeat(np.arange(r0, r1), lens)
        t = np.arange(t0, t1, dtype=np.int64)
        yield a[row], b_start[row] + (t - firsts[row])


def _hook(parent: "np.ndarray", u: "np.ndarray", v: "np.ndarray") -> None:
    """Merge the components of the edges ``(u, v)`` in ``parent``.

    Min-label hooking: while an edge joins two trees, the larger root
    hangs under the smaller; ``parent[x] <= x`` throughout, so a root is
    always its tree's smallest id.  The endpoints are first pointed at
    their current roots, which keeps later finds short.
    """
    ends = np.concatenate((u, v))
    roots = _roots(parent, ends)
    parent[ends] = roots
    ru, rv = roots[:len(u)], roots[len(u):]
    while True:
        split = ru != rv
        if not split.any():
            return
        hi = np.maximum(ru[split], rv[split])
        lo = np.minimum(ru[split], rv[split])
        np.minimum.at(parent, hi, lo)
        ru, rv = _roots(parent, hi), _roots(parent, lo)


def _roots(parent: "np.ndarray", x: "np.ndarray") -> "np.ndarray":
    r = parent[x]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            return r
        r = up


def make_point_store() -> PointStore:
    return PointStore()


def make_group_block() -> GroupBlock:
    return GroupBlock()
