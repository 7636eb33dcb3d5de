"""Axis-aligned rectangles (d-dimensional boxes).

Two rectangle flavours appear in the paper:

* a plain minimum bounding rectangle (MBR) of a group's points, used by the
  ``OverlapRectangleTest`` and as the R-tree entry geometry, and
* the **ε-All bounding rectangle** (Definition 5): the region in which a new
  point is guaranteed (L∞) / allowed (L2, conservatively) to be within ``ε``
  of *all* current members of a group.

Both are represented by :class:`Rect`, an immutable-ish d-dimensional box
with ``lo``/``hi`` corner vectors.  A rectangle may be *empty* (``lo > hi``
in some dimension), which arises when a group's ε-All region vanishes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import DimensionMismatchError

Point = Tuple[float, ...]


class Rect:
    """A d-dimensional axis-aligned box ``[lo[i], hi[i]]`` per dimension."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        if len(lo) != len(hi):
            raise DimensionMismatchError(
                f"corner dimensions differ: {len(lo)} vs {len(hi)}"
            )
        self.lo: Point = tuple(float(v) for v in lo)
        self.hi: Point = tuple(float(v) for v in hi)

    @classmethod
    def _make(cls, lo: Point, hi: Point) -> "Rect":
        """Allocation-light constructor for hot paths; ``lo``/``hi`` must
        already be float tuples of equal length."""
        rect = cls.__new__(cls)
        rect.lo = lo
        rect.hi = hi
        return rect

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, p: Sequence[float]) -> "Rect":
        """Degenerate rectangle covering a single point."""
        return cls(p, p)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "Rect":
        """Minimum bounding rectangle of a non-empty point collection."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot bound an empty point collection") from None
        lo = list(first)
        hi = list(first)
        for p in it:
            for i, v in enumerate(p):
                if v < lo[i]:
                    lo[i] = v
                elif v > hi[i]:
                    hi[i] = v
        return cls(lo, hi)

    @classmethod
    def eps_box(cls, p: Sequence[float], eps: float) -> "Rect":
        """The ε-box around ``p``: side ``2ε`` centred at ``p``.

        For a singleton group this *is* its ε-All rectangle (paper Fig. 5c).
        Index probes use the widened :func:`probe_box` instead.
        """
        if len(p) == 2:
            x, y = float(p[0]), float(p[1])
            return cls._make((x - eps, y - eps), (x + eps, y + eps))
        return cls([v - eps for v in p], [v + eps for v in p])

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        """True when the box has negative extent in some dimension."""
        return any(l > h for l, h in zip(self.lo, self.hi))

    def contains_point(self, p: Sequence[float]) -> bool:
        """``PointInRectangleTest`` from the paper (closed boundaries)."""
        lo, hi = self.lo, self.hi
        if len(lo) == 2:
            return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
        return all(l <= v <= h for v, l, h in zip(p, lo, hi))

    def contains_rect(self, other: "Rect") -> bool:
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersects(self, other: "Rect") -> bool:
        """``OverlapRectangleTest``: closed-boundary intersection."""
        return all(
            sl <= oh and ol <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # ------------------------------------------------------------------
    # combinators
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both (MBR growth on insert)."""
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if len(slo) == 2:  # common 2-D case, unrolled
            return Rect._make(
                (slo[0] if slo[0] < olo[0] else olo[0],
                 slo[1] if slo[1] < olo[1] else olo[1]),
                (shi[0] if shi[0] > ohi[0] else ohi[0],
                 shi[1] if shi[1] > ohi[1] else ohi[1]),
            )
        return Rect._make(
            tuple(min(a, b) for a, b in zip(slo, olo)),
            tuple(max(a, b) for a, b in zip(shi, ohi)),
        )

    def extend_point(self, p: Sequence[float]) -> "Rect":
        lo, hi = self.lo, self.hi
        if len(lo) == 2:
            x, y = float(p[0]), float(p[1])
            return Rect._make(
                (lo[0] if lo[0] < x else x, lo[1] if lo[1] < y else y),
                (hi[0] if hi[0] > x else x, hi[1] if hi[1] > y else y),
            )
        return Rect._make(
            tuple(min(a, float(b)) for a, b in zip(lo, p)),
            tuple(max(a, float(b)) for a, b in zip(hi, p)),
        )

    def intersection(self, other: "Rect") -> "Rect":
        """Intersection box; may be empty.

        The ε-All rectangle shrinks by intersecting with each new member's
        ε-box — rectangles are closed under intersection, which is what makes
        the L∞ invariant maintainable in O(d) per insert (paper §6.3).
        """
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if len(slo) == 2:
            return Rect._make(
                (slo[0] if slo[0] > olo[0] else olo[0],
                 slo[1] if slo[1] > olo[1] else olo[1]),
                (shi[0] if shi[0] < ohi[0] else ohi[0],
                 shi[1] if shi[1] < ohi[1] else ohi[1]),
            )
        return Rect._make(
            tuple(max(a, b) for a, b in zip(slo, olo)),
            tuple(min(a, b) for a, b in zip(shi, ohi)),
        )

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def area(self) -> float:
        """Hyper-volume (0.0 for empty or degenerate boxes)."""
        result = 1.0
        for l, h in zip(self.lo, self.hi):
            extent = h - l
            if extent < 0:
                return 0.0
            result *= extent
        return result

    def margin(self) -> float:
        """Sum of side lengths (used by some split heuristics)."""
        return sum(max(0.0, h - l) for l, h in zip(self.lo, self.hi))

    def enlargement(self, other: "Rect") -> float:
        """Area increase if ``other`` were unioned in (R-tree ChooseLeaf)."""
        return self.union(other).area() - self.area()

    def center(self) -> Point:
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rect) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo}, hi={self.hi})"


#: Relative margin for rounding at ε-box edges: :func:`probe_box` widens
#: by ``(|v| + radius) * EDGE_TOLERANCE`` per axis, and
#: :func:`in_rounding_band` marks the band an ε-All rectangle cannot
#: decide.
EDGE_TOLERANCE = 1e-12


def probe_box(point: Sequence[float], radius: float) -> Rect:
    """The window of an ε probe: the L∞ box of ``radius`` around ``point``,
    widened by a relative :data:`EDGE_TOLERANCE`.

    Rounding in ``v ± radius`` can otherwise drop a point whose rounded
    distance is exactly ``radius`` (``-1e-20`` from ``0.5`` with radius
    ``0.5``: the lower edge rounds to ``0.0``).  The window may therefore
    hold points slightly beyond ``radius``; every caller refines its hits
    by exact distance.  The ε-All rectangle (:func:`eps_all_rect`) is an
    acceptance test, not a window, and stays exact; its users decide a
    point in :func:`in_rounding_band` by distance instead.
    """
    if len(point) == 2:
        x, y = point
        rx = radius + (abs(x) + radius) * EDGE_TOLERANCE
        ry = radius + (abs(y) + radius) * EDGE_TOLERANCE
        return Rect._make((x - rx, y - ry), (x + rx, y + ry))
    lo: List[float] = []
    hi: List[float] = []
    for v in point:
        r = radius + (abs(v) + radius) * EDGE_TOLERANCE
        lo.append(v - r)
        hi.append(v + r)
    return Rect._make(tuple(lo), tuple(hi))


def in_rounding_band(rect: Rect, point: Sequence[float], eps: float) -> bool:
    """Is ``point`` within rounding of ``rect``'s boundary: inside the
    rectangle widened by ``(|v| + eps) * EDGE_TOLERANCE`` per axis, but
    not inside it shrunk by as much?

    The ε-All rectangle's edges ``x ± eps`` are rounded (``0.5 - 0.5`` is
    ``0.0`` though ``-1e-20`` lies exactly ``0.5`` from ``0.5``), so in
    this band only the members' distances decide.
    """
    deep = True
    for v, lo, hi in zip(point, rect.lo, rect.hi):
        tol = (abs(v) + eps) * EDGE_TOLERANCE
        if v < lo - tol or v > hi + tol:
            return False
        if v < lo + tol or v > hi - tol:
            deep = False
    return not deep


def eps_all_rect(points: Iterable[Sequence[float]], eps: float) -> Optional[Rect]:
    """Build the ε-All rectangle of a point set from scratch.

    The ε-All rectangle is the intersection of every member's ε-box:
    per dimension ``[max_i x_i - eps, min_i x_i + eps]``.  Returns ``None``
    for an empty point set; the result may be an *empty* rect when the group
    spread exceeds ``2ε`` in some dimension (only possible transiently, e.g.
    while rebuilding after deletions under the ELIMINATE semantics).
    """
    lo: Optional[List[float]] = None
    hi: Optional[List[float]] = None
    for p in points:
        if lo is None:
            lo = [v - eps for v in p]
            hi = [v + eps for v in p]
            continue
        assert hi is not None
        for i, v in enumerate(p):
            if v - eps > lo[i]:
                lo[i] = v - eps
            if v + eps < hi[i]:
                hi[i] = v + eps
    if lo is None or hi is None:
        return None
    return Rect(lo, hi)
