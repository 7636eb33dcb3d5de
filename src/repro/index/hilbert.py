"""Space-filling-curve presorting for the index layer.

Insertion order is the hidden parameter of every spatial structure in
this repo: a Guttman R-tree grown from random-order inserts overlaps
badly, a hash grid filled in input order scatters neighbouring cells
across the bucket table, and batch probe loops that jump around the
plane defeat the kernels' contiguous-buffer locality.  Sorting points
along a space-filling curve before building fixes all three at once —
consecutive positions on the curve are spatially adjacent, so packed
leaves are tight, buckets for nearby cells are allocated together, and
chunked probes revisit the same index region.

Two curves are provided:

* **Hilbert** (2-D) — the classic order-``k`` Hilbert curve over a
  ``2^k × 2^k`` cell lattice, computed with the iterative rotate/flip
  walk (Warren, *Hacker's Delight* §16; equivalently the d2xy/xy2d pair
  of the Wikipedia formulation).  Hilbert keeps every curve step between
  edge-adjacent cells, which is what makes it the strongest locality
  order for 2-D data.
* **Morton / Z-order** (any dimensionality) — plain bit interleaving.
  Weaker locality (diagonal jumps at power-of-two boundaries) but
  defined in every dimension, so it is the fallback whenever the input
  is not 2-D.

The public entry point is :func:`sort_indices`: it normalizes raw float
coordinates onto the cell lattice and returns a *permutation* of the
point indices, never touching the points themselves — callers that must
preserve external ids (every SGB strategy: labels are keyed by input
position) apply the permutation locally and translate back.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import InvalidParameterError

Point = Tuple[float, ...]

#: Default curve order: a 2^16 x 2^16 lattice resolves ~4e9 distinct
#: cells, far below the collision point of any workload this repo runs
#: while keeping keys comfortably inside 64 bits in 2-D (32 bits used).
DEFAULT_ORDER = 16


def hilbert_key_2d(x: int, y: int, order: int = DEFAULT_ORDER) -> int:
    """Distance along the order-``order`` Hilbert curve of cell ``(x, y)``.

    ``x`` and ``y`` must lie in ``[0, 2**order)``.  The walk runs from
    the most significant bit down, rotating the frame at each quadrant
    exactly as the curve recursion does.
    """
    if order <= 0:
        raise InvalidParameterError(f"order must be positive, got {order}")
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise InvalidParameterError(
            f"cell ({x}, {y}) outside the 2^{order} lattice"
        )
    rx = 0
    ry = 0
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the sub-curve is upright again.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def morton_key(cell: Sequence[int], order: int = DEFAULT_ORDER) -> int:
    """Z-order key of a d-dimensional lattice cell (bit interleaving)."""
    if order <= 0:
        raise InvalidParameterError(f"order must be positive, got {order}")
    side = 1 << order
    key = 0
    dim = len(cell)
    for bit in range(order - 1, -1, -1):
        for c in cell:
            if not (0 <= c < side):
                raise InvalidParameterError(
                    f"cell {tuple(cell)} outside the 2^{order} lattice"
                )
            key = (key << 1) | ((c >> bit) & 1)
    if dim == 0:
        raise InvalidParameterError("cells must have >= 1 dimension")
    return key


def _lattice_cells(points: Sequence[Point], order: int) -> List[Tuple[int, ...]]:
    """Scale raw coordinates onto the ``2^order`` integer lattice.

    Each dimension is normalized independently over its observed range;
    degenerate dimensions (all points share one value) collapse to cell 0.
    """
    if not points:
        return []
    dim = len(points[0])
    lo = [min(p[d] for p in points) for d in range(dim)]
    hi = [max(p[d] for p in points) for d in range(dim)]
    side = (1 << order) - 1
    spans = [h - l for l, h in zip(lo, hi)]
    # Divide by the span, not multiply by ``side / span``: for a
    # subnormal span that quotient overflows to inf.
    return [
        tuple(int((v - l) / w * side) if w > 0 else 0
              for v, l, w in zip(p, lo, spans))
        for p in points
    ]


def curve_keys(points: Sequence[Point],
               order: int = DEFAULT_ORDER) -> List[int]:
    """Space-filling-curve key per point: Hilbert in 2-D, Morton else."""
    cells = _lattice_cells(points, order)
    if not cells:
        return []
    if len(cells[0]) == 2:
        return [hilbert_key_2d(cx, cy, order) for cx, cy in cells]
    return [morton_key(c, order) for c in cells]


def sort_indices(points: Sequence[Point],
                 order: int = DEFAULT_ORDER) -> List[int]:
    """Permutation of ``range(len(points))`` in curve order.

    Ties (points sharing a lattice cell) break by original index, so the
    permutation is deterministic and stable — a requirement for every
    consumer that re-derives input-position labels afterwards.
    """
    keys = curve_keys(points, order)
    return sorted(range(len(points)), key=lambda i: (keys[i], i))
