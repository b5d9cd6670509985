"""Structure-of-arrays vertex processing, assembly and tile binning.

The numpy geometry backend transforms, clips, culls and bins a frame's
triangles as ``(N, 3)`` arrays (one row per triangle, one column per
vertex) instead of one :class:`~repro.geom.Triangle` at a time.  One
array pass covers every draw command of the frame: commands are small
(a median of 12 triangles on the 3D benchmarks), so a pass per command
would pay numpy's per-call overhead dozens of times per frame.  Each row
carries its own command's MVP matrix.

The scalar path in :mod:`repro.pipeline.geometry` is the reference, and
the results here must be bit-identical to it, because window positions
and depths are packed into the signature bytes that feed RE's CRC: one
flipped bit changes a skip decision.  Three rules keep them identical:

* Every transform row is evaluated elementwise in the scalar's
  left-associated order, ``((m0*x + m1*y) + m2*z) + m3*1.0``, zero terms
  included (they decide the sign of ``-0.0``).  ``matmul``/BLAS may fuse
  multiply-adds and is never used.
* ``min``/``max`` follow Python's builtins: the first argument wins ties
  (so ``-0.0`` survives ``max(-0.0, 0.0)``) and NaN is passed through,
  written as ``np.where`` selects rather than ``np.clip``/``np.maximum``.
* Tile indices follow ``int(v) // size``: truncation toward zero, then
  floor division, with coordinates clamped in float first so huge window
  positions cannot overflow int64.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..geom import Triangle

_POSITIONS = operator.attrgetter(*(
    f"{vertex}.position.{axis}" for vertex in ("v0", "v1", "v2")
    for axis in "xyz"
))

#: Float clamp applied before the int64 tile-index cast.  Far beyond any
#: screen, so clamping never changes a clamped tile range.
_TILE_COORD_LIMIT = float(2 ** 53)

#: Bytes of one vertex's packed window position (``<3d``).
POSITION_BYTES = 24


class Assembly(NamedTuple):
    """A frame's triangles after transform, clip and cull.

    Rows are the triangles that pass the clip tests (the ones whose
    signature bytes the scalar path packs), in submission order.
    """

    passed: np.ndarray      # (P,) frame-wide triangle index
    survives: np.ndarray    # (P,) bool: also survives culling
    window: np.ndarray      # (3, P, 3): window x, y and clamped depth
    area: np.ndarray        # (P,) twice the signed area


def gather_positions(triangles: Sequence[Triangle]) -> np.ndarray:
    """Object-space vertex positions as ``(N, 3, 3)``."""
    return np.fromiter(
        chain.from_iterable(map(_POSITIONS, triangles)),
        dtype=np.float64, count=9 * len(triangles),
    ).reshape(-1, 3, 3)


def _transform(m: np.ndarray, x, y, z) -> np.ndarray:
    """``M @ (x, y, z, 1)`` for ``(N, 3)`` coordinates, in the scalar's
    pinned order.

    ``m[:, k]`` holds the rows' k-th coefficients, shaped to broadcast
    against the coordinates: one value per output row (shared matrix) or
    one per output row and triangle.  Either way every element sees
    exactly the scalar path's operations.
    """
    return ((m[:, 0] * x + m[:, 1] * y) + m[:, 2] * z) + m[:, 3] * 1.0


def _first_min(a, b):
    """Python's ``min(a, b)``: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


def _first_max(a, b):
    """Python's ``max(a, b)``: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def assemble(
    positions: np.ndarray,
    mvps: np.ndarray,
    viewport: Tuple[float, ...],
    w_epsilon: float,
    cull_backface: np.ndarray,
) -> Assembly:
    """Vertex shading and Primitive Assembly for a frame's triangles.

    ``mvps`` is one row-major 4x4 matrix per triangle, ``(N, 16)``, and
    ``cull_backface`` one flag per triangle.  Mirrors
    ``GeometryPipeline._transform_triangle`` and ``_should_cull`` row for
    row: a triangle is dropped when any vertex has ``w <= w_epsilon``,
    when all three vertices lie outside the same frustum plane, when its
    area is zero, or when it is back-facing and its command culls back
    faces.
    """
    # Non-finite input makes NaNs and infinities (and rejected rows may
    # divide by zero), silently as in the scalar path; the caller rejects
    # survivors whose area is not finite.
    with np.errstate(all="ignore"):
        per_triangle = mvps.T.reshape(4, 4, -1, 1)
        clip = _transform(per_triangle, positions[..., 0],
                          positions[..., 1], positions[..., 2])
        coords, w = clip[:3], clip[3]
        rejected = ((w <= w_epsilon).any(axis=1)
                    | (coords < -w).all(axis=2).any(axis=0)
                    | (coords > w).all(axis=2).any(axis=0))
        passed = np.flatnonzero(~rejected)
        coords, w = coords[:, passed], w[passed]

        ndc = coords / w
        shared = np.array(viewport[:12]).reshape(3, 4, 1, 1)
        window = _transform(shared, ndc[0], ndc[1], ndc[2])
        depth = np.where(0.0 > window[2], 0.0, window[2])
        window[2] = np.where(1.0 < depth, 1.0, depth)
        x, y = window[0], window[1]
        area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    culled = (area == 0.0) | (cull_backface[passed] & (area > 0.0))
    return Assembly(passed, ~culled, window, area)


def position_bytes(window: np.ndarray) -> bytes:
    """Every row's packed ``<3d`` (x, y, depth) per vertex, row after
    row: ``POSITION_BYTES`` per vertex, three vertices per row."""
    return np.ascontiguousarray(window.transpose(1, 2, 0),
                                dtype="<f8").tobytes()


def _tile_index(coord: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``int(coord) // size`` for finite coordinates, without overflow."""
    clamped = np.clip(coord, -_TILE_COORD_LIMIT, _TILE_COORD_LIMIT)
    with np.errstate(invalid="ignore"):
        return np.trunc(clamped).astype(np.int64) // size


class Bins(NamedTuple):
    """Bounding boxes and overlapped tiles, one entry per binned row."""

    boxes: List[Tuple[float, float, float, float]]
    tiles: List[List[int]]   # row-major tile indices


def bin_tiles(
    window: np.ndarray,
    tile_w: int,
    tile_h: int,
    tiles_x: int,
    tiles_y: int,
) -> Bins:
    """``ScreenTriangle.bounding_box`` and ``overlapped_tiles`` for every
    row of a ``(3, M, 3)`` window array.  Rows with non-finite x or y get
    meaningless entries; callers must not bin them."""
    xy = window[:2]
    a, b, c = xy[..., 0], xy[..., 1], xy[..., 2]
    low = _first_min(_first_min(a, b), c)     # (2, M): min_x, min_y
    high = _first_max(_first_max(a, b), c)    # (2, M): max_x, max_y

    size = np.array([[tile_w], [tile_h]])
    first = np.maximum(0, _tile_index(low, size))
    last = np.minimum([[tiles_x - 1], [tiles_y - 1]],
                      _tile_index(high, size))
    span = last - first + 1
    counts = np.where((span > 0).all(axis=0), span[0] * span[1], 0)

    # Expand every row's tile rectangle, row-major, into one flat array,
    # then split it back per row.
    owner = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)
    local = np.arange(ends[-1] if len(ends) else 0) \
        - np.repeat(ends - counts, counts)
    width = span[0][owner]
    tile = ((first[1][owner] + local // width) * tiles_x
            + first[0][owner] + local % width)
    flat = tile.tolist()
    bounds = [0] + ends.tolist()
    tiles = [flat[bounds[k]:bounds[k + 1]] for k in range(len(counts))]
    boxes = list(zip(*np.concatenate((low, high)).tolist()))
    return Bins(boxes, tiles)
