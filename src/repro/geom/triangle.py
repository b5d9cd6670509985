"""Triangles in object space and in window (screen) space.

The geometry pipeline turns :class:`Triangle` (three object-space vertices)
into :class:`ScreenTriangle` (window-space positions, depth in [0, 1], and
the metadata the binner and rasterizer need: owning draw command, opacity
and whether the primitive writes the Z-buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from ..math3d import Vec2
from .vertex import Vertex, VertexAttributes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..commands.state import RenderState


@dataclass(frozen=True)
class Triangle:
    """An object-space triangle, counter-clockwise front-facing."""

    v0: Vertex
    v1: Vertex
    v2: Vertex

    @property
    def vertices(self) -> Tuple[Vertex, Vertex, Vertex]:
        return (self.v0, self.v1, self.v2)

    def pack(self) -> bytes:
        """Byte encoding of all vertex data, for RE signatures."""
        return self.v0.pack() + self.v1.pack() + self.v2.pack()


@dataclass(frozen=True)
class ScreenTriangle:
    """A window-space triangle ready for binning and rasterization.

    Attributes:
        xy: three window-space (x, y) positions in pixels.
        z: three window-space depths in [0, 1] (0 = near plane).
        attributes: the three vertices' interpolatable attributes.
        command_id: index of the draw command that produced the triangle.
        primitive_id: index of the triangle among its draw command's
            primitives that survived clipping and culling (not a
            frame-wide index: every command counts from 0).
        state: the owning command's render state (travels with the
            primitive through the Parameter Buffer, as in hardware).
        signature_bytes: the canonical attribute encoding fed to the
            Rendering Elimination CRC.
    """

    xy: Tuple[Vec2, Vec2, Vec2]
    z: Tuple[float, float, float]
    attributes: Tuple[VertexAttributes, VertexAttributes, VertexAttributes]
    command_id: int
    primitive_id: int
    state: "RenderState"
    signature_bytes: bytes

    @property
    def writes_z(self) -> bool:
        """True for WOZ primitives (depth-test + depth-write)."""
        return self.state.writes_z

    @property
    def opaque(self) -> bool:
        """True when fragments fully replace what is behind them."""
        return self.state.opaque

    @property
    def z_near(self) -> float:
        """Depth of the closest vertex — the paper's conservative bound.

        A WOZ primitive is predicted occluded in a tile only when even its
        closest point is farther than the tile's previous-frame FVP.
        """
        return min(self.z)

    @property
    def z_far(self) -> float:
        """Depth of the farthest vertex."""
        return max(self.z)

    @property
    def z_centroid(self) -> float:
        """Mean vertex depth (the aggressive prediction-point ablation)."""
        return sum(self.z) / 3.0

    def signed_area(self) -> float:
        """Twice the signed area; positive for counter-clockwise winding
        in a y-down window coordinate system.
        """
        a, b, c = self.xy
        return (b - a).cross(c - a)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) in window coordinates."""
        xs = (self.xy[0].x, self.xy[1].x, self.xy[2].x)
        ys = (self.xy[0].y, self.xy[1].y, self.xy[2].y)
        return (min(xs), min(ys), max(xs), max(ys))

    def overlapped_tiles(
        self, tile_w: int, tile_h: int, tiles_x: int, tiles_y: int
    ) -> Tuple[Tuple[int, int], ...]:
        """Conservative tile overlap from the bounding box.

        This is what the Polygon List Builder uses: real binners test the
        bounding box (sometimes refined by edge tests); bounding-box
        binning may list a tile the triangle does not actually touch,
        which the rasterizer later resolves to zero fragments, exactly as
        in hardware.
        """
        min_x, min_y, max_x, max_y = self.bounding_box()
        first_tx = max(0, int(min_x) // tile_w)
        first_ty = max(0, int(min_y) // tile_h)
        last_tx = min(tiles_x - 1, int(max_x) // tile_w)
        last_ty = min(tiles_y - 1, int(max_y) // tile_h)
        if last_tx < first_tx or last_ty < first_ty:
            return ()
        return tuple(
            (tx, ty)
            for ty in range(first_ty, last_ty + 1)
            for tx in range(first_tx, last_tx + 1)
        )

    @property
    def attribute_count(self) -> int:
        """Number of scalar attributes the rasterizer interpolates.

        Used by the timing model (the paper's rasterizer processes 16
        attributes per cycle): 3 position scalars + 4 color + 2 uv +
        3 normal per vertex-averaged fragment setup.
        """
        return 12
