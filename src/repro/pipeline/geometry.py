"""The Geometry Pipeline: vertex processing, assembly and binning.

Stages (Figure 1): vertices are fetched from memory and shaded (model-
view-projection transform), grouped into triangles, culled/clipped in
Primitive Assembly, and finally sorted into tiles by the Polygon List
Builder, which fills the Parameter Buffer and per-tile Display Lists.

All EVR hooks live in the Polygon List Builder (Figure 5): layer
assignment via the Layer Generator Table, visibility prediction via the
FVP Table, Algorithm-1 reordering into the two-part Display Lists, and
the (possibly filtered) Rendering Elimination signature updates.

The kernel backend selects how a frame is processed.  ``python`` runs
the scalar reference, one triangle and one (primitive, tile) pair at a
time.  ``numpy`` transforms, clips, culls and bins the whole frame as
arrays (:mod:`repro.pipeline.geometry_soa`) and keeps only the
sequential state updates (LGT, FVP, display lists, signature folds) in
a per-pair loop.  Both produce bit-identical results.
"""

from __future__ import annotations

import math
import struct
from itertools import repeat
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..commands import DrawCommand, Frame
from ..config import GPUConfig
from ..core.evr import VisibilityPredictor
from ..errors import PipelineError
from ..core.rendering_elimination import RenderingElimination
from ..core.reorder import place_in_display_list
from ..geom import ScreenTriangle, Triangle, VertexAttributes
from ..hw.lgt import LayerGeneratorTable
from ..hw.parameter_buffer import (
    LAYER_ID_BYTES,
    POINTER_BYTES,
    DisplayListEntry,
    ParameterBuffer,
)
from ..kernels import normalize_backend
from ..math3d import Mat4, Vec2, viewport
from ..memsys import MemorySystem
from ..memsys.ops import parameter_buffer_writes, replay_memory_trace
from ..obs.events import span
from ..techniques.dsr import dsr_signature
from ..timing import FrameStats
from .features import PipelineFeatures
from .geometry_soa import (
    POSITION_BYTES,
    assemble,
    bin_tiles,
    gather_positions,
    position_bytes,
)

_VERTEX_BYTES = 48
_W_EPSILON = 1e-6

# Display-list pointers live in their own Parameter Buffer region so the
# pointer stream and the attribute stream do not alias in the tile cache.
_POINTER_REGION_OFFSET = 32 * 1024 * 1024

# The depth-only pass of a Z-prepass stores position-only records.
_PREPASS_RECORD_BYTES = 48

_TRIANGLE_POSITION_BYTES = 3 * POSITION_BYTES


def _non_finite_error(command: DrawCommand, tri_index: int) -> PipelineError:
    return PipelineError(
        f"draw command {command.label!r}: triangle {tri_index} has a "
        f"non-finite window position (NaN or infinite vertex data)"
    )


class _Rows(NamedTuple):
    """A frame's :class:`~repro.pipeline.geometry_soa.Assembly` as Python
    values, indexed by row (one row per clip survivor)."""

    passed: List[int]        # frame-wide triangle index
    survives: List[bool]     # also survives culling
    x: List[List[float]]
    y: List[List[float]]
    z: List[List[float]]
    positions: bytes         # packed window positions, row after row
    bad_row: int             # first survivor with a non-finite
                             # position (it cannot be binned), or -1

    @classmethod
    def of(cls, assembly) -> "_Rows":
        # The doubled area is finite iff all six window coordinates are,
        # so one check covers the frame.
        bad = np.flatnonzero(assembly.survives & ~np.isfinite(assembly.area))
        x, y, z = assembly.window.tolist()
        return cls(assembly.passed.tolist(), assembly.survives.tolist(),
                   x, y, z, position_bytes(assembly.window),
                   int(bad[0]) if len(bad) else -1)


class GeometryPipeline:
    """Runs the geometry half of the pipeline for one frame at a time."""

    def __init__(
        self,
        config: GPUConfig,
        features: PipelineFeatures,
        memory: MemorySystem,
        parameter_buffer: ParameterBuffer,
        lgt: Optional[LayerGeneratorTable],
        predictor: Optional[VisibilityPredictor],
        rendering_elimination: Optional[RenderingElimination],
        dsr=None,
        backend: Optional[str] = None,
    ):
        self.config = config
        self.features = features
        self.memory = memory
        self.parameter_buffer = parameter_buffer
        self.lgt = lgt
        self.predictor = predictor
        self.re = rendering_elimination
        self.dsr = dsr
        self.backend = normalize_backend(backend)
        self._viewport = viewport(config.screen_width, config.screen_height)
        self._pointer_cursor = 0
        self._vertex_base = 0

    # -- vertex processing and assembly ------------------------------------

    def process_frame(self, frame: Frame, stats: FrameStats) -> None:
        """Run the full Geometry Pipeline for ``frame``."""
        self._pointer_cursor = 0
        self._vertex_base = 0
        if self.backend == "numpy":
            self._process_frame_soa(frame, stats)
            return
        for command_id, command in enumerate(frame.commands):
            stats.commands_processed += 1
            with span("command", "geometry",
                      label=command.label, frame=frame.index):
                triangles = self._shade_and_assemble(
                    frame, command_id, command, stats
                )
                for triangle in triangles:
                    self._bin_primitive(triangle, command, stats)

    def _shade_and_assemble(
        self,
        frame: Frame,
        command_id: int,
        command: DrawCommand,
        stats: FrameStats,
    ) -> List[ScreenTriangle]:
        """Vertex fetch + shade + primitive assembly for one command."""
        mvp = self._mvp(frame, command)
        state = command.state
        survivors: List[ScreenTriangle] = []
        command_vertex_base = self._vertex_base
        self._vertex_base += command.vertex_count

        # A software Z-prepass (Section IV-A) resubmits the opaque
        # geometry with a depth-only shader: the vertex fetch, transform
        # and assembly work is paid twice for WOZ commands.
        prepass = self.features.z_prepass and state.writes_z
        depth_only_instructions = max(4, state.shader.vertex_instructions // 2)

        # The whole command's vertex stream is one consecutive index
        # range and nothing else touches memory until binning, so the
        # per-vertex fetch loop collapses into a single ranged access —
        # the same address sequence, one call.
        triangles = list(command.iter_triangles())
        self.memory.fetch_vertex_range(
            command_vertex_base, 3 * len(triangles), _VERTEX_BYTES
        )

        for tri_index, triangle in enumerate(triangles):
            stats.primitives_in += 1
            stats.vertices_fetched += 3
            stats.vertex_instructions += 3 * state.shader.vertex_instructions
            if prepass:
                stats.primitives_in += 1
                stats.vertices_fetched += 3
                stats.vertex_instructions += 3 * depth_only_instructions

            screen = self._transform_triangle(mvp, triangle, command_id,
                                              len(survivors), state)
            if screen is None or self._should_cull(screen, state):
                stats.primitives_culled += 1
                continue
            # The doubled area is finite iff all six window coordinates
            # are; a NaN or infinite position cannot be binned.
            if not math.isfinite(screen.signed_area()):
                raise _non_finite_error(command, tri_index)
            survivors.append(screen)

        stats.primitives_binned += len(survivors)
        return survivors

    @staticmethod
    def _mvp(frame: Frame, command: DrawCommand) -> Mat4:
        """The command's model-view-projection matrix."""
        projection = command.projection or frame.projection
        view = command.view or frame.view
        return projection @ view @ command.model

    def _transform_triangle(
        self,
        mvp: Mat4,
        triangle: Triangle,
        command_id: int,
        primitive_id: int,
        state,
    ) -> Optional[ScreenTriangle]:
        """Clip-test and transform one triangle to window coordinates.

        Near-plane clipping is not implemented: triangles crossing the
        camera plane are dropped entirely (the scene generators keep
        geometry safely inside the frustum).
        """
        clip = [mvp @ v.position.to_vec4(1.0) for v in triangle.vertices]
        if any(c.w <= _W_EPSILON for c in clip):
            return None
        # Frustum rejection: all vertices outside the same clip plane.
        for axis in ("x", "y", "z"):
            if all(getattr(c, axis) < -c.w for c in clip):
                return None
            if all(getattr(c, axis) > c.w for c in clip):
                return None

        window = [
            self._viewport @ c.perspective_divide().to_vec4(1.0)
            for c in clip
        ]
        xy = tuple(Vec2(w.x, w.y) for w in window)
        z = tuple(min(max(w.z, 0.0), 1.0) for w in window)
        attributes = tuple(v.attributes for v in triangle.vertices)

        signature_bytes = self._signature_bytes(xy, z, attributes, state)
        return ScreenTriangle(
            xy=xy,  # type: ignore[arg-type]
            z=z,  # type: ignore[arg-type]
            attributes=attributes,  # type: ignore[arg-type]
            command_id=command_id,
            primitive_id=primitive_id,
            state=state,
            signature_bytes=signature_bytes,
        )

    @staticmethod
    def _signature_bytes(xy, z, attributes, state) -> bytes:
        """Post-transform encoding fed to the RE CRC.

        The signature must change whenever anything that can affect the
        tile's colors changes: window-space positions (so moving objects
        are caught even when their object-space mesh is static), vertex
        attributes, and the render state / shader identity.  Positions
        are packed at full f64 precision: the rasterizer interpolates in
        f64, so motion below f32 epsilon still changes blended colors,
        and an f32-quantized signature would wrongly match across such a
        frame pair and skip a tile whose true colors differ.
        """
        parts = [state.pack()]
        for position, depth, attrs in zip(xy, z, attributes):
            parts.append(struct.pack("<3d", position.x, position.y, depth))
            parts.append(attrs.pack())
        return b"".join(parts)

    @staticmethod
    def _should_cull(screen: ScreenTriangle, state) -> bool:
        """Back-face and degeneracy culling in Primitive Assembly.

        Window coordinates are y-down, so a front-facing (counter-
        clockwise in NDC) triangle has *negative* signed area here.
        Back-face culling applies only when the command enables it;
        zero-area triangles are always dropped.
        """
        area = screen.signed_area()
        if area == 0.0:
            return True
        if state.cull_backface and area > 0.0:
            return True
        return False

    def _prediction_depth(self, triangle: ScreenTriangle) -> float:
        """The primitive depth compared against ``Z_far`` (Section III-A).

        The paper uses the closest vertex (``Z_near``), the conservative
        choice; the ``prediction_point`` feature selects the centroid or
        farthest vertex for the conservatism ablation.
        """
        point = self.features.prediction_point
        if point == "near":
            return triangle.z_near
        if point == "centroid":
            return triangle.z_centroid
        return triangle.z_far

    # -- Polygon List Builder (binning + EVR hooks) -------------------------

    def _bin_primitive(
        self, triangle: ScreenTriangle, command: DrawCommand, stats: FrameStats
    ) -> None:
        """Sort one assembled primitive into all tiles it overlaps."""
        config = self.config
        features = self.features
        state = command.state

        offset = self.parameter_buffer.store_primitive(triangle)
        attribute_bytes = self.parameter_buffer.attribute_bytes_per_primitive
        self.memory.parameter_buffer_write(offset, attribute_bytes)
        stats.parameter_buffer_bytes += attribute_bytes

        crc = (
            RenderingElimination.primitive_crc(triangle)
            if self.re is not None
            else 0
        )
        # DSR tracks tile stability with a *coarse* signature so slow
        # sub-pixel motion still reads as stable (repro.techniques.dsr).
        dsr_crc = dsr_signature(triangle) if self.dsr is not None else 0

        prepass = features.z_prepass and triangle.writes_z
        if prepass:
            # The depth-only pass stores its own (position-only) records.
            prepass_offset = self.parameter_buffer.store_primitive(triangle)
            self.memory.parameter_buffer_write(prepass_offset,
                                               _PREPASS_RECORD_BYTES)
            stats.parameter_buffer_bytes += _PREPASS_RECORD_BYTES

        tiles = triangle.overlapped_tiles(
            config.tile_width, config.tile_height, config.tiles_x, config.tiles_y
        )
        for tile_x, tile_y in tiles:
            tile = tile_y * config.tiles_x + tile_x
            stats.primitive_tile_pairs += 1
            if prepass:
                stats.primitive_tile_pairs += 1
                stats.display_list_writes += 1

            layer = 0
            if features.uses_layers:
                assert self.lgt is not None
                layer = self.lgt.assign_layer(
                    tile, triangle.command_id, triangle.writes_z
                )
                stats.lgt_accesses += 1
                stats.layer_id_bytes += LAYER_ID_BYTES
                stats.parameter_buffer_bytes += LAYER_ID_BYTES

            predicted_occluded = False
            if features.evr_hardware:
                assert self.predictor is not None
                predicted_occluded = self.predictor.predict(
                    tile, triangle.writes_z,
                    self._prediction_depth(triangle), layer,
                    bbox=triangle.bounding_box(),
                )
                stats.fvp_lookups += 1
                stats.predictions_made += 1
                if predicted_occluded:
                    stats.predicted_occluded += 1

            entry = DisplayListEntry(
                primitive=triangle,
                offset=offset,
                layer=layer,
                predicted_occluded=predicted_occluded,
                pointer_offset=_POINTER_REGION_OFFSET + self._pointer_cursor,
            )
            display_list = self.parameter_buffer.display_list(tile)
            place_in_display_list(
                display_list,
                entry,
                writes_z=triangle.writes_z,
                predicted_occluded=predicted_occluded,
                reorder_enabled=features.evr_reorder,
            )
            pointer_bytes = POINTER_BYTES + (
                LAYER_ID_BYTES if features.uses_layers else 0
            )
            self.memory.parameter_buffer_write(
                _POINTER_REGION_OFFSET + self._pointer_cursor, pointer_bytes
            )
            self._pointer_cursor += pointer_bytes
            stats.display_list_writes += 1

            if self.re is not None:
                updated = self.re.on_primitive_binned(tile, crc, predicted_occluded)
                if updated:
                    stats.signature_updates += 1
                else:
                    stats.signature_skips += 1

            if self.dsr is not None:
                self.dsr.on_primitive_binned(tile, dsr_crc)
                stats.signature_updates += 1

    # -- numpy backend: the frame as arrays ----------------------------------

    def _process_frame_soa(self, frame: Frame, stats: FrameStats) -> None:
        """The whole frame's geometry with array assembly and binning.

        Transform, clip, cull, window positions, bounding boxes and tile
        ranges are computed for every triangle of the frame up front
        (:mod:`repro.pipeline.geometry_soa`).  The commands then run in
        order, as in the scalar path, and produce the same
        ScreenTriangles, display lists, signatures, counters, memory
        traffic and errors as :meth:`_shade_and_assemble` plus
        :meth:`_bin_primitive`.
        """
        commands = frame.commands
        if not commands:
            return
        counts = [len(command.triangles) for command in commands]
        assembly = assemble(
            gather_positions([t for c in commands for t in c.triangles]),
            np.repeat(np.array([self._mvp(frame, command).m
                                for command in commands]), counts, axis=0),
            self._viewport.m,
            _W_EPSILON,
            np.repeat([command.state.cull_backface for command in commands],
                      counts),
        )
        config = self.config
        bins = bin_tiles(assembly.window[:, assembly.survives],
                         config.tile_width, config.tile_height,
                         config.tiles_x, config.tiles_y)
        rows = _Rows.of(assembly)
        row_bounds = assembly.passed.searchsorted(
            np.cumsum([0] + counts)).tolist()
        first_triangle = 0
        binned = 0

        for command_id, command in enumerate(commands):
            stats.commands_processed += 1
            with span("command", "geometry",
                      label=command.label, frame=frame.index):
                prepass = self._fetch_command_soa(command, stats)
                screens = self._screen_triangles_soa(
                    command_id, command, first_triangle, rows,
                    range(row_bounds[command_id], row_bounds[command_id + 1]),
                )
                stats.primitives_culled += len(command.triangles) - len(screens)
                stats.primitives_binned += len(screens)
                end = binned + len(screens)
                self._bin_command_soa(
                    command_id, command.state, screens,
                    bins.boxes[binned:end], bins.tiles[binned:end],
                    prepass, stats,
                )
                binned = end
                first_triangle += len(command.triangles)

    def _fetch_command_soa(self, command: DrawCommand,
                           stats: FrameStats) -> bool:
        """The command's vertex fetch and input counters, charged in bulk;
        returns whether a Z-prepass resubmits it."""
        state = command.state
        count = len(command.triangles)
        self.memory.fetch_vertex_range(
            self._vertex_base, 3 * count, _VERTEX_BYTES
        )
        self._vertex_base += 3 * count
        prepass = self.features.z_prepass and state.writes_z
        instructions = state.shader.vertex_instructions
        stats.primitives_in += count
        stats.vertices_fetched += 3 * count
        stats.vertex_instructions += 3 * count * instructions
        if prepass:
            stats.primitives_in += count
            stats.vertices_fetched += 3 * count
            stats.vertex_instructions += 3 * count * max(4, instructions // 2)
        return prepass

    @staticmethod
    def _screen_triangles_soa(
        command_id: int,
        command: DrawCommand,
        first_triangle: int,
        rows: "_Rows",
        command_rows: range,
    ) -> List[ScreenTriangle]:
        """The command's ScreenTriangles from its rows of the assembly.

        ``first_triangle`` is the command's first frame-wide triangle
        index.  Raises what the scalar path raises, at the same triangle.
        """
        state = command.state
        state_bytes = state.pack()
        screens: List[ScreenTriangle] = []
        for row in command_rows:
            index = rows.passed[row] - first_triangle
            source = command.triangles[index]
            attributes = (source.v0.attributes, source.v1.attributes,
                          source.v2.attributes)
            # Packed for every clip survivor, as the scalar path does:
            # struct rejects values beyond float32.
            a0, a1, a2 = map(VertexAttributes.pack, attributes)
            if not rows.survives[row]:
                continue
            if row == rows.bad_row:
                raise _non_finite_error(command, index)
            x, y, z = rows.x[row], rows.y[row], rows.z[row]
            p = row * _TRIANGLE_POSITION_BYTES
            positions = rows.positions
            screens.append(ScreenTriangle(
                xy=(Vec2(x[0], y[0]), Vec2(x[1], y[1]), Vec2(x[2], y[2])),
                z=(z[0], z[1], z[2]),
                attributes=attributes,
                command_id=command_id,
                primitive_id=len(screens),
                state=state,
                signature_bytes=b"".join((
                    state_bytes,
                    positions[p:p + POSITION_BYTES], a0,
                    positions[p + POSITION_BYTES:p + 2 * POSITION_BYTES], a1,
                    positions[p + 2 * POSITION_BYTES:
                              p + _TRIANGLE_POSITION_BYTES], a2,
                )),
            ))
        return screens

    def _bin_command_soa(
        self,
        command_id: int,
        state,
        screens: Sequence[ScreenTriangle],
        boxes: Sequence[tuple],
        tiles_per_screen: Sequence[List[int]],
        prepass: bool,
        stats: FrameStats,
    ) -> None:
        """The Polygon List Builder for one command's survivors.

        Bounding boxes and tile lists come precomputed; what remains is
        the state that must advance in primitive-major, row-major tile
        order.  Parameter Buffer writes are collected and replayed once,
        as one in-order op list.
        """
        features = self.features
        parameter_buffer = self.parameter_buffer
        attribute_bytes = parameter_buffer.attribute_bytes_per_primitive
        pointer_bytes = POINTER_BYTES + (
            LAYER_ID_BYTES if features.uses_layers else 0
        )
        writes_z = state.writes_z
        reorder = features.evr_reorder
        lgt = self.lgt if features.uses_layers else None
        predictor = self.predictor if features.evr_hardware else None
        re = self.re
        dsr = self.dsr
        # The command's Parameter Buffer writes, in the scalar order: per
        # primitive its attribute record, its depth-only record, then one
        # display-list pointer per tile.
        offsets: List[int] = []
        sizes: List[int] = []
        cursor = _POINTER_REGION_OFFSET + self._pointer_cursor
        pairs = occluded_pairs = signature_skips = 0

        for triangle, bbox, tiles in zip(screens, boxes, tiles_per_screen):
            offset = parameter_buffer.store_primitive(triangle)
            offsets.append(offset)
            sizes.append(attribute_bytes)
            if prepass:
                offsets.append(parameter_buffer.store_primitive(triangle))
                sizes.append(_PREPASS_RECORD_BYTES)
            pointers = range(cursor, cursor + len(tiles) * pointer_bytes,
                             pointer_bytes)
            offsets.extend(pointers)
            sizes.extend(repeat(pointer_bytes, len(tiles)))
            cursor = pointers.stop
            crc = (RenderingElimination.primitive_crc(triangle)
                   if re is not None else 0)
            dsr_crc = dsr_signature(triangle) if dsr is not None else 0
            depth = (self._prediction_depth(triangle)
                     if predictor is not None else 0.0)
            pairs += len(tiles)

            for tile, pointer in zip(tiles, pointers):
                layer = (lgt.assign_layer(tile, command_id, writes_z)
                         if lgt is not None else 0)
                predicted_occluded = False
                if predictor is not None:
                    predicted_occluded = predictor.predict(
                        tile, writes_z, depth, layer, bbox
                    )
                    occluded_pairs += predicted_occluded
                # Positional arguments: keyword parsing is a measurable
                # share of this loop's per-pair cost.
                place_in_display_list(
                    parameter_buffer.display_list(tile),
                    DisplayListEntry(triangle, offset, layer,
                                     predicted_occluded, pointer),
                    writes_z, predicted_occluded, reorder,
                )
                if re is not None and not re.on_primitive_binned(
                    tile, crc, predicted_occluded
                ):
                    signature_skips += 1
                if dsr is not None:
                    dsr.on_primitive_binned(tile, dsr_crc)

        self._pointer_cursor = cursor - _POINTER_REGION_OFFSET
        replay_memory_trace(parameter_buffer_writes(offsets, sizes),
                            self.memory)

        binned = len(screens)
        stats.parameter_buffer_bytes += binned * attribute_bytes
        stats.primitive_tile_pairs += pairs
        stats.display_list_writes += pairs
        if prepass:
            stats.parameter_buffer_bytes += binned * _PREPASS_RECORD_BYTES
            stats.primitive_tile_pairs += pairs
            stats.display_list_writes += pairs
        if lgt is not None:
            stats.lgt_accesses += pairs
            stats.layer_id_bytes += pairs * LAYER_ID_BYTES
            stats.parameter_buffer_bytes += pairs * LAYER_ID_BYTES
        if predictor is not None:
            stats.fvp_lookups += pairs
            stats.predictions_made += pairs
            stats.predicted_occluded += occluded_pairs
        if re is not None:
            stats.signature_updates += pairs - signature_skips
            stats.signature_skips += signature_skips
        if dsr is not None:
            stats.signature_updates += pairs
