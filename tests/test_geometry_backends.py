"""The numpy geometry path against the scalar reference.

Both geometry backends must build the same ScreenTriangles (down to the
bits of every float and the signature bytes), the same display lists,
the same RE/DSR signatures, the same counters and the same memory
traffic.  Images alone would not show a signature difference: a flipped
bit in a window position changes a tile's CRC, not its pixels, until the
skip decision it changes lands on a frame whose content moved.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BlendMode,
    DrawCommand,
    Frame,
    GPU,
    GPUConfig,
    RenderState,
)
from repro.corpus import family_stream
from repro.errors import PipelineError
from repro.geom import Triangle, Vertex, VertexAttributes, quad
from repro.harness.bench import _TraceRecorder
from repro.math3d import (
    Mat4,
    Vec2,
    Vec3,
    Vec4,
    look_at,
    orthographic,
    perspective,
    translate,
)
from repro.memsys.ops import PBWriteOp
from repro.techniques.registry import resolve_features
from repro.timing import FrameStats

CONFIG = GPUConfig.tiny(frames=3)
WIDTH, HEIGHT = CONFIG.screen_width, CONFIG.screen_height

ORTHO = orthographic(0.0, float(WIDTH), float(HEIGHT), 0.0, -1.0, 1.0)
PERSPECTIVE = perspective(math.radians(60.0), WIDTH / HEIGHT, 0.5, 20.0)
CAMERA = look_at(Vec3(0.0, 0.0, 5.0), Vec3(0.0, 0.0, 0.0),
                 Vec3(0.0, 1.0, 0.0))

#: Every feature combination the geometry pipeline branches on.
FEATURE_SETS = {
    "baseline": resolve_features("baseline"),
    "re": resolve_features("re"),
    "evr": resolve_features("evr"),
    "evr-hiz": resolve_features("evr-hiz"),
    "dsr": resolve_features("dsr"),
    "z-prepass": resolve_features("z-prepass"),
    "evr-subtile": dataclasses.replace(resolve_features("evr"),
                                       subtile_fvp=True),
    "evr-centroid": dataclasses.replace(resolve_features("evr"),
                                        prediction_point="centroid"),
    "evr-far-history": dataclasses.replace(resolve_features("evr"),
                                           prediction_point="far",
                                           fvp_history=2),
}


# ---------------------------------------------------------------------------
# Snapshots: everything the geometry pipeline produces, floats as bits
# ---------------------------------------------------------------------------

def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _triangle_key(triangle):
    return (
        tuple(_bits(c) for point in triangle.xy for c in (point.x, point.y)),
        tuple(_bits(z) for z in triangle.z),
        triangle.attributes,
        triangle.command_id,
        triangle.primitive_id,
        triangle.state,
        triangle.signature_bytes,
    )


def _signature_state(buffer):
    return [(entry.previous, entry.current) for entry in buffer._entries]


def _snapshot(gpu, result):
    display_lists = [
        [(_triangle_key(entry.primitive), entry.offset, entry.layer,
          entry.predicted_occluded, entry.pointer_offset) for entry in part]
        for _, display_list in gpu.parameter_buffer.tiles()
        for part in (display_list.first, display_list.second)
    ]
    signatures = []
    if gpu.re is not None:
        signatures.append(_signature_state(gpu.re.signature_buffer))
    if gpu.dsr is not None:
        signatures.append(_signature_state(gpu.dsr.signatures))
        signatures.append(list(gpu.dsr.stability))
    return {
        "display_lists": display_lists,
        "signatures": signatures,
        "stats": result.stats.as_dict(),
        "geometry_memsys": (result.geometry.units,
                            result.geometry.dram_cycles),
        "raster_memsys": (result.raster.units, result.raster.dram_cycles),
        "image": result.image.tobytes(),
    }


def _outcome(frames, features, backend, config=CONFIG):
    """Per-frame snapshots, and the error the run raised, if any.

    Errors are part of the contract: non-finite positions raise
    PipelineError, attributes beyond float32 OverflowError, and DSR's
    coarse signature cannot pack window positions beyond int32
    (``struct.error``), on either backend.
    """
    gpu = GPU(config, features, backend=backend)
    snapshots = []
    try:
        for frame in frames:
            snapshots.append(_snapshot(gpu, gpu.render_frame(frame)))
    except (PipelineError, OverflowError, struct.error) as error:
        return snapshots, (type(error).__name__, str(error))
    return snapshots, None


def assert_backends_agree(frames, features, config=CONFIG):
    frames = list(frames)
    reference = _outcome(frames, features, "python", config)
    candidate = _outcome(frames, features, "numpy", config)
    assert candidate[1] == reference[1]
    assert len(candidate[0]) == len(reference[0])
    for index, (want, got) in enumerate(zip(reference[0], candidate[0])):
        for key in want:
            assert got[key] == want[key], f"frame {index}: {key} differs"
    return reference


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Coordinates that reach the w <= eps clip (behind the camera at z=5),
#: every frustum plane, -0.0, and window positions beyond int64.
COORDINATES = st.one_of(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.sampled_from([-0.0, 0.0, 4.999999, 5.0, 1e30, -1e30]),
)


@st.composite
def triangles(draw):
    vertices = []
    for _ in range(3):
        position = Vec3(draw(COORDINATES), draw(COORDINATES),
                        draw(COORDINATES))
        shade = draw(st.floats(min_value=-0.0, max_value=1.0))
        vertices.append(Vertex(position, VertexAttributes(
            color=Vec4(shade, 0.5, 1.0 - shade, draw(
                st.sampled_from([0.4, 1.0]))),
            uv=Vec2(shade, -0.0),
        )))
    return Triangle(*vertices)


@st.composite
def commands(draw, index):
    kind = draw(st.sampled_from(["woz", "woz-culled", "translucent",
                                 "sprite"]))
    state = {
        "woz": RenderState.opaque_3d(cull_backface=False),
        "woz-culled": RenderState.opaque_3d(cull_backface=True),
        "translucent": RenderState.translucent_3d(),
        "sprite": RenderState.sprite_2d(blend=BlendMode.ALPHA),
    }[kind]
    override = draw(st.sampled_from(["none", "view", "projection",
                                      "both"]))
    return DrawCommand(
        draw(st.lists(triangles(), min_size=1, max_size=6)),
        model=translate(Vec3(draw(st.floats(-1.0, 1.0)), 0.0, 0.0)),
        state=state,
        label=f"cmd{index}",
        view=Mat4.identity() if override in ("view", "both") else None,
        projection=ORTHO if override in ("projection", "both") else None,
    )


@st.composite
def scenes(draw):
    """Three frames of the same commands drifting along x (so RE and EVR
    see both matches and changes)."""
    command_list = [draw(commands(index))
                    for index in range(draw(st.integers(1, 4)))]
    drift = draw(st.sampled_from([0.0, 0.0, 0.25]))
    return [
        Frame([dataclasses.replace(
            command, model=translate(Vec3(drift * index, 0.0, 0.0))
            @ command.model) for command in command_list],
            view=CAMERA, projection=PERSPECTIVE, index=index)
        for index in range(CONFIG.frames)
    ]


# ---------------------------------------------------------------------------
# Differential properties
# ---------------------------------------------------------------------------

@given(scenes(), st.sampled_from(sorted(FEATURE_SETS)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_perspective_scenes_match(frames, feature_set):
    """Clip at w <= eps, every frustum plane, culling on and off,
    per-command overrides, huge window positions and -0.0 inputs."""
    assert_backends_agree(frames, FEATURE_SETS[feature_set])


@pytest.mark.parametrize("feature_set", sorted(FEATURE_SETS))
def test_every_feature_set_on_a_fixed_scene(feature_set):
    """A deterministic scene exercising every branch for each feature
    set: overlapping WOZ boxes behind a translucent sheet and a HUD."""
    def build(index):
        sheet = quad(Vec3(-2.0, -1.5, 1.0), Vec3(4.0, 0.0, 0.0),
                     Vec3(0.0, 3.0, 0.0), Vec4(0.2, 0.4, 0.9, 0.5))
        near = quad(Vec3(-1.0 + 0.1 * index, -1.0, 0.5), Vec3(2.0, 0, 0),
                    Vec3(0, 2.0, 0), Vec4(0.9, 0.1, 0.1, 1.0))
        far = quad(Vec3(-3.0, -2.0, -1.0), Vec3(6.0, 0, 0),
                   Vec3(0, 4.0, 0), Vec4(0.1, 0.9, 0.1, 1.0))
        hud = quad(Vec3(2.0, 2.0, 0.0), Vec3(20.0, 0, 0),
                   Vec3(0, 8.0, 0), Vec4(1.0, 1.0, 1.0, 1.0))
        return Frame([
            DrawCommand.from_mesh(far, state=RenderState.opaque_3d(),
                                  label="far"),
            DrawCommand.from_mesh(near, state=RenderState.opaque_3d(
                cull_backface=False), label="near"),
            DrawCommand.from_mesh(sheet, state=RenderState.translucent_3d(),
                                  label="sheet"),
            DrawCommand.from_mesh(hud, state=RenderState.sprite_2d(),
                                  label="hud", view=Mat4.identity(),
                                  projection=ORTHO),
        ], view=CAMERA, projection=PERSPECTIVE, index=index)

    snapshots, error = assert_backends_agree(
        [build(index) for index in range(4)], FEATURE_SETS[feature_set])
    assert error is None
    assert any(entries for snapshot in snapshots
               for entries in snapshot["display_lists"])


def _triangle_at(*points):
    return Triangle(*(Vertex(Vec3(*point)) for point in points))


#: One triangle per clip and cull rule, under the perspective camera at
#: z=5 (near plane 0.5, far plane 20).
REJECTED = {
    "behind-camera": _triangle_at((0, 0, 6), (1, 0, 6), (0, 1, 6)),
    "one-vertex-behind": _triangle_at((0, 0, 0), (1, 0, 0), (0, 1, 5.5)),
    "left": _triangle_at((-90, 0, 0), (-80, 0, 0), (-90, 1, 0)),
    "right": _triangle_at((80, 0, 0), (90, 0, 0), (80, 1, 0)),
    "below": _triangle_at((0, -90, 0), (1, -90, 0), (0, -80, 0)),
    "above": _triangle_at((0, 80, 0), (1, 80, 0), (0, 90, 0)),
    "before-near": _triangle_at((0, 0, 4.8), (0.01, 0, 4.8), (0, 0.01, 4.8)),
    "beyond-far": _triangle_at((0, 0, -90), (9, 0, -90), (0, 9, -90)),
    "zero-area": _triangle_at((0, 0, 0), (1, 1, 0), (2, 2, 0)),
    "back-facing": _triangle_at((0, 0, 0), (0, 1, 0), (1, 0, 0)),
}


@pytest.mark.parametrize("rule", sorted(REJECTED))
def test_each_clip_and_cull_rule_rejects_on_both_backends(rule):
    visible = _triangle_at((0, 0, 0), (1, 0, 0), (0, 1, 0))
    frame = Frame([DrawCommand([visible, REJECTED[rule], visible],
                               state=RenderState.opaque_3d(), label=rule)],
                  view=CAMERA, projection=PERSPECTIVE)
    reference = None
    for backend in ("python", "numpy"):
        gpu = GPU(CONFIG, "evr", backend=backend)
        result = gpu.render_frame(frame)
        assert result.stats.primitives_culled == 1
        assert result.stats.primitives_binned == 2
        snapshot = _snapshot(gpu, result)
        reference = reference or snapshot
        assert snapshot == reference


STRESS_CONFIG = GPUConfig(screen_width=48, screen_height=32, frames=3)


@given(st.sampled_from(["degenerate", "sliver"]),
       st.integers(min_value=0, max_value=2 ** 16),
       st.sampled_from(sorted(FEATURE_SETS)))
@settings(max_examples=16, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_degenerate_and_sliver_families_match(family, seed, feature_set):
    stream = family_stream(family, STRESS_CONFIG, seed=seed)
    assert_backends_agree(stream, FEATURE_SETS[feature_set],
                          config=STRESS_CONFIG)


# ---------------------------------------------------------------------------
# -0.0 through the transform: a viewport without translation
# ---------------------------------------------------------------------------

SIGNED_ZEROS = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                         st.floats(min_value=0.0, max_value=1.0))


ZERO = st.sampled_from([-0.0, 0.0])


@st.composite
def zero_viewports(draw):
    """Viewport rows without translation whose zero terms are signed:
    x and y keep the point in tile 0, depth ranges over -0.0, negative
    (clamped) and in-range values."""
    return Mat4((
        1.0, draw(ZERO), draw(ZERO), draw(ZERO),
        draw(ZERO), 1.0, draw(ZERO), draw(ZERO),
        draw(ZERO), draw(ZERO),
        draw(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])),
        draw(st.sampled_from([-0.0, 0.0, 0.5, -1.0])),
        0.0, 0.0, 0.0, 1.0,
    ))


@given(st.lists(st.tuples(*[SIGNED_ZEROS] * 9), min_size=1, max_size=8),
       zero_viewports())
@settings(max_examples=80, deadline=None)
def test_signed_zero_window_positions_match(points, custom):
    """The screen viewport always adds a positive offset, so -0.0 never
    reaches a window position through it.  With a viewport without
    translation it does, and the zero terms of the pinned expression
    order and the z clamp's tie rule decide its sign; both backends must
    agree bit for bit.  Clip space is the identity here, so the points
    stay inside the frustum and land in tile 0."""
    mesh = [Triangle(*(Vertex(Vec3(*p[3 * k:3 * k + 3])) for k in range(3)))
            for p in points]
    frame = Frame([DrawCommand(mesh, state=RenderState.opaque_3d(
        cull_backface=False), label="zeros")])
    outcomes = []
    for backend in ("python", "numpy"):
        gpu = GPU(CONFIG, "evr", backend=backend)
        gpu.geometry._viewport = custom
        stats = FrameStats()
        try:
            gpu.geometry.process_frame(frame, stats)
        except PipelineError as error:
            outcomes.append(str(error))
            continue
        outcomes.append((
            stats.as_dict(),
            [[(_triangle_key(entry.primitive), entry.layer)
              for entry in display_list]
             for _, display_list in gpu.parameter_buffer.tiles()],
        ))
    assert outcomes[0] == outcomes[1]


def test_depth_clamp_keeps_negative_zero():
    """``min(max(z, 0.0), 1.0)`` keeps ``-0.0`` (the first argument wins
    the tie); ``np.maximum(z, 0.0)`` would return ``+0.0``."""
    custom = Mat4((1.0, -0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
                   -0.0, -0.0, -1.0, -0.0, 0.0, 0.0, 0.0, 1.0))
    mesh = [_triangle_at((0.1, 0.1, 0.0), (0.9, 0.1, 0.5), (0.1, 0.9, -0.5))]
    frame = Frame([DrawCommand(mesh, state=RenderState.opaque_3d(
        cull_backface=False), label="clamp")])
    depths = []
    for backend in ("python", "numpy"):
        gpu = GPU(CONFIG, "re", backend=backend)
        gpu.geometry._viewport = custom
        gpu.geometry.process_frame(frame, FrameStats())
        (entry,) = gpu.parameter_buffer.display_list(0)
        depths.append(tuple(_bits(z) for z in entry.primitive.z))
    assert depths[0] == depths[1] == (_bits(-0.0), _bits(0.0), _bits(0.5))


# ---------------------------------------------------------------------------
# Tile ranges: int() truncation toward zero, no int64 overflow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x0, x1, tiles", [
    (-3.0, -0.5, 0),            # left of the frustum: never binned
    (-0.75, 20.0, 2),
    (60.0, 63.99, 1),
    (64.0, 70.0, 0),            # first column past the screen
    (-1e30, 1e30, 4),           # beyond int64 on both sides
    (1e30, 2e30, 0),
    (-2e30, -1e30, 0),
])
def test_tile_ranges_truncate_like_the_scalar_binner(x0, x1, tiles):
    mesh = quad(Vec3(x0, 4.0, 0.0), Vec3(x1 - x0, 0, 0), Vec3(0, 8.0, 0))
    frame = Frame([DrawCommand.from_mesh(mesh, state=RenderState.sprite_2d(),
                                         label="span")], projection=ORTHO)
    snapshots, error = assert_backends_agree([frame],
                                             FEATURE_SETS["evr"])
    assert error is None
    assert snapshots[0]["stats"]["primitive_tile_pairs"] == 2 * tiles


# ---------------------------------------------------------------------------
# Non-finite and non-representable vertex data
# ---------------------------------------------------------------------------

def _quad_frame(x: float, label: str = "nan-quad") -> Frame:
    return Frame([
        DrawCommand.from_mesh(quad(Vec3(4.0, 4.0, 0.0), Vec3(8.0, 0, 0),
                                   Vec3(0, 8.0, 0)),
                              state=RenderState.sprite_2d(), label="ok"),
        DrawCommand.from_mesh(quad(Vec3(x, 4.0, 0.0), Vec3(8.0, 0, 0),
                                   Vec3(0, 8.0, 0)),
                              state=RenderState.sprite_2d(), label=label),
    ], projection=ORTHO)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_non_finite_vertex_raises_pipeline_error(backend, x):
    gpu = GPU(GPUConfig.tiny(), "evr", backend=backend)
    with pytest.raises(PipelineError,
                       match=r"draw command 'nan-quad': triangle 0 "):
        gpu.render_frame(_quad_frame(x))


def test_non_finite_vertex_names_the_triangle_index():
    """Only the second triangle of the command has a NaN vertex."""
    good = Vertex(Vec3(1.0, 1.0, 0.0))
    bad = Vertex(Vec3(math.nan, 2.0, 0.0))
    triangles_ = [
        Triangle(good, Vertex(Vec3(9.0, 1.0, 0.0)), Vertex(Vec3(1.0, 9.0, 0))),
        Triangle(good, bad, Vertex(Vec3(1.0, 9.0, 0.0))),
    ]
    frame = Frame([DrawCommand(triangles_, state=RenderState.sprite_2d(),
                               label="mixed")], projection=ORTHO)
    messages = []
    for backend in ("python", "numpy"):
        with pytest.raises(PipelineError) as raised:
            GPU(GPUConfig.tiny(), "re", backend=backend).render_frame(frame)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "'mixed': triangle 1 " in messages[0]


def test_attribute_beyond_float32_raises_on_both_backends():
    """A culled triangle's attributes are still packed, as in the scalar
    path, so both backends raise the same OverflowError."""
    huge = VertexAttributes(color=Vec4(1e39, 0.0, 0.0, 1.0))
    degenerate = Triangle(Vertex(Vec3(1.0, 1.0, 0.0), huge),
                          Vertex(Vec3(1.0, 1.0, 0.0)),
                          Vertex(Vec3(1.0, 1.0, 0.0)))
    frame = Frame([DrawCommand([degenerate], state=RenderState.sprite_2d(),
                               label="huge")], projection=ORTHO)
    errors = []
    for backend in ("python", "numpy"):
        with pytest.raises(OverflowError) as raised:
            GPU(GPUConfig.tiny(), "baseline",
                backend=backend).render_frame(frame)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# Memory traffic: the batched Parameter Buffer writes, recorded once each
# ---------------------------------------------------------------------------

def _z_prepass_frame(index: int) -> Frame:
    boxes = [
        quad(Vec3(-2.0 + 0.2 * k, -1.0, -0.5 * k), Vec3(2.5, 0, 0),
             Vec3(0, 2.0, 0), Vec4(0.3 * k, 0.5, 0.2, 1.0))
        for k in range(3)
    ]
    return Frame([
        DrawCommand.from_mesh(mesh, state=RenderState.opaque_3d(
            cull_backface=False), label=f"box{k}")
        for k, mesh in enumerate(boxes)
    ], view=CAMERA, projection=PERSPECTIVE, index=index)


def _op_key(op):
    return (type(op).__name__,) + tuple(
        field.tobytes() if hasattr(field, "tobytes") else field
        for field in op
    )


def test_trace_recorder_records_each_geometry_write_once():
    """The numpy path issues a command's Parameter Buffer writes as one
    op list through ``replay_memory_trace``.  A recording memory system
    (which has no batched replay) must still see each write once, so its
    op list equals the scalar model's per-call stream."""
    streams = {}
    for backend in ("python", "numpy"):
        recorder = _TraceRecorder(CONFIG)
        gpu = GPU(CONFIG, "z-prepass", backend=backend,
                  memory_system=recorder)
        results = [gpu.render_frame(_z_prepass_frame(index))
                   for index in range(2)]
        streams[backend] = ([_op_key(op) for op in recorder.ops], results)
    python_ops, python_results = streams["python"]
    numpy_ops, _ = streams["numpy"]
    assert numpy_ops == python_ops

    # Every geometry write once: per binned primitive its attribute and
    # depth-only records, plus one pointer per (primitive, tile) pair of
    # the shading pass (the z-prepass doubles display_list_writes).
    writes = sum(1 for op in numpy_ops if op[0] == PBWriteOp.__name__)
    expected = sum(2 * result.stats.primitives_binned
                   + result.stats.display_list_writes // 2
                   for result in python_results)
    assert writes == expected > 0
