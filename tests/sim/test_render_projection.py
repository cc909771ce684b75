"""Golden-value tests for the camera projection math.

The renderer's forward projection (billboards) and inverse projection
(ground pass) must be exact inverses; these tests pin the geometry with
hand-computed cases so a regression in either pass cannot hide behind the
other.
"""

import math

import numpy as np
import pytest

from repro.sim.geometry import Transform, Vec2
from repro.sim.render import CameraModel, Renderer
from repro.sim.town import GridTownConfig, build_grid_town


@pytest.fixture(scope="module")
def renderer():
    town = build_grid_town(GridTownConfig(rows=2, cols=3, with_buildings=False))
    cam = CameraModel(width=64, height=48, fov_deg=90.0, mount_height=1.5,
                      pitch_deg=0.0, forward_offset=0.0)
    return Renderer(town, cam)


class TestForwardProjection:
    def test_point_on_axis_projects_to_center_column(self, renderer):
        u, v, depth = renderer._project(np.array([[10.0, 0.0, 1.5]]))
        cam = renderer.camera
        assert u[0] == pytest.approx((cam.width - 1) / 2.0)
        assert v[0] == pytest.approx((cam.height - 1) / 2.0)
        assert depth[0] == pytest.approx(10.0)

    def test_point_left_projects_left_of_center(self, renderer):
        # +y is left in the vehicle frame; image columns run right, so a
        # left-side point lands at a smaller column index.
        u, v, _ = renderer._project(np.array([[10.0, 3.0, 1.5]]))
        assert u[0] < (renderer.camera.width - 1) / 2.0

    def test_ground_point_projects_below_center(self, renderer):
        u, v, _ = renderer._project(np.array([[10.0, 0.0, 0.0]]))
        assert v[0] > (renderer.camera.height - 1) / 2.0

    def test_pinhole_row_formula(self, renderer):
        # v = cy + f * h / d for a ground point straight ahead, pitch 0.
        cam = renderer.camera
        d = 12.0
        u, v, _ = renderer._project(np.array([[d, 0.0, 0.0]]))
        expected = (cam.height - 1) / 2.0 + cam.focal_px * cam.mount_height / d
        assert v[0] == pytest.approx(expected, rel=1e-9)

    def test_behind_camera_negative_depth(self, renderer):
        _, _, depth = renderer._project(np.array([[-5.0, 0.0, 1.5]]))
        assert depth[0] < 0


class TestInverseConsistency:
    def test_ground_rays_roundtrip_through_projection(self, renderer):
        """Project the precomputed ground points back: pixel identity."""
        cam = renderer.camera
        mask = renderer._ground_mask
        rows, cols = np.where(mask)
        # Sample a handful of pixels across the image.
        idx = np.linspace(0, len(rows) - 1, 25).astype(int)
        for r, c in zip(rows[idx], cols[idx]):
            gx, gy = renderer._ground_local[r, c]
            u, v, depth = renderer._project(np.array([[gx, gy, 0.0]]))
            assert depth[0] > 0
            assert u[0] == pytest.approx(c, abs=0.01)
            assert v[0] == pytest.approx(r, abs=0.01)

    def test_ground_depth_increases_toward_horizon(self, renderer):
        mask = renderer._ground_mask
        depth = renderer._ground_depth
        center_col = renderer.camera.width // 2
        column_rows = np.where(mask[:, center_col])[0]
        depths = depth[column_rows, center_col]
        # Rows are ordered top to bottom: nearer rows (bottom) = smaller depth.
        assert np.all(np.diff(depths) < 0)


class TestPitchedCamera:
    def test_horizon_rises_when_pitched_down(self):
        town = build_grid_town(GridTownConfig(rows=2, cols=3, with_buildings=False))
        flat = Renderer(town, CameraModel(width=64, height=48, pitch_deg=0.0))
        pitched = Renderer(town, CameraModel(width=64, height=48, pitch_deg=-10.0))
        # The ground mask (pixels that hit ground) extends higher up the
        # image when the camera looks down.
        flat_top = np.where(flat._ground_mask.any(axis=1))[0].min()
        pitched_top = np.where(pitched._ground_mask.any(axis=1))[0].min()
        assert pitched_top < flat_top

    def test_render_matches_world_yaw(self):
        """Rotating the ego rotates the scene: a building ahead moves."""
        town = build_grid_town(GridTownConfig(rows=2, cols=3))
        renderer = Renderer(town, CameraModel(width=64, height=48))
        wp = town.spawn_points()[0]
        pose_a = Transform(wp.position, wp.yaw)
        pose_b = Transform(wp.position, wp.yaw + math.pi / 2)
        img_a = renderer.render(pose_a, [])
        img_b = renderer.render(pose_b, [])
        assert not np.array_equal(img_a, img_b)


# ----------------------------------------------------------------------
# Billboard bounds: the scalar and the batched projection agree bit for bit
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_finite = st.floats(-60.0, 60.0, allow_nan=False)
_box = st.tuples(
    st.floats(0.5, 90.0),  # lx: culled boxes never reach the projection
    _finite,  # ly
    st.floats(-math.pi, math.pi),  # relative yaw
    st.floats(0.1, 10.0),  # half length
    st.floats(0.1, 10.0),  # half width
    st.floats(0.1, 20.0),  # height
)


_renderers: dict[float, Renderer] = {}


def _renderer_at(pitch: float) -> Renderer:
    if pitch not in _renderers:
        town = build_grid_town(GridTownConfig(rows=2, cols=3, with_buildings=False))
        _renderers[pitch] = Renderer(town, CameraModel(width=32, height=24, pitch_deg=pitch))
    return _renderers[pitch]


@given(st.lists(_box, min_size=1, max_size=20), st.sampled_from([-12.0, -8.0, 0.0, 5.0]))
@settings(max_examples=150, deadline=None)
def test_scalar_and_batched_box_bounds_agree_bitwise(boxes, pitch):
    renderer = _renderer_at(pitch)
    rows = [(lx, ly, math.cos(yaw), math.sin(yaw), hl, hw, h) for lx, ly, yaw, hl, hw, h in boxes]
    arr = np.array(rows).T
    batched = renderer._boxes_bounds(arr[0], arr[1], arr[2:])
    for row, got in zip(rows, batched):
        scalar = renderer._box_bounds(*row)
        assert (scalar is None) == (got is None)
        if scalar is not None:
            assert [v.hex() for v in scalar] == [v.hex() for v in got]
