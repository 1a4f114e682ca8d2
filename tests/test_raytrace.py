"""Tests for refraction, wall/board intersections and the full raycast.

Reference values come from independent reconstructions in oracles.py:
angle-space Snell, bisection on the implicit cone equation, a 3x3
linear solve for the plane hit, and a scalar re-trace with
finite-difference normals.
"""

import dataclasses
import math

import numpy as np
import pytest

from conecal.camera import pixel_to_ray
from conecal.errors import (
    ConfigurationError,
    DataError,
    MissError,
    SingularSurfaceError,
    TotalInternalReflectionError,
)
from conecal.geometry import ConeGeometry, RbfSurface, cone_point
from conecal.raytrace import (
    STAGE_NAMES,
    BoardPose,
    Ray,
    SceneParams,
    TraceStatus,
    _intersect_cone_batch,
    _land_on_board,
    _trace_batch,
    intersect_board,
    intersect_cone,
    pinhole_raycast,
    raycast,
    raycast_pixels,
    refract,
    trace_pixels,
    trace_through_cover,
    world_to_board_local,
)
from oracles import (
    angle_between,
    board_solve_local,
    cone_bisection_t,
    cone_implicit,
    reference_raycast,
    refract_oracle,
)

ETA_GLASS = 1.5


def random_unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def generator_direction(cone, theta):
    """Unit direction of the walls' generator at polar angle ``theta``, climbing."""
    a = cone.half_angle
    return np.array([np.sin(a) * np.sin(theta), -np.cos(a), np.sin(a) * np.cos(theta)])


class TestRay:
    def test_direction_is_normalized(self):
        r = Ray(origin=[0.0, 0.0, 0.0], direction=[0.0, 0.0, 2.0])
        assert np.allclose(r.direction, [0.0, 0.0, 1.0])

    def test_zero_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            Ray(origin=[0.0, 0.0, 0.0], direction=[0.0, 0.0, 0.0])

    def test_immutable(self):
        r = Ray(origin=[0.0, 0.0, 0.0], direction=[0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            r.direction[0] = 1.0


class TestBoardPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ConfigurationError):
            BoardPose(rotation=np.eye(3) * 1.01, translation=np.zeros(3))

    def test_rejects_reflection(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ConfigurationError):
            BoardPose(rotation=rot, translation=np.zeros(3))

    def test_board_world_round_trip(self, poses):
        rng = np.random.default_rng(7)
        for pose in poses:
            xy = rng.uniform(-0.1, 0.1, size=(20, 2))
            world = pose.board_to_world(xy)
            back = world_to_board_local(pose, world)
            np.testing.assert_allclose(back, xy, atol=1e-12)

    def test_world_to_board_local_rejects_off_plane(self, poses):
        pose = poses[0]
        point = pose.translation + 1e-6 * pose.normal
        with pytest.raises(DataError):
            world_to_board_local(pose, point)


class TestSceneParams:
    def test_patch_above_cone_rejected(self, intrinsics, cone, flat_surface, poses):
        import dataclasses

        from conecal.geometry import RbfPatch, RbfSurface

        patch = RbfPatch(s1_range=(0.03, cone.height + 0.01), s2_range=(-0.2, 0.2))
        bad = RbfSurface.flat(patch, (4, 4))
        with pytest.raises(ConfigurationError):
            SceneParams(intrinsics=intrinsics, cone=cone, surface=bad, poses=poses)
        del dataclasses

    def test_missing_pose_index(self, scene_zero):
        with pytest.raises(DataError):
            scene_zero.pose(99)

    def test_negative_index_does_not_wrap(self, scene_zero):
        pixels = np.array([[900.0, 700.0], [1200.0, 1100.0]])
        with pytest.raises(DataError):
            scene_zero.pose(-1)
        with pytest.raises(DataError):
            raycast_pixels(scene_zero, -1, pixels)
        with pytest.raises(DataError):
            raycast_pixels(scene_zero, np.array([0, -1]), pixels)

    def test_bad_index_arrays_rejected(self, scene_zero):
        pixels = np.array([[900.0, 700.0], [1200.0, 1100.0]])
        for index in ([0, 3], [0.0, 1.0], [True, False], [0, 1, 2], [[0, 1]]):
            with pytest.raises(DataError):
                trace_pixels(scene_zero, np.array(index), pixels)

    def test_pose_arrays_gather_from_one_stack(self, scene_zero):
        index = np.array([[2, 0, 1], [1, 1, 2]])
        rotation, translation = scene_zero.pose_arrays(index)
        for k, i in np.ndenumerate(index):
            assert rotation[k].tobytes() == scene_zero.poses[i].rotation.tobytes()
            assert translation[k].tobytes() == scene_zero.poses[i].translation.tobytes()
        # stacked once and read-only
        assert not any(array.flags.writeable for array in scene_zero._pose_stack)
        _, first = scene_zero.with_poses(scene_zero.poses[::-1]).pose_arrays(0)
        assert first.tobytes() == scene_zero.poses[2].translation.tobytes()

    @pytest.mark.parametrize(
        "part, field, value",
        [
            ("intrinsics", "fx", math.nan),
            ("intrinsics", "fy", math.inf),
            ("intrinsics", "cx", math.nan),
            ("intrinsics", "cy", -math.inf),
            ("cone", "apex", (0.0, math.nan, -0.0015)),
            ("cone", "height", math.inf),
            ("cone", "radial_thickness", math.nan),
            ("cone", "eta_inside", math.nan),
            ("cone", "eta_outside", math.inf),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_non_finite_camera_or_cone_value_rejected(self, scene_zero, part, field, value):
        # unchecked, a NaN eta_inside traced as inner-refraction failures
        # and a NaN cx raised MissError at inner-intersection
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            dataclasses.replace(getattr(scene_zero, part), **{field: value})

    @pytest.mark.parametrize("index", [0.0, True], ids=["float", "bool"])
    def test_non_integer_scalar_index_rejected(self, scene_zero, index):
        pixels = np.array([[900.0, 700.0], [1200.0, 1100.0]])
        with pytest.raises(DataError, match="integers"):
            raycast_pixels(scene_zero, index, pixels)
        with pytest.raises(DataError, match="integers"):
            scene_zero.pose(index)


class TestRefract:
    def test_hand_worked_case(self):
        # sin 0.6 incidence, eta 2/3: transmitted (0.4, 0, sqrt(0.84))
        d = np.array([0.6, 0.0, 0.8])
        n = np.array([0.0, 0.0, -1.0])
        t = refract(d, n, 2.0 / 3.0)
        np.testing.assert_allclose(t, [0.4, 0.0, math.sqrt(0.84)], atol=1e-12)

    @pytest.mark.parametrize("eta", [1.0 / ETA_GLASS, ETA_GLASS, 1.0])
    def test_matches_angle_construction(self, eta):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 2000:
            d = random_unit(rng, 1)[0]
            n = random_unit(rng, 1)[0]
            expected = refract_oracle(d, n, eta)
            if expected is None:
                with pytest.raises(TotalInternalReflectionError):
                    refract(d, n, eta)
                continue
            got = refract(d, n, eta)
            assert angle_between(got, expected) < 1e-12
            checked += 1

    def test_output_is_unit_without_renormalizing(self):
        rng = np.random.default_rng(5)
        d = random_unit(rng, 500)
        n = random_unit(rng, 500)
        t = refract(d, n, 1.0 / ETA_GLASS)
        np.testing.assert_allclose(np.linalg.norm(t, axis=-1), 1.0, atol=1e-12)

    def test_tangential_invariant_and_coplanarity(self):
        rng = np.random.default_rng(11)
        for eta in (1.0 / ETA_GLASS, ETA_GLASS):
            d = random_unit(rng, 300)
            n = random_unit(rng, 300)
            sin_i = np.linalg.norm(np.cross(d, n), axis=-1)
            keep = eta * sin_i < 1.0 - 1e-9
            d, n, sin_i = d[keep], n[keep], sin_i[keep]
            t = refract(d, n, eta)
            sin_t = np.linalg.norm(np.cross(t, n), axis=-1)
            np.testing.assert_allclose(sin_t, eta * sin_i, atol=1e-12)
            triple = np.sum(np.cross(d, n) * t, axis=-1)
            np.testing.assert_allclose(triple, 0.0, atol=1e-12)

    def test_reversibility(self):
        rng = np.random.default_rng(13)
        d = random_unit(rng, 200)
        n = random_unit(rng, 200)
        t = refract(d, n, 1.0 / ETA_GLASS)
        back = refract(t, n, ETA_GLASS)
        np.testing.assert_allclose(back, d, atol=1e-10)

    def test_normal_auto_flip(self):
        rng = np.random.default_rng(17)
        d = random_unit(rng, 50)
        n = random_unit(rng, 50)
        np.testing.assert_allclose(
            refract(d, n, 1.0 / ETA_GLASS), refract(d, -n, 1.0 / ETA_GLASS), atol=1e-15
        )

    def test_normal_incidence_is_undeviated(self):
        d = np.array([0.0, 0.0, 1.0])
        t = refract(d, np.array([0.0, 0.0, -1.0]), 1.0 / ETA_GLASS)
        np.testing.assert_allclose(t, d, atol=1e-15)

    def test_tir_boundary_is_strict(self):
        n = np.array([0.0, 0.0, -1.0])
        theta_c = math.asin(1.0 / ETA_GLASS)
        for delta, expect_tir in ((-1e-9, False), (1e-9, True)):
            theta = theta_c + delta
            d = np.array([math.sin(theta), 0.0, math.cos(theta)])
            if expect_tir:
                with pytest.raises(TotalInternalReflectionError) as err:
                    refract(d, n, ETA_GLASS)
                assert err.value.stage == "refraction"
            else:
                t = refract(d, n, ETA_GLASS)
                # just below critical: transmitted ray grazes the surface
                assert abs(float(t @ n)) < 1e-4


class TestIntersectCone:
    def make_rays(self, cone, rng, n):
        """Rays from the camera region aimed into the wall band."""
        origins = rng.uniform([-5e-4, -0.005, -5e-4], [5e-4, 0.005, 5e-4], size=(n, 3))
        # aim at wall points spread over the slice so hits are transversal
        s1 = rng.uniform(0.2, 0.95, size=n) * cone.height
        s2 = rng.uniform(-math.pi, math.pi, size=n)
        targets = cone_point(cone, None, np.stack([s1, s2], axis=-1), "inner")
        dirs = targets - origins
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        return origins, dirs

    @pytest.mark.parametrize("which", ["inner", "outer"])
    def test_matches_bisection(self, cone, which):
        rng = np.random.default_rng(23)
        origins, dirs = self.make_rays(cone, rng, 300)
        expected = cone_bisection_t(cone, origins, dirs, which)
        for o, d, t_ref in zip(origins, dirs, expected):
            hit = intersect_cone(cone, Ray(origin=o, direction=d), which)
            if not np.isfinite(t_ref):
                assert hit is None
            else:
                assert hit is not None
                point, s = hit
                t_got = np.linalg.norm(point - o)
                assert abs(t_got - t_ref) < 1e-9

    @pytest.mark.parametrize("which", ["inner", "outer"])
    def test_hit_point_on_surface(self, cone, which):
        rng = np.random.default_rng(29)
        origins, dirs = self.make_rays(cone, rng, 200)
        for o, d in zip(origins, dirs):
            hit = intersect_cone(cone, Ray(origin=o, direction=d), which)
            if hit is None:
                continue
            point, s = hit
            assert abs(cone_implicit(cone, which, point)) < 1e-10
            # cone coordinates round-trip through the parametrization
            np.testing.assert_allclose(cone_point(cone, None, s, which), point, atol=1e-12)

    def test_ray_away_from_wall_misses(self, cone):
        ray = Ray(origin=[0.0, 0.0, 0.0], direction=[0.0, -1.0, 0.0])
        assert intersect_cone(cone, ray, "inner") is None

    def test_hit_beyond_band_misses(self, cone):
        # aim at the slice from far below the height band
        ray = Ray(origin=[0.0, cone.apex[1] - 10 * cone.height, 0.0], direction=[0.0, -1.0, 0.0])
        assert intersect_cone(cone, ray, "inner") is None

    @pytest.mark.parametrize("which", ["inner", "outer"])
    def test_generator_parallel_rays_take_the_linear_root(self, cone, which):
        # a ray parallel to a generator zeroes the quadratic term (|a| <
        # 1e-14), so the single root -c/b is the hit
        rng = np.random.default_rng(61)
        n = 60
        s = np.column_stack([rng.uniform(0.1, 0.9, n) * cone.height, rng.uniform(-3.0, 3.0, n)])
        hits = cone_point(cone, None, s, which)
        theta = s[:, 1] + rng.uniform(0.5, math.pi, n) * rng.choice([-1.0, 1.0], n)
        dirs = np.array([generator_direction(cone, t) for t in theta])
        dirs *= rng.choice([-1.0, 1.0], (n, 1))
        lengths = rng.uniform(0.005, 0.02, n)
        origins = hits - lengths[:, None] * dirs
        w = cone.tan_half_angle
        a = dirs[:, 0] ** 2 + dirs[:, 2] ** 2 - w * w * dirs[:, 1] ** 2
        assert np.all(np.abs(a) < 1e-14)

        t, hit = _intersect_cone_batch(cone, origins, dirs, which)
        expected = cone_bisection_t(cone, origins, dirs, which)
        assert np.all(hit) and np.all(np.isfinite(expected))
        np.testing.assert_allclose(t, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(t, lengths, rtol=0.0, atol=1e-12)

    def test_apex_tangency_is_a_miss(self, cone):
        ray = Ray(origin=[0.0, 0.0, 0.0], direction=cone.apex_array)
        assert intersect_cone(cone, ray, "inner") is None


class TestIntersectBoard:
    def test_matches_linear_solve(self, poses):
        rng = np.random.default_rng(31)
        for pose in poses:
            for _ in range(40):
                o = rng.uniform(-0.01, 0.01, size=3)
                target = pose.board_to_world(rng.uniform(-0.1, 0.1, size=2))
                d = target - o
                d /= np.linalg.norm(d)
                point = intersect_board(pose, Ray(origin=o, direction=d))
                expected = board_solve_local(pose, o, d)
                assert point is not None and expected is not None
                np.testing.assert_allclose(world_to_board_local(pose, point), expected, atol=1e-10)

    def test_parallel_ray_misses(self, poses):
        pose = poses[0]
        d = pose.rotation[:, 0]
        assert intersect_board(pose, Ray(origin=[0.0, 0.0, 0.0], direction=d)) is None

    def test_plane_behind_origin_misses(self, poses):
        pose = poses[0]
        assert intersect_board(pose, Ray(origin=[0.0, 0.0, 2.0], direction=[0.0, 0.0, 1.0])) is None


class TestTraceThroughCover:
    def test_meridian_rays_exit_parallel(self, scene_zero, intrinsics):
        # zero field and a shared axis plane: both walls present the same
        # normal, so the cover acts as a slab and only displaces the ray
        for py in np.linspace(200.0, 2200.0, 9):
            d = pixel_to_ray(intrinsics, np.array([intrinsics.cx, py]))
            out = trace_through_cover(scene_zero, Ray(origin=np.zeros(3), direction=d))
            assert angle_between(out.direction, d) < 1e-12

    def test_normal_incidence_pixel_passes_undeviated(self, scene_zero, intrinsics, cone):
        # the pixel whose ray climbs at the half-angle in the axis plane
        # meets both walls head-on: no deviation and no displacement
        pixel = np.array([intrinsics.cx, intrinsics.cy + intrinsics.fy * cone.tan_half_angle])
        d = pixel_to_ray(intrinsics, pixel)
        out = trace_through_cover(scene_zero, Ray(origin=np.zeros(3), direction=d))
        assert angle_between(out.direction, d) < 1e-12
        # outgoing ray stays on the original line
        cross = np.cross(out.origin, d)
        assert np.linalg.norm(cross) < 1e-12

    def test_miss_inner_raises_with_stage(self, scene_zero):
        ray = Ray(origin=np.zeros(3), direction=[0.0, -1.0, 0.0])
        with pytest.raises(MissError) as err:
            trace_through_cover(scene_zero, ray)
        assert err.value.stage == "inner-intersection"

    def test_miss_outer_near_apex_edge(self, scene_zero, cone):
        # hit the inner wall a hair above the apex moving apex-ward: the
        # glass leg leaves the height band before reaching the outer wall
        target = cone_point(cone, None, np.array([2e-4, 0.0]), "inner")
        d = target / np.linalg.norm(target)
        with pytest.raises(MissError) as err:
            trace_through_cover(scene_zero, Ray(origin=np.zeros(3), direction=d))
        assert err.value.stage == "outer-intersection"


def failure_stage(params, pose, origin, direction) -> str:
    """Stage name of one ray's trace through the scalar API, or "ok"."""
    try:
        out = trace_through_cover(params, Ray(origin=origin, direction=direction))
    except (MissError, TotalInternalReflectionError) as err:
        return err.stage
    except SingularSurfaceError:
        return STAGE_NAMES[TraceStatus.SINGULAR]
    if intersect_board(pose, out) is None:
        return STAGE_NAMES[TraceStatus.MISS_BOARD]
    return "ok"


class TestMixedFailureBatch:
    """One batch of rays that complete mixed with rays failing at every stage."""

    def rays(self, cone, intrinsics):
        apex = np.array(cone.apex)
        origins, dirs = [], []

        def add(origin, direction):
            origins.append(np.asarray(origin, dtype=np.float64))
            dirs.append(np.asarray(direction, dtype=np.float64))

        # straight up out of the slice: no inner hit
        add([0.0, 0.0, 0.0], [0.0, -1.0, 0.0])
        # parallel to a generator, meeting the inner wall 5e-13 m above the
        # apex, where its normal is undefined
        hit = cone_point(cone, None, np.array([5e-13, 0.3]), "inner")
        d = generator_direction(cone, 0.3 + math.pi)
        add(hit - 1e-6 * d, d)
        # sideways from near the wall: grazing inner incidence, beyond the
        # critical angle when the glass is the optically thinner medium
        add(apex + [0.0, -0.04, 0.003], [1.0, 0.0, 0.0])
        # from the axis, climbing to the inner wall 0.1 mm below the top of
        # the slice: the glass leg leaves the height band before the outer wall
        origin = apex - [0.0, cone.height - 1e-3, 0.0]
        target = cone_point(cone, None, np.array([cone.height - 1e-4, 0.0]), "inner")
        add(origin, (target - origin) / np.linalg.norm(target - origin))
        # out through the back wall, away from the board
        back = np.array([0.0, 0.3, -1.0])
        add([0.0, 0.0, 0.0], back / np.linalg.norm(back))
        # pixel rays over the sensor: through the steep field, some exceed
        # the critical angle at the outer wall and the rest complete
        xs = np.arange(100.0, 3200.0, 300.0)
        ys = np.arange(100.0, 2400.0, 300.0)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        for d in pixel_to_ray(intrinsics, np.column_stack([gx.ravel(), gy.ravel()])):
            add([0.0, 0.0, 0.0], d)
        return np.array(origins), np.array(dirs)

    @pytest.mark.parametrize(
        ("eta_inside", "eta_outside", "failing"),
        [
            (1.5, 1.0, {"MISS_INNER", "SINGULAR", "MISS_OUTER", "TIR_OUTER", "MISS_BOARD"}),
            (1.0, 1.5, {"MISS_INNER", "SINGULAR", "TIR_INNER", "MISS_OUTER", "MISS_BOARD"}),
        ],
    )
    def test_each_row_fails_at_its_scalar_stage(
        self, scene_zero, cone, eta_inside, eta_outside, failing
    ):
        cone = ConeGeometry(
            cone.apex, cone.half_angle, cone.height, cone.radial_thickness, eta_inside, eta_outside
        )
        amps = np.array([[0.2, -0.2], [-0.2, 0.2]])
        steep = RbfSurface(patch=scene_zero.surface.patch, grid=(2, 2), amplitudes=amps, beta=0.02)
        params = SceneParams(scene_zero.intrinsics, cone, steep, scene_zero.poses)
        pose = params.poses[0]
        origins, dirs = self.rays(cone, params.intrinsics)

        def trace(rows):
            batch = _trace_batch(cone, steep, origins[rows], dirs[rows])
            return _land_on_board(batch, pose.rotation, pose.translation)

        batch = trace(slice(None))
        present = {TraceStatus(s).name for s in batch.status.tolist()}
        assert present == failing | {"OK"}
        names = {**{int(s): name for s, name in STAGE_NAMES.items()}, int(TraceStatus.OK): "ok"}
        for row, status in enumerate(batch.status.tolist()):
            assert names[status] == failure_stage(params, pose, origins[row], dirs[row]), row

        fields = (
            "dir_glass", "x_outer", "s_outer", "status",
            "n_outer", "dir_out", "t_board", "x_board", "board_local",
        )
        for row in np.flatnonzero(batch.ok):
            alone = trace(slice(row, row + 1))
            for name in fields:
                got, expected = getattr(batch, name)[row], getattr(alone, name)[0]
                assert got.tobytes() == expected.tobytes(), (row, name)


class TestRaycast:
    def sample_pixels(self, intrinsics, rng, n):
        return rng.uniform(
            [0.02 * intrinsics.width, 0.02 * intrinsics.height],
            [0.98 * intrinsics.width, 0.98 * intrinsics.height],
            size=(n, 2),
        )

    def test_matches_reference_trace_flat(self, scene_zero):
        rng = np.random.default_rng(37)
        pixels = self.sample_pixels(scene_zero.intrinsics, rng, 25)
        for image_index in range(len(scene_zero.poses)):
            for pixel in pixels:
                expected = reference_raycast(scene_zero, image_index, pixel)
                assert expected is not None
                got = raycast(scene_zero, image_index, pixel)
                np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_matches_reference_trace_with_field(self, scene_zero):
        rng = np.random.default_rng(43)
        amps = rng.normal(1e-5, 2.5e-6, size=scene_zero.surface.grid)
        params = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        pixels = self.sample_pixels(params.intrinsics, rng, 30)
        for pixel in pixels:
            expected = reference_raycast(params, 0, pixel)
            assert expected is not None
            got = raycast(params, 0, pixel)
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_batch_agrees_with_scalar(self, scene_zero):
        rng = np.random.default_rng(47)
        pixels = self.sample_pixels(scene_zero.intrinsics, rng, 50)
        local, status = raycast_pixels(scene_zero, 1, pixels)
        assert np.all(status == TraceStatus.OK)
        for pixel, row in zip(pixels, local):
            np.testing.assert_allclose(raycast(scene_zero, 1, pixel), row, atol=1e-14)

    def test_index_array_matches_per_image_traces(self, scene_zero):
        rng = np.random.default_rng(53)
        amps = rng.normal(1e-5, 2.5e-6, size=scene_zero.surface.grid)
        params = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        # enough rows that the kernel is built in several blocks
        pixels = self.sample_pixels(params.intrinsics, rng, 1500).reshape(3, 500, 2)
        index = rng.integers(0, len(params.poses), size=(3, 500))
        stacked = trace_pixels(params, index, pixels)
        for image_index in range(len(params.poses)):
            rows = index == image_index
            alone = trace_pixels(params, image_index, pixels[rows])
            for name in ("status", "x_outer", "n_outer", "dir_out", "x_board", "board_local"):
                assert np.array_equal(getattr(stacked, name)[rows], getattr(alone, name)), name

    def test_landing_point_moves_smoothly(self, scene_zero):
        pixel = np.array([900.0, 700.0])
        base = raycast(scene_zero, 0, pixel)
        step_small = raycast(scene_zero, 0, pixel + [1e-6, 0.0]) - base
        step_large = raycast(scene_zero, 0, pixel + [1e-3, 0.0]) - base
        slope_small = np.linalg.norm(step_small) / 1e-6
        slope_large = np.linalg.norm(step_large) / 1e-3
        assert abs(slope_large - slope_small) < 1e-3 * slope_small

    def test_board_behind_camera_raises(self, scene_zero, poses):
        import dataclasses

        behind = dataclasses.replace(
            poses[0], translation=np.array([0.0, 0.0, -1.0]), rotation=poses[0].rotation
        )
        params = scene_zero.with_poses((behind,))
        with pytest.raises(MissError) as err:
            raycast(params, 0, np.array([1640.0, 1232.0]))
        assert err.value.stage == "board-intersection"

    def test_steep_field_triggers_tir_status(self, scene_zero):
        # an exaggerated irregularity tilts outer normals far enough that
        # some rays exceed the critical angle instead of exiting
        amps = np.array([[0.2, -0.2], [-0.2, 0.2]])
        surface = scene_zero.surface
        from conecal.geometry import RbfSurface

        steep = RbfSurface(patch=surface.patch, grid=(2, 2), amplitudes=amps, beta=0.02)
        params = scene_zero.with_surface(steep)
        xs = np.arange(100.0, 3200.0, 150.0)
        ys = np.arange(100.0, 2400.0, 150.0)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pixels = np.column_stack([gx.ravel(), gy.ravel()])
        _, status = raycast_pixels(params, 0, pixels)
        assert TraceStatus.TIR_OUTER in status

    def test_pinhole_raycast_is_straight(self, scene_zero):
        rng = np.random.default_rng(53)
        pixels = self.sample_pixels(scene_zero.intrinsics, rng, 20)
        local, hit = pinhole_raycast(scene_zero, 0, pixels)
        assert np.all(hit)
        dirs = pixel_to_ray(scene_zero.intrinsics, pixels)
        for d, row in zip(dirs, local):
            expected = board_solve_local(scene_zero.poses[0], np.zeros(3), d)
            np.testing.assert_allclose(row, expected, atol=1e-10)

    def test_pinhole_raycast_index_per_row_matches_per_image_calls(self, scene_zero):
        rng = np.random.default_rng(71)
        pixels = self.sample_pixels(scene_zero.intrinsics, rng, 30)
        image_index = rng.integers(0, len(scene_zero.poses), 30)
        local, hit = pinhole_raycast(scene_zero, image_index, pixels)
        assert np.all(hit)
        for k in range(len(scene_zero.poses)):
            rows = image_index == k
            want_local, want_hit = pinhole_raycast(scene_zero, k, pixels[rows])
            assert np.array_equal(local[rows], want_local)
            assert np.array_equal(hit[rows], want_hit)
        with pytest.raises(DataError):
            pinhole_raycast(scene_zero, image_index[:-1], pixels)
