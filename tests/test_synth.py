"""Tests for synthetic data generation and the raycast inversion."""

import dataclasses
import math

import numpy as np
import pytest

import conecal.raytrace
from conecal import geometry, synth
from conecal.errors import ConfigurationError, DataError
from conecal.geometry import RbfSurface
from conecal.raytrace import BoardPose, SceneParams, TraceStatus, raycast_pixels, trace_pixels
from conecal.synth import (
    AmplitudeDistribution,
    GeneratedDataset,
    PoseSampler,
    generate_dataset,
    project_corners,
)
from oracles import (
    board_grid_targets,
    board_targets,
    gauss_newton_project_every_row,
    grid_search_project,
    kernel_field_oracle,
    sample_pose_projecting_every_candidate,
)


class TestAmplitudeDistribution:
    def test_sample_statistics(self):
        rng = np.random.default_rng(3)
        dist = AmplitudeDistribution(mean=1e-5, sigma=2.5e-6)
        draws = dist.sample(rng, (100, 100))
        assert draws.shape == (100, 100)
        assert abs(float(np.mean(draws)) - 1e-5) < 1e-7
        assert abs(float(np.std(draws)) - 2.5e-6) < 1e-7

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            AmplitudeDistribution(sigma=-1e-6)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["mean", "sigma"])
    def test_non_finite_rejected_at_construction(self, field, value):
        # accepted, these would fail only inside generate_dataset
        with pytest.raises(ConfigurationError, match=f"amplitude {field} must be finite"):
            AmplitudeDistribution(**{field: value})


class TestPoseSampler:
    def test_sampled_pose_is_fully_visible(self, intrinsics, cone, flat_surface):
        rng = np.random.default_rng(11)
        sampler = PoseSampler(depth_range=(0.3, 1.5), rotation_range_deg=25.0)
        pose = sampler.sample_pose(rng, intrinsics, cone, flat_surface, 0.03, 7)
        assert 0.3 <= pose.translation[2] <= 1.5
        params = SceneParams(intrinsics=intrinsics, cone=cone, surface=flat_surface, poses=(pose,))
        pixels, converged = project_corners(params, 0, board_grid_targets(0.03, 7))
        assert np.all(converged)
        assert np.all((pixels >= 0.0) & (pixels < [intrinsics.width, intrinsics.height]))

    def test_deterministic_given_seed(self, intrinsics, cone, flat_surface):
        sampler = PoseSampler()
        a = sampler.sample_pose(np.random.default_rng(17), intrinsics, cone, flat_surface, 0.03, 7)
        b = sampler.sample_pose(np.random.default_rng(17), intrinsics, cone, flat_surface, 0.03, 7)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_impossible_constraints_raise(self, intrinsics, cone, flat_surface, monkeypatch):
        projections = []
        project = synth.project_corners
        monkeypatch.setattr(
            synth, "project_corners", lambda *a, **k: projections.append(1) or project(*a, **k)
        )
        rng = np.random.default_rng(19)
        sampler = PoseSampler(depth_range=(0.3, 0.3), max_attempts=5)
        # a meter-scale board cannot fit the field of view at 0.3 m
        with pytest.raises(ConfigurationError):
            sampler.sample_pose(rng, intrinsics, cone, flat_surface, 0.2, 7)
        # the outline rejects every candidate, and the stream ends where the
        # sampler that projects every candidate ends it
        assert projections == []
        oracle_rng = np.random.default_rng(19)
        with pytest.raises(ConfigurationError):
            sample_pose_projecting_every_candidate(
                sampler, oracle_rng, intrinsics, cone, flat_surface, 0.2, 7
            )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            PoseSampler(depth_range=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            PoseSampler(rotation_range_deg=90.0)
        with pytest.raises(ConfigurationError):
            PoseSampler(lateral_margin=0.0)
        with pytest.raises(ConfigurationError):
            PoseSampler(max_attempts=0)

    @pytest.mark.parametrize("depth_range", [(0.3, math.inf), (math.inf, math.inf)])
    def test_depth_range_must_be_finite(self, depth_range):
        with pytest.raises(ConfigurationError, match="depth_range"):
            PoseSampler(depth_range=depth_range)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_max_attempts_must_be_an_integer(self, value):
        with pytest.raises(ConfigurationError, match="max_attempts must be an integer"):
            PoseSampler(max_attempts=value)


# (sampler, square size, corners per side) for the sampler's byte identity
SAMPLER_SETTINGS = {
    "defaults": (PoseSampler(), 0.03, 7),
    "survey": (PoseSampler(lateral_margin=0.5), 0.015, 15),
    "full-field": (PoseSampler(lateral_margin=1.0), 0.03, 7),
    # most candidates of a 21 cm board this close are not fully visible
    "near": (PoseSampler(depth_range=(0.3, 0.5)), 0.015, 15),
}


class TestOutlinePrefilter:
    @pytest.mark.parametrize("setting", sorted(SAMPLER_SETTINGS))
    def test_poses_and_stream_match_projecting_every_candidate(
        self, setting, intrinsics, cone, flat_surface
    ):
        sampler, square, n = SAMPLER_SETTINGS[setting]
        for seed in range(5):
            rng = np.random.default_rng([seed, 71])
            oracle_rng = np.random.default_rng([seed, 71])
            for _ in range(3):
                pose = sampler.sample_pose(rng, intrinsics, cone, flat_surface, square, n)
                expected = sample_pose_projecting_every_candidate(
                    sampler, oracle_rng, intrinsics, cone, flat_surface, square, n
                )
                assert np.array_equal(pose.rotation, expected.rotation)
                assert np.array_equal(pose.translation, expected.translation)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_an_outline_that_does_not_trace_decides_nothing(
        self, intrinsics, cone, flat_surface, monkeypatch
    ):
        # the top edge of a sensor this tall looks far above the cover, so
        # the outline does not trace and every candidate is projected
        tall = dataclasses.replace(intrinsics, height=40000, cy=20000.0)
        assert synth._sensor_outline(tall, cone) is None
        assert synth._sensor_outline(intrinsics, cone) is not None

        def outcome(sample, rng):
            try:
                pose = sample(PoseSampler(max_attempts=4), rng, tall, cone, flat_surface, 0.03, 7)
            except ConfigurationError:
                return None, rng.bit_generator.state
            return (pose.rotation.tolist(), pose.translation.tolist()), rng.bit_generator.state

        monkeypatch.setattr(synth, "_outline_rejects", lambda *a: pytest.fail("outline used"))
        got = outcome(PoseSampler.sample_pose, np.random.default_rng(5))
        assert got == outcome(sample_pose_projecting_every_candidate, np.random.default_rng(5))

    def test_distance_outside(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        points = np.array([[0.5, 0.5], [2.0, 0.5], [-1.0, -1.0], [0.5, 1.5], [0.999, 0.001]])
        expected = [0.0, 1.0, np.sqrt(2.0), 0.5, 0.0]
        for polygon in (square, square[::-1]):
            assert np.allclose(synth._distance_outside(polygon, points), expected, atol=1e-15)
        # a concave polygon: the notch of a U is outside it
        u_shape = np.array(
            [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0], [2.0, 1.0], [1.0, 1.0],
             [1.0, 3.0], [0.0, 3.0]]
        )
        got = synth._distance_outside(u_shape, np.array([[1.5, 2.5], [0.5, 2.5], [1.5, 0.5]]))
        assert np.allclose(got, [0.5, 0.0, 0.0], atol=1e-15)


def candidate_poses(rng, intrinsics, n, lateral_margin):
    """Board poses drawn as the sampler draws its candidates."""
    half_fov = np.array([intrinsics.width / intrinsics.fx, intrinsics.height / intrinsics.fy]) / 2
    poses = []
    for _ in range(n):
        depth = rng.uniform(0.3, 1.5)
        rot = synth._rotation_zyx(np.radians(rng.uniform(-25.0, 25.0, 3)))
        lateral = rng.uniform(-1.0, 1.0, 2) * lateral_margin * depth * half_fov
        poses.append(BoardPose(rot, np.append(lateral, depth)))
    return poses


def outline_pixels(intrinsics, offset):
    """Pixels ``offset`` of a step along each sensor edge, as the outline
    takes them: 0 gives the outline's own pixels, 0.5 their midpoints."""
    w, h = intrinsics.width, intrinsics.height
    k = synth._OUTLINE_PIXELS_PER_EDGE
    f = (np.arange(k) + offset) / k
    edges = [
        np.column_stack([f * w, np.zeros(k)]),
        np.column_stack([np.full(k, w), f * h]),
        np.column_stack([(1.0 - f) * w, np.full(k, h)]),
        np.column_stack([np.zeros(k), (1.0 - f) * h]),
    ]
    return np.concatenate(edges)


@pytest.mark.parametrize("board", [(0.03, 7), (0.015, 15)])
def test_outline_rejects_only_invisible_poses(board, intrinsics, cone, flat_surface):
    square, n = board
    rng = np.random.default_rng([n, 29])
    poses = []
    for margin in (0.5, 0.85, 1.0):
        poses += candidate_poses(rng, intrinsics, 350, margin)
    outline = synth._sensor_outline(intrinsics, cone)
    half = 0.5 * (n - 1) * square
    verdicts = np.array([synth._outline_rejects(outline, pose, half) for pose in poses])

    # the exact rule, by one stacked zero-field projection of every candidate
    params = SceneParams(intrinsics, cone, flat_surface, tuple(poses))
    targets = np.tile(board_grid_targets(square, n), (len(poses), 1))
    index = np.repeat(np.arange(len(poses)), n * n)
    pixels, converged = project_corners(params, index, targets)
    visible = converged & synth._on_sensor(intrinsics, pixels)
    accepted = np.bincount(index, weights=visible, minlength=len(poses)) == n * n

    rejected = ~accepted
    assert not np.any(verdicts & accepted)
    assert np.count_nonzero(rejected) >= 100
    assert np.count_nonzero(verdicts) >= 0.9 * np.count_nonzero(rejected)

    # the polygon is the traced outline landed on the plane, and the outline
    # between its pixels strays from it by far less than the margin
    vertices = outline_pixels(intrinsics, 0.0)
    midpoints = outline_pixels(intrinsics, 0.5)
    for k in range(0, len(poses), 100):
        chunk = poses[k : k + 100]
        params = SceneParams(intrinsics, cone, flat_surface, tuple(chunk))
        index = np.repeat(np.arange(len(chunk)), len(vertices))
        landed, status = raycast_pixels(params, index, np.tile(vertices, (len(chunk), 1)))
        mid, mid_status = raycast_pixels(params, index, np.tile(midpoints, (len(chunk), 1)))
        for j, pose in enumerate(chunk):
            rows = slice(j * len(vertices), (j + 1) * len(vertices))
            polygon = synth._landed_outline(outline, pose)
            if polygon is None:
                continue
            assert np.all(status[rows] == TraceStatus.OK)
            assert np.all(mid_status[rows] == TraceStatus.OK)
            assert np.allclose(landed[rows], polygon, rtol=0.0, atol=1e-12)
            # each midpoint's distance from its own segment of the polygon
            edge = np.roll(polygon, -1, axis=0) - polygon
            rel = mid[rows] - polygon
            t = np.clip(np.sum(rel * edge, axis=-1) / np.sum(edge * edge, axis=-1), 0.0, 1.0)
            chord = np.linalg.norm(rel - t[:, None] * edge, axis=-1)
            assert np.max(chord) <= synth._OUTLINE_MARGIN_PER_DEPTH * pose.translation[2] / 10


class TestProjectCorners:
    def test_round_trip_through_raycast(self, scene_zero):
        for idx in range(len(scene_zero.poses)):
            targets = board_grid_targets(0.03, 7)
            pixels, converged = project_corners(scene_zero, idx, targets)
            assert np.all(converged)
            local, status = raycast_pixels(scene_zero, idx, pixels)
            assert np.all(status == TraceStatus.OK)
            assert np.max(np.linalg.norm(local - targets, axis=-1)) <= 1e-9

    def test_round_trip_with_irregular_field(self, scene_zero):
        rng = np.random.default_rng(23)
        amps = rng.normal(1e-5, 2.5e-6, size=scene_zero.surface.grid)
        params = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        targets = board_grid_targets(0.03, 7)
        pixels, converged = project_corners(params, 0, targets)
        assert np.all(converged)
        local, status = raycast_pixels(params, 0, pixels)
        assert np.all(status == TraceStatus.OK)
        assert np.max(np.linalg.norm(local - targets, axis=-1)) <= 1e-9

    def test_matches_grid_search(self, scene_zero):
        from conecal.camera import pinhole_project

        rng = np.random.default_rng(29)
        pose = scene_zero.poses[1]
        targets = rng.uniform(-0.08, 0.08, size=(12, 2))
        pixels, converged = project_corners(scene_zero, 1, targets)
        assert np.all(converged)
        for target, pixel in zip(targets, pixels):
            seed_px = pinhole_project(scene_zero.intrinsics, pose.board_to_world(target))
            reference = grid_search_project(scene_zero, 1, target, seed_px, half_width=60.0)
            assert reference is not None
            assert np.max(np.abs(pixel - reference)) < 1e-3

    def test_factored_kernel_moves_only_last_bits(self, scene_zero, monkeypatch):
        """Traces and projections under a 10x10 field evaluated from the
        per-axis kernel factors agree with those under a field of one
        exponential per center, contracted with K and its derivative
        matrices: landings within 1e-14 m (a few ulps of board coordinates)
        and projected pixels within 1e-9 px, far inside the projection's
        1e-9 m tolerance (~4e-6 px at these depths); statuses agree exactly."""
        rng = np.random.default_rng(67)
        surface = RbfSurface.flat(scene_zero.surface.patch, (10, 10))
        params = scene_zero.with_surface(surface.with_amplitudes(rng.normal(1e-5, 2.5e-6, (10, 10))))
        width, height = params.intrinsics.width, params.intrinsics.height
        pixels = rng.uniform(0.0, 1.0, (2000, 2)) * [width, height]
        image_index = rng.integers(0, len(params.poses), 2000)
        targets = np.tile(board_grid_targets(0.03, 7), (len(params.poses), 1))
        target_index = np.repeat(np.arange(len(params.poses)), targets.shape[0] // len(params.poses))

        def run():
            return trace_pixels(params, image_index, pixels), project_corners(params, target_index, targets)

        factored, (projected, converged) = run()
        monkeypatch.setattr(geometry, "_field_values", kernel_field_oracle)
        oracle, (oracle_projected, oracle_converged) = run()
        ok = factored.status == TraceStatus.OK
        assert np.count_nonzero(ok) > 1000
        assert np.array_equal(factored.status, oracle.status)
        assert np.max(np.abs(factored.board_local[ok] - oracle.board_local[ok])) <= 1e-14
        assert np.all(converged) and np.array_equal(converged, oracle_converged)
        assert np.max(np.abs(projected - oracle_projected)) <= 1e-9

    @pytest.mark.parametrize(
        "shape", [(4, 3), (4, 1), (3,), ()], ids=["n-by-3", "n-by-1", "3-vector", "0-d"]
    )
    def test_board_points_hold_two_numbers_per_row(self, scene_zero, shape):
        # two (2, 3) points were reshaped into three targets, and (4, 1) into two
        with pytest.raises(DataError, match="2 numbers per row"):
            project_corners(scene_zero, 0, np.full(shape, 0.01))

    @pytest.mark.parametrize("index", [0, np.zeros(0, dtype=np.int64)], ids=["one", "per-row"])
    def test_no_board_points(self, scene_zero, index):
        pixels, converged = project_corners(scene_zero, index, np.empty((0, 2)))
        assert pixels.shape == (0, 2) and converged.shape == (0,)

    def test_behind_camera_rejected(self, scene_zero, poses):
        import dataclasses

        flipped = dataclasses.replace(
            poses[0], translation=np.array([0.0, 0.0, -0.6]), rotation=poses[0].rotation
        )
        params = scene_zero.with_poses((flipped,))
        with pytest.raises(DataError):
            project_corners(params, 0, board_grid_targets(0.03, 7))


def steep_scene(scene_zero):
    """A field steep enough that some corners cannot be projected (TIR)."""
    amps = np.array([[0.2, -0.2], [-0.2, 0.2]])
    steep = RbfSurface(patch=scene_zero.surface.patch, grid=(2, 2), amplitudes=amps, beta=0.02)
    return scene_zero.with_surface(steep)


class TestStackedProjection:
    @pytest.mark.parametrize("max_iters", [50, 2])
    def test_settled_rows_match_the_every_row_rule(self, scene_zero, max_iters):
        params = steep_scene(scene_zero)
        for idx in range(len(params.poses)):
            targets = board_grid_targets(0.03, 7)
            got = project_corners(params, idx, targets, max_iters=max_iters)
            want = gauss_newton_project_every_row(params, idx, targets, max_iters=max_iters)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("max_iters", [50, 2])
    def test_index_array_matches_per_image_calls(self, scene_zero, max_iters):
        params = steep_scene(scene_zero)
        targets = [board_grid_targets(0.03, 7) for _ in params.poses]
        per_image = [
            project_corners(params, idx, t, max_iters=max_iters) for idx, t in enumerate(targets)
        ]
        index = np.repeat(np.arange(len(targets)), [len(t) for t in targets])
        pixels, converged = project_corners(
            params, index, np.concatenate(targets), max_iters=max_iters
        )
        assert np.array_equal(pixels, np.concatenate([p for p, _ in per_image]))
        assert np.array_equal(converged, np.concatenate([c for _, c in per_image]))
        assert np.any(converged) and not np.all(converged)

    def test_bad_index_arrays_rejected(self, scene_zero):
        targets = board_grid_targets(0.03, 7)[:4]
        for index in ([0, 1, 2], [0, 1, 2, 3], [0, -1, 1, 2], [0.0, 1.0, 1.0, 2.0]):
            with pytest.raises(DataError):
                project_corners(scene_zero, np.array(index), targets)
        with pytest.raises(DataError):
            project_corners(scene_zero, -1, targets)

    def test_max_iters_validated(self, scene_zero):
        with pytest.raises(ConfigurationError):
            project_corners(scene_zero, 0, board_grid_targets(0.03, 7), max_iters=0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, scene_zero, tol):
        with pytest.raises(ConfigurationError, match="^tol must be positive and finite"):
            project_corners(scene_zero, 0, board_grid_targets(0.03, 7), tol=tol)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_max_iters_must_be_an_integer(self, scene_zero, value):
        with pytest.raises(ConfigurationError, match="max_iters must be an integer"):
            project_corners(scene_zero, 0, board_grid_targets(0.03, 7), max_iters=value)


class TestGenerateDataset:
    def make(self, intrinsics, cone, patch, **kwargs):
        template = RbfSurface.flat(patch, kwargs.pop("grid", (4, 4)))
        defaults = dict(
            n_images=3,
            amplitude_dist=AmplitudeDistribution(),
            pose_sampler=PoseSampler(depth_range=(0.4, 1.2)),
            seed=101,
        )
        defaults.update(kwargs)
        return generate_dataset(intrinsics, cone, template, **defaults)

    def test_deterministic_for_seed(self, intrinsics, cone, patch):
        a = self.make(intrinsics, cone, patch)
        b = self.make(intrinsics, cone, patch)
        assert isinstance(a, GeneratedDataset)
        assert np.array_equal(a.params.surface.amplitudes, b.params.surface.amplitudes)
        for im_a, im_b in zip(a.observations.images, b.observations.images):
            assert np.array_equal(im_a.pixels, im_b.pixels)
            assert np.array_equal(im_a.initial_pose.rotation, im_b.initial_pose.rotation)

    def test_seeds_differ(self, intrinsics, cone, patch):
        a = self.make(intrinsics, cone, patch, seed=101)
        b = self.make(intrinsics, cone, patch, seed=102)
        assert not np.array_equal(a.params.surface.amplitudes, b.params.surface.amplitudes)

    def test_pixels_raycast_back_to_corners(self, intrinsics, cone, patch):
        data = self.make(intrinsics, cone, patch)
        obs = data.observations
        for im in obs.images:
            local, status = raycast_pixels(data.params, im.image_index, im.pixels)
            assert np.all(status == TraceStatus.OK)
            targets = board_targets(im.grid_ij, obs.square_size, obs.corners_per_side)
            err = np.linalg.norm(local - targets, axis=-1)
            assert np.max(err) <= 1e-9

    def test_noise_statistics(self, intrinsics, cone, patch):
        clean = self.make(intrinsics, cone, patch, noise_sigma_px=0.0)
        noisy = self.make(intrinsics, cone, patch, noise_sigma_px=0.3)
        diffs = np.concatenate(
            [
                (na.pixels - ca.pixels).ravel()
                for na, ca in zip(noisy.observations.images, clean.observations.images)
            ]
        )
        assert diffs.size >= 200
        assert abs(float(np.std(diffs)) - 0.3) < 0.05
        assert abs(float(np.mean(diffs))) < 0.05
        # the underlying geometry is untouched by the noise draw
        assert np.array_equal(
            clean.params.surface.amplitudes, noisy.params.surface.amplitudes
        )

    def test_clean_pixels_inside_sensor(self, intrinsics, cone, patch):
        data = self.make(intrinsics, cone, patch)
        for im in data.observations.images:
            assert np.all(im.pixels >= 0.0)
            assert np.all(im.pixels < [intrinsics.width, intrinsics.height])
            assert im.n_corners == 49  # margins keep the whole board visible

    def test_fixed_amplitudes_pass_through(self, intrinsics, cone, patch):
        template = RbfSurface.flat(patch, (3, 3)).with_amplitudes(np.full((3, 3), 2e-5))
        data = generate_dataset(
            intrinsics,
            cone,
            template,
            n_images=1,
            pose_sampler=PoseSampler(depth_range=(0.5, 0.8)),
            seed=7,
        )
        assert np.array_equal(data.params.surface.amplitudes, template.amplitudes)

    def test_validation(self, intrinsics, cone, patch):
        template = RbfSurface.flat(patch, (3, 3))
        with pytest.raises(ConfigurationError):
            generate_dataset(intrinsics, cone, template, n_images=0)
        with pytest.raises(ConfigurationError):
            generate_dataset(intrinsics, cone, template, n_images=1, noise_sigma_px=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, intrinsics, cone, patch, value):
        # NaN would skip the noise and record nan; inf would fail late on
        # the pixels
        template = RbfSurface.flat(patch, (3, 3))
        with pytest.raises(ConfigurationError, match="^noise_sigma_px must be finite"):
            generate_dataset(intrinsics, cone, template, n_images=1, noise_sigma_px=value)

    @pytest.mark.parametrize(
        "square_size, corners_per_side",
        [(0.0, 7), (-0.03, 7), (float("nan"), 7), (0.03, 1), (0.03, 7.5)],
        ids=["zero-square", "negative-square", "nan-square", "one-corner", "fractional-corners"],
    )
    def test_bad_board_rejected_before_any_pose(
        self, intrinsics, cone, patch, monkeypatch, square_size, corners_per_side
    ):
        built = []
        monkeypatch.setattr(synth, "BoardPose", lambda *args, **kwargs: built.append(args))
        template = RbfSurface.flat(patch, (3, 3))
        with pytest.raises(ConfigurationError, match="board"):
            generate_dataset(
                intrinsics, cone, template, n_images=1,
                square_size=square_size, corners_per_side=corners_per_side,
            )
        assert built == []

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("width", "height", "n_images") for v in (math.nan, 2.5, True, 0)]
        + [("seed", v) for v in (math.nan, 2.5, True)],
    )
    def test_counts_must_be_integers(self, intrinsics, cone, patch, field, value):
        # a count that is not an integer would otherwise surface as a bare
        # TypeError, a misleading sampler failure or a "seed": true file
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            if field in ("width", "height"):
                dataclasses.replace(intrinsics, **{field: value})
            else:
                template = RbfSurface.flat(patch, (3, 3))
                generate_dataset(intrinsics, cone, template, **{"n_images": 1, field: value})

    def test_negative_seed_rejected(self, intrinsics, cone, patch):
        # numpy's generator would raise a bare ValueError
        template = RbfSurface.flat(patch, (3, 3))
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            generate_dataset(intrinsics, cone, template, n_images=1, seed=-1)

    def test_one_projection_outside_the_sampler(self, intrinsics, cone, patch, monkeypatch):
        calls = []
        in_sampler = []
        project = synth.project_corners
        sample_pose = PoseSampler.sample_pose

        def counting_project(params, image_index, *args, **kwargs):
            if not in_sampler:
                calls.append(np.shape(image_index))
            return project(params, image_index, *args, **kwargs)

        def flagged_sample_pose(self, *args, **kwargs):
            in_sampler.append(True)
            try:
                return sample_pose(self, *args, **kwargs)
            finally:
                in_sampler.pop()

        monkeypatch.setattr(synth, "project_corners", counting_project)
        monkeypatch.setattr(PoseSampler, "sample_pose", flagged_sample_pose)
        data = self.make(intrinsics, cone, patch)
        assert calls == [(len(data.params.poses) * data.observations.corners_per_side**2,)]


class TestWorkingSet:
    """``raycast_pixels`` traces a block of rows at a time and releases each
    block's trace before the next, so a trace's memory does not grow with
    the batch. What still grows is the callers' own per-row state:
    ``raycast_pixels``' result (24 bytes a row), a small part of one
    block's trace, and ``project_corners``' pixels, landings, targets and
    forward-difference stacks (~280 bytes a row, two thirds of a row of one
    block's trace). A trace of the whole batch reads close to 4x on both."""

    @staticmethod
    def inputs(scene_zero, n):
        # the default config's 8x8 field, targets spread over every pose
        rng = np.random.default_rng(5)
        amps = rng.normal(1e-5, 2.5e-6, (8, 8))
        surface = RbfSurface.flat(scene_zero.surface.patch, (8, 8)).with_amplitudes(amps)
        index = rng.integers(0, len(scene_zero.poses), n)
        return scene_zero.with_surface(surface), index, rng.uniform(-0.08, 0.08, (n, 2))

    def test_raycast_pixels(self, scene_zero):
        from test_analysis import traced_peak

        n = conecal.raytrace._TRACE_BLOCK_ROWS
        params, index, _ = self.inputs(scene_zero, 4 * n)
        pixels = np.random.default_rng(6).uniform(0.0, 1.0, (4 * n, 2)) * [3280.0, 2464.0]
        peaks = {
            k: traced_peak(lambda: raycast_pixels(params, index[:k], pixels[:k])) for k in (n, 4 * n)
        }
        # ~1.17x measured; holding the last block's trace while the next is
        # traced read 1.55x
        assert peaks[4 * n] < 1.3 * peaks[n]

    def test_project_corners(self, scene_zero):
        from test_analysis import traced_peak

        n = conecal.raytrace._TRACE_BLOCK_ROWS
        params, index, targets = self.inputs(scene_zero, 4 * n)
        peaks = {
            k: traced_peak(lambda: project_corners(params, index[:k], targets[:k]))
            for k in (n, 4 * n)
        }
        # ~2.2x measured: the rows' own state still grows (see the class
        # docstring), so this bound only keeps whole-batch traces out; a
        # project_corners that worked in row blocks would stay under 1.5x
        assert peaks[4 * n] < 2.5 * peaks[n]
