"""Tests for the loss, its analytic gradients and the descent loops.

Gradients are validated against central finite differences of the loss;
the single-amplitude fit is validated against an exhaustive line scan.
Consistent synthetic corners come from the grid-search projector in
oracles.py, so none of the library's own inversion code is trusted here.
"""

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conecal import calibrate, cli
from conecal.calibrate import (
    FitResult,
    OptimizerOptions,
    _pose_system,
    loss,
    loss_gradient,
    optimize_amplitudes,
    pinhole_rmse_cm,
    refine_poses,
    rmse_cm,
)
from conecal.camera import CameraIntrinsics
from conecal.config import default_config, merge_config
from conecal.errors import ConfigurationError, DataError, DivergenceError
from conecal.geometry import _KERNEL_BLOCK_ROWS, ConeGeometry, RbfPatch, RbfSurface, _components
from conecal.observations import ImageObservations, ObservationSet
from conecal.raytrace import (
    BoardPose,
    SceneParams,
    _land,
    _rotvec_matrix,
    raycast,
    trace_pixels,
)
from conecal.synth import AmplitudeDistribution, generate_dataset
from conftest import count_cover_traces, count_kernel_calls, make_pose
from oracles import (
    amplitude_gradient_cotangents,
    board_targets,
    exit_direction_cotangent,
    project_consistent,
    refine_poses_finite_difference,
)


def small_scene(rng, grid=(3, 3), corners_per_side=5, n_images=2):
    """Random compact scene with arbitrary (inconsistent) observations.

    Pixels are random sensor positions, so residuals are large; that is
    fine for derivative checks, which only need a generic loss point.
    """
    intr = CameraIntrinsics(
        fx=2558.36, fy=2558.36, cx=1666.03, cy=1273.65, width=3280, height=2464
    )
    cone = ConeGeometry(
        apex=(0.0, 0.04, -0.0015),
        half_angle=math.radians(5.0),
        height=0.05,
        radial_thickness=0.003,
        eta_inside=1.5,
    )
    patch = RbfPatch(s1_range=(0.03, 0.05), s2_range=(-math.radians(15), math.radians(15)))
    amps = rng.normal(1e-5, 2.5e-6, size=grid)
    surface = RbfSurface.flat(patch, grid).with_amplitudes(amps)

    images = []
    poses = []
    for idx in range(n_images):
        pose = make_pose(
            depth=rng.uniform(0.5, 1.2),
            dx=rng.uniform(-0.05, 0.05),
            dy=rng.uniform(-0.05, 0.05),
            rot_deg=rng.uniform(-10, 10, size=3),
        )
        poses.append(pose)
        n = corners_per_side * corners_per_side
        flat = rng.choice(n, size=min(12, n), replace=False)
        ij = np.column_stack([flat // corners_per_side + 1, flat % corners_per_side + 1])
        pixels = rng.uniform([300.0, 300.0], [2980.0, 2164.0], size=(ij.shape[0], 2))
        images.append(
            ImageObservations(image_index=idx, initial_pose=pose, grid_ij=ij, pixels=pixels)
        )
    obs = ObservationSet(square_size=0.03, corners_per_side=corners_per_side, images=tuple(images))
    params = SceneParams(intrinsics=intr, cone=cone, surface=surface, poses=tuple(poses))
    return params, obs


def consistent_observations(params, subsample=2, rng=None, noise_px=0.0, corners_per_side=7):
    """Observations of a board of 3 cm squares whose pixels raycast exactly
    onto the corner lattice."""
    images = []
    for idx, pose in enumerate(params.poses):
        n = corners_per_side
        sel = np.arange(1, n + 1, subsample)
        gi, gj = np.meshgrid(sel, sel, indexing="ij")
        ij = np.column_stack([gi.ravel(), gj.ravel()])
        x_cb = board_targets(ij, 0.03, n)
        pixels = np.array([project_consistent(params, idx, xy) for xy in x_cb])
        if noise_px > 0.0:
            pixels = pixels + rng.normal(0.0, noise_px, size=pixels.shape)
        images.append(
            ImageObservations(image_index=idx, initial_pose=pose, grid_ij=ij, pixels=pixels)
        )
    return ObservationSet(square_size=0.03, corners_per_side=n, images=tuple(images))


def record_pose_solves(monkeypatch):
    """The list that every later ``calibrate.least_squares`` result is
    appended to, in call order."""
    solves = []
    solve = calibrate.least_squares

    def recording(*args):
        solves.append(solve(*args))
        return solves[-1]

    monkeypatch.setattr(calibrate, "least_squares", recording)
    return solves


def scene_with_failures(rng):
    """Three images whose corners include inner misses, exit total
    internal reflection (a steep field) and board misses (a board seen
    almost edge-on), with corner indices in shuffled order."""
    params, _ = small_scene(rng, grid=(2, 2), n_images=1)
    steep = RbfSurface(
        patch=params.surface.patch,
        grid=(2, 2),
        amplitudes=np.array([[0.05, -0.05], [-0.05, 0.05]]),
        beta=0.02,
    )
    poses = (
        make_pose(0.6),
        make_pose(0.3, dx=0.05, rot_deg=(0.0, 80.0, 0.0)),
        make_pose(0.9, dx=-0.05, rot_deg=(10.0, -10.0, 5.0)),
    )
    gx, gy = np.meshgrid(np.arange(100.0, 3200.0, 400.0), np.arange(100.0, 2400.0, 300.0))
    pixels = np.column_stack([gx.ravel(), gy.ravel()])
    images = []
    for idx, pose in enumerate(poses):
        flat = rng.permutation(81)[: pixels.shape[0]]
        ij = np.column_stack([flat // 9 + 1, flat % 9 + 1])
        px = pixels + rng.normal(0.0, 5.0, size=pixels.shape)
        px[idx] = [1640.0, -1e7]  # misses the cover
        images.append(ImageObservations(image_index=idx, initial_pose=pose, grid_ij=ij, pixels=px))
    obs = ObservationSet(square_size=0.03, corners_per_side=9, images=tuple(images))
    return SceneParams(params.intrinsics, params.cone, steep, poses), obs


def per_image_reference(params, obs):
    """Loss, exclusions and pose gradient from one trace_pixels call per image."""
    from conecal.raytrace import STAGE_NAMES, TraceStatus

    total, n_active, errored, blocks = 0.0, 0, [], []
    for im in obs.images:
        pose = params.pose(im.image_index)
        batch = trace_pixels(params, im.image_index, im.pixels)
        ok = batch.ok
        targets = board_targets(im.grid_ij, obs.square_size, obs.corners_per_side)
        rho = (batch.board_local - targets)[ok]
        total += float(np.sum(rho**2))
        n_active += int(np.count_nonzero(ok))
        for r in np.flatnonzero(~ok):
            stage = STAGE_NAMES[TraceStatus(batch.status[r])]
            errored.append((im.image_index, int(im.grid_ij[r, 0]), int(im.grid_ij[r, 1]), stage))
        r1, r2, n_b = pose.rotation.T
        w3 = 2.0 * (rho[:, 0, None] * r1 + rho[:, 1, None] * r2)
        r_o = batch.dir_out[ok]
        scale = (np.sum(r_o * w3, axis=-1) / (r_o @ n_b))[:, None]
        x_t = batch.x_board[ok]
        t_b = pose.translation
        d_omega = np.cross(w3, x_t - t_b) + scale * np.cross(n_b, t_b - x_t)
        d_trans = scale * n_b - w3
        blocks.append(np.concatenate([np.sum(d_omega, axis=0), np.sum(d_trans, axis=0)]))
    return total, n_active, tuple(sorted(errored)), np.concatenate(blocks)


def fd_amplitude_gradient(params, obs, h=1e-9):
    base = params.surface.flat_amplitudes
    grad = np.zeros(base.size)
    for k in range(base.size):
        for sign in (1.0, -1.0):
            amps = base.copy()
            amps[k] += sign * h
            shifted = params.with_surface(
                params.surface.with_amplitudes(amps.reshape(params.surface.grid))
            )
            grad[k] += sign * loss(shifted, obs).value
    return grad / (2.0 * h)


def fd_pose_gradient(params, obs, h=1e-7):
    grad = np.zeros(6 * len(params.poses))
    for idx, pose in enumerate(params.poses):
        for c in range(6):
            for sign in (1.0, -1.0):
                if c < 3:
                    omega = np.zeros(3)
                    omega[c] = sign * h
                    rot = Rotation.from_rotvec(omega).as_matrix() @ pose.rotation
                    moved = dataclasses.replace(pose, rotation=rot, translation=pose.translation)
                else:
                    trans = pose.translation.copy()
                    trans[c - 3] += sign * h
                    moved = dataclasses.replace(pose, rotation=pose.rotation, translation=trans)
                poses = list(params.poses)
                poses[idx] = moved
                grad[6 * idx + c] += sign * loss(params.with_poses(poses), obs).value
    return grad / (2.0 * h)


def assert_close_rel(got, expected, rel=1e-4, floor=1e-12):
    err = np.abs(got - expected)
    scale = np.maximum(np.abs(got), np.abs(expected))
    assert np.all(err <= rel * scale + floor), (
        f"max rel err {np.max(err / (scale + 1e-300))}, max abs err {np.max(err)}"
    )


class TestOptimizerOptions:
    def test_defaults(self):
        opts = OptimizerOptions()
        assert opts.step_count == 500
        assert opts.learning_rate == 1e-6
        assert opts.tolerance == 0.0

    def test_rate_schedule_endpoints(self):
        opts = OptimizerOptions(step_count=100, learning_rate=2e-6)
        assert opts.rate_at(0) == 2e-6
        assert opts.rate_at(50) == pytest.approx(1e-6)
        assert opts.rate_at(99) < 1e-8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OptimizerOptions(step_count=0)
        with pytest.raises(ConfigurationError):
            OptimizerOptions(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            OptimizerOptions(tolerance=-1.0)
        # a count that range() cannot take, or a bool, is not a step count
        for steps in (2.5, 3.0, True):
            with pytest.raises(ConfigurationError, match="step_count must be an integer"):
                OptimizerOptions(step_count=steps)

    @pytest.mark.parametrize(
        "options",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
        ],
        ids=["nan-rate", "infinite-rate", "nan-tolerance", "infinite-tolerance"],
    )
    def test_non_finite_rejected(self, options):
        with pytest.raises(ConfigurationError, match="finite"):
            OptimizerOptions(**options)

    def test_single_step_runs_at_the_full_rate(self):
        # 0.5 * (1 + cos 0) is exactly 1
        assert OptimizerOptions(step_count=1, learning_rate=3e-6).rate_at(0) == 3e-6


class TestLoss:
    def test_zero_on_consistent_data(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=3)
        result = loss(scene_zero, obs)
        assert result.value < 1e-15
        assert result.n_active == obs.n_corners
        assert result.errored == ()

    def test_positive_on_perturbed_data(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=3)
        shifted = []
        for im in obs.images:
            shifted.append(
                ImageObservations(
                    image_index=im.image_index,
                    initial_pose=im.initial_pose,
                    grid_ij=im.grid_ij,
                    pixels=im.pixels + 2.0,
                )
            )
        perturbed = ObservationSet(
            square_size=obs.square_size,
            corners_per_side=obs.corners_per_side,
            images=tuple(shifted),
        )
        assert loss(scene_zero, perturbed).value > 1e-9

    def test_failed_ray_is_excluded_and_reported(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=3)
        im = obs.images[0]
        pixels = im.pixels.copy()
        pixels[0] = [1640.0, -1e7]  # ray bent far upward: misses the cover
        broken = ObservationSet(
            square_size=obs.square_size,
            corners_per_side=obs.corners_per_side,
            images=(
                ImageObservations(
                    image_index=0, initial_pose=im.initial_pose, grid_ij=im.grid_ij, pixels=pixels
                ),
            )
            + obs.images[1:],
        )
        result = loss(scene_zero, broken)
        assert result.n_active == obs.n_corners - 1
        assert len(result.errored) == 1
        img, gi, gj, stage = result.errored[0]
        assert (img, gi, gj) == (0, int(im.grid_ij[0, 0]), int(im.grid_ij[0, 1]))
        assert stage == "inner-intersection"
        # the remaining corners still contribute exactly what they did before
        assert result.value == pytest.approx(loss(scene_zero, obs).value, abs=1e-18)

    def test_all_rays_failing_raises(self, scene_zero):
        im = consistent_observations(scene_zero, subsample=3).images[0]
        pixels = np.full_like(im.pixels, [1640.0, -1e7])
        pixels += np.arange(pixels.shape[0])[:, None]  # keep indices unique-ish
        broken = ObservationSet(
            square_size=0.03,
            corners_per_side=7,
            images=(
                ImageObservations(
                    image_index=0, initial_pose=im.initial_pose, grid_ij=im.grid_ij, pixels=pixels
                ),
            ),
        )
        with pytest.raises(DataError):
            loss(scene_zero, broken)


class TestStackedBatch:
    def test_matches_per_image_reference(self):
        params, obs = scene_with_failures(np.random.default_rng(150))
        value, n_active, errored, pose_grad = per_image_reference(params, obs)
        stages = {e[3] for e in errored}
        assert {"inner-intersection", "outer-refraction", "board-intersection"} <= stages
        assert n_active > 0

        result, grad = loss_gradient(params, obs, wrt="poses")
        assert result.errored == errored
        assert result.n_active == n_active
        assert result.value == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(grad - pose_grad)) <= 1e-10 * np.max(np.abs(pose_grad))
        assert loss(params, obs) == result
        assert loss_gradient(params, obs, wrt="amplitudes")[0] == result

    def test_pose_gradient_matches_the_adjoint_formula(self):
        # the gradient sums 2 rho^T J over the refinement's Jacobian rows;
        # the reference contracts the residual with the landing's adjoint
        for seed in (150, 151, 152):
            params, obs = scene_with_failures(np.random.default_rng(seed))
            pose_grad = per_image_reference(params, obs)[3]
            _, grad = loss_gradient(params, obs, wrt="poses")
            assert np.all(np.abs(grad - pose_grad) <= 1e-12 * np.abs(pose_grad))

    def test_fit_landings_equal_trace_pixels_bit_for_bit(self, intrinsics, cone, patch):
        # the fit's cached K and a trace's blocked K take the same row-wise
        # product, so every corner lands on the same bits either way
        failing = scene_with_failures(np.random.default_rng(150))
        ds = generate_dataset(
            intrinsics,
            cone,
            RbfSurface.flat(patch, (10, 10)),
            n_images=24,
            amplitude_dist=AmplitudeDistribution(),
            noise_sigma_px=0.5,
            seed=7,
        )
        statuses = []
        for params, obs in (failing, (ds.params, ds.observations)):
            fit = calibrate._FitBatch(params, obs)
            landed, _, _ = fit.trace(params, False)
            pixels = np.concatenate([im.pixels for im in obs.images])
            traced = trace_pixels(params, fit.image_index, pixels)
            assert np.array_equal(landed.status, traced.status)
            assert np.array_equal(
                landed.board_local.view(np.int64), traced.board_local.view(np.int64)
            )
            statuses.append(set(traced.status.tolist()))
        # failures at several stages in one scene, more rows than a kernel block in the other
        assert len(statuses[0]) >= 4
        assert pixels.shape[0] > _KERNEL_BLOCK_ROWS

    def test_amplitude_chain_matches_the_row_formula_bit_for_bit(self, monkeypatch):
        params, obs = scene_with_failures(np.random.default_rng(150))
        fit = calibrate._FitBatch(params, obs)
        batch, dn, _ = fit.trace(params, True)
        ok = batch.ok
        assert not np.all(ok)
        rho = (batch.board_local - fit.target)[ok]
        exit_cotangents, cotangents = [], []
        chain = calibrate._FitBatch._amplitude_gradient
        monkeypatch.setattr(
            calibrate._FitBatch,
            "_amplitude_gradient",
            lambda self, params, batch, ok, dl_dro, dn: exit_cotangents.append(
                np.stack(dl_dro, axis=-1)
            )
            or chain(self, params, batch, ok, dl_dro, dn),
        )
        adjoint = calibrate._field_values_adjoint
        monkeypatch.setattr(
            calibrate,
            "_field_values_adjoint",
            lambda surface, s, k, g: cotangents.append(g) or adjoint(surface, s, k, g),
        )
        fit.evaluate(params, "amplitudes")
        # the translation rows give the w3/scale form's exit-direction
        # cotangent to rounding
        (dl_dro,) = exit_cotangents
        expected = exit_direction_cotangent(params, fit, batch, ok, rho)
        err = np.linalg.norm(dl_dro - expected, axis=1)
        assert np.all(err <= 1e-15 * np.linalg.norm(expected, axis=1))

        # fed the same cotangent, the chain after it is the row formula's bits;
        # zero rows of either sign, so the chain carries signed zeros
        dl_dro[0::4] = 0.0
        dl_dro[1::4] = -0.0
        dl_dro[2::4, 0] = -0.0
        cotangents.clear()
        chain(fit, params, batch, ok, _components(dl_dro), dn[ok])
        expected = amplitude_gradient_cotangents(params, fit, batch, ok, dl_dro, dn[ok])
        (got,) = cotangents
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # a sum that starts from +0.0 ends at +0.0 on the zero rows
        assert np.all(got[ok][0::4] == 0.0) and not np.any(np.signbit(got[ok][0::4]))


class TestFitBatchCache:
    """The stacked batch is derived from (set, camera, cone, centers) and
    kept only while its set lives."""

    def test_a_kept_batch_gives_the_bits_of_a_new_one(self, monkeypatch):
        params, obs = scene_with_failures(np.random.default_rng(150))
        loss_gradient(params, obs)  # builds the set's batch and its K
        step = _rotvec_matrix([0.004, -0.006, 0.002])
        poses = [
            dataclasses.replace(p, rotation=step @ p.rotation, translation=p.translation + 0.003)
            for p in params.poses
        ]
        amplitudes = 0.9 * params.surface.amplitudes
        moved = params.with_poses(poses).with_surface(params.surface.with_amplitudes(amplitudes))
        same_images = ObservationSet(obs.square_size, obs.corners_per_side, obs.images)
        covers = count_cover_traces(monkeypatch)
        kept = [loss(moved, obs), *loss_gradient(moved, obs), *loss_gradient(moved, obs, "poses")]
        assert covers == []
        new = [
            loss(moved, same_images),
            *loss_gradient(moved, same_images),
            *loss_gradient(moved, same_images, "poses"),
        ]
        assert covers == [same_images.n_corners]
        assert kept[0] == new[0] == kept[1] == new[3] and kept[0].errored
        for got, want in ((kept[2], new[2]), (kept[4], new[4])):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_new_centers_rebuild_the_batch(self, monkeypatch):
        params, obs = small_scene(np.random.default_rng(411))
        patch, grid, beta = params.surface.patch, params.surface.grid, params.surface.beta
        covers = count_cover_traces(monkeypatch)
        for surface in (
            params.surface,
            RbfSurface.flat(patch, grid, beta=beta),  # same centers: kept
            RbfSurface.flat(patch, (2, 4)),
            RbfSurface.flat(patch, (2, 4), beta=0.5 * RbfSurface.flat(patch, (2, 4)).beta),
        ):
            loss(params.with_surface(surface), obs)
        assert covers == [obs.n_corners] * 3

    def test_batch_goes_with_its_set(self):
        params, obs = small_scene(np.random.default_rng(412))
        loss_gradient(params, obs)
        batch = weakref.ref(calibrate._fit_batch(params, obs))
        assert batch() is not None
        del obs
        gc.collect()
        assert batch() is None

    def test_calibrate_leaves_no_batch_alive(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        small = {"board": {"corners_per_side": 5}, "surface": {"grid_rows": 3, "grid_cols": 3}}
        config.write_text(json.dumps(merge_config(default_config(), small)))
        generate = ["generate", "--config", config, "--out", tmp_path, "--images", 2]
        assert cli.main([str(a) for a in generate]) == 0
        built = []

        class Recorded(calibrate._FitBatch):
            def __init__(self, params, observations):
                super().__init__(params, observations)
                built.append(weakref.ref(self))

        monkeypatch.setattr(calibrate, "_FitBatch", Recorded)
        argv = ["calibrate", "--config", config, "--observations", tmp_path / "observations.json"]
        argv += ["--out", tmp_path / "fit", "--steps", "3", "--refine-poses"]
        assert cli.main([str(a) for a in argv]) == 0
        # no gc.collect(): the batch must go as soon as the command drops its set
        assert len(built) == 1 and built[0]() is None


class TestLossGradient:
    def test_amplitude_gradient_matches_fd(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            params, obs = small_scene(rng)
            result, grad = loss_gradient(params, obs, wrt="amplitudes")
            assert result.value > 0.0
            assert_close_rel(grad, fd_amplitude_gradient(params, obs))

    def test_pose_gradient_matches_fd(self):
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            params, obs = small_scene(rng)
            result, grad = loss_gradient(params, obs, wrt="poses")
            assert grad.shape == (6 * len(params.poses),)
            assert_close_rel(grad, fd_pose_gradient(params, obs))

    def test_gradient_near_zero_at_consistent_data(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=3)
        _, grad = loss_gradient(scene_zero, obs, wrt="amplitudes")
        assert np.max(np.abs(grad)) < 1e-5

    def test_deterministic(self):
        rng = np.random.default_rng(300)
        params, obs = small_scene(rng)
        r1, g1 = loss_gradient(params, obs, wrt="amplitudes")
        r2, g2 = loss_gradient(params, obs, wrt="amplitudes")
        assert r1.value == r2.value
        assert np.array_equal(g1, g2)

    def test_unknown_target_rejected(self):
        rng = np.random.default_rng(301)
        params, obs = small_scene(rng)
        with pytest.raises(ConfigurationError):
            loss_gradient(params, obs, wrt="normals")


class TestOptimizeAmplitudes:
    def make_recovery_problem(self, rng, grid=(3, 3)):
        params, small = small_scene(rng, grid=grid)
        obs = consistent_observations(params, subsample=2, corners_per_side=small.corners_per_side)
        start = params.with_surface(RbfSurface.flat(params.surface.patch, grid))
        return params, start, obs

    def test_descends_toward_truth(self):
        rng = np.random.default_rng(400)
        params, start, obs = self.make_recovery_problem(rng)
        fit = optimize_amplitudes(start, obs, OptimizerOptions(step_count=500))
        assert isinstance(fit, FitResult)
        assert fit.loss_history.shape == (501,)
        assert fit.final_loss < 2e-3 * fit.loss_history[0]
        # the fitted field explains nearly all of the cover's distortion
        assert rmse_cm(fit.params, obs) < 0.01 * pinhole_rmse_cm(start, obs)

    def test_divergent_rate_raises(self):
        rng = np.random.default_rng(402)
        _, start, obs = self.make_recovery_problem(rng)
        with pytest.raises(DivergenceError) as err:
            optimize_amplitudes(start, obs, OptimizerOptions(step_count=50, learning_rate=1e30))
        # Adam's first step has the size of the rate, so the first update
        # leaves the physical range and the start is the last stable iterate
        assert err.value.iteration == 0
        assert err.value.last_stable.loss_history.shape == (1,)

    def fail_at(self, monkeypatch, k, failure):
        """Make ``calibrate.loss_gradient`` fail at 0-based iteration ``k``: a
        NaN loss (``"nan"``) or a DataError (``"no-ray"``), as when a step
        wipes out every ray."""
        real = calibrate.loss_gradient
        calls = []

        def failing(*args):
            calls.append(None)
            result, grad = real(*args)
            if len(calls) - 1 != k:
                return result, grad
            if failure == "no-ray":
                raise DataError("no corner completed the trace; loss is undefined")
            return dataclasses.replace(result, value=math.nan), grad

        monkeypatch.setattr(calibrate, "loss_gradient", failing)

    @pytest.mark.parametrize("failure", ["nan", "no-ray"])
    def test_a_failure_at_iteration_k_diverges_there(self, monkeypatch, failure):
        _, start, obs = self.make_recovery_problem(np.random.default_rng(408))
        self.fail_at(monkeypatch, 2, failure)
        with pytest.raises(DivergenceError) as err:
            optimize_amplitudes(start, obs, OptimizerOptions(step_count=5))
        assert err.value.iteration == 2
        assert err.value.last_stable.loss_history.shape == (2,)

    def test_no_ray_at_the_first_iteration_is_bad_data(self, monkeypatch):
        _, start, obs = self.make_recovery_problem(np.random.default_rng(408))
        self.fail_at(monkeypatch, 0, "no-ray")
        with pytest.raises(DataError):
            optimize_amplitudes(start, obs, OptimizerOptions(step_count=5))

    def fail_at_the_last_iterate(self, monkeypatch, failure):
        """Make ``calibrate.loss``, which evaluates the final iterate, fail
        like :meth:`fail_at`."""
        real = calibrate.loss

        def failing(*args):
            if failure == "no-ray":
                raise DataError("no corner completed the trace; loss is undefined")
            return dataclasses.replace(real(*args), value=math.nan)

        monkeypatch.setattr(calibrate, "loss", failing)

    @pytest.mark.parametrize("failure", ["nan", "no-ray"])
    def test_a_failure_at_the_last_iterate_diverges_there(self, monkeypatch, failure):
        _, start, obs = self.make_recovery_problem(np.random.default_rng(408))
        self.fail_at_the_last_iterate(monkeypatch, failure)
        with pytest.raises(DivergenceError) as err:
            optimize_amplitudes(start, obs, OptimizerOptions(step_count=3))
        assert err.value.iteration == 3
        assert err.value.last_stable.loss_history.shape == (3,)

    def test_n_steps_take_n_gradients_and_one_loss(self, monkeypatch):
        _, start, obs = self.make_recovery_problem(np.random.default_rng(409))
        calls = []

        def counting(name):
            real = getattr(calibrate, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(calibrate, name, counted)

        counting("loss")
        counting("loss_gradient")
        fit = optimize_amplitudes(start, obs, OptimizerOptions(step_count=3))
        assert calls == ["loss_gradient"] * 3 + ["loss"]
        assert fit.loss_history.shape == (4,)

    def test_tolerance_stops_early(self):
        rng = np.random.default_rng(403)
        _, start, obs = self.make_recovery_problem(rng)
        fit = optimize_amplitudes(
            start, obs, OptimizerOptions(step_count=200, tolerance=1e30)
        )
        # the second evaluation meets the tolerance and ends the fit there
        assert fit.loss_history.shape == (2,)

    def test_single_center_matches_line_scan(self, intrinsics, cone, patch):
        surface_true = RbfSurface.flat(patch, (1, 1)).with_amplitudes([[2e-5]])
        pose = make_pose(depth=0.7, dx=0.01, dy=-0.01, rot_deg=(4.0, -6.0, 3.0))
        params = SceneParams(
            intrinsics=intrinsics, cone=cone, surface=surface_true, poses=(pose,)
        )
        obs = consistent_observations(params, subsample=3)
        start = params.with_surface(RbfSurface.flat(patch, (1, 1)))
        fit = optimize_amplitudes(start, obs, OptimizerOptions(step_count=400))
        a_fit = float(fit.surface.amplitudes[0, 0])

        # exhaustive scan of the single amplitude
        lo, hi = -1e-5, 5e-5
        for _ in range(4):
            grid = np.linspace(lo, hi, 121)
            values = [
                loss(start.with_surface(start.surface.with_amplitudes([[a]])), obs).value
                for a in grid
            ]
            best = grid[int(np.argmin(values))]
            width = (hi - lo) / 10.0
            lo, hi = best - width, best + width
        assert abs(a_fit - best) < 1e-6
        assert abs(a_fit - 2e-5) < 1e-6

    def test_kernels_evaluated_once_per_fit(self, monkeypatch):
        rng = np.random.default_rng(405)
        _, start, obs = self.make_recovery_problem(rng)
        same_images = ObservationSet(obs.square_size, obs.corners_per_side, obs.images)
        calls = count_kernel_calls(monkeypatch)
        counts = []
        for steps, observations in ((2, obs), (5, obs), (2, same_images)):
            calls.clear()
            optimize_amplitudes(start, observations, OptimizerOptions(step_count=steps))
            counts.append(len(calls))
        # K is built once per set and centers, one call per image: a second
        # fit on the set reuses it, a new set of the same images builds its own
        assert counts == [obs.n_images, 0, obs.n_images]

    def test_final_loss_matches_a_fresh_loss(self):
        rng = np.random.default_rng(406)
        _, start, obs = self.make_recovery_problem(rng)
        fit = optimize_amplitudes(start, obs, OptimizerOptions(step_count=10))
        fresh = loss(fit.params, obs)
        assert fit.final_loss == pytest.approx(fresh.value, rel=1e-12)
        assert (fit.n_active, fit.errored) == (fresh.n_active, fresh.errored)

    def test_rmse_is_the_last_evaluation(self):
        rng = np.random.default_rng(407)
        _, start, obs = self.make_recovery_problem(rng)
        fit = optimize_amplitudes(start, obs, OptimizerOptions(step_count=10))
        assert fit.rmse_cm == rmse_cm(fit.params, obs)
        assert fit.surface is fit.params.surface
        with pytest.raises(DivergenceError) as err:
            optimize_amplitudes(start, obs, OptimizerOptions(step_count=10, learning_rate=1e30))
        stable = err.value.last_stable
        assert stable.rmse_cm == rmse_cm(stable.params, obs)

    def test_deterministic_runs_bit_identical(self):
        rng = np.random.default_rng(404)
        _, start, obs = self.make_recovery_problem(rng)
        fit1 = optimize_amplitudes(start, obs, OptimizerOptions(step_count=40))
        fit2 = optimize_amplitudes(start, obs, OptimizerOptions(step_count=40))
        assert np.array_equal(fit1.loss_history, fit2.loss_history)
        assert np.array_equal(fit1.surface.amplitudes, fit2.surface.amplitudes)


class TestPoseLinearization:
    @pytest.mark.parametrize("theta", [0.0, 1e-10, 1e-3, 1.0, math.pi - 1e-6])
    def test_rotvec_matrix_matches_scipy(self, theta):
        omega = theta * np.array([0.36, -0.48, 0.8])
        expected = Rotation.from_rotvec(omega).as_matrix()
        assert np.max(np.abs(_rotvec_matrix(omega) - expected)) <= 1e-15

    def test_rotvec_matrix_needs_three_components(self):
        with pytest.raises(ValueError):
            _rotvec_matrix([0.1, 0.2])

    @pytest.mark.parametrize("wrt", ["translation", "rotation", "exit-direction"])
    def test_landing_rows_match_central_differences(self, wrt):
        # every derivative of a landing follows from its translation rows T_k:
        # over t it is T_k, over a left rotation increment r x T_k, and over
        # the exit direction from a fixed exit point -t T_k
        rng = np.random.default_rng(520)
        rotation = _rotvec_matrix(rng.normal(0.0, 0.3, size=3))
        translation = np.array([0.02, -0.01, 0.6])
        x_o = rng.normal(0.0, 0.01, size=(20, 3))
        aim = translation + rng.uniform(-0.1, 0.1, size=(20, 2)) @ rotation[:, :2].T
        d = (aim - x_o) / np.linalg.norm(aim - x_o, axis=1, keepdims=True)
        t, _, local, hit = _land(rotation, translation, x_o, d)
        assert np.all(hit)
        axes = [_components(rotation[:, k]) for k in range(3)]
        t_rows = calibrate._translation_rows(axes, _components(d))
        rows = calibrate._pose_rows(axes, local, t_rows)
        expected, landed = {
            "translation": (rows[..., 3:], lambda e: _land(rotation, translation + e, x_o, d)),
            "rotation": (
                rows[..., :3],
                lambda e: _land(_rotvec_matrix(e) @ rotation, translation, x_o, d),
            ),
            "exit-direction": (
                -t[:, None, None] * np.stack([np.stack(t_k, axis=-1) for t_k in t_rows], axis=1),
                lambda e: _land(rotation, translation, x_o, d + e),
            ),
        }[wrt]
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            steps = eps * np.eye(3)
            fd = np.stack(
                [(landed(h)[2] - landed(-h)[2]) / (2.0 * eps) for h in steps], axis=-1
            )
            errors.append(np.max(np.abs(fd - expected)))
        if wrt == "translation":
            # the landing is affine in the translation: exact to rounding
            assert max(errors) <= 1e-13 * np.max(np.abs(expected))
        else:
            # halving the step quarters the error
            assert all(0.24 < fine / coarse < 0.26 for coarse, fine in zip(errors, errors[1:]))
            assert errors[-1] <= 1e-5 * np.max(np.abs(expected))

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(510)
        params, obs = small_scene(rng)
        im = obs.images[1]
        batch = trace_pixels(params, 1, im.pixels)
        ok = batch.ok
        x_cb = board_targets(im.grid_ij, obs.square_size, obs.corners_per_side)[ok]
        x_o, r_o = batch.x_outer[ok], batch.dir_out[ok]
        # one more ray, leaving away from the board, misses its plane
        x_o = np.vstack([x_o, x_o[:1]])
        r_o = np.vstack([r_o, -r_o[:1]])
        x_cb = np.vstack([x_cb, x_cb[:1]])
        pose = params.pose(1)
        # a rotation vector far enough from zero that the left Jacobian matters
        p = np.concatenate([[0.03, -0.02, 0.05], pose.translation + [0.002, -0.001, 0.003]])
        args = (pose.rotation, x_o, r_o, x_cb)

        residual, jac = _pose_system(p, *args)
        h = 1e-6
        fd = np.empty_like(jac)
        for c in range(6):
            step = np.zeros(6)
            step[c] = h
            fd[:, c] = (_pose_system(p + step, *args)[0] - _pose_system(p - step, *args)[0]) / (2 * h)
        assert np.all(residual[-2:] == 1e3)
        assert np.all(jac[-2:] == 0.0) and np.all(fd[-2:] == 0.0)
        assert_close_rel(jac, fd, rel=1e-6, floor=1e-9 * np.max(np.abs(fd)))


class TestRefinePoses:
    def perturbed(self, scene, rng):
        poses = []
        for pose in scene.poses:
            omega = rng.normal(0.0, 0.004, size=3)
            rot = Rotation.from_rotvec(omega).as_matrix() @ pose.rotation
            trans = pose.translation + rng.normal(0.0, 0.0015, size=3)
            poses.append(dataclasses.replace(pose, rotation=rot, translation=trans))
        return scene.with_poses(poses)

    def test_gauss_newton_recovers_true_poses(self, scene_zero):
        rng = np.random.default_rng(500)
        obs = consistent_observations(scene_zero, subsample=2)
        start = self.perturbed(scene_zero, rng)
        assert rmse_cm(start, obs) > 0.01
        refined = refine_poses(start, obs)
        assert rmse_cm(refined.params, obs) < 1e-4
        for report in refined.reports:
            assert report.final_cost <= report.initial_cost
            assert report.n_valid > 0

    def test_never_worsens_already_true_poses(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=3)
        refined = refine_poses(scene_zero, obs)
        assert rmse_cm(refined.params, obs) <= rmse_cm(scene_zero, obs) + 1e-12

    def test_matches_finite_difference_reference(self, scene_zero):
        rng = np.random.default_rng(503)
        obs = consistent_observations(scene_zero, subsample=2, rng=rng, noise_px=0.5)
        start = self.perturbed(scene_zero, rng)
        refined = refine_poses(start, obs)
        expected = refine_poses_finite_difference(start, obs)
        for report, pose, (ref_pose, cost0, cost1, n_valid) in zip(
            refined.reports, refined.params.poses, expected
        ):
            assert report.n_valid == n_valid
            assert report.initial_cost == pytest.approx(cost0, rel=1e-12)
            assert report.final_cost < 0.5 * report.initial_cost
            assert report.final_cost == pytest.approx(cost1, rel=1e-10)
            assert np.max(np.abs(pose.rotation - ref_pose.rotation)) <= 1e-7
            assert np.max(np.abs(pose.translation - ref_pose.translation)) <= 1e-7

    def test_each_jacobian_reuses_the_landing_of_its_residual(self, scene_zero, monkeypatch):
        rng = np.random.default_rng(504)
        obs = consistent_observations(scene_zero, subsample=2, rng=rng, noise_px=0.5)
        start = self.perturbed(scene_zero, rng)
        land = calibrate._land
        landings = []

        def counting(*args):
            landings.append(None)
            return land(*args)

        monkeypatch.setattr(calibrate, "_land", counting)
        solves = record_pose_solves(monkeypatch)
        refine_poses(start, obs)
        # the residual and the Jacobian share one landing, and the initial
        # cost is the solve's first evaluation
        assert len(solves) == obs.n_images
        assert len(landings) == sum(sol.nfev for sol in solves)
        assert all(sol.nfev > 1 for sol in solves)

    # starts this far from the truth, in random directions; on the last,
    # one image's full Gauss-Newton step overshoots and must be halved
    @pytest.mark.parametrize(
        "seed, angle, offset", [(610, 0.2, 0.08), (611, 0.2, 0.08), (612, 0.2, 0.08), (612, 1.0, 0.3)]
    )
    def test_matches_the_reference_from_far_off(self, scene_zero, seed, angle, offset):
        rng = np.random.default_rng(seed)
        obs = consistent_observations(scene_zero, subsample=2, rng=rng, noise_px=0.5)
        poses = []
        for pose in scene_zero.poses:
            axis, shift = rng.normal(size=(2, 3))
            rot = _rotvec_matrix(angle * axis / np.linalg.norm(axis)) @ pose.rotation
            trans = pose.translation + offset * shift / np.linalg.norm(shift)
            poses.append(dataclasses.replace(pose, rotation=rot, translation=trans))
        start = scene_zero.with_poses(poses)
        refined = refine_poses(start, obs)
        expected = refine_poses_finite_difference(start, obs)
        for report, (_, cost0, cost1, _) in zip(refined.reports, expected):
            assert report.final_cost < 1e-3 * cost0
            assert report.final_cost == pytest.approx(cost1, rel=1e-10)

    def test_a_solve_at_the_true_pose_ends_within_five_evaluations(self, scene_zero, monkeypatch):
        obs = consistent_observations(scene_zero, subsample=2)
        solves = record_pose_solves(monkeypatch)
        refine_poses(scene_zero, obs)
        assert len(solves) == obs.n_images
        assert all(sol.nfev <= 5 for sol in solves)

    def test_an_image_with_no_corner_through_the_cover_keeps_its_pose(self, scene_zero):
        rng = np.random.default_rng(506)
        obs = consistent_observations(scene_zero, subsample=2)
        start = self.perturbed(scene_zero, rng)
        im = obs.images[1]
        missing = dataclasses.replace(im, pixels=np.tile([1640.0, -1e7], (im.n_corners, 1)))
        obs = dataclasses.replace(obs, images=(obs.images[0], missing, *obs.images[2:]))
        refined = refine_poses(start, obs)
        report = refined.reports[1]
        assert (report.n_valid, report.initial_cost, report.final_cost) == (0, 0.0, 0.0)
        kept, pose = start.poses[1], refined.params.poses[1]
        assert np.array_equal(pose.rotation, kept.rotation)
        assert np.array_equal(pose.translation, kept.translation)
        assert refined.reports[0].n_valid > 0

    def test_preserves_surface(self, scene_zero):
        rng = np.random.default_rng(502)
        amps = rng.normal(1e-5, 2e-6, size=scene_zero.surface.grid)
        scene = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        obs = consistent_observations(scene_zero, subsample=3)
        refined = refine_poses(scene, obs)
        assert np.array_equal(refined.params.surface.amplitudes, amps)

    def test_evaluates_no_kernel(self, scene_zero, monkeypatch):
        # the refinement runs under the zero field, whatever the amplitudes,
        # so the batch it shares with the fit builds no K
        amps = np.random.default_rng(505).normal(1e-5, 2e-6, size=scene_zero.surface.grid)
        scene = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        obs = consistent_observations(scene_zero, subsample=3)
        calls = count_kernel_calls(monkeypatch)
        refine_poses(scene, obs)
        assert calls == []


class TestRmse:
    def test_rmse_matches_manual_computation(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=3)
        im = obs.images[0]
        x_cb = board_targets(im.grid_ij, obs.square_size, obs.corners_per_side)
        total = 0.0
        for pixel, target in zip(im.pixels, x_cb):
            m = raycast(scene_zero, 0, pixel)
            total += float(np.sum((m - target) ** 2))
        one_image = ObservationSet(
            square_size=obs.square_size, corners_per_side=obs.corners_per_side, images=(im,)
        )
        expected = math.sqrt(total / im.n_corners) * 100.0
        assert rmse_cm(scene_zero, one_image) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_pinhole_rmse_sees_cover_distortion(self, scene_zero):
        obs = consistent_observations(scene_zero, subsample=2)
        assert rmse_cm(scene_zero, obs) < 1e-6
        assert pinhole_rmse_cm(scene_zero, obs) > 1e-3
