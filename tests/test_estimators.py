"""Tests for the fit/predict wrappers."""

import dataclasses

import numpy as np
import pytest

from conecal.calibrate import rmse_cm
from conecal.errors import ConfigurationError, NotFittedError
from conecal.estimators import BoardPoseRefiner, ConeSurfaceCalibrator
from conecal.geometry import RbfSurface
from conecal.observations import ImageObservations, ObservationSet
from conecal.raytrace import SceneParams, raycast_pixels
from conftest import make_pose
from test_calibrate import consistent_observations


@pytest.fixture()
def fitted_setup(intrinsics, cone, patch):
    rng = np.random.default_rng(71)
    template = RbfSurface.flat(patch, (3, 3))
    true_surface = template.with_amplitudes(rng.normal(1e-5, 2.5e-6, size=(3, 3)))
    poses = (
        make_pose(depth=0.6, dx=0.0, dy=0.0, rot_deg=(0.0, 0.0, 0.0)),
        make_pose(depth=1.0, dx=0.04, dy=-0.02, rot_deg=(6.0, -9.0, 4.0)),
    )
    params = SceneParams(intrinsics=intrinsics, cone=cone, surface=true_surface, poses=poses)
    obs = consistent_observations(params, subsample=2)
    return intrinsics, cone, template, params, obs


class TestConeSurfaceCalibrator:
    def test_get_set_params_round_trip(self, intrinsics, cone, patch):
        est = ConeSurfaceCalibrator(intrinsics, cone, RbfSurface.flat(patch, (2, 2)))
        params = est.get_params()
        assert params["step_count"] == 500
        est.set_params(step_count=32, learning_rate=2e-6)
        assert est.get_params()["step_count"] == 32
        with pytest.raises(ConfigurationError):
            est.set_params(bogus=1)

    def test_adam_is_the_only_descent(self, intrinsics, cone, patch):
        est = ConeSurfaceCalibrator(intrinsics, cone, RbfSurface.flat(patch, (2, 2)))
        assert set(est.get_params()) == {
            "intrinsics", "cone", "surface", "step_count", "learning_rate", "tolerance"
        }
        for name, value in (("step_rule", "fixed"), ("rate_decay", False)):
            with pytest.raises(ConfigurationError):
                est.set_params(**{name: value})

    def test_predict_before_fit_raises(self, intrinsics, cone, patch):
        est = ConeSurfaceCalibrator(intrinsics, cone, RbfSurface.flat(patch, (2, 2)))
        with pytest.raises(NotFittedError):
            est.predict(np.array([[100.0, 100.0]]))

    def test_fit_recovers_distortion(self, fitted_setup):
        intrinsics, cone, template, params, obs = fitted_setup
        est = ConeSurfaceCalibrator(intrinsics, cone, template, step_count=300)
        assert est.fit(obs) is est
        assert est.amplitudes_.shape == (3, 3)
        assert est.loss_history_[-1] < 0.01 * est.loss_history_[0]
        assert rmse_cm(est.params_, obs) < rmse_cm(est.params_.with_surface(template), obs)

    def test_predict_matches_raycast(self, fitted_setup):
        intrinsics, cone, template, params, obs = fitted_setup
        est = ConeSurfaceCalibrator(intrinsics, cone, template, step_count=40).fit(obs)
        pixels = np.array([[800.0, 900.0], [2400.0, 1500.0]])
        pred = est.predict(pixels, image_index=1)
        local, _ = raycast_pixels(est.params_, 1, pixels)
        np.testing.assert_array_equal(pred, local)

    def test_fit_rejects_wrong_type(self, intrinsics, cone, patch):
        est = ConeSurfaceCalibrator(intrinsics, cone, RbfSurface.flat(patch, (2, 2)))
        with pytest.raises(ConfigurationError):
            est.fit({"images": []})


class TestBoardPoseRefiner:
    def test_fit_recovers_perturbed_poses(self, intrinsics, cone, patch):
        # corners generated under the perfect cone with the true poses,
        # then presented with slightly wrong initial pose estimates
        template = RbfSurface.flat(patch, (3, 3))
        poses = (
            make_pose(depth=0.6, dx=0.0, dy=0.0, rot_deg=(0.0, 0.0, 0.0)),
            make_pose(depth=1.0, dx=0.04, dy=-0.02, rot_deg=(6.0, -9.0, 4.0)),
        )
        scene = SceneParams(intrinsics=intrinsics, cone=cone, surface=template, poses=poses)
        obs = consistent_observations(scene, subsample=2)
        rng = np.random.default_rng(73)
        shaken = tuple(
            ImageObservations(
                image_index=im.image_index,
                initial_pose=dataclasses.replace(
                    im.initial_pose,
                    rotation=im.initial_pose.rotation,
                    translation=im.initial_pose.translation + rng.normal(0.0, 0.001, 3),
                ),
                grid_ij=im.grid_ij,
                pixels=im.pixels,
            )
            for im in obs.images
        )
        shaken_obs = ObservationSet(
            square_size=obs.square_size, corners_per_side=obs.corners_per_side, images=shaken
        )
        refiner = BoardPoseRefiner(intrinsics, cone, template)
        assert refiner.fit(shaken_obs) is refiner
        assert len(refiner.poses_) == 2
        assert rmse_cm(scene.with_poses(refiner.poses_), shaken_obs) < 1e-4
        assert refiner.predict(1) is refiner.poses_[1]

    def test_params_interface(self, intrinsics, cone, patch):
        refiner = BoardPoseRefiner(intrinsics, cone, RbfSurface.flat(patch, (2, 2)))
        assert set(refiner.get_params()) == {"intrinsics", "cone", "surface"}
        with pytest.raises(ConfigurationError):
            refiner.set_params(method="adam")
        with pytest.raises(NotFittedError):
            refiner.predict(0)
