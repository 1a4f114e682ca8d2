"""Tests for corner observation containers and their JSON format."""

import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conecal.errors import DataError
from conecal.observations import (
    ImageObservations,
    ObservationSet,
    load_observations,
    observations_from_json_dict,
    observations_to_json_dict,
    save_observations,
)
from conftest import make_pose


def small_set(n_images=2, corners_per_side=5):
    rng = np.random.default_rng(31)
    images = []
    for idx in range(n_images):
        pose = make_pose(
            depth=0.5 + 0.3 * idx,
            dx=0.02 * idx,
            dy=-0.01 * idx,
            rot_deg=(5.0 * idx, -3.0 * idx, 2.0 * idx),
            corners_per_side=corners_per_side,
        )
        ij = np.array([(i, j) for i in range(1, corners_per_side + 1) for j in (1, 3)])
        images.append(
            ImageObservations(
                image_index=idx,
                initial_pose=pose,
                grid_ij=ij,
                pixels=rng.uniform(0.0, 3000.0, size=(ij.shape[0], 2)),
            )
        )
    return ObservationSet(square_size=0.03, corners_per_side=corners_per_side, images=images)


class TestContainers:
    def test_board_local_lattice(self):
        obs = small_set(n_images=1)
        im = obs.image(0)
        local = im.board_local()
        # 5 corners per side, squares of 3 cm: corner (1, 1) sits at -6 cm
        first = local[np.all(im.grid_ij == 1, axis=1)][0]
        np.testing.assert_allclose(first, [-0.06, -0.06])

    def test_duplicate_corner_rejected(self):
        pose = make_pose(depth=0.5, dx=0.0, dy=0.0, rot_deg=(0, 0, 0))
        with pytest.raises(DataError, match="duplicate"):
            ImageObservations(
                image_index=0,
                initial_pose=pose,
                grid_ij=np.array([[1, 1], [1, 1]]),
                pixels=np.zeros((2, 2)),
            )

    def test_out_of_range_corner_rejected(self):
        pose = make_pose(depth=0.5, dx=0.0, dy=0.0, rot_deg=(0, 0, 0), corners_per_side=7)
        with pytest.raises(DataError, match=r"\[1, 7\]"):
            ImageObservations(
                image_index=0,
                initial_pose=pose,
                grid_ij=np.array([[0, 3]]),
                pixels=np.zeros((1, 2)),
            )

    def test_sparse_image_indices_rejected(self):
        obs = small_set(n_images=2)
        moved = ImageObservations(
            image_index=5,
            initial_pose=obs.images[1].initial_pose,
            grid_ij=obs.images[1].grid_ij,
            pixels=obs.images[1].pixels,
        )
        with pytest.raises(DataError, match="dense"):
            ObservationSet(
                square_size=0.03, corners_per_side=5, images=(obs.images[0], moved)
            )

    def test_images_are_stored_in_index_order(self):
        obs = small_set(n_images=3)
        reversed_set = ObservationSet(
            square_size=0.03, corners_per_side=5, images=obs.images[::-1]
        )
        assert [im.image_index for im in reversed_set.images] == [0, 1, 2]
        assert reversed_set.image(2) is obs.images[2]
        poses = reversed_set.initial_poses()
        assert all(pose is im.initial_pose for pose, im in zip(poses, obs.images))
        for index in (-1, 3):
            with pytest.raises(DataError, match="no image"):
                reversed_set.image(index)

    def test_board_mismatch_rejected(self):
        obs = small_set(n_images=1)
        with pytest.raises(DataError, match="board dimensions"):
            ObservationSet(square_size=0.05, corners_per_side=5, images=obs.images)


class TestJsonFormat:
    def test_round_trip_is_exact(self, tmp_path):
        obs = small_set()
        path = tmp_path / "obs.json"
        save_observations(obs, path)
        loaded = load_observations(path)
        assert loaded.square_size == obs.square_size
        assert loaded.corners_per_side == obs.corners_per_side
        for im_a, im_b in zip(obs.images, loaded.images):
            np.testing.assert_array_equal(im_a.grid_ij, im_b.grid_ij)
            np.testing.assert_array_equal(im_a.pixels, im_b.pixels)
            np.testing.assert_array_equal(im_a.initial_pose.rotation, im_b.initial_pose.rotation)
            np.testing.assert_array_equal(
                im_a.initial_pose.translation, im_b.initial_pose.translation
            )

    def test_save_is_deterministic(self, tmp_path):
        obs = small_set()
        save_observations(obs, tmp_path / "a.json")
        save_observations(obs, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_axis_angle_rotation_accepted(self):
        obs = small_set(n_images=1)
        doc = observations_to_json_dict(obs)
        pose = obs.images[0].initial_pose
        rotvec = Rotation.from_matrix(pose.rotation).as_rotvec()
        doc["images"][0]["initial_pose"] = {
            "rotation_axis_angle_rad": [float(v) for v in rotvec],
            "translation_m": [float(v) for v in pose.translation],
        }
        loaded = observations_from_json_dict(doc)
        np.testing.assert_allclose(
            loaded.images[0].initial_pose.rotation, pose.rotation, atol=1e-12
        )

    def test_missing_rotation_rejected(self):
        doc = observations_to_json_dict(small_set(n_images=1))
        doc["images"][0]["initial_pose"] = {"translation_m": [0.0, 0.0, 0.5]}
        with pytest.raises(DataError, match="rotation"):
            observations_from_json_dict(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError, match="malformed"):
            observations_from_json_dict({"images": [{"index": 0}]})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_observations(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2")
        with pytest.raises(DataError, match="not valid JSON"):
            load_observations(path)

    def test_extra_top_level_keys_ignored(self, tmp_path):
        # reports written next to the observations must not break parsing
        obs = small_set(n_images=1)
        doc = observations_to_json_dict(obs)
        doc["refinement"] = {"method": "gauss-newton"}
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert load_observations(path).n_images == 1
