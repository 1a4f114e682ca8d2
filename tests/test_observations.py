"""Tests for corner observation containers and their JSON format."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conecal.errors import ConfigurationError, DataError
from conecal.observations import (
    ImageObservations,
    ObservationSet,
    Records,
    _board_corners,
    _corner_board_coords,
    _float_json_texts,
    _replacing,
    load_observations,
    observations_from_json_dict,
    observations_to_json_dict,
    save_observations,
    write_json,
)
from conecal.raytrace import SceneParams
from conftest import make_pose
from oracles import board_targets

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conecal"


def saved_document(tmp_path, obs) -> dict:
    """The parsed text that :func:`save_observations` writes for ``obs``."""
    path = tmp_path / "saved.json"
    save_observations(obs, path)
    return json.loads(path.read_text())


def small_set(n_images=2, corners_per_side=5):
    rng = np.random.default_rng(31)
    images = []
    for idx in range(n_images):
        pose = make_pose(
            depth=0.5 + 0.3 * idx,
            dx=0.02 * idx,
            dy=-0.01 * idx,
            rot_deg=(5.0 * idx, -3.0 * idx, 2.0 * idx),
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
        local = board_targets(im.grid_ij, obs.square_size, obs.corners_per_side)
        # 5 corners per side, squares of 3 cm: corner (1, 1) sits at -6 cm
        first = local[np.all(im.grid_ij == 1, axis=1)][0]
        np.testing.assert_allclose(first, [-0.06, -0.06])

    def test_duplicate_corner_rejected(self):
        pose = make_pose(depth=0.5, dx=0.0, dy=0.0, rot_deg=(0, 0, 0))
        image = ImageObservations(
            image_index=0,
            initial_pose=pose,
            grid_ij=np.array([[1, 1], [1, 1]]),
            pixels=np.zeros((2, 2)),
        )
        with pytest.raises(DataError, match="duplicate"):
            ObservationSet(square_size=0.03, corners_per_side=7, images=(image,))

    def test_duplicate_check_compares_whole_rows(self):
        # an encoding i*(n+1)+j wraps int64 at n = 2**62, where (4, 5) and
        # (8, 1) would collide
        pose = make_pose(depth=0.5, dx=0.0, dy=0.0, rot_deg=(0, 0, 0))

        def one_image(corners_per_side, ij):
            image = ImageObservations(0, pose, np.array(ij), np.zeros((len(ij), 2)))
            return ObservationSet(0.03, corners_per_side, (image,))

        assert one_image(2**62, [[4, 5], [8, 1]]).n_corners == 2
        for corners_per_side in (7, 2**62):
            with pytest.raises(DataError, match="image 0 has duplicate corner indices"):
                one_image(corners_per_side, [[4, 5], [1, 1], [4, 5]])

    def test_out_of_range_corner_rejected(self):
        pose = make_pose(depth=0.5, dx=0.0, dy=0.0, rot_deg=(0, 0, 0))
        image = ImageObservations(
            image_index=0,
            initial_pose=pose,
            grid_ij=np.array([[0, 3]]),
            pixels=np.zeros((1, 2)),
        )
        with pytest.raises(DataError, match=r"\[1, 7\]"):
            ObservationSet(square_size=0.03, corners_per_side=7, images=(image,))

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

    def test_sets_compare_and_hash_by_identity(self, tmp_path):
        # the fit keys its stacked batch on the set, so a set must hash, and
        # two loads of one file must be two sets (field-wise, the arrays
        # would make == raise and hash() fail)
        save_observations(small_set(), tmp_path / "obs.json")
        first = load_observations(tmp_path / "obs.json")
        second = load_observations(tmp_path / "obs.json")
        assert first != second
        assert not first == second
        assert first == first
        assert hash(first) == hash(first)
        assert {first: 1, second: 2}[first] == 1


class TestBoard:
    """The set owns the board: its size, its corner grid and their targets."""

    def test_corner_coords_centered(self):
        ij, _ = _board_corners(0.03, 7)
        # 7 corners per side: index (4, 4) is the center of the grid
        assert np.allclose(_corner_board_coords([[4, 4]], 0.03, 7), [[0.0, 0.0]])
        assert np.allclose(_corner_board_coords([[1, 1]], 0.03, 7), [[-0.09, -0.09]])
        assert np.allclose(_corner_board_coords([[7, 1]], 0.03, 7), [[0.09, -0.09]])
        assert ij.shape == (49, 2)

    def test_every_corner_and_its_target_in_row_major_order(self):
        ij, targets = _board_corners(0.015, 4)
        want = [[i, j] for i in range(1, 5) for j in range(1, 5)]
        assert ij.tolist() == want
        assert np.array_equal(targets.view(np.int64), board_targets(want, 0.015, 4).view(np.int64))

    @pytest.mark.parametrize(
        "square_size, corners_per_side, message",
        [
            (0.0, 5, "board.square_size_m must be positive and finite"),
            (-0.03, 5, "board.square_size_m must be positive and finite"),
            (float("nan"), 5, "board.square_size_m must be positive and finite"),
            (float("inf"), 5, "board.square_size_m must be positive and finite"),
            (0.03, 1, "board.corners_per_side must be at least 2"),
            # a fractional count once became int() of itself: 7 and 2 corners
            (0.03, 7.5, "board.corners_per_side must be an integer"),
            (0.03, 2.9, "board.corners_per_side must be an integer"),
            (0.03, True, "board.corners_per_side must be an integer"),
        ],
        ids=[
            "zero-square",
            "negative-square",
            "nan-square",
            "infinite-square",
            "one-corner",
            "fractional-corners",
            "fractional-corners-above-two",
            "bool-corners",
        ],
    )
    def test_bad_board_rejected(self, square_size, corners_per_side, message):
        images = small_set(n_images=1).images
        with pytest.raises(ConfigurationError, match=message):
            ObservationSet(square_size, corners_per_side, images)
        with pytest.raises(ConfigurationError, match=message):
            _board_corners(square_size, corners_per_side)


class TestStacked:
    """The set stacks its own corners and derives their board targets."""

    @staticmethod
    def uneven_set():
        # images of 10, 4 and 7 corners, given out of order
        full = small_set(n_images=3)
        keep = {0: slice(None), 1: slice(3, 7), 2: slice(1, 8)}
        images = [
            ImageObservations(idx, im.initial_pose, im.grid_ij[keep[idx]], im.pixels[keep[idx]])
            for idx, im in enumerate(full.images)
        ]
        return ObservationSet(full.square_size, full.corners_per_side, images[::-1])

    def test_rows_in_image_order(self):
        obs = self.uneven_set()
        corners = obs.stacked()
        assert corners.offsets.tolist() == [0, 10, 14, 21]
        assert corners.image_index.tolist() == [0] * 10 + [1] * 4 + [2] * 7
        for name in ("grid_ij", "pixels"):
            want = np.concatenate([getattr(im, name) for im in obs.images])
            assert np.array_equal(getattr(corners, name), want)

    def test_targets_are_each_images_board_local_bit_for_bit(self):
        obs = self.uneven_set()
        corners = obs.stacked()
        want = board_targets(
            np.concatenate([im.grid_ij for im in obs.images]), obs.square_size, obs.corners_per_side
        )
        assert corners.targets.dtype == np.float64
        assert np.array_equal(corners.targets.view(np.int64), want.view(np.int64))

    def test_offsets_split_the_rows_back_into_images(self):
        obs = self.uneven_set()
        corners = obs.stacked()
        bounds = zip(corners.offsets[:-1], corners.offsets[1:])
        for im, (start, stop) in zip(obs.images, bounds):
            assert np.all(corners.image_index[start:stop] == im.image_index)
            assert np.array_equal(corners.grid_ij[start:stop], im.grid_ij)
            assert np.array_equal(corners.pixels[start:stop], im.pixels)
            want = board_targets(im.grid_ij, obs.square_size, obs.corners_per_side)
            assert np.array_equal(corners.targets[start:stop], want)

    def test_built_anew_and_not_kept(self):
        obs = self.uneven_set()
        before = dict(vars(obs))
        first, second = obs.stacked(), obs.stacked()
        assert vars(obs) == before
        for a, b in zip(first, second):
            assert a is not b and np.array_equal(a, b)

    def test_scene_equals_a_hand_built_one(self, intrinsics, cone, flat_surface):
        obs = self.uneven_set()
        scene = obs.scene(intrinsics, cone, flat_surface)
        hand = SceneParams(
            intrinsics=intrinsics,
            cone=cone,
            surface=flat_surface,
            poses=tuple(im.initial_pose for im in obs.images),
        )
        assert type(scene) is SceneParams
        assert scene.intrinsics is hand.intrinsics and scene.cone is hand.cone
        assert scene.surface is hand.surface
        assert len(scene.poses) == len(hand.poses) == 3
        assert all(a is b for a, b in zip(scene.poses, hand.poses))


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

    def test_axis_angle_rotation_accepted(self, tmp_path):
        obs = small_set(n_images=1)
        doc = saved_document(tmp_path, obs)
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

    def test_missing_rotation_rejected(self, tmp_path):
        doc = saved_document(tmp_path, small_set(n_images=1))
        doc["images"][0]["initial_pose"] = {"translation_m": [0.0, 0.0, 0.5]}
        with pytest.raises(DataError, match="rotation"):
            observations_from_json_dict(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError, match="malformed"):
            observations_from_json_dict({"images": [{"index": 0}]})

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("image", "index", 0.7, "image index must be an integer"),
            ("image", "index", "0", "image index must be an integer"),
            ("image", "index", True, "image index must be an integer"),
            ("board", "corners_per_side", 7.9, "board.corners_per_side must be an integer"),
            ("board", "square_size_m", "0.03", "board.square_size_m must be a number"),
            ("corner", "px", "820.4", "corner pixels must hold numbers, got str"),
            ("corner", "py", True, "corner pixels must hold numbers, got bool"),
            ("corner", "py", None, "corner pixels must hold numbers, got NoneType"),
            (
                "pose", "translation_m", ["0.0", False, 0.6],
                "translation_m must hold numbers, got bool, str",
            ),
            ("pose", "rotation_rowmajor", [1, 0, 0, 0, True, 0, 0, 0, 1], "rotation_rowmajor must"),
        ],
        ids=[
            "fractional-index", "text-index", "bool-index", "fractional-corners", "text-square",
            "text-px", "bool-py", "null-py", "text-and-bool-translation", "bool-rotation",
        ],
    )
    def test_coerced_numbers_rejected(self, tmp_path, section, key, value, message):
        # int(), float() and np.array(..., dtype=float) would truncate or parse each of these
        doc = saved_document(tmp_path, small_set(n_images=1))
        image = doc["images"][0]
        target = {
            "image": image, "board": doc["board"], "corner": image["corners"][3],
            "pose": image["initial_pose"],
        }[section]
        target[key] = value
        with pytest.raises(DataError, match=f"malformed observations: {message}"):
            observations_from_json_dict(doc)

    def test_numpy_floats_load_as_plain_floats(self, tmp_path):
        # every number rule accepts float subclasses, as json would write them
        plain = saved_document(tmp_path, small_set(n_images=2))
        doc = json.loads(json.dumps(plain))
        doc["board"]["square_size_m"] = np.float64(doc["board"]["square_size_m"])
        image = doc["images"][1]
        image["corners"][3]["px"] = np.float64(image["corners"][3]["px"])
        pose = image["initial_pose"]
        pose["translation_m"] = [np.float64(v) for v in pose["translation_m"]]
        pose["rotation_rowmajor"][4] = np.float64(pose["rotation_rowmajor"][4])
        loaded = observations_from_json_dict(doc)
        assert saved_document(tmp_path, loaded) == plain
        # a bool, a string or a null is still no number beside them
        for bad, name in ((True, "bool"), ("0.5", "str"), (None, "NoneType")):
            image["corners"][4]["py"] = bad
            with pytest.raises(DataError, match=f"corner pixels must hold numbers, got {name}"):
                observations_from_json_dict(doc)

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
        doc = saved_document(tmp_path, obs)
        doc["refinement"] = {"method": "gauss-newton"}
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert load_observations(path).n_images == 1

    @pytest.mark.parametrize(
        "corners, message",
        [
            ([{"i": 1.5, "j": 2, "px": 10.0, "py": 20.0}], "non-integer"),
            ([], "image 0 has no corners"),
            (
                [{"i": 2, "j": 3, "px": 10.0, "py": 20.0}, {"i": 2, "j": 3, "px": 1.0, "py": 2.0}],
                "image 0 has duplicate",
            ),
        ],
        ids=["fractional-index", "no-corners", "duplicate"],
    )
    def test_bad_corner_lists_rejected(self, tmp_path, corners, message):
        doc = saved_document(tmp_path, small_set(n_images=1))
        doc["images"][0]["corners"] = corners
        with pytest.raises(DataError, match=message):
            observations_from_json_dict(doc)

    def test_integral_float_indices_accepted(self):
        obs = small_set(n_images=1)
        im = obs.images[0]
        as_floats = ImageObservations(
            image_index=0,
            initial_pose=im.initial_pose,
            grid_ij=im.grid_ij.astype(np.float64),
            pixels=im.pixels,
        )
        assert as_floats.grid_ij.dtype == np.int64
        np.testing.assert_array_equal(as_floats.grid_ij, im.grid_ij)

    def test_readme_example_loads(self):
        text = README.read_text()
        block = re.search(
            r"`observations\.json` \(the calibration input\):\s*```json\n(.*?)```", text, re.S
        )
        assert block is not None
        obs = observations_from_json_dict(json.loads(block.group(1)))
        assert obs.n_images == 1
        assert obs.images[0].n_corners >= 1


def dumps_form(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def written(tmp_path, obj):
    path = tmp_path / "out.json"
    write_json(path, obj)
    return path.read_text()


RECORDS = [{"i": k, "j": 2 * k, "px": 0.1 * k, "status": "ok"} for k in range(4)]


class TestWriteJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}], "d": [{}], "e": [{}, {}]},
            [[[]]],
            {"x": [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e-300, 1e300]},
            [float("nan"), 1.5, "nan", None],
            {"nan": {"inf": [float("inf")]}},
            {"caf\u00e9 \u2603": "tab\there \"quoted\" \\ \u0001 \ud83d\ude00 {x}"},
            [{"{k}": "{}", "\n": "\u00e9"}, {"{k}": "}{", "\n": ""}],
            {"flag": True, "one": 1, "zero": 0, "no": False, "none": None},
            [True, 1, False, 0, 1.0],
            [{"v": True}, {"v": 1}, {"v": 1.0}, {"v": None}],
            {"f64": np.float64(0.1), "list": [np.float64(1.0), np.float64("nan")]},
            [np.float64(2.5), 2.5],
            RECORDS,
            RECORDS + [{"i": 9, "j": 9, "px": 0.5}],
            RECORDS + [{"i": 9, "j": 9, "px": 0.5, "status": "ok", "extra": 1}],
            RECORDS + [{"i": 9, "j": 9, "px": [0.5], "status": "ok"}],
            RECORDS + [{"i": 9, "j": 9, "px": {"nested": 1.0}, "status": "ok"}],
            RECORDS + [{"i": None, "j": 9, "px": None, "status": None}],
            [{"a": 1}, [1, 2], "s", {"a": 1}],
            ((1, 2.0), ("t",)),
            "top",
            3.25,
            None,
            [[0.1, 0.2], [0.3, float("inf")]],
        ],
    )
    def test_matches_json_dumps(self, tmp_path, obj):
        assert written(tmp_path, obj) == dumps_form(obj)

    def test_matches_json_dumps_on_output_shaped_documents(self, tmp_path):
        from conecal.config import config_with_amplitudes, default_config

        obs = small_set(n_images=3)
        records_form = observations_to_json_dict(obs)
        doc = saved_document(tmp_path, obs)
        # the corners given by column write the bytes of their parsed dicts
        assert written(tmp_path, records_form) == written(tmp_path, doc)
        doc["refinement"] = {
            "images": [
                {"index": k, "initial_cost_m2": 0.1 / (k + 1), "final_cost_m2": 1e-9,
                 "n_valid_corners": 10}
                for k in range(3)
            ]
        }
        config = config_with_amplitudes(default_config(), np.full((8, 8), 1.25e-5))
        ground_truth = {
            "seed": 42,
            "scene_config": config,
            "amplitudes_m": config["surface"]["amplitudes_m"],
            "poses": [{"index": 0, "rotation_rowmajor": [1.0] * 9, "translation_m": [0.0, 0.0, 0.6]}],
        }
        fitted = {
            "grid_rows": 2,
            "grid_cols": 2,
            "amplitudes_m": [[1e-5, -2e-6], [0.0, 3.5e-6]],
            "beta_norm_sq": 0.25,
            "patch": {"s1_min_m": 0.03, "s1_max_m": 0.05, "s2_min_rad": -0.26, "s2_max_rad": 0.26},
            "rmse_initial_cm": 2.19,
            "rmse_cone_only_cm": float("inf"),
            "rmse_final_cm": float("nan"),
            "relative_improvement_pct": 99.9,
            "loss_history_m2": [0.5, 0.25, float("nan")],
            "errored_rays": [
                {"image": 0, "i": 1, "j": 2, "stage": "inner-intersection"},
                {"image": 1, "i": 3, "j": 4, "stage": "board-intersection"},
            ],
            "n_active_corners": 10,
            "options": {"step_count": 20, "learning_rate": 1e-6, "tolerance": 0.0},
            "diverged_at_iteration": None,
        }
        for obj in (doc, ground_truth, fitted, dict(fitted, errored_rays=[])):
            assert written(tmp_path, obj) == dumps_form(obj)

    @pytest.mark.parametrize(
        "obj",
        [np.int64(3), {"a": [np.int64(3)]}, {1, 2}, [{"v": {1}}], RECORDS + [{"i": np.bool_(True),
         "j": 1, "px": 0.0, "status": "ok"}], {"k": object()},
         {"a": [{"b": 1.5}, [2.5]], "images": [{"corners": RECORDS}, {"corners": [np.int64(1)]}]}],
    )
    def test_unencodable_values_raise_type_error(self, tmp_path, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        # the text is streamed, so the error can come after some of it is written:
        # no target is left behind, an old one is kept, and no partial file remains
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json(path, obj)
        assert list(tmp_path.iterdir()) == []
        path.write_text("previous\n")
        with pytest.raises(TypeError):
            write_json(path, obj)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "previous\n"

    @pytest.mark.parametrize("obj", [{1: "a"}, [{1: "a"}, {1: "b"}], {None: 1}])
    def test_non_str_keys_raise_type_error(self, tmp_path, obj):
        with pytest.raises(TypeError):
            write_json(tmp_path / "out.json", obj)


def by_column(dicts):
    """``dicts``, flat records sharing one key set, as :class:`Records`, each
    value given as its ``json.dumps`` text."""
    return Records({k: [json.dumps(d[k]) for d in dicts] for k in dicts[0]})


# record lists with ints, floats, None, strings, bools and non-finite floats
COLUMN_RECORDS = {
    "mixed": [
        {"i": 1, "px": 0.5, "status": "ok", "err_m": None},
        {"i": 2, "px": float("nan"), "status": "board-intersection", "err_m": 1e-300},
        {"i": 3, "px": -0.0, "status": "", "err_m": 2.5},
    ],
    "non-finite": [{"v": float("inf")}, {"v": -float("inf")}, {"v": float("nan")}],
    "strings": [{"w": "caf\u00e9 {x}", "{k}": True}, {"w": "\"q\" \\", "{k}": False}],
    "one": [{"a": 7}],
    "numpy-floats": [{"v": np.float64(0.1)}, {"v": np.float64("nan")}],
}


class TestColumnRecords:
    @pytest.mark.parametrize("name", list(COLUMN_RECORDS))
    def test_render_as_their_dicts(self, tmp_path, name):
        dicts = COLUMN_RECORDS[name]
        records = by_column(dicts)
        assert written(tmp_path, records) == dumps_form(dicts)
        nested = {"b": records, "a": [{"index": 0, "corners": records}, records]}
        assert written(tmp_path, nested) == dumps_form(
            {"b": dicts, "a": [{"index": 0, "corners": dicts}, dicts]}
        )

    def test_no_records_render_as_an_empty_list(self, tmp_path):
        assert written(tmp_path, {"a": Records({"i": [], "j": []})}) == dumps_form({"a": []})

    @pytest.mark.parametrize(
        "columns, error",
        [({"a": ["1", "2"], "b": ["1"]}, ValueError), ({"a": [["1"]]}, TypeError),
         ({"a": [1]}, TypeError), ({"a": ["1", None]}, TypeError), ({1: ["1"]}, TypeError)],
        ids=["ragged", "nested", "int", "none", "int-key"],
    )
    def test_bad_columns_raise_and_write_nothing(self, tmp_path, columns, error):
        with pytest.raises(error):
            write_json(tmp_path / "out.json", {"r": Records(columns)})
        assert list(tmp_path.iterdir()) == []

    def test_need_a_column(self):
        with pytest.raises(ValueError):
            Records({})

    @pytest.mark.parametrize(
        "values, null_rows",
        [([0.5, -0.0, 1e-300], []), ([0.5, math.nan, 2.5], [1]),
         ([math.inf, 0.1, -math.inf, math.nan], [0, 3]), ([math.nan], []), ([], [])],
        ids=["finite", "one-null", "non-finite", "nan", "empty"],
    )
    def test_float_texts_spell_as_json(self, values, null_rows):
        reprs = list(map(float.__repr__, values))
        expected = [
            "null" if k in null_rows else json.dumps(v) for k, v in enumerate(values)
        ]
        assert _float_json_texts(reprs, null_rows) == expected
        assert reprs == list(map(float.__repr__, values))  # the input is left as it is


class TestIterators:
    @pytest.mark.parametrize(
        "items",
        [[], [1], [1.5, "s", None], [{"a": 1}, [2, 3], {"b": []}], [[0.1, 0.2], RECORDS]],
        ids=["empty", "one", "scalars", "containers", "nested"],
    )
    def test_render_as_the_list_they_yield(self, tmp_path, items):
        assert written(tmp_path, iter(items)) == dumps_form(items)
        streamed = {"z": 1, "images": (item for item in items), "a": iter([iter(items)])}
        assert written(tmp_path, streamed) == dumps_form({"z": 1, "images": items, "a": [items]})


class TestReplacing:
    @pytest.mark.parametrize("failure", ["replace", "write"])
    def test_an_os_error_names_the_target_and_removes_the_partial_file(self, tmp_path, failure):
        path = tmp_path / "out.json"
        if failure == "replace":
            path.mkdir()
        with pytest.raises(ConfigurationError, match=f"^cannot write {re.escape(str(path))}: "):
            with _replacing(path) as fh:
                fh.write("partial\n")
                if failure == "write":
                    raise OSError(28, "No space left on device")
        assert [p.name for p in tmp_path.iterdir()] == ([path.name] if failure == "replace" else [])


def json_parse_sites(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every ``json.load``/``json.loads``
    reference and every ``from json import load``/``loads`` in ``tree``."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr in ("load", "loads")
                and isinstance(child.value, ast.Name)
                and child.value.id == "json"
            ) or (
                isinstance(child, ast.ImportFrom)
                and child.module == "json"
                and any(alias.name in ("load", "loads") for alias in child.names)
            ):
                sites.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return sites


def test_json_is_parsed_only_in_read_json():
    # one reader opens, decodes and parses every input file
    sites = {
        path.relative_to(PACKAGE).as_posix(): json_parse_sites(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    found = [(name, function) for name, hits in sites.items() for function, _ in hits]
    assert found == [("observations.py", "read_json")]
