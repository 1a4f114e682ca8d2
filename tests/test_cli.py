"""End-to-end tests of the command-line workflows."""

import csv
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conecal import cli
from conecal.analysis import corner_error_scatter, distortion_vs_inverse_depth
from conecal.cli import _write_depth_curve_csv, _write_scatter_csv, load_fitted_surface, main
from conecal.config import (
    default_config,
    load_config,
    merge_config,
    surface_from_config,
    surface_to_config,
)
from conecal.errors import ConfigurationError, DataError
from conecal.observations import load_observations
from conftest import count_cover_traces, count_kernel_calls

# a small scene keeps every invocation well under a second
SMALL = {
    "board": {"corners_per_side": 5},
    "surface": {"grid_rows": 3, "grid_cols": 3},
    "generate": {"n_images": 2},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    config = merge_config(default_config(), overrides or SMALL)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run(argv):
    return main([str(a) for a in argv])


# an integer literal beyond the float range: it reads as an infinity
HUGE = "1" + "0" * 400

# config documents `generate` must reject with exit 2, and the text its error
# must contain: a bad number's key is spelled as a config file spells it
BAD_CONFIGS = {
    "unknown-section": ('{"surfaces": {}}', "surfaces"),
    "text-apex-entry": (
        '{"cone": {"apex_m": [0.0, "high", -0.0015]}}',
        "config key cone.apex_m[1] must",
    ),
    "ragged-amplitudes": (
        '{"surface": {"grid_rows": 2, "grid_cols": 2, "amplitudes_m": [[0.0, 0.0], [0.0]]}}',
        "surface.amplitudes_m",
    ),
    "text-amplitude": (
        '{"surface": {"grid_rows": 2, "grid_cols": 2,'
        ' "amplitudes_m": [[0.0, "1e-5"], [0.0, 0.0]]}}',
        "config key surface.amplitudes_m[0][1] must",
    ),
    "text-n-images": ('{"generate": {"n_images": "3"}}', "config key generate.n_images must"),
    "fractional-n-images": (
        '{"generate": {"n_images": 1.7}}',
        "config key generate.n_images must",
    ),
    "text-noise": (
        '{"generate": {"noise_sigma_px": "0.5"}}',
        "config key generate.noise_sigma_px must",
    ),
    "huge-n-images": (
        '{"generate": {"n_images": 1%s}}' % ("0" * 30),
        "config key generate.n_images must fit a 64-bit integer",
    ),
    "null-surface": ('{"surface": null}', "config key surface must be an object"),
    "null-patch": ('{"surface": {"patch": null}}', "config key surface.patch must be an object"),
}


def fitted_surface_text(**changes) -> str:
    """A calibrate output for a flat 10x10 surface, with ``changes`` applied."""
    data = {
        "grid_rows": 10,
        "grid_cols": 10,
        "amplitudes_m": [[0.0] * 10 for _ in range(10)],
        "beta_norm_sq": 0.0123,
        "patch": {"s1_min_m": 0.03, "s1_max_m": 0.05, "s2_min_rad": -0.26, "s2_max_rad": 0.26},
    }
    data.update(changes)
    return json.dumps(data)


def with_amplitude(value) -> list:
    """A flat 10x10 amplitude grid with ``value`` at row 0, column 1."""
    amplitudes = [[0.0] * 10 for _ in range(10)]
    amplitudes[0][1] = value
    return amplitudes


# fitted files that the config's surface reader, or the surface itself, rejects
BAD_FITTED = {
    "short-amplitude-grid": fitted_surface_text(amplitudes_m=[[0.0] * 10 for _ in range(3)]),
    "decreasing-s1": fitted_surface_text(
        patch={"s1_min_m": 0.05, "s1_max_m": 0.03, "s2_min_rad": -0.26, "s2_max_rad": 0.26}
    ),
    "bool-amplitude": fitted_surface_text(amplitudes_m=with_amplitude(True)),
    "text-amplitude": fitted_surface_text(amplitudes_m=with_amplitude("1e-5")),
    "fractional-grid-rows": fitted_surface_text(
        grid_rows=2.7, amplitudes_m=[[0.0] * 10 for _ in range(2)]
    ),
    "null-amplitudes": fitted_surface_text(amplitudes_m=None),
}


def generate_small(tmp_path, out="data", seed=7, extra=()):
    config = write_config(tmp_path)
    code = run(
        ["generate", "--config", config, "--out", tmp_path / out, "--seed", seed, *extra]
    )
    assert code == 0
    return tmp_path / out


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(default_config()))
        assert load_config(path) == default_config()

    def test_partial_overlay(self):
        merged = merge_config(default_config(), {"cone": {"height_m": 0.08}})
        assert merged["cone"]["height_m"] == 0.08
        assert merged["cone"]["eta_inside"] == 1.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="surfaces"):
            merge_config(default_config(), {"surfaces": {}})

    def test_nested_unknown_key_names_path(self):
        with pytest.raises(ConfigurationError, match="cone.heigth_m"):
            merge_config(default_config(), {"cone": {"heigth_m": 0.08}})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestExitCodes:
    @pytest.mark.parametrize("document, key", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
    def test_bad_config_exits_2(self, tmp_path, capsys, document, key):
        path = tmp_path / "bad.json"
        path.write_text(document)
        assert run(["generate", "--config", path, "--out", tmp_path]) == 2
        assert key in capsys.readouterr().err

    def test_bad_patch_exits_2_for_refine_poses(self, tmp_path):
        data = generate_small(tmp_path)
        path = tmp_path / "bad.json"
        path.write_text('{"surface": {"patch": {"s1_min_m": "low"}}}')
        code = run(
            [
                "refine-poses", "--config", path,
                "--observations", data / "observations.json", "--out", tmp_path / "ref",
            ]
        )
        assert code == 2

    def test_bad_grid_flag_exits_2(self, tmp_path):
        assert run(["generate", "--grid", "8by8", "--out", tmp_path]) == 2

    def test_missing_observations_exits_3(self, tmp_path):
        code = run(["calibrate", "--observations", tmp_path / "nope.json", "--out", tmp_path])
        assert code == 3

    @pytest.mark.parametrize("text", list(BAD_FITTED.values()), ids=list(BAD_FITTED))
    def test_analyze_with_malformed_fitted_file_exits_3(self, tmp_path, text):
        data = generate_small(tmp_path)
        fitted = tmp_path / "fitted.json"
        fitted.write_text(text)
        code = run(
            [
                "analyze", "--config", tmp_path / "config.json",
                "--observations", data / "observations.json",
                "--fitted", fitted, "--out", tmp_path / "an",
            ]
        )
        assert code == 3

    def test_analyze_without_surface_exits_3(self, tmp_path):
        data = generate_small(tmp_path)
        code = run(
            ["analyze", "--observations", data / "observations.json", "--out", tmp_path / "an"]
        )
        assert code == 3

    def test_divergent_rate_exits_4_and_saves_iterate(self, tmp_path):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        out = tmp_path / "fit"
        code = run(
            [
                "calibrate", "--config", config,
                "--observations", data / "observations.json",
                "--out", out, "--steps", 20, "--rate", "1e30",
            ]
        )
        assert code == 4
        saved = json.loads((out / "fitted_surface.json").read_text())
        assert saved["diverged_at_iteration"] == 0
        assert np.all(np.isfinite(saved["amplitudes_m"]))

    @pytest.mark.parametrize(
        "pose",
        [
            {"rotation_rowmajor": [1, 0, 0, 0, 2, 0, 0, 0, 1], "translation_m": [0, 0, 0.5]},
            {"rotation_rowmajor": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation_m": [0, 0.5]},
            {"rotation_axis_angle_rad": [0.1, 0.2], "translation_m": [0, 0, 0.5]},
        ],
        ids=["non-orthonormal-rotation", "2-vector-translation", "2-vector-axis-angle"],
    )
    def test_malformed_pose_exits_3(self, tmp_path, pose):
        data = generate_small(tmp_path)
        doc = json.loads((data / "observations.json").read_text())
        doc["images"][1]["initial_pose"] = pose
        bad = tmp_path / "bad_pose.json"
        bad.write_text(json.dumps(doc))
        code = run(
            [
                "refine-poses", "--config", tmp_path / "config.json",
                "--observations", bad, "--out", tmp_path / "ref",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "document, flags, key",
        [
            ('{"generate": {"noise_sigma_px": NaN}}', [], "generate.noise_sigma_px"),
            ("{}", ["--noise", "nan"], "generate.noise_sigma_px"),
            ('{"cone": {"height_m": NaN}}', [], "cone.height_m"),
            ('{"intrinsics": {"cx_px": Infinity}}', [], "intrinsics.cx_px"),
            ('{"board": {"square_size_m": -Infinity}}', [], "board.square_size_m"),
            ('{"generate": {"noise_sigma_px": %s}}' % HUGE, [], "generate.noise_sigma_px"),
            ('{"cone": {"apex_m": [0, -%s, 0]}}' % HUGE, [], "cone.apex_m[1]"),
        ],
        ids=[
            "nan-noise", "nan-noise-flag", "nan-cone-height", "infinite-cx", "infinite-square",
            "huge-noise", "huge-negative-apex",
        ],
    )
    def test_non_finite_config_exits_2_and_writes_nothing(
        self, tmp_path, capsys, document, flags, key
    ):
        path = tmp_path / "bad.json"
        path.write_text(document)
        out = tmp_path / "data"
        assert run(["generate", "--config", path, "--out", out, *flags]) == 2
        assert f"config key {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("board", "square_size_m", 0.0, "board.square_size_m must be positive and finite"),
            ("board", "square_size_m", -0.03, "board.square_size_m must be positive and finite"),
            ("board", "square_size_m", float("nan"), "board.square_size_m must be finite"),
            ("board", "square_size_m", float("inf"), "board.square_size_m must be finite"),
            ("board", "corners_per_side", 1, "board.corners_per_side must be at least 2"),
            ("corner", "px", float("nan"), "corner pixels must hold finite numbers"),
            ("pose", "translation_m", [0.0, float("-inf"), 0.6], "translation_m must hold finite"),
            ("board", "square_size_m", int(HUGE), "board.square_size_m must be finite, got inf"),
            ("board", "corners_per_side", 10**30, "board.corners_per_side must fit a 64-bit"),
            ("corner", "j", 10**30, "corner indices must hold 64-bit integers"),
            ("corner", "px", -int(HUGE), "corner pixels must hold finite numbers"),
            ("pose", "translation_m", [0, 0, int(HUGE)], "translation_m must hold finite"),
            # corner (1, 4): true and 1.0 would load as index 1
            ("corner", "i", True, "corner indices must hold integers, got non-integer bool"),
            ("corner", "i", 1.0, "corner indices must hold integers, got non-integer float"),
        ],
        ids=[
            "zero-square", "negative-square", "nan-square", "infinite-square", "one-corner",
            "nan-px", "infinite-translation", "huge-square", "huge-corners", "huge-index",
            "huge-negative-px", "huge-translation", "bool-index", "integral-float-index",
        ],
    )
    def test_bad_observations_file_exits_3_and_writes_nothing(
        self, tmp_path, capsys, section, key, value, message
    ):
        data = generate_small(tmp_path)
        doc = json.loads((data / "observations.json").read_text())
        image = doc["images"][1]
        target = {"board": doc["board"], "corner": image["corners"][3], "pose": image["initial_pose"]}
        target[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "ref"
        capsys.readouterr()
        code = run(
            [
                "refine-poses", "--config", tmp_path / "config.json",
                "--observations", bad, "--out", out,
            ]
        )
        assert code == 3
        assert f"malformed observations: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--rate", "nan"], ["--rate", "inf"], ["--rate", "0"], ["--steps", "0"]],
        ids=["nan-rate", "infinite-rate", "zero-rate", "zero-steps"],
    )
    def test_bad_optimizer_flags_exit_2_before_any_work(self, tmp_path, monkeypatch, flags):
        data = generate_small(tmp_path)
        traces = count_cover_traces(monkeypatch)
        out = tmp_path / "fit"
        code = run(
            [
                "calibrate", "--config", tmp_path / "config.json", "--refine-poses",
                "--observations", data / "observations.json", "--out", out, *flags,
            ]
        )
        assert code == 2
        assert traces == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "case",
        ["missing", "directory", "non-utf-8", "truncated", "5000-digit", "deeply-nested",
         "401-digit"],
    )
    @pytest.mark.parametrize("reader", ["config", "observations", "fitted"])
    def test_unreadable_input_file_exits_typed_and_writes_nothing(
        self, tmp_path, capsys, reader, case
    ):
        # every input file goes through one reader; a config fails with 2, data with 3
        huge = {
            "config": '{"generate": {"noise_sigma_px": %s}}' % HUGE,
            "observations": '{"board": {"square_size_m": %s, "corners_per_side": 7}}' % HUGE,
            "fitted": fitted_surface_text(amplitudes_m=with_amplitude(int(HUGE))),
        }[reader]
        bad = tmp_path / "bad.json"
        if case == "directory":
            bad.mkdir()
        elif case != "missing":
            bad.write_bytes(
                {
                    "non-utf-8": b'{"generate": {"\xff": 1}}',
                    "truncated": b'{"board": {',
                    "5000-digit": b"[" + b"9" * 5000 + b"]",
                    "deeply-nested": b"[" * 200_000,
                    "401-digit": huge.encode(),
                }[case]
            )
        argv = {
            "config": ["generate", "--config", bad],
            "observations": ["refine-poses", "--observations", bad],
            "fitted": ["analyze", "--fitted", bad,
                       "--observations", generate_small(tmp_path) / "observations.json"],
        }[reader]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*argv, "--out", out]) == (2 if reader == "config" else 3)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        if case == "non-utf-8":
            assert "utf-8" in err
        if case == "401-digit":
            assert "must be finite" in err
        assert not out.exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestGenerate:
    def test_negative_seed_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "data"
        assert run(["generate", "--config", config, "--out", out, "--seed", -1]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not (out / "observations.json").exists()

    def test_writes_observations_and_ground_truth(self, tmp_path, capsys):
        data = generate_small(tmp_path)
        obs = load_observations(data / "observations.json")
        assert obs.n_images == 2
        assert obs.corners_per_side == 5
        truth = json.loads((data / "ground_truth.json").read_text())
        assert truth["seed"] == 7
        assert np.shape(truth["amplitudes_m"]) == (3, 3)
        assert len(truth["poses"]) == 2
        assert truth["scene_config"]["surface"]["amplitudes_m"] == truth["amplitudes_m"]
        assert re.search(r"pinhole RMSE: \d+\.\d+ cm", capsys.readouterr().out)

    def test_seed_changes_data(self, tmp_path):
        a = generate_small(tmp_path, out="a", seed=7)
        b = generate_small(tmp_path, out="b", seed=8)
        assert (a / "observations.json").read_text() != (b / "observations.json").read_text()

    def test_ground_truth_config_is_loadable(self, tmp_path):
        data = generate_small(tmp_path)
        truth = json.loads((data / "ground_truth.json").read_text())
        rewritten = tmp_path / "truth_config.json"
        rewritten.write_text(json.dumps(truth["scene_config"]))
        config = load_config(rewritten)
        assert config["surface"]["amplitudes_m"] == truth["amplitudes_m"]

    def test_pinhole_rmse_grows_with_amplitude_mean(self, tmp_path, capsys):
        rmse = {}
        for mean in (1e-6, 1e-4):
            overrides = dict(SMALL, generate={"n_images": 2, "amplitude_mean_m": mean})
            config = write_config(tmp_path, overrides, name=f"c{mean}.json")
            out = tmp_path / f"m{mean}"
            assert run(["generate", "--config", config, "--out", out, "--seed", 3]) == 0
            match = re.search(r"pinhole RMSE: (\d+\.\d+) cm", capsys.readouterr().out)
            rmse[mean] = float(match.group(1))
        assert rmse[1e-4] > rmse[1e-6]


class TestRefinePoses:
    def test_output_round_trips_and_costs_drop(self, tmp_path):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        out = tmp_path / "ref"
        code = run(
            [
                "refine-poses", "--config", config,
                "--observations", data / "observations.json", "--out", out,
            ]
        )
        assert code == 0
        report = json.loads((out / "refined_poses.json").read_text())["refinement"]
        # the data carries a real irregularity field, so the zero-field pose
        # fit must strictly improve on the true poses for every image
        for image in report["images"]:
            assert image["final_cost_m2"] < image["initial_cost_m2"]
        refined = load_observations(out / "refined_poses.json")
        assert refined.n_images == 2

    def test_already_refined_input_is_a_no_op(self, tmp_path):
        data = generate_small(tmp_path, seed=5)
        config = tmp_path / "config.json"
        once = tmp_path / "once"
        twice = tmp_path / "twice"
        for obs_path, out in (
            (data / "observations.json", once),
            (once / "refined_poses.json", twice),
        ):
            code = run(
                ["refine-poses", "--config", config, "--observations", obs_path, "--out", out]
            )
            assert code == 0
        before = load_observations(once / "refined_poses.json")
        after = load_observations(twice / "refined_poses.json")
        for im_before, im_after in zip(before.images, after.images):
            delta_t = np.abs(im_after.initial_pose.translation - im_before.initial_pose.translation)
            delta_r = np.abs(im_after.initial_pose.rotation - im_before.initial_pose.rotation)
            assert np.max(delta_t) < 1e-8
            assert np.max(delta_r) < 1e-8


class TestCalibrate:
    def test_report_and_fitted_file(self, tmp_path, capsys):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        out = tmp_path / "fit"
        code = run(
            [
                "calibrate", "--config", config,
                "--observations", data / "observations.json",
                "--out", out, "--steps", 40,
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].split() == [
            "set", "RMSE", "initial", "(cm)", "RMSE", "final", "(cm)", "rel.", "improvement"
        ]
        assert lines[-1].startswith("1 ")
        fitted = json.loads((out / "fitted_surface.json").read_text())
        assert fitted["rmse_final_cm"] < fitted["rmse_initial_cm"]
        assert len(fitted["loss_history_m2"]) == 41
        assert fitted["diverged_at_iteration"] is None
        assert fitted["options"]["step_count"] == 40
        expected_improvement = 100.0 * (1.0 - fitted["rmse_final_cm"] / fitted["rmse_initial_cm"])
        assert fitted["relative_improvement_pct"] == pytest.approx(expected_improvement)
        surface = load_fitted_surface(out / "fitted_surface.json")
        assert surface.grid == (3, 3)

    def test_summary_reuses_the_fit_kernels(self, tmp_path, monkeypatch):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        calls = count_kernel_calls(monkeypatch)
        code = run(
            [
                "calibrate", "--config", config,
                "--observations", data / "observations.json",
                "--out", tmp_path / "fit", "--steps", 3,
            ]
        )
        assert code == 0
        # one kernel matrix per image for the whole fit, final RMSE included
        assert len(calls) == load_observations(data / "observations.json").n_images

    def test_refinement_and_fit_share_one_cover_trace(self, tmp_path, monkeypatch):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        calls = count_cover_traces(monkeypatch)
        code = run(
            [
                "calibrate", "--config", config,
                "--observations", data / "observations.json",
                "--out", tmp_path / "fit", "--steps", 3, "--refine-poses",
            ]
        )
        assert code == 0
        # pose refinement, the cone-only RMSE and the fit all read one batch
        assert calls == [load_observations(data / "observations.json").n_corners]

    def test_grid_flag_overrides_config(self, tmp_path):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        out = tmp_path / "fit"
        code = run(
            [
                "calibrate", "--config", config,
                "--observations", data / "observations.json",
                "--out", out, "--steps", 5, "--grid", "2x4",
            ]
        )
        assert code == 0
        fitted = json.loads((out / "fitted_surface.json").read_text())
        assert np.shape(fitted["amplitudes_m"]) == (2, 4)

    def test_improvement_column_tracks_rounded_reports(self, tmp_path, capsys):
        # the printed column is the program's improvement, to two decimals,
        # also when the fit worsens
        for initial, final in ((0.1364, 0.0772), (0.1649, 0.0941), (0.1, 0.12)):
            cli._print_rmse_table(initial, final)
            row = capsys.readouterr().out.splitlines()[-1].split()
            assert row[-1] == f"{cli._relative_improvement_pct(initial, final):.2f}%"

        data = generate_small(tmp_path)
        out = tmp_path / "fit"
        code = run(
            [
                "calibrate", "--config", tmp_path / "config.json",
                "--observations", data / "observations.json",
                "--out", out, "--steps", 2,
            ]
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        fitted = json.loads((out / "fitted_surface.json").read_text())
        assert row == [
            "1",
            f"{fitted['rmse_initial_cm']:.6f}",
            f"{fitted['rmse_final_cm']:.6f}",
            f"{fitted['relative_improvement_pct']:.2f}%",
        ]

    def test_refine_poses_flag_recovers_shaken_poses(self, tmp_path):
        # corrupt the initial pose estimates by a couple of millimeters;
        # fitting amplitudes cannot absorb a rigid pose error, so the
        # --refine-poses run must come out ahead
        data = generate_small(tmp_path)
        doc = json.loads((data / "observations.json").read_text())
        rng = np.random.default_rng(17)
        for image in doc["images"]:
            pose = image["initial_pose"]
            pose["translation_m"] = [
                t + dt for t, dt in zip(pose["translation_m"], rng.normal(0.0, 0.002, 3))
            ]
        shaken = tmp_path / "shaken.json"
        shaken.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

        config = tmp_path / "config.json"
        finals = {}
        for flag, label in (((), "plain"), (("--refine-poses",), "refined")):
            out = tmp_path / label
            code = run(
                [
                    "calibrate", "--config", config, "--observations", shaken,
                    "--out", out, "--steps", 40, *flag,
                ]
            )
            assert code == 0
            finals[label] = json.loads((out / "fitted_surface.json").read_text())["rmse_final_cm"]
        assert finals["refined"] < finals["plain"]

    def test_malformed_fitted_file_raises(self, tmp_path):
        path = tmp_path / "fitted.json"
        for text in ('{"grid_rows": 2}', *BAD_FITTED.values()):
            path.write_text(text)
            with pytest.raises(DataError):
                load_fitted_surface(path)
        path.write_text(fitted_surface_text())
        assert load_fitted_surface(path).grid == (10, 10)


# a non-default surface section: its own patch, a 2x4 grid, an explicit beta
# and amplitudes of both signs
FITTED_SECTION = {
    "patch": {"s1_min_m": 0.032, "s1_max_m": 0.047, "s2_min_rad": -0.21, "s2_max_rad": 0.19},
    "grid_rows": 2,
    "grid_cols": 4,
    "beta_norm_sq": 0.0731,
    "amplitudes_m": [[1.5e-6, -2.25e-6, 0.0, 3.1e-7], [-1.1e-6, 4.5e-6, -3.5e-7, 2.0e-6]],
}


def assert_same_surface(got, expected):
    assert got.grid == expected.grid
    assert got.amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert float(got.beta).hex() == float(expected.beta).hex()
    assert got.patch == expected.patch


class TestFittedSurfaceFile:
    def test_config_section_round_trips(self):
        surface = surface_from_config({"surface": FITTED_SECTION})
        assert np.any(surface.amplitudes < 0.0) and np.any(surface.amplitudes > 0.0)
        back = surface_from_config({"surface": surface_to_config(surface)})
        assert_same_surface(back, surface)

    def test_calibrate_writes_a_config_surface_section(self, tmp_path, monkeypatch):
        data = generate_small(tmp_path)
        config = write_config(tmp_path, {**SMALL, "surface": FITTED_SECTION}, name="fit.json")
        fits = []
        optimize = cli.optimize_amplitudes

        def recording(*args):
            fits.append(optimize(*args))
            return fits[-1]

        monkeypatch.setattr(cli, "optimize_amplitudes", recording)
        out = tmp_path / "fit"
        argv = ["calibrate", "--config", config, "--observations", data / "observations.json"]
        assert run([*argv, "--out", out, "--steps", 3]) == 0
        path = out / "fitted_surface.json"
        assert_same_surface(load_fitted_surface(path), fits[0].surface)
        document = json.loads(path.read_text())
        section = surface_to_config(fits[0].surface)
        assert section.keys() == default_config()["surface"].keys()
        assert {key: document[key] for key in section} == section


def scatter_csv_writer_form(path, scatter):
    """The corner scatter CSV written through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image", "i", "j", "px", "py", "status", "dmx_m", "dmy_m", "err_m"])
        for image in scatter["images"]:
            for corner in image["corners"]:
                writer.writerow(
                    [image["index"], corner["i"], corner["j"], repr(corner["px"]),
                     repr(corner["py"]), corner["status"]]
                    + ["" if corner[k] is None else repr(corner[k])
                       for k in ("dmx_m", "dmy_m", "err_m")]
                )


def depth_curve_csv_writer_form(path, curves):
    """The depth-curve CSV written through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["px", "py", "inv_depth_per_m", "dpx", "dpy"])
        for curve in curves:
            for inv_depth, delta in zip(curve.inv_depths, curve.deltas):
                writer.writerow(
                    [repr(float(v)) for v in (curve.pixel[0], curve.pixel[1], inv_depth, *delta)]
                )


class TestAnalyze:
    def test_writes_all_outputs(self, tmp_path):
        data = generate_small(tmp_path)
        config = tmp_path / "config.json"
        fit = tmp_path / "fit"
        run(
            [
                "calibrate", "--config", config,
                "--observations", data / "observations.json", "--out", fit, "--steps", 40,
            ]
        )
        out = tmp_path / "an"
        code = run(
            [
                "analyze", "--config", config,
                "--observations", data / "observations.json",
                "--fitted", fit / "fitted_surface.json",
                "--out", out, "--stride", 400,
            ]
        )
        assert code == 0
        for name in (
            "distortion_field.csv",
            "depth_curves.csv",
            "depth_curves.json",
            "corner_scatter.csv",
            "corner_scatter.json",
        ):
            assert (out / name).exists(), name
        curves = json.loads((out / "depth_curves.json").read_text())["curves"]
        assert [c["pixel_px"] for c in curves] == [[820.0, 1232.0], [410.0, 1232.0]]
        assert all(c["r_squared"] > 0.99 for c in curves)
        # the fitted model evaluated on its own training corners must agree
        # with the calibrate report
        scatter = json.loads((out / "corner_scatter.json").read_text())
        fitted = json.loads((fit / "fitted_surface.json").read_text())
        assert scatter["rmse_cm"] == pytest.approx(fitted["rmse_final_cm"], rel=1e-12)
        rows = (out / "corner_scatter.csv").read_text().splitlines()
        assert rows[0] == "image,i,j,px,py,status,dmx_m,dmy_m,err_m"
        assert len(rows) == 1 + scatter["n_corners"] + sum(
            1
            for image in scatter["images"]
            for corner in image["corners"]
            if corner["err_m"] is None
        )

    def test_csv_bytes_match_the_csv_writer_form(self, tmp_path):
        from test_calibrate import scene_with_failures

        params, obs = scene_with_failures(np.random.default_rng(150))
        scatter = corner_error_scatter(params, obs)
        assert any(c["err_m"] is None for im in scatter["images"] for c in im["corners"])
        _write_scatter_csv(tmp_path / "scatter.csv", scatter)
        scatter_csv_writer_form(tmp_path / "scatter_ref.csv", scatter)
        assert (tmp_path / "scatter.csv").read_bytes() == (tmp_path / "scatter_ref.csv").read_bytes()

        cone_only = params.with_surface(
            params.surface.with_amplitudes(np.zeros(params.surface.grid))
        )
        curves = [
            distortion_vs_inverse_depth(cone_only, pixel, n_samples=7)
            for pixel in ((820.0, 1232.0), (410.5, 1000.25))
        ]
        _write_depth_curve_csv(tmp_path / "curves.csv", curves)
        depth_curve_csv_writer_form(tmp_path / "curves_ref.csv", curves)
        assert (tmp_path / "curves.csv").read_bytes() == (tmp_path / "curves_ref.csv").read_bytes()

    @pytest.mark.parametrize("flag, value", [("--depth", "inf"), ("--depth", "nan"),
                                             ("--inv-depth-max", "inf")])
    def test_non_finite_depth_exits_3(self, tmp_path, capsys, flag, value):
        data = generate_small(tmp_path)
        truth = json.loads((data / "ground_truth.json").read_text())
        config = tmp_path / "truth_config.json"
        config.write_text(json.dumps(truth["scene_config"]))
        out = tmp_path / "an"
        argv = ["analyze", "--config", config, "--observations", data / "observations.json"]
        assert run(argv + ["--out", out, "--stride", 400, flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        if flag == "--depth":
            # rejected before the field is traced or written
            assert list(out.iterdir()) == []

    def test_bad_inverse_depth_range_leaves_the_report_whole(self, tmp_path):
        data = generate_small(tmp_path)
        truth = json.loads((data / "ground_truth.json").read_text())
        config = tmp_path / "truth_config.json"
        config.write_text(json.dumps(truth["scene_config"]))
        out = tmp_path / "an"
        argv = ["analyze", "--config", config, "--observations", data / "observations.json",
                "--out", out, "--stride", 400]
        assert run(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 5
        # another depth, so a field written before the range check would differ
        for flag, value in (("--inv-depth-max", "inf"), ("--inv-depth-min", "0")):
            assert run(argv + ["--depth", 0.7, flag, value]) == 3
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before, flag

    def test_depth_curve_pixels_lie_on_a_small_sensor(self, tmp_path):
        data = generate_small(tmp_path)
        config = json.loads((data / "ground_truth.json").read_text())["scene_config"]
        config["intrinsics"] = {
            "fx_px": 639.59, "fy_px": 639.59, "cx_px": 416.5, "cy_px": 318.4,
            "width_px": 820, "height_px": 616,
        }
        path = tmp_path / "small_camera.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "an"
        argv = ["analyze", "--config", path, "--observations", data / "observations.json"]
        assert run([*argv, "--out", out, "--stride", 200]) == 0
        curves = json.loads((out / "depth_curves.json").read_text())["curves"]
        assert [c["pixel_px"] for c in curves] == [[205.0, 308.0], [102.5, 308.0]]

    def test_surface_from_config_amplitudes(self, tmp_path):
        data = generate_small(tmp_path)
        truth = json.loads((data / "ground_truth.json").read_text())
        config = tmp_path / "truth_config.json"
        config.write_text(json.dumps(truth["scene_config"]))
        out = tmp_path / "an"
        code = run(
            [
                "analyze", "--config", config,
                "--observations", data / "observations.json",
                "--out", out, "--stride", 800,
            ]
        )
        assert code == 0


class TestDeterminism:
    def test_all_subcommands_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        outputs = {}
        for label in ("a", "b"):
            base = tmp_path / label
            run(["generate", "--config", config, "--out", base / "data", "--seed", 11])
            run(
                [
                    "refine-poses", "--config", config,
                    "--observations", base / "data" / "observations.json",
                    "--out", base / "ref",
                ]
            )
            run(
                [
                    "calibrate", "--config", config,
                    "--observations", base / "data" / "observations.json",
                    "--out", base / "fit", "--steps", 30,
                ]
            )
            run(
                [
                    "analyze", "--config", config,
                    "--observations", base / "data" / "observations.json",
                    "--fitted", base / "fit" / "fitted_surface.json",
                    "--out", base / "an", "--stride", 400,
                ]
            )
            outputs[label] = {
                str(p.relative_to(base)): p.read_bytes()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            }
        assert sorted(outputs["a"]) == sorted(outputs["b"])
        assert len(outputs["a"]) == 9
        for name, blob in outputs["a"].items():
            assert blob == outputs["b"][name], name


# run in a fresh interpreter where importing scipy fails: this suite's own
# modules import it
COLD_START = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    sys.modules["scipy"] = None
    from conecal.cli import main

    config, base = sys.argv[1], Path(sys.argv[2])
    obs = str(base / "data" / "observations.json")
    refined = str(base / "ref" / "refined_poses.json")
    fitted = str(base / "fit" / "fitted_surface.json")
    for command, *rest in (
        ["generate", "--out", str(base / "data"), "--seed", "7"],
        ["refine-poses", "--observations", obs, "--out", str(base / "ref")],
        ["calibrate", "--observations", refined, "--out", str(base / "fit"),
         "--refine-poses", "--steps", "2"],
        ["analyze", "--observations", refined, "--fitted", fitted,
         "--out", str(base / "an"), "--stride", "400"],
    ):
        assert main([command, "--config", config, *rest]) == 0, command
    """
)


class TestColdStart:
    def test_pipeline_runs_without_scipy(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", COLD_START, str(write_config(tmp_path)), str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
