"""Tests of the benchmark itself: its contract, tracing and input preparation."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import conecal.cli
from conecal.calibrate import pinhole_rmse_cm
from conecal.config import cone_from_config, intrinsics_from_config, load_config, surface_from_config
from conecal.observations import load_observations
from conecal.raytrace import SceneParams

import spec
import tracing
import worker
import workloads

SMALL_SCENE = {
    "board": {"square_size_m": 0.03, "corners_per_side": 4},
    "generate": {"n_images": 2},
    "surface": {"grid_rows": 3, "grid_cols": 3},
}


def small_pipeline(rep, seed, run):
    """A seconds-long stand-in with the shape of a real workload."""
    workloads.write_json(rep / "scene.json", SMALL_SCENE)
    run("generate", ["generate", "--config", rep / "scene.json", "--out", rep / "data", "--seed", seed])
    run(
        "calibrate",
        [
            "calibrate",
            "--config", rep / "scene.json",
            "--observations", rep / "data/observations.json",
            "--steps", 3,
            "--refine-poses",
            "--out", rep / "fit",
        ],
    )
    run(
        "analyze",
        [
            "analyze",
            "--config", rep / "scene.json",
            "--observations", rep / "data/observations.json",
            "--fitted", rep / "fit/fitted_surface.json",
            "--stride", 400,
            "--out", rep / "report",
        ],
    )


def site_objects():
    objects = []
    for module_name, path, *_ in tracing.WRAPPED:
        owner, attr = tracing._resolve(module_name, path)
        objects.append(owner.__dict__[attr])
    return objects


@pytest.fixture
def traced_pair(tmp_path):
    reps, tracer = worker.run_repetitions(
        conecal.cli, small_pipeline, tmp_path, seed=3, seconds=0.0, trace=True, run_id="test"
    )
    return reps, tracer


# ---------------------------------------------------------------------------
# the contract


def test_benchmark_json_matches_spec():
    on_disk = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_metric_and_workload_names_are_valid():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(spec.NAME_RE.fullmatch(name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert spec.UNIT_RE.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0.0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert {w["name"] for w in doc["workloads"]} == set(workloads.PIPELINES)


def test_traced_run_reports_every_per_layer_metric(traced_pair):
    reps, tracer = traced_pair
    quality = {"fit_rmse_cm": 1.0, "report_rmse_cm": 1.0, "report_pinhole_rmse_cm": 2.0}
    layers = worker.per_layer_metrics(tracer, reps[0], reps[1], quality)
    assert set(layers) == set(spec.PER_LAYER)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in layers.values())
    assert layers["calibrate.loss_gradient.calls"] == 3
    assert layers["calibrate.least_squares.calls"] == 2  # one per image
    assert layers["synth.pose_attempts"] >= 2
    assert 0.0 < layers["geometry.rbf_kernel_terms.repeat_input_ratio"] < 1.0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(spec.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# tracing


def test_wrappers_are_restored_even_after_an_error():
    before = site_objects()
    tracer = tracing.Tracer("test")
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            during = site_objects()
            raise RuntimeError("boom")
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, site_objects()))


def test_untraced_repetitions_install_nothing(tmp_path):
    before = site_objects()
    seen = []

    def probe(rep, seed, run):
        seen.append(site_objects())
        run("generate", ["generate", "--out", rep / "data", "--images", 1, "--seed", seed])

    reps, tracer = worker.run_repetitions(
        conecal.cli, probe, tmp_path, seed=1, seconds=0.0, trace=False, run_id="test"
    )
    assert tracer is None and len(reps) == 2
    assert all(a is b for snapshot in seen for a, b in zip(before, snapshot))


def test_self_times_add_up_to_each_command_span(traced_pair):
    _, tracer = traced_pair
    commands = [s for s in tracer.spans if s.name.startswith("cli.")]
    assert [s.name for s in commands] == ["cli.generate", "cli.calibrate", "cli.analyze"]
    bookkeeping = 0.0
    for command in commands:
        inside = [s for s in tracer.spans if s.command == command.name[4:]]
        children = [s for s in inside if s.parent is not None]
        assert children, command.name
        # bookkeeping is the one part of a command's time that no span owns
        unowned = command.duration - sum(s.self_s for s in inside)
        assert unowned >= 0.0
        bookkeeping += unowned
    assert bookkeeping == pytest.approx(tracer.bookkeeping_s, rel=1e-6, abs=1e-9)


def test_nested_spans_self_time():
    tracer = tracing.Tracer("test")
    with tracer.command("generate") as root:
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
    assert inner.parent == outer.index and outer.parent == root.index
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)
    assert root.self_s + outer.self_s + inner.self_s == pytest.approx(root.duration)


# ---------------------------------------------------------------------------
# inputs and references


def fake_observations(n_images):
    return {
        "board": {"square_size_m": 0.015, "corners_per_side": 15},
        "images": [
            {
                "index": i,
                "initial_pose": {
                    "rotation_rowmajor": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                    "translation_m": [0.0, 0.0, 0.5 + 0.01 * i],
                },
                "corners": [{"i": 1, "j": 1, "px": 100.0 + i, "py": 200.0}],
            }
            for i in range(n_images)
        ],
    }


def test_input_preparation_is_deterministic_for_a_seed():
    obs = fake_observations(50)
    first = json.dumps(workloads.perturb_and_split(obs, 7))
    assert json.dumps(workloads.perturb_and_split(obs, 7)) == first
    assert json.dumps(workloads.perturb_and_split(obs, 8)) != first
    assert json.dumps(obs) == json.dumps(fake_observations(50))  # input untouched


def test_split_holds_out_true_poses_and_perturbs_the_rest():
    obs = fake_observations(50)
    fit, held_out = workloads.perturb_and_split(obs, 7)
    assert [im["index"] for im in fit["images"]] == list(range(40))
    assert [im["index"] for im in held_out["images"]] == list(range(10))
    assert [im["initial_pose"] for im in held_out["images"]] == [
        im["initial_pose"] for im in obs["images"][40:]
    ]
    shifts = [
        math.dist(a["initial_pose"]["translation_m"], b["initial_pose"]["translation_m"])
        for a, b in zip(fit["images"], obs["images"])
    ]
    rms = math.sqrt(sum(s * s for s in shifts) / len(shifts))
    assert 0.5 * workloads.POSE_NOISE_M < rms < 1.5 * workloads.POSE_NOISE_M


def test_pinhole_reference_matches_the_program(tmp_path):
    config = tmp_path / "scene.json"
    workloads.write_json(config, SMALL_SCENE)
    assert conecal.cli.main(["generate", "--config", str(config), "--out", str(tmp_path), "--seed", "5"]) == 0
    obs = workloads.read_json(tmp_path / "observations.json")
    truth = workloads.read_json(tmp_path / "ground_truth.json")["scene_config"]
    observations = load_observations(tmp_path / "observations.json")
    cfg = load_config(str(config))
    params = SceneParams(
        intrinsics_from_config(cfg), cone_from_config(cfg), surface_from_config(cfg),
        observations.initial_poses(),
    )
    expected = pinhole_rmse_cm(params, observations)
    assert workloads.pinhole_rmse_cm(truth["intrinsics"], obs) == pytest.approx(expected, rel=1e-12)
