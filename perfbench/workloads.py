"""Workload pipelines, seeded input preparation and correctness gates.

Every workload drives the real user path, ``conecal.cli.main``, with
files only. Whatever the program receives (scene configs, perturbed
initial poses, the held-out split, the survey's truth config) is made
here from the workload seed, outside the timed commands.

The gates check outputs against references computed here with plain
numpy, independent of the program: the pinhole RMSE of an observation
file and the board-plane noise floor that pixel noise implies.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DENSE_STEPS = 20  # Adam steps of the dense fit: ~6 s, so a 55 s run holds ~5 repetitions
DENSE_FIT_IMAGES = 40  # images 0..39 are fitted, the rest are held out
POSE_NOISE_RAD = math.radians(0.3)  # rms rotation error of the perturbed initial poses
POSE_NOISE_M = 0.002  # rms translation error of the perturbed initial poses
NOISE_PX = 0.5
SURVEY_STRIDE = 10

DENSE_SCENE = {
    "board": {"square_size_m": 0.015, "corners_per_side": 15},
    "generate": {"n_images": 50, "noise_sigma_px": NOISE_PX},
    "surface": {"grid_rows": 10, "grid_cols": 10},
}
SURVEY_SCENE = {
    "board": {"square_size_m": 0.015, "corners_per_side": 15},
    # boards within half the field of view: the pose sampler then accepts
    # ~0.93 of its attempts instead of ~0.6, so the work of generate varies
    # by ~4 % between seeds instead of ~9 %
    "generate": {"n_images": 80, "noise_sigma_px": NOISE_PX, "lateral_margin": 0.5},
}


class CommandFailed(Exception):
    """A CLI command of the pipeline did not exit 0."""


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# seeded input preparation


def perturb_and_split(observations: dict, seed: int) -> tuple[dict, dict]:
    """Fit set with perturbed initial poses, and a held-out set with true poses.

    The perturbation stream is seeded by the workload seed alone and
    consumed in image order: a rotation vector and a translation offset
    per fitted image, each isotropic Gaussian with the rms given above.
    Held-out images are renumbered from 0, as observation files require.
    """
    rng = np.random.default_rng([seed, 1])
    fit = dict(observations, images=[])
    held_out = dict(observations, images=[])
    for image in sorted(observations["images"], key=lambda im: im["index"]):
        if image["index"] >= DENSE_FIT_IMAGES:
            held_out["images"].append(dict(image, index=image["index"] - DENSE_FIT_IMAGES))
            continue
        pose = image["initial_pose"]
        rot = np.array(pose["rotation_rowmajor"], dtype=np.float64).reshape(3, 3)
        omega = rng.normal(0.0, POSE_NOISE_RAD / math.sqrt(3.0), 3)
        shift = rng.normal(0.0, POSE_NOISE_M / math.sqrt(3.0), 3)
        perturbed = {
            "rotation_rowmajor": [float(v) for v in (_rodrigues(omega) @ rot).ravel()],
            "translation_m": [float(v) for v in np.asarray(pose["translation_m"]) + shift],
        }
        fit["images"].append(dict(image, initial_pose=perturbed))
    return fit, held_out


def _rodrigues(omega: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(omega))
    if theta == 0.0:
        return np.eye(3)
    k = omega / theta
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


# ---------------------------------------------------------------------------
# independent references


def _pinhole_local(intrinsics: dict, rot: np.ndarray, trans: np.ndarray, pixels: np.ndarray):
    dirs = np.column_stack(
        [
            (pixels[:, 0] - intrinsics["cx_px"]) / intrinsics["fx_px"],
            (pixels[:, 1] - intrinsics["cy_px"]) / intrinsics["fy_px"],
            np.ones(len(pixels)),
        ]
    )
    normal = rot[:, 2]
    points = dirs * ((trans @ normal) / (dirs @ normal))[:, None]
    rel = points - trans
    return np.column_stack([rel @ rot[:, 0], rel @ rot[:, 1]])


def _images(observations: dict):
    board = observations["board"]
    mid = (board["corners_per_side"] + 1) / 2.0
    for image in observations["images"]:
        pose = image["initial_pose"]
        rot = np.array(pose["rotation_rowmajor"], dtype=np.float64).reshape(3, 3)
        trans = np.array(pose["translation_m"], dtype=np.float64)
        corners = image["corners"]
        ij = np.array([[c["i"], c["j"]] for c in corners], dtype=np.float64)
        pixels = np.array([[c["px"], c["py"]] for c in corners], dtype=np.float64)
        yield rot, trans, pixels, (ij - mid) * board["square_size_m"]


def pinhole_rmse_cm(intrinsics: dict, observations: dict) -> float:
    """RMS board-plane corner error of straight rays, at the file's poses."""
    sq = [
        np.sum((_pinhole_local(intrinsics, rot, trans, pixels) - board) ** 2, axis=-1)
        for rot, trans, pixels, board in _images(observations)
    ]
    return float(np.sqrt(np.mean(np.concatenate(sq))) * 100.0)


def noise_floor_rmse_cm(intrinsics: dict, observations: dict, sigma_px: float) -> float:
    """Board-plane RMSE that isotropic pixel noise alone produces.

    Each corner's pixel-to-board jacobian J comes from forward
    differences of the pinhole map; the expected squared error is
    sigma^2 |J|_F^2.
    """
    h = 1e-3
    sq = []
    for rot, trans, pixels, _ in _images(observations):
        base = _pinhole_local(intrinsics, rot, trans, pixels)
        jx = (_pinhole_local(intrinsics, rot, trans, pixels + [h, 0.0]) - base) / h
        jy = (_pinhole_local(intrinsics, rot, trans, pixels + [0.0, h]) - base) / h
        sq.append(sigma_px**2 * (np.sum(jx**2, axis=-1) + np.sum(jy**2, axis=-1)))
    return float(np.sqrt(np.mean(np.concatenate(sq))) * 100.0)


# ---------------------------------------------------------------------------
# pipelines: one repetition each; ``run`` times one CLI command


def dense_capture(rep: Path, seed: int, run) -> None:
    write_json(rep / "scene.json", DENSE_SCENE)
    run("generate", ["generate", "--config", rep / "scene.json", "--out", rep / "data", "--seed", seed])
    fit, held_out = perturb_and_split(read_json(rep / "data/observations.json"), seed)
    write_json(rep / "fit_observations.json", fit)
    write_json(rep / "heldout_observations.json", held_out)
    run(
        "calibrate",
        [
            "calibrate",
            "--config", rep / "scene.json",
            "--observations", rep / "fit_observations.json",
            "--refine-poses",
            "--grid", "10x10",
            "--steps", DENSE_STEPS,
            "--out", rep / "fit",
        ],
    )
    run(
        "analyze",
        [
            "analyze",
            "--config", rep / "scene.json",
            "--observations", rep / "heldout_observations.json",
            "--fitted", rep / "fit/fitted_surface.json",
            "--out", rep / "report",
        ],
    )


def survey(rep: Path, seed: int, run) -> None:
    write_json(rep / "scene.json", SURVEY_SCENE)
    run("generate", ["generate", "--config", rep / "scene.json", "--out", rep / "data", "--seed", seed])
    write_json(rep / "truth_config.json", read_json(rep / "data/ground_truth.json")["scene_config"])
    run(
        "analyze",
        [
            "analyze",
            "--config", rep / "truth_config.json",
            "--observations", rep / "data/observations.json",
            "--stride", SURVEY_STRIDE,
            "--out", rep / "report",
        ],
    )


PIPELINES = {"dense-capture": dense_capture, "survey": survey}


# ---------------------------------------------------------------------------
# correctness gates on one repetition's files: name -> (passed, detail)


def quality(workload: str, rep: Path) -> dict:
    """RMSEs the gates use: the fit's, the report's and the pinhole reference."""
    intrinsics = read_json(rep / "data/ground_truth.json")["scene_config"]["intrinsics"]
    report_obs = {
        "dense-capture": "heldout_observations.json",
        "survey": "data/observations.json",
    }[workload]
    observations = read_json(rep / report_obs)
    q = {
        "fit_rmse_cm": 0.0,
        "fit_initial_rmse_cm": 0.0,
        "report_rmse_cm": read_json(rep / "report/corner_scatter.json")["rmse_cm"],
        "report_pinhole_rmse_cm": pinhole_rmse_cm(intrinsics, observations),
        "noise_floor_rmse_cm": 0.0,
    }
    if (rep / "fit/fitted_surface.json").exists():
        fitted = read_json(rep / "fit/fitted_surface.json")
        q["fit_rmse_cm"] = fitted["rmse_final_cm"]
        q["fit_initial_rmse_cm"] = fitted["rmse_initial_cm"]
    if workload == "survey":
        q["noise_floor_rmse_cm"] = noise_floor_rmse_cm(intrinsics, observations, NOISE_PX)
    return q


def gates(workload: str, q: dict) -> dict:
    if workload == "dense-capture":
        return {
            "heldout_rmse<heldout_pinhole": (
                q["report_rmse_cm"] < q["report_pinhole_rmse_cm"],
                f"{q['report_rmse_cm']:.6f} < {q['report_pinhole_rmse_cm']:.6f} cm",
            ),
            "fit_rmse<initial_rmse": (
                q["fit_rmse_cm"] < q["fit_initial_rmse_cm"],
                f"{q['fit_rmse_cm']:.6f} < {q['fit_initial_rmse_cm']:.6f} cm",
            ),
        }
    floor_ratio = q["report_rmse_cm"] / q["noise_floor_rmse_cm"]
    pinhole_ratio = q["report_rmse_cm"] / q["report_pinhole_rmse_cm"]
    return {
        # the floor comes from the pinhole jacobian, which ignores the cover;
        # measured ratios sit near 0.94 (0.92-0.95 on seeds 501-510)
        "truth_rmse_at_noise_floor": (0.8 <= floor_ratio <= 1.2, f"{floor_ratio:.4f} x floor"),
        "truth_rmse<=0.05*pinhole": (pinhole_ratio <= 0.05, f"{pinhole_ratio:.3e}"),
    }


def identical_files(first: Path, other: Path) -> tuple[bool, str]:
    """Criterion 10 across repetitions: the same files with the same bytes."""
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    others = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    if files != others:
        return False, f"file lists differ: {sorted(set(files) ^ set(others))}"
    for rel in files:
        if (first / rel).read_bytes() != (other / rel).read_bytes():
            return False, f"{rel} differs"
    return True, f"{len(files)} files"
