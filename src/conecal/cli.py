"""Command-line workflows: generate, refine-poses, calibrate, analyze.

Every subcommand reads one scene configuration (JSON, see
:mod:`conecal.config`) plus flag overrides — flags win. Outputs are
deterministic for a fixed config and seed: JSON files use sorted keys,
CSV floats round-trip exactly, and nothing embeds timestamps or machine
paths.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
divergence (argument parsing failures also exit 2, via argparse).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .analysis import (
    _write_csv,
    corner_error_scatter,
    distortion_field,
    distortion_vs_inverse_depth,
    write_distortion_csv,
)
from .calibrate import (
    FitResult,
    OptimizerOptions,
    optimize_amplitudes,
    pinhole_rmse_cm,
    refine_poses,
    rmse_cm,
)
from .config import (
    amplitude_distribution_from_config,
    board_from_config,
    cone_from_config,
    config_with_amplitudes,
    default_config,
    generate_counts_from_config,
    intrinsics_from_config,
    load_config,
    pose_sampler_from_config,
    surface_from_config,
)
from .errors import ConfigurationError, DataError, DivergenceError
from .geometry import RbfSurface
from .observations import (
    _pose_to_json,
    load_observations,
    observations_to_json_dict,
    save_observations,
    write_json,
)
from .raytrace import SceneParams
from .synth import generate_dataset

DEFAULT_PROBE_PIXELS = ((820.0, 1232.0), (410.0, 1232.0))


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_grid(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match:
        raise ConfigurationError(f"--grid must look like ROWSxCOLS (e.g. 8x8), got {text!r}")
    rows, cols = int(match.group(1)), int(match.group(2))
    if rows < 1 or cols < 1:
        raise ConfigurationError("--grid needs at least one row and one column")
    return rows, cols


def _apply_surface_overrides(config: dict, args) -> dict:
    if getattr(args, "grid", None) is not None:
        rows, cols = _parse_grid(args.grid)
        config["surface"]["grid_rows"] = rows
        config["surface"]["grid_cols"] = cols
        # stored amplitudes belong to the configured grid, not the override
        config["surface"]["amplitudes_m"] = None
    return config


def _scene_for_observations(config: dict, surface: RbfSurface, observations) -> SceneParams:
    return observations.scene(intrinsics_from_config(config), cone_from_config(config), surface)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> None:
    config = _apply_surface_overrides(load_config(args.config), args)
    if args.images is not None:
        config["generate"]["n_images"] = args.images
    if args.noise is not None:
        config["generate"]["noise_sigma_px"] = args.noise

    template = surface_from_config(config)
    n_images, noise_sigma_px = generate_counts_from_config(config)
    square_size, corners_per_side = board_from_config(config)
    # stored amplitudes pin the ground truth; otherwise draw fresh ones
    dist = None
    if config["surface"]["amplitudes_m"] is None:
        dist = amplitude_distribution_from_config(config)
    dataset = generate_dataset(
        intrinsics_from_config(config),
        cone_from_config(config),
        template,
        n_images=n_images,
        square_size=square_size,
        corners_per_side=corners_per_side,
        amplitude_dist=dist,
        pose_sampler=pose_sampler_from_config(config),
        noise_sigma_px=noise_sigma_px,
        seed=args.seed,
    )

    out = _ensure_out(args)
    save_observations(dataset.observations, out / "observations.json")
    truth_config = config_with_amplitudes(config, dataset.params.surface.amplitudes)
    write_json(
        out / "ground_truth.json",
        {
            "seed": dataset.seed,
            "scene_config": truth_config,
            "amplitudes_m": truth_config["surface"]["amplitudes_m"],
            "poses": [
                {"index": i, **_pose_to_json(pose)}
                for i, pose in enumerate(dataset.params.poses)
            ],
        },
    )
    rmse = pinhole_rmse_cm(dataset.params, dataset.observations)
    print(f"generated {dataset.observations.n_images} images, "
          f"{dataset.observations.n_corners} corners")
    print(f"pinhole RMSE: {rmse:.6f} cm")


# ---------------------------------------------------------------------------
# refine-poses


def cmd_refine_poses(args) -> None:
    config = load_config(args.config)
    observations = load_observations(args.observations)
    params = _scene_for_observations(config, surface_from_config(config), observations)
    result = refine_poses(params, observations)

    refined = observations_to_json_dict(observations)
    for image, pose in zip(refined["images"], result.params.poses):
        image["initial_pose"] = _pose_to_json(pose)
    refined["refinement"] = {
        "images": [
            {
                "index": report.image_index,
                "initial_cost_m2": report.initial_cost,
                "final_cost_m2": report.final_cost,
                "n_valid_corners": report.n_valid,
            }
            for report in result.reports
        ],
    }
    out = _ensure_out(args)
    write_json(out / "refined_poses.json", refined)
    for report in result.reports:
        print(
            f"image {report.image_index}: cost {report.initial_cost:.6e} -> "
            f"{report.final_cost:.6e} m^2 ({report.n_valid} corners)"
        )


# ---------------------------------------------------------------------------
# calibrate


def _fitted_surface_json(
    fit: FitResult,
    rmse_initial: float,
    rmse_cone_only: float,
    options: OptimizerOptions,
    diverged_at: int | None,
) -> dict:
    surface = fit.surface
    patch = surface.patch
    return {
        "grid_rows": surface.grid[0],
        "grid_cols": surface.grid[1],
        "amplitudes_m": [[float(v) for v in row] for row in surface.amplitudes],
        "beta_norm_sq": surface.beta,
        "patch": {
            "s1_min_m": patch.s1_range[0],
            "s1_max_m": patch.s1_range[1],
            "s2_min_rad": patch.s2_range[0],
            "s2_max_rad": patch.s2_range[1],
        },
        "rmse_initial_cm": rmse_initial,
        "rmse_cone_only_cm": rmse_cone_only,
        "rmse_final_cm": fit.rmse_cm,
        "relative_improvement_pct": 100.0 * (1.0 - fit.rmse_cm / rmse_initial),
        "loss_history_m2": [float(v) for v in fit.loss_history],
        "errored_rays": [
            {"image": image, "i": int(i), "j": int(j), "stage": stage}
            for image, i, j, stage in fit.errored
        ],
        "n_active_corners": fit.n_active,
        "options": {
            "step_count": options.step_count,
            "learning_rate": options.learning_rate,
            "tolerance": options.tolerance,
        },
        "diverged_at_iteration": diverged_at,
    }


def load_fitted_surface(path) -> RbfSurface:
    """Rebuild the irregularity field written by the calibrate subcommand from
    its surface keys, read as a config ``surface`` section that stores amplitudes."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"fitted surface file not found: {path}")
    try:
        data = json.loads(path.read_text())
        section = {key: data[key] for key in default_config()["surface"]}
        if section["amplitudes_m"] is None:
            raise ConfigurationError("key amplitudes_m must hold the fitted amplitudes")
        return surface_from_config({"surface": section})
    except (json.JSONDecodeError, KeyError, TypeError, ConfigurationError) as exc:
        # a surface the config reader rejects is bad data in this file
        raise DataError(f"malformed fitted surface file {path}: {exc}") from exc


def _print_rmse_table(rmse_initial: float, rmse_final: float) -> None:
    improvement = 100.0 * (1.0 - rmse_final / rmse_initial)
    print("set  RMSE initial (cm)  RMSE final (cm)  rel. improvement")
    print(f"1    {rmse_initial:<18.6f}{rmse_final:<17.6f}{improvement:.2f}%")


def cmd_calibrate(args) -> None:
    config = _apply_surface_overrides(load_config(args.config), args)
    observations = load_observations(args.observations)
    start_surface = surface_from_config(config)
    params = _scene_for_observations(config, start_surface, observations)
    # the refinement, the cone-only RMSE and the fit share the set's one cover trace
    if args.refine_poses:
        params = refine_poses(params, observations).params

    zero = RbfSurface.flat(start_surface.patch, start_surface.grid, beta=start_surface.beta)
    rmse_initial = pinhole_rmse_cm(params, observations)
    rmse_cone_only = rmse_cm(params.with_surface(zero), observations)
    options = OptimizerOptions(step_count=args.steps, learning_rate=args.rate)

    out = _ensure_out(args)
    try:
        result = optimize_amplitudes(params, observations, options)
    except DivergenceError as exc:
        if exc.last_stable is None:
            raise
        write_json(
            out / "fitted_surface.json",
            _fitted_surface_json(
                exc.last_stable, rmse_initial, rmse_cone_only, options, exc.iteration
            ),
        )
        print(f"saved last stable iterate to {out / 'fitted_surface.json'}", file=sys.stderr)
        raise

    write_json(
        out / "fitted_surface.json",
        _fitted_surface_json(result, rmse_initial, rmse_cone_only, options, None),
    )
    _print_rmse_table(rmse_initial, result.rmse_cm)


# ---------------------------------------------------------------------------
# analyze


def _write_depth_curve_csv(path: Path, curves) -> None:
    def rows():
        for curve in curves:
            px, py = curve.pixel.tolist()
            for inv_depth, (dx, dy) in zip(curve.inv_depths.tolist(), curve.deltas.tolist()):
                yield f"{px!r},{py!r},{inv_depth!r},{dx!r},{dy!r}"

    _write_csv(path, "px,py,inv_depth_per_m,dpx,dpy", rows())


def _write_scatter_csv(path: Path, scatter: dict) -> None:
    """One row per corner; a failed corner's residual fields are empty."""

    def rows():
        for image in scatter["images"]:
            index = image["index"]
            for c in image["corners"]:
                dmx, dmy, err = c["dmx_m"], c["dmy_m"], c["err_m"]
                yield (
                    f"{index},{c['i']},{c['j']},{c['px']!r},{c['py']!r},{c['status']},"
                    f"{'' if dmx is None else repr(dmx)},{'' if dmy is None else repr(dmy)},"
                    f"{'' if err is None else repr(err)}"
                )

    _write_csv(path, "image,i,j,px,py,status,dmx_m,dmy_m,err_m", rows())


def cmd_analyze(args) -> None:
    config = load_config(args.config)
    observations = load_observations(args.observations)
    if args.fitted is not None:
        surface = load_fitted_surface(args.fitted)
    elif config["surface"]["amplitudes_m"] is not None:
        surface = surface_from_config(config)
    else:
        raise DataError(
            "no fitted surface: pass --fitted or store surface.amplitudes_m in the config"
        )
    params = _scene_for_observations(config, surface, observations)
    out = _ensure_out(args)

    field = distortion_field(params, depth=args.depth, stride=args.stride)
    write_distortion_csv(field, out / "distortion_field.csv")

    inv_range = (args.inv_depth_min, args.inv_depth_max)
    curves = [
        distortion_vs_inverse_depth(params, pixel, inv_depth_range=inv_range)
        for pixel in DEFAULT_PROBE_PIXELS
    ]
    _write_depth_curve_csv(out / "depth_curves.csv", curves)
    write_json(
        out / "depth_curves.json",
        {
            "inv_depth_range_per_m": [float(inv_range[0]), float(inv_range[1])],
            "curves": [
                {
                    "pixel_px": [float(curve.pixel[0]), float(curve.pixel[1])],
                    "slope_px_per_inv_m": [float(v) for v in curve.slope],
                    "intercept_px": [float(v) for v in curve.intercept],
                    "r_squared": curve.r_squared,
                    "slope_norm_px_per_inv_m": curve.slope_norm,
                }
                for curve in curves
            ],
        },
    )

    scatter = corner_error_scatter(params, observations)
    write_json(out / "corner_scatter.json", scatter)
    _write_scatter_csv(out / "corner_scatter.csv", scatter)

    print(f"distortion field: {field.pixels.shape[0]} samples at depth {args.depth} m")
    print(f"corner RMSE under fitted model: {scatter['rmse_cm']:.6f} cm")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecal",
        description="Calibrate and analyze a camera behind a conical refractive cover.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--config", default=None, help="scene configuration JSON file")
        sub.add_argument("--out", default=".", help="output directory (created if missing)")

    generate = subparsers.add_parser(
        "generate", help="synthesize a checkerboard dataset behind the cover"
    )
    add_common(generate)
    generate.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    generate.add_argument("--images", type=int, default=None, help="number of board images")
    generate.add_argument(
        "--grid",
        default=None,
        help="surface center grid ROWSxCOLS; clears amplitudes stored in the config",
    )
    generate.add_argument("--noise", type=float, default=None, help="corner noise sigma in px")
    generate.set_defaults(func=cmd_generate)

    refine = subparsers.add_parser(
        "refine-poses", help="refine board poses under the perfect-cone model"
    )
    add_common(refine)
    refine.add_argument("--observations", required=True, help="observations JSON file")
    refine.set_defaults(func=cmd_refine_poses)

    calibrate = subparsers.add_parser(
        "calibrate", help="fit the irregularity-field amplitudes to observed corners"
    )
    add_common(calibrate)
    calibrate.add_argument("--observations", required=True, help="observations JSON file")
    calibrate.add_argument(
        "--steps", type=int, default=1000, help="descent steps (default 1000; synthetic runs use 500)"
    )
    calibrate.add_argument("--rate", type=float, default=1e-6, help="learning rate (default 1e-6)")
    calibrate.add_argument(
        "--grid", default=None, help="fitting center grid ROWSxCOLS (default from config)"
    )
    calibrate.add_argument(
        "--refine-poses",
        action="store_true",
        help="refine board poses under the perfect-cone model before fitting",
    )
    calibrate.set_defaults(func=cmd_calibrate)

    analyze = subparsers.add_parser(
        "analyze", help="distortion field, inverse-depth curves, per-corner residuals"
    )
    add_common(analyze)
    analyze.add_argument("--observations", required=True, help="observations JSON file")
    analyze.add_argument("--fitted", default=None, help="fitted surface JSON from calibrate")
    analyze.add_argument("--depth", type=float, default=1.0, help="field depth in m (default 1)")
    analyze.add_argument("--stride", type=int, default=40, help="field pixel stride (default 40)")
    analyze.add_argument(
        "--inv-depth-min", type=float, default=0.5, help="curve range start in 1/m (default 0.5)"
    )
    analyze.add_argument(
        "--inv-depth-max", type=float, default=10.0, help="curve range end in 1/m (default 10)"
    )
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
