"""Command-line workflows: generate, refine-poses, calibrate, analyze.

Every subcommand reads one scene configuration (JSON, see
:mod:`conecal.config`) plus flag overrides — flags win. Outputs are
deterministic for a fixed config and seed: JSON files use sorted keys,
CSV floats round-trip exactly, and nothing embeds timestamps or machine
paths.

Exit codes: 0 success, 2 configuration error (an output file that cannot
be written included), 3 data error (a ray that fails to trace through the
given surface included), 4 numerical divergence (argument parsing
failures also exit 2, via argparse). On exit 4, ``calibrate`` writes the
last stable iterate to ``fitted_surface.json`` when the evaluation of any
iterate after the first fails, the last iterate included, or when a step
takes the amplitudes out of range; it writes nothing when the evaluation
of iterate 0 fails. The file's ``loss_history_m2`` holds one entry per
evaluated iterate, N + 1 for a fit of N steps that succeeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import tempfile
from pathlib import Path

from .analysis import (
    _write_csv,
    corner_error_scatter,
    distortion_field,
    distortion_vs_inverse_depth,
    write_corner_scatter,
    write_distortion_csv,
)
from .calibrate import (
    OptimizerOptions,
    optimize_amplitudes,
    pinhole_rmse_cm,
    refine_poses,
    rmse_cm,
)
from .config import (
    cone_from_config,
    config_with_amplitudes,
    default_config,
    generate_from_config,
    intrinsics_from_config,
    load_config,
    surface_from_config,
    surface_to_config,
)
from .errors import (
    ConfigurationError,
    DataError,
    DivergenceError,
    RayTraceError,
    SingularSurfaceError,
)
from .geometry import RbfSurface
from .observations import (
    _pose_to_json,
    load_observations,
    observations_to_json_dict,
    read_json,
    save_observations,
    write_json,
)
from .raytrace import SceneParams
from .synth import generate_dataset


def _ensure_out(args, *names: str) -> list[Path]:
    """Paths of the outputs ``names`` in ``--out``, which is created with its
    missing parents; an ``--out`` no file can be made in, or an output that
    exists as a directory, is a ConfigurationError. Called before any work."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out).close()
    except FileExistsError as exc:
        raise ConfigurationError(f"--out {out}: exists and is not a directory") from exc
    except OSError as exc:
        raise ConfigurationError(f"--out {out}: {exc.strerror or exc}") from exc
    paths = [out / name for name in names]
    for path in paths:
        if path.is_dir():
            raise ConfigurationError(f"cannot write {path}: Is a directory")
    return paths


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

    settings = generate_from_config(config)
    observations_path, truth_path = _ensure_out(args, "observations.json", "ground_truth.json")
    dataset = generate_dataset(**settings, seed=args.seed)

    save_observations(dataset.observations, observations_path)
    truth_config = config_with_amplitudes(config, dataset.params.surface.amplitudes)
    write_json(
        truth_path,
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
    (refined_path,) = _ensure_out(args, "refined_poses.json")
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
    write_json(refined_path, refined)
    for report in result.reports:
        print(
            f"image {report.image_index}: cost {report.initial_cost:.6e} -> "
            f"{report.final_cost:.6e} m^2 ({report.n_valid} corners)"
        )


# ---------------------------------------------------------------------------
# calibrate


def _relative_improvement_pct(rmse_initial: float, rmse_final: float) -> float:
    return 100.0 * (1.0 - rmse_final / rmse_initial)


def load_fitted_surface(path) -> RbfSurface:
    """Rebuild the irregularity field written by the calibrate subcommand from
    its surface keys, read as a config ``surface`` section that stores amplitudes."""
    data = read_json(path, DataError, "fitted surface file")
    try:
        section = {key: data[key] for key in default_config()["surface"]}
        if section["amplitudes_m"] is None:
            raise ConfigurationError("key amplitudes_m must hold the fitted amplitudes")
        return surface_from_config({"surface": section})
    except (KeyError, TypeError, ConfigurationError) as exc:
        # a surface the config reader rejects is bad data in this file
        raise DataError(f"malformed fitted surface file {path}: {exc}") from exc


def _print_rmse_table(rmse_initial: float, rmse_final: float) -> None:
    improvement = _relative_improvement_pct(rmse_initial, rmse_final)
    print("set  RMSE initial (cm)  RMSE final (cm)  rel. improvement")
    print(f"1    {rmse_initial:<18.6f}{rmse_final:<17.6f}{improvement:.2f}%")


def cmd_calibrate(args) -> None:
    config = _apply_surface_overrides(load_config(args.config), args)
    options = OptimizerOptions(step_count=args.steps, learning_rate=args.rate)
    observations = load_observations(args.observations)
    start_surface = surface_from_config(config)
    params = _scene_for_observations(config, start_surface, observations)
    (fitted_path,) = _ensure_out(args, "fitted_surface.json")
    # the refinement, the cone-only RMSE and the fit share the set's one cover trace
    if args.refine_poses:
        params = refine_poses(params, observations).params

    zero = RbfSurface.flat(start_surface.patch, start_surface.grid, beta=start_surface.beta)
    rmse_initial = pinhole_rmse_cm(params, observations)
    rmse_cone_only = rmse_cm(params.with_surface(zero), observations)

    failure = None
    try:
        fit = optimize_amplitudes(params, observations, options)
    except DivergenceError as exc:
        if exc.last_stable is None:
            raise
        fit, failure = exc.last_stable, exc
    write_json(
        fitted_path,
        {
            **surface_to_config(fit.surface),
            "rmse_initial_cm": rmse_initial,
            "rmse_cone_only_cm": rmse_cone_only,
            "rmse_final_cm": fit.rmse_cm,
            "relative_improvement_pct": _relative_improvement_pct(rmse_initial, fit.rmse_cm),
            "loss_history_m2": [float(v) for v in fit.loss_history],
            "errored_rays": [
                {"image": image, "i": int(i), "j": int(j), "stage": stage}
                for image, i, j, stage in fit.errored
            ],
            "n_active_corners": fit.n_active,
            "options": dataclasses.asdict(options),
            "diverged_at_iteration": None if failure is None else failure.iteration,
        },
    )
    if failure is not None:
        print(f"saved last stable iterate to {fitted_path}", file=sys.stderr)
        raise failure
    _print_rmse_table(rmse_initial, fit.rmse_cm)


# ---------------------------------------------------------------------------
# analyze


def _write_depth_curve_csv(path: Path, curves) -> None:
    def blocks():
        for curve in curves:
            px, py = curve.pixel.tolist()
            yield "".join(
                f"{px!r},{py!r},{inv_depth!r},{dx!r},{dy!r}\n"
                for inv_depth, (dx, dy) in zip(curve.inv_depths.tolist(), curve.deltas.tolist())
            )

    _write_csv(path, "px,py,inv_depth_per_m,dpx,dpy", blocks())


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
    field_csv, curves_csv, curves_json, scatter_json, scatter_csv = _ensure_out(
        args, "distortion_field.csv", "depth_curves.csv", "depth_curves.json",
        "corner_scatter.json", "corner_scatter.csv",
    )
    # the depth curves are cheap and check the inverse-depth range, and the
    # field checks its depth and stride before it traces: no output file is
    # replaced until every argument has passed
    inv_range = (args.inv_depth_min, args.inv_depth_max)
    width, height = params.intrinsics.width, params.intrinsics.height
    curves = [
        distortion_vs_inverse_depth(params, pixel, inv_depth_range=inv_range)
        for pixel in ((width / 4, height / 2), (width / 8, height / 2))
    ]
    field = distortion_field(params, depth=args.depth, stride=args.stride)
    write_distortion_csv(field, field_csv)

    _write_depth_curve_csv(curves_csv, curves)
    write_json(
        curves_json,
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
    write_corner_scatter(scatter, scatter_json, scatter_csv)

    print(f"distortion field: {field.pixels.shape[0]} samples at depth {args.depth} m")
    print(f"corner RMSE under fitted model: {scatter.rmse_cm:.6f} cm")


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
    except (DataError, RayTraceError, SingularSurfaceError) as exc:
        # a ray the given surface cannot trace is a fault of the data
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
