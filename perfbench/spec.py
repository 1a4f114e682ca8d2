"""Names shared by the benchmark entry point, its worker and its tests.

This module imports nothing outside the standard library, so the entry
point can read it before it knows whether the source tree is present.
"""

from __future__ import annotations

import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"  # per-run working files, deleted when the run ends
OUT_DIR = ROOT / ".perfbench_out"  # result records and span dumps, kept

WORKLOADS = {
    "dense-capture": (
        "11 250 noisy corners, 10x10 grid, perturbed poses with --refine-poses: "
        "array and kernel work on ~9000x100 matrices, plus pose refinement"
    ),
    "survey": (
        "80 noisy 15x15 images generated, then the true surface analyzed at stride 10: "
        "amplitudes fixed while rays change, so fit-side caches are bypassed"
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "pipeline_ref": ("ref", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# name -> unit; every name is printed on every workload, 0 where the
# workload does not exercise that layer
PER_LAYER = {
    "cli.pipeline_s": "s",
    "reference.kernel_s": "s",
    "cli.generate_s": "s",
    "cli.calibrate_s": "s",
    "cli.analyze_s": "s",
    "cli.generate.self_s": "s",
    "cli.calibrate.self_s": "s",
    "cli.analyze.self_s": "s",
    "raytrace.trace_pixels.calls": "count",
    "raytrace.trace_pixels.rays": "count",
    "raytrace.trace_pixels.self_s": "s",
    "raytrace.trace_pixels.ns_per_ray": "ns",
    "raytrace.raycast_pixels.calls": "count",
    "raytrace.raycast_pixels.rays": "count",
    "raytrace.raycast_pixels.self_s": "s",
    "raytrace.failed.inner-intersection": "count",
    "raytrace.failed.inner-refraction": "count",
    "raytrace.failed.outer-intersection": "count",
    "raytrace.failed.outer-refraction": "count",
    "raytrace.failed.board-intersection": "count",
    "raytrace.failed.surface-normal": "count",
    "geometry.outer_surface_normal.calls": "count",
    "geometry.outer_surface_normal.self_s": "s",
    "geometry.rbf_kernel_terms.calls": "count",
    "geometry.rbf_kernel_terms.kernel_evals": "count",
    "geometry.rbf_kernel_terms.self_s": "s",
    "geometry.rbf_kernel_terms.bytes_computed": "bytes",
    "geometry.rbf_kernel_terms.repeat_input_ratio": "ratio",
    "calibrate.loss_gradient.calls": "count",
    "calibrate.loss_gradient.median_ms": "ms",
    "calibrate.loss_gradient.p_hi_ms": "ms",
    "calibrate.loss_gradient.p_hi_pct": "pct",
    "calibrate.loss_gradient.self_s": "s",
    "calibrate.loss.calls": "count",
    "calibrate.loss.self_s": "s",
    "calibrate.optimize_amplitudes.self_s": "s",
    "calibrate.rmse_summary_s": "s",
    "calibrate.refine_poses_s": "s",
    "calibrate.least_squares.calls": "count",
    "calibrate.least_squares.nfev": "count",
    "calibrate.active_corner_ratio": "ratio",
    "synth.project_corners.calls": "count",
    "synth.project_corners.self_s": "s",
    "synth.pose_attempts": "count",
    "synth.pose_accept_ratio": "ratio",
    "synth.raycasts_per_corner": "ratio",
    "analysis.distortion_field_s": "s",
    "analysis.write_distortion_csv_s": "s",
    "analysis.depth_curves_s": "s",
    "analysis.corner_error_scatter_s": "s",
    "observations.load_s": "s",
    "observations.save_s": "s",
    "observations.bytes": "bytes",
    "quality.fit_rmse_cm": "cm",
    "quality.report_rmse_cm": "cm",
    "quality.report_pinhole_rmse_cm": "cm",
    "tracing.spans": "count",
    "tracing.bookkeeping_s": "s",
    "tracing.overhead_s": "s",
    "tracing.overhead_ratio": "ratio",
}

# one BLAS/OpenMP thread in every process the benchmark starts: at most
# nproc, and free of thread-pool contention between runs
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def benchmark_json() -> dict:
    """The BENCHMARK.json document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 55,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _per_layer_better(name)}
            for name, unit in PER_LAYER.items()
        ],
    }


def _per_layer_better(name: str) -> str:
    higher = (
        "synth.pose_accept_ratio",
        "calibrate.active_corner_ratio",
    )
    return "higher" if name in higher else "lower"
