"""Distortion diagnostics: where does the cover move each pixel's view.

The distortion at a pixel is measured against a frontal plane: trace
the pixel through the cover to the plane ``z = depth``, project that
landing point with the bare pinhole model, and report the pixel
displacement; every diagnostic lands through :func:`_frontal_deltas`.
Because the cover only displaces and redirects the ray before it leaves
the outer wall, each displacement component is an affine function of
inverse depth; the curve fit exposes the slope and intercept of that
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .camera import pinhole_project, pixel_to_ray
from .errors import DataError
from .observations import ObservationSet, _replacing
from .raytrace import (
    STAGE_NAMES,
    SceneParams,
    TraceStatus,
    _land_on_board,
    _raise_for_status,
    _trace_batch,
    trace_pixels,
)

_STATUS_NAMES = {int(st): "ok" if st == TraceStatus.OK else STAGE_NAMES[st] for st in TraceStatus}

# Rows traced at a time and rows formatted per CSV write: the diagnostics'
# working set stays a block, however many samples or rows an output holds.
# Every step is row-wise, so the block size does not change a bit.
_FIELD_BLOCK_ROWS = 4096
_CSV_BLOCK_ROWS = 4096


def _frontal_deltas(params: SceneParams, pixels: np.ndarray, depth):
    """``(deltas, status)`` of pixels landed on the frontal planes ``z = depth``
    (one depth, or one per row): each landing's pinhole projection minus its
    pixel, NaN where the trace failed, and the trace status; a ray leaving
    the cover away from its plane is a board-plane miss; a depth that is not
    positive and finite is a DataError. Traced ``_FIELD_BLOCK_ROWS`` at a time."""
    depth = np.broadcast_to(depth, pixels.shape[:1])
    if not np.all((depth > 0.0) & (depth < np.inf)):
        raise DataError("depth must be positive and finite")
    deltas = np.empty_like(pixels)
    status = np.empty(pixels.shape[0], dtype=np.int64)
    for start in range(0, pixels.shape[0], _FIELD_BLOCK_ROWS):
        block = slice(start, start + _FIELD_BLOCK_ROWS)
        deltas[block], status[block] = _frontal_block(params, pixels[block], depth[block])
    return deltas, status


def _frontal_block(params: SceneParams, pixels: np.ndarray, depth: np.ndarray):
    """:func:`_frontal_deltas` of one block, with one depth per row; its
    trace is released on return, before the next block is traced."""
    dirs = pixel_to_ray(params.intrinsics, pixels)
    batch = _trace_batch(params.cone, params.surface, np.zeros_like(dirs), dirs)
    plane = np.zeros_like(dirs)
    plane[:, 2] = depth
    batch = _land_on_board(batch, np.eye(3), plane)
    ok = batch.status == TraceStatus.OK
    deltas = np.full_like(pixels, np.nan)
    if np.any(ok):
        deltas[ok] = pinhole_project(params.intrinsics, batch.x_board[ok]) - pixels[ok]
    return deltas, batch.status


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and the row texts the iterable ``rows`` yields, one
    line each, ``_CSV_BLOCK_ROWS`` rows per write, into a file that replaces
    ``path`` once complete, as :func:`~conecal.observations.write_json` does."""
    rows = iter(rows)
    with _replacing(path) as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, _CSV_BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def distortion_vector(params: SceneParams, pixel, depth: float) -> np.ndarray:
    """Pixel displacement induced by the cover for a scene plane at ``depth``.

    The returned vector is ``(undistorted pixel) - (actual pixel)``: the
    pinhole projection of the point this pixel really sees, minus the
    pixel itself. Raises a stage-tagged error if the ray fails.
    """
    pixel = np.asarray(pixel, dtype=np.float64)
    deltas, status = _frontal_deltas(params, pixel[None, :], float(depth))
    _raise_for_status(int(status[0]))
    return deltas[0]


@dataclass(frozen=True)
class DistortionField:
    """Displacement vectors sampled on a regular pixel grid."""

    depth: float
    stride: int
    pixels: np.ndarray  # (M, 2)
    deltas: np.ndarray  # (M, 2), NaN where the trace failed
    status: np.ndarray  # (M,) TraceStatus values


def distortion_field(params: SceneParams, depth: float, stride: int = 40) -> DistortionField:
    """Distortion vectors over the sensor at one scene depth.

    Samples start at pixel (0, 0) and step by ``stride`` in both axes,
    so doubling the stride yields a subset of the sample points.
    """
    if stride < 1:
        raise DataError("stride must be a positive pixel count")
    xs = np.arange(0.0, params.intrinsics.width, float(stride))
    ys = np.arange(0.0, params.intrinsics.height, float(stride))
    pixels = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    deltas, status = _frontal_deltas(params, pixels, float(depth))
    return DistortionField(
        depth=float(depth), stride=int(stride), pixels=pixels, deltas=deltas, status=status
    )


def write_distortion_csv(field: DistortionField, path) -> None:
    """Write one row per sample: px,py,dpx,dpy,norm,depth,status.

    Numbers are written as ``repr`` of the float and no field needs CSV
    quoting, so the rows are formatted directly from Python floats. The
    sample grid repeats a few hundred coordinates, so each block's distinct
    coordinates (by bit pattern) and each status's ``depth,status`` tail
    are formatted once.
    """
    depth = repr(field.depth)
    tails = {st: f"{depth},{name}" for st, name in _STATUS_NAMES.items()}

    def rows():
        for start in range(0, field.pixels.shape[0], _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            pixels = np.ascontiguousarray(field.pixels[block], dtype=np.float64)
            bits, inverse = np.unique(pixels.view(np.int64), return_inverse=True)
            texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            deltas = field.deltas[block]
            norms = np.hypot(deltas[:, 0], deltas[:, 1])
            for (px, py), (dx, dy), norm, st in zip(
                texts[inverse.reshape(pixels.shape)].tolist(),
                deltas.tolist(),
                norms.tolist(),
                field.status[block].tolist(),
            ):
                yield f"{px},{py},{dx!r},{dy!r},{norm!r},{tails[st]}"

    _write_csv(path, "px,py,dpx,dpy,norm,depth,status", rows())


@dataclass(frozen=True)
class DepthCurve:
    """Distortion of one pixel as a function of inverse depth.

    ``slope`` and ``intercept`` are per-component coefficients of the
    affine fit ``delta = slope * (1/depth) + intercept``;
    ``r_squared`` pools both components.
    """

    pixel: np.ndarray
    inv_depths: np.ndarray
    deltas: np.ndarray  # (N, 2)
    slope: np.ndarray  # (2,)
    intercept: np.ndarray  # (2,)
    r_squared: float

    @property
    def slope_norm(self) -> float:
        return float(np.hypot(self.slope[0], self.slope[1]))


def distortion_vs_inverse_depth(
    params: SceneParams,
    pixel,
    inv_depth_range: tuple[float, float] = (1.0 / 1.5, 1.0 / 0.3),
    n_samples: int = 25,
) -> DepthCurve:
    """Sample one pixel's distortion across depths and fit the affine law.

    The pixel is traced once per depth, each row landing on its own
    frontal plane. A trace failure raises its stage error; an exit ray
    that misses a depth plane raises :class:`DataError`.
    """
    lo, hi = float(inv_depth_range[0]), float(inv_depth_range[1])
    if not 0.0 < lo < hi < np.inf or 1.0 / lo == np.inf:
        raise DataError("inverse depth range must be positive, finite and increasing")
    if n_samples < 2:
        raise DataError("need at least two depth samples")
    pixel = np.asarray(pixel, dtype=np.float64)
    inv_depths = np.linspace(lo, hi, n_samples)
    deltas, status = _frontal_deltas(params, np.tile(pixel, (n_samples, 1)), 1.0 / inv_depths)
    if np.any(status != TraceStatus.OK):
        # every row is the same ray, so a failure before the landing is in row 0
        if status[0] != TraceStatus.MISS_BOARD:
            _raise_for_status(int(status[0]))
        raise DataError("ray leaves the cover without reaching every depth plane")

    slope = np.empty(2)
    intercept = np.empty(2)
    ss_res = 0.0
    ss_tot = 0.0
    for c in range(2):
        coeffs = np.polyfit(inv_depths, deltas[:, c], 1)
        slope[c], intercept[c] = coeffs
        pred = np.polyval(coeffs, inv_depths)
        ss_res += float(np.sum((deltas[:, c] - pred) ** 2))
        ss_tot += float(np.sum((deltas[:, c] - np.mean(deltas[:, c])) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DepthCurve(
        pixel=pixel,
        inv_depths=inv_depths,
        deltas=deltas,
        slope=slope,
        intercept=intercept,
        r_squared=float(r_squared),
    )


def corner_error_scatter(params: SceneParams, observations: ObservationSet) -> dict:
    """Per-corner residuals under the full model, grouped by image.

    Returns a JSON-ready dict: for every corner its pixel, grid index,
    board-plane residual (meters) and trace status; failed corners have
    null residuals. Includes the pooled RMSE over traced corners (cm).
    Every image's corners are traced in one batch, each row landing on
    its own image's pose.
    """
    corners = observations.stacked()
    batch = trace_pixels(params, corners.image_index, corners.pixels)
    rho = batch.board_local - corners.targets
    ok = batch.status == TraceStatus.OK
    count = int(np.count_nonzero(ok))
    if count == 0:
        raise DataError("no corner completed the trace; nothing to report")
    # squared through libm pow, as a numpy scalar's ``** 2`` is (an array's
    # ``** 2`` multiplies, which rounds differently in the last bit), and
    # summed left to right, so the RMSE equals a corner-by-corner running sum
    sq = np.float_power(rho[ok, 0], 2) + np.float_power(rho[ok, 1], 2)
    total = float(np.cumsum(sq)[-1])

    records = []
    for (i, j), (px, py), st, (dmx, dmy), err in zip(
        corners.grid_ij.tolist(),
        corners.pixels.tolist(),
        batch.status.tolist(),
        rho.tolist(),
        np.hypot(rho[:, 0], rho[:, 1]).tolist(),
    ):
        if st != TraceStatus.OK:
            dmx = dmy = err = None
        records.append(
            {"i": i, "j": j, "px": px, "py": py, "status": _STATUS_NAMES[st],
             "dmx_m": dmx, "dmy_m": dmy, "err_m": err}
        )
    offsets = corners.offsets.tolist()
    return {
        "images": [
            {"index": index, "corners": records[start:stop]}
            for index, (start, stop) in enumerate(zip(offsets, offsets[1:]))
        ],
        "rmse_cm": float(np.sqrt(total / count) * 100.0),
        "n_corners": count,
    }
