"""Distortion diagnostics: where does the cover move each pixel's view.

The distortion at a pixel is measured against a frontal plane: trace
the pixel through the cover to the plane ``z = depth``, project that
landing point with the bare pinhole model, and report the pixel
displacement. Every diagnostic lands through :func:`_frontal_deltas`; it and
the CSV writers work one :func:`~conecal.raytrace._row_blocks` block at a time.
Because the cover only displaces and redirects the ray before it leaves
the outer wall, each displacement component is an affine function of
inverse depth; the curve fit exposes the slope and intercept of that
relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import _rmse_cm
from .camera import pinhole_project
from .errors import DataError, _check_integer
from .observations import (
    ObservationSet,
    Records,
    _float_json_texts,
    _replacing,
    _scalar_text,
    write_json,
)
from .raytrace import (
    STAGE_NAMES,
    SceneParams,
    TraceStatus,
    _checked_pixels,
    _raise_for_status,
    _row_blocks,
    _trace_landed,
    _traced_by_blocks,
    trace_pixels,
)

_STATUS_NAMES = {int(st): "ok" if st == TraceStatus.OK else STAGE_NAMES[st] for st in TraceStatus}


def _frontal_deltas(params: SceneParams, pixels, depth):
    """``(deltas, status)`` of pixels landed on the frontal planes ``z = depth``
    (one depth, or one per row): each landing's pinhole projection minus its
    pixel, NaN where the trace failed, and the trace status; a ray leaving
    the cover away from its plane is a board-plane miss; a depth that is not
    positive and finite is a DataError. Traced :func:`_row_blocks` at a time."""
    pixels = _checked_pixels(depth, pixels)
    depth = np.broadcast_to(depth, pixels.shape[:1])
    if not np.all((depth > 0.0) & (depth < np.inf)):
        raise DataError("depth must be positive and finite")

    def frontal_block(block):
        at = pixels[block]
        # the points (0, 0, depth), exactly: depth is positive and finite
        batch = _trace_landed(params, np.eye(3), depth[block, None] * [0.0, 0.0, 1.0], at)
        ok = batch.status == TraceStatus.OK
        deltas = np.full_like(at, np.nan)
        deltas[ok] = pinhole_project(params.intrinsics, batch.x_board[ok]) - at[ok]
        return deltas, batch.status

    return _traced_by_blocks(pixels.shape[0], frontal_block)


def _write_csv(path, header: str, blocks) -> None:
    """Write ``header`` and, one write each, the texts that ``blocks`` yields (rows
    ending in newlines) into a file that replaces ``path`` once complete."""
    with _replacing(path) as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.write(block)


def distortion_vector(params: SceneParams, pixel, depth: float) -> np.ndarray:
    """Pixel displacement induced by the cover for a scene plane at ``depth``.

    The returned vector is ``(undistorted pixel) - (actual pixel)``: the
    pinhole projection of the point this pixel really sees, minus the
    pixel itself. Raises a stage-tagged error if the ray fails.
    """
    deltas, status = _frontal_deltas(params, np.reshape(pixel, (1, -1)), float(depth))
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
    _check_integer("stride", stride, DataError)
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

    def blocks():
        for block in _row_blocks(field.pixels.shape[0]):
            pixels = np.ascontiguousarray(field.pixels[block], dtype=np.float64)
            bits, inverse = np.unique(pixels.view(np.int64), return_inverse=True)
            texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            deltas = field.deltas[block]
            norms = np.hypot(deltas[:, 0], deltas[:, 1])
            yield "".join(
                f"{px},{py},{dx!r},{dy!r},{norm!r},{tails[st]}\n"
                for (px, py), (dx, dy), norm, st in zip(
                    texts[inverse.reshape(pixels.shape)].tolist(),
                    deltas.tolist(),
                    norms.tolist(),
                    field.status[block].tolist(),
                )
            )

    _write_csv(path, "px,py,dpx,dpy,norm,depth,status", blocks())


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
    frontal plane. A ``pixel`` that is not 2 numbers raises :class:`DataError`
    before it is traced; a trace failure raises its stage error; an exit
    ray that misses a depth plane raises :class:`DataError`.
    """
    lo, hi = float(inv_depth_range[0]), float(inv_depth_range[1])
    if not 0.0 < lo < hi < np.inf or 1.0 / lo == np.inf:
        raise DataError("inverse depth range must be positive, finite and increasing")
    _check_integer("n_samples", n_samples, DataError)
    if n_samples < 2:
        raise DataError("need at least two depth samples")
    pixel = np.asarray(pixel, dtype=np.float64)
    if pixel.shape != (2,):
        raise DataError(
            f"pixel must be one pixel (2 numbers per row, one row), got shape {pixel.shape}"
        )
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


@dataclass(frozen=True)
class CornerScatter:
    """Per-corner residuals under the full model, by column: one row per
    corner in image order, image ``k`` holding rows ``offsets[k]:offsets[k + 1]``."""

    offsets: np.ndarray  # (n_images + 1,)
    grid_ij: np.ndarray  # (N, 2) int, 1-based corner indices
    pixels: np.ndarray  # (N, 2)
    status: np.ndarray  # (N,) TraceStatus values
    residuals: np.ndarray  # (N, 2) board-plane residual (m), NaN where the trace failed
    errors: np.ndarray  # (N,) residual norm (m), NaN where the trace failed
    rmse_cm: float  # pooled over the traced corners
    n_corners: int  # corners that completed the trace


def corner_error_scatter(params: SceneParams, observations: ObservationSet) -> CornerScatter:
    """Per-corner residuals under the full model, grouped by image.

    Every image's corners are stacked, each row landing on its own image's
    pose, and traced :func:`_row_blocks` at a time; failed corners have NaN
    residuals and no part in the pooled RMSE, which is
    :func:`~conecal.calibrate.rmse_cm`'s.
    """
    corners = observations.stacked()

    def residual_block(block):
        batch = trace_pixels(params, corners.image_index[block], corners.pixels[block])
        return batch.board_local - corners.targets[block], batch.status

    rho, status = _traced_by_blocks(corners.targets.shape[0], residual_block)
    ok = status == TraceStatus.OK
    count = int(np.count_nonzero(ok))
    if count == 0:
        raise DataError("no corner completed the trace; nothing to report")
    rho[~ok] = np.nan
    return CornerScatter(
        offsets=corners.offsets,
        grid_ij=corners.grid_ij,
        pixels=corners.pixels,
        status=status,
        residuals=rho,
        errors=np.hypot(rho[:, 0], rho[:, 1]),
        # the loss's sum over the same rows, so the RMSE is ``rmse_cm``'s bits
        rmse_cm=_rmse_cm(float(np.sum(rho[ok] ** 2)), count),
        n_corners=count,
    )


_SCATTER_KEYS = ("i", "j", "px", "py", "status", "dmx_m", "dmy_m", "err_m")
_JSON_STATUS = {st: _scalar_text(name) for st, name in _STATUS_NAMES.items()}


def write_corner_scatter(scatter: CornerScatter, json_path, csv_path) -> None:
    """Write the scatter as JSON and as CSV, in one pass over the images.

    The JSON is ``{"images": [{"index", "corners": [{"i", "j", "px", "py",
    "status", "dmx_m", "dmy_m", "err_m"}, ...]}, ...], "n_corners",
    "rmse_cm"}``, as :func:`~conecal.observations.write_json` writes it;
    the CSV has one row per corner, ``image,i,j,px,py,status,dmx_m,dmy_m,err_m``.
    A failed corner's residuals are null in the JSON and empty in the CSV.
    Each image's numbers are formatted once, floats by ``float.__repr__``,
    and both files are written from those texts, so the working set is one
    image's rows. Each file replaces its target once complete.
    """
    offsets = scatter.offsets.tolist()

    def images(csv):
        for index, (start, stop) in enumerate(zip(offsets, offsets[1:])):
            rows = slice(start, stop)
            i, j = (list(map(int.__repr__, c)) for c in scatter.grid_ij[rows].T.tolist())
            px, py = (list(map(float.__repr__, c)) for c in scatter.pixels[rows].T.tolist())
            residuals = np.column_stack([scatter.residuals[rows], scatter.errors[rows]])
            status = scatter.status[rows].tolist()
            failed = [k for k, st in enumerate(status) if st != TraceStatus.OK]
            csv_texts, json_texts = [], []
            for column in residuals.T.tolist():
                texts = list(map(float.__repr__, column))
                csv_texts.append(_blanked(texts, failed))
                json_texts.append(_float_json_texts(texts, failed))
            row = f"{index}" + ",{}" * len(_SCATTER_KEYS) + "\n"
            status_names = [_STATUS_NAMES[st] for st in status]
            csv.write("".join(map(row.format, i, j, px, py, status_names, *csv_texts)))
            statuses = [_JSON_STATUS[st] for st in status]
            columns = [i, j, _float_json_texts(px), _float_json_texts(py), statuses, *json_texts]
            corners = Records(dict(zip(_SCATTER_KEYS, columns)))
            yield {"index": index, "corners": corners}

    with _replacing(csv_path) as csv:
        csv.write(",".join(("image", *_SCATTER_KEYS)) + "\n")
        write_json(
            json_path,
            {"images": images(csv), "n_corners": scatter.n_corners, "rmse_cm": scatter.rmse_cm},
        )


def _blanked(texts: list[str], rows: list[int]) -> list[str]:
    """``texts`` emptied at ``rows`` (the same list when there are none)."""
    if not rows:
        return texts
    texts = texts.copy()
    for k in rows:
        texts[k] = ""
    return texts
