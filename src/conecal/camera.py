"""Pinhole camera: intrinsics, pixel rays, and projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, _check_count


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels; the camera center is the frame origin."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ConfigurationError("focal lengths must be positive")
        _check_count("width", self.width, 1)
        _check_count("height", self.height, 1)


def pixel_to_ray(intrinsics: CameraIntrinsics, pixels) -> np.ndarray:
    """Unit direction of the back-projected pixel ray.

    Accepts ``(2,)`` or ``(..., 2)`` pixel coordinates; the ray origin is
    always the camera center.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    x = (pixels[..., 0] - intrinsics.cx) / intrinsics.fx
    y = (pixels[..., 1] - intrinsics.cy) / intrinsics.fy
    # (x, y, 1) over its norm, summed and divided as np.linalg.norm would
    norm = np.sqrt(x * x + y * y + 1.0)
    d = np.empty(pixels.shape[:-1] + (3,))
    d[..., 0] = x / norm
    d[..., 1] = y / norm
    d[..., 2] = 1.0 / norm
    return d


def pinhole_project(intrinsics: CameraIntrinsics, points) -> np.ndarray:
    """Project camera-frame points to pixels; points must lie in front."""
    points = np.asarray(points, dtype=np.float64)
    z = points[..., 2]
    if np.any(z <= 0.0):
        raise DataError("cannot project points at or behind the camera plane")
    return np.stack(
        [
            intrinsics.fx * points[..., 0] / z + intrinsics.cx,
            intrinsics.fy * points[..., 1] / z + intrinsics.cy,
        ],
        axis=-1,
    )
