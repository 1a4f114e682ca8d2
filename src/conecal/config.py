"""Scene configuration: a single JSON document with unit-bearing keys.

One file describes everything a run needs — camera intrinsics, cone
geometry, irregularity-field layout, board dimensions, and the sampling
ranges used for synthetic data. Every numeric key carries its unit as a
suffix (``_m``, ``_rad``, ``_deg``, ``_px``) so a document is readable
without consulting the code. Values omitted from a user file fall back
to the defaults below; unknown keys are rejected so typos fail loudly
instead of being silently ignored.

Schema (defaults shown)::

    {
      "intrinsics": {
        "fx_px": 2558.36, "fy_px": 2558.36,
        "cx_px": 1666.03, "cy_px": 1273.65,
        "width_px": 3280, "height_px": 2464
      },
      "cone": {
        "apex_m": [0.0, 0.04, -0.0015],
        "half_angle_rad": 0.0872664625997165,
        "height_m": 0.05,
        "radial_thickness_m": 0.003,
        "eta_inside": 1.5,
        "eta_outside": 1.0
      },
      "surface": {
        "patch": {
          "s1_min_m": 0.03, "s1_max_m": 0.05,
          "s2_min_rad": -0.261799387799149, "s2_max_rad": 0.261799387799149
        },
        "grid_rows": 8, "grid_cols": 8,
        "beta_norm_sq": null,        # null -> product of center spacings
        "amplitudes_m": null         # null -> flat; else rows x cols floats
      },
      "board": {"square_size_m": 0.03, "corners_per_side": 7},
      "generate": {
        "n_images": 10,
        "amplitude_mean_m": 1e-05, "amplitude_sigma_m": 2.5e-06,
        "noise_sigma_px": 0.0,
        "depth_min_m": 0.3, "depth_max_m": 1.5,
        "rotation_range_deg": 25.0,
        "lateral_margin": 0.85,
        "max_attempts": 100
      }
    }
"""

from __future__ import annotations

import copy
import math
import os

import numpy as np

from .camera import CameraIntrinsics
from .errors import ConfigurationError
from .geometry import ConeGeometry, RbfPatch, RbfSurface
from .observations import _check_board, _json_number, read_json
from .synth import AmplitudeDistribution, PoseSampler

_DEFAULTS: dict = {
    "intrinsics": {
        "fx_px": 2558.36,
        "fy_px": 2558.36,
        "cx_px": 1666.03,
        "cy_px": 1273.65,
        "width_px": 3280,
        "height_px": 2464,
    },
    "cone": {
        "apex_m": [0.0, 0.04, -0.0015],
        "half_angle_rad": math.radians(5.0),
        "height_m": 0.05,
        "radial_thickness_m": 0.003,
        "eta_inside": 1.5,
        "eta_outside": 1.0,
    },
    "surface": {
        "patch": {
            "s1_min_m": 0.03,
            "s1_max_m": 0.05,
            "s2_min_rad": -math.radians(15.0),
            "s2_max_rad": math.radians(15.0),
        },
        "grid_rows": 8,
        "grid_cols": 8,
        "beta_norm_sq": None,
        "amplitudes_m": None,
    },
    "board": {
        "square_size_m": 0.03,
        "corners_per_side": 7,
    },
    "generate": {
        "n_images": 10,
        "amplitude_mean_m": 1e-5,
        "amplitude_sigma_m": 2.5e-6,
        "noise_sigma_px": 0.0,
        "depth_min_m": 0.3,
        "depth_max_m": 1.5,
        "rotation_range_deg": 25.0,
        "lateral_margin": 0.85,
        "max_attempts": 100,
    },
}


def default_config() -> dict:
    """Fresh copy of the built-in configuration."""
    return copy.deepcopy(_DEFAULTS)


def merge_config(base: dict, override: dict, _path: str = "") -> dict:
    """Recursively overlay ``override`` on ``base``.

    Keys absent from ``base`` are rejected — the schema is closed.
    """
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{_path}.{key}" if _path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key {where}")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigurationError(f"config key {where} must be an object")
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = merge_config(base[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str | os.PathLike | None) -> dict:
    """Read a config file and overlay it on the defaults.

    ``None`` returns the defaults unchanged. Missing files, invalid
    JSON, and unknown keys all raise :class:`ConfigurationError`.
    """
    if path is None:
        return default_config()
    user = read_json(path, ConfigurationError, "config file")
    if not isinstance(user, dict):
        raise ConfigurationError(f"config file {path!r} must contain a JSON object")
    return merge_config(default_config(), user)


def _number(section: dict | list, key: str | int, where: str) -> float:
    name = f"config key {where}[{key}]" if isinstance(key, int) else f"config key {where}.{key}"
    return _json_number(section[key], name, float)


def _integer(section: dict, key: str, where: str) -> int:
    return _json_number(section[key], f"config key {where}.{key}", int)


def intrinsics_from_config(config: dict) -> CameraIntrinsics:
    section = config["intrinsics"]
    return CameraIntrinsics(
        fx=_number(section, "fx_px", "intrinsics"),
        fy=_number(section, "fy_px", "intrinsics"),
        cx=_number(section, "cx_px", "intrinsics"),
        cy=_number(section, "cy_px", "intrinsics"),
        width=_integer(section, "width_px", "intrinsics"),
        height=_integer(section, "height_px", "intrinsics"),
    )


def cone_from_config(config: dict) -> ConeGeometry:
    section = config["cone"]
    apex = section["apex_m"]
    if not isinstance(apex, (list, tuple)) or len(apex) != 3:
        raise ConfigurationError("config key cone.apex_m must be a 3-element array")
    return ConeGeometry(
        apex=tuple(_number(apex, i, "cone.apex_m") for i in range(3)),
        half_angle=_number(section, "half_angle_rad", "cone"),
        height=_number(section, "height_m", "cone"),
        radial_thickness=_number(section, "radial_thickness_m", "cone"),
        eta_inside=_number(section, "eta_inside", "cone"),
        eta_outside=_number(section, "eta_outside", "cone"),
    )


def patch_from_config(config: dict) -> RbfPatch:
    section = config["surface"]["patch"]
    return RbfPatch(
        s1_range=(
            _number(section, "s1_min_m", "surface.patch"),
            _number(section, "s1_max_m", "surface.patch"),
        ),
        s2_range=(
            _number(section, "s2_min_rad", "surface.patch"),
            _number(section, "s2_max_rad", "surface.patch"),
        ),
    )


def surface_from_config(config: dict) -> RbfSurface:
    """Build the irregularity field described by ``config["surface"]``.

    Stored amplitudes must match the configured center grid. The CLI's
    ``--grid`` flag rewrites that grid in the config and clears the
    stored amplitudes before this is called.
    """
    section = config["surface"]
    patch = patch_from_config(config)
    grid = (_integer(section, "grid_rows", "surface"), _integer(section, "grid_cols", "surface"))
    beta = section["beta_norm_sq"]
    if beta is not None:
        beta = _number(section, "beta_norm_sq", "surface")
    amplitudes = section["amplitudes_m"]
    rows, cols = grid
    # checked before the flat surface allocates a rows x cols grid
    if amplitudes is not None and (
        not isinstance(amplitudes, (list, tuple))
        or len(amplitudes) != rows
        or any(not isinstance(row, (list, tuple)) or len(row) != cols for row in amplitudes)
    ):
        raise ConfigurationError(
            f"config key surface.amplitudes_m must be {rows} rows of {cols} numbers"
        )
    surface = RbfSurface.flat(patch, grid, beta=beta)
    if amplitudes is None:
        return surface
    return surface.with_amplitudes(
        [
            [_number(row, j, f"surface.amplitudes_m[{i}]") for j in range(cols)]
            for i, row in enumerate(amplitudes)
        ]
    )


def generate_from_config(config: dict) -> dict:
    """The keyword arguments of :func:`~conecal.synth.generate_dataset`, all
    but the seed, that ``config`` describes. Stored amplitudes pin the
    ground truth; without them fresh ones are drawn from the ``generate``
    section's distribution."""

    def generate(key, read=_number):
        return read(config["generate"], key, "generate")

    surface = surface_from_config(config)
    n_images, noise_sigma_px = generate("n_images", _integer), generate("noise_sigma_px")
    square_size = _number(config["board"], "square_size_m", "board")
    corners_per_side = _integer(config["board"], "corners_per_side", "board")
    _check_board(square_size, corners_per_side)
    amplitude_dist = None
    if config["surface"]["amplitudes_m"] is None:
        amplitude_dist = AmplitudeDistribution(
            mean=generate("amplitude_mean_m"), sigma=generate("amplitude_sigma_m")
        )
    return {
        "intrinsics": intrinsics_from_config(config),
        "cone": cone_from_config(config),
        "surface": surface,
        "n_images": n_images,
        "square_size": square_size,
        "corners_per_side": corners_per_side,
        "amplitude_dist": amplitude_dist,
        "pose_sampler": PoseSampler(
            depth_range=(generate("depth_min_m"), generate("depth_max_m")),
            rotation_range_deg=generate("rotation_range_deg"),
            lateral_margin=generate("lateral_margin"),
            max_attempts=generate("max_attempts", _integer),
        ),
        "noise_sigma_px": noise_sigma_px,
    }


def _grid_keys(amplitudes) -> dict:
    """The ``grid_rows``, ``grid_cols`` and ``amplitudes_m`` keys of a
    ``surface`` section holding ``amplitudes``."""
    amps = np.asarray(amplitudes, dtype=np.float64)
    return {
        "grid_rows": int(amps.shape[0]),
        "grid_cols": int(amps.shape[1]),
        "amplitudes_m": amps.tolist(),
    }


def surface_to_config(surface: RbfSurface) -> dict:
    """The config ``surface`` section that :func:`surface_from_config` reads
    back as ``surface``: its patch, grid, kernel width and amplitudes."""
    patch = surface.patch
    return {
        "patch": {
            "s1_min_m": patch.s1_range[0],
            "s1_max_m": patch.s1_range[1],
            "s2_min_rad": patch.s2_range[0],
            "s2_max_rad": patch.s2_range[1],
        },
        "beta_norm_sq": surface.beta,
        **_grid_keys(surface.amplitudes),
    }


def config_with_amplitudes(config: dict, amplitudes: np.ndarray) -> dict:
    """Copy of ``config`` with the surface amplitudes (and grid) filled in."""
    updated = copy.deepcopy(config)
    updated["surface"].update(_grid_keys(amplitudes))
    return updated
