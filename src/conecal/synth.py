"""Synthetic capture generation: surfaces, poses, projected corners.

Projection inverts the raycast: given a board-frame corner, find the
pixel whose ray lands on it under the full cover model. The forward
map is smooth and near-affine over the sensor, so a damped Gauss-Newton
iteration seeded by the pinhole projection converges in a handful of
steps.

A dataset is generated from one seeded random stream, consumed in a
fixed order (surface amplitudes, then poses, then pixel noise), so a
seed pins the entire dataset bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, pinhole_project
from .errors import ConfigurationError, DataError
from .geometry import ConeGeometry, RbfSurface
from .observations import ImageObservations, ObservationSet
from .raytrace import BoardPose, SceneParams, TraceStatus, raycast_pixels


@dataclass(frozen=True)
class AmplitudeDistribution:
    """Gaussian over the per-center amplitudes, in meters."""

    mean: float = 1e-5
    sigma: float = 2.5e-6

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ConfigurationError("amplitude sigma must be nonnegative")

    def sample(self, rng: np.random.Generator, grid: tuple[int, int]) -> np.ndarray:
        return rng.normal(self.mean, self.sigma, size=grid)


def sample_surface(
    rng: np.random.Generator, template: RbfSurface, dist: AmplitudeDistribution
) -> RbfSurface:
    """Template surface with freshly drawn amplitudes."""
    return template.with_amplitudes(dist.sample(rng, template.grid))


@dataclass(frozen=True)
class PoseSampler:
    """Rejection sampler for board poses that stay fully visible.

    Depth is uniform over ``depth_range`` (meters along +z), each Euler
    angle uniform over +-``rotation_range_deg`` (composed z*y*x), and
    the lateral offset uniform within ``lateral_margin`` of the field of
    view at that depth. A candidate is kept only when every corner
    projects inside the sensor under the zero-field model.
    """

    depth_range: tuple[float, float] = (0.3, 1.5)
    rotation_range_deg: float = 25.0
    lateral_margin: float = 0.85
    max_attempts: int = 100

    def __post_init__(self):
        lo, hi = self.depth_range
        if not 0.0 < lo <= hi:
            raise ConfigurationError("depth_range must be positive and increasing")
        if not 0.0 <= self.rotation_range_deg < 90.0:
            raise ConfigurationError("rotation_range_deg must lie in [0, 90)")
        if not 0.0 < self.lateral_margin <= 1.0:
            raise ConfigurationError("lateral_margin must lie in (0, 1]")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")

    def sample_pose(
        self,
        rng: np.random.Generator,
        intrinsics: CameraIntrinsics,
        cone: ConeGeometry,
        surface: RbfSurface,
        square_size: float,
        corners_per_side: int,
    ) -> BoardPose:
        zero = RbfSurface.flat(surface.patch, surface.grid, beta=surface.beta)
        half_fov_x = (intrinsics.width / 2.0) / intrinsics.fx
        half_fov_y = (intrinsics.height / 2.0) / intrinsics.fy
        for _ in range(self.max_attempts):
            depth = rng.uniform(*self.depth_range)
            angles = np.radians(rng.uniform(-self.rotation_range_deg, self.rotation_range_deg, 3))
            rot = _rotation_zyx(angles)
            dx = rng.uniform(-1.0, 1.0) * self.lateral_margin * depth * half_fov_x
            dy = rng.uniform(-1.0, 1.0) * self.lateral_margin * depth * half_fov_y
            pose = BoardPose(
                rotation=rot,
                translation=np.array([dx, dy, depth]),
                square_size=square_size,
                corners_per_side=corners_per_side,
            )
            params = SceneParams(intrinsics=intrinsics, cone=cone, surface=zero, poses=(pose,))
            try:
                pixels, converged = project_corners(params, 0, pose.corner_board_coords())
            except DataError:
                continue
            if not np.all(converged):
                continue
            if np.all(_on_sensor(intrinsics, pixels)):
                return pose
        raise ConfigurationError(
            f"no fully visible pose found in {self.max_attempts} attempts; "
            "loosen the sampler ranges or shrink the board"
        )

    def sample_poses(self, rng, intrinsics, cone, surface, square_size, corners_per_side, n):
        return tuple(
            self.sample_pose(rng, intrinsics, cone, surface, square_size, corners_per_side)
            for _ in range(n)
        )


def _on_sensor(intrinsics: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Rows of ``pixels`` inside ``[0, width) x [0, height)``."""
    size = np.array([intrinsics.width, intrinsics.height], dtype=np.float64)
    return np.all((pixels >= 0.0) & (pixels < size), axis=-1)


def _rotation_zyx(angles) -> np.ndarray:
    """Rotation matrix composed as Rz(az) @ Ry(ay) @ Rx(ax)."""
    ax, ay, az = angles
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def project_corners(
    params: SceneParams,
    image_index: int,
    board_xy,
    tol: float = 1e-9,
    max_iters: int = 50,
    fd_step_px: float = 0.01,
):
    """Pixels whose rays land on the given board-frame points.

    Damped Gauss-Newton on the pixel-to-board map, seeded by the pinhole
    projection; the 2x2 jacobian comes from forward differences. Returns
    ``(pixels, converged)``; rows that fail to trace or to converge to
    ``tol`` (meters in the board plane) are flagged False.
    """
    pose = params.pose(image_index)
    targets = np.asarray(board_xy, dtype=np.float64).reshape(-1, 2)
    world = pose.board_to_world(targets)
    if np.any(world[:, 2] <= 0.0):
        raise DataError("board corners behind the camera cannot be projected")
    pixels = pinhole_project(params.intrinsics, world)
    err = np.full(targets.shape[0], np.inf)

    for _ in range(max_iters):
        local, status = raycast_pixels(params, image_index, pixels)
        valid = status == TraceStatus.OK
        residual = local - targets
        err = np.where(valid, np.linalg.norm(residual, axis=-1), np.inf)
        active = valid & (err > tol)
        if not np.any(active):
            break

        h = fd_step_px
        local_x, status_x = raycast_pixels(params, image_index, pixels + [h, 0.0])
        local_y, status_y = raycast_pixels(params, image_index, pixels + [0.0, h])
        fd_ok = (status_x == TraceStatus.OK) & (status_y == TraceStatus.OK)
        j00 = (local_x[:, 0] - local[:, 0]) / h
        j10 = (local_x[:, 1] - local[:, 1]) / h
        j01 = (local_y[:, 0] - local[:, 0]) / h
        j11 = (local_y[:, 1] - local[:, 1]) / h
        det = j00 * j11 - j01 * j10
        solvable = active & fd_ok & (np.abs(det) > 1e-30)
        det_safe = np.where(solvable, det, 1.0)
        step = -np.stack(
            [
                (j11 * residual[:, 0] - j01 * residual[:, 1]) / det_safe,
                (j00 * residual[:, 1] - j10 * residual[:, 0]) / det_safe,
            ],
            axis=-1,
        )
        step = np.where(solvable[:, None], step, 0.0)

        # halve any row's step until it actually reduces the residual
        lam = np.ones(targets.shape[0])
        pending = solvable.copy()
        for _ in range(8):
            if not np.any(pending):
                break
            trial = pixels + lam[:, None] * step
            trial_local, trial_status = raycast_pixels(params, image_index, trial)
            trial_err = np.linalg.norm(trial_local - targets, axis=-1)
            improved = pending & (trial_status == TraceStatus.OK) & (trial_err < err)
            pixels = np.where(improved[:, None], trial, pixels)
            pending = pending & ~improved
            lam = np.where(pending, lam * 0.5, lam)

    local, status = raycast_pixels(params, image_index, pixels)
    residual = np.linalg.norm(local - targets, axis=-1)
    converged = (status == TraceStatus.OK) & (residual <= tol)
    return pixels, converged


def project_corner(params: SceneParams, image_index: int, board_xy) -> np.ndarray:
    """Single-point version of :func:`project_corners`; raises on failure."""
    pixels, converged = project_corners(
        params, image_index, np.asarray(board_xy, dtype=np.float64)[None, :]
    )
    if not converged[0]:
        raise DataError(f"projection of board point {board_xy} did not converge")
    return pixels[0]


@dataclass(frozen=True)
class GeneratedDataset:
    """Synthetic observations plus the ground truth that produced them."""

    observations: ObservationSet
    params: SceneParams  # true surface and true poses
    noise_sigma_px: float
    seed: int


def generate_dataset(
    intrinsics: CameraIntrinsics,
    cone: ConeGeometry,
    surface: RbfSurface,
    n_images: int,
    square_size: float = 0.03,
    corners_per_side: int = 7,
    amplitude_dist: AmplitudeDistribution | None = None,
    pose_sampler: PoseSampler | None = None,
    noise_sigma_px: float = 0.0,
    seed: int = 0,
) -> GeneratedDataset:
    """Simulate a capture session behind the cover.

    ``surface`` fixes the patch, center grid and kernel width; its
    amplitudes are the ground truth unless ``amplitude_dist`` is given,
    in which case fresh ones are drawn. Corners are projected under the
    true surface; corners that fail to project or land outside the
    sensor are dropped before noise is added, so noisy detections may
    lie outside the sensor bounds.
    """
    if n_images < 1:
        raise ConfigurationError("n_images must be at least 1")
    if noise_sigma_px < 0.0:
        raise ConfigurationError("noise_sigma_px must be nonnegative")
    rng = np.random.default_rng(seed)
    if amplitude_dist is not None:
        surface = sample_surface(rng, surface, amplitude_dist)
    sampler = pose_sampler or PoseSampler()
    poses = sampler.sample_poses(
        rng, intrinsics, cone, surface, square_size, corners_per_side, n_images
    )
    params = SceneParams(intrinsics=intrinsics, cone=cone, surface=surface, poses=poses)

    images = []
    for idx, pose in enumerate(poses):
        ij = pose.corner_indices()
        targets = pose.corner_board_coords(ij)
        pixels, converged = project_corners(params, idx, targets)
        inside = converged & _on_sensor(intrinsics, pixels)
        if not np.any(inside):
            raise DataError(f"image {idx}: no corner projects inside the sensor")
        kept_pixels = pixels[inside]
        if noise_sigma_px > 0.0:
            kept_pixels = kept_pixels + rng.normal(0.0, noise_sigma_px, size=kept_pixels.shape)
        images.append(
            ImageObservations(
                image_index=idx,
                initial_pose=pose,
                grid_ij=ij[inside],
                pixels=kept_pixels,
            )
        )
    observations = ObservationSet(
        square_size=square_size, corners_per_side=corners_per_side, images=tuple(images)
    )
    return GeneratedDataset(
        observations=observations, params=params, noise_sigma_px=noise_sigma_px, seed=seed
    )
