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

import functools
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, pinhole_project, pixel_to_ray
from .errors import ConfigurationError, DataError
from .geometry import ConeGeometry, RbfSurface
from .observations import ImageObservations, ObservationSet
from .raytrace import (
    _OK,
    BoardPose,
    SceneParams,
    _board_to_world,
    _land,
    _trace_batch,
    raycast_pixels,
)


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
    projects inside the sensor under the zero-field model. A candidate
    with a grid corner well outside the sensor's outline on its board
    plane (:func:`_outline_rejects`) is rejected without projecting;
    every other candidate, and so every accepted one, is projected.
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
        outline = _sensor_outline(intrinsics, cone)
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
            if outline is not None and _outline_rejects(outline, pose):
                continue
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


# The outline prefilter. Under the zero field a pixel's exit ray does not
# depend on the board pose, so the rays of the sensor's boundary pixels are
# traced once per camera and cone. Landed on a candidate's board plane they
# outline every board point that an on-sensor pixel reaches: the pixel-to-board
# map is continuous and locally invertible, so the image of the sensor has its
# boundary inside the image of the sensor's boundary.

# pixels per sensor edge: the landed polygon then strays from the landed
# boundary curve by at most ~4.3e-6 m per meter of board depth (measured at
# the segments' midpoints over 400 random poses, default camera and cone)
_OUTLINE_PIXELS_PER_EDGE = 100
# how far (meters per meter of depth) a grid corner must lie outside the
# polygon before the outline alone rejects its pose: over 400 times the
# chord error above, so that neither it nor the projection's 1e-9 m
# tolerance can reject a pose that the projection accepts
_OUTLINE_MARGIN_PER_DEPTH = 2e-3


@functools.lru_cache(maxsize=8)
def _sensor_outline(intrinsics: CameraIntrinsics, cone: ConeGeometry):
    """Zero-field exit rays ``(origins, directions)`` of pixels taken in order
    around the sensor's boundary ``[0, width] x [0, height]``, or None when
    one of them fails to trace."""
    corners = np.array(
        [[0.0, 0.0], [intrinsics.width, 0.0], [intrinsics.width, intrinsics.height],
         [0.0, intrinsics.height]]
    )
    edges = np.roll(corners, -1, axis=0) - corners
    frac = np.arange(_OUTLINE_PIXELS_PER_EDGE) / _OUTLINE_PIXELS_PER_EDGE
    pixels = (corners[:, None, :] + frac[:, None] * edges[:, None, :]).reshape(-1, 2)
    dirs = pixel_to_ray(intrinsics, pixels)
    rays = _trace_batch(cone, None, np.zeros_like(dirs), dirs)
    if not np.all(rays.ok):
        return None
    rays.x_outer.flags.writeable = False
    rays.dir_out.flags.writeable = False
    return rays.x_outer, rays.dir_out


def _landed_outline(outline, pose: BoardPose):
    """The outline's rays landed on the pose's board plane, in board
    coordinates, or None when one of them misses the plane."""
    _, _, local, hit = _land(pose.rotation, pose.translation, *outline)
    return local if np.all(hit) else None


def _outline_rejects(outline, pose: BoardPose) -> bool:
    """Whether one of the grid's four extreme corners lies farther than the
    margin outside the sensor outline landed on the pose's board plane.

    False when an outline ray misses the plane: only the projection decides
    then.
    """
    polygon = _landed_outline(outline, pose)
    if polygon is None:
        return False
    half = 0.5 * (pose.corners_per_side - 1) * pose.square_size
    extremes = half * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    margin = _OUTLINE_MARGIN_PER_DEPTH * pose.translation[2]
    return bool(np.any(_distance_outside(polygon, extremes) > margin))


def _distance_outside(polygon: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance of each point from a closed polygon's edges, or 0 for a point
    inside it (even-odd rule)."""
    closed = np.concatenate([polygon, polygon[:1]])
    # every vertex seen from every point, shape (points, vertices + 1)
    rx = closed[:, 0] - points[:, 0, None]
    ry = closed[:, 1] - points[:, 1, None]
    x0, y0, x1, y1 = rx[:, :-1], ry[:, :-1], rx[:, 1:], ry[:, 1:]
    ex, ey = x1 - x0, y1 - y0
    t = np.clip(-(x0 * ex + y0 * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    dx, dy = x0 + t * ex, y0 + t * ey
    dist = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
    # an edge crosses the ray from the point toward +x where it straddles the
    # point's height and x0 - y0 ex/ey > 0, i.e. x0 y1 - y0 x1 has the sign of ey
    straddles = (y0 > 0.0) != (y1 > 0.0)
    crossings = straddles & ((x0 * y1 - y0 * x1 > 0.0) == (ey > 0.0))
    inside = np.count_nonzero(crossings, axis=1) % 2 == 1
    return np.where(inside, 0.0, dist)


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


# pixel step of the forward differences behind the projection's 2x2 jacobian
_FD_STEP_PX = 0.01


def project_corners(
    params: SceneParams, image_index, board_xy, tol: float = 1e-9, max_iters: int = 50
):
    """Pixels whose rays land on the given board-frame points.

    ``image_index`` is one image for every point, or an integer array
    with one image per point, so that many images project in one batch;
    each row's result is the same either way. Damped Gauss-Newton on the
    pixel-to-board map, seeded by the pinhole projection; the 2x2
    jacobian comes from forward differences. A row that converges or can
    no longer move is settled and not traced again. Returns
    ``(pixels, converged)``; rows that fail to trace or to converge to
    ``tol`` (meters in the board plane) are flagged False.
    """
    if max_iters < 1:
        raise ConfigurationError("max_iters must be at least 1")
    targets = np.asarray(board_xy, dtype=np.float64).reshape(-1, 2)
    n = targets.shape[0]
    if np.ndim(image_index):
        image_index = np.reshape(image_index, -1)
        if image_index.size != n:
            raise DataError(f"{image_index.size} image indices for {n} board points")
    rotation, translation = params.pose_arrays(image_index)
    world = _board_to_world(rotation, translation, targets)
    if np.any(world[:, 2] <= 0.0):
        raise DataError("board corners behind the camera cannot be projected")
    pixels = pinhole_project(params.intrinsics, world)

    def raycast(rows, pixels_at_rows):
        index = image_index if np.ndim(image_index) == 0 else image_index[rows]
        return raycast_pixels(params, index, pixels_at_rows)

    # the latest landing of every row's current pixel, and the rows whose
    # pixel moved since the top of the last iteration
    local = np.empty((n, 2))
    status = np.empty(n, dtype=np.int64)
    moving = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        rows = np.flatnonzero(moving)
        if rows.size == 0:
            break
        local[rows], status[rows] = raycast(rows, pixels[rows])
        valid = status[rows] == _OK
        residual = local[rows] - targets[rows]
        err = np.where(valid, np.linalg.norm(residual, axis=-1), np.inf)
        active = valid & (err > tol)
        rows, residual, err = rows[active], residual[active], err[active]
        moving[:] = False
        if rows.size == 0:
            break

        # both forward differences of the active rows in one trace
        h = _FD_STEP_PX
        k = rows.size
        fd_local, fd_status = raycast(
            np.concatenate([rows, rows]),
            np.concatenate([pixels[rows] + [h, 0.0], pixels[rows] + [0.0, h]]),
        )
        local_x, local_y, base = fd_local[:k], fd_local[k:], local[rows]
        fd_ok = (fd_status[:k] == _OK) & (fd_status[k:] == _OK)
        j00 = (local_x[:, 0] - base[:, 0]) / h
        j10 = (local_x[:, 1] - base[:, 1]) / h
        j01 = (local_y[:, 0] - base[:, 0]) / h
        j11 = (local_y[:, 1] - base[:, 1]) / h
        det = j00 * j11 - j01 * j10
        solvable = fd_ok & (np.abs(det) > 1e-30)
        det_safe = np.where(solvable, det, 1.0)
        step = -np.stack(
            [
                (j11 * residual[:, 0] - j01 * residual[:, 1]) / det_safe,
                (j00 * residual[:, 1] - j10 * residual[:, 0]) / det_safe,
            ],
            axis=-1,
        )
        rows, step, err = rows[solvable], step[solvable], err[solvable]

        # halve the steps of the rows still pending until each actually
        # reduces its residual; an accepted trial is the row's new landing
        lam = 1.0
        for _ in range(8):
            if rows.size == 0:
                break
            trial = pixels[rows] + lam * step
            trial_local, trial_status = raycast(rows, trial)
            trial_err = np.linalg.norm(trial_local - targets[rows], axis=-1)
            improved = (trial_status == _OK) & (trial_err < err)
            accepted = rows[improved]
            pixels[accepted] = trial[improved]
            local[accepted] = trial_local[improved]
            status[accepted] = trial_status[improved]
            moving[accepted] = True
            rows, step, err = rows[~improved], step[~improved], err[~improved]
            lam *= 0.5

    residual = np.linalg.norm(local - targets, axis=-1)
    converged = (status == _OK) & (residual <= tol)
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
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
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

    # the one board's corners, tiled over the images: one projection, split per image
    corner_ij = poses[0].corner_indices()
    targets = np.tile(poses[0].corner_board_coords(corner_ij), (n_images, 1))
    index = np.repeat(np.arange(n_images), len(corner_ij))
    pixels, converged = project_corners(params, index, targets)
    inside = converged & _on_sensor(intrinsics, pixels)

    images = []
    for idx, (pose, image_pixels, image_inside) in enumerate(
        zip(poses, pixels.reshape(n_images, -1, 2), inside.reshape(n_images, -1))
    ):
        if not np.any(image_inside):
            raise DataError(f"image {idx}: no corner projects inside the sensor")
        kept_pixels = image_pixels[image_inside]
        if noise_sigma_px > 0.0:
            kept_pixels = kept_pixels + rng.normal(0.0, noise_sigma_px, size=kept_pixels.shape)
        images.append(
            ImageObservations(
                image_index=idx,
                initial_pose=pose,
                grid_ij=corner_ij[image_inside],
                pixels=kept_pixels,
            )
        )
    observations = ObservationSet(
        square_size=square_size, corners_per_side=corners_per_side, images=tuple(images)
    )
    return GeneratedDataset(
        observations=observations, params=params, noise_sigma_px=noise_sigma_px, seed=seed
    )
