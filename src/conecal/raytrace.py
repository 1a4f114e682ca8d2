"""Ray tracing through the double-cone cover.

A camera ray meets the inner wall, refracts into the glass, meets the
outer wall (intersection computed against the perfect cone; the
irregularity field enters through the outer normal only), refracts into
the surrounding medium and continues to the checkerboard plane. Scalar
entry points raise stage-tagged errors; the batched paths used by the
calibration loop carry per-ray status codes instead so failed rays can
be excluded and reported deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property

import numpy as np

from .camera import CameraIntrinsics, pixel_to_ray
from .errors import (
    ConfigurationError,
    DataError,
    MissError,
    SingularSurfaceError,
    TotalInternalReflectionError,
)
from .geometry import (
    ConeGeometry,
    RbfSurface,
    Which,
    _components,
    _cone_coords,
    _dot,
    _stack_last,
    inner_surface_normal,
    outer_surface_normal,
)

_T_MIN = 1e-12  # smallest accepted ray parameter: keeps self-hits out


class TraceStatus(IntEnum):
    """Per-ray outcome of the batched trace."""

    OK = 0
    MISS_INNER = 1
    TIR_INNER = 2
    MISS_OUTER = 3
    TIR_OUTER = 4
    MISS_BOARD = 5
    SINGULAR = 6


# the kernels read statuses as plain ints: numpy compares an array with an
# int several times faster than with an IntEnum member
_OK = int(TraceStatus.OK)
_MISS_INNER = int(TraceStatus.MISS_INNER)
_TIR_INNER = int(TraceStatus.TIR_INNER)
_MISS_OUTER = int(TraceStatus.MISS_OUTER)
_TIR_OUTER = int(TraceStatus.TIR_OUTER)
_MISS_BOARD = int(TraceStatus.MISS_BOARD)
_SINGULAR = int(TraceStatus.SINGULAR)

STAGE_NAMES = {
    TraceStatus.MISS_INNER: "inner-intersection",
    TraceStatus.TIR_INNER: "inner-refraction",
    TraceStatus.MISS_OUTER: "outer-intersection",
    TraceStatus.TIR_OUTER: "outer-refraction",
    TraceStatus.MISS_BOARD: "board-intersection",
    TraceStatus.SINGULAR: "surface-normal",
}


@dataclass(frozen=True)
class Ray:
    """Half-line with a unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        origin = np.array(self.origin, dtype=np.float64)
        direction = np.array(self.direction, dtype=np.float64)
        if origin.shape != (3,) or direction.shape != (3,):
            raise ConfigurationError("ray origin and direction must be 3-vectors")
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            raise ConfigurationError("ray direction must be nonzero")
        direction = direction / norm
        origin.flags.writeable = False
        direction.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction)


@dataclass(frozen=True)
class BoardPose:
    """Checkerboard pose: board frame to camera frame.

    Columns of ``rotation`` are the board's x-axis, y-axis and plane
    normal expressed in camera coordinates; ``translation`` is the board
    center. Corner ``(i, j)`` (1-based) sits at board-local
    ``((i - (n+1)/2) * square_size, (j - (n+1)/2) * square_size)``.
    """

    rotation: np.ndarray
    translation: np.ndarray
    square_size: float
    corners_per_side: int

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64)
        trans = np.array(self.translation, dtype=np.float64)
        if rot.shape != (3, 3) or trans.shape != (3,):
            raise ConfigurationError("pose needs a 3x3 rotation and a 3-vector translation")
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9) or np.linalg.det(rot) < 0.0:
            raise ConfigurationError("rotation must be orthonormal with determinant +1")
        if self.square_size <= 0.0:
            raise ConfigurationError("square_size must be positive")
        if self.corners_per_side < 2:
            raise ConfigurationError("corners_per_side must be at least 2")
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)
        object.__setattr__(self, "corners_per_side", int(self.corners_per_side))

    @property
    def normal(self) -> np.ndarray:
        return self.rotation[:, 2]

    def board_to_world(self, xy) -> np.ndarray:
        """Camera-frame position of board-local planar coordinates."""
        return _board_to_world(self.rotation, self.translation, xy)

    def corner_indices(self) -> np.ndarray:
        """All (i, j) corner indices, 1-based, row-major, shape (n^2, 2)."""
        n = self.corners_per_side
        i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
        return np.column_stack([i.ravel(), j.ravel()])

    def corner_board_coords(self, ij=None) -> np.ndarray:
        """Board-local coordinates of corners; all of them when ij is None."""
        ij = self.corner_indices() if ij is None else ij
        return _corner_board_coords(ij, self.square_size, self.corners_per_side)


def _corner_board_coords(ij, square_size: float, corners_per_side: int) -> np.ndarray:
    """Board-local coordinates of 1-based corner indices, placed as :class:`BoardPose` says."""
    mid = (corners_per_side + 1) / 2.0
    return (np.asarray(ij, dtype=np.float64) - mid) * square_size


_SMALL_ANGLE = 1e-3  # rad; below it the rotation-vector coefficients use their series


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """The matrix ``W`` with ``W @ x == np.cross(v, x)``."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _rotvec_coefficients(omega):
    """``W`` of a rotation vector and, for ``t = |omega|``, the coefficients
    ``sin(t)/t``, ``(1 - cos t)/t^2`` and ``(t - sin t)/t^3``.

    Below ``_SMALL_ANGLE`` the coefficients come from their Taylor series,
    whose first dropped terms are below 1e-20 there; above it the second
    is ``2 sin^2(t/2)/t^2``, which does not cancel. Raises ``ValueError``
    unless ``omega`` is a 3-vector.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (3,):
        raise ValueError(f"a rotation vector has 3 components, got shape {omega.shape}")
    theta2 = float(omega @ omega)
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        b = 0.5 - theta2 / 24.0 * (1.0 - theta2 / 30.0)
        c = 1.0 / 6.0 - theta2 / 120.0 * (1.0 - theta2 / 42.0)
    else:
        half = math.sin(0.5 * theta) / theta
        a = math.sin(theta) / theta
        b = 2.0 * half * half
        c = (1.0 - a) / theta2
    return _cross_matrix(omega), a, b, c


def _rotvec_matrix(omega) -> np.ndarray:
    """Rotation matrix of a rotation vector, by Rodrigues' formula
    ``I + (sin t/t) W + ((1 - cos t)/t^2) W^2``."""
    w, a, b, _ = _rotvec_coefficients(omega)
    return np.eye(3) + a * w + b * (w @ w)


def _rotvec_left_jacobian(omega) -> np.ndarray:
    """SO(3) left Jacobian ``I + ((1 - cos t)/t^2) W + ((t - sin t)/t^3) W^2``:
    a step ``d`` in ``omega`` turns ``exp(omega)`` by the left increment
    ``J d``, to first order."""
    w, _, b, c = _rotvec_coefficients(omega)
    return np.eye(3) + b * w + c * (w @ w)


@dataclass(frozen=True)
class SceneParams:
    """Everything the forward model needs: camera, cover, field, poses."""

    intrinsics: CameraIntrinsics
    cone: ConeGeometry
    surface: RbfSurface
    poses: tuple[BoardPose, ...]

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        hi = self.surface.patch.s1_range[1]
        if hi > self.cone.height + 1e-12:
            raise ConfigurationError(
                f"surface patch extends above the cone slice ({hi} > {self.cone.height})"
            )

    def with_surface(self, surface: RbfSurface) -> "SceneParams":
        params = SceneParams(self.intrinsics, self.cone, surface, self.poses)
        if "_pose_stack" in self.__dict__:
            # the same poses: a fit's every step gathers from one stack
            params.__dict__["_pose_stack"] = self._pose_stack
        return params

    def with_poses(self, poses) -> "SceneParams":
        return SceneParams(self.intrinsics, self.cone, self.surface, tuple(poses))

    def _checked_index(self, image_index) -> np.ndarray:
        """``image_index`` as an array; a bool, float or out-of-range entry is a ``DataError``."""
        index = np.asarray(image_index)
        if index.dtype.kind not in "iu":
            raise DataError(f"image indices must be integers, got dtype {index.dtype}")
        bad = (index < 0) | (index >= len(self.poses))
        if np.any(bad):
            raise DataError(f"no pose for image index {index[bad][0]}")
        return index

    def pose(self, image_index: int) -> BoardPose:
        return self.poses[int(self._checked_index(image_index))]

    def pose_arrays(self, image_index):
        """Rotation and translation of the pose of each entry of an integer
        index, scalar or array (shapes ``(..., 3, 3)``, ``(..., 3)``)."""
        index = self._checked_index(image_index)
        rotation, translation = self._pose_stack
        return rotation[index], translation[index]

    @cached_property
    def _pose_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pose's rotation and translation, stacked once, read-only."""
        rotation = np.stack([pose.rotation for pose in self.poses])
        translation = np.stack([pose.translation for pose in self.poses])
        rotation.flags.writeable = False
        translation.flags.writeable = False
        return rotation, translation


# ---------------------------------------------------------------------------
# refraction


def _refract_batch(d: np.ndarray, n: np.ndarray, eta: float):
    """Vector refraction with automatic normal orientation.

    Returns (refracted unit directions, ok mask); ``ok`` is False where
    the incidence is beyond the critical angle. The tangential component
    is scaled by ``eta`` and the result is unit-norm by construction.
    """
    d, n = _components(d), _components(n)
    cos_i = -_dot(d, n)
    flip = cos_i < 0.0
    cos_i = np.abs(cos_i)
    k = 1.0 - eta * eta * (1.0 - cos_i * cos_i)
    ok = k >= 0.0
    f = eta * cos_i - np.sqrt(np.where(ok, k, 0.0))
    # f * (-n) == (-f) * n exactly, so the flip moves onto the scalar factor
    f = np.where(flip, -f, f)
    return _stack_last(*(eta * d_c + f * n_c for d_c, n_c in zip(d, n))), ok


def refract(direction, normal, eta_ratio: float) -> np.ndarray:
    """Refract a unit direction at a surface with unit normal.

    ``eta_ratio`` is the incident-side index divided by the transmitted
    side index. The normal may point to either side; it is flipped to
    face the incident ray. Raises
    :class:`TotalInternalReflectionError` beyond the critical angle.
    """
    d = np.asarray(direction, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    t, ok = _refract_batch(d, n, float(eta_ratio))
    if not np.all(ok):
        raise TotalInternalReflectionError(
            "incidence beyond the critical angle", stage="refraction"
        )
    return t


# ---------------------------------------------------------------------------
# intersections


def _intersect_cone_batch(cone: ConeGeometry, origins: np.ndarray, dirs: np.ndarray, which: Which):
    """Smallest positive ray parameter hitting the requested wall.

    Solves the quadratic of the wall's supporting cone (the outer wall
    uses its virtual apex) and keeps roots inside the shared height band.
    Returns (t, hit mask); t is +inf where there is no hit.
    """
    ax, ay, az = cone.apex
    w = cone.tan_half_angle
    w2 = w * w
    ox, oy, oz = _components(origins)
    dx, dy, dz = _components(dirs)
    ox = ox - ax
    oz = oz - az
    ydiff = cone.apex_y(which) - oy

    a = dx * dx + dz * dz - w2 * dy * dy
    b = 2.0 * (ox * dx + oz * dz + w2 * ydiff * dy)
    c = ox * ox + oz * oz - w2 * ydiff * ydiff

    # a zero divisor only makes a root that the masks below reject
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
        linear = np.abs(a) < 1e-14
        t1 = np.where(linear, -c / b, q / a)
        t2 = np.where(linear, np.inf, c / q)
    # grazing contact counts as a miss
    usable = np.where(linear, np.abs(b) >= 1e-300, disc > 1e-14)

    def inside(t):
        # a root kept as +inf reads as no hit, so only NaN and -inf need the
        # t > _T_MIN test to be rejected
        s1 = ay - (oy + t * dy)
        valid = usable & (t > _T_MIN) & (s1 >= -1e-12) & (s1 <= cone.height + 1e-12)
        return np.where(valid, t, np.inf)

    t = np.minimum(inside(t1), inside(t2))
    return t, np.isfinite(t)


def intersect_cone(cone: ConeGeometry, ray: Ray, which: Which):
    """Intersection of a ray with one wall slice.

    Returns ``(point, s)`` with ``s`` the cone coordinates of the hit, or
    ``None`` when the ray misses the slice (including grazing contact).
    """
    t, hit = _intersect_cone_batch(cone, ray.origin[None, :], ray.direction[None, :], which)
    if not hit[0]:
        return None
    point = ray.origin + t[0] * ray.direction
    s = _cone_coords(cone, point[None, :])[0]
    return point, s


def _advance(origins: np.ndarray, t: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Points ``origins + t[..., None] * dirs``."""
    return _stack_last(*(o + t * d for o, d in zip(_components(origins), _components(dirs))))


def _intersect_plane_batch(
    point: np.ndarray, normal: np.ndarray, origins: np.ndarray, dirs: np.ndarray
):
    """Where rays meet the plane through ``point`` with unit ``normal``.

    Returns ``(t, x, hit)``: ray parameters, hit points and the hit mask.
    Rays parallel to the plane or meeting it at or behind their origin
    are misses and carry the placeholder ``t = 1``.
    """
    normal = _components(normal)
    denom = _dot(_components(dirs), normal)
    ok = np.abs(denom) > 1e-12
    rel = [p_c - o_c for p_c, o_c in zip(_components(point), _components(origins))]
    t = _dot(rel, normal) / np.where(ok, denom, 1.0)
    hit = ok & (t > _T_MIN)
    t = np.where(hit, t, 1.0)
    return t, _advance(origins, t, dirs), hit


def _board_to_world(rotation: np.ndarray, translation: np.ndarray, xy) -> np.ndarray:
    """Camera-frame points of planar board coordinates; poses as in
    :func:`_board_coords`."""
    xy = np.asarray(xy, dtype=np.float64)
    return translation + xy[..., 0, None] * rotation[..., 0] + xy[..., 1, None] * rotation[..., 1]


def _board_coords(rotation: np.ndarray, translation: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Planar board coordinates of camera-frame points (no on-plane check).

    ``rotation`` is one pose's ``(3, 3)`` matrix or one per point,
    ``(..., 3, 3)``, with ``translation`` shaped to match.
    """
    rel = [x_c - t_c for x_c, t_c in zip(_components(x), _components(translation))]
    return _stack_last(
        _dot(rel, _components(rotation[..., 0])), _dot(rel, _components(rotation[..., 1]))
    )


def intersect_board(pose: BoardPose, ray: Ray):
    """Board-plane intersection point, or ``None`` for parallel/behind."""
    _, x, hit = _intersect_plane_batch(
        pose.translation, pose.normal, ray.origin[None, :], ray.direction[None, :]
    )
    return x[0] if hit[0] else None


def _land(rotation: np.ndarray, translation: np.ndarray, origins: np.ndarray, dirs: np.ndarray):
    """Where rays land on a board: ``(t, x, local, hit)``.

    Ray parameters, camera-frame hits, their board coordinates and the hit
    mask, with misses as for :func:`_intersect_plane_batch`. ``rotation``
    ``(..., 3, 3)`` and ``translation`` ``(..., 3)`` are one board pose or
    one per ray; the poses and the rays broadcast against each other.
    Every board landing of the package goes through here.
    """
    t, x, hit = _intersect_plane_batch(translation, rotation[..., 2], origins, dirs)
    return t, x, _board_coords(rotation, translation, x), hit


def world_to_board_local(pose: BoardPose, x, tol: float = 1e-9) -> np.ndarray:
    """Planar board coordinates of an on-plane camera-frame point."""
    x = np.asarray(x, dtype=np.float64)
    off_plane = np.abs(np.sum((x - pose.translation) * pose.normal, axis=-1))
    if np.any(off_plane > tol):
        raise DataError(
            f"point lies {np.max(off_plane):.3g} m off the board plane (tolerance {tol:g})"
        )
    return _board_coords(pose.rotation, pose.translation, x)


# ---------------------------------------------------------------------------
# trace


@dataclass
class TraceBatch:
    """Arrays describing each ray's path through the cover.

    Rays with ``status != OK`` carry placeholder values from the failing
    stage onward and must be masked by the caller. The cover stage fills
    the fields up to ``status``; the exit stage adds the outer normal and
    the exit direction, the board landing the rest.
    """

    dir_glass: np.ndarray  # (..., 3) unit direction inside the glass
    x_outer: np.ndarray  # (..., 3) outer-wall hit (perfect cone)
    s_outer: np.ndarray  # (..., 2) cone coordinates of the outer hit
    status: np.ndarray  # (...,) TraceStatus values
    n_outer: np.ndarray | None = None  # (..., 3) outward unit normal incl. irregularity
    dir_out: np.ndarray | None = None  # (..., 3) unit direction after exit
    t_board: np.ndarray | None = None  # (...,) board-plane ray parameter
    x_board: np.ndarray | None = None  # (..., 3) board-plane hit
    board_local: np.ndarray | None = None  # (..., 2) board coordinates

    @property
    def ok(self) -> np.ndarray:
        return self.status == _OK


def _trace_cover(cone: ConeGeometry, origins: np.ndarray, dirs: np.ndarray) -> TraceBatch:
    """Cover stage: inner hit, inner refraction and the outer hit.

    The outer hit is taken on the perfect cone, so nothing computed here
    depends on the irregularity field. Rays that fail carry a safe
    ``s_outer`` at which the outer normal is defined.
    """
    t_i, hit_i = _intersect_cone_batch(cone, origins, dirs, "inner")
    t_i = np.where(hit_i, t_i, 1.0)
    x_i = _advance(origins, t_i, dirs)
    s_i = _cone_coords(cone, x_i)
    miss_i = ~hit_i
    # rays that miss, or hit the apex, where the normal is undefined; a
    # missed ray's clipped height can be 0 too
    failed_inner = miss_i | (s_i[..., 0] < 1e-12)
    s_i_safe = np.where(failed_inner[..., None], [cone.height / 2, 0.0], s_i)

    n_i = inner_surface_normal(cone, s_i_safe)
    eta_in = cone.eta_outside / cone.eta_inside
    d_glass, ok_in = _refract_batch(dirs, n_i, eta_in)

    t_o, hit_o = _intersect_cone_batch(cone, x_i, d_glass, "outer")
    t_o = np.where(hit_o, t_o, 1.0)
    x_o = _advance(x_i, t_o, d_glass)
    s_o = _cone_coords(cone, x_o)

    # each ray's status is its first failing stage: later stages first,
    # each overwritten by the ones before it
    status = np.where(hit_o, _OK, _MISS_OUTER)
    status[~ok_in] = _TIR_INNER
    status[failed_inner] = _SINGULAR
    status[miss_i] = _MISS_INNER
    s_o_safe = np.where((status != _OK)[..., None], [cone.height / 2, 0.0], s_o)

    return TraceBatch(
        dir_glass=d_glass,
        x_outer=x_o,
        s_outer=s_o_safe,
        status=status,
    )


def _trace_exit(cone: ConeGeometry, cover: TraceBatch, n_outer: np.ndarray) -> TraceBatch:
    """Exit stage: refraction through the outer wall with normal ``n_outer``.

    Returns a new batch; ``cover`` is left unchanged, so one cover stage
    can serve many fields.
    """
    eta_out = cone.eta_inside / cone.eta_outside
    d_out, ok_out = _refract_batch(cover.dir_glass, n_outer, eta_out)
    status = cover.status.copy()
    status[(~ok_out) & (status == _OK)] = _TIR_OUTER
    return replace(cover, n_outer=n_outer, dir_out=d_out, status=status)


def _land_on_board(batch: TraceBatch, rotation: np.ndarray, translation: np.ndarray) -> TraceBatch:
    """Board landing of the exit rays, in place; poses as for :func:`_land`."""
    t_b, x_t, local, hit_b = _land(rotation, translation, batch.x_outer, batch.dir_out)
    batch.status[(~hit_b) & (batch.status == _OK)] = _MISS_BOARD
    batch.t_board = t_b
    batch.x_board = x_t
    batch.board_local = local
    return batch


def _trace_batch(
    cone: ConeGeometry, surface: RbfSurface | None, origins: np.ndarray, dirs: np.ndarray
) -> TraceBatch:
    """Vectorized two-refraction trace from inside the cover."""
    cover = _trace_cover(cone, origins, dirs)
    return _trace_exit(cone, cover, outer_surface_normal(cone, surface, cover.s_outer))


def _raise_for_status(status: int) -> None:
    status = TraceStatus(status)
    if status == TraceStatus.OK:
        return
    stage = STAGE_NAMES[status]
    if status in (TraceStatus.MISS_INNER, TraceStatus.MISS_OUTER, TraceStatus.MISS_BOARD):
        raise MissError(f"ray misses the surface at stage {stage}", stage=stage)
    if status in (TraceStatus.TIR_INNER, TraceStatus.TIR_OUTER):
        raise TotalInternalReflectionError(
            f"total internal reflection at stage {stage}", stage=stage
        )
    raise SingularSurfaceError(f"undefined surface normal at stage {stage}")


def trace_through_cover(params: SceneParams, ray: Ray) -> Ray:
    """Trace one ray through both walls; returns the outgoing ray.

    Raises a stage-tagged error when the ray misses a wall slice, hits
    the apex, or undergoes total internal reflection.
    """
    batch = _trace_batch(
        params.cone, params.surface, ray.origin[None, :], ray.direction[None, :]
    )
    _raise_for_status(int(batch.status[0]))
    return Ray(origin=batch.x_outer[0], direction=batch.dir_out[0])


def trace_pixels(params: SceneParams, image_index, pixels) -> TraceBatch:
    """Batched pixel-to-board trace keeping every intermediate quantity.

    ``image_index`` is one image for every pixel, or an integer array
    shaped like ``pixels[..., 0]`` giving each pixel row its own image;
    each row's result is the same either way. The returned
    :class:`TraceBatch` includes the board-plane hit. The calibration fit
    runs the same cover, exit and landing stages on all images at once.
    """
    rotation, translation = params.pose_arrays(image_index)
    pixels = np.asarray(pixels, dtype=np.float64)
    if np.ndim(image_index) and np.shape(image_index) != pixels.shape[:-1]:
        raise DataError(
            f"image indices of shape {np.shape(image_index)} do not match "
            f"pixels of shape {pixels.shape}"
        )
    dirs = pixel_to_ray(params.intrinsics, pixels)
    origins = np.zeros_like(dirs)
    batch = _trace_batch(params.cone, params.surface, origins, dirs)
    return _land_on_board(batch, rotation, translation)


def raycast_pixels(params: SceneParams, image_index, pixels):
    """Batched pixel-to-board raycast under the full cover model.

    ``image_index`` is as for :func:`trace_pixels`. Returns
    ``(board_local, status)`` where ``board_local`` has shape
    ``(..., 2)`` (meters; placeholder values where ``status != OK``).
    """
    batch = trace_pixels(params, image_index, pixels)
    return batch.board_local, batch.status


def raycast(params: SceneParams, image_index: int, pixel) -> np.ndarray:
    """Board-local landing point of one pixel's ray, shape (2,), meters."""
    pixel = np.asarray(pixel, dtype=np.float64)
    local, status = raycast_pixels(params, image_index, pixel[None, :])
    _raise_for_status(int(status[0]))
    return local[0]


def pinhole_raycast(intrinsics: CameraIntrinsics, pose: BoardPose, pixels):
    """Board-local landing points ignoring the cover (straight rays).

    This is the no-distortion reference model; returns
    ``(board_local, hit mask)``.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    dirs = pixel_to_ray(intrinsics, pixels)
    _, _, local, hit = _land(pose.rotation, pose.translation, np.zeros_like(dirs), dirs)
    return local, hit
