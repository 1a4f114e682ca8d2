"""Double-cone cover geometry and the RBF irregularity field.

Conventions used throughout the package:

* Camera frame: origin at the camera center, +z along the optical axis,
  +y pointing down in the image. The cone axis is parallel to +y and the
  cone narrows toward +y, so the apex is the lowest point of the cover.
* Cone coordinates ``s = (s1, s2)``: ``s1`` is the height above the inner
  apex in meters and is shared by both walls (the inner and outer surface
  sample the same height band ``[0, height]``); ``s2`` is the polar angle
  around the axis in ``[-pi, pi]`` with ``s2 = 0`` on the half-plane that
  contains +z. A surface point at ``s`` sits at radius
  ``s1 * tan(half_angle)`` (inner) or ``+ radial_thickness`` (outer) from
  the axis, plus the local irregularity offset on the outer wall.
* The irregularity field is a sum of Gaussian radial basis functions with
  fixed centers on a regular grid over the normalized patch ``[0, 1]^2``
  (boundary included); only the per-center amplitudes (in meters, signed,
  radial) are free parameters, so the field is linear in them.

All functions broadcast over leading axes: ``s`` may be ``(2,)`` or
``(..., 2)``, points ``(3,)`` or ``(..., 3)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import ConfigurationError, OutOfRangeError, SingularSurfaceError

Which = Literal["inner", "outer"]

# rows whose kernel factors are contracted at once: memory stays flat as
# batches grow, and 256..4096 rows ran within 10 % on an 81 016-ray field
_KERNEL_BLOCK_ROWS = 1024


def _as_coords(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.shape[-1] != 2:
        raise ConfigurationError(f"cone coordinates must have a trailing axis of 2, got {s.shape}")
    return s


# The batched kernels compute on component arrays: a trace batch holds a few
# hundred rays, where each numpy call costs more than its arithmetic and
# ``np.stack``, ``np.cross`` and ``np.linalg.norm`` cost several plain ufunc
# calls each. Each helper does exactly the floating-point operations of the
# numpy routine its docstring names, in the same order, so its results equal
# that routine's bit for bit.


def _components(a) -> tuple:
    """The three trailing-axis components of ``a`` as views."""
    return a[..., 0], a[..., 1], a[..., 2]


def _stack_last(*components) -> np.ndarray:
    """``np.stack(components, axis=-1)``; the first component has the full
    shape, the others broadcast to it (scalars included)."""
    out = np.empty(np.shape(components[0]) + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def _dot(a, b):
    """``np.sum(a * b, axis=-1)`` of two 3-vectors given as components; the
    sum starts from +0.0, as numpy's does, so a zero sum has a plus sign."""
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple:
    """``np.cross(a, b)`` of two 3-vectors given as components."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


@dataclass(frozen=True)
class ConeGeometry:
    """Dimensions and optical constants of the double-cone cover.

    Attributes:
        apex: apex of the inner cone in camera coordinates, meters.
        half_angle: opening half-angle in radians, in (0, pi/2).
        height: extent of the wall slice above the apex, meters.
        radial_thickness: horizontal gap between the walls, meters; the
            outer wall radius at height ``s1`` is the inner radius plus
            this constant, which places the (virtual) outer apex
            ``radial_thickness / tan(half_angle)`` below the inner one.
        eta_inside: refractive index of the cover material.
        eta_outside: refractive index of the surrounding medium.
    """

    apex: tuple[float, float, float]
    half_angle: float
    height: float
    radial_thickness: float
    eta_inside: float
    eta_outside: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "apex", tuple(float(c) for c in self.apex))
        if len(self.apex) != 3:
            raise ConfigurationError("apex must be a 3-vector")
        for name in ("apex", "height", "radial_thickness", "eta_inside", "eta_outside"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < self.half_angle < np.pi / 2:
            raise ConfigurationError("half_angle must lie strictly between 0 and pi/2")
        if self.height <= 0.0:
            raise ConfigurationError("height must be positive")
        if self.radial_thickness <= 0.0:
            raise ConfigurationError("radial_thickness must be positive")
        if self.eta_inside <= 0.0 or self.eta_outside <= 0.0:
            raise ConfigurationError("refractive indices must be positive")

    @property
    def tan_half_angle(self) -> float:
        return float(np.tan(self.half_angle))

    @property
    def apex_array(self) -> np.ndarray:
        return np.array(self.apex)

    def apex_y(self, which: Which) -> float:
        """Apex height of the requested wall's supporting cone.

        The outer wall is a cone with the same half-angle whose (virtual)
        apex sits ``radial_thickness / tan(half_angle)`` below the inner
        apex, so that both walls differ by a constant horizontal gap.
        """
        _check_which(which)
        if which == "inner":
            return self.apex[1]
        return self.apex[1] + self.radial_thickness / self.tan_half_angle

    def radius(self, s1, which: Which):
        """Wall radius at height ``s1`` above the inner apex (no field)."""
        _check_which(which)
        r = np.asarray(s1, dtype=np.float64) * self.tan_half_angle
        if which == "outer":
            r = r + self.radial_thickness
        return r


def _check_which(which: str) -> None:
    if which not in ("inner", "outer"):
        raise ConfigurationError(f"unknown cone wall {which!r}, expected 'inner' or 'outer'")


@dataclass(frozen=True)
class RbfPatch:
    """Rectangular patch of the outer wall carrying the irregularity field."""

    s1_range: tuple[float, float]
    s2_range: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "s1_range", (float(self.s1_range[0]), float(self.s1_range[1])))
        object.__setattr__(self, "s2_range", (float(self.s2_range[0]), float(self.s2_range[1])))
        if not self.s1_range[0] < self.s1_range[1]:
            raise ConfigurationError("patch s1_range must be increasing")
        if self.s1_range[0] < 0.0:
            raise ConfigurationError("patch s1_range must start at or above the apex")
        if not self.s2_range[0] < self.s2_range[1]:
            raise ConfigurationError("patch s2_range must be increasing")
        if self.s2_range[0] < -np.pi or self.s2_range[1] > np.pi:
            raise ConfigurationError("patch s2_range must lie within [-pi, pi]")

    @property
    def spans(self) -> np.ndarray:
        return np.array(
            [
                self.s1_range[1] - self.s1_range[0],
                self.s2_range[1] - self.s2_range[0],
            ]
        )

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.s1_range[0], self.s2_range[0]])


def _grid_spacing(n: int) -> float:
    return 1.0 if n == 1 else 1.0 / (n - 1)


@dataclass(frozen=True)
class RbfSurface:
    """Irregularity field: amplitudes on a fixed grid of Gaussian centers.

    ``amplitudes`` has shape ``grid`` = (rows, cols); rows index the
    normalized ``s1`` direction, columns the normalized ``s2`` direction.
    Centers sit on the regular grid over ``[0, 1]^2`` including the
    boundary (a singleton axis centers at 0.5). ``beta`` is the shared
    squared kernel width in normalized units. The value is immutable;
    use :meth:`with_amplitudes` to derive an updated surface.
    """

    patch: RbfPatch
    grid: tuple[int, int]
    amplitudes: np.ndarray = field(repr=False)
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "grid", (int(self.grid[0]), int(self.grid[1])))
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ConfigurationError("center grid must have at least one row and column")
        amps = np.array(self.amplitudes, dtype=np.float64)
        if amps.shape != self.grid:
            raise ConfigurationError(
                f"amplitudes shape {amps.shape} does not match grid {self.grid}"
            )
        if not np.all(np.isfinite(amps)):
            raise ConfigurationError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "beta", float(self.beta))
        if not self.beta > 0.0:
            raise ConfigurationError("beta must be positive")

    @classmethod
    def flat(cls, patch: RbfPatch, grid: tuple[int, int], beta: float | None = None) -> "RbfSurface":
        """Zero-amplitude surface; beta defaults to the product of the
        normalized center spacings (spacing squared for square grids)."""
        rows, cols = int(grid[0]), int(grid[1])
        if rows < 1 or cols < 1:
            raise ConfigurationError("center grid must have at least one row and column")
        if beta is None:
            beta = _grid_spacing(rows) * _grid_spacing(cols)
        return cls(patch=patch, grid=(rows, cols), amplitudes=np.zeros((rows, cols)), beta=beta)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "RbfSurface":
        return RbfSurface(self.patch, self.grid, amplitudes, self.beta)

    @property
    def n_centers(self) -> int:
        return self.grid[0] * self.grid[1]

    @cached_property
    def center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized center coordinates along each grid axis, ``(c1, c2)``
        of lengths ``grid``, read-only; the centers are their grid."""
        axes = tuple(np.full(n, 0.5) if n == 1 else np.arange(n) / (n - 1) for n in self.grid)
        for axis in axes:
            axis.flags.writeable = False
        return axes

    @cached_property
    def centers(self) -> np.ndarray:
        """Normalized center positions, shape (n_centers, 2), row-major."""
        grid1, grid2 = np.meshgrid(*self.center_axes, indexing="ij")
        centers = np.column_stack([grid1.ravel(), grid2.ravel()])
        centers.flags.writeable = False
        return centers

    @property
    def flat_amplitudes(self) -> np.ndarray:
        return self.amplitudes.ravel()


def normalize_coords(patch: RbfPatch, s) -> np.ndarray:
    """Affine map from cone coordinates into the patch's unit square.

    Points outside the patch map outside ``[0, 1]^2``; nothing clips.
    """
    return (_as_coords(s) - patch.lower) / patch.spans


def denormalize_coords(patch: RbfPatch, s_norm) -> np.ndarray:
    """Inverse of :func:`normalize_coords`."""
    return _as_coords(s_norm) * patch.spans + patch.lower


def rbf_kernel_terms(surface: RbfSurface, s) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis kernel factors ``(e1, e2)``, shapes ``(..., G1)`` and
    ``(..., G2)`` for the center grid ``(G1, G2)``: the only kernel data,
    as the field and its slopes follow from them (:func:`_field_values`).

    The centers form a grid and the Gaussian is isotropic in normalized
    coordinates, so center ``(i, j)``'s kernel is ``e1[i] * e2[j]``: one
    exponential per center row and one per column, and the kernel matrix
    ``K`` is never formed. Each point's factors depend only on that point.
    """
    s_norm = normalize_coords(surface.patch, s)
    c1, c2 = surface.center_axes
    d1 = c1 - s_norm[..., 0, None]
    d2 = c2 - s_norm[..., 1, None]
    two_beta = 2.0 * surface.beta
    return np.exp(-(d1 * d1) / two_beta), np.exp(-(d2 * d2) / two_beta)


def _slope_scale(surface: RbfSurface) -> np.ndarray:
    """``beta * span_d``: ``dk/ds_d = k * (c_d - s_d) / (beta * span_d)``
    for centers ``c`` and normalized coordinates ``s``."""
    return surface.beta * surface.patch.spans


def rbf_offset(surface: RbfSurface, s):
    """Radial irregularity offset at cone coordinates ``s``, in meters."""
    s = _as_coords(s)
    fields = _field_values(surface, s)
    out = np.zeros(s.shape[:-1]) if fields is None else fields[0]
    return float(out) if out.ndim == 0 else out


def cone_point(cone: ConeGeometry, surface: RbfSurface | None, s, which: Which) -> np.ndarray:
    """Cartesian point of the wall at cone coordinates ``s``.

    ``surface=None`` evaluates the perfect cone (zero field).
    """
    _check_which(which)
    s = _as_coords(s)
    r = cone.radius(s[..., 0], which)
    if surface is not None:
        r = r + rbf_offset(surface, s)
    ax, ay, az = cone.apex
    return np.stack(
        [
            ax + r * np.sin(s[..., 1]),
            ay - s[..., 0],
            az + r * np.cos(s[..., 1]),
        ],
        axis=-1,
    )


def _cone_coords(cone: ConeGeometry, x: np.ndarray) -> np.ndarray:
    """Cone coordinates with the height clipped to the slice (no check)."""
    ax, ay, az = cone.apex
    s1 = (ay - x[..., 1]).clip(0.0, cone.height)
    return _stack_last(s1, np.arctan2(x[..., 0] - ax, x[..., 2] - az))


def cartesian_to_cone_coords(cone: ConeGeometry, x) -> np.ndarray:
    """Cone coordinates of a cartesian point: shared height and polar angle.

    The coordinates depend only on the axis, not on which wall the point
    belongs to. Raises :class:`OutOfRangeError` when the height falls
    outside the ``[0, height]`` slice (tolerance 1e-9 m).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 3:
        raise ConfigurationError(f"points must have a trailing axis of 3, got {x.shape}")
    s1 = cone.apex[1] - x[..., 1]
    tol = 1e-9
    if np.any(s1 < -tol) or np.any(s1 > cone.height + tol):
        bad = np.sum((s1 < -tol) | (s1 > cone.height + tol))
        raise OutOfRangeError(
            f"{bad} point(s) outside the cone height band [0, {cone.height}] "
            f"(heights range {np.min(s1):.6g}..{np.max(s1):.6g})"
        )
    return _cone_coords(cone, x)


def inner_surface_normal(cone: ConeGeometry, s) -> np.ndarray:
    """Unit normal of the inner wall, oriented toward the axis.

    The inner wall is the perfect cone, so the normal is closed-form and
    independent of ``s1``; the apex itself has no defined normal.
    """
    s = _as_coords(s)
    if np.any(s[..., 0] < 1e-12):
        raise SingularSurfaceError("inner wall normal is undefined at the apex (s1 = 0)")
    cos_a = np.cos(cone.half_angle)
    s2 = s[..., 1]
    return _stack_last(-np.sin(s2) * cos_a, -np.sin(cone.half_angle), -np.cos(s2) * cos_a)


def _field_values(surface: RbfSurface | None, s, kernel=None):
    """Field value, slope and angular derivative ``(phi, phi1, phi2)`` at ``s``.

    Returns None, the perfect cone, when there is no surface or all its
    amplitudes are zero; no kernel is evaluated then. ``kernel``, when
    given, is a zero-argument callable returning the factors ``(e1, e2)``
    at ``s`` (the fit keeps them); otherwise they are built here
    ``_KERNEL_BLOCK_ROWS`` rows at a time. Each row contracts
    ``w = e1 [A, c_1 A, A c_2]`` over the center rows and ``m = e2 w`` over
    the columns: ``m = K [a, a c_1, a c_2]`` without ``K``, ``phi = m_0``
    and ``phi_d = (m_d - s_d phi) / (beta span_d)`` (:func:`_slope_scale`).
    Both products run row by row, as a BLAS product rounds a row
    differently with the number of rows: a point's result depends neither
    on its batch nor on where its factors came from, so the fit and a
    trace of the same ray agree bit for bit.
    """
    if surface is None or not np.any(surface.amplitudes):
        return None
    a = surface.amplitudes
    c1, c2 = surface.center_axes
    weights = np.stack([a, c1[:, None] * a, a * c2], axis=-1).reshape(a.shape[0], -1)
    s = _as_coords(s)
    rows = s.reshape(-1, 2)
    kept = None if kernel is None else [e.reshape(-1, e.shape[-1]) for e in kernel()]
    m = np.empty((rows.shape[0], 3))
    for start in range(0, rows.shape[0], _KERNEL_BLOCK_ROWS):
        block = slice(start, start + _KERNEL_BLOCK_ROWS)
        e1, e2 = rbf_kernel_terms(surface, rows[block]) if kept is None else [e[block] for e in kept]
        w = (e1[:, None, :] @ weights).reshape(-1, a.shape[1], 3)
        m[block] = (e2[:, None, :] @ w)[:, 0, :]
    m = m.reshape(s.shape[:-1] + (3,))
    phi = m[..., 0]
    s_norm = normalize_coords(surface.patch, s)
    scale = _slope_scale(surface)
    return (
        phi,
        (m[..., 1] - s_norm[..., 0] * phi) / scale[0],
        (m[..., 2] - s_norm[..., 1] * phi) / scale[1],
    )


def _field_values_adjoint(surface: RbfSurface, s, factors, cotangents: np.ndarray):
    """Transpose of :func:`_field_values` given the factors ``(e1, e2)`` at ``s``.

    ``cotangents`` has shape (n, 3), one row ``(g_phi, g_phi1, g_phi2)``
    per point of ``s``. Returns the gradient over the flat amplitudes of
    ``sum(g_phi * phi + g_phi1 * phi1 + g_phi2 * phi2)``, which is
    ``K^T g_phi + sum_d (c_d K^T g_d - K^T (s_d g_d)) / (beta span_d)``;
    each ``K^T h`` is ``e1^T diag(h) e2`` over the center grid.
    """
    e1, e2 = factors
    s_norm = normalize_coords(surface.patch, s)
    h = np.column_stack([cotangents, cotangents[:, 1:] * s_norm])
    p = [(e1 * h[:, k, None]).T @ e2 for k in range(5)]
    c1, c2 = surface.center_axes
    scale = _slope_scale(surface)
    grad = p[0] + (c1[:, None] * p[1] - p[3]) / scale[0] + (c2 * p[2] - p[4]) / scale[1]
    return grad.ravel()


def _outer_normal_linearization(cone: ConeGeometry, s, fields=None, derivatives: bool = False):
    """Outer-wall unit normal and its first-order dependence on the field.

    The tangents ``u = d(point)/d(s1)`` and ``v = d(point)/d(s2)`` depend
    on the field only through its value ``phi``, slope ``phi1`` and
    angular derivative ``phi2`` at ``s``, passed as ``fields``; None is
    the perfect cone. The normal is ``u x v`` normalized and oriented
    away from the axis.

    Returns ``(n, dn)``: ``n`` has shape ``(..., 3)``; ``dn`` has shape
    ``(..., 3, 3)`` with columns ``dn/dphi``, ``dn/dphi1``, ``dn/dphi2``
    when ``derivatives`` is set, else it is None. ``dn`` times the
    amplitude derivatives of ``(phi, phi1, phi2)`` gives the normal's,
    since the field is linear in the amplitudes.
    """
    s = _as_coords(s)
    s1, s2 = s[..., 0], s[..., 1]
    sin2, cos2 = np.sin(s2), np.cos(s2)
    # the perfect cone's zero field is a scalar 0.0, which rounds as zero arrays do
    phi, phi1, phi2 = (0.0, 0.0, 0.0) if fields is None else fields
    slope = cone.tan_half_angle + phi1
    u = (slope * sin2, -1.0, slope * cos2)
    rr = cone.radius(s1, "outer") + phi
    v = (rr * cos2 + phi2 * sin2, 0.0, -rr * sin2 + phi2 * cos2)

    raw = _cross(u, v)
    norm = np.sqrt(_dot(raw, raw))
    if np.any(norm < 1e-12):
        raise SingularSurfaceError("outer wall normal is undefined (degenerate tangents)")
    n = _stack_last(*(c / norm for c in raw))
    radial = (sin2, 0.0, cos2)
    sign = np.where(_dot(_components(n), radial) < 0.0, -1.0, 1.0)
    n *= sign[..., None]
    if not derivatives:
        return n, None

    # phi moves v along d(radial)/d(s2), phi1 moves u along the radial
    # direction and phi2 moves v along it
    tangent = (cos2, 0.0, -sin2)
    n_parts = _components(n)
    scale = sign / norm
    dn = np.empty(n.shape + (3,))
    for j, d_raw in enumerate((_cross(u, tangent), _cross(radial, v), _cross(u, radial))):
        n_dot = _dot(n_parts, d_raw)
        for i in range(3):
            dn[..., i, j] = (d_raw[i] - n_parts[i] * n_dot) * scale
    return n, dn


def outer_surface_normal(cone: ConeGeometry, surface: RbfSurface | None, s) -> np.ndarray:
    """Unit normal of the outer wall, irregularity included, oriented outward.

    Built from the cross product of the surface tangents, so the field's
    derivatives enter through the chain rule; with zero amplitudes this
    reduces to the closed-form cone normal and no kernel is evaluated.
    """
    return _outer_normal_linearization(cone, s, _field_values(surface, s))[0]
