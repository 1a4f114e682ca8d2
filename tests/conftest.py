"""Shared fixtures: a default scene matching the package's built-in config."""

from __future__ import annotations

import numpy as np
import pytest

from conecal import calibrate, geometry, raytrace
from conecal.camera import CameraIntrinsics
from conecal.geometry import ConeGeometry, RbfPatch, RbfSurface
from conecal.raytrace import BoardPose, SceneParams


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(
        fx=2558.36, fy=2558.36, cx=1666.03, cy=1273.65, width=3280, height=2464
    )


@pytest.fixture
def cone() -> ConeGeometry:
    return ConeGeometry(
        apex=(0.0, 0.04, -0.0015),
        half_angle=np.radians(5.0),
        height=0.05,
        radial_thickness=0.003,
        eta_inside=1.5,
    )


@pytest.fixture
def patch() -> RbfPatch:
    return RbfPatch(s1_range=(0.03, 0.05), s2_range=(-np.radians(15.0), np.radians(15.0)))


@pytest.fixture
def flat_surface(patch) -> RbfSurface:
    return RbfSurface.flat(patch, grid=(4, 4))


def make_pose(
    depth: float,
    dx: float = 0.0,
    dy: float = 0.0,
    rot_deg: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> BoardPose:
    """Board pose helper: translation plus per-axis rotation in degrees."""
    rx, ry, rz = np.radians(rot_deg)
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return BoardPose(rotation=mz @ my @ mx, translation=np.array([dx, dy, depth]))


def count_kernel_calls(monkeypatch):
    """Record the input shape of every rbf_kernel_terms call."""
    calls = []
    original = geometry.rbf_kernel_terms

    def counting(surface, s):
        calls.append(np.shape(s))
        return original(surface, s)

    monkeypatch.setattr(geometry, "rbf_kernel_terms", counting)
    monkeypatch.setattr(calibrate, "rbf_kernel_terms", counting)
    return calls


def count_cover_traces(monkeypatch):
    """Record the number of rays of every ``_trace_cover`` call."""
    calls = []
    original = raytrace._trace_cover

    def counting(cone, origins, dirs):
        calls.append(int(np.prod(np.shape(dirs)[:-1])))
        return original(cone, origins, dirs)

    monkeypatch.setattr(raytrace, "_trace_cover", counting)
    monkeypatch.setattr(calibrate, "_trace_cover", counting)
    return calls


@pytest.fixture
def poses() -> tuple[BoardPose, ...]:
    return (
        make_pose(0.6),
        make_pose(0.9, dx=0.05, dy=-0.03, rot_deg=(8.0, -12.0, 5.0)),
        make_pose(1.2, dx=-0.08, dy=0.04, rot_deg=(-10.0, 6.0, -15.0)),
    )


@pytest.fixture
def scene_zero(intrinsics, cone, flat_surface, poses) -> SceneParams:
    """Perfect-cone scene (all irregularity amplitudes zero)."""
    return SceneParams(
        intrinsics=intrinsics, cone=cone, surface=flat_surface, poses=poses
    )
