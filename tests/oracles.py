"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written differently from the library:
angle-based Snell construction instead of the vector form, bisection on
the implicit cone equation instead of the quadratic, a 3x3 linear solve
for the board-plane hit, and finite-difference tangents for the outer
normal. Slow and scalar-ish on purpose.
"""

import math

import numpy as np

from conecal.geometry import cone_point, normalize_coords


# --------------------------------------------------------------------------
# board-local corner targets


def board_targets(ij, square_size, corners_per_side):
    """Board-local coordinates of 1-based corner indices ``ij`` (..., 2): the
    grid's middle corner (or the midpoint between the two middle ones) is the
    origin, and neighbours are ``square_size`` apart along each axis."""
    ij = np.asarray(ij, dtype=np.float64)
    return (ij - (corners_per_side + 1) / 2.0) * square_size


def board_grid_targets(square_size, corners_per_side):
    """:func:`board_targets` of every corner, row-major: (1, 1), (1, 2), ..."""
    n = corners_per_side
    ij = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return board_targets(ij, square_size, corners_per_side)


# --------------------------------------------------------------------------
# Snell refraction via explicit angles


def refract_oracle(d, n, eta):
    """Angle-space Snell construction; returns None past the critical angle."""
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if float(np.dot(d, n)) > 0.0:
        n = -n
    cos_i = float(np.clip(-np.dot(d, n), -1.0, 1.0))
    sin_i = float(np.linalg.norm(np.cross(d, n)))
    sin_t = eta * sin_i
    if sin_t > 1.0:
        return None
    if sin_i < 1e-15:
        return d.copy()
    theta_t = math.asin(min(sin_t, 1.0))
    tangential = d + cos_i * n
    t_dir = tangential / np.linalg.norm(tangential)
    return math.sin(theta_t) * t_dir - math.cos(theta_t) * n


def angle_between(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))


# --------------------------------------------------------------------------
# cone intersection by bracketing + bisection on the implicit equation


def cone_implicit(cone, which, points):
    """Signed implicit value: zero on the wall's supporting cone nappe."""
    ax, ay, az = cone.apex
    w = cone.tan_half_angle
    apex_v_y = cone.apex_y(which)
    radial = np.hypot(points[..., 0] - ax, points[..., 2] - az)
    return radial - w * (apex_v_y - points[..., 1])


def cone_bisection_t(cone, origins, dirs, which, t_max=5.0, n_grid=2200, iters=90):
    """Smallest valid intersection parameter per ray, +inf when none.

    Marches a geometric t-grid, brackets every sign change of the
    implicit equation, bisects each bracket, then applies the same
    validity rules as the library (t > 1e-12, height band).
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    ts = np.geomspace(1e-9, t_max, n_grid)
    pts = origins[:, None, :] + ts[None, :, None] * dirs[:, None, :]
    f = cone_implicit(cone, which, pts)
    sign_change = np.signbit(f[:, :-1]) != np.signbit(f[:, 1:])

    ay = cone.apex[1]
    best = np.full(origins.shape[0], np.inf)
    ray_idx, seg_idx = np.nonzero(sign_change)
    lo = ts[seg_idx].copy()
    hi = ts[seg_idx + 1].copy()
    o = origins[ray_idx]
    d = dirs[ray_idx]
    f_lo = cone_implicit(cone, which, o + lo[:, None] * d)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = cone_implicit(cone, which, o + mid[:, None] * d)
        take_lo = np.signbit(f_lo) == np.signbit(f_mid)
        lo = np.where(take_lo, mid, lo)
        f_lo = np.where(take_lo, f_mid, f_lo)
        hi = np.where(take_lo, hi, mid)
    root = 0.5 * (lo + hi)
    y_hit = o[:, 1] + root * d[:, 1]
    s1 = ay - y_hit
    ok = (root > 1e-12) & (s1 >= -1e-12) & (s1 <= cone.height + 1e-12)
    for r, t_val, good in zip(ray_idx, root, ok):
        if good and t_val < best[r]:
            best[r] = t_val
    return best


# --------------------------------------------------------------------------
# board-plane hit via a 3x3 linear solve


def board_solve_local(pose, origin, direction):
    """Solve origin + t*d = center + m1*ax + m2*ay for (t, m1, m2)."""
    a = np.column_stack([direction, -pose.rotation[:, 0], -pose.rotation[:, 1]])
    rhs = pose.translation - np.asarray(origin, dtype=np.float64)
    t, m1, m2 = np.linalg.solve(a, rhs)
    if t <= 1e-12:
        return None
    return np.array([m1, m2])


# --------------------------------------------------------------------------
# Gaussian kernel from the full center differences


def difference_kernel_oracle(surface, s):
    """Kernel matrix ``K``, shape ``(..., n_centers)``, as one exponential
    per center of the squared distance: ``exp(-(d1² + d2²) / (2 beta))``
    with ``d`` the center minus the normalized point, not factored per axis."""
    s_norm = normalize_coords(surface.patch, s)
    centers = surface.centers
    d1 = centers[:, 0] - s_norm[..., 0, None]
    d2 = centers[:, 1] - s_norm[..., 1, None]
    return np.exp(-(d1 * d1 + d2 * d2) / (2.0 * surface.beta))


def kernel_matrices_oracle(surface, s):
    """``K`` of :func:`difference_kernel_oracle` and its derivative matrices
    ``dK/ds_d = K (c_d - s_d) / (beta span_d)``, each ``(..., n_centers)``."""
    k = difference_kernel_oracle(surface, s)
    diff = surface.centers - normalize_coords(surface.patch, s)[..., None, :]
    scale = surface.beta * surface.patch.spans
    return k, k * diff[..., 0] / scale[0], k * diff[..., 1] / scale[1]


def kernel_field_oracle(surface, s, kernel=None):
    """``geometry._field_values`` as the products of the three matrices of
    :func:`kernel_matrices_oracle` with the flat amplitudes: one exponential
    per center, no per-axis factors. None for a zero field, as the library
    returns; ``kernel`` is ignored, so the oracle can stand in for it."""
    if surface is None or not np.any(surface.amplitudes):
        return None
    a = surface.flat_amplitudes
    return tuple(np.sum(m * a, axis=-1) for m in kernel_matrices_oracle(surface, s))


def kernel_field_adjoint_oracle(surface, s, cotangents):
    """``geometry._field_values_adjoint``: the transposes of the three
    matrices of :func:`kernel_matrices_oracle` times the cotangent columns."""
    return sum(m.T @ cotangents[:, d] for d, m in enumerate(kernel_matrices_oracle(surface, s)))


# --------------------------------------------------------------------------
# finite-difference outer normal


def fd_outer_normal(cone, surface, s, h=1e-7):
    """Outer-wall unit normal from central-difference tangents."""
    s = np.asarray(s, dtype=np.float64)

    def pt(s1, s2):
        return cone_point(cone, surface, np.array([s1, s2]), "outer")

    u = (pt(s[0] + h, s[1]) - pt(s[0] - h, s[1])) / (2.0 * h)
    v = (pt(s[0], s[1] + h) - pt(s[0], s[1] - h)) / (2.0 * h)
    n = np.cross(u, v)
    n = n / np.linalg.norm(n)
    radial = np.array([math.sin(s[1]), 0.0, math.cos(s[1])])
    if float(np.dot(n, radial)) < 0.0:
        n = -n
    return n


# --------------------------------------------------------------------------
# full reference raycast (scalar, one pixel)


def reference_raycast(params, image_index, pixel):
    """Pixel -> board-local landing point, rebuilt from the oracles above.

    Uses bisection for both wall hits, the angle-space refraction, the
    finite-difference outer normal and the linear-solve board hit.
    Returns None when any stage fails.
    """
    intr = params.intrinsics
    cone = params.cone
    surface = params.surface
    pose = params.poses[image_index]

    d0 = np.array(
        [(pixel[0] - intr.cx) / intr.fx, (pixel[1] - intr.cy) / intr.fy, 1.0]
    )
    d0 = d0 / np.linalg.norm(d0)
    origin = np.zeros(3)

    t_i = cone_bisection_t(cone, origin[None, :], d0[None, :], "inner")[0]
    if not np.isfinite(t_i):
        return None
    x_i = origin + t_i * d0
    s_i = np.array(
        [
            cone.apex[1] - x_i[1],
            math.atan2(x_i[0] - cone.apex[0], x_i[2] - cone.apex[2]),
        ]
    )
    # inner wall is the perfect cone: finite-difference its parametrization
    n_i = fd_inner_normal(cone, s_i)
    d_glass = refract_oracle(d0, n_i, cone.eta_outside / cone.eta_inside)
    if d_glass is None:
        return None

    t_o = cone_bisection_t(cone, x_i[None, :], d_glass[None, :], "outer")[0]
    if not np.isfinite(t_o):
        return None
    x_o = x_i + t_o * d_glass
    s_o = np.array(
        [
            cone.apex[1] - x_o[1],
            math.atan2(x_o[0] - cone.apex[0], x_o[2] - cone.apex[2]),
        ]
    )
    n_o = fd_outer_normal(cone, surface, s_o)
    d_out = refract_oracle(d_glass, n_o, cone.eta_inside / cone.eta_outside)
    if d_out is None:
        return None
    return board_solve_local(pose, x_o, d_out)


def fd_inner_normal(cone, s, h=1e-7):
    """Inner-wall unit normal from central-difference tangents, toward axis."""

    def pt(s1, s2):
        return cone_point(cone, None, np.array([s1, s2]), "inner")

    u = (pt(s[0] + h, s[1]) - pt(s[0] - h, s[1])) / (2.0 * h)
    v = (pt(s[0], s[1] + h) - pt(s[0], s[1] - h)) / (2.0 * h)
    n = np.cross(u, v)
    n = n / np.linalg.norm(n)
    radial = np.array([math.sin(s[1]), 0.0, math.cos(s[1])])
    if float(np.dot(n, radial)) > 0.0:
        n = -n
    return n


# --------------------------------------------------------------------------
# projection by grid search (inverse of the raycast, no Gauss-Newton)


def project_consistent(params, image_index, board_xy, half_width=60.0):
    """Pixel that raycasts onto board_xy, seeded by the pinhole projection."""
    from conecal.camera import pinhole_project

    pose = params.poses[image_index]
    world = pose.board_to_world(np.asarray(board_xy, dtype=np.float64))
    center = pinhole_project(params.intrinsics, world)
    return grid_search_project(params, image_index, board_xy, center, half_width=half_width)


def grid_search_project(params, image_index, board_xy, center, half_width=400.0, tol=1e-6):
    """Pixel whose raycast lands on board_xy, by shrinking grid search.

    ``center`` is a starting pixel guess; the search refines a 9x9 grid
    around the best candidate until the pixel step drops below ``tol``.
    Returns None if no valid candidate is found at some stage.
    """
    from conecal.raytrace import TraceStatus, raycast_pixels

    board_xy = np.asarray(board_xy, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    width = float(half_width)
    best = center
    while True:
        offsets = np.linspace(-width, width, 9)
        gx, gy = np.meshgrid(best[0] + offsets, best[1] + offsets, indexing="ij")
        pixels = np.column_stack([gx.ravel(), gy.ravel()])
        local, status = raycast_pixels(params, image_index, pixels)
        err = np.linalg.norm(local - board_xy, axis=-1)
        err = np.where(status == TraceStatus.OK, err, np.inf)
        k = int(np.argmin(err))
        if not np.isfinite(err[k]):
            return None
        best = pixels[k]
        if width < tol:
            return best
        width *= 0.3


def gauss_newton_project_every_row(
    params, image_index, board_xy, tol=1e-9, max_iters=50, fd_step_px=0.01
):
    """The projection's Gauss-Newton rule with nothing settled.

    Every iteration re-traces every row of one image, takes both forward
    differences and line-searches on the full batch, and a last raycast
    decides convergence. ``synth.project_corners`` must return the same
    bits while tracing only the rows that can still move.
    """
    from conecal.camera import pinhole_project
    from conecal.raytrace import TraceStatus, raycast_pixels

    targets = np.asarray(board_xy, dtype=np.float64).reshape(-1, 2)
    pixels = pinhole_project(params.intrinsics, params.poses[image_index].board_to_world(targets))
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
        jx = (local_x - local) / h
        jy = (local_y - local) / h
        det = jx[:, 0] * jy[:, 1] - jy[:, 0] * jx[:, 1]
        solvable = (
            active
            & (status_x == TraceStatus.OK)
            & (status_y == TraceStatus.OK)
            & (np.abs(det) > 1e-30)
        )
        det = np.where(solvable, det, 1.0)
        step = -np.stack(
            [
                (jy[:, 1] * residual[:, 0] - jy[:, 0] * residual[:, 1]) / det,
                (jx[:, 0] * residual[:, 1] - jx[:, 1] * residual[:, 0]) / det,
            ],
            axis=-1,
        )
        lam = np.where(solvable, 1.0, 0.0)
        pending = solvable.copy()
        for _ in range(8):
            if not np.any(pending):
                break
            trial = pixels + lam[:, None] * step
            trial_local, trial_status = raycast_pixels(params, image_index, trial)
            trial_err = np.linalg.norm(trial_local - targets, axis=-1)
            improved = pending & (trial_status == TraceStatus.OK) & (trial_err < err)
            pixels = np.where(improved[:, None], trial, pixels)
            pending &= ~improved
            lam = np.where(pending, lam * 0.5, lam)
    local, status = raycast_pixels(params, image_index, pixels)
    converged = (status == TraceStatus.OK) & (np.linalg.norm(local - targets, axis=-1) <= tol)
    return pixels, converged


# --------------------------------------------------------------------------
# per-corner residual scatter, one trace per image


def per_image_corner_scatter(params, observations):
    """``analysis.corner_error_scatter`` as one ``trace_pixels`` call per
    image, with each corner's entry built from numpy scalars and a running
    sum of squared residuals."""
    from conecal.errors import DataError
    from conecal.raytrace import STAGE_NAMES, TraceStatus, trace_pixels

    images = []
    total = 0.0
    count = 0
    for im in observations.images:
        batch = trace_pixels(params, im.image_index, im.pixels)
        targets = board_targets(im.grid_ij, observations.square_size, observations.corners_per_side)
        rho = batch.board_local - targets
        corners = []
        for k in range(im.n_corners):
            st = TraceStatus(batch.status[k])
            entry = {
                "i": int(im.grid_ij[k, 0]),
                "j": int(im.grid_ij[k, 1]),
                "px": float(im.pixels[k, 0]),
                "py": float(im.pixels[k, 1]),
                "status": "ok" if st == TraceStatus.OK else STAGE_NAMES[st],
            }
            if st == TraceStatus.OK:
                entry["dmx_m"] = float(rho[k, 0])
                entry["dmy_m"] = float(rho[k, 1])
                entry["err_m"] = float(np.hypot(rho[k, 0], rho[k, 1]))
                total += float(rho[k, 0] ** 2 + rho[k, 1] ** 2)
                count += 1
            else:
                entry["dmx_m"] = None
                entry["dmy_m"] = None
                entry["err_m"] = None
            corners.append(entry)
        images.append({"index": im.image_index, "corners": corners})
    if count == 0:
        raise DataError("no corner completed the trace; nothing to report")
    return {
        "images": images,
        "rmse_cm": float(np.sqrt(total / count) * 100.0),
        "n_corners": count,
    }


def corner_scatter_files(scatter):
    """``(json_text, csv_text)`` of the corner scatter files for the dict form
    ``scatter`` (as :func:`per_image_corner_scatter` returns it): the JSON
    through ``json.dumps``, the CSV one row per corner with ``repr`` floats
    and empty residual fields for a failed corner."""
    import json

    rows = ["image,i,j,px,py,status,dmx_m,dmy_m,err_m"]
    for image in scatter["images"]:
        for c in image["corners"]:
            residuals = ["" if c[k] is None else repr(c[k]) for k in ("dmx_m", "dmy_m", "err_m")]
            rows.append(
                ",".join([str(image["index"]), str(c["i"]), str(c["j"]), repr(c["px"]),
                          repr(c["py"]), c["status"], *residuals])
            )
    return json.dumps(scatter, indent=2, sort_keys=True) + "\n", "\n".join(rows) + "\n"


# --------------------------------------------------------------------------
# pose refinement with a finite-difference Jacobian, one trace per image


def refine_poses_finite_difference(params, observations):
    """Zero-field pose refinement as one ``trace_pixels`` call per image and
    a ``least_squares`` solve with scipy's 2-point finite-difference
    Jacobian and scipy rotations.

    Returns one ``(pose, initial_cost, final_cost, n_valid)`` per image;
    ``calibrate.refine_poses`` must reach the same minima.
    """
    import dataclasses

    from scipy.optimize import least_squares
    from scipy.spatial.transform import Rotation

    from conecal.geometry import RbfSurface
    from conecal.raytrace import TraceStatus, trace_pixels

    surface = params.surface
    zero = params.with_surface(RbfSurface.flat(surface.patch, surface.grid, beta=surface.beta))
    results = []
    for im in observations.images:
        batch = trace_pixels(zero, im.image_index, im.pixels)
        left = (batch.status == TraceStatus.OK) | (batch.status == TraceStatus.MISS_BOARD)
        targets = board_targets(im.grid_ij, observations.square_size, observations.corners_per_side)
        x_o, r_o, x_cb = batch.x_outer[left], batch.dir_out[left], targets[left]
        pose0 = params.pose(im.image_index)
        if not np.any(left):
            results.append((pose0, 0.0, 0.0, 0))
            continue

        def residual(p):
            rot = Rotation.from_rotvec(p[:3]).as_matrix() @ pose0.rotation
            normal = rot[:, 2]
            denom = r_o @ normal
            t = ((p[3:] - x_o) @ normal) / np.where(np.abs(denom) > 1e-12, denom, 1.0)
            hit = (np.abs(denom) > 1e-12) & (t > 1e-12)
            rel = x_o + t[:, None] * r_o - p[3:]
            local = np.column_stack([rel @ rot[:, 0], rel @ rot[:, 1]])
            return np.where(hit[:, None], local - x_cb, 1e3).ravel()

        p0 = np.concatenate([np.zeros(3), pose0.translation])
        cost0 = float(np.sum(residual(p0) ** 2))
        sol = least_squares(residual, p0, method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14)
        cost1 = float(np.sum(residual(sol.x) ** 2))
        if cost1 >= cost0:
            results.append((pose0, cost0, cost0, int(np.count_nonzero(left))))
            continue
        rot = Rotation.from_rotvec(sol.x[:3]).as_matrix() @ pose0.rotation
        pose = dataclasses.replace(pose0, rotation=rot, translation=sol.x[3:])
        results.append((pose, cost0, cost1, int(np.count_nonzero(left))))
    return results


# --------------------------------------------------------------------------
# the amplitude gradient's backward chain on (N, 3) rows


def exit_direction_cotangent(params, fit, batch, ok, rho):
    """The gradient of the loss over each active row's exit direction,
    (n_active, 3), written on ``(N, 3)`` rows with ``np.sum`` through the
    board-plane hit: ``w3 = dL/dx_board``, then through the landing's ray
    parameter. The library forms it from the landing's translation rows
    instead, so the two agree to rounding, not bit for bit."""
    rotation = np.stack([params.pose(i).rotation for i in fit.image_index[ok].tolist()])
    n_b = rotation[..., 2]
    w3 = 2.0 * (rho[:, 0, None] * rotation[..., 0] + rho[:, 1, None] * rotation[..., 1])
    r_o = batch.dir_out[ok]
    scale = (np.sum(r_o * w3, axis=-1) / np.sum(r_o * n_b, axis=-1))[:, None]
    return batch.t_board[ok, None] * (w3 - n_b * scale)


def amplitude_gradient_cotangents(params, fit, batch, ok, dl_dro, dn):
    """The cotangents ``g`` (n_corners, 3) that ``_FitBatch._amplitude_gradient``
    hands to the field adjoint from the exit-direction cotangent ``dl_dro``
    (n_active, 3), by the chain written on ``(N, 3)`` rows with ``np.sum``:
    exit direction -> exit refraction -> outer normal -> (phi, phi1, phi2).
    The library's component-array chain must return the same bits, signed
    zeros included."""
    eta = params.cone.eta_inside / params.cone.eta_outside
    r_m = batch.dir_glass[ok]
    n_hat = batch.n_outer[ok]
    sigma = np.where(np.sum(r_m * n_hat, axis=-1) > 0.0, -1.0, 1.0)
    n_eff = sigma[:, None] * n_hat
    c_i = -np.sum(r_m * n_eff, axis=-1)
    k_refr = 1.0 - eta * eta * (1.0 - c_i * c_i)
    c_t = np.sqrt(np.maximum(k_refr, 1e-300))
    f = eta * c_i - c_t
    df_dci = eta - eta * eta * c_i / c_t
    dl_dneff = f[:, None] * dl_dro - (df_dci * np.sum(n_eff * dl_dro, axis=-1))[:, None] * r_m
    dl_dnhat = sigma[:, None] * dl_dneff

    g = np.zeros((fit.target.shape[0], 3))
    g[ok] = np.sum(dl_dnhat[:, :, None] * dn, axis=1)
    return g


# --------------------------------------------------------------------------
# the pose sampler without its outline prefilter


def sample_pose_projecting_every_candidate(
    sampler, rng, intrinsics, cone, surface, square_size, corners_per_side
):
    """``PoseSampler.sample_pose`` deciding every candidate by the zero-field
    projection alone. It must draw from ``rng`` exactly as the sampler does,
    so the loop is the sampler's own, without the outline test:
    ``sample_pose`` must return the same poses and leave ``rng`` in the same
    state."""
    from conecal.errors import ConfigurationError, DataError
    from conecal.geometry import RbfSurface
    from conecal.raytrace import BoardPose, SceneParams
    from conecal.synth import _on_sensor, _rotation_zyx, project_corners

    zero = RbfSurface.flat(surface.patch, surface.grid, beta=surface.beta)
    half_fov_x = (intrinsics.width / 2.0) / intrinsics.fx
    half_fov_y = (intrinsics.height / 2.0) / intrinsics.fy
    targets = board_grid_targets(square_size, corners_per_side)
    for _ in range(sampler.max_attempts):
        depth = rng.uniform(*sampler.depth_range)
        angles = np.radians(
            rng.uniform(-sampler.rotation_range_deg, sampler.rotation_range_deg, 3)
        )
        dx = rng.uniform(-1.0, 1.0) * sampler.lateral_margin * depth * half_fov_x
        dy = rng.uniform(-1.0, 1.0) * sampler.lateral_margin * depth * half_fov_y
        pose = BoardPose(rotation=_rotation_zyx(angles), translation=np.array([dx, dy, depth]))
        params = SceneParams(intrinsics=intrinsics, cone=cone, surface=zero, poses=(pose,))
        try:
            pixels, converged = project_corners(params, 0, targets)
        except DataError:
            continue
        if np.all(converged) and np.all(_on_sensor(intrinsics, pixels)):
            return pose
    raise ConfigurationError(f"no fully visible pose found in {sampler.max_attempts} attempts")
