"""Loss, analytic gradients and optimizers for surface and pose recovery.

The loss is the sum of squared board-plane residuals (meters squared)
between raycast landing points and the known corner positions, taken
over every corner whose ray completes the trace; failed rays are
excluded and reported. The irregularity field enters the trace only
through the outer-wall normal, so the gradient with respect to the
amplitudes is assembled by chaining the board residual back through
the exit refraction and the normal's dependence on the field. Pose
gradients use a left rotation increment about the current estimate.

Every evaluation runs on one stacked batch of all images' corners. Its
cover stage (inner hit and refraction, outer hit) and the kernel matrix
``K`` at the outer hits are computed once per live observation set,
camera, cone and centers, and reused for every iterate of a fit. That is
exact only because the outer intersection is taken on the perfect cone,
so the outer hits do not move with the amplitudes; an exact intersection
with the displaced wall would have to rebuild the batch for every
iterate. The cover does not depend on the poses either, which each
evaluation reads from its parameters, so one batch also serves the pose
refinement (its zero-field exit rays), the RMSEs and the fit.

Pose refinement and the pose gradient share one linearization of the
board landing, :func:`_pose_rows`: the refinement hands it to
``least_squares`` as the Jacobian, the gradient contracts it with the
residuals.

Accumulations (``np.sum``, per-image ``np.bincount`` and the products
with ``K``) run in a fixed order, so repeated runs produce bit-identical
results.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from .errors import ConfigurationError, DataError, DivergenceError
from .camera import pixel_to_ray
from .geometry import (
    RbfSurface,
    _components,
    _dot,
    _field_values,
    _field_values_adjoint,
    _outer_normal_linearization,
    _stack_last,
    rbf_kernel_terms,
)
from .observations import ObservationSet
from .raytrace import (
    STAGE_NAMES,
    BoardPose,
    SceneParams,
    TraceStatus,
    _land,
    _land_on_board,
    _rotvec_left_jacobian,
    _rotvec_matrix,
    _trace_cover,
    _trace_exit,
    trace_pixels,  # unused here; perfbench/tracing.py wraps this name
)


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings for the Adam amplitude descent.

    The rate is annealed with a half-cosine: full rate at the start,
    near zero at the end. ``tolerance`` stops early when the loss
    improves by less than that amount (m^2); zero disables early
    stopping.
    """

    step_count: int = 500
    learning_rate: float = 1e-6
    tolerance: float = 0.0

    def __post_init__(self):
        if self.step_count < 1:
            raise ConfigurationError("step_count must be at least 1")
        if self.learning_rate <= 0.0:
            raise ConfigurationError("learning_rate must be positive")
        if self.tolerance < 0.0:
            raise ConfigurationError("tolerance must be nonnegative")

    def rate_at(self, step_index: int) -> float:
        """Learning rate for 0-based step ``step_index``."""
        if self.step_count <= 1:
            return self.learning_rate
        frac = step_index / self.step_count
        return self.learning_rate * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass(frozen=True)
class LossResult:
    """Loss value plus the bookkeeping of excluded corners."""

    value: float
    n_active: int
    errored: tuple  # ((image_index, i, j, stage), ...) sorted


@dataclass(frozen=True)
class FitResult:
    """Outcome of the amplitude fit."""

    params: SceneParams
    loss_history: np.ndarray  # one entry per evaluated iterate
    errored: tuple
    n_active: int

    @property
    def surface(self) -> RbfSurface:
        return self.params.surface

    @property
    def final_loss(self) -> float:
        return float(self.loss_history[-1])

    @property
    def rmse_cm(self) -> float:
        """Root-mean-square corner residual of the final evaluation, in cm."""
        return math.sqrt(self.final_loss / self.n_active) * 100.0


@dataclass(frozen=True)
class ImageRefineReport:
    image_index: int
    initial_cost: float
    final_cost: float
    n_valid: int


@dataclass(frozen=True)
class RefineResult:
    """Outcome of the pose refinement."""

    params: SceneParams
    reports: tuple


class _FitBatch:
    """Every image's corners stacked in image order, traced through the cover once.

    Holds the rows of :meth:`ObservationSet.stacked` (minus the pixels),
    plus the pose- and amplitude-independent cover stage. The kernel
    matrix ``K`` at the outer hits is built on first use, image by image,
    and is the only kernel data kept: the field's slope and angular
    derivative, and their amplitude gradient, follow from it exactly
    (:func:`~conecal.geometry._field_values` and its adjoint).
    """

    def __init__(self, params: SceneParams, observations: ObservationSet):
        self.image_index, self.grid_ij, pixels, self.target, self.offsets = observations.stacked()
        self.n_images = observations.n_images
        dirs = pixel_to_ray(params.intrinsics, pixels)
        self.cover = _trace_cover(params.cone, np.zeros_like(dirs), dirs)
        self._kernel = None

    def kernel(self, surface: RbfSurface) -> np.ndarray:
        """``K`` at every outer hit for the centers of ``surface``, shape
        (n_corners, n_centers); built image by image to bound the
        temporaries of the kernel evaluation."""
        if self._kernel is None:
            self._kernel = np.empty((self.target.shape[0], surface.n_centers))
            for start, stop in zip(self.offsets[:-1], self.offsets[1:]):
                s_outer = self.cover.s_outer[start:stop]
                self._kernel[start:stop] = rbf_kernel_terms(surface, s_outer)
        return self._kernel

    def errored(self, status: np.ndarray) -> tuple:
        """Sorted ``(image_index, i, j, stage)`` of every failed corner."""
        bad = np.flatnonzero(status != TraceStatus.OK)
        return tuple(
            sorted(
                zip(
                    self.image_index[bad].tolist(),
                    self.grid_ij[bad, 0].tolist(),
                    self.grid_ij[bad, 1].tolist(),
                    [STAGE_NAMES[TraceStatus(s)] for s in status[bad].tolist()],
                )
            )
        )

    def trace(self, params: SceneParams, derivatives: bool):
        """Exit stage and board landing of every corner under ``params``,
        the outer normal's field derivatives when ``derivatives`` is set
        (else None) and each corner's board rotation. Each row has the bits
        that :func:`~conecal.raytrace.trace_pixels` gives its pixel."""
        surface = params.surface
        fields = _field_values(surface, self.cover.s_outer, lambda: self.kernel(surface))
        n_outer, dn = _outer_normal_linearization(
            params.cone, self.cover.s_outer, fields, derivatives
        )
        rotation, translation = params.pose_arrays(self.image_index)
        batch = _land_on_board(_trace_exit(params.cone, self.cover, n_outer), rotation, translation)
        return batch, dn, rotation

    def evaluate(self, params: SceneParams, wrt: str | None = None):
        """Loss under ``params`` and, for ``wrt`` "amplitudes" or "poses",
        its gradient (else None)."""
        batch, dn, rotation = self.trace(params, wrt == "amplitudes")
        ok = batch.ok
        n_active = int(np.count_nonzero(ok))
        if n_active == 0:
            raise DataError("no corner completed the trace; loss is undefined")
        rho = (batch.board_local - self.target)[ok]
        result = LossResult(
            value=float(np.sum(rho**2)), n_active=n_active, errored=self.errored(batch.status)
        )
        if wrt == "amplitudes":
            return result, self._amplitude_gradient(params, rotation[ok], batch, ok, rho, dn[ok])
        if wrt == "poses":
            return result, self._pose_gradient(rotation[ok], batch, ok, rho)
        return result, None

    def _amplitude_gradient(self, params, rotation, batch, ok, rho, dn):
        # the chain runs on x/y/z component arrays, with the operations of the
        # (N, 3) formula in numpy's order, so its bits are that formula's;
        # w3 is the gradient of the loss with respect to the board-plane hit
        a0, a1, n_b = (_components(rotation[..., k]) for k in range(3))
        rho0, rho1 = rho[:, 0], rho[:, 1]
        w3 = [2.0 * (rho0 * a0_c + rho1 * a1_c) for a0_c, a1_c in zip(a0, a1)]
        r_o = _components(batch.dir_out[ok])
        scale = _dot(r_o, w3) / _dot(r_o, n_b)
        t_board = batch.t_board[ok]
        dl_dro = [t_board * (w3_c - n_c * scale) for w3_c, n_c in zip(w3, n_b)]

        # backward through the exit refraction: r_o depends on the oriented
        # outer normal both directly and via the incidence cosine
        eta = params.cone.eta_inside / params.cone.eta_outside
        r_m = _components(batch.dir_glass[ok])
        n_hat = _components(batch.n_outer[ok])
        sigma = np.where(_dot(r_m, n_hat) > 0.0, -1.0, 1.0)
        n_eff = [sigma * n_c for n_c in n_hat]
        c_i = -_dot(r_m, n_eff)
        k_refr = 1.0 - eta * eta * (1.0 - c_i * c_i)
        c_t = np.sqrt(np.maximum(k_refr, 1e-300))
        f = eta * c_i - c_t
        df_dci = eta - eta * eta * c_i / c_t
        along = df_dci * _dot(n_eff, dl_dro)
        dl_dnhat = [sigma * (f * d_c - along * m_c) for d_c, m_c in zip(dl_dro, r_m)]

        # backward through the normal to the field value, slope and
        # angular derivative, then through K
        g = np.zeros((self.target.shape[0], 3))
        g[ok] = _stack_last(*(_dot(dl_dnhat, _components(dn[..., j])) for j in range(3)))
        surface = params.surface
        return _field_values_adjoint(surface, self.cover.s_outer, self.kernel(surface), g)

    def _pose_gradient(self, rotation, batch, ok, rho):
        """One [rotation-increment, translation] block of 6 per image: the
        per-image sums of ``2 rho^T J`` over the rows of :func:`_pose_rows`."""
        rows = _pose_rows(rotation, batch.board_local[ok], batch.dir_out[ok])
        grad = 2.0 * (rho[:, 0, None] * rows[:, 0] + rho[:, 1, None] * rows[:, 1])
        image = self.image_index[ok]
        blocks = [np.bincount(image, weights=col, minlength=self.n_images) for col in grad.T]
        return np.stack(blocks, axis=1).ravel()


def _pose_rows(rotation, local, dir_out) -> np.ndarray:
    """``d(board u, v)/d[delta, t]`` of each landing, shape ``(n, 2, 6)``.

    ``delta`` is a left rotation increment of the pose and ``t`` its
    translation; the exit rays (``dir_out`` through fixed outer hits)
    do not move. With the landing's board coordinates ``local = (u_0, u_1)``,
    ``r = x_board - t``, the board axes ``a_k = R e_k``, the normal
    ``n = R e3`` and ``q_k = (d . a_k)/(d . n)``:
    ``du_k/d(delta) = a_k x r - q_k (n x r)`` and ``du_k/dt = q_k n - a_k``.
    The landing lies on the board, so ``r = u_0 a_0 + u_1 a_1`` and the
    cross products reduce to ``a_0 x r = u_1 n``, ``a_1 x r = -u_0 n`` and
    ``n x r = u_0 a_1 - u_1 a_0``. ``rotation`` is one pose or one per
    landing.
    """
    a0, a1, normal = rotation[..., 0], rotation[..., 1], rotation[..., 2]
    u0 = local[:, 0, None]
    u1 = local[:, 1, None]
    d_dot_n = np.sum(dir_out * normal, axis=-1)
    q0 = (np.sum(dir_out * a0, axis=-1) / d_dot_n)[:, None]
    q1 = (np.sum(dir_out * a1, axis=-1) / d_dot_n)[:, None]
    n_cross_r = u0 * a1 - u1 * a0
    rows = np.empty((local.shape[0], 2, 6))
    rows[:, 0, :3] = u1 * normal - q0 * n_cross_r
    rows[:, 1, :3] = -u0 * normal - q1 * n_cross_r
    rows[:, 0, 3:] = q0 * normal - a0
    rows[:, 1, 3:] = q1 * normal - a1
    return rows


# (key, batch) per live observation set: an entry goes with its set
_FIT_BATCHES: "weakref.WeakKeyDictionary[ObservationSet, tuple]" = weakref.WeakKeyDictionary()


def _fit_batch(params: SceneParams, observations: ObservationSet) -> _FitBatch:
    """The stacked batch of ``observations`` under the camera, cone and
    centers of ``params``, rebuilt when one of them differs from the last
    call's on this set; the poses and amplitudes are read per evaluation."""
    surface = params.surface
    key = (params.intrinsics, params.cone, surface.patch, surface.grid, surface.beta)
    entry = _FIT_BATCHES.get(observations)
    if entry is None or entry[0] != key:
        entry = _FIT_BATCHES[observations] = (key, _FitBatch(params, observations))
    return entry[1]


def loss(params: SceneParams, observations: ObservationSet) -> LossResult:
    """Sum of squared corner residuals in board coordinates (m^2)."""
    return _fit_batch(params, observations).evaluate(params)[0]


def loss_gradient(params: SceneParams, observations: ObservationSet, wrt: str = "amplitudes"):
    """Loss and its analytic gradient.

    ``wrt="amplitudes"`` returns the gradient over the flattened center
    amplitudes; ``wrt="poses"`` returns one ``[rotation-increment,
    translation]`` block of 6 per image, concatenated in image order.
    """
    if wrt not in ("amplitudes", "poses"):
        raise ConfigurationError(f"unknown gradient target {wrt!r}")
    return _fit_batch(params, observations).evaluate(params, wrt)


class _AdamState:
    """Bias-corrected Adam moments (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, n: int):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.b1t = 1.0
        self.b2t = 1.0

    def step(self, grad: np.ndarray, rate: float) -> np.ndarray:
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        self.b1t *= 0.9
        self.b2t *= 0.999
        m_hat = self.m / (1.0 - self.b1t)
        v_hat = self.v / (1.0 - self.b2t)
        return rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def _is_stable(value: float, grad: np.ndarray | None) -> bool:
    """A finite loss no larger than 1e6 m^2 and, when given, a finite gradient."""
    return bool(
        np.isfinite(value) and value <= 1e6 and (grad is None or np.all(np.isfinite(grad)))
    )


def _check_divergence(
    value: float,
    grad: np.ndarray | None,
    iteration: int,
    last_stable: "FitResult | None",
) -> None:
    if not _is_stable(value, grad):
        raise DivergenceError(
            f"optimization diverged at iteration {iteration} (loss {value!r})",
            iteration=iteration,
            last_stable=last_stable,
        )


def optimize_amplitudes(
    params: SceneParams,
    observations: ObservationSet,
    options: OptimizerOptions | None = None,
) -> FitResult:
    """Descend the corner loss over the field amplitudes.

    Starts from the amplitudes in ``params`` and returns updated scene
    parameters, the per-iterate loss history (initial value included)
    and the exclusions of the final evaluation.  On divergence the raised
    error carries the last well-behaved iterate in ``last_stable`` so
    callers can persist a usable result.
    """
    options = options or OptimizerOptions()
    current = params
    x = params.surface.flat_amplitudes.copy()
    adam = _AdamState(x.size)
    history = []
    last_stable: FitResult | None = None

    for it in range(options.step_count):
        try:
            result, grad = loss_gradient(current, observations, "amplitudes")
        except DataError:
            if it == 0:
                raise
            # the step wiped out every ray: that is divergence, not bad data
            raise DivergenceError(
                f"optimization diverged at iteration {it}: no ray completes the trace",
                iteration=it,
                last_stable=last_stable,
            ) from None
        history.append(result.value)
        if _is_stable(result.value, grad):
            last_stable = FitResult(
                params=current,
                loss_history=np.array(history),
                errored=result.errored,
                n_active=result.n_active,
            )
        _check_divergence(result.value, grad, it, last_stable)
        if (
            options.tolerance > 0.0
            and len(history) >= 2
            and abs(history[-2] - history[-1]) <= options.tolerance
        ):
            return last_stable  # set just above: the check passed at this iterate
        x = x - adam.step(grad, options.rate_at(it))
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1.0:
            raise DivergenceError(
                f"optimization diverged at iteration {it}: amplitudes left the "
                "physically meaningful range",
                iteration=it,
                last_stable=last_stable,
            )
        current = current.with_surface(
            current.surface.with_amplitudes(x.reshape(current.surface.grid))
        )

    final = loss(current, observations)
    history.append(final.value)
    _check_divergence(final.value, None, options.step_count, last_stable)
    return FitResult(
        params=current,
        loss_history=np.array(history),
        errored=final.errored,
        n_active=final.n_active,
    )


# ---------------------------------------------------------------------------
# pose refinement


def _pose_landing(p, rotation0, x_o, r_o):
    """Rotation, board coordinates of the landings and hit mask of the fixed
    exit rays for the pose ``p = [omega, t]``, whose rotation is
    ``exp(omega) rotation0``."""
    rot = _rotvec_matrix(p[:3]) @ rotation0
    _, _, local, hit = _land(rot, p[3:], x_o, r_o)
    return rot, local, hit


def _last_pose_landing():
    """A :func:`_pose_landing` for one image's solve that keeps its latest
    result: ``least_squares`` asks for the Jacobian at the point whose
    residual it has just evaluated, so that landing is computed once."""
    last_p, last = None, None

    def landing(p, rotation0, x_o, r_o):
        nonlocal last_p, last
        key = p.tobytes()
        if key != last_p:
            last_p, last = key, _pose_landing(p, rotation0, x_o, r_o)
        return last

    return landing


def _pose_residual(p, rotation0, x_o, r_o, x_cb, landing=_pose_landing) -> np.ndarray:
    """Board residuals of one image at ``p``, flattened; a ray that misses
    the plane contributes the constant 1e3. ``landing`` computes the
    landing, as :func:`_pose_landing` does."""
    _, local, hit = landing(p, rotation0, x_o, r_o)
    return np.where(hit[:, None], local - x_cb, 1e3).ravel()


def _pose_jacobian(p, rotation0, x_o, r_o, x_cb, landing=_pose_landing) -> np.ndarray:
    """Jacobian of :func:`_pose_residual` over ``p``: the rows of
    :func:`_pose_rows`, with the rotation columns taken through the left
    Jacobian of ``omega``; a ray that misses the plane has zero rows.
    ``landing`` is as for :func:`_pose_residual`."""
    rot, local, hit = landing(p, rotation0, x_o, r_o)
    rows = np.zeros((x_o.shape[0], 2, 6))
    rows[hit] = _pose_rows(rot, local[hit], r_o[hit])
    rows[..., :3] = rows[..., :3] @ _rotvec_left_jacobian(p[:3])
    return rows.reshape(-1, 6)


def _refine_image_pose(pose0: BoardPose, x_o, r_o, x_cb) -> tuple:
    """One image's pose from its fixed exit rays, by one ``least_squares``
    (``trf``) solve over ``[omega, t]`` with the analytic Jacobian.

    ``x_o`` and ``r_o`` are the outer hits and exit directions of the
    corners that leave the cover, ``x_cb`` their board targets. The rays
    do not depend on the pose, so each trial pose only lands them on its
    board plane. Returns ``(pose, initial_cost, final_cost, n_valid)``;
    the starting pose is kept when the solve does not lower the cost.
    """
    n_valid = x_o.shape[0]
    if n_valid == 0:
        return pose0, 0.0, 0.0, 0
    args = (pose0.rotation, x_o, r_o, x_cb, _last_pose_landing())
    p0 = np.concatenate([np.zeros(3), pose0.translation])
    initial_cost = float(np.sum(_pose_residual(p0, *args) ** 2))
    sol = least_squares(
        _pose_residual,
        p0,
        jac=_pose_jacobian,
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        args=args,
    )
    # the residual at sol.x, as least_squares evaluated it last
    final_cost = float(np.sum(sol.fun**2))
    if final_cost >= initial_cost:
        return pose0, initial_cost, initial_cost, n_valid
    rotation = _rotvec_matrix(sol.x[:3]) @ pose0.rotation
    pose = replace(pose0, rotation=rotation, translation=sol.x[3:])
    return pose, initial_cost, final_cost, n_valid


def refine_poses(params: SceneParams, observations: ObservationSet) -> RefineResult:
    """Improve the per-image board poses under the zero-field model.

    Each image's pose is a separate 6-parameter least-squares problem
    (rotation increment and translation) started from the pose carried
    by ``params``. Refinement never worsens an image: if an update fails
    to lower that image's cost, its starting pose is kept. The surface
    carried by ``params`` is preserved in the returned parameters (the
    refinement itself always runs with amplitudes zeroed).

    The exit rays do not depend on the poses, so every image's come from
    one zero-field exit stage on the cover that :func:`loss` traces.
    """
    batch = _fit_batch(params, observations)
    n_outer, _ = _outer_normal_linearization(params.cone, batch.cover.s_outer)
    exit_rays = _trace_exit(params.cone, batch.cover, n_outer)
    poses, reports = [], []
    for index, (start, stop) in enumerate(zip(batch.offsets[:-1], batch.offsets[1:])):
        rows = slice(start, stop)
        left = exit_rays.ok[rows]
        pose, cost0, cost1, n_valid = _refine_image_pose(
            params.pose(index),
            exit_rays.x_outer[rows][left],
            exit_rays.dir_out[rows][left],
            batch.target[rows][left],
        )
        poses.append(pose)
        reports.append(ImageRefineReport(index, cost0, cost1, n_valid))
    return RefineResult(params=params.with_poses(poses), reports=tuple(reports))


# ---------------------------------------------------------------------------
# summary metrics


def rmse_cm(params: SceneParams, observations: ObservationSet) -> float:
    """Root-mean-square corner residual under the full model, in cm."""
    result = loss(params, observations)
    return math.sqrt(result.value / result.n_active) * 100.0


def pinhole_rmse_cm(params: SceneParams, observations: ObservationSet) -> float:
    """Root-mean-square corner residual ignoring the cover, in cm."""
    corners = observations.stacked()
    dirs = pixel_to_ray(params.intrinsics, corners.pixels)
    _, _, local, hit = _land(*params.pose_arrays(corners.image_index), np.zeros_like(dirs), dirs)
    sq = (local - corners.targets) ** 2
    # per image, then over the images: the order that has always fixed the metric's bits
    offsets = corners.offsets.tolist()
    total = sum(float(np.sum(sq[a:b][hit[a:b]])) for a, b in zip(offsets, offsets[1:]))
    n_active = int(np.count_nonzero(hit))
    if n_active == 0:
        raise DataError("no corner reaches the board under the pinhole model")
    return math.sqrt(total / n_active) * 100.0
