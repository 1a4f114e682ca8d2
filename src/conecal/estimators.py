"""Estimator-style wrappers around the calibration pipeline.

These follow the fit/predict convention with ``get_params`` /
``set_params`` for tooling interoperability, without depending on any
estimator framework. Constructor arguments are stored verbatim;
everything learned by ``fit`` lands in trailing-underscore attributes.
"""

from __future__ import annotations

import numpy as np

from .calibrate import OptimizerOptions, optimize_amplitudes, refine_poses
from .camera import CameraIntrinsics
from .errors import ConfigurationError, NotFittedError
from .geometry import ConeGeometry, RbfSurface
from .observations import ObservationSet
from .raytrace import TraceStatus, raycast_pixels


class _ParamsMixin:
    """Flat get/set over the constructor arguments, sklearn-style."""

    _param_names: tuple = ()

    def get_params(self, deep: bool = True) -> dict:
        del deep
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._param_names:
                raise ConfigurationError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def _require_fitted(self, attr: str):
        if not hasattr(self, attr):
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit(observations) first"
            )


class ConeSurfaceCalibrator(_ParamsMixin):
    """Recovers the outer-wall irregularity field from corner observations.

    ``surface`` fixes the patch, the center grid and the kernel width;
    its amplitudes are the starting point of the descent. After ``fit``:
    ``amplitudes_`` (grid-shaped), ``surface_``, ``params_`` (full scene
    with the poses taken from the observations), ``loss_history_`` and
    ``errored_`` are available.
    """

    _param_names = (
        "intrinsics",
        "cone",
        "surface",
        "step_count",
        "learning_rate",
        "tolerance",
    )

    def __init__(
        self,
        intrinsics: CameraIntrinsics,
        cone: ConeGeometry,
        surface: RbfSurface,
        step_count: int = 500,
        learning_rate: float = 1e-6,
        tolerance: float = 0.0,
    ):
        self.intrinsics = intrinsics
        self.cone = cone
        self.surface = surface
        self.step_count = step_count
        self.learning_rate = learning_rate
        self.tolerance = tolerance

    def _options(self) -> OptimizerOptions:
        return OptimizerOptions(
            step_count=self.step_count,
            learning_rate=self.learning_rate,
            tolerance=self.tolerance,
        )

    def fit(self, observations: ObservationSet) -> "ConeSurfaceCalibrator":
        if not isinstance(observations, ObservationSet):
            raise ConfigurationError("fit expects an ObservationSet")
        params = observations.scene(self.intrinsics, self.cone, self.surface)
        result = optimize_amplitudes(params, observations, self._options())
        self.params_ = result.params
        self.surface_ = result.surface
        self.amplitudes_ = result.surface.amplitudes
        self.loss_history_ = result.loss_history
        self.errored_ = result.errored
        return self

    def predict(self, pixels, image_index: int = 0) -> np.ndarray:
        """Board-frame landing points of pixels under the fitted model.

        Rows whose ray fails to complete the trace are NaN.
        """
        self._require_fitted("params_")
        local, status = raycast_pixels(self.params_, image_index, pixels)
        return np.where((status == TraceStatus.OK)[..., None], local, np.nan)


class BoardPoseRefiner(_ParamsMixin):
    """Refines per-image board poses under the zero-field cover model.

    After ``fit``: ``poses_`` (ordered by image index), ``params_`` and
    ``reports_`` are available.
    """

    _param_names = ("intrinsics", "cone", "surface")

    def __init__(self, intrinsics: CameraIntrinsics, cone: ConeGeometry, surface: RbfSurface):
        self.intrinsics = intrinsics
        self.cone = cone
        self.surface = surface

    def fit(self, observations: ObservationSet) -> "BoardPoseRefiner":
        if not isinstance(observations, ObservationSet):
            raise ConfigurationError("fit expects an ObservationSet")
        params = observations.scene(self.intrinsics, self.cone, self.surface)
        result = refine_poses(params, observations)
        self.params_ = result.params
        self.poses_ = result.params.poses
        self.reports_ = result.reports
        return self

    def predict(self, image_index: int = 0):
        """Refined pose for one image."""
        self._require_fitted("poses_")
        return self.poses_[image_index]
