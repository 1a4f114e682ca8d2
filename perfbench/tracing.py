"""Outside-in spans around calls into conecal's layers.

The program is not edited. A traced repetition temporarily replaces the
module attributes that callers resolve at call time (``conecal.calibrate
.trace_pixels``, ``conecal.raytrace.outer_surface_normal``, ...) with
wrappers that record a span per call, and puts every original back when
it ends. Untraced repetitions install nothing.

A span is (name, start, end, parent, run id) plus a few counters taken
at the boundary (rays, kernel evaluations, statuses). Spans are kept in
memory and written out when the run ends. Self time is a span's
duration minus its children's durations and minus the bookkeeping the
wrappers of its children did inside it, which is reported on its own.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# failure stage names indexed by TraceStatus value (0 is OK)
STAGES = (
    None,
    "inner-intersection",
    "inner-refraction",
    "outer-intersection",
    "outer-refraction",
    "board-intersection",
    "surface-normal",
)


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "command", "child_s", "attrs")

    def __init__(self, index, name, parent, command):
        self.index = index
        self.name = name
        self.start = self.end = 0.0  # set by Tracer.begin and Tracer.end
        self.parent = parent
        self.command = command
        self.child_s = 0.0  # children's durations plus their wrappers' bookkeeping
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span recorder for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.bookkeeping_s = 0.0
        self._stack: list[Span] = []
        self._command: str | None = None
        self._kernel_inputs: set = set()

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else None
        span = Span(len(self.spans), name, parent, self._command)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def charge_bookkeeping(self, seconds: float) -> None:
        """Time a wrapper spent outside its span but inside its parent's."""
        self.bookkeeping_s += seconds
        if self._stack:
            self._stack[-1].child_s += seconds

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI command; kernel-input repeats are per command."""
        self._command = name
        self._kernel_inputs = set()
        span = self.begin(f"cli.{name}")
        try:
            yield span
        finally:
            self.end(span)
            self._command = None

    def seen_kernel_input(self, key) -> bool:
        if key in self._kernel_inputs:
            return True
        self._kernel_inputs.add(key)
        return False

    def write(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "command": s.command,
                            "attrs": s.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# boundary counters: pre(tracer, args, kwargs) -> attrs, post(attrs, result)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(array) -> int:
    shape = np.shape(array)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _pre_pixels(tracer, args, kwargs):
    return {"rays": _rows(_arg(args, kwargs, 2, "pixels"))}


def _post_trace(attrs, batch):
    counts = np.bincount(np.asarray(batch.status).ravel(), minlength=len(STAGES))
    attrs["failed"] = [int(c) for c in counts[1 : len(STAGES)]]


def _pre_kernel(tracer, args, kwargs):
    surface = _arg(args, kwargs, 0, "surface")
    s = np.ascontiguousarray(_arg(args, kwargs, 1, "s"), dtype=np.float64)
    rows = _rows(s)
    centers = surface.n_centers
    key = (
        hashlib.blake2b(s.tobytes(), digest_size=16).digest(),
        s.shape,
        surface.grid,
        surface.beta,
        surface.patch.s1_range,
        surface.patch.s2_range,
    )
    return {
        "rows": rows,
        "kernel_evals": rows * centers,
        # the (n, C, 2) difference tensor plus the three (n, C) outputs, float64
        "bytes": 8 * rows * centers * 5,
        "repeat": tracer.seen_kernel_input(key),
    }


def _pre_loss(tracer, args, kwargs):
    return {"corners": int(_arg(args, kwargs, 1, "observations").n_corners)}


def _post_loss(attrs, result):
    loss_result = result[0] if isinstance(result, tuple) else result
    attrs["active"] = int(loss_result.n_active)


def _post_nfev(attrs, result):
    attrs["nfev"] = int(result.nfev)


def _pre_targets(tracer, args, kwargs):
    return {"rows": _rows(np.reshape(_arg(args, kwargs, 2, "board_xy"), (-1, 2)))}


def _pre_path(index, name):
    def pre(tracer, args, kwargs):
        return {"path": str(_arg(args, kwargs, index, name))}

    return pre


def _post_file_size(attrs, result):
    attrs["bytes"] = Path(attrs.pop("path")).stat().st_size


# (module, attribute path, span name, pre, post). Every caller site is
# listed: a module that imported a function by name resolves it in its
# own namespace, so each namespace gets its own wrapper.
WRAPPED = (
    ("conecal.cli", "load_observations", "observations.load", _pre_path(0, "path"), _post_file_size),
    ("conecal.cli", "save_observations", "observations.save", _pre_path(1, "path"), _post_file_size),
    ("conecal.cli", "generate_dataset", "synth.generate_dataset", None, None),
    ("conecal.cli", "refine_poses", "calibrate.refine_poses", None, None),
    ("conecal.cli", "optimize_amplitudes", "calibrate.optimize_amplitudes", None, None),
    ("conecal.cli", "rmse_cm", "calibrate.rmse_cm", None, None),
    ("conecal.cli", "pinhole_rmse_cm", "calibrate.pinhole_rmse_cm", None, None),
    ("conecal.cli", "distortion_field", "analysis.distortion_field", None, None),
    ("conecal.cli", "write_distortion_csv", "analysis.write_distortion_csv", None, None),
    ("conecal.cli", "distortion_vs_inverse_depth", "analysis.distortion_vs_inverse_depth", None, None),
    ("conecal.cli", "corner_error_scatter", "analysis.corner_error_scatter", None, None),
    ("conecal.calibrate", "loss_gradient", "calibrate.loss_gradient", _pre_loss, _post_loss),
    ("conecal.calibrate", "loss", "calibrate.loss", _pre_loss, _post_loss),
    ("conecal.calibrate", "least_squares", "calibrate.least_squares", None, _post_nfev),
    ("conecal.calibrate", "trace_pixels", "raytrace.trace_pixels", _pre_pixels, _post_trace),
    ("conecal.calibrate", "rbf_kernel_terms", "geometry.rbf_kernel_terms", _pre_kernel, None),
    ("conecal.analysis", "trace_pixels", "raytrace.trace_pixels", _pre_pixels, _post_trace),
    ("conecal.raytrace", "trace_pixels", "raytrace.trace_pixels", _pre_pixels, _post_trace),
    ("conecal.raytrace", "raycast_pixels", "raytrace.raycast_pixels", _pre_pixels, None),
    ("conecal.raytrace", "outer_surface_normal", "geometry.outer_surface_normal", None, None),
    ("conecal.geometry", "rbf_kernel_terms", "geometry.rbf_kernel_terms", _pre_kernel, None),
    ("conecal.synth", "raycast_pixels", "raytrace.raycast_pixels", _pre_pixels, None),
    ("conecal.synth", "project_corners", "synth.project_corners", _pre_targets, None),
    ("conecal.synth", "PoseSampler.sample_pose", "synth.sample_pose", None, None),
)


def _wrap(tracer: Tracer, name: str, fn, pre, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t_in = perf_counter()
        attrs = pre(tracer, args, kwargs) if pre is not None else {}
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if post is not None:
            post(attrs, result)
        span.attrs = attrs or None
        tracer.charge_bookkeeping((span.start - t_in) + (perf_counter() - span.end))
        return result

    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Install a wrapper at every site in ``WRAPPED``; restore them all on exit."""
    saved = []
    try:
        for module_name, path, name, pre, post in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, pre, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _p_hi(durations):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(durations)
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(durations, pct))
    return 0.0, 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced repetition (0 where a layer is idle)."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name))

    def self_s(name):
        return float(sum(s.self_s for s in spans(name)))

    def total_s(name, command=None):
        return float(sum(s.duration for s in spans(name) if command in (None, s.command)))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans(name) if s.attrs is not None)

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    m = {}
    for command in ("generate", "calibrate", "analyze"):
        m[f"cli.{command}.self_s"] = self_s(f"cli.{command}")

    trace_rays = attr_sum("raytrace.trace_pixels", "rays")
    m["raytrace.trace_pixels.calls"] = calls("raytrace.trace_pixels")
    m["raytrace.trace_pixels.rays"] = trace_rays
    m["raytrace.trace_pixels.self_s"] = self_s("raytrace.trace_pixels")
    m["raytrace.trace_pixels.ns_per_ray"] = ratio(1e9 * self_s("raytrace.trace_pixels"), trace_rays)
    m["raytrace.raycast_pixels.calls"] = calls("raytrace.raycast_pixels")
    m["raytrace.raycast_pixels.rays"] = attr_sum("raytrace.raycast_pixels", "rays")
    m["raytrace.raycast_pixels.self_s"] = self_s("raytrace.raycast_pixels")
    failed = np.zeros(len(STAGES) - 1, dtype=np.int64)
    for span in spans("raytrace.trace_pixels"):
        if span.attrs is not None:  # None when the call raised
            failed += np.asarray(span.attrs["failed"])
    for stage, count in zip(STAGES[1:], failed):
        m[f"raytrace.failed.{stage}"] = int(count)

    kernel = spans("geometry.rbf_kernel_terms")
    m["geometry.outer_surface_normal.calls"] = calls("geometry.outer_surface_normal")
    m["geometry.outer_surface_normal.self_s"] = self_s("geometry.outer_surface_normal")
    m["geometry.rbf_kernel_terms.calls"] = len(kernel)
    m["geometry.rbf_kernel_terms.kernel_evals"] = attr_sum("geometry.rbf_kernel_terms", "kernel_evals")
    m["geometry.rbf_kernel_terms.self_s"] = self_s("geometry.rbf_kernel_terms")
    m["geometry.rbf_kernel_terms.bytes_computed"] = attr_sum("geometry.rbf_kernel_terms", "bytes")
    m["geometry.rbf_kernel_terms.repeat_input_ratio"] = ratio(
        sum(1 for s in kernel if s.attrs is not None and s.attrs["repeat"]), len(kernel)
    )

    grad_ms = sorted(1e3 * s.duration for s in spans("calibrate.loss_gradient"))
    pct, p_hi = _p_hi(grad_ms)
    m["calibrate.loss_gradient.calls"] = len(grad_ms)
    m["calibrate.loss_gradient.median_ms"] = float(np.median(grad_ms)) if grad_ms else 0.0
    m["calibrate.loss_gradient.p_hi_ms"] = p_hi
    m["calibrate.loss_gradient.p_hi_pct"] = pct
    m["calibrate.loss_gradient.self_s"] = self_s("calibrate.loss_gradient")
    m["calibrate.loss.calls"] = calls("calibrate.loss")
    m["calibrate.loss.self_s"] = self_s("calibrate.loss")
    m["calibrate.optimize_amplitudes.self_s"] = self_s("calibrate.optimize_amplitudes")
    m["calibrate.rmse_summary_s"] = total_s("calibrate.rmse_cm", "calibrate") + total_s(
        "calibrate.pinhole_rmse_cm", "calibrate"
    )
    m["calibrate.refine_poses_s"] = total_s("calibrate.refine_poses")
    m["calibrate.least_squares.calls"] = calls("calibrate.least_squares")
    m["calibrate.least_squares.nfev"] = attr_sum("calibrate.least_squares", "nfev")
    m["calibrate.active_corner_ratio"] = ratio(
        attr_sum("calibrate.loss_gradient", "active") + attr_sum("calibrate.loss", "active"),
        attr_sum("calibrate.loss_gradient", "corners") + attr_sum("calibrate.loss", "corners"),
    )

    samplers = {s.index for s in spans("synth.sample_pose")}
    attempts = sum(1 for s in spans("synth.project_corners") if s.parent in samplers)
    m["synth.project_corners.calls"] = calls("synth.project_corners")
    m["synth.project_corners.self_s"] = self_s("synth.project_corners")
    m["synth.pose_attempts"] = attempts
    m["synth.pose_accept_ratio"] = ratio(len(samplers), attempts)
    m["synth.raycasts_per_corner"] = ratio(
        attr_sum("raytrace.raycast_pixels", "rays"), attr_sum("synth.project_corners", "rows")
    )

    m["analysis.distortion_field_s"] = total_s("analysis.distortion_field")
    m["analysis.write_distortion_csv_s"] = total_s("analysis.write_distortion_csv")
    m["analysis.depth_curves_s"] = total_s("analysis.distortion_vs_inverse_depth")
    m["analysis.corner_error_scatter_s"] = total_s("analysis.corner_error_scatter")

    m["observations.load_s"] = total_s("observations.load")
    m["observations.save_s"] = total_s("observations.save")
    m["observations.bytes"] = attr_sum("observations.load", "bytes") + attr_sum(
        "observations.save", "bytes"
    )

    m["tracing.spans"] = len(tracer.spans)
    m["tracing.bookkeeping_s"] = tracer.bookkeeping_s
    return m
