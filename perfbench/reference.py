"""A fixed reference kernel, timed between repetitions.

The host this benchmark was built on drifts in speed by ±20 % over
minutes, and the program and this kernel slow down together. Each
repetition's wall time is divided by this kernel's time, measured just
before and after the repetition. Two sets of ten seeds per workload were
run. Across them, the spread of the run medians went from 0.147 and 0.054
(raw) to 0.055 and 0.069 (dense-capture), and from 0.091 and 0.123 to
0.046 and 0.098 (survey).

The kernel is benchmark code, not conecal code, so no change to the
program can change it. Its mix is the program's: numpy arithmetic on
arrays of a few hundred rows, Python loops over per-corner records, and
one Gaussian-kernel evaluation on a few thousand rows.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class ReferenceKernel:
    """Fixed synthetic inputs, built once; ``seconds()`` times one pass."""

    IMAGES = 80
    CORNERS = 225

    def __init__(self):
        rng = np.random.default_rng(0)
        self.pixels = rng.uniform([500.0, 400.0], [2800.0, 2000.0], (self.IMAGES, self.CORNERS, 2))
        angles = rng.uniform(-0.3, 0.3, (self.IMAGES, 3))
        self.rotations = [_rotation(a) for a in angles]
        self.translations = np.column_stack(
            [rng.uniform(-0.1, 0.1, self.IMAGES), rng.uniform(-0.1, 0.1, self.IMAGES),
             rng.uniform(0.3, 1.5, self.IMAGES)]
        )
        self.kernel_points = rng.uniform(0.0, 1.0, (3000, 1, 2))
        self.centers = rng.uniform(0.0, 1.0, (64, 2))

    def _pass(self) -> float:
        total = 0.0
        for pixels, rot, trans in zip(self.pixels, self.rotations, self.translations):
            dirs = np.column_stack([(pixels - 1666.0) / 2558.0, np.ones(len(pixels))])
            normal = rot[:, 2]
            points = dirs * ((trans @ normal) / (dirs @ normal))[:, None]
            rel = points - trans
            local = np.column_stack([rel @ rot[:, 0], rel @ rot[:, 1]])
            records = [{"x": float(x), "y": float(y)} for x, y in local]
            total += sum(r["x"] * r["x"] + r["y"] * r["y"] for r in records)
        diff = self.centers - self.kernel_points
        total += float(np.sum(np.exp(-np.sum(diff * diff, axis=-1) / 0.02)))
        return total

    def seconds(self) -> float:
        start = perf_counter()
        for _ in range(5):
            self._pass()
        return perf_counter() - start


def _rotation(angles) -> np.ndarray:
    ax, ay, az = angles
    rx = np.array([[1, 0, 0], [0, np.cos(ax), -np.sin(ax)], [0, np.sin(ax), np.cos(ax)]])
    ry = np.array([[np.cos(ay), 0, np.sin(ay)], [0, 1, 0], [-np.sin(ay), 0, np.cos(ay)]])
    rz = np.array([[np.cos(az), -np.sin(az), 0], [np.sin(az), np.cos(az), 0], [0, 0, 1]])
    return rz @ ry @ rx
