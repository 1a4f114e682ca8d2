"""Tests for the distortion diagnostics."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from conecal.analysis import (
    DepthCurve,
    DistortionField,
    _frontal_deltas,
    corner_error_scatter,
    distortion_field,
    distortion_vector,
    distortion_vs_inverse_depth,
    write_distortion_csv,
)
import conecal.analysis
from conecal.calibrate import loss
from conecal.cli import _write_depth_curve_csv, _write_scatter_csv
from conecal.errors import DataError, MissError
from conecal.geometry import RbfSurface
from conecal.observations import write_json
from conecal.raytrace import STAGE_NAMES, TraceStatus
from conftest import count_cover_traces
from oracles import board_targets, per_image_corner_scatter


def consistent_obs(scene):
    from test_calibrate import consistent_observations

    return consistent_observations(scene, subsample=3)


class TestDistortionVector:
    def test_zero_at_normal_incidence_pixel(self, scene_zero):
        intr = scene_zero.intrinsics
        pixel = [intr.cx, intr.cy + intr.fy * scene_zero.cone.tan_half_angle]
        delta = distortion_vector(scene_zero, pixel, depth=1.0)
        assert np.max(np.abs(delta)) < 1e-9

    def test_nonzero_away_from_axis(self, scene_zero):
        delta = distortion_vector(scene_zero, [400.0, 1273.65], depth=1.0)
        assert np.linalg.norm(delta) > 0.1

    def test_mirror_symmetry_across_vertical_axis(self, scene_zero):
        # apex on the optical plane x = 0 and a symmetric field: mirroring
        # the pixel about the principal column mirrors the distortion
        intr = scene_zero.intrinsics
        rng = np.random.default_rng(61)
        for _ in range(12):
            px = rng.uniform(200.0, 3080.0)
            py = rng.uniform(200.0, 2264.0)
            d = distortion_vector(scene_zero, [px, py], depth=0.8)
            m = distortion_vector(scene_zero, [2 * intr.cx - px, py], depth=0.8)
            np.testing.assert_allclose(m, [-d[0], d[1]], atol=1e-9)

    def test_failing_ray_raises(self, scene_zero):
        with pytest.raises(MissError):
            distortion_vector(scene_zero, [1640.0, -1e7], depth=1.0)

    def test_bad_depth_rejected(self, scene_zero):
        with pytest.raises(DataError):
            distortion_vector(scene_zero, [1640.0, 1232.0], depth=0.0)
        # a plane at no finite depth: inf gave NaN deltas and nan a board miss
        for depth in (np.inf, np.nan, -np.inf):
            with pytest.raises(DataError, match="depth must be positive and finite"):
                distortion_vector(scene_zero, [1640.0, 1232.0], depth=depth)


class TestDistortionField:
    @pytest.mark.parametrize("amplitude", [0.0, 2e-5], ids=["zero", "bumped"])
    def test_grid_and_subset_property(self, scene_zero, amplitude):
        """Row results do not depend on how many rows share the batch: the
        stride-800 deltas equal the stride-400 ones bit for bit, also when
        the field is nonzero and the kernel is evaluated."""
        rng = np.random.default_rng(17)
        amps = amplitude * rng.normal(1.0, 0.5, scene_zero.surface.grid)
        scene = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        coarse = distortion_field(scene, depth=1.0, stride=800)
        fine = distortion_field(scene, depth=1.0, stride=400)
        fine_set = {tuple(p) for p in fine.pixels}
        assert {tuple(p) for p in coarse.pixels} <= fine_set
        lookup = {tuple(p): d for p, d in zip(fine.pixels, fine.deltas)}
        for p, d in zip(coarse.pixels, coarse.deltas):
            np.testing.assert_array_equal(lookup[tuple(p)], d)

    def test_values_match_scalar_api(self, scene_zero):
        field = distortion_field(scene_zero, depth=0.9, stride=900)
        for pixel, delta, st in zip(field.pixels, field.deltas, field.status):
            if st == TraceStatus.OK:
                np.testing.assert_allclose(
                    distortion_vector(scene_zero, pixel, 0.9), delta, atol=1e-12
                )

    @pytest.mark.parametrize("depth", [0.0, -1.0, np.inf, np.nan])
    def test_bad_depth_rejected(self, scene_zero, depth):
        with pytest.raises(DataError, match="depth must be positive and finite"):
            distortion_field(scene_zero, depth=depth, stride=700)

    def test_csv_round_trip_and_determinism(self, scene_zero, tmp_path):
        field = distortion_field(scene_zero, depth=1.0, stride=700)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_distortion_csv(field, path_a)
        write_distortion_csv(field, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = path_a.read_text().splitlines()
        assert lines[0] == "px,py,dpx,dpy,norm,depth,status"
        assert len(lines) == 1 + field.pixels.shape[0]
        row = lines[1].split(",")
        assert float(row[0]) == field.pixels[0, 0]
        assert float(row[2]) == pytest.approx(field.deltas[0, 0], abs=0.0)


def csv_writer_form(field, path):
    """The distortion CSV written through ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["px", "py", "dpx", "dpy", "norm", "depth", "status"])
        for pixel, delta, st in zip(field.pixels, field.deltas, field.status):
            st = TraceStatus(st)
            writer.writerow(
                [
                    repr(float(pixel[0])),
                    repr(float(pixel[1])),
                    repr(float(delta[0])),
                    repr(float(delta[1])),
                    repr(float(np.hypot(delta[0], delta[1]))),
                    repr(field.depth),
                    "ok" if st == TraceStatus.OK else STAGE_NAMES[st],
                ]
            )


class TestDistortionCsv:
    def test_bytes_match_the_csv_writer_form(self, scene_zero, tmp_path):
        rng = np.random.default_rng(61)
        amps = rng.normal(1e-5, 2.5e-6, scene_zero.surface.grid)
        scene = scene_zero.with_surface(scene_zero.surface.with_amplitudes(amps))
        traced = distortion_field(scene, depth=0.8, stride=97)
        # one failed sample per failure stage, with the NaN deltas a failed trace carries
        failed = np.array([st for st in TraceStatus if st != TraceStatus.OK])
        field = DistortionField(
            depth=traced.depth,
            stride=traced.stride,
            pixels=np.concatenate([traced.pixels, rng.uniform(0, 3000, (failed.size, 2))]),
            deltas=np.concatenate([traced.deltas, np.full((failed.size, 2), np.nan)]),
            status=np.concatenate([traced.status, failed]),
        )
        write_distortion_csv(field, tmp_path / "fast.csv")
        csv_writer_form(field, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestDepthCurve:
    def test_affine_in_inverse_depth(self, scene_zero):
        curve = distortion_vs_inverse_depth(scene_zero, [820.0, 1232.0])
        assert isinstance(curve, DepthCurve)
        assert curve.r_squared > 0.999
        # the affine law is essentially exact for the perfect cone
        for c in range(2):
            pred = curve.slope[c] * curve.inv_depths + curve.intercept[c]
            assert np.max(np.abs(pred - curve.deltas[:, c])) < 1e-6

    def test_slope_grows_away_from_center(self, scene_zero):
        inner = distortion_vs_inverse_depth(scene_zero, [820.0, 1232.0])
        outer = distortion_vs_inverse_depth(scene_zero, [410.0, 1232.0])
        assert outer.slope_norm > inner.slope_norm

    def test_matches_pointwise_vectors(self, scene_zero):
        curve = distortion_vs_inverse_depth(
            scene_zero, [1000.0, 900.0], inv_depth_range=(1.0, 2.0), n_samples=3
        )
        for inv_d, delta in zip(curve.inv_depths, curve.deltas):
            np.testing.assert_allclose(
                distortion_vector(scene_zero, [1000.0, 900.0], 1.0 / inv_d), delta, atol=1e-10
            )

    def test_failing_ray_raises_its_stage(self, scene_zero):
        with pytest.raises(MissError) as excinfo:
            distortion_vs_inverse_depth(scene_zero, [1640.0, -1e7])
        assert excinfo.value.stage == "inner-intersection"

    def test_bad_range_rejected(self, scene_zero):
        with pytest.raises(DataError):
            distortion_vs_inverse_depth(scene_zero, [820.0, 1232.0], inv_depth_range=(2.0, 1.0))
        with pytest.raises(DataError):
            distortion_vs_inverse_depth(scene_zero, [820.0, 1232.0], n_samples=1)

    @pytest.mark.parametrize(
        "inv_range",
        [(0.5, np.inf), (np.nan, 2.0), (0.5, np.nan), (np.inf, np.inf), (-np.inf, 2.0)],
    )
    def test_non_finite_range_rejected(self, scene_zero, inv_range):
        # an infinite end once failed as a ray that misses a depth plane
        with pytest.raises(DataError, match="inverse depth range must be positive, finite"):
            distortion_vs_inverse_depth(scene_zero, [820.0, 1232.0], inv_depth_range=inv_range)

    def test_depth_past_the_float_range_rejected(self, scene_zero):
        # a positive, finite inverse depth whose depth overflows to inf
        with pytest.raises(DataError, match="inverse depth range must be positive, finite"):
            distortion_vs_inverse_depth(
                scene_zero, [820.0, 1232.0], inv_depth_range=(1e-310, 1.0), n_samples=3
            )


class TestCornerErrorScatter:
    def test_grouping_and_rmse(self, scene_zero):
        obs = consistent_obs(scene_zero)
        report = corner_error_scatter(scene_zero, obs)
        assert [img["index"] for img in report["images"]] == [0, 1, 2]
        assert report["n_corners"] == obs.n_corners
        assert report["rmse_cm"] < 1e-6  # data is consistent by construction
        result = loss(scene_zero, obs)
        pooled = np.sqrt(result.value / result.n_active) * 100.0
        assert report["rmse_cm"] == pytest.approx(pooled, rel=1e-12, abs=1e-18)

    def test_failed_corner_reported_with_null_residual(self, scene_zero):
        from conecal.observations import ImageObservations, ObservationSet

        obs = consistent_obs(scene_zero)
        im = obs.images[0]
        pixels = im.pixels.copy()
        pixels[0] = [1640.0, -1e7]
        broken = ObservationSet(
            square_size=obs.square_size,
            corners_per_side=obs.corners_per_side,
            images=(
                ImageObservations(
                    image_index=0, initial_pose=im.initial_pose, grid_ij=im.grid_ij, pixels=pixels
                ),
            )
            + obs.images[1:],
        )
        report = corner_error_scatter(scene_zero, broken)
        first = report["images"][0]["corners"][0]
        assert first["status"] == "inner-intersection"
        assert first["err_m"] is None
        assert report["n_corners"] == obs.n_corners - 1

    def test_one_stacked_trace_matches_the_per_image_loop(self, monkeypatch):
        """One trace over every image gives the per-image loop's dict exactly,
        ``rmse_cm`` bit for bit included, on a scene with inner misses, exit
        total internal reflection and board misses."""
        from test_calibrate import scene_with_failures

        params, obs = scene_with_failures(np.random.default_rng(150))
        expected = per_image_corner_scatter(params, obs)
        stages = {c["status"] for im in expected["images"] for c in im["corners"]}
        assert {"inner-intersection", "outer-refraction", "board-intersection"} <= stages

        calls = []
        traced = conecal.analysis.trace_pixels

        def counting(*args):
            calls.append(args)
            return traced(*args)

        monkeypatch.setattr(conecal.analysis, "trace_pixels", counting)
        report = corner_error_scatter(params, obs)
        assert len(calls) == 1
        assert report == expected
        assert report["rmse_cm"].hex() == expected["rmse_cm"].hex()
        for im_a, im_b in zip(report["images"], expected["images"]):
            for a, b in zip(im_a["corners"], im_b["corners"]):
                assert [type(v) for v in a.values()] == [type(b[k]) for k in a]

    def test_rmse_squares_like_the_per_image_loop(self):
        """A numpy scalar's ``** 2`` goes through libm ``pow``, an array's
        multiplies; one corner whose two squares give different RMSE bits
        must still report the per-image loop's bits."""
        from conecal.observations import ImageObservations, ObservationSet
        from conecal.raytrace import trace_pixels
        from test_calibrate import scene_with_failures

        params, obs = scene_with_failures(np.random.default_rng(150))
        gx, gy = np.meshgrid(np.arange(700.0, 2600.0, 50.0), np.arange(600.0, 1900.0, 50.0))
        pixels = np.column_stack([gx.ravel(), gy.ravel()])
        batch = trace_pixels(params, 0, pixels)
        pixels = pixels[batch.ok]
        ij = np.array([(i, j) for i in range(1, 10) for j in range(1, 10)])
        targets = board_targets(ij, obs.square_size, obs.corners_per_side)
        rho = batch.board_local[batch.ok][:, None, :] - targets[None]
        by_pow = np.float_power(rho[..., 0], 2) + np.float_power(rho[..., 1], 2)
        by_product = rho[..., 0] * rho[..., 0] + rho[..., 1] * rho[..., 1]
        k, t = np.argwhere(np.sqrt(by_pow) * 100.0 != np.sqrt(by_product) * 100.0)[0]

        def one_corner(index, grid_ij, pixel):
            return ImageObservations(
                image_index=index, initial_pose=obs.images[index].initial_pose,
                grid_ij=grid_ij[None], pixels=np.asarray(pixel)[None],
            )

        single = ObservationSet(
            square_size=obs.square_size,
            corners_per_side=obs.corners_per_side,
            images=(one_corner(0, ij[t], pixels[k]),)
            + tuple(one_corner(n, ij[0], [1640.0, -1e7]) for n in (1, 2)),
        )
        report = corner_error_scatter(params, single)
        assert report["n_corners"] == 1
        assert report["rmse_cm"].hex() == per_image_corner_scatter(params, single)["rmse_cm"].hex()


class TestCsvReplacesItsTarget:
    """A CSV is streamed into ``<name>.tmp`` and replaces its target only once complete."""

    @staticmethod
    def failing_rows(n):
        for k in range(n):
            yield f"{k},{k}"
        raise RuntimeError("row source failed")

    def test_failing_rows_leave_no_file(self, tmp_path):
        # past the first block, so a direct writer would leave header + 4096 rows
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="row source failed"):
            conecal.analysis._write_csv(path, "a,b", self.failing_rows(5000))
        assert list(tmp_path.iterdir()) == []

    def test_failing_rows_keep_an_existing_target(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("a,b\nold,row\n")
        for n in (0, 3, 5000):
            with pytest.raises(RuntimeError):
                conecal.analysis._write_csv(path, "a,b", self.failing_rows(n))
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_text() == "a,b\nold,row\n"

    def test_complete_rows_replace_the_target(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("stale\n")
        conecal.analysis._write_csv(path, "a,b", (f"{k},{k}" for k in range(3)))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"a,b\n0,0\n1,1\n2,2\n"


class TestBlocks:
    def test_outputs_do_not_depend_on_the_block_sizes(self, monkeypatch, tmp_path):
        """Small prime blocks split every output in many places, runs of
        failed rows across a boundary included; no byte or bit may change."""
        from test_calibrate import scene_with_failures

        params, obs = scene_with_failures(np.random.default_rng(150))
        pixels = distortion_field(params, depth=0.7, stride=500).pixels
        # rows 4-9 miss the cover, across the boundaries of 7-row trace
        # blocks and of 5- and 3-row CSV blocks
        pixels[4:10] = [1640.0, -1e7]
        depths = np.linspace(0.3, 1.5, pixels.shape[0])
        scatter = corner_error_scatter(params, obs)
        curves = [
            distortion_vs_inverse_depth(params, pixel, n_samples=11)
            for pixel in ((820.0, 1232.0), (410.5, 1000.25))
        ]

        def outputs(out):
            out.mkdir()
            deltas, status = _frontal_deltas(params, pixels, 0.7)
            field = DistortionField(0.7, 500, pixels, deltas, status)
            write_distortion_csv(field, out / "field.csv")
            _write_scatter_csv(out / "scatter.csv", scatter)
            _write_depth_curve_csv(out / "curves.csv", curves)
            write_json(out / "scatter.json", scatter)
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            return files, (deltas, status), _frontal_deltas(params, pixels, depths)

        real = outputs(tmp_path / "real")
        assert {TraceStatus.OK, TraceStatus.MISS_INNER, TraceStatus.TIR_OUTER} <= set(real[1][1])
        monkeypatch.setattr(conecal.analysis, "_FIELD_BLOCK_ROWS", 7)
        monkeypatch.setattr(conecal.analysis, "_CSV_BLOCK_ROWS", 5)
        traced = count_cover_traces(monkeypatch)
        small = outputs(tmp_path / "small")
        assert max(traced) == 7 and sum(traced) == 2 * pixels.shape[0]
        monkeypatch.setattr(conecal.analysis, "_CSV_BLOCK_ROWS", 3)
        smaller = outputs(tmp_path / "smaller")
        for other in (small, smaller):
            assert other[0] == real[0]
            for got, want in zip(other[1] + other[2], real[1] + real[2]):
                assert got.tobytes() == want.tobytes()
        expected = json.dumps(scatter, indent=2, sort_keys=True) + "\n"
        assert real[0]["scatter.json"] == expected.encode()


def traced_peak(action) -> int:
    """Peak bytes that ``action()`` allocates on top of what already exists."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The diagnostics' outputs are traced and written a block at a time, so
    four times the rows may not cost four times the memory. What still grows
    is the field's own result (40 bytes a sample: pixels, deltas, status),
    a fraction of one block's trace; 1.5x leaves room for that, where a
    working set that grows with the rows reads close to 4x (1.9x for the
    field, whose kernel was already built in blocks)."""

    def test_field_and_its_csv(self, scene_zero, tmp_path):
        # the default config's 8x8 field; strides 40 and 20 sample 5 084 and
        # 20 336 pixels
        amps = np.random.default_rng(5).normal(1e-5, 2.5e-6, (8, 8))
        surface = RbfSurface.flat(scene_zero.surface.patch, (8, 8)).with_amplitudes(amps)
        scene = scene_zero.with_surface(surface)
        peaks = {
            stride: traced_peak(lambda: distortion_field(scene, 1.0, stride)) for stride in (40, 20)
        }
        assert peaks[20] < 1.5 * peaks[40]
        fields = {stride: distortion_field(scene, 1.0, stride) for stride in (40, 20)}
        assert fields[20].pixels.shape[0] == 4 * fields[40].pixels.shape[0]
        peaks = {
            stride: traced_peak(lambda: write_distortion_csv(field, tmp_path / "field.csv"))
            for stride, field in fields.items()
        }
        assert peaks[20] < 1.5 * peaks[40]

    def test_json_of_record_lists(self, tmp_path):
        records = [{"i": k, "j": 2 * k, "px": 0.1 * k, "status": "ok"} for k in range(200)]
        # documents shaped like corner_scatter.json: 20 and 80 images
        docs = {
            n: {"images": [{"index": k, "corners": records} for k in range(n)]} for n in (20, 80)
        }
        path = tmp_path / "out.json"
        peaks = {n: traced_peak(lambda: write_json(path, doc)) for n, doc in docs.items()}
        assert peaks[80] < 1.5 * peaks[20]
