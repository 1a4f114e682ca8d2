"""Geometry layer: cone parameterization, RBF field, normals.

Derived expectations are computed by independent means first (explicit
loops, closed-form arithmetic, central finite differences) and the
implementation is checked against them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conecal.errors import ConfigurationError, OutOfRangeError, SingularSurfaceError
from conecal.geometry import (
    _KERNEL_BLOCK_ROWS,
    _components,
    _cross,
    _dot,
    _field_values,
    _field_values_adjoint,
    _outer_normal_linearization,
    _stack_last,
    ConeGeometry,
    RbfPatch,
    RbfSurface,
    cartesian_to_cone_coords,
    cone_point,
    denormalize_coords,
    inner_surface_normal,
    normalize_coords,
    outer_surface_normal,
    rbf_kernel_terms,
    rbf_offset,
)
from conftest import count_kernel_calls
from oracles import difference_kernel_oracle

# Independently computed: four unit-spaced corners at squared distance 0.5
# from the patch center, so Phi = 4 * 1e-5 * exp(-0.5 / (2 * 0.125)).
RBF_CENTER_VALUE = 4e-5 * math.exp(-2.0)


def loop_rbf_sum(surface: RbfSurface, s_norm: np.ndarray) -> float:
    """Oracle: plain double loop over the center grid, scalar math only."""
    rows, cols = surface.grid
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            c1 = 0.5 if rows == 1 else i / (rows - 1)
            c2 = 0.5 if cols == 1 else j / (cols - 1)
            d2 = (c1 - s_norm[0]) ** 2 + (c2 - s_norm[1]) ** 2
            total += surface.amplitudes[i, j] * math.exp(-d2 / (2.0 * surface.beta))
    return total


def fd_tangents(cone, surface, s, which, h=1e-7):
    """Oracle tangents: central differences of the surface point function."""
    s = np.asarray(s, dtype=float)
    d1 = (
        cone_point(cone, surface, s + [h, 0.0], which)
        - cone_point(cone, surface, s - [h, 0.0], which)
    ) / (2 * h)
    d2 = (
        cone_point(cone, surface, s + [0.0, h], which)
        - cone_point(cone, surface, s - [0.0, h], which)
    ) / (2 * h)
    return d1, d2


@pytest.fixture
def unit_patch():
    return RbfPatch(s1_range=(0.0, 0.02), s2_range=(-np.radians(15.0), np.radians(15.0)))


class TestComponentHelpers:
    """The kernels' component arithmetic equals the numpy routines bit for bit."""

    def vectors(self, n):
        rng = np.random.default_rng(71)
        v = rng.normal(size=(2, n, 3)) * rng.choice([1e-9, 1.0, 1e9], size=(2, n, 3))
        v[:, :5] = 0.0
        v[1, :3] *= -1.0  # signed zeros
        return v

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 300])
    def test_dot_cross_and_norm(self, n):
        a, b = self.vectors(n)
        assert _dot(_components(a), _components(b)).tobytes() == np.sum(a * b, axis=-1).tobytes()
        cross = _stack_last(*_cross(_components(a), _components(b)))
        assert cross.tobytes() == np.cross(a, b).tobytes()
        parts = _components(a)
        assert np.sqrt(_dot(parts, parts)).tobytes() == np.linalg.norm(a, axis=-1).tobytes()

    def test_scalar_components_act_as_constant_arrays(self):
        a, b = self.vectors(50)
        u = (a[:, 0], -1.0, a[:, 2])
        v = (b[:, 0], 0.0, b[:, 2])
        stacked_u = np.stack([a[:, 0], -np.ones(50), a[:, 2]], axis=-1)
        stacked_v = np.stack([b[:, 0], np.zeros(50), b[:, 2]], axis=-1)
        assert _stack_last(*u).tobytes() == stacked_u.tobytes()
        assert _stack_last(*_cross(u, v)).tobytes() == np.cross(stacked_u, stacked_v).tobytes()
        assert _dot(u, v).tobytes() == np.sum(stacked_u * stacked_v, axis=-1).tobytes()


class TestNormalizeCoords:
    def test_affine_example(self, unit_patch):
        s = np.array([0.015, np.radians(7.5)])
        np.testing.assert_allclose(normalize_coords(unit_patch, s), [0.75, 0.75], atol=1e-15)

    def test_corners_map_to_unit_square(self, unit_patch):
        lo = np.array([0.0, -np.radians(15.0)])
        hi = np.array([0.02, np.radians(15.0)])
        np.testing.assert_allclose(normalize_coords(unit_patch, lo), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(normalize_coords(unit_patch, hi), [1.0, 1.0], atol=1e-15)

    def test_no_clipping_outside_patch(self, unit_patch):
        s = np.array([0.04, np.radians(45.0)])
        out = normalize_coords(unit_patch, s)
        assert out[0] == pytest.approx(2.0)
        assert out[1] > 1.0

    def test_round_trip(self, unit_patch):
        rng = np.random.default_rng(3)
        s = np.column_stack(
            [rng.uniform(-0.01, 0.05, 50), rng.uniform(-0.6, 0.6, 50)]
        )
        back = denormalize_coords(unit_patch, normalize_coords(unit_patch, s))
        np.testing.assert_allclose(back, s, atol=1e-15)

    def test_degenerate_patch_rejected(self):
        with pytest.raises(ConfigurationError):
            RbfPatch(s1_range=(0.02, 0.02), s2_range=(-0.1, 0.1))
        with pytest.raises(ConfigurationError):
            RbfPatch(s1_range=(0.02, 0.01), s2_range=(-0.1, 0.1))
        with pytest.raises(ConfigurationError):
            RbfPatch(s1_range=(0.0, 0.02), s2_range=(-4.0, 0.1))


class TestRbfSurface:
    def test_center_grid_layout(self, unit_patch):
        surface = RbfSurface.flat(unit_patch, grid=(2, 3))
        expected = [
            [0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
            [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
        ]
        np.testing.assert_allclose(surface.centers, expected, atol=1e-15)

    def test_singleton_axis_centered(self, unit_patch):
        surface = RbfSurface.flat(unit_patch, grid=(1, 3))
        np.testing.assert_allclose(surface.centers[:, 0], 0.5)

    def test_default_beta_is_spacing_product(self, unit_patch):
        assert RbfSurface.flat(unit_patch, grid=(4, 4)).beta == pytest.approx((1 / 3) ** 2)
        assert RbfSurface.flat(unit_patch, grid=(5, 7)).beta == pytest.approx((1 / 4) * (1 / 6))

    def test_amplitudes_immutable(self, unit_patch):
        surface = RbfSurface.flat(unit_patch, grid=(3, 3))
        with pytest.raises(ValueError):
            surface.amplitudes[0, 0] = 1.0
        bumped = surface.with_amplitudes(np.full((3, 3), 2e-5))
        assert bumped is not surface
        assert surface.amplitudes[0, 0] == 0.0
        assert bumped.amplitudes[0, 0] == pytest.approx(2e-5)

    def test_shape_and_beta_validation(self, unit_patch):
        with pytest.raises(ConfigurationError):
            RbfSurface(unit_patch, grid=(3, 3), amplitudes=np.zeros((2, 3)), beta=0.1)
        with pytest.raises(ConfigurationError):
            RbfSurface(unit_patch, grid=(3, 3), amplitudes=np.zeros((3, 3)), beta=0.0)
        with pytest.raises(ConfigurationError):
            RbfSurface.flat(unit_patch, grid=(0, 3))


class TestRbfOffset:
    def test_frozen_center_value(self, unit_patch):
        surface = RbfSurface.flat(unit_patch, grid=(2, 2)).with_amplitudes(
            np.full((2, 2), 1e-5)
        )
        surface = RbfSurface(unit_patch, (2, 2), surface.amplitudes, beta=0.125)
        center = np.array([0.01, 0.0])  # middle of the patch in cone coords
        assert rbf_offset(surface, center) == pytest.approx(RBF_CENTER_VALUE, rel=1e-14)
        assert rbf_offset(surface, center) == pytest.approx(5.413411329464508e-06, rel=1e-12)

    def test_matches_loop_oracle(self, unit_patch):
        rng = np.random.default_rng(11)
        amps = rng.normal(1e-5, 2.5e-6, (4, 5))
        surface = RbfSurface(unit_patch, (4, 5), amps, beta=0.08)
        # include queries outside the patch: the field has no clipping
        queries = np.column_stack(
            [rng.uniform(-0.01, 0.05, 30), rng.uniform(-0.7, 0.7, 30)]
        )
        got = rbf_offset(surface, queries)
        want = [loop_rbf_sum(surface, normalize_coords(unit_patch, q)) for q in queries]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        outside = np.array([0.035, np.radians(30.0)])
        assert rbf_offset(surface, outside) != 0.0

    def test_linear_in_amplitudes(self, unit_patch):
        rng = np.random.default_rng(7)
        a = rng.normal(0, 1e-5, (3, 3))
        b = rng.normal(0, 1e-5, (3, 3))
        s = np.array([0.013, 0.1])
        base = RbfSurface.flat(unit_patch, (3, 3))
        fa = rbf_offset(base.with_amplitudes(a), s)
        fb = rbf_offset(base.with_amplitudes(b), s)
        fab = rbf_offset(base.with_amplitudes(a + 2.0 * b), s)
        assert fab == pytest.approx(fa + 2.0 * fb, rel=1e-12)

    def test_zero_amplitudes_zero_field(self, unit_patch):
        surface = RbfSurface.flat(unit_patch, (6, 6))
        assert rbf_offset(surface, np.array([0.01, 0.0])) == 0.0

    def test_is_the_field_value_bit_for_bit(self, unit_patch):
        # one product with K: the offset is _field_values' phi, whatever its batch
        rng = np.random.default_rng(23)
        surface = RbfSurface.flat(unit_patch, (8, 8)).with_amplitudes(
            rng.normal(1e-5, 2.5e-6, (8, 8))
        )
        s = np.column_stack([rng.uniform(-0.01, 0.03, 2000), rng.uniform(-0.6, 0.6, 2000)])
        got = rbf_offset(surface, s)
        assert np.array_equal(got, _field_values(surface, s)[0])
        assert np.array_equal(rbf_offset(surface, s.reshape(40, 50, 2)), got.reshape(40, 50))
        singles = [rbf_offset(surface, point) for point in s[:200]]
        assert all(isinstance(v, float) for v in singles)
        assert np.array_equal(singles, got[:200])
        flat = rbf_offset(surface.with_amplitudes(np.zeros((8, 8))), s.reshape(40, 50, 2))
        assert np.array_equal(flat, np.zeros((40, 50)))


class TestRbfKernelTerms:
    @pytest.mark.parametrize("grid", [(1, 1), (1, 5), (5, 1), (4, 5), (10, 10)])
    @pytest.mark.parametrize("beta", [None, 0.02, 0.3])
    @pytest.mark.parametrize("shape", [(2,), (40, 2), (3, 5, 2), (0, 2)])
    def test_matches_the_difference_oracle(self, patch, grid, beta, shape):
        """The per-axis factored K equals one exponential per center within
        1e-15 absolute (K <= 1), inside the patch and up to half a patch
        beyond it, and each row equals the same point's K alone bit for bit."""
        rng = np.random.default_rng(61)
        surface = RbfSurface.flat(patch, grid, beta=beta)
        n = int(np.prod(shape[:-1]))
        s = denormalize_coords(patch, rng.uniform(-0.5, 1.5, (n, 2))).reshape(shape)
        k = rbf_kernel_terms(surface, s)
        want = difference_kernel_oracle(surface, s)
        assert k.shape == shape[:-1] + (surface.n_centers,)
        np.testing.assert_allclose(k, want, rtol=0.0, atol=1e-15)
        rows = s.reshape(-1, 2)
        for i in range(min(n, 5)):
            assert np.array_equal(rbf_kernel_terms(surface, rows[i]), k.reshape(n, -1)[i])


class TestFieldValuesFromKernel:
    def test_match_the_three_kernel_matrices(self, patch):
        """K equals the outer product of per-axis exponentials bit for bit
        and the (n, C, 2) difference-tensor formula within 1e-15, and the
        fields and their adjoint built from K alone, with and without a
        kernel callable, equal the contractions with K and the derivative
        matrices dK/ds_d = K (c_d - s_d) / (beta span_d)."""
        rng = np.random.default_rng(43)
        surface = RbfSurface.flat(patch, (4, 5)).with_amplitudes(rng.normal(0.0, 1e-5, (4, 5)))
        s = np.column_stack([rng.uniform(0.025, 0.055, 30), rng.uniform(-0.4, 0.4, 30)])
        k = rbf_kernel_terms(surface, s)
        s_norm = normalize_coords(patch, s)
        d1 = np.arange(4) / 3 - s_norm[:, 0, None]
        d2 = np.arange(5) / 4 - s_norm[:, 1, None]
        e1 = np.exp(-(d1 * d1) / (2.0 * surface.beta))
        e2 = np.exp(-(d2 * d2) / (2.0 * surface.beta))
        np.testing.assert_array_equal(k, np.einsum("ni,nj->nij", e1, e2).reshape(30, 20))
        diff = surface.centers - normalize_coords(patch, s)[:, None, :]
        np.testing.assert_allclose(
            k, np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * surface.beta)), rtol=0.0, atol=1e-15
        )
        scale = surface.beta * patch.spans
        terms = [k, k * diff[..., 0] / scale[0], k * diff[..., 1] / scale[1]]
        fields = [np.sum(t * surface.flat_amplitudes, axis=-1) for t in terms]
        for kernel in (None, lambda: k):
            for got, want in zip(_field_values(surface, s, kernel), fields):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        for got, want in zip(_field_values(surface, s[3]), fields):
            assert got == pytest.approx(want[3], rel=0.0, abs=1e-13 * np.max(np.abs(want)))
        g = rng.normal(size=(30, 3))
        want = sum(t.T @ g[:, d] for d, t in enumerate(terms))
        got = _field_values_adjoint(surface, s, k, g)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "shape", [(2 * _KERNEL_BLOCK_ROWS + 3, 2), (2,), (3, 5, 2), (0, 2)]
    )
    def test_row_blocks_equal_the_unblocked_product(self, patch, shape, monkeypatch):
        """K is built in blocks of rows; each row's product with the
        weights is the same bits as the whole K multiplied row by row."""
        rng = np.random.default_rng(59)
        surface = RbfSurface.flat(patch, (4, 5)).with_amplitudes(rng.normal(0.0, 1e-5, (4, 5)))
        n = int(np.prod(shape[:-1]))
        s = np.column_stack([rng.uniform(0.025, 0.055, n), rng.uniform(-0.4, 0.4, n)]).reshape(shape)
        a, centers = surface.flat_amplitudes, surface.centers
        weights = np.column_stack([a, a * centers[:, 0], a * centers[:, 1]])
        m = (rbf_kernel_terms(surface, s)[..., None, :] @ weights)[..., 0, :]
        s_norm = normalize_coords(patch, s)
        scale = surface.beta * patch.spans
        want = (
            m[..., 0],
            (m[..., 1] - s_norm[..., 0] * m[..., 0]) / scale[0],
            (m[..., 2] - s_norm[..., 1] * m[..., 0]) / scale[1],
        )
        calls = count_kernel_calls(monkeypatch)
        got = _field_values(surface, s)
        assert len(calls) == -(-n // _KERNEL_BLOCK_ROWS)
        assert all(rows <= _KERNEL_BLOCK_ROWS for rows, _ in calls)
        for g, w in zip(got, want):
            assert g.shape == shape[:-1]
            assert np.array_equal(g, w)
        # a cached K, as the fit passes it, takes the same product
        k = rbf_kernel_terms(surface, s)
        for g, w in zip(_field_values(surface, s, lambda: k), want):
            assert g.shape == shape[:-1]
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_zero_field_never_builds_the_kernel(self, patch):
        def no_kernel():
            raise AssertionError("kernel built for a zero field")

        s = np.array([[0.04, 0.1]])
        assert _field_values(RbfSurface.flat(patch, (3, 3)), s, no_kernel) is None


class TestConePoint:
    def test_frozen_inner_example(self):
        geo = ConeGeometry(
            apex=(0.0, 0.1, 0.3),
            half_angle=math.atan(0.5),
            height=0.05,
            radial_thickness=0.003,
            eta_inside=1.5,
        )
        p = cone_point(geo, None, np.array([0.02, 0.0]), "inner")
        np.testing.assert_allclose(p, [0.0, 0.08, 0.31], atol=1e-15)

    def test_outer_is_inner_plus_radial_thickness(self, cone):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = np.array([rng.uniform(0.0, cone.height), rng.uniform(-np.pi, np.pi)])
            inner = cone_point(cone, None, s, "inner")
            outer = cone_point(cone, None, s, "outer")
            offset = cone.radial_thickness * np.array([np.sin(s[1]), 0.0, np.cos(s[1])])
            np.testing.assert_allclose(outer, inner + offset, atol=1e-15)

    def test_same_height_both_surfaces(self, cone):
        s = np.array([0.037, 0.4])
        assert cone_point(cone, None, s, "inner")[1] == pytest.approx(
            cone_point(cone, None, s, "outer")[1], abs=1e-15
        )

    def test_rbf_field_displaces_radially(self, cone, flat_surface):
        bump = flat_surface.with_amplitudes(np.full((4, 4), 1e-4))
        s = np.array([0.04, 0.0])
        plain = cone_point(cone, None, s, "outer")
        bumped = cone_point(cone, bump, s, "outer")
        delta = bumped - plain
        phi = rbf_offset(bump, s)
        np.testing.assert_allclose(delta, [0.0, 0.0, phi], atol=1e-18)

    def test_batched_shapes(self, cone):
        s = np.zeros((7, 2))
        s[:, 0] = np.linspace(0.001, 0.049, 7)
        pts = cone_point(cone, None, s, "inner")
        assert pts.shape == (7, 3)


class TestCartesianToConeCoords:
    def test_positive_x_offset_is_half_pi(self, cone):
        x = np.array(cone.apex) + np.array([0.002, -0.03, 0.0])
        s = cartesian_to_cone_coords(cone, x)
        assert s[1] == pytest.approx(np.pi / 2)
        assert s[0] == pytest.approx(0.03)

    def test_round_trip_from_cone_point(self, cone):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = np.array(
                [rng.uniform(1e-4, cone.height), rng.uniform(-np.pi + 1e-6, np.pi - 1e-6)]
            )
            for which in ("inner", "outer"):
                x = cone_point(cone, None, s, which)
                np.testing.assert_allclose(
                    cartesian_to_cone_coords(cone, x), s, atol=1e-12
                )

    def test_out_of_range_raises(self, cone):
        apex = np.array(cone.apex)
        with pytest.raises(OutOfRangeError):
            cartesian_to_cone_coords(cone, apex + [0.0, 0.001, 0.002])  # below apex
        with pytest.raises(OutOfRangeError):
            cartesian_to_cone_coords(cone, apex + [0.0, -cone.height - 1e-3, 0.002])


class TestInnerSurfaceNormal:
    def test_unit_and_toward_axis(self, cone):
        rng = np.random.default_rng(23)
        for _ in range(30):
            s = np.array([rng.uniform(0.005, cone.height), rng.uniform(-np.pi, np.pi)])
            n = inner_surface_normal(cone, s)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
            x = cone_point(cone, None, s, "inner")
            axis_point = np.array([cone.apex[0], x[1], cone.apex[2]])
            assert np.dot(n, axis_point - x) > 0.0

    def test_orthogonal_to_fd_tangents(self, cone):
        s = np.array([0.03, 0.7])
        d1, d2 = fd_tangents(cone, None, s, "inner")
        n = inner_surface_normal(cone, s)
        assert abs(np.dot(n, d1)) / np.linalg.norm(d1) < 1e-9
        assert abs(np.dot(n, d2)) / np.linalg.norm(d2) < 1e-9

    def test_singular_at_apex(self, cone):
        with pytest.raises(SingularSurfaceError):
            inner_surface_normal(cone, np.array([0.0, 0.3]))


class TestOuterSurfaceNormal:
    def test_zero_field_is_the_perfect_cone_without_kernels(self, cone, flat_surface, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        rng = np.random.default_rng(30)
        s = np.column_stack([rng.uniform(0.0, 0.05, 40), rng.uniform(-np.pi, np.pi, 40)])
        flat = outer_surface_normal(cone, flat_surface, s)
        assert np.array_equal(flat, outer_surface_normal(cone, None, s))
        assert calls == []
        bumped = flat_surface.with_amplitudes(np.full(flat_surface.grid, 1e-5))
        outer_surface_normal(cone, bumped, s)
        assert calls == [(40, 2)]

    def test_zero_amplitude_closed_form(self, cone, flat_surface):
        alpha = cone.half_angle
        for s2 in (-2.0, -0.3, 0.0, 1.1):
            s = np.array([0.04, s2])
            n = outer_surface_normal(cone, flat_surface, s)
            expected = [
                np.sin(s2) * np.cos(alpha),
                np.sin(alpha),
                np.cos(s2) * np.cos(alpha),
            ]
            np.testing.assert_allclose(n, expected, atol=1e-12)

    def test_unit_outward_orthogonal_with_field(self, cone, patch):
        rng = np.random.default_rng(31)
        surface = RbfSurface.flat(patch, (4, 4)).with_amplitudes(
            rng.normal(1e-5, 2.5e-6, (4, 4))
        )
        for _ in range(25):
            s = np.array(
                [rng.uniform(0.031, 0.049), rng.uniform(-0.25, 0.25)]
            )
            n = outer_surface_normal(cone, surface, s)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
            x = cone_point(cone, surface, s, "outer")
            axis_point = np.array([cone.apex[0], x[1], cone.apex[2]])
            assert np.dot(n, x - axis_point) > 0.0
            d1, d2 = fd_tangents(cone, surface, s, "outer")
            assert abs(np.dot(n, d1)) / np.linalg.norm(d1) < 1e-7
            assert abs(np.dot(n, d2)) / np.linalg.norm(d2) < 1e-7

    def test_amplitude_jacobian_matches_fd(self, cone, patch):
        """Each column of the normal's derivative in the field value, slope
        and angular derivative against central differences, step 1e-8; the
        amplitude jacobian is this times the fields' linear map."""
        rng = np.random.default_rng(41)
        surface = RbfSurface.flat(patch, (3, 4)).with_amplitudes(rng.normal(1e-5, 5e-6, (3, 4)))
        h = 1e-8
        points = np.column_stack([rng.uniform(0.032, 0.048, 5), rng.uniform(-0.2, 0.2, 5)])
        fields = _field_values(surface, points)
        n, dn = _outer_normal_linearization(cone, points, fields, derivatives=True)
        assert dn.shape == (5, 3, 3)
        assert np.array_equal(n, outer_surface_normal(cone, surface, points))
        for row, s in enumerate(points):
            at_s = tuple(f[row] for f in fields)
            n_s, dn_s = _outer_normal_linearization(cone, s, at_s, derivatives=True)
            np.testing.assert_allclose(n_s, n[row], rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(dn_s, dn[row], rtol=1e-13, atol=1e-13 * np.max(np.abs(dn_s)))
            for j in range(3):
                plus, minus = list(at_s), list(at_s)
                plus[j] += h
                minus[j] -= h
                fd = (
                    _outer_normal_linearization(cone, s, plus)[0]
                    - _outer_normal_linearization(cone, s, minus)[0]
                ) / (2 * h)
                scale = max(np.linalg.norm(fd), 1e-12)
                np.testing.assert_allclose(dn_s[:, j], fd, atol=1e-6 * scale)


class TestConeGeometryValidation:
    def test_rejects_bad_parameters(self):
        good = dict(
            apex=(0.0, 0.04, 0.0),
            half_angle=0.1,
            height=0.05,
            radial_thickness=0.003,
            eta_inside=1.5,
        )
        ConeGeometry(**good)
        for key, value in [
            ("half_angle", 0.0),
            ("half_angle", np.pi / 2),
            ("height", 0.0),
            ("radial_thickness", -1e-3),
            ("eta_inside", 0.0),
        ]:
            bad = dict(good)
            bad[key] = value
            with pytest.raises(ConfigurationError):
                ConeGeometry(**bad)

    def test_radii(self, cone):
        assert cone.radius(0.02, "inner") == pytest.approx(0.02 * np.tan(cone.half_angle))
        assert cone.radius(0.02, "outer") == pytest.approx(
            0.02 * np.tan(cone.half_angle) + cone.radial_thickness
        )
