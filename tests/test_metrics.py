import math

import numpy as np
import pytest

from hypercell import cell, direction as dn, geom, metrics
from hypercell.errors import DegenerateX, InvalidEpsilon

from oracles import ball_excess_oracle, dense_boundary_minimum


class TestExcess:
    def test_zero_inside(self, ball, square, iso):
        assert metrics.excess(ball, iso, [0.3, 0.2]) == 0.0
        assert metrics.excess(square, iso, [0.9, -0.9]) == 0.0

    def test_ball_isotropic_oracle(self, ball, iso):
        oracle = ball_excess_oracle(1.0, 2.0)
        assert oracle == pytest.approx((2 * math.sqrt(3) - 2 * math.pi / 3) / (2 * math.pi), abs=1e-12)
        got = metrics.excess(ball, iso, [2.0, 0.0])
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_square_atomic_exact(self, square, facet_atoms):
        got = metrics.excess(square, facet_atoms, [1.1, 0.0])
        assert got == pytest.approx(0.025, abs=1e-12)

    def test_rotation_invariance_ball(self, ball, iso, rng):
        vals = []
        for _ in range(10):
            th = rng.uniform(0, 2 * math.pi)
            vals.append(metrics.excess(ball, iso, [2 * math.cos(th), 2 * math.sin(th)]))
        assert np.ptp(vals) < 1e-9

    def test_mixture_splits(self, square, iso, facet_atoms):
        mix = dn.Mixture([(0.5, facet_atoms), (0.5, iso)])
        y = [1.3, 0.2]
        got = metrics.excess(square, mix, y)
        want = 0.5 * metrics.excess(square, facet_atoms, y) + 0.5 * metrics.excess(square, iso, y)
        assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_along_rays(self, stadium, iso, rng):
        ev = metrics.ExcessEvaluator(stadium, iso)
        for _ in range(25):
            th = rng.uniform(0, 2 * math.pi)
            v = np.array([math.cos(th), math.sin(th)])
            vals = [ev.precise(s * v) for s in (2.1, 2.5, 3.0, 4.0)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_batch_agrees_with_precise(self, stadium, iso, rng):
        ev = metrics.ExcessEvaluator(stadium, iso)
        Y = np.array([geom.parallel_boundary_sample(stadium, 0.4, rng) for _ in range(40)])
        batch = ev.batch(Y)
        precise = np.array([ev.precise(y) for y in Y])
        assert np.abs(batch - precise).max() < 1e-3 * precise.max()


class TestMuEstimate:
    def test_ball_isotropic_symmetry_value(self, ball, iso):
        est = metrics.mu_estimate(ball, iso, 1.0)
        assert est.value == pytest.approx(0.2180, abs=1e-4)
        assert abs(np.linalg.norm(est.argmin_point) - 2.0) < 1e-9

    def test_square_atomic_exact(self, square, facet_atoms):
        est = metrics.mu_estimate(square, facet_atoms, 0.1)
        assert est.value == pytest.approx(0.025, abs=1e-6)
        # argmin sits on a facet-normal offset segment
        assert np.isclose(np.abs(est.argmin_point).max(), 1.1, atol=1e-9)
        assert np.abs(est.argmin_point).min() <= 1.0 + 1e-9

    def test_positive_when_approximable(self, square, ball, stadium, iso, facet_atoms):
        for body, dist in [(square, facet_atoms), (square, iso), (ball, iso), (stadium, iso)]:
            for eps in (0.01, 0.1, 1.0):
                assert metrics.mu_estimate(body, dist, eps, metrics.MuConfig(coarse_samples=512)).value > 0

    def test_argmin_on_offset_boundary(self, stadium, iso):
        est = metrics.mu_estimate(stadium, iso, 0.3, metrics.MuConfig(coarse_samples=512))
        assert geom.distance(stadium, est.argmin_point) == pytest.approx(0.3, abs=1e-9)

    def test_monotone_in_eps(self, ball, square, iso):
        cfg = metrics.MuConfig(coarse_samples=512)
        for body in (ball, square):
            vals = [metrics.mu_estimate(body, iso, e, cfg).value for e in (0.05, 0.1, 0.2, 0.4)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_eps(self, ball, iso):
        with pytest.raises(InvalidEpsilon):
            metrics.mu_estimate(ball, iso, 0.0)

    def test_dense_grid_oracle_gap(self, square, ball, stadium, iso, facet_atoms):
        cases = [
            (square, facet_atoms, 0.1),
            (ball, iso, 0.25),
            (stadium, iso, 0.25),
            (square, iso, 0.1),
        ]
        for body, dist, eps in cases:
            est = metrics.mu_estimate(body, dist, eps)
            ev = metrics.ExcessEvaluator(body, dist)
            path = geom.boundary_path(body, eps)
            oracle = dense_boundary_minimum(ev, path, n=400_000)
            assert abs(est.value - oracle) <= 1e-4 * oracle


class TestMuScaling:
    GRID = [2.0**-k for k in range(10, 3, -1)]

    def test_ball_isotropic_rolling_exponent(self, ball, iso):
        fit = metrics.mu_scaling(ball, iso, self.GRID)
        assert fit.slope == pytest.approx(1.5, abs=0.15)
        assert fit.r_squared > 0.999

    def test_square_atomic_polytope_exponent(self, square, facet_atoms):
        fit = metrics.mu_scaling(square, facet_atoms, self.GRID)
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_square_isotropic_generic_exponent(self, square, iso):
        fit = metrics.mu_scaling(square, iso, self.GRID)
        assert fit.slope == pytest.approx(2.0, abs=0.2)

    def test_grid_validation(self, ball, iso):
        with pytest.raises(InvalidEpsilon):
            metrics.mu_scaling(ball, iso, [0.5, 1.5])

    def test_one_point_grid_is_degenerate(self, ball, iso):
        with pytest.raises(DegenerateX):
            metrics.mu_scaling(ball, iso, [0.5])

    def test_rolling_ball_upper_bound_shape(self, ball, iso):
        # bounded ratio excess/eps^{3/2} along the outward normal (no constant claim)
        ev = metrics.ExcessEvaluator(ball, iso)
        ratios = [ev.precise([1.0 + e, 0.0]) / e**1.5 for e in self.GRID]
        assert max(ratios) / min(ratios) < 1.5


class TestHausdorffCell:
    def test_synthetic_box_cell(self, square):
        z = cell.CellPolytope(
            normals=np.vstack([np.eye(2), -np.eye(2)]),
            offsets=np.full(4, 2.0),
            vertices=np.array([[2.0, 2.0], [-2.0, 2.0], [-2.0, -2.0], [2.0, -2.0]]),
            defining=np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
            window_radius=10.0,
        )
        assert metrics.hausdorff_cell(square, z) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_vertices_on_boundary_zero(self, ball):
        th = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        z = cell.CellPolytope(
            normals=np.column_stack([np.cos(th), np.sin(th)]),
            offsets=np.ones(8),
            vertices=np.column_stack([np.cos(th), np.sin(th)]),
            defining=np.column_stack([np.arange(8), (np.arange(8) + 1) % 8]),
            window_radius=10.0,
        )
        assert metrics.hausdorff_cell(ball, z) == pytest.approx(0.0, abs=1e-12)

    def test_adding_halfspace_shrinks(self, ball, iso):
        from hypercell.process import ProcessParams
        from hypercell.rng import KeyedStream

        params = ProcessParams(30.0, iso, 2)
        cells = cell.cells_along_intensity(params, ball, [30, 60], stream_key=KeyedStream(55, 0))
        assert metrics.hausdorff_cell(ball, cells[1]) <= metrics.hausdorff_cell(ball, cells[0]) + 1e-12
