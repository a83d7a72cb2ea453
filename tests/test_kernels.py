"""The NumPy geometry kernels on small inputs with known answers."""
import numpy as np
import pytest

from hypercell import _kernels


class TestPureBackend:
    def test_hull_square_with_interior(self):
        pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [0.5, 0.7]])
        idx = _kernels.convex_hull_2d(pts)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_hull_collinear(self):
        pts = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]])
        idx = _kernels.convex_hull_2d(pts)
        assert sorted(idx.tolist()) == [0, 3]

    def test_hull_orientation_ccw(self, rng):
        pts = rng.standard_normal((40, 2))
        idx = _kernels.convex_hull_2d(pts)
        hull = pts[idx]
        area2 = 0.0
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            area2 += a[0] * b[1] - a[1] * b[0]
        assert area2 > 0

    def test_distance_inside_zero(self):
        poly = np.array([[-1.0, -1], [1, -1], [1, 1], [-1, 1]])
        d = _kernels.polygon_distance(poly, np.array([[0.0, 0], [0.9, 0.9], [2.0, 0.0]]))
        assert d[0] == 0 and d[1] == 0 and d[2] == pytest.approx(1.0)

    def test_segment_degenerate(self):
        seg = np.array([[-1.0, 0], [1, 0]])
        d = _kernels.polygon_distance(seg, np.array([[0.0, 1.0], [2.0, 0.0], [0.5, 0.0]]))
        assert d == pytest.approx([1.0, 1.0, 0.0])

    def test_cut_mask(self):
        V = np.array([[1.0, 1], [-1, 1], [-1, -1], [1, -1]])
        U = np.array([[1.0, 0], [1, 0], [0, 1]])
        T = np.array([0.5, 2.0, 1.0])
        mask = _kernels.cut_mask(U, T, V)
        assert mask.tolist() == [True, False, False]

    def test_selected_backend_reported(self):
        import hypercell

        assert hypercell.kernel_backend() == "pure"
        for name in ("convex_hull_2d", "polygon_distance", "cut_mask"):
            assert callable(getattr(_kernels, name))
