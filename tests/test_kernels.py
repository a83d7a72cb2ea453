"""The NumPy geometry kernels on small inputs with known answers."""
import json
from pathlib import Path

import numpy as np
import pytest

from hypercell import _kernels, cell, geom, process
from hypercell import direction as dn
from hypercell import experiment as ex
from hypercell.rng import KeyedStream

from oracles import convex_hull_2d_loop

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        pts = np.array([[0.0, 0], [0.9, 0.9], [2.0, 0.0]])
        d, p = _kernels.polygon_project(poly, pts)
        assert d[0] == 0 and d[1] == 0 and d[2] == pytest.approx(1.0)
        assert np.array_equal(p[:2], pts[:2]) and p[2] == pytest.approx([1.0, 0.0])

    def test_segment_degenerate(self):
        seg = np.array([[-1.0, 0], [1, 0]])
        d, p = _kernels.polygon_project(seg, np.array([[0.0, 1.0], [2.0, 0.0], [0.5, 0.0]]))
        assert d == pytest.approx([1.0, 1.0, 0.0])
        assert p == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]))

    def test_cut_mask(self):
        V = np.array([[1.0, 1], [-1, 1], [-1, -1], [1, -1]])
        U = np.array([[1.0, 0], [1, 0], [0, 1]])
        T = np.array([0.5, 2.0, 1.0])
        mask = _kernels.cut_mask(U, T, V)
        assert mask.tolist() == [True, False, False]

    def test_selected_backend_reported(self):
        import hypercell

        assert hypercell.kernel_backend() == "pure"
        for name in ("convex_hull_2d", "polygon_project", "cut_mask"):
            assert callable(getattr(_kernels, name))


def degenerate_point_sets():
    """Inputs where ties and collinearity decide the planar hull."""
    grid = np.array([[x, y] for x in range(-3, 4) for y in range(-2, 3)], dtype=np.float64)
    t = np.linspace(-1.0, 1.0, 9)
    return [
        np.array([[0.3, -0.2]]),
        np.array([[0.0, 0.0], [1.0, 2.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.full((7, 2), 0.25),  # all points identical
        np.column_stack([t, 2.0 * t + 1.0]),  # collinear
        np.column_stack([t, np.zeros(9)])[::-1],  # collinear on an axis
        grid,  # integer grid: collinear boundary points, many ties
        np.vstack([grid, grid[::2]]),  # duplicates of grid points
        np.vstack([grid * 1e-9, [[0.0, 0.0]] * 3]),  # tiny scale
        np.vstack([np.eye(2), -np.eye(2), [[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]]]),
        # a point 1e-15 and one 7e-16 inside the hull edge from (1, 0) to (0, 1)
        np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0.5 - 1e-15], [0.1, 0.1]]),
        np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0.5 - 7e-16], [0.1, 0.1]]),
    ]


class TestHullChain:
    def test_degenerate_inputs_equal_chain(self):
        for pts in degenerate_point_sets():
            assert np.array_equal(_kernels.convex_hull_2d(pts), convex_hull_2d_loop(pts))

    def test_dual_point_sets_equal_chain(self, monkeypatch):
        # record the dual points that planar cell builds hand to the hull, and those of
        # each whole rebuild input, which the rebuild screen thins before the hull
        seen = []
        chain = _kernels.hull_chain
        rebuild = cell._CellBuilder.rebuild

        def record(pts):
            seen.append(pts)
            return chain(pts)

        def record_rebuild(builder, U, T, box):
            seen.append(np.vstack([U, box[0]]) / np.concatenate([T, box[1]])[:, None])
            rebuild(builder, U, T, box)

        monkeypatch.setattr(_kernels, "hull_chain", record)
        monkeypatch.setattr(cell._CellBuilder, "rebuild", record_rebuild)
        square = geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        atoms = dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5])  # many exact ties
        for body, law in ((geom.Ball([0, 0], 1.0), dn.Isotropic(2)), (square, atoms)):
            params = process.ProcessParams(1.0, law, 2)
            for rep in range(3):
                cell.cells_along_intensity(params, body, [64, 256, 1024, 4096], stream_key=KeyedStream(47, rep))
        assert len(seen) >= 20 and max(map(len, seen)) >= 100
        # the bundled cap-starved config; its replication 237 rebuilds from 82 dual points
        n_iso_atomic = len(seen)
        doc = json.loads((CONFIGS / "counterexample_ball.json").read_text())
        body = geom.body_from_json(doc["body"])
        ex.run_counterexample(ex.CounterexampleConfig(body, doc["beta"], doc["n_grid"], reps=240, seed=doc["seed"]))
        assert len(seen) - n_iso_atomic >= 1000 and max(map(len, seen[n_iso_atomic:])) >= 80
        monkeypatch.undo()
        for pts in seen:
            idx, xs, ys = chain(pts)
            assert xs == pts[:, 0].tolist() and ys == pts[:, 1].tolist()
            assert np.array_equal(_kernels.convex_hull_2d(pts), convex_hull_2d_loop(pts))
            assert np.array_equal(idx, convex_hull_2d_loop(pts))

    def test_random_inputs_equal_chain(self, rng):
        for k in range(200):
            n = int(rng.integers(2, 300))
            pts = rng.standard_normal((n, 2))
            if k % 2:
                pts = np.round(pts * 4)  # grid points, with ties
            assert np.array_equal(_kernels.convex_hull_2d(pts), convex_hull_2d_loop(pts))
