import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercell import _kernels, cell, geom, metrics, process
from hypercell import direction as dn
from hypercell import experiment as ex
from hypercell.errors import WindowOverflow
from hypercell.rng import KeyedStream

from oracles import (
    cells_ring_by_ring,
    compact_unique,
    dedupe_after_all_pairs,
    dedupe_vertices_loop,
    incremental_by_plane,
    incremental_vertices_loop,
    intersect_dual_2d_arrays,
    shared_subsets,
    solve_subsets_loop,
    subset_vertices_loop,
    vertex_sets_match_loop,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BOX2 = (np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 50.0))
BOX3 = (np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 20.0))
BOX4 = (np.vstack([np.eye(4), -np.eye(4)]), np.full(8, 20.0))


def random_instance(rng, max_n=40):
    n = int(rng.integers(4, max_n))
    th = rng.uniform(0, 2 * math.pi, n)
    U = np.column_stack([np.cos(th), np.sin(th)])
    T = rng.uniform(0.3, 2.0, n)
    return U, T


def random_spatial_instance(rng, d=3, max_n=14):
    n = int(rng.integers(4, max_n))
    U = rng.standard_normal((n, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    T = rng.uniform(0.3, 2.0, n)
    return U, T


def near_concurrent_hexagon():
    """Regular hexagon plus a line through each vertex, normal along the vertex.

    Three lines meet at every vertex, but only up to rounding, so the
    dual hull can keep a point a hair outside its neighbours' segment.
    """
    th = np.arange(6) * math.pi / 3
    W = np.column_stack([np.cos(th + math.pi / 6), np.sin(th + math.pi / 6)])
    V = W / math.cos(math.pi / 6)
    U = np.vstack([np.column_stack([np.cos(th), np.sin(th)]), W])
    return U, np.concatenate([np.ones(6), np.einsum("ij,ij->i", W, V)])


def concurrent_triple_triangles():
    """Triangles with a vertex (-c, 0) on three lines, concurrent only up to rounding.

    The dual points of the three lines lie on one line up to rounding.  When
    the middle one becomes the lexicographic minimum by rounding, the hull
    order starts there, and the two nearby vertices are its last and first.
    """
    right = np.array([[1.0, 0.0], [0.3, 0.95], [0.3, -0.95]])
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    out = []
    for c in (0.7, 1.0, 2.1, 3.7):
        for a, b in itertools.product((0.1, 0.3, 0.7, 1.0), repeat=2):
            th = np.array([math.pi - a, math.pi, math.pi + b])
            U = np.column_stack([np.cos(th), np.sin(th)])
            out.append((np.vstack([U, right]), np.concatenate([U @ [-c, 0.0], np.ones(3)])))
    return out


def recorded_planar_calls(monkeypatch, reps):
    """The inputs of every planar intersection in a few replications of each bundled cell config."""
    seen = []
    inner = cell.halfspace_intersection

    def record(U, T, BU, BT, start=None):
        if BU.shape[1] == 2:
            seen.append((U, T, (BU, BT)))
        return inner(U, T, BU, BT, start)

    monkeypatch.setattr(cell, "halfspace_intersection", record)
    for name in ("tail_ball_isotropic", "rate_ball_isotropic", "rate_square_atomic", "counterexample_ball"):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        body = geom.body_from_json(doc["body"])
        law = dn.distribution_from_json(doc["distribution"]) if "distribution" in doc else None
        if doc["experiment"] == "rate":
            ex.run_rate(ex.RateRunConfig(body, law, doc["n_grid"], reps, doc["seed"]))
        elif doc["experiment"] == "tail":
            ex.run_tail(ex.TailRunConfig(body, law, doc["eps"], doc["gamma_grid"], reps, doc["seed"]))
        else:
            ex.run_counterexample(ex.CounterexampleConfig(body, doc["beta"], doc["n_grid"], reps, doc["seed"]))
    monkeypatch.undo()
    return seen


def assert_planar_path_equals_arrays(U, T, box):
    """The planar intersection and its compaction equal the whole-array reference, bit for bit."""
    ref = intersect_dual_2d_arrays(U, T, *box)
    ref_U, ref_T, ref_D = compact_unique(U, T, ref, 2)
    builder = cell._CellBuilder(None, 2)
    builder.rebuild(U, T, box)
    inter = builder.inter
    assert inter.vertices.shape == ref.vertices.shape
    assert inter.vertices.tobytes() == ref.vertices.tobytes()
    assert inter.defining.dtype == ref_D.dtype and inter.defining.shape == ref_D.shape
    assert inter.defining.tobytes() == ref_D.tobytes()
    assert builder.U.tobytes() == ref_U.tobytes() and builder.T.tobytes() == ref_T.tobytes()
    assert inter.n_halfspaces == len(ref_T)


def singular_subset_instances():
    """Inputs with exactly singular d-subsets besides the box's own +-e_i pairs.

    Repeated normals, exactly antiparallel pairs, and three or more
    hyperplanes through one vertex, in the plane and in space; last, a
    planar input whose triple points are concurrent only up to rounding.
    """
    e2, e3 = np.eye(2), np.eye(3)
    planar = [
        # unit square with its right side repeated and its top side doubled
        (np.vstack([e2, -e2, e2]), np.array([1.0, 1, 1, 1, 1, 2])),
        # slab between exactly antiparallel lines, closed by a sloped pair
        (np.array([[1.0, 0], [-1, 0], [0.3, 1], [0.3, -1]]), np.array([0.5, 0.7, 1, 1])),
        # x = 1, y = 1, x + y = 2, 3x + y = 4 and x + 3y = 4 meet at (1, 1)
        (
            np.array([[1.0, 0], [0, 1], [1, 1], [3, 1], [1, 3], [-1, 0], [0, -1]]),
            np.array([1.0, 1, 2, 4, 4, 1, 1]),
        ),
    ]
    spatial = [
        # unit cube with two faces repeated, one of them at a larger offset
        (np.vstack([e3, -e3, e3[:2]]), np.array([1.0, 1, 1, 1, 1, 1, 1, 2])),
        # exactly antiparallel x-pair closing a tilted prism
        (
            np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0.2], [0, -1, 0.2], [0, 0, 1], [0, 0, -1]]),
            np.array([0.5, 0.7, 1, 1, 1, 1]),
        ),
        # x = 1, y = 1, z = 1, x + y + z = 3 and x + y = 2 meet at (1, 1, 1)
        (np.vstack([e3, [[1.0, 1, 1], [1, 1, 0]], -e3]), np.array([1.0, 1, 1, 3, 2, 1, 1, 1])),
        # four facets of a rectangular pyramid meet at its apex (0, 0, 1),
        # which z = 0.5, inserted last, cuts: each new vertex lies on two
        # facets, only three of which define the apex
        (
            np.array([[1.0, 0, 1], [-1, 0, 1], [0, 2, 1], [0, -2, 1], [0, 0, -1], [0, 0, 4]]),
            np.array([1.0, 1, 1, 1, 1, 2]),
        ),
    ]
    return (
        [(U, T, BOX2) for U, T in planar]
        + [(U, T, BOX3) for U, T in spatial]
        + [(*near_concurrent_hexagon(), BOX2)]
    )


def concurrent_integer_instances():
    """Integer normals touching the corners of an integer box, in 3-d and 4-d.

    Every plane passes through a corner of the box [-lo, hi], so several
    planes meet at each corner, and many d-subsets of normals are
    linearly dependent, hence exactly singular.
    """
    out = []
    U3 = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(v)])
    for lo, hi in (([1, 1, 1], [1, 1, 1]), ([1, 2, 1], [2, 1, 3])):
        out.append((U3, np.maximum(U3 * hi, -U3 * np.array(lo)).sum(axis=1), BOX3))
    e4 = np.eye(4)
    U4 = np.vstack([e4, -e4, [e4[i] + e4[j] for i, j in itertools.combinations(range(4), 2)], [[1.0, -1, 0, 0]]])
    for lo, hi in (([1, 1, 1, 1], [1, 1, 1, 1]), ([2, 1, 1, 3], [1, 2, 1, 1])):
        out.append((U4, np.maximum(U4 * hi, -U4 * np.array(lo)).sum(axis=1), BOX4))
    return out


def assert_matches_incremental_loop(inter, U, T, box):
    V, D = incremental_vertices_loop(U, T, *box, cell.FEAS_TOL, cell.SOLVE_RESIDUAL_TOL)
    assert inter.vertices.tobytes() == V.tobytes()
    assert np.array_equal(inter.defining, D)


def assert_matches_subset_loop(inter, U, T, box):
    V, D = subset_vertices_loop(
        np.vstack([U, box[0]]), np.concatenate([T, box[1]]),
        cell.FEAS_TOL, cell.SOLVE_RESIDUAL_TOL,
    )
    assert inter.vertices.tobytes() == V.tobytes()
    assert np.array_equal(inter.defining, D)


def sorted_rows(V):
    return V[np.lexsort(V.T[::-1])]


def continued_insertion(U, T, box, k):
    """Build the cell of the first k constraints, compact it, then insert the rest into it.

    This is the path a coupled grid takes in d >= 3 for each band and for
    each window ring inside the box of the last build.
    """
    builder = cell._CellBuilder(None, box[0].shape[1])
    builder.rebuild(U[:k], T[:k], box)
    builder.add_incremental(U[k:], T[k:])
    return builder


def assert_same_intersection(a, b):
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert np.array_equal(a.defining, b.defining)
    assert a.n_halfspaces == b.n_halfspaces


class TestHalfspaceIntersection:
    def test_unit_box(self):
        U = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        T = np.ones(4)
        inter = cell.halfspace_intersection(U, T, *BOX2)
        got = sorted(map(tuple, np.round(inter.vertices, 9)))
        assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_triangle_defining_pairs(self):
        th = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
        U = np.column_stack([np.cos(th), np.sin(th)])
        T = np.ones(3)
        inter = cell.halfspace_intersection(U, T, *BOX2)
        assert len(inter.vertices) == 3
        for row in inter.defining:
            assert len(set(row.tolist())) == 2
            assert all(i < 3 for i in row)  # no box plane active

    def test_vertices_feasible_and_defining_tight(self, rng):
        for _ in range(50):
            U, T = random_instance(rng)
            inter = cell.halfspace_intersection(U, T, *BOX2)
            A = np.vstack([U, BOX2[0]])
            b = np.concatenate([T, BOX2[1]])
            for v, d in zip(inter.vertices, inter.defining):
                assert np.all(A @ v <= b + 1e-9)
                assert np.abs(A[d] @ v - b[d]).max() < 1e-9

    def test_fast_path_matches_oracle_1000(self, rng):
        t0 = time.time()
        mismatches = 0
        for _ in range(1000):
            U, T = random_instance(rng)
            fast = cell.halfspace_intersection(U, T, *BOX2)
            slow = cell.halfspace_intersection_bruteforce(U, T, *BOX2)
            if not cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7):
                mismatches += 1
        assert mismatches == 0
        assert time.time() - t0 < 10.0

    def test_incremental_3d_matches_oracle(self, rng):
        box3 = (np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 20.0))
        for _ in range(40):
            n = int(rng.integers(4, 14))
            U = rng.standard_normal((n, 3))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            T = rng.uniform(0.3, 2.0, n)
            fast = cell.halfspace_intersection(U, T, *box3)
            slow = cell.halfspace_intersection_bruteforce(U, T, *box3)
            assert cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7)

    @pytest.mark.parametrize("U, T, box", singular_subset_instances())
    def test_oracle_skips_singular_subsets(self, U, T, box):
        slow = cell.halfspace_intersection_bruteforce(U, T, *box)
        fast = cell.halfspace_intersection(U, T, *box)
        assert cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7)
        assert_matches_subset_loop(slow, U, T, box)

    def test_batched_oracle_equals_subset_loop(self, rng):
        # the stacked solve must reproduce the one-solve-per-subset
        # enumeration exactly: same vertices, same defining rows, same order
        instances = [(*random_instance(rng), BOX2) for _ in range(40)]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(15)]
        for U, T, box in instances:
            slow = cell.halfspace_intersection_bruteforce(U, T, *box)
            assert_matches_subset_loop(slow, U, T, box)

    def test_planar_merge_wraps_around(self):
        # the last vertex merges into the first; a run of three into its head
        V = np.array([[1.0, 0], [0, 1], [-1, 0], [-1, 1e-16], [-1, 2e-16], [1 + 1e-15, 0]])
        D = np.arange(12).reshape(6, 2)
        got_V, got_D = cell._merge_adjacent(V, D)
        assert got_V.tolist() == V[:3].tolist()
        assert np.array_equal(got_D, D[:3])

    def test_planar_path_equals_arrays_on_bundled_configs(self, monkeypatch):
        calls = recorded_planar_calls(monkeypatch, reps=10)
        assert len(calls) >= 250
        for U, T, box in calls:
            assert_planar_path_equals_arrays(U, T, box)

    def test_planar_merges_equal_arrays(self, monkeypatch):
        merges = []
        merge = cell._merge_adjacent

        def record(V, D):
            out = merge(V, D)
            merges.append((V, out[0]))
            return out

        monkeypatch.setattr(cell, "_merge_adjacent", record)
        for U, T in [near_concurrent_hexagon(), *concurrent_triple_triangles()]:
            assert_planar_path_equals_arrays(U, T, BOX2)
        # vertices merge, and some merge across the wrap: the last into the first
        merged = [V for V, W in merges if len(W) < len(V)]
        wrapped = [V for V in merged if np.hypot(*(V[0] - V[-1])) <= cell.MERGE_TOL * (1 + np.hypot(*V[-1]))]
        assert len(merged) >= 10 and len(wrapped) >= 2

    def test_dedupe_equals_reference_loop(self, rng, monkeypatch):
        # record what the oracle (every d) hands to its own merge, then
        # compare that merge, the fast paths' dedupe and the reference loop
        # on exactly those inputs
        seen = []
        merge = cell._merge_pairwise

        def record(V, D):
            seen.append((V, D))
            return merge(V, D)

        monkeypatch.setattr(cell, "_merge_pairwise", record)
        instances = singular_subset_instances()
        instances += [(*random_instance(rng), BOX2) for _ in range(40)]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(15)]
        # many planes through each box corner: the oracle finds every corner
        # from several subsets, so the dedupe merges
        instances += concurrent_integer_instances()
        for U, T, box in instances:
            cell.halfspace_intersection_bruteforce(U, T, *box)
            cell.halfspace_intersection(U, T, *box)
        # a chain 0.6 tol apart: the middle point merges into the first,
        # the last is kept because its only near neighbour was dropped
        chain = np.outer([0.0, 0.6e-9, 1.2e-9, 5.0], [1.0, 0.0])
        seen.append((chain, np.arange(8).reshape(4, 2)))
        # farther apart than the threshold of the kept first row, within that
        # of the second: both stay
        pair = np.array([[0.0, 0.0], [1e-9 + 5e-19, 0.0]])
        assert len(dedupe_vertices_loop(pair, pair)[0]) == 2
        seen.append((pair, np.arange(4).reshape(2, 2)))
        assert sum(len(merge(V, D)[0]) < len(V) for V, D in seen) >= 5
        for V, D in seen:
            want = dedupe_vertices_loop(V, D)
            for got in (merge(V, D), cell._dedupe_after(V, D, 0)):
                assert got[0].tobytes() == want[0].tobytes()
                assert np.array_equal(got[1], want[1])

    def test_oracle_chunks_and_fallback_agree(self, rng, monkeypatch):
        instances = singular_subset_instances()
        instances += [(*random_instance(rng), BOX2) for _ in range(5)]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(5)]
        want = [cell.halfspace_intersection_bruteforce(U, T, *box) for U, T, box in instances]
        # small chunks split the subsets across many stacked solves
        monkeypatch.setattr(cell, "ORACLE_CHUNK", 7)
        for (U, T, box), w in zip(instances, want):
            assert_same_intersection(cell.halfspace_intersection_bruteforce(U, T, *box), w)
        # no system looks singular up front, so every stacked solve raises
        # on the box's +-e_i pairs and falls back to one solve per subset
        monkeypatch.setattr(cell.np.linalg, "det", lambda M: np.ones(len(M)))
        for (U, T, box), w in zip(instances, want):
            assert_same_intersection(cell.halfspace_intersection_bruteforce(U, T, *box), w)

    def test_incremental_batched_equals_loop(self, rng):
        # one stacked solve per inserted halfspace must reproduce the
        # one-solve-per-combination loop: same vertices, defining rows, order
        instances = [inst for inst in singular_subset_instances() if inst[2] is BOX3]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(40)]
        instances += [(*random_spatial_instance(rng, d=4, max_n=11), BOX4) for _ in range(15)]
        instances += concurrent_integer_instances()
        for U, T, box in instances:
            assert_matches_incremental_loop(cell.halfspace_intersection(U, T, *box), U, T, box)

    def test_incremental_fallback_equals_loop(self, rng, monkeypatch):
        instances = [inst for inst in singular_subset_instances() if inst[2] is BOX3]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(5)]
        instances += [(*random_spatial_instance(rng, d=4, max_n=9), BOX4) for _ in range(3)]
        want = [cell.halfspace_intersection(U, T, *box) for U, T, box in instances]
        solve = np.linalg.solve
        raised = []

        def unstackable(M, r):
            if np.ndim(M) > 2:
                raised.append(len(M))
                raise np.linalg.LinAlgError("stacked solve refused")
            return solve(M, r)

        # every stacked solve raises, so every insertion solves one combination at a time
        monkeypatch.setattr(cell.np.linalg, "solve", unstackable)
        for (U, T, box), w in zip(instances, want):
            assert_same_intersection(cell.halfspace_intersection(U, T, *box), w)
        monkeypatch.undo()
        assert len(raised) >= 3 * len(instances)
        for (U, T, box), w in zip(instances, want):
            assert_matches_incremental_loop(w, U, T, box)

    def test_shared_subsets_equal_filtered_combinations(self, rng):
        # the combinations of all columns, less those with no common row,
        # in the same order: listed by vertex and by plane
        for k in (2, 3):
            for _ in range(30):
                inc = rng.random((int(rng.integers(1, 6)), int(rng.integers(k, 12)))) < 0.4
                want = [c for c in itertools.combinations(range(inc.shape[1]), k)
                        if inc[:, list(c)].all(axis=1).any()]
                for got in (cell._vertex_subsets(inc, k), shared_subsets(inc, k)):
                    assert got.shape == (len(want), k)
                    assert got.tolist() == [list(c) for c in want]

    def test_vertex_subsets_equal_shared_subsets_on_every_insertion(self, rng, monkeypatch):
        # record the incidence rows of every cutting insertion, then list
        # their subsets by vertex and by plane
        seen = []
        listing = cell._vertex_subsets

        def record(inc, k):
            seen.append((inc, k))
            return listing(inc, k)

        monkeypatch.setattr(cell, "_vertex_subsets", record)
        pyramid = [inst for inst in singular_subset_instances() if inst[2] is BOX3][-1]
        instances = [(*random_spatial_instance(rng), BOX3) for _ in range(40)]
        instances += [(*random_spatial_instance(rng, d=4, max_n=11), BOX4) for _ in range(15)]
        instances += concurrent_integer_instances() + [pyramid]
        for U, T, box in instances:
            cell.halfspace_intersection(U, T, *box)
        # a cut through the top corner of each integer instance, where d + 3
        # or more planes meet; inserted into a compacted cell, which keeps
        # every plane through a vertex, it cuts those degenerate vertices
        for U, T, box in concurrent_integer_instances():
            top = cell.halfspace_intersection(U, T, *box).vertices.sum(axis=1).max()
            U, T = np.vstack([U, np.ones(U.shape[1])]), np.append(T, top - 0.5)
            for k in range(1, len(T)):
                continued_insertion(U, T, box, k)
        monkeypatch.undo()
        # vertices on more than d planes take the per-row path, in 3-d and 4-d
        degenerate = [k for inc, k in seen if (inc.sum(axis=1) > k + 1).any()]
        assert degenerate.count(2) >= 20 and degenerate.count(3) >= 5
        for inc, k in seen:
            got, want = cell._vertex_subsets(inc, k), shared_subsets(inc, k)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_thin_box_screens_box_pairs(self, rng, monkeypatch):
        # a box 2e-12 thick in z: its vertices lie within FEAS_TOL of both
        # z planes, so subsets holding both are listed and must be screened
        screened = []
        screen = cell._holds_box_pair

        def record(idx, n, d):
            pair = screen(idx, n, d)
            screened.append(int(pair.sum()))
            return pair

        monkeypatch.setattr(cell, "_holds_box_pair", record)
        box = (BOX3[0], np.array([20.0, 20, 1e-12, 20, 20, 1e-12]))
        for _ in range(10):
            U, T = random_spatial_instance(rng)
            assert_same_intersection(cell.halfspace_intersection(U, T, *box), incremental_by_plane(U, T, *box))
        assert sum(screened) >= 10

    def test_vertex_subsets_equal_shared_subsets_on_wide_incidences(self, rng):
        # up to 200 planes and up to 8 through one vertex; the rows draw their
        # planes from a small pool, so many of their subsets repeat
        for k in (2, 3, 4):
            for _ in range(15):
                m = int(rng.integers(k + 1, 201))
                pool = rng.choice(m, size=min(m, 12), replace=False)
                inc = np.zeros((int(rng.integers(1, 10)), m), dtype=bool)
                for row in inc:
                    row[rng.choice(pool, size=int(rng.integers(1, 9)), replace=False)] = True
                got, want = cell._vertex_subsets(inc, k), shared_subsets(inc, k)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_solve_subsets_equals_lone_solves(self, rng):
        # exactly singular systems (a repeated row, a doubled row) make the
        # stack fall back to one solve at a time; a NaN row or an overflow
        # leaves a non-finite solution without raising
        paths = {"stacked, all finite": 0, "stacked, some not finite": 0, "one at a time": 0}
        for trial in range(90):
            d = int(rng.integers(2, 5))
            A = rng.standard_normal((12, d))
            b = rng.uniform(0.5, 2.0, 12)
            A[8], A[9] = A[0], 2.0 * A[1]
            A[10, 0] = np.nan
            A[11] = 1e-10 * A[2]
            b[11] = 1e308
            pool = [range(8), [*range(8), 10, 11], range(12)][trial % 3]
            idx = np.array([rng.choice(pool, size=d, replace=False) for _ in range(int(rng.integers(1, 30)))])
            try:
                np.linalg.solve(A[idx], b[idx][..., None])
                singular = False
            except np.linalg.LinAlgError:
                singular = True
            X, ok = cell._solve_subsets(A, b, idx)
            X_ref, ok_ref = solve_subsets_loop(A, b, idx, cell.SOLVE_RESIDUAL_TOL)
            assert np.array_equal(ok, ok_ref)
            assert np.array_equal(np.isfinite(X), np.isfinite(X_ref))
            fin = np.isfinite(X_ref)
            assert X[fin].tobytes() == X_ref[fin].tobytes()
            if singular:
                paths["one at a time"] += 1
            else:
                paths["stacked, all finite" if np.isfinite(X).all() else "stacked, some not finite"] += 1
        assert min(paths.values()) >= 5, paths

    def test_exact_copies_equal_unique_rule(self, rng):
        # the first of equal rows is kept, as `np.unique(..., axis=0)` keeps
        # it; -0.0 and 0.0 are equal to both
        for _ in range(30):
            rows = rng.integers(-1, 2, (int(rng.integers(1, 30)), 4)).astype(np.float64)
            rows[rng.random(rows.shape) < 0.2] *= -1.0
            want = np.ones(len(rows), dtype=bool)
            want[np.unique(rows, axis=0, return_index=True)[1]] = False
            assert np.array_equal(cell._exact_copies(rows), want)

    def test_fast_path_dedupe_equals_reference_loop(self, rng, monkeypatch):
        # the fast path compares only the vertices after those known apart
        # (the start's survivors); the greedy result equals the all-pairs loop
        seen = []
        dedupe = cell._dedupe_after

        def record(V, D, apart):
            seen.append((V, D, apart))
            return dedupe(V, D, apart)

        monkeypatch.setattr(cell, "_dedupe_after", record)
        instances = [inst for inst in singular_subset_instances() if inst[2] is BOX3]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(10)]
        instances += concurrent_integer_instances()
        for U, T, box in instances:
            for k in range(1, len(T)):
                continued_insertion(U, T, box, k)
        params = process.ProcessParams(1.0, dn.Isotropic(3), 3)
        cell.cells_along_intensity(params, geom.Ball([0, 0, 0], 1.0), [8, 32, 128], stream_key=KeyedStream(7, 0))
        monkeypatch.undo()
        assert sum(apart > 0 for _, _, apart in seen) >= 50
        for V, D, apart in seen:
            got, want = dedupe(V, D, apart), dedupe_vertices_loop(V, D)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])

    def test_windowed_merge_equals_all_pairs(self, rng):
        # near copies in clusters and chains, where the greedy order decides
        # which row survives; vertices on one box face; near copies among the
        # rows known apart, which all stay; and pairs set just inside the
        # threshold along the screen direction, where only the window's
        # factor 2 covers the rounding of the projections
        cases = []
        for d in (2, 3, 4):
            a = _kernels._screen(d)
            for trial in range(40):
                base = rng.standard_normal((int(rng.integers(1, 40)), d)) * rng.choice([1e-3, 1.0, 30.0])
                if trial % 4 == 1:
                    base[:, 0] = 20.0  # one face of the box
                step = cell.MERGE_TOL * (1.0 + np.linalg.norm(base, axis=1, keepdims=True))
                picks = rng.integers(0, len(base), size=(3, len(base)))
                dirs = rng.standard_normal((3, len(base), d))
                dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
                frac = rng.choice([0.0, 0.3, 0.6, 0.95, 1.05, 2.0], size=(3, len(base), 1))
                chains = base[picks] + (frac * dirs * step[picks]).cumsum(axis=0)
                V = np.vstack([base, *chains])[rng.permutation(4 * len(base))]
                cases.append((V, int(rng.integers(0, len(V) + 1))))
            w = rng.standard_normal((200, d))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            thr = cell.MERGE_TOL * (1.0 + np.linalg.norm(w, axis=1, keepdims=True))
            edge = w + thr * (1.0 - 1e-7 * rng.random((200, 1))) * a
            cases.append((np.vstack([w, edge]), 0))
        merged = 0
        for V, apart in cases:
            D = np.arange(len(V) * V.shape[1]).reshape(V.shape)
            got, want = cell._dedupe_after(V, D, apart), dedupe_after_all_pairs(V, D, apart)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
            merged += len(want[0]) < len(V)
        assert merged >= 100

    def test_windowed_merge_equals_all_pairs_on_a_3d_ball_grid(self, monkeypatch):
        # every merge of a 3-d ball grid up to intensity 2^14, whose last
        # bands cut most vertices of cells of some 950
        seen = []
        dedupe = cell._dedupe_after

        def record(V, D, apart):
            seen.append((V, D, apart))
            return dedupe(V, D, apart)

        monkeypatch.setattr(cell, "_dedupe_after", record)
        params = process.ProcessParams(1.0, dn.Isotropic(3), 3)
        grid = [2.0**k for k in range(6, 15)]
        for rep in range(3):
            cell.cells_along_intensity(params, geom.Ball([0, 0, 0], 1.0), grid, stream_key=KeyedStream(42, rep))
        monkeypatch.undo()
        assert max(len(V) for V, _, _ in seen) > 900 and sum(apart > 0 for _, _, apart in seen) >= 20
        for V, D, apart in seen:
            got, want = dedupe(V, D, apart), dedupe_after_all_pairs(V, D, apart)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])

    def test_continued_insertion_equals_full_build(self, rng):
        # inserting constraints into the compacted cell of the others gives
        # the vertices of one build from the box corners, bit for bit; only
        # the row order may differ
        instances = [inst for inst in singular_subset_instances() if inst[2] is BOX3]
        instances += [(*random_spatial_instance(rng), BOX3) for _ in range(40)]
        instances += [(*random_spatial_instance(rng, d=4, max_n=11), BOX4) for _ in range(15)]
        instances += concurrent_integer_instances()
        for U, T, box in instances:
            want = sorted_rows(cell.halfspace_intersection(U, T, *box).vertices)
            for k in range(1, len(T)):
                got = continued_insertion(U, T, box, k).inter.vertices
                assert sorted_rows(got).tobytes() == want.tobytes()

    def test_compaction_keeps_every_facet_at_a_degenerate_vertex(self):
        # four facets meet at the apex of this pyramid, and `defining` names
        # three; compaction once dropped the fourth, which the frustum cut
        # from it below then violated
        U = np.array([[1.0, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]) / math.sqrt(2)
        T = np.full(4, 1 / math.sqrt(2))
        builder = cell._CellBuilder(None, 3)
        builder.rebuild(U, T, BOX3)
        assert len(builder.T) == 4
        cuts = [(np.array([[0.0, 0, -1]]), np.array([1.0])), (np.array([[0.0, 0, 1]]), np.array([0.5]))]
        for U_new, T_new in cuts:
            builder.add_incremental(U_new, T_new)
        U_all = np.vstack([U, *(u for u, _ in cuts)])
        T_all = np.concatenate([T, *(t for _, t in cuts)])
        oracle = cell.halfspace_intersection_bruteforce(U_all, T_all, *BOX3)
        assert len(oracle.vertices) == 8
        assert cell._vertex_sets_match(builder.inter.vertices, oracle.vertices, 1e-7)

    def test_defining_planes_listed_beyond_feasibility_tolerance(self):
        # a solve may leave its vertex up to SOLVE_RESIDUAL_TOL off its own
        # planes, farther than FEAS_TOL: here every cube corner sits 5e-9
        # inside them, so only its `defining` row names the planes of its
        # edges, and the cut through (1, 1, 1) must still find three vertices
        U, T = np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)
        cube = cell.halfspace_intersection(U, T, *BOX3)
        start = cell.Intersection(cube.vertices * (1 - 5e-9), cube.defining, len(T))
        U, T = np.vstack([U, [1.0, 1, 1]]), np.append(T, 2.5)
        got = cell.halfspace_intersection(U, T, *BOX3, start)
        assert_same_intersection(got, incremental_by_plane(U, T, *BOX3, start))
        assert len(got.vertices) == 10 and (got.defining[-3:, 0] == 6).all()

    def test_start_leaves_planar_path_unchanged(self, rng):
        for _ in range(20):
            U, T = random_instance(rng)
            want = cell.halfspace_intersection(U, T, *BOX2)
            start = cell.halfspace_intersection(U[:3], T[:3], *BOX2)
            assert_same_intersection(cell.halfspace_intersection(U, T, *BOX2, start), want)

    def test_incremental_ignores_exact_copies(self, rng):
        # an exact copy of a halfspace leaves the set unchanged, and so the
        # output; inserting the copy, when rounding let it cut a vertex,
        # added points inside an edge, solved from both copies
        for _ in range(40):
            U, T = random_spatial_instance(rng)
            want = cell.halfspace_intersection(U, T, *BOX3)
            box_shifted = want.defining + (want.defining >= len(T))  # the copy comes before the box
            for k in range(len(T)):
                got = cell.halfspace_intersection(np.vstack([U, U[k]]), np.append(T, T[k]), *BOX3)
                assert got.vertices.tobytes() == want.vertices.tobytes()
                assert np.array_equal(got.defining, box_shifted)

    def test_oracle_ignores_exact_copies(self):
        # the square |x|, |y| <= 1 with its bottom side repeated: the two
        # copies of (0, -1) once solved to a feasible point (0, -1) inside
        # the bottom edge, a fifth vertex
        th = np.arange(4) * math.pi / 2
        U = np.column_stack([np.cos(th), np.sin(th)])
        U, T = np.vstack([U, U[3]]), np.ones(5)
        slow = cell.halfspace_intersection_bruteforce(U, T, *BOX2)
        fast = cell.halfspace_intersection(U, T, *BOX2)
        assert len(slow.vertices) == 4 and slow.n_halfspaces == 5
        assert (slow.defining != 4).all()
        assert cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7)
        want = cell.halfspace_intersection_bruteforce(U[:4], T[:4], *BOX2)
        assert want.vertices.tobytes() == slow.vertices.tobytes()
        assert np.array_equal(slow.defining, want.defining + (want.defining >= 4))

    def test_vertex_sets_match_equals_loop(self, rng, monkeypatch):
        # record the vertex sets a debug-oracle build compares, then add
        # permuted, perturbed and greedy-conflict variants of them
        seen = []
        match = cell._vertex_sets_match

        def record(A, B, tol):
            seen.append((A, B, tol))
            return match(A, B, tol)

        monkeypatch.setattr(cell, "_vertex_sets_match", record)
        params = process.ProcessParams(10.0, dn.Isotropic(2), 2)
        cell.k_cell(params, geom.Ball([0, 0], 1.0), stream_key=KeyedStream(46, 0), debug_oracle=True)
        params3 = process.ProcessParams(2.0, dn.Isotropic(3), 3)
        cell.k_cell(params3, geom.Ball([0, 0, 0], 1.0), stream_key=KeyedStream(46, 1), debug_oracle=True)
        for U, T, box in singular_subset_instances():
            fast = cell.halfspace_intersection(U, T, *box)
            seen.append((fast.vertices, cell.halfspace_intersection_bruteforce(U, T, *box).vertices, 1e-7))
        cases = []
        for A, B, tol in seen:
            perm = rng.permutation(len(B))
            nudge = np.zeros_like(B)
            nudge[perm[0]] = 2 * tol * (1.0 + np.linalg.norm(B[perm[0]]))
            cases += [(A, B, tol), (A, B[perm], tol), (A, B + nudge, tol), (A, B[:-1], tol)]
        # both rows of A lie nearest to B[0]: the greedy gives B[0] to the
        # first row and the second must take B[1], which is too far at 1e-9
        A = np.array([[0.0, 0.0], [1e-9, 0.0]])
        B = np.array([[0.5e-9, 0.0], [1e-8, 0.0]])
        cases += [(A, B, 1e-9), (A, B, 1e-8), (A[::-1], B, 1e-9), (A, B[:0], 1e-9), (A[:0], B[:0], 1e-9)]
        got = [match(A, B, tol) for A, B, tol in cases]
        assert got == [vertex_sets_match_loop(A, B, tol) for A, B, tol in cases]
        assert len(seen) >= 10 and True in got and False in got

    @pytest.mark.parametrize("perm", [[1, 0, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2], [0, 1, 2, 3, 5, 4]])
    def test_permuted_box_rejected(self, perm):
        # the corner ids and the box-pair screen read +e_j as plane n + j
        # and -e_j as plane n + d + j
        U, T = random_spatial_instance(np.random.default_rng(3))
        cell.halfspace_intersection(U, T, *BOX3)
        with pytest.raises(ValueError, match="box normals"):
            cell.halfspace_intersection(U, T, BOX3[0][perm], BOX3[1])
        with pytest.raises(ValueError, match="box normals"):
            cell.halfspace_intersection(U, T, BOX3[0][:5], BOX3[1][:5])

    def test_offsets_must_be_positive(self):
        with pytest.raises(ValueError):
            cell.halfspace_intersection(np.array([[1.0, 0]]), np.array([-0.5]), *BOX2)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("where", ["offset", "normal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, d, where, bad):
        # a NaN offset once passed the sign test and dropped its halfspace:
        # the unit cube came back reaching the box, max x = 5
        U, T = np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d)
        BU, BT = np.vstack([np.eye(d), -np.eye(d)]), np.full(2 * d, 5.0)
        assert cell.halfspace_intersection(U, T, BU, BT).vertices.max() == 1.0
        {"offset": T, "normal": U[0]}[where][0] = bad
        with pytest.raises(ValueError, match="finite"):
            cell.halfspace_intersection(U, T, BU, BT)
        BT[0] = np.nan
        with pytest.raises(ValueError):
            cell.halfspace_intersection(np.eye(d), np.ones(d), BU, BT)


@st.composite
def parallel_pair_instances(draw):
    """A random 2-d or 3-d instance plus one halfspace parallel or nearly parallel to one of its own.

    The extra normal repeats normal k exactly, negates it, or turns it by
    an angle in [1e-6, 1e-3]; its offset is T[k] or T[k] scaled by a
    factor in [0.8, 1.25].  Returns (U, T, box).
    """
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12 if d == 2 else 8))
    U = rng.standard_normal((n, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    T = rng.uniform(0.3, 2.0, n)
    k = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["repeated", "antiparallel", "near"]))
    t = T[k] * draw(st.just(1.0) | st.floats(0.8, 1.25))
    if kind == "repeated":
        v = U[k]
    elif kind == "antiparallel":
        v = -U[k]
    else:
        w = rng.standard_normal(d)
        w -= (w @ U[k]) * U[k]
        angle = 10.0 ** draw(st.floats(-6.0, -3.0))
        v = math.cos(angle) * U[k] + math.sin(angle) * w / np.linalg.norm(w)
    box = BOX2 if d == 2 else BOX3
    return np.vstack([U, v]), np.append(T, t), box


class TestIntersectionProperties:
    @settings(settings.get_profile("deterministic"), max_examples=300)
    @given(parallel_pair_instances())
    def test_fast_path_matches_oracle_on_parallel_pairs(self, inst):
        U, T, box = inst
        fast = cell.halfspace_intersection(U, T, *box)
        slow = cell.halfspace_intersection_bruteforce(U, T, *box)
        assert cell._vertex_sets_match(fast.vertices, slow.vertices, 1e-7)


@pytest.fixture
def params50(iso):
    return process.ProcessParams(50.0, iso, 2)


class TestKCell:
    def test_contains_body_exactly(self, params50, ball):
        for rep in range(30):
            z = cell.k_cell(params50, ball, stream_key=KeyedStream(31, rep))
            slack = z.offsets - ball.support_batch(z.normals)
            assert slack.min() > 0  # sampled hyperplanes all miss the body

    def test_vertices_satisfy_all_halfspaces(self, params50, square):
        for rep in range(20):
            z = cell.k_cell(params50, square, stream_key=KeyedStream(32, rep))
            assert (z.vertices @ z.normals.T - z.offsets).max() < 1e-9

    def test_defining_constraints_tight(self, params50, ball):
        z = cell.k_cell(params50, ball, stream_key=KeyedStream(33, 0))
        for v, d in zip(z.vertices, z.defining):
            assert np.abs(z.normals[d] @ v - z.offsets[d]).max() < 1e-9

    def test_box_plane_ids_follow_compaction(self, ball):
        # a window too small to certify, so box planes define vertices
        builder = cell._CellBuilder(ball, 2)
        r = 1 / math.sqrt(2)
        BU, BT = cell._axis_box(ball, 0.1)

        def assert_defining_tight():
            A, b = np.vstack([builder.U, BU]), np.concatenate([builder.T, BT])
            assert (builder.inter.defining >= len(builder.T)).any()
            for v, d in zip(builder.inter.vertices, builder.inter.defining):
                assert np.abs(A[d] @ v - b[d]).max() < 1e-12

        builder.rebuild(np.array([[r, r], [1.0, 0.0]]), np.array([1.2, 5.0]), (BU, BT))
        assert_defining_tight()
        builder.add_incremental(np.array([[-r, r]]), np.array([1.2]))
        assert_defining_tight()
        assert len(builder.T) == 2  # the halfplane x <= 5 misses the box

    def test_vertices_strictly_inside_window(self, params50, ball):
        for rep in range(20):
            z = cell.k_cell(params50, ball, stream_key=KeyedStream(34, rep))
            assert ball.distance_batch(z.vertices).max() < z.window_radius - 1e-9

    def test_window_overflow_at_tiny_intensity(self, iso, ball):
        params = process.ProcessParams(1e-12, iso, 2)
        policy = cell.WindowPolicy(max_rounds=8)
        with pytest.raises(WindowOverflow):
            cell.k_cell(params, ball, policy, stream_key=KeyedStream(35, 0))

    @pytest.mark.parametrize("max_rounds", [1, 2, 3, 5])
    @pytest.mark.parametrize("body_name", ["ball", "ball3"])
    def test_window_overflow_reports_last_window(self, body_name, max_rounds, request):
        # the look-ahead box is larger than the last window, which the error still names
        body = request.getfixturevalue(body_name)
        params = process.ProcessParams(1e-12, dn.Isotropic(body.dim), body.dim)
        policy = cell.WindowPolicy(max_rounds=max_rounds)
        with pytest.raises(WindowOverflow) as err:
            cell.k_cell(params, body, policy, stream_key=KeyedStream(35, 1))
        assert err.value.rounds == max_rounds
        assert err.value.radius == policy.radius(body, max_rounds - 1)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_nonpositive_initial_radius_rejected(self, radius):
        # a zero or negative first window would fail only inside the first replication
        with pytest.raises(ValueError, match="initial radius"):
            cell.WindowPolicy(initial_radius=radius)

    @pytest.mark.parametrize("max_rounds", [0, math.nan, True])
    def test_max_rounds_below_one_rejected(self, max_rounds):
        with pytest.raises(ValueError, match="max_rounds"):
            cell.WindowPolicy(max_rounds=max_rounds)

    @pytest.mark.parametrize("max_rounds", [2.5, 3.0])
    def test_non_integer_max_rounds_rejected(self, max_rounds):
        # range() would refuse it only inside the first replication
        with pytest.raises(ValueError, match="max_rounds"):
            cell.WindowPolicy(max_rounds=max_rounds)

    @pytest.mark.parametrize("factor", [1.0, 0.5, math.nan])
    def test_growth_factor_at_most_one_rejected(self, factor):
        # a NaN factor would fail only inside the run, as nonpositive offsets
        with pytest.raises(ValueError, match="growth factor"):
            cell.WindowPolicy(growth_factor=factor)

    def test_certificate_stability_under_window_doubling(self, params50, ball):
        changed = 0
        for rep in range(100):
            key = KeyedStream(36, rep)
            a = cell.k_cell(params50, ball, stream_key=key)
            b = cell.k_cell(params50, ball, stream_key=key, extra_rings=1)
            if not cell._vertex_sets_match(a.vertices, b.vertices, 1e-9):
                changed += 1
        assert changed == 0

    def test_monte_carlo_regression_fixture(self, params50, ball):
        # frozen behavior: at intensity 50, cells hug the unit ball
        good = 0
        runs = 300
        for rep in range(runs):
            z = cell.k_cell(params50, ball, stream_key=KeyedStream(37, rep))
            if metrics.hausdorff_cell(ball, z) < 1.0:
                good += 1
        assert good / runs >= 0.99

    def test_debug_oracle_mode(self, ball, iso, monkeypatch):
        params = process.ProcessParams(10.0, iso, 2)
        z = cell.k_cell(params, ball, stream_key=KeyedStream(38, 0), debug_oracle=True)
        assert len(z.vertices) >= 3
        checks = []
        check = cell._CellBuilder._cross_check
        monkeypatch.setattr(
            cell._CellBuilder, "_cross_check", lambda b, *a: checks.append(check(b, *a))
        )
        params3 = process.ProcessParams(2.0, dn.Isotropic(3), 3)
        z3 = cell.k_cell(params3, geom.Ball([0, 0, 0], 1.0), stream_key=KeyedStream(38, 1), debug_oracle=True)
        assert len(z3.vertices) >= 4 and checks


class TestCellsAlongIntensity:
    @pytest.mark.parametrize("grid", [[math.nan], [math.nan, 8.0], [4.0, math.nan], [0.0, 4.0]])
    def test_bad_grid_rejected(self, iso, ball, grid):
        params = process.ProcessParams(1.0, iso, 2)
        with pytest.raises(ValueError, match="gamma grid"):
            cell.cells_along_intensity(params, ball, grid, stream_key=KeyedStream(39, 1))

    def test_nesting_vertex_inclusion(self, iso, square):
        params = process.ProcessParams(1.0, iso, 2)
        cells = cell.cells_along_intensity(
            params, square, [4, 8, 16, 32], stream_key=KeyedStream(39, 0)
        )
        for za, zb in zip(cells, cells[1:]):
            assert np.all(zb.vertices @ za.normals.T <= za.offsets + 1e-9)

    def test_delta_nonincreasing(self, iso, ball):
        params = process.ProcessParams(1.0, iso, 2)
        for rep in range(30):
            cells = cell.cells_along_intensity(
                params, ball, [2, 4, 8, 16, 32, 64], stream_key=KeyedStream(40, rep)
            )
            ds = [metrics.hausdorff_cell(ball, z) for z in cells]
            assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))

    def test_sampled_counts_nondecreasing(self, iso, ball):
        params = process.ProcessParams(1.0, iso, 2)
        cells = cell.cells_along_intensity(
            params, ball, [2, 4, 8], stream_key=KeyedStream(41, 0)
        )
        counts = [z.stats.sampled for z in cells]
        assert counts == sorted(counts)

    def test_window_ring_count_matches_poisson_mean(self, iso, ball):
        # the window rings are sampled at the first grid level, so their
        # count is Poisson at that intensity; at gamma=64 the window almost
        # never grows, so the sampled count is the ring-0 count
        params = process.ProcessParams(1.0, iso, 2)
        reps = 2000
        counts = []
        for rep in range(reps):
            cells = cell.cells_along_intensity(
                params, ball, [64, 256], stream_key=KeyedStream(42, rep)
            )
            counts.append(cells[0].stats.sampled)
        mean = float(np.mean(counts))
        expected = 2 * 64 * 1.0  # annulus mass at gamma=64, width = diameter/2 = 1
        assert abs(mean - expected) < 4 * math.sqrt(expected / reps) + 0.2

    @pytest.mark.parametrize("body_name", ["ball", "square"])
    def test_hyperplanes_beyond_reach_never_cut(self, body_name, iso, request, monkeypatch):
        # band j is sampled only up to a reach; hyperplanes drawn
        # independently with gaps between that reach and the window radius
        # cut neither the cell before the band nor a later one
        body = request.getfixturevalue(body_name)
        sample = process.sample_annulus
        reaches = []

        def record(params, body, r_in, r_out, rng):
            reaches.append(r_out)
            return sample(params, body, r_in, r_out, rng)

        monkeypatch.setattr(cell, "_sample_annulus_arrays", record)
        params = process.ProcessParams(1.0, iso, 2)
        grid = [16, 64, 256, 1024]
        tested = 0
        for rep in range(40):
            reaches.clear()
            cells = cell.cells_along_intensity(params, body, grid, stream_key=KeyedStream(48, rep))
            rho = cells[0].window_radius
            rng = np.random.default_rng(rep)
            for j, reach in enumerate(reaches[-(len(grid) - 1) :], start=1):
                assert reach > body.distance_batch(cells[j - 1].vertices).max()
                U, T = sample(params.with_gamma(grid[-1]), body, reach, rho, rng)
                tested += len(T)
                for z in cells[j - 1 :]:
                    assert not _kernels.cut_mask(U, T, z.vertices).any()
        assert tested > 100_000

    @pytest.mark.parametrize("body_name", ["ball", "square", "ball3"])
    def test_extra_ring_leaves_grid_unchanged(self, body_name, request):
        body = request.getfixturevalue(body_name)
        params = process.ProcessParams(1.0, dn.Isotropic(body.dim), body.dim)
        if body.dim == 2:
            grid, reps, rows = [8, 32, 128, 512], 15, lambda V: V
        else:
            # an extra ring can start the 3-d enumerator again in a larger box,
            # which lists the same vertices in another order
            grid, reps, rows = [8, 16, 32], 6, sorted_rows
        for rep in range(reps):
            key = KeyedStream(49, rep)
            a = cell.cells_along_intensity(params, body, grid, stream_key=key)
            b = cell.cells_along_intensity(params, body, grid, stream_key=key, extra_rings=1)
            for za, zb in zip(a, b):
                assert rows(za.vertices).tobytes() == rows(zb.vertices).tobytes()
                assert za.offsets.tobytes() == zb.offsets.tobytes()
                assert zb.window_radius == 2 * za.window_radius
                assert zb.stats.rounds == za.stats.rounds + 1

    def test_sampled_count_matches_poisson_mean_at_last_level(self, iso, ball):
        # phase-1 rings, band samples and the counts beyond each band's
        # reach add up to the process in the window born by gamma_max:
        # Poisson with mass 2 * gamma_max * rho
        params = process.ProcessParams(1.0, iso, 2)
        grid = [32, 128, 512]
        total = 0
        mass = 0.0
        for rep in range(300):
            z = cell.cells_along_intensity(params, ball, grid, stream_key=KeyedStream(50, rep))[-1]
            total += z.stats.sampled
            mass += 2 * grid[-1] * z.window_radius
        assert abs(total - mass) < 4 * math.sqrt(mass)

    def test_rerun_is_byte_identical(self, iso, square):
        params = process.ProcessParams(1.0, iso, 2)
        for rep in range(5):
            key = KeyedStream(51, rep)
            a = cell.cells_along_intensity(params, square, [8, 32, 128, 512], stream_key=key)
            b = cell.cells_along_intensity(params, square, [8, 32, 128, 512], stream_key=key)
            assert [z.dumps() for z in a] == [z.dumps() for z in b]

    def test_3d_nesting_containment_and_rerun(self):
        ball3 = geom.Ball([0, 0, 0], 1.0)
        params = process.ProcessParams(1.0, dn.Isotropic(3), 3)
        for rep in range(3):
            key = KeyedStream(45, rep)
            cells = cell.cells_along_intensity(params, ball3, [8, 16, 32], stream_key=key, debug_oracle=True)
            for za, zb in zip(cells, cells[1:]):
                assert np.all(zb.vertices @ za.normals.T <= za.offsets + 1e-9)
            for z in cells:
                assert len(z.vertices) >= 4
                assert np.all(z.offsets > ball3.support_batch(z.normals))
            again = cell.cells_along_intensity(params, ball3, [8, 16, 32], stream_key=key)
            assert [z.dumps() for z in again] == [z.dumps() for z in cells]

    def test_3d_grid_cells_equal_full_build(self, cube):
        # each band is inserted into the cell before it; every cell along the
        # grid must still equal one build of its own constraints from the box
        # corners, bit for bit once the rows are sorted
        params = process.ProcessParams(1.0, dn.Isotropic(3), 3)
        grid = [2.0**k for k in range(3, 11)]
        for body in (geom.Ball([0, 0, 0], 1.0), cube):
            cells = cell.cells_along_intensity(params, body, grid, stream_key=KeyedStream(47, 0))
            assert len(cells[-1].offsets) > 2 * len(cells[0].offsets)
            for z in cells:
                full = cell.halfspace_intersection(z.normals, z.offsets, *cell._axis_box(body, z.window_radius))
                assert sorted_rows(z.vertices).tobytes() == sorted_rows(full.vertices).tobytes()

    @pytest.mark.parametrize("initial_radius", [None, 0.02], ids=["default", "small_window"])
    def test_cells_equal_ring_by_ring_builds(self, initial_radius, ball, square, ball3, cube, monkeypatch):
        # rings go into a cell built in the box of a later window; every cell
        # must equal building each ring from scratch in its own window's box
        rebuilds = []
        rebuild = cell._CellBuilder.rebuild
        monkeypatch.setattr(cell._CellBuilder, "rebuild", lambda b, *a: rebuilds.append(rebuild(b, *a)))
        policy = cell.WindowPolicy(initial_radius=initial_radius)
        cases = [(ball, [8, 32, 128]), (square, [8, 32, 128]), (ball3, [8, 16, 32]), (cube, [8, 16, 32])]
        runs = 0
        for body, grid in cases:
            params = process.ProcessParams(1.0, dn.Isotropic(body.dim), body.dim)
            for rep in range(4):
                key = KeyedStream(52, rep)
                cells = cell.cells_along_intensity(params, body, grid, policy, key)
                runs += 1
                for z, ref in zip(cells, cells_ring_by_ring(params, body, grid, policy, key), strict=True):
                    assert z.stats.rounds == ref["rounds"]
                    assert z.stats.sampled == ref["sampled"]
                    assert z.window_radius == ref["window_radius"]
                    assert z.offsets.tobytes() == ref["offsets"].tobytes()
                    assert sorted_rows(z.vertices).tobytes() == sorted_rows(ref["vertices"]).tobytes()
        if initial_radius is not None:  # 6-8 rounds: rings past the first box start again
            assert len(rebuilds) - runs >= 2

    def test_3d_cells_equal_by_plane_enumerator(self, monkeypatch):
        # a 3-d ball at high intensity: listing each insertion's subsets by
        # cut vertex gives the cells of the listing by active plane, byte for byte
        params = process.ProcessParams(1.0, dn.Isotropic(3), 3)
        ball3 = geom.Ball([0, 0, 0], 1.0)
        grid = [2.0**k for k in range(6, 12)]
        keys = [KeyedStream(42, rep) for rep in range(3)]
        got = [cell.cells_along_intensity(params, ball3, grid, stream_key=key) for key in keys]
        monkeypatch.setattr(cell, "_intersect_incremental", incremental_by_plane)
        want = [cell.cells_along_intensity(params, ball3, grid, stream_key=key) for key in keys]
        assert len(got[0][-1].offsets) > 150
        for cells, ref in zip(got, want):
            for z, w in zip(cells, ref):
                assert z.vertices.tobytes() == w.vertices.tobytes()
                assert np.array_equal(z.defining, w.defining)
                assert z.offsets.tobytes() == w.offsets.tobytes()
                assert z.normals.tobytes() == w.normals.tobytes()
                assert z.stats == w.stats

    def test_atomic_directions_respected_end_to_end(self, facet_atoms, square):
        params = process.ProcessParams(1.0, facet_atoms, 2)
        cells = cell.cells_along_intensity(
            params, square, [64, 256], stream_key=KeyedStream(43, 0)
        )
        for z in cells:
            best = np.abs(z.normals @ facet_atoms.atoms.T).max(axis=1)
            assert np.all(best > 1 - 1e-12)

    @pytest.mark.parametrize("extra_rings", [0, 1])
    @pytest.mark.parametrize("case", ["ball", "square_atomic", "ball3"])
    def test_recorded_hausdorff_equals_metric(self, case, extra_rings, ball, square, ball3, iso, facet_atoms):
        body, law, grid, reps = {
            "ball": (ball, iso, [8, 32, 128, 512], 6),
            "square_atomic": (square, facet_atoms, [8, 32, 128, 512], 6),
            "ball3": (ball3, dn.Isotropic(3), [8, 16, 32], 2),
        }[case]
        params = process.ProcessParams(1.0, law, body.dim)
        for rep in range(reps):
            key = KeyedStream(53, rep)
            for z in cell.cells_along_intensity(params, body, grid, stream_key=key, extra_rings=extra_rings):
                want = metrics.hausdorff_cell(body, z).hex()
                assert z.stats.hausdorff.hex() == want
                assert cell.CellPolytope.from_json(json.loads(z.dumps())).stats.hausdorff.hex() == want


def bundled_planar_case(name):
    """Body, law, grid, seed and window policy of a bundled planar config, as its experiment builds cells."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    body = geom.body_from_json(doc["body"])
    if "distribution" in doc:
        return body, dn.distribution_from_json(doc["distribution"]), doc["n_grid"], doc["seed"], None
    cfg = ex.CounterexampleConfig(body, doc["beta"], doc["n_grid"], 1, doc["seed"])
    return body, ex._counterexample_distribution(cfg)[0], doc["n_grid"], doc["seed"], cfg.policy


class TestRebuildScreen:
    """A planar rebuild of many lines intersects its nearest lines first; the cells must not change."""

    @staticmethod
    def record_intersections(monkeypatch):
        seen = []
        inner = cell.halfspace_intersection

        def record(U, T, BU, BT, start=None):
            seen.append(inner(U, T, BU, BT, start))
            return seen[-1]

        monkeypatch.setattr(cell, "halfspace_intersection", record)
        return seen

    @staticmethod
    def rebuilt(U, T, box):
        builder = cell._CellBuilder(geom.Ball([0, 0], 0.1), 2)
        builder.rebuild(U, T, box)
        return cell._finalize(builder, 1.0, len(T), 1).dumps()

    def assert_screen_exact(self, monkeypatch, U, T, box=BOX2):
        """The rebuilt cell with and without the screen; returns the screened run's intersections."""
        seen = self.record_intersections(monkeypatch)
        got = self.rebuilt(U, T, box)
        assert len(seen) == 1 + (len(T) > 2 * cell.SCREEN_NEAR)
        near = seen[:-1]
        monkeypatch.setattr(cell, "SCREEN_NEAR", 10**9)
        assert self.rebuilt(U, T, box) == got
        return near

    @pytest.mark.parametrize(
        "name, reps",
        [("rate_ball_isotropic", range(20)), ("rate_square_atomic", range(20)),
         ("rate_square_isotropic", range(20)), ("counterexample_ball", [74, 129, 237, 319])],
    )
    def test_bundled_cells_equal_unscreened(self, name, reps, monkeypatch):
        body, law, grid, seed, policy = bundled_planar_case(name)
        params = process.ProcessParams(1.0, law, 2)
        rebuilds = []
        rebuild = cell._CellBuilder.rebuild

        def record(builder, U, T, box):
            rebuilds.append(len(T))
            rebuild(builder, U, T, box)

        monkeypatch.setattr(cell._CellBuilder, "rebuild", record)

        def dumps():
            keys = [KeyedStream(seed, rep) for rep in reps]
            return [[z.dumps() for z in cell.cells_along_intensity(params, body, grid, policy, key)] for key in keys]

        got = dumps()
        assert sum(n > 2 * cell.SCREEN_NEAR for n in rebuilds) >= len(reps)
        monkeypatch.setattr(cell, "SCREEN_NEAR", 10**9)
        assert dumps() == got

    def test_ties_at_the_kth_offset(self, rng, monkeypatch):
        k = cell.SCREEN_NEAR
        th = rng.uniform(0, 2 * math.pi, 100)
        U = np.column_stack([np.cos(th), np.sin(th)])
        T = np.sort(rng.uniform(0.5, 2.0, 100))
        T[k - 5 : k + 6] = T[k - 1]  # 11 lines tie at the k-th smallest offset
        perm = rng.permutation(100)
        (near,) = self.assert_screen_exact(monkeypatch, U[perm], T[perm])
        assert near.n_halfspaces == k + 6

    @pytest.mark.parametrize("extra", [0, 1])
    def test_at_and_past_the_threshold(self, extra, rng, monkeypatch):
        k = cell.SCREEN_NEAR
        th = rng.uniform(0, 2 * math.pi, 2 * k + extra)
        U, T = np.column_stack([np.cos(th), np.sin(th)]), rng.uniform(0.5, 2.0, 2 * k + extra)
        near = self.assert_screen_exact(monkeypatch, U, T)
        assert [z.n_halfspaces for z in near] == [k] * extra

    def test_near_cell_with_box_vertices(self, rng, monkeypatch):
        # the nearest lines all face right, so their cell reaches the box on the left
        k = cell.SCREEN_NEAR
        th = np.concatenate([rng.uniform(-1.0, 1.0, k), rng.uniform(0, 2 * math.pi, 60)])
        U = np.column_stack([np.cos(th), np.sin(th)])
        T = np.concatenate([rng.uniform(0.5, 1.0, k), rng.uniform(1.5, 3.0, 60)])
        perm = rng.permutation(len(T))
        (near,) = self.assert_screen_exact(monkeypatch, U[perm], T[perm])
        assert (near.defining >= near.n_halfspaces).any()

    def test_debug_oracle_checks_both_intersections(self, monkeypatch):
        body, law, grid, seed, _ = bundled_planar_case("rate_ball_isotropic")
        seen = self.record_intersections(monkeypatch)
        checked = []
        check = cell._CellBuilder._cross_check

        def record(builder, inter, U, T):
            check(builder, inter, U, T)
            checked.append(inter)

        monkeypatch.setattr(cell._CellBuilder, "_cross_check", record)
        ex.run_rate(ex.RateRunConfig(body, law, grid[:3], 2, seed, debug_oracle=True))
        assert len(checked) == len(seen) and all(a is b for a, b in zip(checked, seen))
        # each rebuild past the threshold made a near intersection of SCREEN_NEAR lines
        assert any(z.n_halfspaces == cell.SCREEN_NEAR for z in seen)

    def test_screen_saves_intersection_rows(self, monkeypatch):
        # a window rebuild hands the hull some 500-750 lines of which a cell keeps about 30
        seen = self.record_intersections(monkeypatch)
        total = []
        for screen in (cell.SCREEN_NEAR, 10**9):
            monkeypatch.setattr(cell, "SCREEN_NEAR", screen)
            seen.clear()
            for name in ("rate_ball_isotropic", "rate_square_atomic"):
                body, law, grid, seed, _ = bundled_planar_case(name)
                ex.run_rate(ex.RateRunConfig(body, law, grid, 3, seed))
            total.append(sum(z.n_halfspaces for z in seen))
        # 2,623 of 6,017 rows at seed 42
        assert total[0] <= 0.6 * total[1]


class TestCellSerialization:
    def test_json_round_trip(self, params50, ball):
        z = cell.k_cell(params50, ball, stream_key=KeyedStream(44, 0))
        back = cell.CellPolytope.from_json(json.loads(z.dumps()))
        assert np.allclose(back.vertices, z.vertices)
        assert np.allclose(back.normals, z.normals)
        assert back.window_radius == z.window_radius
        assert back.stats.sampled == z.stats.sampled
