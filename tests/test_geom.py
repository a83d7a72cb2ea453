import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercell import _kernels, geom, metrics
from hypercell import direction as dn
from hypercell.errors import ContainmentViolated, UnsupportedBody

from oracles import (
    cube_distance_oracle,
    dedupe_rows_loop,
    facet_volumes_qhull,
    facets_qhull,
    outer_parallel,
    point_at_every_piece,
    polygon_perimeter_numeric,
    polygon_project_loop,
    wolfe_project_loop,
)


class TestSupport:
    def test_square_vertex_maximum(self, square):
        assert geom.support(square, [1, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_ball_constant(self, ball, rng):
        for _ in range(20):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            assert geom.support(ball, u) == pytest.approx(1.0, abs=1e-15)

    def test_ballsum_additivity(self):
        body = geom.BallSum([[-1, -1], [1, -1], [1, 1], [-1, 1]], 0.5)
        assert geom.support(body, [0, 1]) == pytest.approx(1.5, abs=1e-15)

    def test_rejects_non_unit_directions(self, square):
        with pytest.raises(ValueError):
            geom.support(square, [1, 1])

    def test_dominates_vertices_with_equality(self, square, rng):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        h = geom.support(square, u)
        dots = square.vertices @ u
        assert np.all(dots <= h + 1e-12)
        assert dots.max() == pytest.approx(h)


class TestExtensionSupport:
    def test_outside_point_wins(self, ball):
        assert geom.extension_support(ball, [2, 0], [1, 0]) == pytest.approx(2.0)

    def test_body_dominates(self, ball):
        assert geom.extension_support(ball, [2, 0], [-1, 0]) == pytest.approx(1.0)

    def test_square_offset(self, square):
        assert geom.extension_support(square, [1.1, 0], [1, 0]) == pytest.approx(1.1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_support_sublinearity(seed):
    rng = np.random.default_rng(seed)
    bodies = [
        geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]]),
        geom.Ball([0, 0], 1.0),
        geom.BallSum([[-1, 0], [1, 0]], 1.0),
    ]
    u, w = rng.standard_normal((2, 2))
    u /= np.linalg.norm(u)
    w /= np.linalg.norm(w)
    s = u + w
    ns = np.linalg.norm(s)
    if ns < 1e-9:
        return
    for body in bodies:
        lhs = body.support(s / ns) * ns
        assert lhs <= body.support(u) + body.support(w) + 1e-12


class TestDistance:
    def test_ball_pythagorean(self, ball):
        assert geom.distance(ball, [3, 4]) == pytest.approx(4.0, abs=1e-15)

    def test_square_corner(self, square):
        assert geom.distance(square, [2, 2]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_interior_zero(self, square):
        assert geom.distance(square, [0, 0]) == 0.0

    def test_cube_against_closed_form(self, cube, rng):
        X = rng.uniform(-3, 3, size=(60, 3))
        got = cube.distance_batch(X)
        want = np.array([cube_distance_oracle(x) for x in X])
        assert np.abs(got - want).max() < 1e-9

    def test_project_consistency(self, square, stadium, cube, ball3, rng):
        for body in (square, stadium, cube, ball3, geom.BallSum(cube.vertices, 0.25)):
            X = rng.uniform(-3, 3, size=(40, body.dim))
            d, P = geom.project(body, X)
            assert np.abs(d - body.distance_batch(X)).max() <= 1e-9
            assert body.distance_batch(P).max() <= 1e-9
            assert np.abs(np.linalg.norm(X - P, axis=1) - d).max() <= 1e-9

    def test_3d_faces_match_wolfe_oracle(self, cube, rng):
        # a d = 3 core is projected onto facet by facet through the planar
        # kernel; Wolfe's min-norm point loop is the reference.  Points:
        # uniform in [-3, 3]^3, on every face, and at the vertices
        bodies = [geom.Polytope(rng.standard_normal((k, 3))) for k in (4, 6, 10, 20, 40)]
        cores = ([[0.3, -0.2, 0.1]], [[-1, 0, 0.2], [1, 0.5, 0]], [[0, 0, 0], [1.5, 0, 0.3], [0.2, 1.1, -0.4]],
                 cube.vertices)
        bodies += [geom.BallSum(core, 0.3) for core in cores]
        for body in bodies:
            V = body.vertices
            faces = [ids for *_, ids in body._face_data().facets] or [np.arange(len(V))]
            on_faces = [rng.dirichlet(np.ones(len(ids))) @ V[ids] for ids in faces for _ in range(4)]
            X = np.vstack([rng.uniform(-3, 3, size=(200, 3)), on_faces, V])
            d, P = body._project_core(X)
            for x, dx, px in zip(X, d, P):
                d_ref, p_ref = wolfe_project_loop(V, x)
                assert abs(dx - d_ref) <= 1e-12
                assert np.abs(px - p_ref).max() <= 1e-12
            core = np.maximum(0.0, d - body.radius)
            assert np.array_equal(body.distance_batch(X), core)
            assert np.abs(geom.project(body, X)[0] - core).max() <= 1e-12

    def test_planar_projection_returns_its_distance(self, rng):
        # one kernel serves distance_batch and project: the distance is the
        # norm of the offset to the returned point, bit for bit (a hypot for
        # a one-point core)
        point = geom.BallSum([[0.3, -0.2]], 0.5)
        bodies = [geom.Polytope(rng.standard_normal((8, 2))), geom.BallSum([[-1, 0], [1, 0]], 1.0), point]
        for body in bodies:
            X = rng.uniform(-3, 3, size=(200, 2))
            d, p = _kernels.polygon_project(body.hull_vertices, X)
            offset = np.hypot(*(X - p).T) if body is point else np.linalg.norm(X - p, axis=1)
            assert np.array_equal(d[d > 0], offset[d > 0])
            assert np.array_equal(p[d == 0], X[d == 0])
            assert np.abs(_kernels.polygon_project(body.hull_vertices, p)[0]).max() <= 1e-12
            for x, dx, px in zip(X, d, p):
                d_loop, p_loop = polygon_project_loop(body.hull_vertices, x)
                assert abs(dx - d_loop) <= 1e-12 * (1.0 + d_loop)
                assert np.abs(px - p_loop).max() <= 1e-12 * (1.0 + np.abs(p_loop).max())
            core = np.maximum(0.0, d - body.radius)
            assert np.array_equal(body.distance_batch(X), core)
            assert np.array_equal(geom.project(body, X)[0], core)


class TestParallelBoundarySample:
    """Points on the boundary of the parallel body, by `geom.retract`."""

    def test_sphere_radius_exact(self, ball, rng):
        U = rng.standard_normal((100, 2))
        X = rng.uniform(1.01, 4.0, (100, 1)) * U / np.linalg.norm(U, axis=1, keepdims=True)
        Y = geom.retract(ball, X, 0.5)
        assert np.abs(np.linalg.norm(Y, axis=1) - 1.5).max() <= 1e-12

    def test_distance_equals_offset(self, square, stadium, cube, rng):
        for body in (square, stadium, cube, geom.BallSum(cube.vertices, 0.25)):
            X = rng.uniform(-4, 4, size=(600, body.dim))
            Y = geom.retract(body, X[body.distance_batch(X) > 0], 0.1)
            assert len(Y) > 300 and np.abs(body.distance_batch(Y) - 0.1).max() < 1e-9

    def test_rows_retract_alone_as_in_the_batch(self):
        # oblique facets: a BLAS product in the projection would round some
        # rows differently alone than in a batch of thousands
        rng = np.random.default_rng(8123)
        tetra = geom.Polytope([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        for body in (geom.Polytope(rng.standard_normal((20, 3))), tetra):
            X = rng.uniform(-3.0, 3.0, (3000, 3))
            X = X[body.distance_batch(X) > 0]
            Y = geom.retract(body, X, 0.3)
            alone = np.vstack([geom.retract(body, X[i : i + 1], 0.3) for i in range(len(X))])
            assert len(X) > 2000 and Y.tobytes() == alone.tobytes()

    def test_facet_pieces_are_reached(self, square, rng):
        # flat parts of the offset boundary must carry positive mass
        U = rng.standard_normal((400, 2))
        Y = geom.retract(square, 2.0 * (square.circumradius + 0.1) * U / np.linalg.norm(U, axis=1, keepdims=True), 0.1)
        on_right_facet = (np.abs(Y[:, 0] - 1.1) < 1e-12) & (np.abs(Y[:, 1]) < 1.0 - 1e-9)
        assert on_right_facet.sum() > 10

    def test_rejects_nonpositive_offset(self, square, rng):
        with pytest.raises(ValueError, match="eps"):
            geom.retract(square, [[2.0, 0.0]], 0.0)
        # a point of the body has no ray to the offset boundary
        with pytest.raises(ValueError, match="inside"):
            geom.retract(square, [[2.0, 0.0], [1.0, 0.5]], 0.1)


class TestSurfaceMeasure:
    def test_square_edge_atoms(self, square):
        sm = geom.surface_measure(square)
        assert sm.sphere_density == 0.0
        assert sm.total_mass == pytest.approx(8.0, abs=1e-9)
        atoms = {tuple(np.round(u, 9)): w for u, w in sm.atoms}
        for key in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
            assert atoms[key] == pytest.approx(2.0, abs=1e-12)

    def test_ball_density(self, ball):
        sm = geom.surface_measure(ball)
        assert sm.atoms == []
        assert sm.sphere_density == pytest.approx(1.0)
        assert sm.total_mass == pytest.approx(2 * math.pi, abs=1e-9)

    def test_stadium_decomposition_matches_numeric_arc_length(self, stadium):
        sm = geom.surface_measure(stadium)
        atoms = {tuple(np.round(u, 9)): w for u, w in sm.atoms}
        assert atoms == {(0.0, 1.0): pytest.approx(2.0), (0.0, -1.0): pytest.approx(2.0)}
        assert sm.sphere_density == pytest.approx(1.0)
        # independent oracle: measure the boundary length numerically
        numeric = polygon_perimeter_numeric(geom.BoundaryPath2D(stadium, 1e-12))
        assert sm.total_mass == pytest.approx(numeric, abs=1e-6)
        assert sm.total_mass == pytest.approx(4 + 2 * math.pi, abs=1e-9)

    def test_cube_facets(self, cube):
        sm = geom.surface_measure(cube)
        assert len(sm.atoms) == 6
        assert sm.total_mass == pytest.approx(24.0, abs=1e-9)

    def test_3d_facets_match_qhull(self, cube, monkeypatch):
        # the facets come from the package's enumerator by polar duality; qhull
        # is the oracle: equal vertex groups, normals to 1e-12, offsets to 1e-12
        # of the core's size and areas to 1e-9 relative, at any scale
        from hypercell import cell

        rng = np.random.default_rng(2024)
        tetra = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        # points inside facets and on edges are on the core but none of its vertices
        extra = np.vstack([cube.vertices, np.eye(3), -np.eye(3), [[1, 1, 0], [0, -1, 1], [-1, 0, 1], [0.3, 0.2, 1.0]]])
        sphere = [rng.standard_normal((k, 3)) for k in (20, 60, 150)]
        sphere = [P / np.linalg.norm(P, axis=1, keepdims=True) for P in sphere]
        slab = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1e-3, 1e-3)]
        thin = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1e-9, 1e-9)]
        clouds = [rng.standard_normal((k, 3)) for k in rng.integers(4, 61, size=30)]
        scaled = [c * V for c in (1e-6, 1e9) for V in (cube.vertices, clouds[0])]
        bodies = [cube.vertices, tetra, extra, slab, thin, *clouds, *sphere, *scaled]
        runs = []
        enumerate_cell = cell._intersect_incremental
        monkeypatch.setattr(cell, "_intersect_incremental", lambda *a: runs.append(a[2][0]) or enumerate_cell(*a))
        for V in bodies:
            body = geom.Polytope(V)
            runs.clear()
            facets = body.facets
            want = facets_qhull(body.vertices)
            got = {tuple(ids.tolist()): (n, h, area) for n, h, area, ids in facets}
            assert got.keys() == want.keys() and len(facets) == len(want)
            size = np.abs(body.vertices).max()
            for ids, (n, h, area) in got.items():
                n_ref, h_ref, area_ref = want[ids]
                assert np.abs(n - n_ref).max() <= 1e-12 and abs(h - h_ref) <= 1e-12 * size
                assert area == pytest.approx(area_ref, rel=1e-9)
            if V is slab or V is thin:  # the polar of a thin slab is long: its box grows
                assert len(runs) >= 3 and runs == sorted(runs)
        assert len(extra) == 18 and sorted(len(ids) for *_, ids in geom.Polytope(extra).facets) == [4] * 6

    def test_3d_facets_lost_by_the_enumerator_are_refused(self, cube, monkeypatch):
        # a core too thin for the enumerator's tolerances loses polar vertices,
        # that is facets: its facets are qhull's or refused, never a wrong set
        from hypercell import cell

        rng = np.random.default_rng(9)
        flat = rng.standard_normal((40, 3))
        for width in (1e-9, 1e-10, 1e-11, 1e-12):
            slab = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-width, width)]
            for V in (slab, flat * [1, 1, width]):
                body = geom.Polytope(V)
                try:
                    facets = body.facets
                except UnsupportedBody:
                    continue
                assert sorted(tuple(ids.tolist()) for *_, ids in facets) == sorted(facets_qhull(body.vertices))
        # one polar vertex dropped: the facet and its vertices' incidences go
        enumerate_cell = cell._intersect_incremental

        def drop_last(*args):
            inter = enumerate_cell(*args)
            return cell.Intersection(inter.vertices[:-1], inter.defining[:-1], inter.n_halfspaces)

        monkeypatch.setattr(cell, "_intersect_incremental", drop_last)
        with pytest.raises(UnsupportedBody, match="8-point core"):
            geom.Polytope(cube.vertices).facets

    def test_ballsum_3d_unsupported(self):
        body = geom.BallSum([[0, 0, 0], [1, 0, 0]], 0.5)
        with pytest.raises(UnsupportedBody):
            geom.surface_measure(body)

    def test_ballsum_atoms_equal_explicit_edges(self, stadium, rng):
        # the atoms come from _polygon_edges; a length recomputed per edge as
        # a vector norm can differ from the row norm in the last bit
        def explicit(hull):
            if len(hull) == 2:
                e = hull[1] - hull[0]
                n = np.array([e[1], -e[0]]) / np.linalg.norm(e)
                ln = float(np.linalg.norm(hull[1] - hull[0]))
                return [(n, ln), (-n, ln)]
            e = np.roll(hull, -1, axis=0) - hull
            ln = np.linalg.norm(e, axis=1)
            normals = np.column_stack([e[:, 1], -e[:, 0]]) / ln[:, None]
            return [(normals[i], float(ln[i])) for i in range(len(hull))]

        bodies = [stadium] + [
            geom.BallSum(rng.standard_normal((int(rng.integers(2, 9)), 2)) * rng.uniform(0.1, 10), rng.uniform(0.1, 2))
            for _ in range(60)
        ]
        for body in bodies:
            got = geom.surface_measure(body).atoms
            want = explicit(body.hull_vertices)
            assert len(got) == len(want)
            for (u, w), (u2, w2) in zip(got, want):
                assert np.array_equal(u, u2) and w == w2

    def test_atoms_even_for_symmetric_bodies(self, square, stadium):
        for body in (square, stadium):
            sm = geom.surface_measure(body)
            for u, w in sm.atoms:
                match = [w2 for u2, w2 in sm.atoms if np.linalg.norm(u2 + u) < 1e-9]
                assert match and match[0] == pytest.approx(w, abs=1e-12)


class TestHausdorffContaining:
    def test_double_square(self, square):
        verts = [[-2, -2], [2, -2], [2, 2], [-2, 2]]
        assert geom.hausdorff_containing(square, verts) == pytest.approx(math.sqrt(2))

    def test_ball_in_square(self, ball, square):
        cert = [(n, off) for n, off, _, _ in square.facets]
        got = geom.hausdorff_containing(ball, square.vertices, certificate=cert)
        assert got == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_boundary_vertices_zero(self, square):
        assert geom.hausdorff_containing(square, square.vertices) == 0.0

    def test_certificate_violation(self, ball):
        bad = [(np.array([1.0, 0.0]), 0.5)]  # halfplane cuts the ball
        with pytest.raises(ContainmentViolated):
            geom.hausdorff_containing(ball, [[0.5, 0]], certificate=bad)

    def test_dense_offset_boundary_recovers_eps(self, square):
        path = geom.boundary_path(square, 0.35)
        pts = path.point_at(np.linspace(0, path.total, 20000, endpoint=False))
        assert geom.hausdorff_containing(square, pts) == pytest.approx(0.35, abs=1e-7)


class TestBoundaryPath:
    def test_total_length_square(self, square):
        path = geom.boundary_path(square, 0.5)
        assert path.total == pytest.approx(8 + math.pi, abs=1e-12)

    def test_points_at_exact_offset(self, square, ball, stadium):
        for body in (square, ball, stadium):
            path = geom.boundary_path(body, 0.2)
            pts = path.point_at(np.linspace(0, path.total, 5000, endpoint=False))
            assert np.abs(body.distance_batch(pts) - 0.2).max() < 1e-9

    def test_point_at_equals_every_piece_loop(self, square, ball, stadium, rng):
        for body in (square, ball, stadium):
            path = geom.boundary_path(body, 0.3)
            ends = path.cum.tolist()  # piece boundaries, total included
            cases = [
                [ends[1]],
                ends,
                [path.total, 2.5 * path.total, -0.25 * path.total],  # s >= total wraps
                rng.uniform(0.0, 3.0 * path.total, 500),
                np.nextafter(path.cum, -np.inf),
                np.nextafter(path.cum, np.inf),
            ]
            for s in cases:
                assert np.array_equal(path.point_at(s), point_at_every_piece(path, s))


class TestParallelBodies:
    def test_family_closed(self, square, ball, stadium):
        assert isinstance(outer_parallel(square, 0.3), geom.BallSum)
        assert isinstance(outer_parallel(ball, 0.3), geom.Ball)
        assert isinstance(outer_parallel(stadium, 0.3), geom.BallSum)

    def test_support_shifts_by_rho(self, square, rng):
        W = outer_parallel(square, 0.7)
        U = rng.standard_normal((50, 2))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        assert np.allclose(W.support_batch(U), square.support_batch(U) + 0.7, atol=1e-12)

    def test_ballsum_inradius_equals_core_plus_radius(self, cube, rng):
        # a full-dimensional core adds its own inradius; a lower-dimensional
        # one (segment, point) leaves the radius alone
        # one input builds both: recentring the recentred vertices again can move their last bit
        cores = [rng.standard_normal((6, 2)) for _ in range(5)] + [cube.vertices, [[-1, -1], [1, -1], [0, 1]]]
        for core, r in zip(cores, [0.4] * 5 + [0.25, 0.3]):
            assert geom.BallSum(core, r).inradius_origin() == geom.Polytope(core).inradius_origin() + r
        for core in ([[-1, 0], [1, 0]], [[0.0, 0.0]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]):
            body = geom.BallSum(core, 0.7)
            assert body.inradius_origin() == 0.7


class TestOneBodyModel:
    """A ball is the body conv({0}) + rB: `Ball` and a point-core `BallSum` agree."""

    def test_ball_equals_point_core_ballsum(self, rng):
        laws = [dn.Isotropic(2), dn.Atomic.symmetrized([[1, 0], [0.6, 0.8]], [0.5, 0.5]),
                dn.Mixture([(0.5, dn.DensityOnSphere(lambda U: 1 + 0.5 * U[:, 0] ** 2, 1.5, 2)),
                            (0.5, dn.Isotropic(2))])]
        for r in (0.3, 1.0, 2.5):
            ball, point = geom.Ball([0, 0], r), geom.BallSum([[0.0, 0.0]], r)
            U = rng.standard_normal((200, 2))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            # the same bits in the plane, where both run on (hull_vertices, radius)
            assert np.array_equal(ball.support_batch(U), point.support_batch(U))
            s = rng.uniform(0.0, 20.0, 500)
            assert np.array_equal(geom.boundary_path(ball, 0.2).point_at(s), geom.boundary_path(point, 0.2).point_at(s))
            assert len(geom.kink_angles(ball)) == len(geom.kink_angles(point)) == 0
            for sm in (geom.surface_measure(ball), geom.surface_measure(point)):
                assert sm.atoms == [] and sm.sphere_density == r
            Y = rng.uniform(-2 * r - 1, 2 * r + 1, (300, 2))
            for law in laws:
                assert np.array_equal(metrics.ExcessEvaluator(ball, law).batch(Y),
                                      metrics.ExcessEvaluator(point, law).batch(Y))
            a, b = metrics.mu_estimate(ball, laws[0], 0.1), metrics.mu_estimate(point, laws[0], 0.1)
            assert (a.value, a.evaluations, a.refinement_gap) == (b.value, b.evaluations, b.refinement_gap)
            assert np.array_equal(a.argmin_point, b.argmin_point)

    def test_ball_distances_within_rounding_of_point_core(self, rng):
        # the ball's norm and the core kernel's hypot round differently
        for d in (2, 3):
            ball, point = geom.Ball(np.zeros(d), 1.0), geom.BallSum([[0.0] * d], 1.0)
            U = rng.standard_normal((300, d))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            outside = rng.uniform(1.5, 3.0, (300, 1)) * U
            X = np.vstack([rng.uniform(-3, 3, (300, d)), outside])
            assert np.abs(ball.distance_batch(X) - point.distance_batch(X)).max() <= 1e-15
            for got, want in zip(geom.project(ball, X), geom.project(point, X)):
                assert np.abs(got - want).max() <= 1e-15
            assert np.abs(geom.retract(ball, outside, 0.2) - geom.retract(point, outside, 0.2)).max() <= 1e-15


class TestCoresBeyond3D:
    """Polytope cores in d = 4 and 5: each facet in its own frame, one dimension down to polygons."""

    @pytest.mark.parametrize("dim", [4, 5])
    def test_faces_match_wolfe_oracle(self, dim, cube4):
        # full cores, cores of rank 1, 2 and 3 and a ball over a full core;
        # points uniform in [-3, 3]^d, on facets and at the vertices
        rng = np.random.default_rng(4100 + dim)
        cloud = rng.standard_normal((12, dim))
        bodies = [geom.Polytope(cloud), geom.BallSum(cloud, 0.3)]
        bodies += [geom.BallSum(rng.standard_normal((m, dim)), 0.4) for m in (2, 3, 4)]
        if dim == 4:
            bodies += [geom.Polytope(rng.standard_normal((30, dim))), cube4]
        for body in bodies:
            V = body.vertices
            faces = [ids for *_, ids in body.facets] or [np.arange(len(V))]
            on_faces = [rng.dirichlet(np.ones(len(ids))) @ V[ids] for ids in faces[:20]]
            X = np.vstack([rng.uniform(-3, 3, size=(60, dim)), on_faces, V])
            d, P = body._project_core(X)
            for x, dx, px in zip(X, d, P):
                d_ref, p_ref = wolfe_project_loop(V, x)
                assert abs(dx - d_ref) <= 1e-12
                assert np.abs(px - p_ref).max() <= 1e-12
            # each row alone is the same bits as in the batch
            alone = [body._project_core(X[i : i + 1]) for i in range(len(X))]
            assert np.concatenate([a for a, _ in alone]).tobytes() == d.tobytes()
            assert np.vstack([p for _, p in alone]).tobytes() == P.tobytes()
            core = np.maximum(0.0, d - body.radius)
            assert np.array_equal(body.distance_batch(X), core)
            assert np.abs(geom.project(body, X)[0] - core).max() <= 1e-12

    def test_cube4_distance_closed_form(self, cube4, rng):
        X = rng.uniform(-3, 3, size=(200, 4))
        want = np.array([cube_distance_oracle(x) for x in X])
        assert np.abs(cube4.distance_batch(X) - want).max() <= 1e-12

    def test_regular_facets(self, cube4):
        facets = cube4.facets
        assert len(facets) == 8 and all(len(ids) == 8 for *_, ids in facets)
        normals = sorted(map(tuple, np.round([n for n, *_ in facets], 12)))
        assert normals == sorted(map(tuple, np.vstack([np.eye(4), -np.eye(4)])))
        for _, h, vol, _ in facets:
            assert h == pytest.approx(1.0, abs=1e-12) and vol == pytest.approx(8.0, rel=1e-12)
        assert geom.surface_measure(cube4).total_mass == pytest.approx(64.0, rel=1e-12)
        simplex = geom.Polytope(np.vstack([np.zeros(4), np.eye(4)]))
        assert sorted(len(ids) for *_, ids in simplex.facets) == [4] * 5
        cross = geom.Polytope(np.vstack([np.eye(4), -np.eye(4)]))
        assert sorted(len(ids) for *_, ids in cross.facets) == [4] * 16
        # each facet of the 5-cube is a 4-cube in a rotated frame, whose polar
        # has vertices on 8 planes: points solved on its edges are dropped
        cube5 = geom.Polytope(list(itertools.product((-1, 1), repeat=5)))
        assert len(cube5.facets) == 10 and all(vol == pytest.approx(16.0, rel=1e-12) for _, _, vol, _ in cube5.facets)

    def test_5_cube_facets_solve_only_stacks(self, monkeypatch):
        # the polars of its facets, 4-cubes, have vertices on 8 planes, so
        # most insertion stacks hold exactly singular systems; they are
        # masked out of one stacked solve, never solved one at a time
        solve = np.linalg.solve
        ndims = []
        monkeypatch.setattr(np.linalg, "solve", lambda M, r: ndims.append(np.ndim(M)) or solve(M, r))
        cube5 = geom.Polytope(list(itertools.product((-1, 1), repeat=5)))
        assert len(cube5.facets) == 10
        assert ndims and ndims.count(2) == 0

    def test_face_normals_are_facet_normals(self, cube, cube4, rng):
        # a full core projects along each facet's own outward normal
        tetra = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        cores = [cube.vertices, tetra, rng.standard_normal((30, 3)), cube4.vertices, rng.standard_normal((15, 4))]
        cores += [np.vstack([np.eye(5), -np.eye(5)]), rng.standard_normal((12, 5))]
        for V in cores:
            faces = geom.Polytope(V)._face_data()
            assert faces.normals.tobytes() == np.array([n for n, *_ in faces.facets]).tobytes()
            assert (faces.offsets > 0).all()

    def test_4d_facets_match_qhull(self, cube4):
        # vertex groups equal and volumes to 1e-9 relative.  Points inside
        # 2-faces and edges are no vertices: the midpoint of an edge of the
        # cross-polytope lies on four facets, whose normals have rank 3
        rng = np.random.default_rng(4004)
        extra = np.vstack([cube4.vertices, [[1, 1, 0, 0], [1, 1, 1, 0], [-1, 0, 1, 0.5], [0, 0, 0, 1]]])
        cross = np.vstack([np.eye(4), -np.eye(4), [[0.5, 0.5, 0, 0], [0, -0.5, 0, 0.5]]])
        clouds = [rng.standard_normal((k, 4)) for k in (6, 9, 15, 25)]
        for V in (extra, cross, *clouds):
            body = geom.Polytope(V)
            want = facet_volumes_qhull(body.vertices)
            got = {tuple(ids.tolist()): vol for *_, vol, ids in body.facets}
            assert got.keys() == want.keys() and len(body.facets) == len(want)
            for ids, vol in got.items():
                assert vol == pytest.approx(want[ids], rel=1e-9)
        assert sorted(len(ids) for *_, ids in geom.Polytope(extra).facets) == [8] * 8
        assert sorted(len(ids) for *_, ids in geom.Polytope(cross).facets) == [4] * 16

    def test_surface_measure_beyond_3d(self, cube4):
        point = geom.surface_measure(geom.BallSum([[0.2, 0.1, 0.0, -0.3]], 0.5))
        assert point.atoms == [] and point.sphere_density == 0.5**3
        with pytest.raises(UnsupportedBody):
            geom.surface_measure(geom.BallSum([[0, 0, 0, 0], [1, 0, 0, 0]], 0.5))
        with pytest.raises(UnsupportedBody):
            geom.surface_measure(geom.BallSum(cube4.vertices, 0.5))

    def test_bodies_beyond_3d(self, cube4):
        assert geom.Ball(np.zeros(4), 1.0).dim == 4
        assert cube4.inradius_origin() == pytest.approx(1.0, abs=1e-12)
        assert geom.BallSum(cube4.vertices, 0.5).inradius_origin() == pytest.approx(1.5, abs=1e-12)
        assert geom.BallSum([[0, 0, 0, 0], [1, 0, 0, 0]], 0.5).inradius_origin() == 0.5
        with pytest.raises(ValueError, match="span"):
            geom.Polytope(np.eye(4))  # a tetrahedron in a hyperplane
        back = geom.body_from_json(geom.body_to_json(cube4))
        assert np.array_equal(back.vertices, cube4.vertices)


class TestSerialization:
    def test_round_trip(self, square, ball, stadium):
        for body in (square, ball, stadium):
            back = geom.body_from_json(geom.body_to_json(body))
            assert type(back) is type(body)
            U = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
            assert np.allclose(back.support_batch(U), body.support_batch(U))

    def test_normalization_recentres(self):
        body = geom.Polytope([[9, 9], [11, 9], [11, 11], [9, 11]])
        assert np.allclose(body.vertices.mean(axis=0), 0.0, atol=1e-12)
        ball = geom.Ball([5, -3], 2.0)
        assert np.allclose(ball.center, 0.0)

    def test_degenerate_polytope_rejected(self):
        with pytest.raises(ValueError):
            geom.Polytope([[0, 0], [1, 1], [2, 2]])

    def test_cores_below_2d_refused(self):
        for make in (geom.Polytope, lambda V: geom.BallSum(V, 0.5)):
            for V in ([[0.0]], [[0.0], [1.0]], []):
                with pytest.raises(ValueError, match="dimension >= 2"):
                    make(V)


class TestDedupeRows:
    def test_equals_the_keep_first_loop(self):
        # exact copies, near copies (1e-13 apart) and chains of rows each within
        # tol of the last but not of the first kept one
        rng = np.random.default_rng(77)
        chain = np.array([[k * 0.9e-12, 0.0] for k in range(6)])
        cases = [chain, chain[::-1], np.zeros((50, 3)), np.vstack([chain, chain + 1e-13])]
        for trial in range(120):
            d, n = int(rng.integers(2, 4)), int(rng.integers(1, 30))
            base = rng.integers(-2, 3, size=(n, d)).astype(float) if trial % 2 else rng.standard_normal((n, d))
            picks = base[rng.integers(0, n, size=(3, n))]
            step = rng.choice([0.0, 1e-13, -1e-13, 6e-13, 9e-13, 1.1e-12], size=picks.shape)
            rows = np.vstack([base, *(picks + step.cumsum(axis=0))])
            cases.append(rows[rng.permutation(len(rows))])
        for rows in cases:
            assert np.array_equal(geom._dedupe_rows(rows), dedupe_rows_loop(rows))
        assert len(geom._dedupe_rows(chain)) == 3

    def test_large_coordinates(self):
        # next to a coordinate near 5e4, one ulp of the projection the merge
        # sorts by is 7.3e-12: rows 4e-13 and 1e-13 apart in a small coordinate
        # project one ulp apart, beyond a window of twice the tolerance, so
        # the window widens with max|x|
        pairs = [
            ([59775.471973463085, 0.4402028504307356], [59775.471973463085, 0.44020285043083557]),
            (
                [0.3418773565162758, 0.8983881789114205, -48094.601824346515],
                [0.3418773565158758, 0.8983881789114205, -48094.601824346515],
            ),
        ]
        for v, w in pairs:
            assert np.linalg.norm(np.subtract(w, v)) <= 1e-12
            assert geom._dedupe_rows(np.array([v, w])).tolist() == [v]

    def test_large_inputs_are_quick(self):
        # the loop compares each row with every kept row: 8.8 s on 2,000 planar points
        rng = np.random.default_rng(5)
        rows = [rng.standard_normal((2000, 2)), rng.standard_normal((300, 3)), np.zeros((2000, 3))]
        start = time.perf_counter()
        for arr in rows:
            geom._dedupe_rows(arr)
        assert time.perf_counter() - start < 1.0


class TestCoreDiameter:
    def test_blocks_equal_the_one_piece_tensor(self):
        rng = np.random.default_rng(23)
        for d in (2, 3):
            body = geom.Polytope(rng.standard_normal((600, d)))
            V = body.vertices
            assert body.diameter == float(np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).sum(-1).max()))

    def test_memory_stays_below_the_pair_tensor(self):
        # the (n, n, d) difference tensor of 2,000 planar points alone takes 61 MiB
        pts = np.random.default_rng(3).standard_normal((2000, 2))
        tracemalloc.start()
        try:
            geom.Polytope(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
