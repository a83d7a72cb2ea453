import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypercell import cell, direction as dn, experiment, geom, metrics, process
from hypercell.errors import ConfigError, DegenerateX, InvalidEpsilon, UnsupportedBody
from hypercell.process import ProcessParams

from oracles import (
    ball_excess_oracle,
    dense_boundary_minimum,
    dense_circle_excess,
    mu_planar_sequential,
    compass_search_sequential,
    separated_minima_loop,
    support_arc_bisect,
)


def _rotated(V, th):
    c, s = math.cos(th), math.sin(th)
    return np.asarray(V, dtype=np.float64) @ np.array([[c, s], [-s, c]])


def _arc_bodies():
    rng = np.random.default_rng(7301)
    bodies = [
        ("ball", geom.Ball([0, 0], 1.0)),
        ("stadium", geom.BallSum([[-1, 0], [1, 0]], 1.0)),
        ("square", geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])),
        ("triangle-core", geom.BallSum([[0, 0], [1.5, 0], [0.2, 1.1]], 0.3)),
    ]
    for k in range(4):
        th = rng.uniform(0, 2 * math.pi)
        bodies.append((f"random-polygon-{k}", geom.Polytope(_rotated(rng.normal(size=(9, 2)), th))))
        core = _rotated(rng.normal(size=(5, 2)), rng.uniform(0, 2 * math.pi))
        bodies.append((f"random-core-{k}", geom.BallSum(core, rng.uniform(0.05, 0.8))))
    th = rng.uniform(0, 2 * math.pi)
    bodies.append(("rotated-stadium", geom.BallSum(_rotated([[-1, 0], [1, 0]], th), 1.0)))
    bodies.append(("rotated-square", geom.Polytope(_rotated([[-1, -1], [1, -1], [1, 1], [-1, 1]], th))))
    return bodies


ARC_BODIES = _arc_bodies()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MU_CONFIGS = ("mu_square_atomic", "mu_stadium_isotropic", "mu_stadium_adapted")


def _bundled(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _counterexample_law():
    doc = _bundled("counterexample_ball")
    cfg = experiment.CounterexampleConfig(
        geom.body_from_json(doc["body"]), doc["beta"], doc["n_grid"], doc["reps"], doc["seed"]
    )
    return experiment._counterexample_distribution(cfg)[0]


def _offset_points(body, rng, size, reach=2.0):
    paths = [geom.boundary_path(body, e) for e in rng.uniform(1e-3, reach, size)]
    return np.vstack([path.point_at(rng.uniform(0.0, path.total)) for path in paths])


def _batched(f):
    """A function of one arclength as a function of rows of one arclength each."""
    return lambda S: np.array([f(float(x[0])) for x in S])


def _on_circle(period):
    return lambda S: np.asarray(S) % period


def _assert_arcs_match(body, Y, tol=1e-12):
    ev = metrics.ExcessEvaluator(body, dn.Isotropic(2))
    rows, a, b = ev._support_arcs(np.asarray(Y, dtype=np.float64))
    assert list(rows) == list(range(len(Y)))
    for y, lo, hi in zip(Y, a, b):
        ref = support_arc_bisect(body, y)
        assert ref is not None
        for got, want in zip((lo, hi), ref):
            diff = (got - want + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) <= tol, (y, got, want)


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
        path = geom.boundary_path(stadium, 0.4)
        Y = path.point_at(rng.uniform(0.0, path.total, 40))
        batch = ev.batch(Y)
        precise = np.array([ev.precise(y) for y in Y])
        assert np.abs(batch - precise).max() < 1e-3 * precise.max()


class TestBatchIndependence:
    """A row's excess is the same bits in any batch, alone, and through `precise`."""

    LAWS = {
        "isotropic": lambda: dn.Isotropic(2),
        # oblique atoms and uneven weights: products and sums that round
        "atomic": lambda: dn.Atomic.symmetrized(
            [[math.cos(t), math.sin(t)] for t in (0.3, 1.1, 2.0)], [0.2, 0.5, 0.3]
        ),
        "stadium-adapted": lambda: dn.distribution_from_json(_bundled("mu_stadium_adapted")["distribution"]),
        "cap-starved": _counterexample_law,
        "density": lambda: dn.DensityOnSphere(
            lambda U: 1.0 + 0.5 * (U[:, 0] ** 2 - U[:, 1] ** 2) + 0.3 * U[:, 0] * U[:, 1], 1.6, 2
        ),
    }
    # the three fixtures' shapes plus the first two seeded random polygons and BallSums
    BODIES = [(n, b) for n, b in ARC_BODIES if n in ("ball", "square", "stadium") or n.endswith(("-0", "-1"))]

    @staticmethod
    def _assert_rows_independent(ev, Y, rows):
        batch = ev.batch(Y)
        alone = np.array([ev.batch(Y[i : i + 1])[0] for i in rows])
        precise = np.array([ev.precise(Y[i]) for i in rows])
        assert batch[rows].tobytes() == alone.tobytes() == precise.tobytes()

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_small_batches(self, law):
        dist = self.LAWS[law]()
        rng = np.random.default_rng(6151)
        for _, body in self.BODIES:
            ev = metrics.ExcessEvaluator(body, dist)
            for size in (1, 2, 7, 10):
                self._assert_rows_independent(ev, _offset_points(body, rng, size), np.arange(size))

    def test_cap_starved_batch_spans_panel_blocks(self, ball, monkeypatch):
        blocks = []
        row_blocks = metrics._row_blocks

        def counted(owner):
            parts = list(row_blocks(owner))
            blocks.extend(parts)
            return parts

        monkeypatch.setattr(metrics, "_row_blocks", counted)
        ev = metrics.ExcessEvaluator(ball, _counterexample_law())
        Y = _offset_points(ball, np.random.default_rng(6152), 1600, reach=0.5)
        ev.batch(Y)
        assert len(blocks) >= 3
        # every eighth row: a lone row of this law costs milliseconds
        self._assert_rows_independent(ev, Y, np.arange(0, len(Y), 8))


    @pytest.mark.parametrize("law", ["cap-starved", "isotropic", "stadium-adapted"])
    def test_panel_block_size_leaves_every_bit(self, law, ball, stadium, monkeypatch):
        # blocks end only between rows, so no row's panels are summed in two pieces
        body = ball if law == "cap-starved" else stadium
        ev = metrics.ExcessEvaluator(body, self.LAWS[law]())
        Y = _offset_points(body, np.random.default_rng(6153), 400, reach=0.5)
        out = []
        for block in (4096, 512, 7):
            monkeypatch.setattr(metrics, "_PANEL_BLOCK", block)
            out.append(ev.batch(Y).tobytes())
        assert out[0] == out[1] == out[2]


class TestSupportArcs:
    @pytest.mark.parametrize("body", [b for _, b in ARC_BODIES], ids=[n for n, _ in ARC_BODIES])
    def test_closed_form_matches_bisection(self, body):
        rng = np.random.default_rng(4471)
        Y = []
        while len(Y) < 60:
            y = rng.uniform(-4.0, 4.0, size=2)
            if geom.distance(body, y) > 0.02:
                Y.append(y)
        _assert_arcs_match(body, Y)

    def test_square_normal_cone_boundary(self, square):
        # points on the edges of the normal cone at vertex (1, 1): one arc end is a kink
        Y = [[1.0 + t, 1.0] for t in (0.01, 0.3, 2.0)] + [[1.0, 1.0 + t] for t in (0.01, 0.3, 2.0)]
        _assert_arcs_match(square, Y)
        for y in Y:
            want = dense_circle_excess(square, None, y, n=1 << 18)
            assert metrics.excess(square, dn.Isotropic(2), y) == pytest.approx(want, rel=1e-6)

    def test_one_vertex_hull_is_a_ball(self):
        body = geom.BallSum([[0.2, -0.1]], 0.7)
        assert len(body.hull_vertices) == 1
        Y = [[1.3, 0.4], [-0.1, -2.0], [0.0, 0.75]]
        _assert_arcs_match(body, Y)
        for y in Y:
            want = ball_excess_oracle(0.7, float(np.linalg.norm(y)))
            assert metrics.excess(body, dn.Isotropic(2), y) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("offset", [1e-15, -1e-15], ids=["outside", "inside"])
    def test_one_ulp_off_the_boundary_without_nan(self, ball, square, stadium, iso, offset):
        t = np.linspace(0.0, 2 * math.pi, 13)
        s = 1.0 + offset
        cases = [
            (ball, np.column_stack([s * np.cos(t), s * np.sin(t)])),
            (square, np.array([[s, 0.3], [-0.7, -s], [s, s]])),
            (stadium, np.vstack([[[0.5, s], [-0.2, -s]], np.column_stack([1.0 + s * np.cos(t), s * np.sin(t)])])),
        ]
        for body, Y in cases:
            assert (body.distance_batch(Y) <= 1e-14).all()
            ev = metrics.ExcessEvaluator(body, iso)
            with np.errstate(invalid="raise", divide="raise"):
                vals = ev.batch(Y)
            if offset < 0:
                assert (vals == 0.0).all()
            else:
                # the excess is at most the offset over pi: zero at this scale
                assert (vals >= 0.0).all() and vals.max() <= 1e-15


_STEP64 = 2 * math.pi / 64


class TestDensityLawExcess:
    LAWS = {
        "density": dn.DensityOnSphere(
            lambda U: 1.0 + 0.5 * (U[:, 0] ** 2 - U[:, 1] ** 2) + 0.3 * U[:, 0] * U[:, 1], 1.6, 2
        ),
        # every density break is a multiple of 2 pi / 64, so the dense grid's
        # cells never straddle a jump and the midpoint rule stays second order
        "cap-starved": dn.CapStarved(
            [math.cos(_STEP64 * 3), math.sin(_STEP64 * 3)], [_STEP64 * 5, _STEP64 * 2], [0.1, 0.02], 0.8
        ),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_matches_dense_circle_quadrature(self, square, stadium, law):
        dist = self.LAWS[law]
        Y = [[1.4, 0.35], [1.2, 1.3], [-0.4, -1.25], [2.6, 0.9]]
        for body in (square, stadium):
            for y in Y:
                if geom.distance(body, y) <= 0.0:
                    continue
                want = dense_circle_excess(body, dist.density, y, n=1 << 19)
                assert metrics.excess(body, dist, y) == pytest.approx(want, rel=1e-6)


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
        for eps in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(InvalidEpsilon, match="eps must be positive and finite"):
                metrics.mu_estimate(ball, iso, eps)

    def test_paired_search_equals_sequential(self):
        def wavy(s):
            return (math.sin(3.0 * s) + 1.2) * (s - 2.0) ** 2 + 0.05 * abs(math.cos(11.0 * s))

        def peak(s):  # from s = 3 both neighbours improve, s - step more
            return 0.2 * s - abs(s - 3.0)

        period = 2 * math.pi
        cases = [(wavy, 0.3, 0.2, 4000), (wavy, 5.9, 0.05, 40), (wavy, 2.0, 1.0, 7), (peak, 3.0, 0.5, 200)]
        for f, s0, step, budget in cases:
            want = compass_search_sequential(
                lambda x: f(x[0]), _on_circle(period), (s0,), step, period * 1e-15, 1e-12, budget
            )
            got = metrics._compass_search(
                _batched(f), _on_circle(period), [(s0,)], step, period * 1e-15, 1e-12, budget
            )
            assert got == [want]

    def test_lockstep_searches_equal_sequential_ones(self):
        def f(s):
            if s < 1.0:
                return 1.0  # flat: only step underflow stops a search here
            if s < 3.0:
                return (s - 2.0) ** 2  # a bowl: the gap falls below refine_tol
            return 10.0 - s  # a slope that improves on every step until the budget

        period, step, tol, budget = 2 * math.pi, 0.01, 1e-6, 150
        starts = [0.5, 2.3, 4.0, 2.9]
        move, min_step = _on_circle(period), period * 1e-15
        want = [
            compass_search_sequential(lambda x: f(x[0]), move, (s0,), step, min_step, tol, budget) for s0 in starts
        ]
        sizes = []

        def g(S):
            sizes.append(len(S))
            return _batched(f)(S)

        got = metrics._compass_search(g, move, [(s0,) for s0 in starts], step, min_step, tol, budget)
        assert got == want
        (_, _, e_flat, gap_flat), (_, _, e_bowl, gap_bowl), (_, _, e_slope, _), _ = got
        assert e_flat < budget and gap_flat == math.inf
        assert e_bowl < budget and gap_bowl < tol
        assert e_slope >= budget
        # one call for the starts, then both neighbours of every live search
        # in each of the next AHEAD rounds per call
        assert sizes[:2] == [len(starts), 2 * metrics.AHEAD * len(starts)]
        assert sorted(sizes[1:], reverse=True) == sizes[1:] and sizes[-1] == 2 * metrics.AHEAD

    def test_lockstep_search_whose_every_guess_misses(self):
        # below 2 the value falls with s and from 2 on it is high, so from 0
        # with step 1 the search moves to 2 - 2^-k and then halves, in turn:
        # each round's outcome differs from the last, so every call's
        # guessed rounds past the first are wasted and a call replays one round
        def f(s):
            return -s if s < 2.0 else 10.0

        period, min_step, budget = 2 * math.pi, 2.0**-20, 1000
        move = _on_circle(period)
        want = compass_search_sequential(lambda x: f(x[0]), move, (0.0,), 1.0, min_step, 0.0, budget)
        sizes = []

        def g(S):
            sizes.append(len(S))
            return _batched(f)(S)

        got = metrics._compass_search(g, move, [(0.0,)], 1.0, min_step, 0.0, budget)
        assert got == [want]
        # 20 moves of one poll each and 20 halvings of two polls each, the
        # last move by 2^-19 and the last halving down to the step floor
        last = 2 * min_step
        assert want == (-(2.0 - last), (2.0 - last,), 61, last)
        assert sizes == [1] + [2 * metrics.AHEAD] * 40

    @pytest.mark.parametrize(
        "name, calls", [("mu_square_atomic", (7, 7)), ("mu_stadium_isotropic", (35, 38)), ("mu_stadium_adapted", (8, 7))]
    )
    def test_evaluator_calls_on_bundled_configs(self, name, calls, monkeypatch):
        # one call per search round before guessing ahead: 40, 259 / 263 and 40
        doc = _bundled(name)
        body = geom.body_from_json(doc["body"])
        dist = dn.distribution_from_json(doc["distribution"])
        counted = []
        batch = metrics.ExcessEvaluator.batch

        def counting(ev, Y):
            counted.append(len(Y))
            return batch(ev, Y)

        monkeypatch.setattr(metrics.ExcessEvaluator, "batch", counting)
        got = []
        for eps in (doc["eps_grid"]["start"], doc["eps_grid"]["stop"]):
            counted.clear()
            metrics.mu_estimate(body, dist, eps, metrics.MuConfig())
            got.append(len(counted))
            # the coarse scan, the starts, then AHEAD rounds of every live search per call
            assert counted[0] == metrics.MuConfig().coarse_samples
            assert all(size % (2 * metrics.AHEAD) == 0 for size in counted[2:])
        assert tuple(got) == calls

    @staticmethod
    def _assert_retracted_searches_sequential(body):
        # p = 3 with every poll retracted onto the offset boundary: the
        # projection and an atomic excess treat each row alone
        eps = 0.1
        atoms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
        law = dn.Atomic.symmetrized(atoms / np.linalg.norm(atoms, axis=1, keepdims=True), [0.2, 0.2, 0.2, 0.25, 0.15])
        ev = metrics.ExcessEvaluator(body, law)

        def move(X):
            return geom.retract(body, X, eps)

        U = np.random.default_rng(3).standard_normal((4, 3))
        starts = move(3.0 * U / np.linalg.norm(U, axis=1, keepdims=True))
        for budget in (120, 400):
            want = [
                compass_search_sequential(ev.precise, lambda x: move([x])[0], x0, eps / 2, eps * 1e-12, 1e-10, budget)
                for x0 in starts
            ]
            got = metrics._compass_search(ev.batch, move, starts, eps / 2, eps * 1e-12, 1e-10, budget)
            assert got == want
            assert np.abs(body.distance_batch(np.array([x for _, x, _, _ in got])) - eps).max() <= 1e-12

    def test_retracted_searches_equal_sequential_ones(self, cube):
        # budget 120 stops every search on its budget; at 400 two stop on
        # refine_tol and two on the step floor, one of them never improving
        # on its start
        self._assert_retracted_searches_sequential(cube)

    def test_retracted_searches_on_oblique_facets(self):
        self._assert_retracted_searches_sequential(geom.Polytope([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]))

    @pytest.mark.parametrize("name", MU_CONFIGS)
    def test_restarts_equal_sequential_reference(self, name):
        doc = _bundled(name)
        body = geom.body_from_json(doc["body"])
        dist = dn.distribution_from_json(doc["distribution"])
        cfg = metrics.MuConfig()
        for eps in (doc["eps_grid"]["start"], doc["eps_grid"]["stop"]):
            est = metrics.mu_estimate(body, dist, eps, cfg)
            ev = metrics.ExcessEvaluator(body, dist)
            value, point, evals, gap = mu_planar_sequential(ev, geom.boundary_path(body, eps), cfg)
            assert (est.value, est.evaluations, est.refinement_gap) == (value, evals, gap)
            assert est.argmin_point.tobytes() == point.tobytes()

    def test_values_are_python_floats(self, stadium, iso):
        est = metrics.mu_estimate(stadium, iso, 0.1, metrics.MuConfig(coarse_samples=256))
        assert type(est.value) is float
        assert type(metrics.ExcessEvaluator(stadium, iso).precise([2.5, 0.3])) is float

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

    def test_separated_minima_equal_loop(self):
        doc = _bundled("mu_square_atomic")
        body = geom.body_from_json(doc["body"])
        ev = metrics.ExcessEvaluator(body, dn.distribution_from_json(doc["distribution"]))
        rng = np.random.default_rng(3307)
        m = metrics.MuConfig().coarse_samples
        cases = []
        # the square's facets give long plateaus of equal coarse values
        for eps in (doc["eps_grid"]["start"], doc["eps_grid"]["stop"]):
            path = geom.boundary_path(body, eps)
            s_grid = (np.arange(m) + 0.5) * (path.total / m)
            cases.append((ev.batch(path.point_at(s_grid)), s_grid, path.total))
        for k in range(20):
            period = rng.uniform(0.5, 20.0)
            s_grid = (np.arange(m) + 0.5) * (period / m)
            vals = rng.random(m)
            cases.append((np.round(vals, 2) if k % 2 else vals, s_grid, period))
        for vals, s_grid, period in cases:
            for count in (1, 5, 16, 40):
                got = metrics._separated_minima(vals, s_grid, period, count)
                assert got == separated_minima_loop(vals, s_grid, period, count)
                assert all(type(s) is float for s, in got)


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
        for grid in ([0.5, 1.5], [0.0, 0.1], [math.nan, 0.1], [0.1, math.nan], [0.1, math.inf]):
            with pytest.raises(InvalidEpsilon):
                metrics.mu_scaling(ball, iso, grid)

    def test_unapproximable_pair_refused(self, ball):
        # the ball's surface measure is not covered by four atoms: log mu would hit log 0
        axis_atoms = dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5])
        with pytest.raises(ConfigError, match="cannot approximate"):
            metrics.mu_scaling(ball, axis_atoms, [0.05, 0.1])

    def test_one_point_grid_is_degenerate(self, ball, iso):
        with pytest.raises(DegenerateX):
            metrics.mu_scaling(ball, iso, [0.5])

    def test_rolling_ball_upper_bound_shape(self, ball, iso):
        # bounded ratio excess/eps^{3/2} along the outward normal (no constant claim)
        ev = metrics.ExcessEvaluator(ball, iso)
        ratios = [ev.precise([1.0 + e, 0.0]) / e**1.5 for e in self.GRID]
        assert max(ratios) / min(ratios) < 1.5


def _continuous_laws_3d():
    iso = dn.Isotropic(3)
    atoms = dn.Atomic.symmetrized(np.eye(3), [1 / 3] * 3)
    return {
        "isotropic": iso,
        "density": dn.DensityOnSphere(lambda U: 1.0 + U[:, 0] ** 2, 2.0, 3),
        "cap-starved": dn.cap_starved([0, 0, 1], lambda n: n**-0.25, 16, experiment._default_budget),
        "atomic+isotropic": dn.Mixture([(0.5, atoms), (0.5, iso)]),
    }


class TestHigherDimensions:
    @pytest.mark.parametrize("law", list(_continuous_laws_3d()))
    def test_continuous_law_refused(self, law, ball3):
        dist = _continuous_laws_3d()[law]
        y = [1.5, 0.0, 0.0]
        calls = [
            lambda: metrics.ExcessEvaluator(ball3, dist),
            lambda: metrics.excess(ball3, dist, y),
            lambda: metrics.mu_estimate(ball3, dist, 2.0**-6),
            lambda: metrics.mu_scaling(ball3, dist, [2.0**-6, 2.0**-4]),
            lambda: dn.integrate(dist, ball3.support_batch),
            lambda: process.phi_functional(ProcessParams(1.0, dist, 3), ball3),
        ]
        for call in calls:
            with pytest.raises(UnsupportedBody, match="d = 3"):
                call()

    @pytest.mark.parametrize("eps", [2.0**-2, 2.0**-4, 2.0**-8])
    def test_tetrahedron_minimum_on_edge_pieces(self, eps):
        # adjacent facet normals are 109.47 deg apart, so on an edge piece at
        # 19.47 deg from one normal the other atom just stops seeing y:
        # (1/8) eps cos(19.47 deg) = sqrt(2)/12 eps, below the facets' eps/8
        tet = geom.Polytope([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        est = metrics.mu_estimate(tet, dn.from_surface_measure(tet), eps)
        assert est.value == pytest.approx(math.sqrt(2) / 12 * eps, rel=1e-6)
        assert tet.distance(est.argmin_point) == pytest.approx(eps, abs=1e-12)

    def test_octahedron_facet_minimum(self):
        octa = geom.Polytope(np.vstack([np.eye(3), -np.eye(3)]))
        eps = 2.0**-4
        est = metrics.mu_estimate(octa, dn.from_surface_measure(octa), eps)
        assert est.value == pytest.approx(eps / 8, rel=1e-6)
        assert octa.distance(est.argmin_point) == pytest.approx(eps, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 2.0**-8])
    def test_coarse_points_reach_every_piece_kind(self, cube, eps, monkeypatch):
        # a point of the cube's offset boundary lies on a facet, edge or vertex
        # piece when 1, 2 or 3 of its coordinates exceed 1 in absolute value
        batches = []
        batch = metrics.ExcessEvaluator.batch
        monkeypatch.setattr(metrics.ExcessEvaluator, "batch", lambda ev, Y: batches.append(Y) or batch(ev, Y))
        monkeypatch.setattr(metrics, "MAX_REFINE", 0)
        metrics.mu_estimate(cube, dn.Atomic.symmetrized(np.eye(3), [1 / 3] * 3), eps)
        coarse = batches[0]  # then the starts, and no search round at MAX_REFINE = 0
        assert coarse.shape == (4096, 3)
        kind = (np.abs(coarse) > 1.0).sum(axis=1)
        share = np.bincount(kind, minlength=4) / len(coarse)
        assert share[0] == 0.0 and share[1:].min() >= 0.1, share

    def test_cube_axis_atoms_exact(self, cube):
        # on a facet's offset only that facet's two atoms see y, one of them by eps
        eps = 2.0**-4
        law = dn.Atomic.symmetrized(np.eye(3), [1 / 3] * 3)
        est = metrics.mu_estimate(cube, law, eps)
        assert est.value == pytest.approx(eps / 6, abs=1e-15)
        assert cube.distance(est.argmin_point) == pytest.approx(eps, abs=1e-12)

    def test_cube4_axis_atoms_exact(self, cube4):
        # the d = 3 argument one dimension up: on a facet's offset only that
        # facet's two atoms see y, one of them by eps, with weight 1/8
        law = dn.Atomic.symmetrized(np.eye(4), [1 / 4] * 4)
        grid = [2.0**-2, 2.0**-4, 2.0**-6]
        fit = metrics.mu_scaling(cube4, law, grid)
        for eps, est in zip(grid, fit.estimates):
            assert est.value == pytest.approx(eps / 8, rel=1e-12)
            assert cube4.distance(est.argmin_point) == pytest.approx(eps, abs=1e-12)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)


class TestMuConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("coarse_samples", 0), ("coarse_samples", -3), ("coarse_samples", 2.5), ("coarse_samples", math.nan),
         ("seed", 7.9), ("seed", -1)],
    )
    def test_bad_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            metrics.MuConfig(**{field: value})

    def test_zero_refinement_allowed(self, square, facet_atoms, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_REFINE", 0)
        est = metrics.mu_estimate(square, facet_atoms, 0.1, metrics.MuConfig(coarse_samples=64))
        assert est.value == pytest.approx(0.025, abs=1e-12)


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
