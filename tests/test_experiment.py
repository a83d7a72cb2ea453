import json
import math

import pytest

from hypercell import direction as dn
from hypercell import experiment as ex
from hypercell.errors import AllZeroTail, ConfigError, DegenerateX


class TestFitLoglog:
    def test_two_points(self):
        fit = ex.fit_loglog([(0, 0), (1, 2)])
        assert (fit.slope, fit.intercept, fit.r_squared) == (2.0, 0.0, 1.0)

    def test_collinear_exact(self):
        pts = [(x, 3.0 - 1.5 * x) for x in (0.0, 0.7, 1.9, 4.2)]
        fit = ex.fit_loglog(pts)
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_convention(self):
        fit = ex.fit_loglog([(0, 5), (1, 5), (2, 5)])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            ex.fit_loglog([(1, 0), (1, 1)])

    def test_synthetic_rate_injection(self):
        # exact law delta_n = (log n / n)^(2/3) must fit with slope 2/3, r2 = 1
        grid = [2**k for k in range(8, 16)]
        pts = [
            (math.log(math.log(n) / n), (2.0 / 3.0) * math.log(math.log(n) / n))
            for n in grid
        ]
        fit = ex.fit_loglog(pts)
        assert fit.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@pytest.fixture
def small_rate_cfg(ball, iso):
    return ex.RateRunConfig(ball, iso, [8, 16, 32, 64], reps=8, seed=2024)


def _density_law(wrap: str):
    """A law with a density, alone or inside a mixture; it has no JSON form."""
    law = dn.DensityOnSphere(lambda U: 1 + 0.5 * U[:, 0] ** 2, 2.0, 2)
    return law if wrap == "plain" else dn.Mixture([(0.5, law), (0.5, dn.Isotropic(2))])


class TestRunRate:
    def test_basic_run(self, small_rate_cfg):
        res = ex.run_rate(small_rate_cfg)
        assert len(res.records) == 8 * 4
        assert res.fit is not None and res.fit.slope > 0
        for e in res.per_n:
            assert e["q10"] <= e["median_delta"] <= e["q90"]

    def test_per_rep_monotone(self, small_rate_cfg):
        res = ex.run_rate(small_rate_cfg)
        for rep in range(8):
            ds = [r.delta for r in res.records if r.rep == rep]
            assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))

    def test_rejects_unapproximable_pair(self, ball, facet_atoms):
        cfg = ex.RateRunConfig(ball, facet_atoms, [8, 16], reps=2, seed=1)
        with pytest.raises(ConfigError):
            ex.run_rate(cfg)

    def test_threads_match_serial(self, small_rate_cfg):
        serial = ex.run_rate(small_rate_cfg, threads=1)
        parallel = ex.run_rate(small_rate_cfg, threads=2)
        assert serial.records == parallel.records

    def test_pool_has_at_most_one_worker_per_rep(self, ball, iso, monkeypatch):
        # a stub executor records the pool size and maps in this process
        import concurrent.futures

        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        for reps, threads, pools in ((3, 64, [3]), (3, 2, [2]), (1, 4, [])):
            cfg = ex.RateRunConfig(ball, iso, [8, 16], reps=reps, seed=7)
            started.clear()
            assert ex.run_rate(cfg, threads=threads).records == ex.run_rate(cfg).records
            assert started == pools

    def test_overflow_reps_excluded_with_count(self, ball, iso):
        from hypercell.cell import WindowPolicy

        cfg = ex.RateRunConfig(
            ball, iso, [2], reps=6, seed=5,
            policy=WindowPolicy(initial_radius=0.01, max_rounds=1),
        )
        res = ex.run_rate(cfg)
        assert all(e["overflow_count"] == 6 for e in res.per_n)
        assert all(math.isnan(r.delta) for r in res.records)

    def test_grid_at_or_below_one_rejected(self, ball, iso):
        # log(log n / n) is undefined for n <= 1; the run would fail after every replication
        for grid in ([0.5, 4], [1, 4]):
            with pytest.raises(ConfigError, match="n_grid"):
                ex.RateRunConfig(ball, iso, grid, reps=2, seed=1)

    @pytest.mark.parametrize("grid", [[math.nan], [math.nan, 16], [4, math.nan]])
    def test_nan_grid_rejected(self, ball, iso, grid):
        with pytest.raises(ConfigError, match="n_grid"):
            ex.RateRunConfig(ball, iso, grid, reps=2, seed=1)

    @pytest.mark.parametrize("wrap", ["plain", "mixture"])
    def test_density_law_rejected(self, ball, wrap):
        # the result document cannot echo the law; the run would fail after every replication
        with pytest.raises(ConfigError, match="DensityOnSphere"):
            ex.RateRunConfig(ball, _density_law(wrap), [4, 16], reps=3, seed=1)


class TestRunTail:
    def test_monotone_and_fit(self, ball, iso):
        cfg = ex.TailRunConfig(ball, iso, 0.5, [2, 8, 32, 128], reps=200, seed=7)
        res = ex.run_tail(cfg)
        ps = [e["p_hat"] for e in res.per_n]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert res.fit.slope < 0

    def test_all_zero_tail(self, ball, iso):
        cfg = ex.TailRunConfig(ball, iso, 1.0, [512, 1024], reps=20, seed=8)
        with pytest.raises(AllZeroTail):
            ex.run_tail(cfg)

    def test_eps_validation(self, ball, iso):
        with pytest.raises(ConfigError):
            ex.TailRunConfig(ball, iso, 1.5, [2, 4], reps=5, seed=9)

    def test_zero_reps_rejected(self, ball, iso):
        with pytest.raises(ConfigError, match="reps"):
            ex.TailRunConfig(ball, iso, 0.5, [2, 4], reps=0, seed=9)

    @pytest.mark.parametrize("grid", [[math.nan], [math.nan, 40], [2, math.nan]])
    def test_nan_grid_rejected(self, ball, iso, grid):
        # NaN passes `g < 1` and the increasing test; k_cell would fail on it untyped
        with pytest.raises(ConfigError, match="gamma"):
            ex.TailRunConfig(ball, iso, 0.5, grid, reps=5, seed=9)

    @pytest.mark.parametrize("wrap", ["plain", "mixture"])
    def test_density_law_rejected(self, ball, wrap):
        with pytest.raises(ConfigError, match="DensityOnSphere"):
            ex.TailRunConfig(ball, _density_law(wrap), 0.5, [2, 4], reps=3, seed=1)

    @pytest.mark.parametrize("law", ["isotropic", "cap-starved"])
    def test_continuous_law_in_3d_rejected(self, ball3, law):
        # the closing mu_estimate has no exact excess for it; refuse before any replication
        dist = dn.Isotropic(3)
        if law == "cap-starved":
            dist = dn.cap_starved([0, 0, 1], lambda n: n**-0.25, 16, ex._default_budget)
        with pytest.raises(ConfigError, match="d = 3"):
            ex.TailRunConfig(ball3, dist, 0.5, [2, 4], reps=3, seed=1)

    def test_atomic_law_in_3d_accepted(self, cube):
        law = dn.Atomic.symmetrized([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1 / 3] * 3)
        cfg = ex.TailRunConfig(cube, law, 0.5, [2, 4], reps=3, seed=1)
        assert cfg.to_json()["distribution"]["type"] == "atomic"

    def test_gamma_one_allowed(self, ball, iso):
        # the tail fit is linear in gamma, so gamma = 1 is a valid level
        res = ex.run_tail(ex.TailRunConfig(ball, iso, 0.5, [1, 2, 8], reps=20, seed=7))
        assert [e["n"] for e in res.per_n] == [1.0, 2.0, 8.0]


class TestRunCounterexample:
    def test_polytope_rejected(self, square):
        with pytest.raises(ConfigError):
            ex.CounterexampleConfig(square, 0.25, [4, 16], reps=5, seed=1)

    def test_zero_reps_rejected(self, ball):
        with pytest.raises(ConfigError, match="reps"):
            ex.CounterexampleConfig(ball, 0.25, [4, 16], reps=0, seed=1)

    def test_empty_grid_rejected(self, ball):
        with pytest.raises(ConfigError, match="n_grid"):
            ex.CounterexampleConfig(ball, 0.25, [], reps=5, seed=1)

    def test_decreasing_grid_rejected(self, ball):
        with pytest.raises(ConfigError, match="n_grid"):
            ex.CounterexampleConfig(ball, 0.25, [16, 4], reps=5, seed=1)

    def test_nonpositive_grid_rejected(self, ball):
        # n^(-beta) is undefined at n = 0
        with pytest.raises(ConfigError, match="n_grid"):
            ex.CounterexampleConfig(ball, 0.25, [0, 4], reps=5, seed=1)

    def test_fractional_grid_rejected(self, ball):
        # the starved law is built for n_max = int(max n), whose budget misses n = 16.5
        with pytest.raises(ConfigError, match="integers"):
            ex.CounterexampleConfig(ball, 0.25, [4, 16.5], reps=5, seed=1)

    def test_nan_beta_rejected(self, ball):
        # the starved law's budget would overflow inside the run
        with pytest.raises(ConfigError, match="beta"):
            ex.CounterexampleConfig(ball, math.nan, [4, 16], reps=5, seed=1)

    def test_grid_below_two_rejected(self, ball):
        # the starved law needs n_max >= 2
        with pytest.raises(ConfigError, match="n >= 2"):
            ex.CounterexampleConfig(ball, 0.25, [1], reps=5, seed=1)

    def test_starved_law_keeps_distance_large(self, ball):
        cfg = ex.CounterexampleConfig(ball, 0.25, [4, 16, 64], reps=150, seed=13)
        res = ex.run_counterexample(cfg)
        for e in res.per_n:
            q = 1 - e["n"] ** -2
            sigma = math.sqrt(q * (1 - q) / e["count"]) if 0 < q < 1 else 0.0
            assert e["exceed_freq"] >= q - 3 * sigma
            assert e["separated_freq"] <= e["n"] ** -2 + 3 * math.sqrt(
                max(e["n"] ** -2 * (1 - e["n"] ** -2), 1e-12) / e["count"]
            )

    def test_isotropic_control_converges(self, ball):
        cfg = ex.CounterexampleConfig(ball, 0.25, [4, 64, 256], reps=150, seed=14, control=True)
        res = ex.run_counterexample(cfg)
        assert res.per_n[-1]["exceed_freq"] < 0.5

    def test_stadium_axis_choice(self, stadium):
        cfg = ex.CounterexampleConfig(stadium, 0.25, [4, 16], reps=30, seed=15)
        res = ex.run_counterexample(cfg)
        assert all(e["exceed_freq"] > 0.9 for e in res.per_n)


@pytest.mark.parametrize("kind", ["rate", "tail", "counterexample"])
def test_nan_reps_rejected(ball, iso, kind):
    # NaN passes `reps < 1`; the run would fail on range(nan)
    make = {
        "rate": lambda: ex.RateRunConfig(ball, iso, [8, 16], reps=math.nan, seed=1),
        "tail": lambda: ex.TailRunConfig(ball, iso, 0.5, [2, 4], reps=math.nan, seed=1),
        "counterexample": lambda: ex.CounterexampleConfig(ball, 0.25, [4, 16], reps=math.nan, seed=1),
    }[kind]
    with pytest.raises(ConfigError, match="reps"):
        make()


@pytest.mark.parametrize("kind", ["rate", "tail", "counterexample"])
@pytest.mark.parametrize(
    "field, value", [("reps", 2.5), ("reps", 3.0), ("reps", True), ("seed", 7.9), ("seed", -1), ("seed", False)]
)
def test_non_integer_reps_or_seed_rejected(ball, iso, kind, field, value):
    # the run would fail inside range() or the stream key, or a caller's int() would truncate
    counts = {"reps": 3, "seed": 1, field: value}
    make = {
        "rate": lambda: ex.RateRunConfig(ball, iso, [8, 16], **counts),
        "tail": lambda: ex.TailRunConfig(ball, iso, 0.5, [2, 4], **counts),
        "counterexample": lambda: ex.CounterexampleConfig(ball, 0.25, [4, 16], **counts),
    }[kind]
    with pytest.raises(ConfigError, match=field):
        make()


class TestPersistence:
    def test_csv_header_exact(self, small_rate_cfg, tmp_path):
        res = ex.run_rate(small_rate_cfg)
        path = tmp_path / "rate.csv"
        ex.persist(res, path, "csv")
        first = open(path).readline().strip()
        assert first == "rep,n,delta,hyperplanes,rounds,overflow"

    def test_round_trip(self, small_rate_cfg, tmp_path):
        res = ex.run_rate(small_rate_cfg)
        path = tmp_path / "rate.csv"
        ex.persist(res, path, "csv")
        assert ex.read_records(path) == res.records

    def test_json_has_config_echo(self, small_rate_cfg, tmp_path):
        res = ex.run_rate(small_rate_cfg)
        path = tmp_path / "rate.json"
        ex.persist(res, path, "json")
        doc = json.loads(open(path).read())
        assert doc["config"]["seed"] == 2024
        assert doc["config"]["body"]["type"] == "ball"
        assert {"slope", "intercept", "r2", "n_points"} <= set(doc["fit"])

    def test_rerun_byte_identical(self, small_rate_cfg, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.persist(ex.run_rate(small_rate_cfg), p1, "csv")
        ex.persist(ex.run_rate(small_rate_cfg), p2, "csv")
        assert open(p1, "rb").read() == open(p2, "rb").read()
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        ex.persist(ex.run_rate(small_rate_cfg), j1, "json")
        ex.persist(ex.run_rate(small_rate_cfg), j2, "json")
        assert open(j1, "rb").read() == open(j2, "rb").read()

    def test_unknown_format(self, small_rate_cfg, tmp_path):
        res = ex.run_rate(small_rate_cfg)
        with pytest.raises(ConfigError):
            ex.persist(res, tmp_path / "x.bin", "parquet")
