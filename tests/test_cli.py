import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hypercell
from hypercell import direction as dn
from hypercell import geom, metrics, validate
from hypercell.cli import dispatch

BALL_ISO = {
    "experiment": "rate",
    "body": {"type": "ball", "center": [0, 0], "radius": 1.0},
    "distribution": {"type": "isotropic", "dim": 2},
    "n_grid": [8, 16, 32, 64],
    "reps": 10,
    "seed": 99,
}

BALL_3D = {
    "body": {"type": "ball", "center": [0, 0, 0], "radius": 1.0},
    "distribution": {"type": "isotropic", "dim": 3},
    "eps_grid": [0.015625, 0.0625],
    "seed": 3,
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "ball_iso.json"
    path.write_text(json.dumps(BALL_ISO))
    return str(path)


class TestRateCommand:
    def test_outputs_and_exit_code(self, cfg_path, tmp_path):
        out = str(tmp_path / "out")
        rc = dispatch(["rate", "--config", cfg_path, "--seed", "42", "--out", out, "--plot"])
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == ["rate.csv", "rate.json", "rate.svg"]
        doc = json.loads(open(os.path.join(out, "rate.json")).read())
        assert doc["config"]["seed"] == 42  # override wins over the file

    def test_missing_config_exits_2(self, tmp_path):
        rc = dispatch(["rate", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert dispatch(["rate", "--config", str(bad)]) == 2

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert dispatch(["rate", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"ConfigError: config file {tmp_path} cannot be read" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("rate", 3, "config file {path} must hold a JSON object, got int"),
            ("rate", [BALL_ISO], "config file {path} must hold a JSON object, got list"),
            ("rate", {**BALL_ISO, "body": [[0, 0], 1.0]}, "config key 'body' must be a JSON object, got list"),
            ("rate", {**BALL_ISO, "distribution": "isotropic"}, "config key 'distribution' must be a JSON object, got str"),
            ("tail", {**BALL_ISO, "policy": [2.0]}, "config key 'policy' must be a JSON object, got list"),
            ("rate", {**BALL_ISO, "policy": {"growth_factor": "2"}}, "config key 'policy': growth factor must be a number, got '2'"),
            ("rate", {**BALL_ISO, "policy": {"initial_radius": True}}, "config key 'policy': initial radius must be a number, got True"),
            ("mu-curve", {**BALL_ISO, "distribution": [], "eps_grid": [0.1]}, "config key 'distribution' must be a JSON object, got list"),
            ("rate", {**BALL_ISO, "body": {"type": "ball", "center": [0, 0], "radius": "1"}},
             "config key 'body': radius must be a number, got '1'"),
            ("rate", {**BALL_ISO, "body": {"type": "ball", "center": [0, 0]}}, "config key 'body': radius must be a number, got None"),
            ("tail", {**BALL_ISO, "body": {"type": "polytope", "vertices": "abc"}},
             "config key 'body': vertices must be an array of numbers, got 'abc'"),
            ("rate", {**BALL_ISO, "body": {"type": "polytope", "vertices": [[0, 0], [1]]}},
             "config key 'body': vertices must be an array of numbers, got [[0, 0], [1]]"),
            ("rate", {**BALL_ISO, "body": {"type": "ballsum", "vertices": [[0, 0], [1, 0]], "radius": float("nan")}},
             "config key 'body': ballsum radius must be positive, got nan"),
            ("mu-curve", {**BALL_ISO, "body": {"type": "ball", "center": [0, "a"], "radius": 1}, "eps_grid": [0.1]},
             "config key 'body': center must be an array of numbers, got [0, 'a']"),
            ("mu-curve", {**BALL_ISO, "body": {"type": "ballsum", "vertices": [[0, 0]]}, "eps_grid": [0.1]},
             "config key 'body': radius must be a number, got None"),
        ],
    )
    def test_config_of_wrong_type_exits_2(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert dispatch([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: ConfigError: {message.format(path=path)}"]
        assert not out.exists()

    def test_mixture_component_of_wrong_type_exits_2(self, tmp_path, capsys):
        mixture = {"type": "mixture", "components": [{"weight": 1.0, "dist": ["isotropic"]}]}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({**BALL_ISO, "distribution": mixture}))
        assert dispatch(["rate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: TypeError: a distribution must be a JSON object, got list\n"
        assert not (tmp_path / "o").exists()

    def test_hash_equal_reruns(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert dispatch(["rate", "--config", cfg_path, "--out", out1]) == 0
        assert dispatch(["rate", "--config", cfg_path, "--out", out2]) == 0
        for name in ("rate.csv", "rate.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_experiment_error_exits_3(self, tmp_path):
        cfg = dict(BALL_ISO)
        cfg["policy"] = {"initial_radius": 0.01, "max_rounds": 1}
        cfg["n_grid"] = [2]
        # every replication overflows; aggregation finds no finite deltas
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        rc = dispatch(["rate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0  # overflow is recorded per replication, not fatal

    def test_runaway_window_exits_3(self, tmp_path, capsys):
        # ring 0 of a cube scaled by 1e6 at intensity 16 would hold some 5.5e7
        # hyperplanes; the sampler refuses it before drawing any
        cube = [[x, y, z] for x in (-1e6, 1e6) for y in (-1e6, 1e6) for z in (-1e6, 1e6)]
        atoms = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        cfg = {
            "experiment": "rate",
            "body": {"type": "polytope", "vertices": cube},
            "distribution": {"type": "atomic", "atoms": atoms, "weights": [1 / 6] * 6},
            "n_grid": [16, 32],
            "reps": 2,
            "seed": 1,
        }
        path = tmp_path / "scaled_cube.json"
        path.write_text(json.dumps(cfg))
        assert dispatch(["rate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: AnnulusOverflow: annulus (0, ") and "at intensity 16" in err

    def test_nonpositive_initial_radius_exits_2(self, tmp_path):
        for radius in (0.0, -1.0):
            cfg = dict(BALL_ISO, policy={"initial_radius": radius})
            path = tmp_path / "radius.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / "o"
            assert dispatch(["rate", "--config", str(path), "--out", str(out)]) == 2
            assert not out.exists()

    def test_tail_nan_gamma_exits_2(self, tmp_path, monkeypatch):
        # json reads the NaN literal; the config refuses it before any replication
        from hypercell import experiment

        monkeypatch.setattr(experiment, "_coupled_rep", lambda *a, **k: pytest.fail("a replication ran"))
        cfg = {
            "experiment": "tail",
            "body": BALL_ISO["body"],
            "distribution": BALL_ISO["distribution"],
            "eps": 0.5,
            "gamma_grid": [float("nan"), 40],
            "reps": 10,
            "seed": 5,
        }
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(cfg))
        assert "NaN" in path.read_text()
        out = tmp_path / "o"
        assert dispatch(["tail", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_nan_atomic_weight_exits_2(self, tmp_path, monkeypatch):
        # json reads the NaN literal; the law refuses it, where the run used not to end
        from hypercell import experiment

        monkeypatch.setattr(experiment, "_coupled_rep", lambda *a, **k: pytest.fail("a replication ran"))
        configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
        with open(os.path.join(configs, "rate_square_atomic.json")) as fh:
            cfg = json.load(fh)
        cfg["distribution"]["weights"] = [float("nan"), 0.25, 0.25, 0.25]
        cfg.update(n_grid=[256, 512], reps=2)
        path = tmp_path / "nan_weight.json"
        path.write_text(json.dumps(cfg))
        assert "NaN" in path.read_text()
        out = tmp_path / "o"
        assert dispatch(["rate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_fractional_max_rounds_exits_2(self, tmp_path):
        path = tmp_path / "rounds.json"
        path.write_text(json.dumps(dict(BALL_ISO, policy={"max_rounds": 2.5})))
        out = tmp_path / "o"
        assert dispatch(["rate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"reps": 2.5}, {"reps": True}, {"seed": 7.9}])
    def test_fractional_reps_or_seed_exits_2(self, tmp_path, change):
        # int() would truncate them to 2 replications or seed 7 and run
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({**BALL_ISO, **change}))
        out = tmp_path / "o"
        assert dispatch(["rate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_tail_continuous_law_in_3d_exits_2(self, tmp_path, monkeypatch):
        from hypercell import experiment

        monkeypatch.setattr(experiment, "_coupled_rep", lambda *a, **k: pytest.fail("a replication ran"))
        cfg = {
            "experiment": "tail",
            "body": BALL_3D["body"],
            "distribution": BALL_3D["distribution"],
            "eps": 0.5,
            "gamma_grid": [64, 128, 256],
            "reps": 40,
            "seed": 5,
        }
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert dispatch(["tail", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_tail_all_zero_exits_3(self, tmp_path):
        cfg = {
            "experiment": "tail",
            "body": BALL_ISO["body"],
            "distribution": BALL_ISO["distribution"],
            "eps": 1.0,
            "gamma_grid": [512, 1024],
            "reps": 10,
            "seed": 5,
        }
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(cfg))
        rc = dispatch(["tail", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3


class TestOtherCommands:
    def test_mu_curve(self, tmp_path):
        cfg = {
            "body": {"type": "polytope", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
            "distribution": {
                "type": "atomic",
                "atoms": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                "weights": [0.25, 0.25, 0.25, 0.25],
            },
            "eps_grid": [0.025, 0.05, 0.1, 0.2],
            "coarse_samples": 512,
            "seed": 3,
        }
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        rc = dispatch(["mu-curve", "--config", str(path), "--out", out, "--plot"])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["mu.csv", "mu.json", "mu.svg"]
        header = open(os.path.join(out, "mu.csv")).readline().strip()
        assert header == "epsilon,mu,evaluations"
        doc = json.loads(open(os.path.join(out, "mu.json")).read())
        assert abs(doc["fit"]["slope"] - 1.0) < 0.1

    def test_mu_curve_rerun_byte_identical(self, tmp_path):
        # the isotropic stadium's flat sides make a plateau of near-equal coarse values
        cfg = {
            "body": {"type": "ballsum", "vertices": [[-1, 0], [1, 0]], "radius": 1.0},
            "distribution": {"type": "isotropic", "dim": 2},
            "eps_grid": [0.0009765625, 0.0625],
            "coarse_samples": 512,
            "seed": 3,
        }
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(cfg))
        outs = [str(tmp_path / "o1"), str(tmp_path / "o2")]
        for out in outs:
            assert dispatch(["mu-curve", "--config", str(path), "--out", out]) == 0
        for name in ("mu.csv", "mu.json"):
            b1, b2 = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert b1 == b2

    def test_mu_curve_defaults_come_from_mu_config(self, tmp_path):
        # a config without seed and coarse_samples writes what one with the
        # defaults spelled out writes; the seed matters in 3-d only
        tet = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        cfg = {
            "body": {"type": "polytope", "vertices": tet},
            "distribution": dn.distribution_to_json(dn.from_surface_measure(geom.Polytope(tet))),
            "eps_grid": [0.125, 0.25],
        }
        defaults = metrics.MuConfig()
        spelled = {**cfg, "seed": defaults.seed, "coarse_samples": defaults.coarse_samples}
        for name, doc in (("bare", cfg), ("spelled", spelled)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            assert dispatch(["mu-curve", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        for name in ("mu.csv", "mu.json"):
            assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "spelled" / name).read_bytes()
        assert json.loads((tmp_path / "bare" / "mu.json").read_text())["config"]["seed"] == defaults.seed

    def test_mu_curve_3d_tetrahedron(self, tmp_path):
        # mu = sqrt(2)/12 eps on the regular tetrahedron under its own law
        tet = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        cfg = {
            "body": {"type": "polytope", "vertices": tet},
            "distribution": dn.distribution_to_json(dn.from_surface_measure(geom.Polytope(tet))),
            "eps_grid": [2.0**-k for k in range(6, 1, -1)],
        }
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(cfg))
        runs = [("o1", "5"), ("o2", "5"), ("o3", "6")]
        for out, seed in runs:
            assert dispatch(["mu-curve", "--config", str(path), "--out", str(tmp_path / out), "--seed", seed]) == 0
        docs = [json.loads((tmp_path / out / "mu.json").read_text()) for out, _ in runs]
        assert abs(docs[0]["fit"]["slope"] - 1.0) <= 1e-6
        for name in ("mu.csv", "mu.json"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
        for a, b in zip(docs[0]["estimates"], docs[2]["estimates"]):
            assert b["value"] == pytest.approx(a["value"], rel=1e-6)

    def test_mu_curve_nan_eps_exits_3(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({**BALL_ISO, "eps_grid": [math.nan, 0.1], "coarse_samples": 64}))
        out = tmp_path / "out"
        assert dispatch(["mu-curve", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: InvalidEpsilon: eps grid must be positive\n"
        assert not out.exists()

    def test_mu_curve_continuous_law_in_3d_exits_3(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(BALL_3D))
        out = tmp_path / "out"
        assert dispatch(["mu-curve", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: UnsupportedBody:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "change",
        [{"coarse_samples": 0}, {"coarse_samples": -3},
         {"distribution": {"type": "atomic", "atoms": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                           "weights": [0.25, 0.25, 0.25, 0.25]}}],
    )
    def test_mu_curve_bad_config_exits_2(self, tmp_path, change):
        cfg = {**BALL_ISO, "eps_grid": [0.05, 0.1], "coarse_samples": 64, **change}
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert dispatch(["mu-curve", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_counterexample(self, tmp_path):
        cfg = {
            "body": {"type": "ball", "center": [0, 0], "radius": 1.0},
            "beta": 0.25,
            "n_grid": [4, 16],
            "reps": 40,
            "seed": 6,
        }
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        rc = dispatch(["counterexample", "--config", str(path), "--out", out])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["counterexample.csv", "counterexample.json"]
        doc = json.loads(open(os.path.join(out, "counterexample.json")).read())
        assert doc["config"]["control"] is False
        assert doc["extras"] if "extras" in doc else doc["distribution"]

    def test_unknown_subcommand_exits_2(self):
        assert dispatch(["frobnicate"]) == 2

    def test_unread_flags_refused(self, cfg_path, capsys):
        assert dispatch(["validate", "--threads", "2"]) == 2
        assert dispatch(["mu-curve", "--config", cfg_path, "--debug-oracle"]) == 2
        assert dispatch(["counterexample", "--config", cfg_path, "--plot"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err
        assert "unrecognized arguments: --debug-oracle" in err
        assert "unrecognized arguments: --plot" in err

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")])
    def test_threads_below_one_refused(self, cfg_path, tmp_path, monkeypatch, capsys, flag, env):
        monkeypatch.delenv("HYPERCELL_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("HYPERCELL_THREADS", env)
        argv = ["rate", "--config", cfg_path, "--out", str(tmp_path / "out")]
        assert dispatch(argv + (["--threads", flag] if flag is not None else [])) == 2
        source = "--threads" if flag is not None else "HYPERCELL_THREADS"
        assert f"ConfigError: {source} must be at least 1, got {flag or env}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("env", ["abc", "1.5", "2x"])
    def test_non_integer_thread_variable_refused(self, cfg_path, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv("HYPERCELL_THREADS", env)
        argv = ["rate", "--config", cfg_path, "--out", str(tmp_path / "out")]
        assert dispatch(argv) == 2
        assert f"ConfigError: HYPERCELL_THREADS must be an integer, got '{env}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_validate_passes(capsys):
    assert dispatch(["validate"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "24/24 checks passed"
    # the two checks whose statistics are computed in closed form, verbatim
    assert "PASS  sample_annulus gap uniformity (KS): KS 0.00756 < 0.01153" in lines
    assert "PASS  sample_annulus count vs Poisson (chi-square): mean 4, p=0.7893" in lines


def test_validate_closed_forms_match_scipy():
    from scipy import stats

    rng = np.random.default_rng(5)
    for n in (1, 2, 17, 1000, 20000):
        x = rng.random(n)
        assert validate._ks_uniform(x) == stats.kstest(x, "uniform").statistic
    for mean in (0.5, 1.0, 2.5, 4.0, 7.3, 12.0, 25.0, 50.0):
        for tail in (1e-2, 10 / 3000, 1e-4):
            table = validate._poisson_table(mean, tail)
            top = len(table) - 1
            assert top == stats.poisson.isf(tail, mean)
            assert np.allclose(table[:-1], stats.poisson.pmf(np.arange(top), mean), rtol=1e-12, atol=0)
            assert table[-1] == pytest.approx(stats.poisson.sf(top - 1, mean), rel=1e-9)
    for dof in [*range(1, 41), 99, 100, 101, 500, 2000, 2001]:
        for f in (1e-3, 0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0):
            want = stats.chi2.sf(f * dof, dof)
            assert validate._chi2_sf(f * dof, dof) == pytest.approx(want, rel=1e-10, abs=0), (dof, f)
    assert validate._chi2_sf(0.0, 3) == 1.0


def _run_child(*args):
    # the child imports the same package as this process, also when only
    # pytest's `pythonpath` setting put it on sys.path
    root = os.path.dirname(os.path.dirname(hypercell.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_script_runs():
    proc = _run_child("-m", "hypercell.cli", "rate", "--config", "/nonexistent.json")
    assert proc.returncode == 2
    assert "ConfigError" in proc.stderr


def test_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: `validate` and a rate run work
    # when every scipy import fails
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from hypercell.cli import dispatch\n"
        "sys.exit(dispatch(sys.argv[1:]))\n"
    )
    proc = _run_child("-c", code, "validate")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "24/24 checks passed"
    path = tmp_path / "ball_iso.json"
    path.write_text(json.dumps({**BALL_ISO, "reps": 2}))
    proc = _run_child("-c", code, "rate", "--config", str(path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "o")) == ["rate.csv", "rate.json"]


def test_import_loads_no_scipy():
    # no module imports scipy; an import would cost set-up time and memory
    proc = _run_child("-c", "import sys, hypercell; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cap_starved_3d_loads_no_scipy():
    # the band measures of a d >= 3 cap-starved law are closed forms
    code = (
        "import sys\n"
        "from hypercell import direction as dn, rng\n"
        "law = dn.cap_starved([0, 0, 1], lambda n: n ** -0.25, 64, lambda n: 1.0 / n ** 2)\n"
        "U = law.sample_batch(rng.stream(1, 'law'), 1000)\n"
        "print(law.cap_mass(0.9) > 0, law.density(U).min() > 0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = _run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["True True", "[]", ""]


def test_polytope_3d_rate_loads_no_scipy():
    # the facets of a 3-d core come from the package's own enumerator, by polar duality
    code = (
        "import sys\n"
        "from hypercell import direction as dn, experiment as ex, geom\n"
        "cube = geom.Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])\n"
        "law = dn.Atomic([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [1 / 6] * 6)\n"
        "result = ex.run_rate(ex.RateRunConfig(cube, law, [64, 256], reps=2, seed=42))\n"
        "print(len(cube.facets), all(e['median_delta'] > 0 for e in result.per_n))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = _run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["6 True", "[]", ""]


def test_serial_run_loads_no_pool_or_quadrature_rule():
    # the process pool is imported only for threads > 1, and the Gauss-Legendre
    # rule (numpy.polynomial) only by the first quadrature
    code = (
        "import sys, hypercell\n"
        "from hypercell import direction as dn, experiment as ex, geom\n"
        "lazy = ('multiprocessing', 'concurrent.futures', 'numpy.polynomial')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "ex.run_rate(ex.RateRunConfig(geom.Ball([0, 0], 1.0), dn.Isotropic(2), [8, 16], reps=2, seed=1))\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "dn.integrate(dn.Isotropic(2), lambda U: U[:, 0] ** 2)\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    proc = _run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", "['numpy.polynomial']", ""]
