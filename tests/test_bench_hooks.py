"""The benchmark tracer's hooks name attributes that exist, and come off cleanly.

`perfbench/tracer.py` wraps hypercell's layer boundaries by attribute name.
A rename in the package must fail here, not first in a traced benchmark pass.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_uninstall_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from hypercell import _kernels, cell, direction, experiment, geom, metrics, rng

    owners = [_kernels, cell, experiment, metrics, rng, geom.Ball, geom.Polytope, geom.BallSum,
              metrics.ExcessEvaluator, direction.Isotropic, direction.Atomic,
              direction.DensityOnSphere, direction.CapStarved, direction.Mixture]
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert len({(id(owner), attr) for owner, attr, _ in patched}) == len(patched) >= 27
        for owner, attr, original in patched:
            assert owner in before, owner
            assert before[owner][attr] is original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[owner].keys()
        assert all(after[k] is v for k, v in before[owner].items()), owner


def test_every_workload_builds(monkeypatch):
    # a package API change that breaks the benchmark's set-up fails here, not in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name in workloads.NAMES:
        calls = [call for block in workloads.blocks(name, 1) for call in block]
        assert calls, name
        for call in calls:
            if call.kind == "mu":
                sweep = workloads.mu_sweep(*call.cfg)
                assert sweep.errors == [None] * len(sweep.eps), sweep.errors
                assert sweep.fit is not None


def test_tracer_counts_every_annulus_sample(monkeypatch):
    # the window rings and the one band of a two-level grid each sample once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from hypercell import cell, direction, geom, process
    from hypercell.rng import KeyedStream

    params = process.ProcessParams(1.0, direction.Isotropic(2), 2)
    tracer = Tracer()
    tracer.install()
    try:
        cells = cell.cells_along_intensity(params, geom.Ball([0, 0], 1.0), [4, 16], stream_key=KeyedStream(3, 0))
    finally:
        tracer.uninstall()
    assert tracer.calls["process.sample"] == cells[0].stats.rounds + 1
    assert tracer.counts["process.hyperplanes"] > 0


def test_facets_are_not_booked_to_the_cell_intersection(monkeypatch):
    # a 3-d core builds its facets on its first distance, with the enumerator
    # itself: `cell.intersect` times the cells of a run and nothing else
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from hypercell import geom

    cube = geom.Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    tracer = Tracer()
    tracer.install()
    try:
        assert abs(cube.distance([3.0, 0.0, 0.0]) - 2.0) <= 1e-12
    finally:
        tracer.uninstall()
    assert tracer.calls["geom.distance"] == 1
    assert tracer.calls["cell.intersect"] == 0
    assert len(cube.facets) == 6
