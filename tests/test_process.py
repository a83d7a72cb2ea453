import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency, kstest

from hypercell import direction as dn
from hypercell import geom, process
from hypercell.errors import AnnulusOverflow, OriginOutside
from hypercell.rng import poisson_variate, stream

from oracles import outer_parallel, sample_annulus_two_bodies, sample_hitting


def cap_budget(n):
    return math.inf if n <= 1 else abs(math.log1p(-(n**-2)))


@pytest.fixture
def params_iso(iso):
    return process.ProcessParams(1.0, iso, 2)


class TestProcessParams:
    def test_rejects_nonpositive_intensity(self, iso):
        with pytest.raises(ValueError):
            process.ProcessParams(0.0, iso, 2)

    def test_rejects_nan_intensity(self, iso):
        with pytest.raises(ValueError):
            process.ProcessParams(math.nan, iso, 2)

    def test_rejects_degenerate_distribution(self):
        axis_only = dn.Atomic.symmetrized([[1, 0]], [1.0])
        with pytest.raises(ValueError):
            process.ProcessParams(1.0, axis_only, 2)

    @pytest.mark.parametrize("gamma", [0.0, -2.0, math.nan])
    def test_with_gamma_rejects_nonpositive_intensity(self, facet_atoms, gamma):
        with pytest.raises(ValueError):
            process.ProcessParams(1.0, facet_atoms, 2).with_gamma(gamma)

    def test_with_gamma_checks_only_the_intensity(self, facet_atoms, monkeypatch):
        params = process.ProcessParams(1.0, facet_atoms, 2)
        monkeypatch.setattr(dn, "nondegenerate", lambda dist: pytest.fail("law checked again"))
        got = params.with_gamma(3.5)
        monkeypatch.undo()
        assert got == process.ProcessParams(3.5, facet_atoms, 2)
        assert params.gamma == 1.0


class TestPhiFunctional:
    def test_ball_closed_form(self, iso, ball):
        for gamma in (1.0, 3.0, 17.5):
            params = process.ProcessParams(gamma, iso, 2)
            assert process.phi_functional(params, ball) == pytest.approx(2 * gamma, abs=1e-9)

    def test_square_isotropic_cauchy(self, params_iso, square):
        assert process.phi_functional(params_iso, square) == pytest.approx(8 / math.pi, abs=1e-6)

    @pytest.mark.parametrize("name", ["square_rotated", "triangle"])
    def test_isotropic_is_perimeter_over_pi(self, params_iso, name):
        # Cauchy: 2 * mean support = perimeter / pi; the body's kinks split the panels
        c, s = math.cos(0.123), math.sin(0.123)
        vertices = {
            "square_rotated": np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) @ np.array([[c, s], [-s, c]]),
            "triangle": np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]]),
        }[name]
        perimeter = np.linalg.norm(vertices - np.roll(vertices, 1, axis=0), axis=1).sum()
        got = process.phi_functional(params_iso, geom.Polytope(vertices))
        assert abs(got - perimeter / math.pi) <= 1e-13

    def test_square_atomic(self, square, facet_atoms):
        params = process.ProcessParams(1.0, facet_atoms, 2)
        assert process.phi_functional(params, square) == pytest.approx(2.0, abs=1e-12)


class TestSampleHitting:
    def test_count_mean(self, iso, ball):
        params = process.ProcessParams(3.0, iso, 2)
        rng = stream(11, "mean")
        counts = [len(sample_hitting(params, ball, rng)[1]) for _ in range(10_000)]
        mean = float(np.mean(counts))
        sigma = math.sqrt(6.0 / 10_000)
        assert abs(mean - 6.0) < 3 * sigma

    def test_every_sample_hits(self, params_iso, square):
        rng = stream(12, "hit")
        for _ in range(200):
            U, T = sample_hitting(params_iso, square, rng)
            assert U.shape == (len(T), 2)
            assert np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-12)
            assert np.all(T > 0)
            assert np.all(T <= square.support_batch(U))

    def test_offsets_uniform(self, iso, ball):
        params = process.ProcessParams(40.0, iso, 2)
        rng = stream(13, "t")
        ts = []
        while len(ts) < 30_000:
            ts.extend(sample_hitting(params, ball, rng)[1].tolist())
        assert kstest(np.array(ts[:30_000]), "uniform").statistic < 1.63 / math.sqrt(30_000)

    def test_direction_cap_fraction(self, square, iso):
        params = process.ProcessParams(60.0, iso, 2)
        rng = stream(14, "cap")
        axis = np.array([1.0, 0.0])
        thresh = math.cos(0.5)
        in_cap = total = 0
        while total < 100_000:
            U, T = sample_hitting(params, square, rng)
            in_cap += int((U @ axis >= thresh).sum())
            total += len(T)
        kinks = geom.kink_angles(square)
        cap = lambda V: square.support_batch(V) * (V @ axis >= thresh)
        num = dn.integrate(iso, cap, breaks=np.concatenate([kinks, [-0.5, 0.5]]))
        den = dn.integrate(iso, square.support_batch, breaks=kinks)
        p = num / den
        assert abs(in_cap / total - p) < 3 * math.sqrt(p * (1 - p) / total)

    def test_origin_must_be_interior(self, params_iso):
        shifted = geom.Ball([0, 0], 1.0)
        shifted.center = np.array([5.0, 0.0])  # defeat normalization on purpose
        with pytest.raises(OriginOutside):
            sample_hitting(params_iso, shifted, stream(15, "x"))


class TestSampleAnnulus:
    def test_mean_count(self, iso, ball):
        params = process.ProcessParams(1.0, iso, 2)
        rng = stream(16, "ann")
        counts = [len(process.sample_annulus(params, ball, 0.0, 1.0, rng)[1]) for _ in range(10_000)]
        sigma = math.sqrt(2.0 / 10_000)
        assert abs(float(np.mean(counts)) - 2.0) < 3 * sigma

    def test_outputs_miss_inner(self, params_iso, square):
        outer = outer_parallel(square, 0.8)
        rng = stream(17, "miss")
        for _ in range(300):
            U, T = process.sample_annulus(params_iso, square, 0.0, 0.8, rng)
            assert np.all(np.abs(np.linalg.norm(U, axis=1) - 1.0) <= 1e-12)
            assert np.all(T > square.support_batch(U) - 1e-12)
            assert np.all(T <= outer.support_batch(U) + 1e-12)

    def test_superposition_vs_thinning(self, iso, ball):
        # filtering a hitting sample of the outer window to the annulus must
        # match direct annulus sampling in distribution of counts
        params = process.ProcessParams(2.0, iso, 2)
        outer = outer_parallel(ball, 1.0)
        rng = stream(18, "thin")
        reps = 4000
        filtered = []
        for _ in range(reps):
            U, T = sample_hitting(params, outer, rng)
            filtered.append(int((T > ball.support_batch(U)).sum()))
        direct = [len(process.sample_annulus(params, ball, 0.0, 1.0, rng)[1]) for _ in range(reps)]
        top = max(max(filtered), max(direct))
        f = np.bincount(filtered, minlength=top + 1)
        d = np.bincount(direct, minlength=top + 1)
        keep = (f + d) >= 10
        _, pval, _, _ = chi2_contingency(np.vstack([f[keep], d[keep]]))
        assert pval > 1e-3

    def test_gap_uniform(self, iso, square):
        params = process.ProcessParams(200.0, iso, 2)
        rng = stream(28, "gap")
        r_in, r_out = 0.5, 1.5
        gaps = []
        while len(gaps) < 30_000:
            U, T = process.sample_annulus(params, square, r_in, r_out, rng)
            gaps.extend(((T - square.support_batch(U) - r_in) / (r_out - r_in)).tolist())
        assert kstest(np.array(gaps[:30_000]), "uniform").statistic < 1.63 / math.sqrt(30_000)

    def test_cap_starved_cap_fraction(self, square):
        # the normals follow the bare law: each cap holds its exact mass,
        # inside the starved caps and in the outside band alike
        law = dn.cap_starved([1, 0], lambda n: n**-0.25, 64, cap_budget)
        params = process.ProcessParams(50.0, law, 2)
        rng = stream(29, "cap")
        cosines = []
        while len(cosines) < 200_000:
            U, _ = process.sample_annulus(params, square, 0.0, 1.0, rng)
            cosines.extend((U @ law.axis).tolist())
        cosines = np.array(cosines)
        assert math.cos(0.9) > math.cos(law.cap_angles[0])  # inside the caps
        for thresh in (math.cos(0.9), math.cos(0.5 * (law.cap_angles[0] + math.pi / 2))):
            p = law.cap_mass(thresh)
            emp = float((cosines >= thresh).mean())
            assert abs(emp - p) < 3 * math.sqrt(p * (1 - p) / len(cosines))

    def test_origin_must_be_interior(self, params_iso):
        shifted = geom.Ball([0, 0], 1.0)
        shifted.center = np.array([5.0, 0.0])  # defeat normalization on purpose
        with pytest.raises(OriginOutside):
            process.sample_annulus(params_iso, shifted, 0.0, 1.0, stream(30, "x"))

    def test_same_seed_identical(self, iso, square):
        params = process.ProcessParams(10.0, iso, 2)
        Ua, Ta = process.sample_annulus(params, square, 0.5, 1.5, stream(31, "det"))
        Ub, Tb = process.sample_annulus(params, square, 0.5, 1.5, stream(31, "det"))
        assert len(Ta) > 0
        assert np.array_equal(Ua, Ub) and np.array_equal(Ta, Tb)

    RADII = [(0.0, 0.5), (0.0, 2.0), (0.5, 1.0), (1.0, 3.0), (2.5, 2.75)]

    def _against_two_bodies(self, body, dist, seed):
        """Draws of the sampler and of the two-body reference from equal streams."""
        params = process.ProcessParams(8.0, dist, body.dim)
        for k, (r_in, r_out) in enumerate(self.RADII):
            inner = body if r_in == 0.0 else outer_parallel(body, r_in)
            outer = outer_parallel(body, r_out)
            got_rng, want_rng = stream(seed, "pair", k), stream(seed, "pair", k)
            for _ in range(40):
                got = process.sample_annulus(params, body, r_in, r_out, got_rng)
                want = sample_annulus_two_bodies(params, inner, outer, r_out - r_in, want_rng)
                yield got, want

    @pytest.mark.parametrize("body_name", ["ball", "ball3d", "square"])
    def test_equals_two_body_reference(self, body_name, square):
        body = {
            "ball": geom.Ball([0, 0], 1.0),
            "ball3d": geom.Ball([0, 0, 0], 1.0),
            "square": square,
        }[body_name]
        drawn = 0
        for (U, T), (U_ref, T_ref) in self._against_two_bodies(body, dn.Isotropic(body.dim), 21):
            assert U.tobytes() == U_ref.tobytes() and T.tobytes() == T_ref.tobytes()
            drawn += len(T)
        assert drawn > 1000

    def test_stadium_within_rounding_of_two_body_reference(self, stadium, iso):
        # a BallSum body adds its radius and r separately: (h + R) + r, not h + (R + r)
        drawn = 0
        for (U, T), (U_ref, T_ref) in self._against_two_bodies(stadium, iso, 22):
            assert U.tobytes() == U_ref.tobytes()
            assert np.all(np.abs(T - T_ref) <= 1e-15 * T_ref)
            drawn += len(T)
        assert drawn > 1000

    def test_refuses_mean_over_budget(self, iso, ball):
        # a mean of 3.2e7 hyperplanes is refused before anything is drawn
        params = process.ProcessParams(16.0, iso, 2)
        tracemalloc.start()
        try:
            with pytest.raises(AnnulusOverflow) as exc:
                process.sample_annulus(params, ball, 0.0, 1e6, stream(18, "budget"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert str(exc.value) == (
            "annulus (0, 1e+06] at intensity 16 has a Poisson mean of 3.2e+07 hyperplanes, "
            "above the budget of 16777216"
        )

    @pytest.mark.parametrize(
        "r_in, r_out",
        [(-0.1, 1.0), (1.0, 1.0), (1.0, 0.5), (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf)],
    )
    def test_rejects_bad_radii(self, params_iso, ball, r_in, r_out):
        with pytest.raises(ValueError):
            process.sample_annulus(params_iso, ball, r_in, r_out, stream(19, "bad"))


class TestDeterminism:
    def test_same_seed_identical(self, iso, ball):
        params = process.ProcessParams(10.0, iso, 2)
        Ua, Ta = sample_hitting(params, ball, stream(24, "det"))
        Ub, Tb = sample_hitting(params, ball, stream(24, "det"))
        assert len(Ta) > 0
        assert np.array_equal(Ua, Ub) and np.array_equal(Ta, Tb)


class TestPoissonVariate:
    @pytest.mark.parametrize("mean", [0.5, 7.0, 29.9, 30.1, 200.0])
    def test_moments(self, mean):
        rng = stream(26, "pois", int(mean * 10))
        draws = np.array([poisson_variate(rng, mean) for _ in range(20_000)])
        assert abs(draws.mean() - mean) < 4 * math.sqrt(mean / 20_000)
        assert abs(draws.var() - mean) < 5 * mean / math.sqrt(20_000) + 0.05 * mean

    def test_zero_mean(self):
        assert poisson_variate(stream(27, "z"), 0.0) == 0
