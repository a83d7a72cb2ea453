import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import ConvexHull
from scipy.stats import kstest

from hypercell import direction as dn
from hypercell import geom, process
from hypercell.errors import InfeasibleBudget, RejectionStall, UnsupportedBody
from hypercell.rng import stream

from oracles import (
    cap_starved_density_loop,
    cap_starved_polar_uniform,
    piecewise_quad_integral,
    square_mean_support_oracle,
)


def cap_budget(n):
    if n <= 1:
        return math.inf
    return abs(math.log1p(-(n**-2)))


def rotated_square(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) @ np.array([[c, s], [-s, c]])


def perimeter_case(name):
    """A planar body and its perimeter, from scipy's hull (a segment core counts twice)."""
    rng = stream(40, "perimeter")
    angles = rng.uniform(0.0, 2 * math.pi, 3)
    polygons = [rng.standard_normal((7, 2)) for _ in range(4)]
    triangle = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    core, radius = {
        **{f"square_{i}": (rotated_square(a), 0.0) for i, a in enumerate(angles)},
        "triangle": (triangle, 0.0),
        **{f"polygon_{i}": (p, 0.0) for i, p in enumerate(polygons)},
        "stadium": (np.array([[-1.0, 0.0], [1.0, 0.0]]), 1.0),
        "triangle_ballsum": (triangle, 0.3),
    }[name]
    if len(core) == 2:
        perimeter = 2 * float(np.linalg.norm(core[1] - core[0]))
    else:
        perimeter = ConvexHull(core).area  # in the plane, the hull's boundary length
    body = geom.BallSum(core, radius) if radius else geom.Polytope(core)
    return body, perimeter + 2 * math.pi * radius


PERIMETER_CASES = (
    [f"square_{i}" for i in range(3)]
    + ["triangle"]
    + [f"polygon_{i}" for i in range(4)]
    + ["stadium", "triangle_ballsum"]
)


def nan_at(values, i):
    """A copy of values with entry i set to NaN."""
    out = np.array(values, dtype=np.float64)
    out[i] = math.nan
    return out


def cap_starved_with(law, **change):
    """The cap-starved law's constructor arguments, some of them changed."""
    args = dict(axis=law.axis, cap_angles=law.cap_angles, cap_masses=law.cap_masses, outside_mass=law.outside_mass)
    return dn.CapStarved(**{**args, **change})


@pytest.fixture
def starved():
    return dn.cap_starved([1, 0], lambda n: n**-0.25, 64, cap_budget, radius=1.0)


class TestSampling:
    def test_atomic_frequencies(self, facet_atoms):
        rng = stream(1, "atomic")
        U = facet_atoms.sample_batch(rng, 100_000)
        freq = float((U @ np.array([1.0, 0.0]) > 0.5).mean())
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(freq - 0.25) < 3 * sigma

    def test_atomic_support_only(self, facet_atoms):
        rng = stream(2, "atomic")
        U = facet_atoms.sample_batch(rng, 1000)
        best = np.abs(U @ facet_atoms.atoms.T).max(axis=1)
        assert np.all(best > 1 - 1e-12)

    def test_isotropic_angle_uniform(self, iso):
        rng = stream(3, "iso")
        U = iso.sample_batch(rng, 100_000)
        angles = (np.arctan2(U[:, 1], U[:, 0]) % (2 * math.pi)) / (2 * math.pi)
        assert kstest(angles, "uniform").statistic < 1.63 / math.sqrt(100_000)

    def test_degenerate_mixture_passes_through(self, facet_atoms):
        mix = dn.Mixture([(1.0, dn.Atomic.symmetrized([[0, 1]], [1.0]))])
        rng = stream(4, "mix")
        U = mix.sample_batch(rng, 500)
        assert np.all(np.abs(np.abs(U[:, 1]) - 1.0) < 1e-12)

    def test_rejection_stall_raises(self):
        bad = dn.DensityOnSphere(lambda U: np.ones(len(np.atleast_2d(U))), 1e9, 2)
        with pytest.raises(RejectionStall):
            bad.sample_batch(stream(5, "stall"), 10)

    def test_evenness_all_variants(self, iso, facet_atoms, starved):
        w = np.array([0.6, 0.8])
        for i, dist in enumerate((iso, facet_atoms, starved)):
            U = dist.sample_batch(stream(6, "even", i), 50_000)
            frac = float((U @ w > 0).mean())
            assert abs(frac - 0.5) < 2.58 * 0.5 / math.sqrt(50_000)


class TestIntegrate:
    def test_isotropic_ball_support_exact(self, iso, ball):
        assert dn.integrate(iso, ball.support_batch) == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_square_support_cauchy(self, iso, square):
        oracle = square_mean_support_oracle()
        assert oracle == pytest.approx(4 / math.pi, abs=1e-12)
        assert dn.integrate(iso, square.support_batch) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("name", PERIMETER_CASES)
    def test_isotropic_mean_support_is_perimeter_over_2pi(self, iso, name):
        # Cauchy's formula; the support function is smooth between the kinks
        body, perimeter = perimeter_case(name)
        got = dn.integrate(iso, body.support_batch, breaks=geom.kink_angles(body))
        assert abs(got - perimeter / (2 * math.pi)) <= 1e-13

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.1])
    def test_cap_starved_equals_piecewise_quad(self, angle):
        # the counterexample's law, 256 pieces, against a rotated square
        law = dn.cap_starved([1, 0], lambda n: n**-0.25, 256, cap_budget, radius=1.0)
        square = geom.Polytope(rotated_square(angle))
        kinks = geom.kink_angles(square)
        got = dn.integrate(law, square.support_batch, breaks=kinks)
        assert abs(got - piecewise_quad_integral(law, square.support_batch, kinks)) <= 1e-12

    def test_smooth_density_equals_piecewise_quad(self):
        g = lambda U: 1.0 + 0.5 * (U[:, 0] ** 2 - U[:, 1] ** 2) + 0.4 * U[:, 0] * U[:, 1]
        law = dn.DensityOnSphere(g, 1.8, 2)
        square = geom.Polytope(rotated_square(0.3))
        kinks = geom.kink_angles(square)
        got = dn.integrate(law, square.support_batch, breaks=kinks)
        assert abs(got - piecewise_quad_integral(law, square.support_batch, kinks)) <= 1e-12

    def test_atomic_exact(self, facet_atoms, square):
        assert dn.integrate(facet_atoms, square.support_batch) == pytest.approx(1.0, abs=1e-15)

    def test_constant_normalization(self, iso, facet_atoms, starved):
        for dist in (iso, facet_atoms, starved, dn.Mixture([(0.5, facet_atoms), (0.5, iso)])):
            assert dn.integrate(dist, lambda U: np.ones(len(U))) == pytest.approx(1.0, abs=1e-9)

    def test_integrand_must_return_one_value_per_row(self, iso, facet_atoms):
        for dist in (iso, facet_atoms):
            with pytest.raises(ValueError, match=r"shape \(\d+, 2\)"):
                dn.integrate(dist, lambda U: np.ones((len(U), 2)))

    def test_atomic_equals_bruteforce(self, square):
        at = dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.7, 0.3])
        brute = sum(w * square.support(u) for u, w in zip(at.atoms, at.weights))
        assert dn.integrate(at, square.support_batch) == pytest.approx(brute, abs=1e-15)

    def test_cube_axis_atoms_exact(self, cube):
        # each of the six atoms +-e_i carries 1/6 and meets a facet at support 1;
        # the six rounded weights sum to 1 - 2^-53
        law = dn.Atomic.symmetrized(np.eye(3), [1 / 3] * 3)
        assert dn.integrate(law, cube.support_batch) == pytest.approx(1.0, abs=1e-15)


class TestPartSupport:
    """The support tests read the flattened parts: any continuous part means full support."""

    def test_atomic(self, facet_atoms, square, ball):
        assert dn.nondegenerate(facet_atoms)
        assert dn.supports_approximation(square, facet_atoms)
        assert not dn.supports_approximation(ball, facet_atoms)

    def test_isotropic(self, iso, square, ball, stadium):
        assert dn.nondegenerate(iso)
        assert all(dn.supports_approximation(body, iso) for body in (square, ball, stadium))

    def test_mixture_with_full_component(self, iso, facet_atoms, ball):
        mix = dn.Mixture([(0.5, facet_atoms), (0.5, iso)])
        assert dn.nondegenerate(mix)
        assert dn.supports_approximation(ball, mix)

    def test_mixture_of_atomics(self, square, ball):
        a = dn.Atomic.symmetrized([[1, 0]], [1.0])
        b = dn.Atomic.symmetrized([[0, 1]], [1.0])
        mix = dn.Mixture([(0.5, a), (0.5, b)])
        # each component alone lies on a great subsphere; their four atoms span the plane
        assert not dn.nondegenerate(a) and not dn.nondegenerate(b)
        assert dn.nondegenerate(mix)
        assert dn.supports_approximation(square, mix)
        assert not dn.supports_approximation(square, a)
        assert not dn.supports_approximation(ball, mix)

    def test_isotropic_3d(self, ball3):
        law = dn.Isotropic(3)
        assert dn.nondegenerate(law)
        assert process.ProcessParams(1.0, law, 3).dist is law
        assert dn.supports_approximation(ball3, law)
        assert not dn.supports_approximation(ball3, dn.Atomic.symmetrized(np.eye(3), [1 / 3] * 3))

    def test_3d_cap_starved_mixture_with_subsphere_atoms(self, ball3):
        starved3 = dn.cap_starved([0, 0, 1], lambda n: n**-0.25, 16, cap_budget, radius=1.0)
        equator = dn.Atomic.symmetrized([[1, 0, 0], [0, 1, 0]], [0.5, 0.5])
        mix = dn.Mixture([(0.5, starved3), (0.5, equator)])
        assert not dn.nondegenerate(equator)
        assert dn.nondegenerate(mix)
        assert dn.supports_approximation(ball3, mix)
        with pytest.raises(UnsupportedBody, match="CapStarved"):
            dn.exact_parts(mix)


class TestFlattening:
    @pytest.fixture
    def nested(self, iso, facet_atoms, starved):
        # weights 0.3, 0.7, 0.1 multiply to different bits in the two groupings
        assert (0.3 * 0.7) * 0.1 != 0.3 * (0.7 * 0.1)
        other = dn.Atomic.symmetrized([[0.6, 0.8]], [1.0])
        inner = dn.Mixture([(0.1, facet_atoms), (0.9, iso)])
        middle = dn.Mixture([(0.7, inner), (0.3, starved)])
        return dn.Mixture([(0.3, middle), (0.7, other)]), [facet_atoms, iso, starved, other]

    def test_parts_in_component_order_with_outer_first_weights(self, nested):
        law, leaves = nested
        parts = dn.exact_parts(law)
        assert [part for _, part in parts] == leaves
        want = [((1.0 * 0.3) * 0.7) * 0.1, ((1.0 * 0.3) * 0.7) * 0.9, (1.0 * 0.3) * 0.3, 1.0 * 0.7]
        assert [w.tobytes() for w, _ in parts] == [np.float64(w).tobytes() for w in want]

    def test_each_part_is_atomic_or_continuous(self, nested):
        atomic, iso, starved, other = (part for _, part in dn.exact_parts(nested[0]))
        assert atomic.atoms.shape == (4, 2) and other.atoms.shape == (2, 2)
        assert iso.atoms is None and iso.density is None and len(iso.breaks) == 0
        assert starved.atoms is None and len(starved.breaks) == 4 * len(starved.cap_angles)

    def test_integrate_equals_weighted_part_integrals(self, nested, square):
        law, _ = nested
        kinks = geom.kink_angles(square)
        total = 0.0
        for w, part in dn.exact_parts(law):
            total += w * dn.integrate(part, square.support_batch, breaks=kinks)
        assert dn.integrate(law, square.support_batch, breaks=kinks).hex() == total.hex()


class TestSupportsApproximation:
    def test_truth_table(self, square, ball, stadium, iso, facet_atoms):
        expected = {
            ("square", "atomic"): True,
            ("square", "iso"): True,
            ("ball", "atomic"): False,
            ("ball", "iso"): True,
            ("stadium", "atomic"): False,
            ("stadium", "iso"): True,
        }
        bodies = {"square": square, "ball": ball, "stadium": stadium}
        dists = {"atomic": facet_atoms, "iso": iso}
        got = {
            (bn, dname): dn.supports_approximation(b, d)
            for bn, b in bodies.items()
            for dname, d in dists.items()
        }
        assert got == expected

    def test_rotated_square_fails_axis_atoms(self, facet_atoms):
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        rotated = geom.Polytope((R @ np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]).T).T)
        assert not dn.supports_approximation(rotated, facet_atoms)


class TestFromSurfaceMeasure:
    def test_square_gives_facet_atoms(self, square):
        dist = dn.from_surface_measure(square, 0.0)
        assert isinstance(dist, dn.Atomic)
        assert np.allclose(dist.weights, 0.25)

    def test_ball_gives_isotropic(self, ball):
        assert isinstance(dn.from_surface_measure(ball, 0.0), dn.Isotropic)

    def test_stadium_mass_split(self, stadium):
        dist = dn.from_surface_measure(stadium, 0.0)
        assert isinstance(dist, dn.Mixture)
        sm = geom.surface_measure(stadium)
        atom_mass = sum(w for _, w in sm.atoms)
        expected_atomic_weight = atom_mass / sm.total_mass
        kinds = {type(c).__name__: w for w, c in zip(dist.weights, dist.components)}
        assert kinds["Atomic"] == pytest.approx(expected_atomic_weight, abs=1e-12)
        assert kinds["Isotropic"] == pytest.approx(1 - expected_atomic_weight, abs=1e-12)

    def test_mix_blends_isotropic(self, square):
        dist = dn.from_surface_measure(square, 0.25)
        assert isinstance(dist, dn.Mixture)
        assert dn.supports_approximation(geom.Ball([0, 0], 1.0), dist)  # full support

    def test_support_matches_surface_measure_support(self, square, ball, stadium):
        for body in (square, ball, stadium):
            law = dn.from_surface_measure(body, 0.0)
            assert dn.supports_approximation(body, law)
            # a ball's smooth boundary needs full support, which a smooth part gives
            assert dn.supports_approximation(ball, law) == geom.surface_measure(body).has_density


class TestCapStarved:
    def test_budget_satisfied_with_margin(self, starved):
        # oracle: cap masses recovered by 1-d quadrature of the stored density
        for n in range(1, 65):
            eps = n**-0.25
            thresh = 1 / (1 + eps)
            angle = math.acos(thresh)
            dens = lambda t: starved.density(np.array([[math.cos(t), math.sin(t)]]))[0]
            pieces = [a for a in np.concatenate([starved.cap_angles, -starved.cap_angles]) if -angle < a < angle]
            mass, _ = quad(dens, -angle, angle, points=sorted(pieces), limit=300)
            mass /= 2 * math.pi
            assert mass == pytest.approx(starved.cap_mass(thresh), abs=1e-9)
            assert 2 * n * eps * mass < 1.01 * n**-2

    def test_bookkeeping_exact_at_boundaries(self, starved):
        for n in (1, 2, 31, 64):
            eps = n**-0.25
            assert starved.cap_mass(1 / (1 + eps)) == pytest.approx(
                starved.cap_masses[n - 1], abs=1e-12
            )

    def test_sampled_mean_vanishes(self, starved):
        U = starved.sample_batch(stream(7, "cs"), 100_000)
        assert np.abs(U.mean(axis=0)).max() < 4 / math.sqrt(100_000)

    def test_empirical_cap_frequency(self, starved):
        rng = stream(8, "csfreq")
        U = starved.sample_batch(rng, 200_000)
        for n in (2, 5):
            thresh = 1 / (1 + n**-0.25)
            p = starved.cap_mass(thresh)
            emp = float((U @ starved.axis >= thresh).mean())
            assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / 200_000)

    def test_empirical_cap_frequency_3d(self):
        starved3 = dn.cap_starved([0, 0, 1], lambda n: n**-0.25, 64, cap_budget, radius=1.0)
        U = starved3.sample_batch(stream(11, "csfreq3"), 200_000)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0)
        for n in (2, 5, 20):
            thresh = 1 / (1 + n**-0.25)
            p = starved3.cap_mass(thresh)
            for sign in (1, -1):  # both caps of the even law
                emp = float((sign * U @ starved3.axis >= thresh).mean())
                assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / 200_000)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_band_sigma_equals_quad(self, dim):
        # every band of laws with 64 and 4096 pieces (the narrowest some
        # 1e-5 wide), partial bands as cap_mass cuts them, and random bands
        axis = np.eye(dim)[0]
        rng = stream(13, "bands", dim)
        for n_max in (64, 4096):
            law = dn.cap_starved(axis, lambda n: n**-0.25, n_max, cap_budget, radius=1.0)
            bands = law._piece_angles + [(law.cap_angles[0], math.pi - law.cap_angles[0])]
            bands += [(lo, lo + (hi - lo) * f) for (lo, hi), f in zip(bands[::50], rng.random(len(bands)))]
            bands += [tuple(sorted(rng.uniform(0.0, math.pi, 2))) for _ in range(20)]
            for lo, hi in bands:
                want = geom.sphere_area(dim - 1) * quad(lambda t: math.sin(t) ** (dim - 2), lo, hi)[0]
                assert law._band_sigma(lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_planar_band_sigma_is_twice_the_width(self, starved):
        # sphere_area(1) is exactly 2 and the sin^0 integral is hi - lo, so
        # the general formula gives the doubles of 2 (hi - lo) in the plane
        assert geom.sphere_area(1) == 2.0
        bands = np.sort(stream(13, "planar bands").uniform(0.0, math.pi, (100_000, 2)), axis=1).tolist()
        assert all(starved._band_sigma(lo, hi) == 2.0 * (hi - lo) for lo, hi in bands)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_polar_draw_equals_uniform_form(self, dim):
        # 3,000 seeded batches of 1-64 rows over every piece and the outside
        # band: the same angles, bit for bit, and the same doubles consumed
        law = dn.cap_starved(np.eye(dim)[0], lambda n: n**-0.25, 256, cap_budget, radius=1.0)
        pick = stream(14, "polar-rows", dim)
        for seed in range(3000):
            idx = pick.integers(0, len(law._draw_lo), 1 + seed % 64)
            lo, hi = law._draw_lo[idx], law._draw_hi[idx]
            got_rng, want_rng = stream(seed, "polar", dim), stream(seed, "polar", dim)
            got = law._sample_polar(got_rng, lo, hi)
            assert got.tobytes() == cap_starved_polar_uniform(law, want_rng, lo, hi).tobytes()
            assert got_rng.random() == want_rng.random()

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudget):
            dn.cap_starved([1, 0], lambda n: n**-0.5, 8, lambda n: -1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_density_equals_piece_loop(self, dim):
        # the counterexample's law: 256 pieces, random directions plus
        # directions at, and one ulp either side of, every piece boundary
        axis = np.eye(dim)[0]
        law = dn.cap_starved(axis, lambda n: n**-0.25, 256, cap_budget, radius=1.0)
        U = stream(12, "dens", dim).standard_normal((200_000, dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        edges = np.concatenate([[0.0], law.cap_angles, np.pi - law.cap_angles, [np.pi / 2, np.pi]])
        theta = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        tang = np.eye(dim)[1]
        B = np.cos(theta)[:, None] * axis + np.sin(theta)[:, None] * tang
        for V in (U, B, -B):
            assert law.density(V).tobytes() == cap_starved_density_loop(law, V).tobytes()

    def test_full_support_density_positive(self, starved):
        rng = stream(9, "pos")
        U = rng.standard_normal((500, 2))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        assert starved.density(U).min() > 0


class TestSerialization:
    def test_round_trips(self, iso, facet_atoms, starved):
        mix = dn.Mixture([(0.25, facet_atoms), (0.75, iso)])
        for dist in (iso, facet_atoms, starved, mix):
            back = dn.distribution_from_json(dn.distribution_to_json(dist))
            assert type(back) is type(dist)
            rng = stream(10, "ser")
            U = back.sample_batch(rng, 200)
            assert U.shape == (200, 2)

    def test_density_not_serializable(self):
        d = dn.DensityOnSphere(lambda U: np.ones(len(np.atleast_2d(U))), 2.0, 2)
        with pytest.raises(ValueError):
            dn.distribution_to_json(d)


class TestValidation:
    def test_atomic_needs_antipodal_pairs(self):
        with pytest.raises(ValueError):
            dn.Atomic([[1, 0], [0, 1]], [0.5, 0.5])

    def test_atomic_needs_unit_mass(self):
        with pytest.raises(ValueError):
            dn.Atomic([[1, 0], [-1, 0]], [0.5, 0.4])

    def test_nondegenerate(self, iso, facet_atoms):
        assert dn.nondegenerate(iso)
        assert dn.nondegenerate(facet_atoms)
        assert not dn.nondegenerate(dn.Atomic.symmetrized([[1, 0]], [1.0]))

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda s: dn.Atomic([[math.nan, 0], [-1, 0]], [0.5, 0.5]), id="atomic-atom"),
            pytest.param(lambda s: dn.Atomic([[1, 0], [-1, 0]], [math.nan, 0.5]), id="atomic-weight"),
            pytest.param(lambda s: dn.Mixture([(0.5, dn.Isotropic(2)), (math.nan, dn.Isotropic(2))]), id="mixture"),
            pytest.param(lambda s: cap_starved_with(s, axis=[math.nan, 0]), id="cap-axis"),
            pytest.param(lambda s: cap_starved_with(s, cap_angles=nan_at(s.cap_angles, 0)), id="cap-angle-0"),
            pytest.param(lambda s: cap_starved_with(s, cap_angles=nan_at(s.cap_angles, -1)), id="cap-angle-1"),
            pytest.param(lambda s: cap_starved_with(s, cap_masses=nan_at(s.cap_masses, 1)), id="cap-mass"),
            pytest.param(lambda s: cap_starved_with(s, outside_mass=math.nan), id="cap-outside"),
            pytest.param(lambda s: dn.DensityOnSphere(lambda U: np.ones(len(U)), math.nan, 2), id="density-bound"),
            pytest.param(lambda s: dn.Isotropic(math.nan), id="isotropic-dim"),
        ],
    )
    def test_nan_parameter_refused(self, starved, build):
        # every check is written to fail on NaN; `x <= 0` alone lets NaN through
        with pytest.raises(ValueError):
            build(starved)

    def test_cap_starved_needs_caps(self):
        # an empty cap list used to fail on an index, outside the CLI's error codes
        with pytest.raises(ValueError, match="nonempty"):
            dn.CapStarved([1, 0], [], [], 1.0)


LAW_CLASSES = {"Isotropic", "Atomic", "DensityOnSphere", "CapStarved", "Mixture"}
JSON_CODEC = {"distribution_to_json", "distribution_from_json"}


def law_isinstance_calls(source: str) -> list:
    """Line numbers of `isinstance` calls on a law class outside the JSON codec."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and function not in JSON_CODEC
        ):
            named = {
                n.attr if isinstance(n, ast.Attribute) else n.id
                for n in ast.walk(node.args[1])
                if isinstance(n, (ast.Attribute, ast.Name))
            }
            if named & LAW_CLASSES:
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_law_guard_sees_class_checks():
    source = (
        "def distribution_to_json(d):\n    return isinstance(d, Atomic)\n"
        "def f(p):\n    return isinstance(p, (float, dn.CapStarved))\n"
        "def g(p):\n    return isinstance(p, Ball)\n"
    )
    assert law_isinstance_calls(source) == [4]


def test_no_law_class_isinstance_outside_json_codec():
    # every law is read through its parts (atoms or continuous), never by its class
    package = Path(dn.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := law_isinstance_calls(path.read_text()))
    }
    assert found == {}


def scipy_imports(source: str) -> list:
    """Line numbers of the `import scipy...` and `from scipy... import` statements in a module."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    )


def test_scipy_guard_sees_imports():
    source = "import numpy\ndef f():\n    from scipy.stats import kstest\n    import scipy.spatial as sp\nimport scipyx\n"
    assert scipy_imports(source) == [3, 4]


def test_only_validate_imports_scipy():
    # numpy is the only runtime dependency: no module imports scipy, the
    # invariant battery included (its statistics are closed forms)
    package = Path(dn.__file__).parent
    importers = {path.name for path in package.glob("*.py") if scipy_imports(path.read_text())}
    assert importers == set()


def private_numpy_uses(source: str) -> list:
    """Line numbers that import a private NumPy module or name, or reach one through `np.` / `numpy.`."""

    def private(parts):
        return any(p.startswith("_") and not p.endswith("__") for p in parts)

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [[*(node.module or "").split("."), a.name] for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [dotted(node)]
        else:
            continue
        if any(n and n[0] in ("numpy", "np") and private(n[1:]) for n in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_private_numpy_guard_sees_uses():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import _umath_linalg\n"
        "import numpy._core.multiarray\n"
        "x = np.linalg._umath_linalg.solve\n"
        "print(np.__version__, np.linalg.solve, numpy_like._x)\n"
        "from numpy import _core as c\n"
    )
    assert private_numpy_uses(source) == [2, 3, 4, 6]


def test_package_uses_no_private_numpy():
    # private NumPy modules (e.g. `numpy.linalg._umath_linalg`) change without notice between releases
    package = Path(dn.__file__).parent
    assert {path.name: lines for path in package.glob("*.py") if (lines := private_numpy_uses(path.read_text()))} == {}
