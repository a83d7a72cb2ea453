import bisect

import numpy as np
import pytest

from hypercell.rng import (
    KeyedStream,
    as_keyed_stream,
    categorical_cdf,
    categorical_variates,
    poisson_variate,
    stream,
)


class TestStreamKeying:
    def test_same_key_same_output(self):
        a = stream(42, "tag", 3).random(8)
        b = stream(42, "tag", 3).random(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(42, "tag", 3).random(8)
        b = stream(42, "tag", 4).random(8)
        c = stream(43, "tag", 3).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_tags_are_order_sensitive(self):
        a = stream(1, "ring", 0).random(4)
        b = stream(1, 0, "ring").random(4)
        assert not np.array_equal(a, b)

    def test_child_independent_of_sibling_consumption(self):
        key = KeyedStream(7, 2)
        r1 = key.child("ring", 0)
        r1.random(1000)  # consuming one child leaves siblings untouched
        a = key.child("ring", 1).random(4)
        b = KeyedStream(7, 2).child("ring", 1).random(4)
        assert np.array_equal(a, b)

    def test_descend_matches_flat_key(self):
        a = KeyedStream(5).descend("rep", 3).child("ring", 0).random(4)
        b = stream(5, "rep", 3, "ring", 0).random(4)
        assert np.array_equal(a, b)

    def test_as_keyed_stream(self):
        assert as_keyed_stream(9).key == (9,)
        ks = KeyedStream(9, 1)
        assert as_keyed_stream(ks) is ks
        with pytest.raises(TypeError):
            as_keyed_stream("nope")

    def test_rejects_bad_part_types(self):
        with pytest.raises(TypeError):
            stream(1, 2.5)


class TestPoissonVariate:
    def test_reproducible_across_regimes(self):
        for mean in (0.3, 12.0, 29.99, 30.0, 500.0):
            a = [poisson_variate(stream(3, "p"), mean) for _ in range(5)]
            b = [poisson_variate(stream(3, "p"), mean) for _ in range(5)]
            assert a == b

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_variate(stream(4, "n"), -1.0)


class TestCategoricalVariates:
    def test_equals_bisect_loop(self):
        # index i for each uniform u with cdf[i - 1] <= u < cdf[i], ties to the right
        tables = [[1.0], [0.5, 0.5], [0.2, 0.0, 0.3, 0.5], np.geomspace(1.0, 1e-9, 257)]
        for k, p in enumerate(tables):
            cdf = categorical_cdf(p)
            assert cdf[-1] == 1.0
            for n in (0, 1, 7, 300):
                got = categorical_variates(stream(6, k, n), cdf, n)
                u = stream(6, k, n).random(n)
                want = [bisect.bisect_right(cdf.tolist(), x) for x in u.tolist()]
                assert got.tolist() == want
