"""Reproducible random streams.

All randomness in the package flows through counter-based Philox
generators keyed by (master seed, *key parts).  Streams for distinct
keys are statistically independent, and a stream's output depends only
on its key, never on scheduling or on how many draws other streams have
made.  Replications, window rings and module-internal samplers each get
their own key, so parallel runs reproduce the single-threaded output
exactly.  `is_count` is the one integer check for seeds and counts.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "is_count",
    "stream",
    "KeyedStream",
    "as_keyed_stream",
    "poisson_variate",
    "categorical_cdf",
    "categorical_variates",
]

# Mean below which Poisson sampling walks the CDF; above it uses
# transformed rejection.  Keeping the variate algorithm in-package (rather
# than deferring to np.random's internal choice) pins the count sequence
# for a given uniform stream across numpy versions and platforms.
_POISSON_INVERSION_CUTOFF = 30.0


def is_count(value, least: int) -> bool:
    """Whether value is an integer >= least; a bool is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _encode_key_part(part) -> int:
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "little")
    if isinstance(part, (int, np.integer)):
        return int(part)
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def stream(master_seed: int, *key_parts) -> np.random.Generator:
    """Return the generator for key (master_seed, *key_parts).

    Key parts may be ints (e.g. replication index) or short strings
    (module tags such as "ring" or "direction").
    """
    entropy = [_encode_key_part(master_seed)] + [_encode_key_part(p) for p in key_parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


class KeyedStream:
    """Splittable handle around a stream key.

    `child(*parts)` derives an independent generator keyed by the
    extension of this key; two children with different part tuples never
    share output.  Cell construction keys each window ring separately so
    that enlarging the window extends the sample instead of reshuffling
    it.
    """

    def __init__(self, master_seed: int, *key_parts):
        self.key = (master_seed, *key_parts)

    def child(self, *parts) -> np.random.Generator:
        return stream(*self.key, *parts)

    def descend(self, *parts) -> "KeyedStream":
        return KeyedStream(*self.key, *parts)

    def __repr__(self):
        return f"KeyedStream{self.key!r}"


def as_keyed_stream(value) -> KeyedStream:
    """Coerce an int seed or KeyedStream into a KeyedStream."""
    if isinstance(value, KeyedStream):
        return value
    if isinstance(value, (int, np.integer)):
        return KeyedStream(int(value))
    raise TypeError(f"expected int seed or KeyedStream, got {type(value)!r}")


def _poisson_inversion(rng: np.random.Generator, mean: float) -> int:
    u = rng.random()
    p = math.exp(-mean)
    cum = p
    k = 0
    while u > cum:
        k += 1
        p *= mean / k
        cum += p
        if k > 40 + 20 * mean:  # guard against pathological rounding
            break
    return k

def _poisson_ptrs(rng: np.random.Generator, mean: float) -> int:
    # Hormann's transformed rejection with squeeze, stable for mean >= ~10.
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            k * log_mean - mean - math.lgamma(k + 1.0)
        ):
            return int(k)


def poisson_variate(rng: np.random.Generator, mean: float) -> int:
    """Draw one Poisson(mean) count from the given uniform stream."""
    if mean < 0:
        raise ValueError(f"Poisson mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0
    if mean < _POISSON_INVERSION_CUTOFF:
        return _poisson_inversion(rng, mean)
    return _poisson_ptrs(rng, mean)


def categorical_cdf(p) -> np.ndarray:
    """Normalized cumulative table of the probabilities p, for `categorical_variates`."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def categorical_variates(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """Draw n indices i with probability cdf[i] - cdf[i - 1], by inversion.

    Index i is drawn for a uniform u with cdf[i - 1] <= u < cdf[i].  This
    is what `Generator.choice(len(cdf), n, p=p)` does with replacement in
    numpy 2.x, without its per-call validation of p; keeping it here pins
    the draws to the uniform stream, as `poisson_variate` does.
    """
    return cdf.searchsorted(rng.random(n), side="right")
