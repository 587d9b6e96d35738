"""Key-popularity models.

The paper's clients pick keys "randomly and uniformly" from a slice's
range (S3.3.1); the zipfian model supports the skewed-workload ablation
that motivates the paper's future-work load-balance-aware scheduler.
The models compose into the production workload engine
(:mod:`repro.workloads.scenarios`):

* :class:`UniformKeyModel` -- every key equally likely;
* :class:`ZipfianKeyModel` -- zipf-skewed popularity with the hot ranks
  scattered over the whole range by a full-range affine permutation;
* :class:`HotSetShiftKeyModel` -- a compact hot set absorbing most of
  the traffic, whose location drifts through the keyspace over
  simulated time (cache-buster / trending-content behaviour).

Models are plain objects sampled with a caller-supplied numpy
``Generator``, so the same seed always produces the same key sequence.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

#: Multiplier seed for the affine rank permutation: the golden-ratio
#: constant used by Fibonacci hashing, decremented to the nearest value
#: coprime with the key span so the map stays a bijection.
_GOLDEN = 0x9E3779B97F4A7C15


def _coprime_multiplier(span: int) -> int:
    """The largest odd value <= ``_GOLDEN`` (mod span) coprime to span."""
    a = _GOLDEN % span
    if a < 2:
        a = span - 1 if span > 2 else 1
    while math.gcd(a, span) != 1:
        a -= 1
    return a


class KeyModel:
    """Base class: a deterministic key-popularity distribution.

    ``sample(rng, now_ns)`` draws one key; ``now_ns`` lets
    time-varying models (hot-set drift) shift with simulated time and
    is ignored by stationary ones.
    """

    lo: int
    hi: int

    def sample(self, rng: np.random.Generator, now_ns: int = 0) -> int:
        raise NotImplementedError


class UniformKeyModel(KeyModel):
    """Uniform popularity over [lo, hi)."""

    def __init__(self, lo: int, hi: int):
        if not lo < hi:
            raise ValueError("empty key range")
        self.lo = lo
        self.hi = hi

    def sample(self, rng: np.random.Generator, now_ns: int = 0) -> int:
        return int(rng.integers(self.lo, self.hi))

    def __repr__(self):
        return f"UniformKeyModel([{self.lo}, {self.hi}))"


class ZipfianKeyModel(KeyModel):
    """Zipf-skewed popularity: rank-1 hottest, scattered over the range.

    Uses a truncated zipf over ``max_rank`` ranks, which keeps sampling
    O(1) with a precomputed CDF.  Ranks map to keys through a
    *full-range* affine permutation ``key = lo + (rank * a + b) % span``
    with ``a`` coprime to ``span`` -- a bijection over the whole
    [lo, hi), so hot keys land everywhere in the keyspace (and thus on
    every slice/node) instead of piling into a prefix.
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        theta: float = 0.99,
        max_rank: int = 10_000,
    ):
        if not lo < hi:
            raise ValueError("empty key range")
        if not 0 < theta < 2:
            raise ValueError("theta should be in (0, 2)")
        if max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        self.lo = lo
        self.hi = hi
        self.theta = theta
        span = hi - lo
        self.n_ranks = min(max_rank, span)
        weights = 1.0 / np.arange(1, self.n_ranks + 1) ** theta
        self._cdf = np.cumsum(weights / weights.sum())
        #: The CDF as Python floats: ``bisect`` over it ranks a draw as
        #: ``np.searchsorted(self._cdf, draw)`` does, at a fraction of
        #: the cost of calling numpy for one scalar.
        self._cdf_list = self._cdf.tolist()
        self._a = _coprime_multiplier(span)
        self._b = (_GOLDEN >> 17) % span

    def rank_key(self, rank: int) -> int:
        """The key holding popularity rank ``rank`` (0 = hottest)."""
        span = self.hi - self.lo
        return self.lo + (rank * self._a + self._b) % span

    def sample(self, rng: np.random.Generator, now_ns: int = 0) -> int:
        # Float rounding can leave cdf[-1] < 1.0; a draw landing past it
        # would index one-off-the-end, so clamp to the last rank.
        rank = bisect_left(self._cdf_list, rng.random())
        if rank >= self.n_ranks:
            rank = self.n_ranks - 1
        return self.rank_key(rank)

    def __repr__(self):
        return (
            f"ZipfianKeyModel([{self.lo}, {self.hi}), theta={self.theta}, "
            f"ranks={self.n_ranks})"
        )


class HotSetShiftKeyModel(KeyModel):
    """A drifting hot set: ``hot_weight`` of traffic hits a window of
    ``hot_keys`` consecutive keys; the rest is uniform over the range.

    Every ``shift_period_ns`` of simulated time the window advances by
    one window-width (wrapping), modelling trending content: what was
    hot an hour ago cools off, and rebalancers/caches tuned to the old
    hot set must chase the new one.
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        hot_keys: int = 1024,
        hot_weight: float = 0.9,
        shift_period_ns: int = 0,
    ):
        if not lo < hi:
            raise ValueError("empty key range")
        if not 0 < hot_keys <= hi - lo:
            raise ValueError("hot_keys must be in [1, hi-lo]")
        if not 0.0 <= hot_weight <= 1.0:
            raise ValueError("hot_weight must be in [0, 1]")
        if shift_period_ns < 0:
            raise ValueError("shift_period_ns must be >= 0 (0 = static)")
        self.lo = lo
        self.hi = hi
        self.hot_keys = hot_keys
        self.hot_weight = hot_weight
        self.shift_period_ns = shift_period_ns

    def hot_window(self, now_ns: int = 0) -> tuple:
        """The [lo, hi) bounds of the hot window at ``now_ns``."""
        span = self.hi - self.lo
        shifts = (
            now_ns // self.shift_period_ns if self.shift_period_ns else 0
        )
        start = self.lo + (shifts * self.hot_keys) % span
        return start, start + min(self.hot_keys, span)

    def sample(self, rng: np.random.Generator, now_ns: int = 0) -> int:
        if rng.random() < self.hot_weight:
            start, end = self.hot_window(now_ns)
            key = int(rng.integers(start, end))
            # The window may hang off the end of the range; wrap it.
            if key >= self.hi:
                key = self.lo + (key - self.hi)
            return key
        return int(rng.integers(self.lo, self.hi))

    def __repr__(self):
        return (
            f"HotSetShiftKeyModel([{self.lo}, {self.hi}), "
            f"hot={self.hot_keys}@{self.hot_weight}, "
            f"period={self.shift_period_ns}ns)"
        )
