"""Unit tests for size distributions and key-popularity models."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.workloads import (
    FIG12_REQUEST_SIZES,
    FIG14_WRITE_SIZES,
    HotSetShiftKeyModel,
    SizeDistribution,
    UniformKeyModel,
    ZipfianKeyModel,
    sequential_keys,
    uniform_keys,
    zipfian_keys,
)


def test_fig12_sizes_match_paper():
    assert FIG12_REQUEST_SIZES["web-page"] == 32 * 1024
    assert FIG12_REQUEST_SIZES["thumbnail"] == 128 * 1024
    assert FIG12_REQUEST_SIZES["image"] == 512 * 1024


def test_fixed_distribution():
    dist = SizeDistribution(fixed=4096)
    rng = np.random.default_rng(0)
    assert all(dist.sample(rng) == 4096 for _ in range(10))


def test_choice_distribution_respects_weights():
    dist = SizeDistribution(choices=[100, 200], weights=[9, 1])
    rng = np.random.default_rng(1)
    samples = [dist.sample(rng) for _ in range(500)]
    assert samples.count(100) > samples.count(200) * 3


def test_log_uniform_distribution_bounds():
    rng = np.random.default_rng(2)
    samples = [FIG14_WRITE_SIZES.sample(rng) for _ in range(500)]
    assert all(100 * 1024 * 0.99 <= s <= 1024 * 1024 * 1.01 for s in samples)
    # Log-uniform: the geometric middle is well represented.
    assert min(samples) < 200 * 1024 and max(samples) > 700 * 1024


def test_distribution_validation():
    with pytest.raises(ValueError):
        SizeDistribution()
    with pytest.raises(ValueError):
        SizeDistribution(fixed=100, lo=1, hi=2)
    with pytest.raises(ValueError):
        SizeDistribution(fixed=0)
    with pytest.raises(ValueError):
        SizeDistribution(choices=[])
    with pytest.raises(ValueError):
        SizeDistribution(choices=[1, 2], weights=[1])
    with pytest.raises(ValueError):
        SizeDistribution(lo=10, hi=5)


def test_mean_estimate_is_sane():
    dist = SizeDistribution(fixed=1000)
    assert dist.mean_estimate(np.random.default_rng(0), n=10) == 1000


def test_sequential_keys():
    assert list(sequential_keys(3, 7)) == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        sequential_keys(5, 5)


def test_uniform_keys_stay_in_range():
    rng = np.random.default_rng(3)
    keys = list(itertools.islice(uniform_keys(10, 20, rng), 200))
    assert all(10 <= key < 20 for key in keys)
    assert len(set(keys)) > 5


def test_zipfian_keys_are_skewed():
    rng = np.random.default_rng(4)
    keys = list(itertools.islice(zipfian_keys(0, 1000, rng), 3000))
    assert all(0 <= key < 1000 for key in keys)
    counts = sorted(
        (keys.count(key) for key in set(keys)), reverse=True
    )
    # The hottest key dwarfs the median key.
    assert counts[0] > 10 * max(1, counts[len(counts) // 2])


def test_zipfian_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        next(zipfian_keys(5, 5, rng))
    with pytest.raises(ValueError):
        next(zipfian_keys(0, 10, rng, theta=3.0))


# --- log-uniform boundary clamp (regression) -------------------------------


class _StubUniform:
    """An rng whose ``uniform`` draws exactly the requested value."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        return self.value


def test_log_uniform_boundary_draw_stays_in_bounds():
    # exp(log(1000)) rounds to 999.999...; int() then truncates BELOW
    # the declared lower bound.  The clamp keeps the sample in range.
    dist = SizeDistribution(lo=1000, hi=2000)
    assert int(np.exp(np.log(1000.0))) < 1000  # the failure mechanism
    assert dist.sample(_StubUniform(np.log(1000.0))) == 1000
    assert dist.sample(_StubUniform(np.log(2000.0))) <= 2000


def test_log_uniform_never_escapes_bounds_statistically():
    dist = SizeDistribution(lo=100, hi=101)  # tight range: boundary-heavy
    rng = np.random.default_rng(9)
    assert all(100 <= dist.sample(rng) <= 101 for _ in range(2000))


# --- key-popularity models -------------------------------------------------


def test_uniform_model_covers_range():
    model = UniformKeyModel(100, 200)
    rng = np.random.default_rng(5)
    keys = [model.sample(rng) for _ in range(500)]
    assert all(100 <= key < 200 for key in keys)
    assert len(set(keys)) > 60


def test_zipfian_spreads_hot_keys_over_full_range():
    # Regression: the old generator mapped rank r to key lo + r, so on a
    # large range every key landed in the first max_rank keys (a ~10k
    # prefix -- one slice of a production keyspace).  The affine rank
    # permutation must scatter hot ranks across the whole range.
    span = 1_000_000
    model = ZipfianKeyModel(0, span)
    rng = np.random.default_rng(6)
    keys = [model.sample(rng) for _ in range(2_000)]
    assert all(0 <= key < span for key in keys)
    assert max(keys) > span // 2, "keys confined to a prefix"
    assert min(keys) < span // 2
    # At least half the distinct keys live outside any 10k prefix.
    outside = sum(1 for key in set(keys) if key >= 10_000)
    assert outside > len(set(keys)) // 2


def test_zipfian_rank_ordering_survives_permutation():
    model = ZipfianKeyModel(0, 1_000_000, theta=0.99)
    rng = np.random.default_rng(7)
    counts = Counter(model.sample(rng) for _ in range(20_000))
    # rank_key exposes the rank -> key map; the hottest ranks must
    # dominate even though their keys are scattered.
    assert counts[model.rank_key(0)] > counts[model.rank_key(100)] > 0
    top = {model.rank_key(rank) for rank in range(10)}
    top_hits = sum(counts[key] for key in top)
    assert top_hits > 0.2 * sum(counts.values())


def test_zipfian_rank_key_is_a_bijection():
    model = ZipfianKeyModel(10, 130)  # span 120: even, composite
    keys = {model.rank_key(rank) for rank in range(120)}
    assert len(keys) == 120
    assert all(10 <= key < 130 for key in keys)


class _StubRandom:
    """An rng whose ``random`` draws exactly the given value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_zipfian_clamp_at_cdf_edge():
    # Regression: cdf[-1] can round below 1.0; a draw landing in
    # (cdf[-1], 1) made searchsorted return n_ranks, indexing one off
    # the end.  The clamp maps it to the last rank instead.
    model = ZipfianKeyModel(0, 1_000_000)
    draw = 1.0 - 2 ** -53  # the largest double below 1.0
    key = model.sample(_StubRandom(draw))
    assert key == model.rank_key(model.n_ranks - 1)


def test_zipfian_ranks_match_numpy_searchsorted():
    """The draw is ranked by ``bisect`` over the CDF as Python floats:
    the rank ``np.searchsorted`` gives on 100k draws and on one past
    ``cdf[-1]`` (clamped)."""
    model = ZipfianKeyModel(0, 1_000)  # its cdf[-1] rounds below 1.0
    draws = np.random.default_rng(11).random(100_000).tolist()
    draws += [model._cdf[-1], 1.0 - 2 ** -53, 0.0]
    assert model._cdf[-1] < draws[-2]  # past the CDF's last value
    ranks = np.minimum(np.searchsorted(model._cdf, draws), model.n_ranks - 1)
    keys = [model.sample(_StubRandom(draw)) for draw in draws]
    assert keys == [model.rank_key(int(rank)) for rank in ranks]


def test_zipfian_small_range_unchanged():
    # Span below max_rank: every key is a rank; still in range/skewed.
    model = ZipfianKeyModel(0, 100)
    assert model.n_ranks == 100
    rng = np.random.default_rng(8)
    keys = [model.sample(rng) for _ in range(2_000)]
    assert all(0 <= key < 100 for key in keys)


def test_hot_set_shift_concentrates_and_moves():
    model = HotSetShiftKeyModel(
        0, 100_000, hot_keys=1_000, hot_weight=0.9, shift_period_ns=1_000
    )
    rng = np.random.default_rng(10)
    window0 = model.hot_window(0)
    in_window = sum(
        1
        for _ in range(2_000)
        if window0[0] <= model.sample(rng, now_ns=0) < window0[1]
    )
    assert in_window > 1_600  # ~90% of traffic in a 1% window
    # After one period the window has moved on (and no longer overlaps).
    window1 = model.hot_window(1_000)
    assert window1 != window0
    assert window1[0] >= window0[1] or window1[1] <= window0[0]


def test_hot_set_static_when_period_zero():
    model = HotSetShiftKeyModel(0, 10_000, shift_period_ns=0)
    assert model.hot_window(0) == model.hot_window(10**12)


def test_key_models_are_deterministic():
    span = 1_000_000
    for make in (
        lambda: UniformKeyModel(0, span),
        lambda: ZipfianKeyModel(0, span),
        lambda: HotSetShiftKeyModel(0, span, shift_period_ns=7),
    ):
        first = [
            make().sample(np.random.default_rng(42), now_ns=i)
            for i in range(50)
        ]
        second = [
            make().sample(np.random.default_rng(42), now_ns=i)
            for i in range(50)
        ]
        assert first == second


def test_sizes_are_deterministic():
    dist = SizeDistribution(lo=1024, hi=65536)
    first = [dist.sample(np.random.default_rng(3)) for _ in range(100)]
    second = [dist.sample(np.random.default_rng(3)) for _ in range(100)]
    assert first == second


def test_model_validation():
    with pytest.raises(ValueError):
        UniformKeyModel(5, 5)
    with pytest.raises(ValueError):
        ZipfianKeyModel(0, 10, theta=2.5)
    with pytest.raises(ValueError):
        ZipfianKeyModel(0, 10, max_rank=0)
    with pytest.raises(ValueError):
        HotSetShiftKeyModel(0, 10, hot_keys=11)
    with pytest.raises(ValueError):
        HotSetShiftKeyModel(0, 10, hot_weight=1.5)
    with pytest.raises(ValueError):
        HotSetShiftKeyModel(0, 10, shift_period_ns=-1)
