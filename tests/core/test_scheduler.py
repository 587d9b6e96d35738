"""Unit tests for placement/erase scheduling policies."""

from repro.core import ErasePolicy, LeastLoadedPlacement, RoundRobinPlacement


def test_round_robin_is_modular():
    policy = RoundRobinPlacement()
    loads = [0] * 44
    assert [policy.choose(i, loads) for i in range(5)] == [0, 1, 2, 3, 4]
    assert policy.choose(44, loads) == 0
    assert policy.choose(45, loads) == 1


def test_round_robin_ignores_load():
    policy = RoundRobinPlacement()
    assert policy.choose(0, [100, 0, 0]) == 0  # hash wins, even if loaded


def test_least_loaded_prefers_idle_channels():
    policy = LeastLoadedPlacement()
    assert policy.choose(0, [3, 1, 2]) == 1
    assert policy.choose(1, [3, 0, 0]) in (1, 2)


def test_least_loaded_rotates_ties():
    policy = LeastLoadedPlacement()
    picks = [policy.choose(i, [0, 0, 0, 0]) for i in range(8)]
    # All channels used, none starved.
    assert sorted(set(picks)) == [0, 1, 2, 3]


def test_least_loaded_idle_burst_spreads_evenly():
    # A burst of placements onto an idle device must spread perfectly:
    # the rotating tie-break visits every channel before reusing one.
    policy = LeastLoadedPlacement()
    loads = [0] * 8
    picks = [policy.choose(i, loads) for i in range(24)]
    assert picks == list(range(8)) * 3
    counts = {channel: picks.count(channel) for channel in range(8)}
    assert set(counts.values()) == {3}


def test_least_loaded_fixed_sequence_is_stable():
    # Deterministic regression: one skewed load sequence, one exact
    # answer.  Any change to tie-breaking or rotation shows up here.
    policy = LeastLoadedPlacement()
    sequence = [
        ([2, 0, 1, 0], 1),  # first idle channel after rotation start
        ([2, 1, 1, 0], 3),  # unique minimum
        ([2, 1, 1, 1], 1),  # tie at 1: rotation resumes past channel 3
        ([2, 2, 1, 1], 2),  # tie at 1: rotation continues from 2
        ([2, 2, 2, 1], 3),  # unique minimum again
        ([2, 2, 2, 2], 0),  # full tie: wraps to channel 0
    ]
    got = [policy.choose(i, loads) for i, (loads, _) in enumerate(sequence)]
    assert got == [expected for _, expected in sequence]


def test_erase_policy_values():
    assert ErasePolicy.BACKGROUND.value == "background"
    assert ErasePolicy.INLINE.value == "inline"
    assert ErasePolicy("inline") is ErasePolicy.INLINE


def test_erase_policy_docstring_and_member_docs():
    """Regression: the class docstring sat between the `#:` comment and
    BACKGROUND, detaching the member documentation."""
    assert ErasePolicy.__doc__.startswith("When freed blocks get erased")
    assert list(ErasePolicy) == [ErasePolicy.BACKGROUND, ErasePolicy.INLINE]
