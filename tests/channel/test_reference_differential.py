"""Differential test: ``ChannelEngine`` against the process-per-op
reference model in ``tests/channel/reference_engine.py``.

Each seed is one of the tier-1 search's regions of the one strategy
(``differential.cases``), with the admission bound and the STALL rule
pinned: every case's ops, one process each started at its instant,
must complete at the same instants on both models with the same
accounting, sampled along the run (``differential.check``, which
compares the reserve-ahead path with the per-phase hops too).
"""

import pytest
from hypothesis import strategies as st

from repro.sim import US
from tests.channel.differential import cases, search


@pytest.mark.parametrize("seed", range(24))
def test_channel_engine_matches_reference(seed):
    max_inflight = (None, 1, 2, 8)[seed % 4]
    stall_rate = (0.0, 0.05, 0.3)[seed // 8]
    stall = {"rate": stall_rate, "delay_ns": 300 * US} if stall_rate else None
    search(cases(bound=st.just(max_inflight), stall=st.just(stall)), seed)
