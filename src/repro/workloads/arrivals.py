"""Open-loop arrival processes with time-varying rate schedules.

A production service is not a constant-rate sweep: traffic follows a
diurnal wave, spikes into flash crowds, and never backs off because the
storage tier is slow (the load is *open-loop* -- users keep clicking).
This module models that as a composable :class:`RateSchedule`:

* a ``base_rps`` carrier rate;
* an optional :class:`DiurnalWave` (sinusoidal day/night swing);
* any number of :class:`Spike` windows (flash crowds, multiplying the
  instantaneous rate while active).

:class:`OpenLoopArrivals` turns a schedule into concrete arrival
timestamps, either Poisson (thinned non-homogeneous process, the
textbook Lewis-Shedler construction) or evenly paced.  Everything is a
pure function of (schedule, seed, window), so the same inputs always
produce the identical arrival sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.sim.units import S


@dataclass(frozen=True)
class DiurnalWave:
    """A sinusoidal day/night swing multiplying the base rate.

    Instantaneous multiplier: ``1 + amplitude * sin(2*pi*(t/period +
    phase))``; amplitude 0.5 means the trough runs at half the base
    rate and the peak at 1.5x.  ``period_ns`` defaults to a scaled-down
    "day" of one simulated second, matching the benchmarks' compressed
    timelines.
    """

    amplitude: float = 0.5
    period_ns: int = S
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_ns < 1:
            raise ValueError("period_ns must be >= 1")

    def multiplier(self, t_ns: int) -> float:
        return 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t_ns / self.period_ns + self.phase)
        )


@dataclass(frozen=True)
class Spike:
    """A flash crowd: rate multiplied by ``multiplier`` in a window."""

    at_ns: int
    duration_ns: int
    multiplier: float = 3.0

    def __post_init__(self):
        if self.at_ns < 0:
            raise ValueError("at_ns must be >= 0")
        if self.duration_ns < 1:
            raise ValueError("duration_ns must be >= 1")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be > 0")

    def active(self, t_ns: int) -> bool:
        return self.at_ns <= t_ns < self.at_ns + self.duration_ns


@dataclass(frozen=True)
class RateSchedule:
    """base_rps shaped by an optional diurnal wave and spike windows."""

    base_rps: float
    wave: "DiurnalWave | None" = None
    spikes: Tuple[Spike, ...] = ()

    def __post_init__(self):
        if self.base_rps <= 0:
            raise ValueError("base_rps must be > 0")
        # Tolerate a list literal at the call site.
        object.__setattr__(self, "spikes", tuple(self.spikes))

    def rate_at(self, t_ns: int) -> float:
        """Instantaneous offered rate (requests/s) at ``t_ns``."""
        rate = self.base_rps
        if self.wave is not None:
            rate *= self.wave.multiplier(t_ns)
        for spike in self.spikes:
            if spike.active(t_ns):
                rate *= spike.multiplier
        return rate

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` over all time (the
        thinning envelope for Poisson arrival generation)."""
        rate = self.base_rps
        if self.wave is not None:
            rate *= 1.0 + self.wave.amplitude
        for spike in self.spikes:
            rate *= max(spike.multiplier, 1.0)
        return rate


class OpenLoopArrivals:
    """Concrete arrival timestamps for one schedule.

    ``poisson=True`` (default) draws a non-homogeneous Poisson process
    by thinning against :meth:`RateSchedule.peak_rate`; ``False`` paces
    arrivals evenly at the instantaneous rate (deterministic spacing,
    useful for byte-identical load baselines).
    """

    def __init__(self, schedule: RateSchedule, poisson: bool = True):
        self.schedule = schedule
        self.poisson = poisson

    def times(
        self,
        rng: np.random.Generator,
        start_ns: int,
        end_ns: int,
    ) -> Iterator[int]:
        """Arrival timestamps (int ns) in [start_ns, end_ns), ascending."""
        if end_ns <= start_ns:
            return
        if self.poisson:
            yield from self._poisson_times(rng, start_ns, end_ns)
        else:
            yield from self._paced_times(start_ns, end_ns)

    def _poisson_times(self, rng, start_ns: int, end_ns: int):
        peak = self.schedule.peak_rate()
        t = float(start_ns)
        last = None
        while True:
            # Exponential gap at the envelope rate, then thin.
            t += rng.exponential(1e9 / peak)
            if t >= end_ns:
                return
            if rng.random() < self.schedule.rate_at(int(t)) / peak:
                at = int(t)
                # Integer truncation can collapse sub-nanosecond gaps;
                # timestamps are contractually *strictly* ascending.
                if last is not None and at <= last:
                    at = last + 1
                    if at >= end_ns:
                        return
                last = at
                yield at

    def _paced_times(self, start_ns: int, end_ns: int):
        t = float(start_ns)
        last = None
        while t < end_ns:
            at = int(t)
            if last is not None and at <= last:
                at = last + 1
                if at >= end_ns:
                    return
            last = at
            yield at
            rate = self.schedule.rate_at(int(t))
            t += 1e9 / rate
