"""Probabilistic ECC model used inside timed simulations.

Running the real BCH codec on every simulated 8 KB page read would
dominate run time without changing any result, so devices use this
calibrated stand-in: given the page's wear (P/E cycles) it samples
whether the read is clean, corrected, or uncorrectable, using the same
binomial mathematics as :func:`repro.nand.errors.page_failure_probability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.nand.errors import RawBitErrorModel, page_failure_probability


class ReadStatus(Enum):
    """Outcome of one ECC-protected page read."""
    CLEAN = "clean"  # no raw bit errors
    CORRECTED = "corrected"  # errors present, BCH fixed them
    UNCORRECTABLE = "uncorrectable"  # BCH failed; software must recover


@dataclass
class EccModel:
    """Per-chip BCH protection, parameterized like the SDF's codec.

    ``t`` errors correctable per ``codeword_bytes`` sector.  With
    ``rng=None`` the model is deterministic-optimistic: reads are always
    CLEAN (used by pure performance experiments).
    """

    t: int = 40
    codeword_bytes: int = 512
    rber_model: RawBitErrorModel = RawBitErrorModel()
    rng: Optional[np.random.Generator] = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.codeword_bytes < 1:
            raise ValueError("codeword_bytes must be positive")
        self.corrected_reads = 0
        self.uncorrectable_reads = 0
        self.clean_reads = 0
        #: Optional :class:`repro.obs.Observability`; set by
        #: ``Observability.attach``, which exposes the three outcome
        #: tallies above as pull metrics (``ecc.reads_*``).
        self.obs = None

    def uncorrectable_probability(
        self, page_bytes: int, pe_cycles: int
    ) -> float:
        """P(page uncorrectable) at the given wear level."""
        rber = self.rber_model.rber(pe_cycles)
        return page_failure_probability(
            page_bytes, rber, self.t, self.codeword_bytes
        )

    def read_outcome(self, page_bytes: int, pe_cycles: int) -> ReadStatus:
        """Sample the outcome of one page read."""
        if self.rng is None:
            self.clean_reads += 1
            return ReadStatus.CLEAN
        rber = self.rber_model.rber(pe_cycles)
        n_bits = page_bytes * 8
        # Expected raw errors tiny -> use a Poisson draw for the count.
        n_errors = int(self.rng.poisson(rber * n_bits))
        if n_errors == 0:
            self.clean_reads += 1
            return ReadStatus.CLEAN
        p_fail = self.uncorrectable_probability(page_bytes, pe_cycles)
        # Condition on at least one error having occurred.
        p_any = 1.0 - (1.0 - rber) ** n_bits
        conditional_fail = min(1.0, p_fail / p_any) if p_any > 0 else 0.0
        if self.rng.random() < conditional_fail:
            self.uncorrectable_reads += 1
            return ReadStatus.UNCORRECTABLE
        self.corrected_reads += 1
        return ReadStatus.CORRECTED
