"""I/O software-stack cost models.

Paper S4.3 (after Foong et al.): the Linux block stack spends ~9100 CPU
cycles issuing a request and ~21900 completing it -- ~12.9 us total on a
2.4 GHz server core.  SDF's user-space IOCTL path plus thin PCIe driver
costs only 2-4 us per request (S2.4), mostly MSI handling.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOStackModel:
    """Per-request software cost, split into submit and complete halves."""

    name: str
    submit_ns: int
    complete_ns: int

    def __post_init__(self):
        if self.submit_ns < 0 or self.complete_ns < 0:
            raise ValueError("stack costs must be >= 0")

    @property
    def total_ns(self) -> int:
        """Submit + complete cost per request."""
        return self.submit_ns + self.complete_ns


#: Linux VFS + block + SCSI/SATA stack: 3.8 us submit + 9.1 us complete.
KERNEL_IO_STACK = IOStackModel("linux-kernel", 3_800, 9_100)

#: SDF: IOCTL straight to the PCIe driver; ~3 us total, mostly the MSI.
SDF_USER_SPACE_STACK = IOStackModel("sdf-user-space", 1_000, 2_000)

