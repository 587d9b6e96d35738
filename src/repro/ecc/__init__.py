"""BCH error-correcting codes.

SDF removes cross-channel parity and relies on per-chip BCH (25% of each
Spartan-6's logic is the BCH codec) plus system-level replication.  This
package provides:

* :class:`~repro.ecc.gf.GF2m` -- arithmetic in GF(2^m);
* :class:`~repro.ecc.bch.BCHCode` -- a working binary BCH codec
  (systematic encode; syndrome / Berlekamp-Massey / Chien-search decode);
* :class:`~repro.ecc.model.EccModel` -- the calibrated probabilistic
  stand-in used inside large timed simulations, where running the real
  codec on every 8 KB page would be pointlessly slow.
"""

from repro.ecc.bch import BCHCode, UncorrectableError
from repro.ecc.gf import GF2m
from repro.ecc.model import EccModel, ReadStatus

__all__ = [
    "GF2m",
    "BCHCode",
    "UncorrectableError",
    "EccModel",
    "ReadStatus",
]
