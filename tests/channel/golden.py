"""Golden schedule digests: the fixed point the single scheduler holds.

``golden_schedule.json`` maps a scenario key to the SHA-256 of that
scenario's full signature.  Every digest was recorded at the commit
named in the file, where the process-per-op generator scheduler and
the timeline scheduler still coexisted and produced the same digest;
the tests replay the scenarios on today's single path and compare
with ``==``.

After a *deliberate* timing change, re-record with::

    GOLDEN_SCHEDULE_OUT=tests/channel/golden_schedule.json \
        PYTHONPATH=src python -m pytest tests/channel tests/devices -q
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_schedule.json")


def _canonical(value):
    """Order-insensitive for dicts (the old suite compared them with
    ``==``), order-preserving for sequences."""
    if isinstance(value, dict):
        return sorted(
            (str(key), _canonical(item)) for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.generic):
        # numpy scalar reprs differ across numpy major versions.
        return value.item()
    return value


def digest(signature) -> str:
    """SHA-256 of a scenario signature."""
    return hashlib.sha256(repr(_canonical(signature)).encode()).hexdigest()


def check_golden(key: str, signature) -> None:
    """Assert ``signature`` hashes to the recorded digest for ``key``."""
    got = digest(signature)
    out = os.environ.get("GOLDEN_SCHEDULE_OUT")
    if out:
        path = Path(out)
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded.setdefault("digests", {})[key] = got
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    assert got == golden[key], f"schedule drifted for {key!r}"
