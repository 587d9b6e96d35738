"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block under the ``## {heading}`` section."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_fault_injection_example_fires_its_crash_and_partition():
    scope = {}
    exec(compile(python_block("Fault injection"), "README.md", "exec"), scope)
    plan = scope["plan"]
    assert plan.fault_count() == 2
    assert plan.fault_count("node1", "crash") == 1
    assert plan.fault_count("net", "partition") == 1
    assert plan.recovery_count() == 2  # the restart and the heal
