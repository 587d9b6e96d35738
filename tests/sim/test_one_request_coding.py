"""One coding below the request objects (DESIGN.md section 7, "The KV
request level"): a continuation -- any function named ``*_call`` --
calls other ``*_call``s and waits through scheduled hops, never a
generator's ``yield`` or a ``sim.process``; ``repro.sim.process.bridged``
is the one adapter, for callers that are generators.  The adapter that
drove a generator from inside a continuation is gone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def functions(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def generator_steps(function):
    """``(line, what)`` for every ``yield`` and ``.process(...)`` call
    in ``function``, nested definitions included."""
    for node in ast.walk(function):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yield node.lineno, "yield"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "process"
        ):
            yield node.lineno, "process"


def test_continuations_are_no_generators():
    found = [
        f"{path.relative_to(SRC)}:{line} {function.name} has a {what}"
        for path in sorted(SRC.rglob("*.py"))
        for function in functions(path)
        if function.name.endswith("_call")
        for line, what in generator_steps(function)
    ]
    assert found == []


def test_there_is_a_continuation_to_check():
    """The walk above sees the request paths' continuations."""
    names = {
        function.name
        for path in SRC.rglob("*.py")
        for function in functions(path)
    }
    assert {
        "handle_get_call",
        "handle_put_call",
        "handle_patch_read_call",
        "read_patch_call",
        "read_value_call",
        "read_zone_call",
        "write_call",
    } <= names


def test_nothing_drives_a_generator_in_place():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} defines {node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("run_inline", "_Inline")
    ]
    assert found == []
