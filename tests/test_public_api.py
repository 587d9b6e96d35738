"""Export-drift guard for the public API surface.

Every ``repro`` package declares ``__all__``; these tests pin the
contract: every declared name resolves, nothing private is exported,
and every public (non-module) attribute a package's ``__init__``
pulls in is declared -- so adding an import without extending
``__all__`` (or vice versa) fails tier-1 instead of silently widening
or narrowing the API.
"""

import importlib
import pkgutil
from types import ModuleType

import pytest

import repro


def all_packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


PACKAGES = all_packages()


@pytest.mark.parametrize("name", PACKAGES)
def test_package_declares_all(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}: duplicate exports"
    for symbol in exported:
        assert not symbol.startswith("_") or symbol == "__version__", (
            f"{name} exports private name {symbol}"
        )
        assert hasattr(module, symbol), (
            f"{name}.__all__ names {symbol!r} but it does not resolve"
        )


@pytest.mark.parametrize("name", PACKAGES)
def test_no_undeclared_public_attributes(name):
    """Anything a package ``__init__`` binds publicly must be in
    ``__all__`` (submodules exempt: they are import side-effects)."""
    module = importlib.import_module(name)
    public = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_") and not isinstance(obj, ModuleType)
    }
    undeclared = public - set(module.__all__)
    assert not undeclared, f"{name}: public but not in __all__: {undeclared}"


def test_star_import_matches_all():
    namespace = {}
    exec("from repro import *", namespace)
    got = {key for key in namespace if not key.startswith("__")}
    assert got == {n for n in repro.__all__ if not n.startswith("__")}


def test_top_level_exposes_the_error_hierarchy():
    from repro import (
        ClusterError,
        PermanentFault,
        ReproError,
        StorageFullError,
        TransientFault,
        WrongEpochError,
    )

    assert issubclass(TransientFault, ReproError)
    assert issubclass(PermanentFault, ReproError)
    assert issubclass(ClusterError, ReproError)
    assert issubclass(WrongEpochError, TransientFault)
    assert issubclass(WrongEpochError, ClusterError)
    assert issubclass(StorageFullError, PermanentFault)
    assert issubclass(StorageFullError, ClusterError)
