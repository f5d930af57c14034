"""The package surface: every ``__all__`` entry exists, and every name the
package re-exports from a module that declares ``__all__`` is listed
there."""

import ast
import importlib
import pkgutil

import pytest

import eemsync

MODULES = sorted(info.name for info in pkgutil.iter_modules(eemsync.__path__))


def _reexports():
    """(module, name) for each ``from .module import name`` in the package init."""
    with open(eemsync.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"eemsync.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_reexports_are_listed_in_all():
    unlisted = []
    for module_name, name in _reexports():
        module = importlib.import_module(f"eemsync.{module_name}")
        if hasattr(module, "__all__") and name not in module.__all__:
            unlisted.append(f"{module_name}.{name}")
    assert unlisted == []


def test_reexports_resolve_on_the_package():
    assert [n for _, n in _reexports() if not hasattr(eemsync, n)] == []
