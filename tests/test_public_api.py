"""The package surface: every ``__all__`` entry exists, every name the
package re-exports from a module that declares ``__all__`` is listed
there, and only ``scenarios`` writes files."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _file_writes(tree):
    """Line numbers of the calls in ``tree`` that create or write files:
    ``open`` with a mode holding "w", ``np.save``, ``json.dump`` and
    ``os.makedirs``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                lines.append(node.lineno)
        elif func in ("np.save", "json.dump", "os.makedirs"):
            lines.append(node.lineno)
    return lines


def test_only_scenarios_writes_files():
    writers = {}
    for path in sorted(Path(eemsync.__file__).parent.glob("*.py")):
        lines = _file_writes(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            writers[path.name] = lines
    assert sorted(writers) == ["scenarios.py"], writers
