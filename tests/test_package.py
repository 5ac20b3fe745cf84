"""The package's public names: `__all__` against what `__init__` imports."""

from __future__ import annotations

import ast
from pathlib import Path

import wittkit


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(wittkit.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(wittkit.__all__) == len(set(wittkit.__all__))
    assert set(wittkit.__all__) == imported


def test_every_public_name_resolves():
    for name in wittkit.__all__:
        assert getattr(wittkit, name) is not None, name
