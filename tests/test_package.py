"""The package's public names and the modules it loads at start-up."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import wittkit

SRC = Path(wittkit.__file__).resolve().parent.parent

# Standard-library modules the CLI must not pull in: `dataclasses` brings
# the rest, and together they cost about as much as argparse, json and
# fractions combined at every start.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def test_cli_start_up_loads_no_code_generation_machinery():
    # A fresh interpreter, since pytest itself imports inspect and ast.
    probe = ("import sys, wittkit.cli; wittkit.cli.build_parser(); "
             f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
