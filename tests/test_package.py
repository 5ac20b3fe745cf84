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
# Rationals are int pairs everywhere in the package: only `Scalar.evaluate`
# and `Scalar.as_fraction` import `fractions`, which brings the other two.
RATIONAL_MODULES = ("fractions", "decimal", "numbers")


def _modules_loaded_by(probe: str, names) -> str:
    """Which of names a fresh interpreter has loaded after running probe."""
    # A fresh interpreter, since the test process has loaded most of these.
    code = f"import sys; {probe}; print(sorted(set({tuple(names)!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return done.stdout.strip()


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
    probe = "import wittkit.cli; wittkit.cli.build_parser()"
    assert _modules_loaded_by(probe, HEAVY_MODULES) == "[]"


def test_start_up_and_every_variant_load_no_fractions():
    probe = ("import wittkit.cli; from wittkit import AlgebraVariant as V, WittAlgebra; "
             "wittkit.cli.build_parser(); "
             "[WittAlgebra(v) for v in (V.wn(2), V.winf(1, 2), V.wnplus(2), V.wnplusplus(2), "
             "V.wnmu(2))]")
    assert _modules_loaded_by(probe, RATIONAL_MODULES) == "[]"
