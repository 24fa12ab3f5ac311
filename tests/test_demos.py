"""The demos: every finslerflow name they use exists, and demo 03 runs.

The name check parses each demo with ``ast`` and so runs none of them; only
demo 03, the quickest, is run end to end.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def _finslerflow_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each name imported from finslerflow or read as an attribute
    of an imported finslerflow module (``ff.X``)."""
    aliases = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "finslerflow":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "finslerflow"):
            names |= {(node.module, a.name) for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return names


def test_all_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    names = _finslerflow_names(ast.parse(demo.read_text()))
    assert names, f"{demo.name} uses no finslerflow name"
    missing = sorted(
        f"{mod}.{name}" for mod, name in names
        if not hasattr(importlib.import_module(mod), name)
    )
    assert not missing, f"{demo.name}: {missing}"


def test_demo_03_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_variation_identities.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "membership residuals of h = dg/dt" in proc.stdout
