"""The demos use only the public API: every name a demo imports from
``affinestop`` is in ``affinestop.__all__``.  Import-only, because running
the Monte Carlo demo takes tens of seconds."""

import ast
from pathlib import Path

import pytest

import affinestop

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "affinestop"
             for alias in node.names}
    assert names
    assert names <= set(affinestop.__all__), names - set(affinestop.__all__)
