"""Checks on the source text itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _redefined(source: str) -> list[str]:
    """Top-level function and class names that `source` defines more than
    once; the later definition silently replaces the earlier one."""
    seen, twice = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                twice.append(f"{node.name} (line {node.lineno})")
            seen.add(node.name)
    return twice


def test_the_check_finds_a_shadowed_definition():
    assert _redefined("def f():\n    pass\nclass C:\n    pass\n"
                      "def f():\n    pass\n") == ["f (line 5)"]
    assert _redefined("def f():\n    pass\nf = 1\n") == []


def test_no_module_defines_a_top_level_name_twice():
    modules = sorted((*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")))
    assert modules
    found = {str(path.relative_to(ROOT)): twice for path in modules
             if (twice := _redefined(path.read_text(encoding="utf-8")))}
    assert found == {}
