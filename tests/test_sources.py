"""Checks on the source text itself."""

import ast
import re
from collections import Counter
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


def _unused(defining: dict[str, str], texts: list[str]) -> list[str]:
    """Top-level function and class names of the `defining` sources
    ({path: text}) that no word of `texts` but their own definition
    spells: code only the tests call."""
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    return [f"{path}: {node.name}" for path, source in defining.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and words[node.name] <= 1]


def test_the_check_finds_a_name_only_its_definition_spells():
    main = "def used():\n    pass\nclass Lone:\n    pass\n"
    assert _unused({"m.py": main}, [main, "used()\n"]) == ["m.py: Lone"]


def test_every_top_level_name_under_src_is_used_outside_the_tests():
    # a helper only the tests call lives with the tests; the perfbench
    # harness and tracer count as users, since they look names up. A
    # package re-export is no use: only the tests would call it
    src = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
           for path in sorted(ROOT.glob("src/**/*.py"))}
    bench = [path.read_text(encoding="utf-8")
             for path in sorted(ROOT.glob("perfbench/**/*.py"))]
    assert src and bench
    users = [text for path, text in src.items()
             if Path(path).name != "__init__.py"]
    assert _unused(src, [*users, *bench]) == []


def test_only_the_device_reads_cells():
    # the cell format (one int per segment or per column, and where a
    # slot starts) is the device's own; every other module goes through
    # its passes and its uncharged peek_word
    words = re.compile(r"\.cells\b|\bslot_start\b")
    spelled = {path.name: sorted(set(words.findall(
                   path.read_text(encoding="utf-8"))))
               for path in sorted(ROOT.glob("src/**/*.py"))}
    assert spelled.pop("device.py")
    assert {name: words for name, words in spelled.items() if words} == {}
