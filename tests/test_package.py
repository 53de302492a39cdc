"""The package namespace holds exactly the names the demos import from it."""
import ast
from pathlib import Path

import functorlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def demo_imports() -> set:
    names = set()
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functorlab":
                names.update(alias.name for alias in node.names)
    return names


def test_namespace_is_what_the_demos_import():
    assert len(DEMOS) == 5
    assert sorted(functorlab.__all__) == sorted(demo_imports())
    for name in functorlab.__all__:
        assert getattr(functorlab, name).__module__.startswith("functorlab."), name
