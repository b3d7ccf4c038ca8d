"""The demos compile, and every name they import from the package exists.

Checked with ast, without running the demos, so an API deletion that
breaks a demo fails here."""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(tree):
    """(module, name) for every name imported from pathfk or pathfk.*;
    name is None for a plain `import pathfk...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "pathfk" or node.module.startswith("pathfk."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pathfk" or alias.name.startswith("pathfk."):
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_imports_resolve(demo):
    source = demo.read_text()
    compile(source, str(demo), "exec")
    imports = list(package_imports(ast.parse(source)))
    assert imports, f"{demo.name} imports nothing from pathfk"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and name != "*":
            assert hasattr(module, name), f"{demo.name}: {module_name}.{name} is gone"
