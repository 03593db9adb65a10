"""src/lqphase imports only the standard library and numpy, its one runtime
dependency in pyproject.toml; the test extras (scipy, hypothesis, pytest)
stay out of the package."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lqphase"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(text: str) -> set[str]:
    """The top-level names of the absolute imports in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_walker_sees_nested_and_dotted_imports():
    text = "import os.path\nfrom . import x\ndef f():\n    from scipy.linalg import svd\n"
    assert _absolute_imports(text) == {"os", "scipy"}


def test_package_imports_only_the_standard_library_and_numpy():
    found = {path.name: _absolute_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "numpy" in found["linalg.py"]  # the walk reads the real modules
    outside = {name: sorted(imports - ALLOWED) for name, imports in found.items() if imports - ALLOWED}
    assert outside == {}
