"""Package structure: every name a module imports from a sibling is public."""

import ast
import importlib
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "aerialfl"


def _sibling_imports():
    """(importing file, sibling module, name) for each ``from .x import name``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_imported_public_names_are_exported():
    imports = _sibling_imports()
    assert ("__init__.py", "models", "build_model") in imports
    missing = []
    for importer, module, name in imports:
        exported = getattr(importlib.import_module(f"aerialfl.{module}"), "__all__", None)
        if exported is not None and not name.startswith("_") and name not in exported:
            missing.append(f"{importer} imports {module}.{name}")
    assert not missing, "names missing from __all__: " + "; ".join(missing)
