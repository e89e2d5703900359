"""Packaging: the package declares every third-party module it imports.

``pip install .`` installs only ``[project].dependencies``, so a module that
``src/repro`` imports but the metadata does not declare makes ``import
repro`` fail on a clean install.  This walks every import statement in the
package (module level and function level alike) and checks its top-level
name against the declared requirements.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _declared_dependencies() -> set:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _imported_top_level_names() -> dict:
    """``{top-level module: [files importing it]}`` for absolute imports."""
    found: dict = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_a_declared_dependency():
    declared = _declared_dependencies()
    imported = _imported_top_level_names()
    third_party = {
        name: files
        for name, files in imported.items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    missing = {
        name: sorted(set(files))[:3]
        for name, files in third_party.items()
        if name.lower() not in declared
    }
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_the_walk_sees_the_known_dependencies():
    # Guards the walker itself: numpy is imported at module level, scipy only
    # inside functions.
    imported = _imported_top_level_names()
    assert {"numpy", "scipy"} <= set(imported)
