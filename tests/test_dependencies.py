"""Every third-party import is declared in ``pyproject.toml`` or guarded.

CI installs the package with ``pip install -e ".[dev]"``, so an import of a
module that neither ``dependencies`` nor the ``dev`` extra declares breaks
collection on a clean runner even when the local machine happens to have it.
Optional modules (``yaml``, ``gurobipy``) are fine behind an availability
check -- an import inside ``try: ... except ImportError`` -- or
``pytest.importorskip``, which is a call rather than an import statement.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "tests", "benchmarks")

#: Distribution name -> import name, where they differ.
_IMPORT_NAMES = {"pytest-cov": "pytest_cov"}


def declared_modules() -> set[str]:
    """Import names of ``dependencies`` plus the ``dev`` extra."""
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    modules = set()
    for block in re.findall(r"^(?:dependencies|dev) = \[(.*?)\]", text, re.S | re.M):
        for requirement in re.findall(r'"([^"]+)"', block):
            dist = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
            modules.add(_IMPORT_NAMES.get(dist, dist.replace("-", "_")))
    return modules


def _catches_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        if handler.type is None:
            return True
        names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
        if names & {"ImportError", "ModuleNotFoundError"}:
            return True
    return False


def unguarded_imports(source: str) -> list[tuple[int, str]]:
    """``(line, top-level module)`` of every absolute import not under a guard."""
    tree = ast.parse(source)
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Try) and _catches_import_error(node)
        for statement in node.body
        for inner in ast.walk(statement)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_guard_flags_undeclared_and_skips_guarded_imports():
    source = (
        "import networkx as nx\n"
        "from scipy import sparse\n"
        "try:\n"
        "    import gurobipy\n"
        "except ImportError:\n"
        "    gurobipy = None\n"
        "def load():\n"
        "    try:\n"
        "        import yaml\n"
        "    except (ModuleNotFoundError, OSError):\n"
        "        return None\n"
    )
    assert unguarded_imports(source) == [(1, "networkx"), (2, "scipy")]


def test_third_party_imports_are_declared():
    allowed = set(sys.stdlib_module_names) | declared_modules() | {"repro"}
    # Test and benchmark helpers import each other as top-level modules.
    allowed |= {
        path.stem for name in ("tests", "benchmarks") for path in (REPO_ROOT / name).glob("*.py")
    }
    undeclared = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {module}"
        for name in SCANNED_DIRS
        for path in sorted((REPO_ROOT / name).rglob("*.py"))
        for line, module in unguarded_imports(path.read_text(encoding="utf-8"))
        if module not in allowed
    ]
    assert not undeclared, (
        "imports of modules pyproject.toml does not declare (add them to "
        f"dependencies or the dev extra, or guard them): {undeclared}"
    )
