"""The runtime dependencies in pyproject.toml are exactly the third-party
packages that the modules of src/duval_kind import."""

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "duval_kind")
PYPROJECT = os.path.join(REPO_ROOT, "pyproject.toml")


def third_party_imports() -> set[str]:
    """Top-level names of the absolute imports in the package's modules,
    less the standard library and the package itself."""
    names = set()
    for entry in sorted(os.listdir(PACKAGE_DIR)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=entry)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "duval_kind"}


def runtime_dependencies() -> set[str]:
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_runtime_dependencies_are_the_imported_packages():
    assert third_party_imports() == runtime_dependencies()
