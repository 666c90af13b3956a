"""The runtime dependency stays numpy only: every module under src/orag imports
from the standard library, numpy or orag itself, and nothing else."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orag"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "orag"}


def _imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative one is orag's own
            yield node.module


def test_src_imports_only_the_standard_library_and_numpy():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    outside = [(path.name, name) for path in modules
               for name in _imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if name.partition(".")[0] not in ALLOWED]
    assert outside == []
