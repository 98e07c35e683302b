"""The benchmark's imports from the library resolve.

``bench/`` is not collected by this suite, so a cleanup of ``src/`` that
removes a name the benchmark imports would only show when the benchmark ran.
This reads ``bench/*.py`` with ``ast`` and runs none of it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _library_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) for each ``regdist`` import; name None for ``import m``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "regdist":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "regdist"]
    return found


def test_every_name_the_benchmark_imports_from_regdist_resolves():
    imports = _library_imports()
    assert {(f, m) for f, m, _ in imports} >= {("worker.py", "regdist.metric"), ("workloads.py", "regdist.syntax")}
    missing = []
    for path, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{path}: {module}.{name}")
    assert not missing, missing
