"""The imports from the library of the scripts this suite does not collect,
and of README's examples, resolve.

``bench/`` and the scripts under ``tests/compat/`` (``hash_outputs.py``, which
proves output byte-identical, and ``write_corpus.py``, which writes
compatibility corpora) are not collected by this suite, so a cleanup of
``src/`` that removes a name they import would only show when they ran.
This reads their ``*.py`` files, and README's ``python`` blocks, with ``ast``
and runs none of it.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
COMPAT = ROOT / "tests" / "compat"


def _library_imports(folder: Path) -> list[tuple[str, str, str | None]]:
    """(file, module, name) for each ``regdist`` import; name None for ``import m``."""
    found = []
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "regdist":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "regdist"]
    return found


def _unresolved(imports: list[tuple[str, str, str | None]]) -> list[str]:
    """Each import whose name is neither an attribute nor a submodule of its module."""
    missing = []
    for path, module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{path}: {module}.{name}")
    return missing


def test_every_name_the_benchmark_imports_from_regdist_resolves():
    imports = _library_imports(BENCH)
    assert {(f, m) for f, m, _ in imports} >= {("worker.py", "regdist.metric"), ("workloads.py", "regdist.syntax")}
    missing = _unresolved(imports)
    assert not missing, missing


def test_every_name_the_compat_scripts_import_from_regdist_resolves():
    imports = _library_imports(COMPAT)
    assert {(f, m, n) for f, m, n in imports} >= {
        ("hash_outputs.py", "regdist", "cli"),
        ("write_corpus.py", "regdist.proof", "star_unroll_proof"),
    }
    missing = _unresolved(imports)
    assert not missing, missing


def test_every_name_the_readme_examples_import_from_regdist_resolves():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    imports = [
        ("README.md", node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "regdist"
        for alias in node.names
    ]
    assert {m for _, m, _ in imports} >= {"regdist", "regdist.check", "regdist.proof"}
    missing = _unresolved(imports)
    assert not missing, missing
