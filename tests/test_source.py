"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import spidersearch

SOURCES = sorted(Path(spidersearch.__file__).parent.rglob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so every runtime check must be an
    # explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_cli_import_loads_every_module_and_no_dataclasses():
    """Start-up cost: importing the CLI loads every module of the package
    (nothing is deferred) and neither `dataclasses` nor the `inspect` it
    pulls in."""
    package = Path(spidersearch.__file__).parent
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(package.parent)!r})\n"
        "import spidersearch.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    modules = {"spidersearch"} | {
        f"spidersearch.{p.stem}" for p in SOURCES if p.stem != "__init__"}
    assert modules <= loaded, sorted(modules - loaded)
