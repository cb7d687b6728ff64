"""Every name a module imports is read somewhere in that module. An import
that nothing reads costs load time and misstates what the module depends
on. The package's __init__.py is not checked, since its imports are
re-exports; neither is perfbench/, the benchmark's own code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/mvtlab/*.py", "tests/*.py", "scripts/*.py")


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that no name in the module reads,
    in the order they are first bound. `from __future__` imports bind
    nothing to read."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                # `import a.b` binds a; `from m import *` binds no one name.
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*":
                    bound.setdefault(name, node.lineno)
    return sorted(set(bound) - read, key=bound.__getitem__)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.etree.ElementTree as ET\n"
        "from a.b import c as d, e, f\n"
        "from g import *\n"
        "def h():\n"
        "    import os.path\n"
        "    return sys.argv, e\n"
        "x: f = ET\n"
    )
    assert unused_imports(source) == ["os", "d"]


def test_no_module_imports_a_name_it_never_reads():
    paths = [
        path
        for pattern in CHECKED
        for path in sorted(ROOT.glob(pattern))
        if path.name != "__init__.py"
    ]
    assert len(paths) > 10
    unused = {}
    for path in paths:
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
