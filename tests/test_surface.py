"""Every public function, class, method and property of the package has a
reader outside the tests. A name that only tests read is surface kept for
the tests alone: it costs code and review without changing what the lab
computes. A name counts as read wherever it appears as a name or an
attribute in src/mvtlab/ (the package's re-exports included), scripts/ or
perfbench/. The benchmark's tracer names its targets as strings
("Evaluator.true_cr"), so perfbench/'s string constants count too, split on
dots; the package's own docstrings do not."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src/mvtlab/*.py", "scripts/*.py", "perfbench/*.py")

# Public names that no program reads, each with the acceptance criterion
# that reads it.
TEST_ONLY = {
    "evolution.mutate": "criterion 9 checks the per-gene mutation rate through it",
}


def public_names(source: str) -> list[str]:
    """The public top-level functions and classes a module defines and the
    public methods and properties of those classes, in source order, as
    `name` or `Class.name`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


def names_read(source: str, strings: bool = False) -> set[str]:
    """The names and attributes a module reads, with the names its
    from-imports bind; with `strings`, also every dot-separated part of its
    string constants."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def unread_names(modules: dict[str, str], read: set[str]) -> list[str]:
    """`module.name` of every public name of `modules` (module name ->
    source) whose last dotted part is not in `read`."""
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in public_names(source)
        if name.rpartition(".")[2] not in read
    ]


def test_unread_names_are_found():
    module = (
        "def used(): pass\n"
        "def unread(): pass\n"
        "def _private(): pass\n"
        "class Thing:\n"
        "    '''Thing.documented is named here only.'''\n"
        "    def method(self): pass\n"
        "    @property\n"
        "    def documented(self): pass\n"
        "    def assigned(self): pass\n"
        "    def traced(self): pass\n"
        "    def _helper(self): pass\n"
    )
    program = "from m import used\nthing = Thing()\nthing.method()\nthing.assigned = 1\n"
    tracer = "TARGETS = ('m.Thing.traced',)\n"
    read = names_read(module) | names_read(program) | names_read(tracer, strings=True)
    assert unread_names({"m": module}, read) == [
        "m.unread", "m.Thing.documented", "m.Thing.assigned"
    ]
    assert "traced" not in names_read(tracer)


def test_every_public_name_has_a_program_reader():
    modules = {
        path.stem: path.read_text()
        for path in sorted(ROOT.glob("src/mvtlab/*.py"))
        if path.name != "__init__.py"
    }
    assert len(modules) > 5
    read = set()
    for pattern in READERS:
        for path in ROOT.glob(pattern):
            read |= names_read(path.read_text(), strings=path.parent.name == "perfbench")
    # A TEST_ONLY name that gains a program reader leaves the dict.
    assert unread_names(modules, read) == list(TEST_ONLY)
