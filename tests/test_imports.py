"""Every name that a module of the package imports is used in that module."""

import ast
from pathlib import Path

import lmtool

_PACKAGE = Path(lmtool.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads; a name listed in
    __all__ is read, since the module exports it."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_finds_an_unread_name():
    source = "from .meta import apply_stack, rename\nimport os.path\nprint(rename)\n"
    assert unused_imports(source) == ["apply_stack (line 1)", "os (line 2)"]
    assert unused_imports("from .x import a\n__all__ = ['a']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {
        str(path.relative_to(_PACKAGE)): unused
        for path in sorted(_PACKAGE.rglob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
