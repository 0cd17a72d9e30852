"""Every name that a module of the package imports is used in that module,
every private module-level name is used somewhere in the package, and
every cache slot named by a string is a slot of the nodes."""

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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private (one leading underscore) module-level functions, classes
    and constants of sources, a map of module path to text, that no module
    reads outside the definition itself.  A read in another module counts
    by name alone."""
    defs: dict[tuple[str, str], tuple[int, int]] = {}
    reads: list[tuple[str, int, str]] = []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defs[path, name] = (node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads += [(path, node.lineno, alias.name) for alias in node.names]

    def read(path: str, name: str) -> bool:
        first, last = defs[path, name]
        return any(
            n == name and (p != path or not first <= line <= last) for p, line, n in reads
        )

    return [
        f"{path}: {name} (line {defs[path, name][0]})"
        for path, name in sorted(defs)
        if not read(path, name)
    ]


def test_unreferenced_private_names_finds_a_leftover():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\n_C = 1\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _C (line 7)", "a.py: _dead (line 4)"]
    sources["b.py"] += "import a\nprint(a._C, a._dead)\n"
    assert unreferenced_private_names(sources) == []


def test_every_private_module_level_name_is_used():
    sources = {
        str(path.relative_to(_PACKAGE)): path.read_text() for path in sorted(_PACKAGE.rglob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


def slot_literals(source: str) -> list[tuple[int, str]]:
    """(line, name) for each string with one leading underscore that a bare
    getattr or hasattr call, or object.__setattr__, receives as the
    attribute: a name that no node has would only make getattr answer its
    default."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        f = node.func
        if isinstance(f, ast.Name):
            named = f.id in ("getattr", "hasattr")
        else:
            named = (isinstance(f, ast.Attribute) and f.attr == "__setattr__"
                     and isinstance(f.value, ast.Name) and f.value.id == "object")
        attr = node.args[1]
        if named and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
            if attr.value.startswith("_") and not attr.value.startswith("__"):
                out.append((node.lineno, attr.value))
    return out


def test_slot_literals_finds_a_cache_slot_named_by_a_string():
    source = (
        'getattr(o, "_fn", None)\nobject.__setattr__(o, "_cn", 1)\nhasattr(o, "_x")\n'
        'hasattr(o, "__dict__")\nself.getattr(o, "_q")\nx.__setattr__(o, "_q", 1)\n'
        'getattr(o, name)\ngetattr(o, "_" + name)\n'
    )
    assert slot_literals(source) == [(1, "_fn"), (2, "_cn"), (3, "_x")]


def test_every_slot_named_by_a_string_is_a_node_cache_slot():
    from lmtool.syntax import _Cached

    paths = sorted([*_PACKAGE.rglob("*.py"), *Path(__file__).parent.glob("*.py")])
    named = {(path.name, line, name) for path in paths
             for line, name in slot_literals(path.read_text())}
    assert [n for n in sorted(named) if n[2] not in _Cached.__slots__] == []
    # the scan reaches the reads of both slots
    assert {name for *_, name in named} == set(_Cached.__slots__)
