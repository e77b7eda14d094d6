"""Every private helper of the library has a caller, every import is
used, and every dataclass field is read.

A module-level private function, class or constant of src/actcovers is
loaded somewhere in the package outside its own definition: in its own
module, in a module that imports it by name, or as an attribute.  Every
name a module imports is loaded in that module; the re-exports of
__init__.py and __future__ imports are exempt.  Every field of a
dataclass the package defines is loaded as an attribute somewhere in the
package.  Code with no caller, and data with no reader, is deleted
rather than kept.  The checks read the source with the standard
library's ast module and import nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "actcovers"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _defined(stmt):
    """Private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if _is_private(n)]


def _loaded(stmt):
    """(names, attributes) a statement loads."""
    names, attrs = set(), set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def _imported_from(tree, module):
    """Names the tree imports from the sibling module `module`."""
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 and node.module == module for alias in node.names}


def unused_private_names(package=PACKAGE):
    """(file name, symbol) for each private module-level name of the
    package that nothing outside its own definition loads."""
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(package.glob("*.py"))}
    loads = [(module, index, *_loaded(stmt))
             for module, tree in trees.items() for index, stmt in enumerate(tree.body)]
    unused = []
    for module, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            for name in _defined(stmt):
                # a bare name refers to this definition only in its own
                # module and in the modules that import it from there
                visible = {other for other, other_tree in trees.items()
                           if other == module or name in _imported_from(other_tree, module)}
                if not any(name in attrs or (other in visible and name in names)
                           for other, j, names, attrs in loads if (other, j) != (module, index)):
                    unused.append((f"{module}.py", name))
    return unused


def test_every_private_helper_has_a_caller():
    assert unused_private_names() == []


def test_a_helper_with_no_caller_is_named(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n\n\ndef _step(x):\n    return _step(x - 1) if x else _LIMIT\n\n\n"
        "def _orphan():\n    return 0\n")
    (tmp_path / "b.py").write_text("from .a import _step\n\nVALUE = _step(2)\n")
    assert unused_private_names(tmp_path) == [("a.py", "_orphan")]


def unused_imports(package=PACKAGE):
    """(file name, name) for each name a module of the package imports
    and never loads, in file and then source order."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded, _ = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.name, name) for name in bound if name not in loaded]
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def test_an_unused_import_is_named(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import VALUE\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport json\nimport os.path\n"
        "from .b import ActMap, _least_members\n\nVALUE = os.path.sep + _least_members\n")
    assert unused_imports(tmp_path) == [("a.py", "json"), ("a.py", "ActMap")]


def _is_dataclass(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", None) == "dataclass" or getattr(d, "attr", None) == "dataclass":
            return True
    return False


def unread_fields(package=PACKAGE):
    """(module, class, field) for each field of a dataclass of the
    package that no code of the package loads as an attribute, in file
    and then source order."""
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(package.glob("*.py"))}
    read = set().union(*(_loaded(tree)[1] for tree in trees.values()))
    return [(module, node.name, stmt.target.id)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_an_unread_field_is_named(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Report:\n    kind: str\n    verdict: bool\n"
        "    LIMIT = 3\n\n\n@dataclasses.dataclass\nclass Pair:\n    left: int\n"
        "    right: int\n\n\nclass Plain:\n    label: str\n")
    (tmp_path / "b.py").write_text(
        "def f(report, pair):\n    pair.right = 0\n    return report.verdict, pair.left\n")
    assert unread_fields(tmp_path) == [("a", "Report", "kind"), ("a", "Pair", "right")]
