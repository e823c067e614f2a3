"""No orphans in the package: every import is used, every private name is read.

Read with `ast` alone. A name imported into a module of
src/homofiber must be referenced in that module (`__init__.py`, which
re-exports, is exempt), and a module-level `_private` function, class
or constant must be referenced somewhere in src/homofiber outside its
own definition. `__init__.__all__` names exactly what `__init__` imports,
so a name deleted from a module leaves no export behind, and every export
has a reader outside the package: a file of tests/, bench/ or tools/, or
the README's library example, imports it from `homofiber` or reads it as
`hf.<name>`.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homofiber"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(node):
    """Every name a node reads, as a bare name, an attribute or an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__.py"])
def test_every_import_is_used(name):
    tree = MODULES[name]
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    used |= {
        sub.value.id
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
    }
    unused = sorted(f"{n} (line {line})" for n, line in imported.items() if n not in used)
    assert not unused, f"{name} imports names it never uses: {', '.join(unused)}"


def test_every_private_name_is_referenced():
    statements = [(name, node) for name, tree in MODULES.items() for node in tree.body]
    orphans = []
    for name, node in statements:
        for private in _defined(node):
            if not private.startswith("_") or private.startswith("__"):
                continue
            if not any(
                private in _referenced(other) for _, other in statements if other is not node
            ):
                orphans.append(f"{name}:{node.lineno} {private}")
    assert not orphans, f"private names nothing in src/ references: {', '.join(orphans)}"


def _exports():
    """The list `__init__.__all__` names."""
    (exported,) = [
        ast.literal_eval(node.value)
        for node in MODULES["__init__.py"].body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    return exported


def test_all_names_exactly_the_imports_of_init():
    tree = MODULES["__init__.py"]
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = _exports()
    assert len(exported) == len(set(exported)), "__all__ names a name twice"
    assert set(exported) == imported, (
        f"exported, not imported: {sorted(set(exported) - imported)}; "
        f"imported, not exported: {sorted(imported - set(exported))}"
    )


def _library_example():
    """The python block of the README's Library section."""
    text = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_export_is_read_outside_the_package():
    trees = [ast.parse(_library_example())]
    trees += [
        ast.parse(path.read_text())
        for folder in ("tests", "bench", "tools")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    read = set()
    for tree in trees:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.module == "homofiber":
                read.update(alias.name for alias in sub.names)
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "hf":
                read.add(sub.attr)
    unread = sorted(set(_exports()) - read)
    assert not unread, f"exports nothing outside the package reads: {', '.join(unread)}"
