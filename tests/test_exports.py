"""The package's two lists of public names, its imports and ``__all__``,
stay in step, and its modules hold no unused import or private name."""

import ast
import pathlib
import types

import delzant


def test_all_names_exactly_the_public_names_the_package_binds():
    assert len(set(delzant.__all__)) == len(delzant.__all__)
    assert [name for name in delzant.__all__ if not hasattr(delzant, name)] == []
    bound = {
        name
        for name, value in vars(delzant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(delzant.__all__)


def _references(tree: ast.Module) -> set[str]:
    """The names a module reads, the attributes it takes and the names it
    imports from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_modules_use_every_import_and_every_private_name():
    """A stdlib stand-in for a linter's dead-code checks: each module other
    than ``__init__`` reads every name it imports, and each private
    top-level name is referenced somewhere in the package."""
    src = pathlib.Path(delzant.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    unused, unreferenced = [], []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{module}: {name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            unreferenced += [f"{module}: {name}" for name in defined
                             if name.startswith("_") and not name.startswith("__")
                             and name not in referenced]
    assert unused == []
    assert unreferenced == []
