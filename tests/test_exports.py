"""The package's two lists of public names, its imports and ``__all__``,
stay in step, its modules hold no unused import or private name, every
public name and method has a caller outside the tests, and the names the
README lists as removed stay gone."""

import ast
import importlib
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


def _top_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names a module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
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
        unreferenced += [f"{module}: {name}" for name in _top_level_names(tree)
                         if name.startswith("_") and not name.startswith("__")
                         and name not in referenced]
    assert unused == []
    assert unreferenced == []


# the special methods a class of the package may define, each with what calls
# it: the interpreter looks them up for an operator, a builtin or pickle, so no
# attribute read shows a caller; an operator such as ``__add__`` is not listed
SPECIAL_METHODS = {
    "__init__": "the class call, which builds and checks a value",
    "__init_subclass__": "each class statement that subclasses _Value",
    "__eq__": "== and !=, and every dict and set lookup",
    "__hash__": "hash(), and every dict key and set member",
    "__repr__": "repr(), and the value in an assertion's message",
    "__setattr__": "an assignment to a field, which it refuses",
    "__delattr__": "a deletion of a field, which it refuses",
    "Polygon.__len__": "len(poly), the vertex count the algorithms loop over",
    "_IndexedError.__reduce__": "pickle, which rebuilds the error from its index",
    "NotDelzantError.__reduce__": "pickle, which rebuilds the error from its failures",
}


def test_every_public_name_has_a_caller():
    """Each public top-level name of a module other than ``__init__`` is
    read (a name, an attribute or a ``from`` import) in a program module:
    one of the package other than ``__init__``, its own included, a demo
    or the benchmark harness.  Each public method or property of a class
    in the package is read as an attribute in a program module, and each
    special method is one of ``SPECIAL_METHODS``.  The tests, their
    oracles included, keep no name."""
    root = pathlib.Path(__file__).resolve().parents[1]
    modules = sorted(p for p in (root / "src" / "delzant").glob("*.py") if p.stem != "__init__")
    callers = [*modules, *sorted(root.glob("demos/*.py")), *sorted(root.glob("perfbench/*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in callers}
    read = set().union(*map(_references, trees.values()))
    uncalled = [f"{path.stem}.{name}" for path in modules for name in _top_level_names(trees[path])
                if not name.startswith("_") and name not in read]
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    special = []
    for path in modules:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                name = method.name
                if name.startswith("__"):
                    special.append(name if name in SPECIAL_METHODS else f"{cls.name}.{name}")
                elif not name.startswith("_") and name not in attributes:
                    uncalled.append(f"{path.stem}.{cls.name}.{name}")
    assert uncalled == []
    assert sorted(set(special) - set(SPECIAL_METHODS)) == []
    assert sorted(set(SPECIAL_METHODS) - set(special)) == []  # no entry outlives its method


# every dotted name in the README's "Removed names" section, as written there
REMOVED_NAMES = [
    "delzant.Rational",
    "delzant.parse_rational",
    "delzant.lattice.format_rational",
    "delzant.second_betti_from_edges",
    "delzant.lattice.mat_inverse_transpose",
    "UnimodularAffine.translate",
    "UnimodularAffine.det",
    "delzant.jsonio.node_from_json",
    "LabeledGraph.min_moment",
    "LabeledGraph.max_moment",
    "IntVec2.__add__",
    "IntVec2.__sub__",
    "UnimodularAffine.identity",
    "UnimodularAffine.invert",
    "delzant.jsonio.node_to_json",
    "delzant.jsonio.affine_from_json",
    "delzant.jsonio.params_from_json",
    "delzant.jsonio.manifold_to_json",
    "delzant.jsonio.fixed_data_to_json",
    "UnimodularAffine.compose",
    "delzant.lattice.mat_mul",
    "delzant.lattice.mat_transpose",
    "delzant.lattice.mat_inverse_unimodular",
    "delzant.lattice.mat_vec",
    "IntVec2.rotate_left",
    "IntVec2.dot",
    "RatVec2.dot",
    "delzant.circle_actions.flip_graph",
    "delzant.lattice.primitive",
    "IntVec2.is_zero",
    "IntVec2.__neg__",
    "delzant.errors.DegenerateDirectionError",
    "delzant.lattice.det2",
    "delzant.lattice.mat_det",
    "delzant.lattice.solve_mat2",
    "RatVec2.__add__",
    "RatVec2.__sub__",
    "RatVec2.__neg__",
    "delzant.jsonio.rational_to_json",
    "delzant.errors.OutputTooLargeError",
    "delzant.CircleDirection",
    "delzant.IntersectionForm",
]


def _resolves(dotted: str) -> bool:
    """Whether ``dotted``, read inside the package when it does not start
    with ``delzant.``, names an attribute or a module."""
    parts = dotted.split(".")
    if parts[0] != "delzant":
        parts.insert(0, "delzant")
    obj = delzant
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_removed_names_stay_removed():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("**Removed names.**", 1)[1].split("\n\n```", 1)[0]
    assert [name for name in REMOVED_NAMES if f"`{name}" not in section] == []
    assert [name for name in REMOVED_NAMES if _resolves(name)] == []
    assert _resolves("jsonio.rational_from_json") and _resolves("UnimodularAffine.apply")
