import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import cumulyap


def package_modules():
    return [
        importlib.import_module(f"cumulyap.{info.name}")
        for info in pkgutil.iter_modules(cumulyap.__path__)
        if info.name != "__main__"
    ]


def test_every_module_export_resolves():
    modules = package_modules()
    assert len(modules) >= 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_package_exports_are_the_modules_exports():
    union = {name for module in package_modules() for name in module.__all__}
    assert set(cumulyap.__all__) == union
    assert len(cumulyap.__all__) == len(set(cumulyap.__all__))
    for name in cumulyap.__all__:
        assert hasattr(cumulyap, name)


def test_package_namespace_is_exports_and_modules():
    # a name bound in the package besides the modules and their exports,
    # such as a stray import, would be public API by accident
    public = {name for name in vars(cumulyap) if not name.startswith("_")}
    modules = {module.__name__.rsplit(".", 1)[1] for module in package_modules()}
    assert len(modules) == 9
    assert public == set(cumulyap.__all__) | modules


def cached_tables():
    """(name, function) of every lru_cache'd function of the package that
    takes two arguments, the first named d: the index tables."""
    for module in package_modules():
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                params = list(inspect.signature(obj).parameters)
                if len(params) == 2 and params[0] == "d":
                    yield f"{module.__name__}.{name}", obj


def test_cached_tables_are_shared_and_read_only():
    """A cached table is one object that every caller shares, so a write by
    one caller would change what every later one reads: each ndarray it
    returns, alone or in a tuple, must be read-only, and a second call must
    return the same object."""
    tables = dict(cached_tables())
    assert {"cumulyap.cumulants._pair_table", "cumulyap.tensors.slot_replacements"} <= set(tables)
    for name, table in tables.items():
        first = table(3, 3)
        assert table(3, 3) is first, f"{name} is not shared"
        parts = first if isinstance(first, tuple) else (first,)
        writable = [
            i for i, part in enumerate(parts)
            if isinstance(part, np.ndarray) and part.flags.writeable
        ]
        assert not writable, f"{name} returns writable arrays at {writable}"


REPO = Path(__file__).resolve().parent.parent


def caller_trees():
    """Parsed sources of the library, the benchmark and the acceptance gate."""
    files = [
        *(REPO / "src" / "cumulyap").glob("*.py"),
        *(REPO / "perfbench").glob("*.py"),
        REPO / "tests" / "test_acceptance.py",
    ]
    return [ast.parse(path.read_text()) for path in files]


def referenced_names() -> set[str]:
    """Names used in the library, the benchmark or the acceptance gate.

    A use is an `ast.Name` or `ast.Attribute` with that name anywhere except
    inside a `def` of the same name, so recursion is not a use, and inside a
    type annotation (an `annotation` or `returns` field), which names a type
    but makes nothing of it.
    """
    names: set[str] = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            names.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, enclosing)

    for tree in caller_trees():
        visit(tree, frozenset())
    return names


def public_callables(module):
    """(label, name) of each function and class in the module's `__all__` and
    of each public method or property of a class there; dunders are left
    out."""
    kinds = (classmethod, staticmethod, property)
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            yield name, name
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and (
                inspect.isfunction(member) or isinstance(member, kinds)
            ):
                yield f"{name}.{attr}", attr


def test_public_api_has_a_caller():
    """Every public function, class, method and property is used outside the
    unit tests: by the library, the benchmark or the acceptance gate. A class
    named only in type annotations has no caller.

    Names are matched, not objects, so a name collision counts as a use (a
    call of `np.allclose` would keep a method `allclose` alive, and
    `StudyResult.to_json` keeps every `to_json`): the guard is permissive and
    only catches names that appear nowhere.
    """
    used = referenced_names()
    unused = [
        f"{module.__name__}.{label}"
        for module in package_modules()
        for label, name in public_callables(module)
        if name not in used
    ]
    assert not unused, f"public API with no caller outside the unit tests: {unused}"


def test_dataclass_fields_are_read():
    """Every field of an exported dataclass is read as an attribute (an
    `ast.Attribute` in load context) by the library, the benchmark or the
    acceptance gate, so a result carries nothing that no caller looks at.

    As in test_public_api_has_a_caller, names are matched, not objects: a
    read of any `.matrix` keeps every field called `matrix` alive.
    """
    read = {
        node.attr
        for tree in caller_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module.__name__}.{name}.{field.name}"
        for module in package_modules()
        for name in module.__all__
        if dataclasses.is_dataclass(cls := getattr(module, name))
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert not unread, f"dataclass fields no caller reads: {unread}"


def test_library_reads_no_numpy_generator_internals():
    # the library draws through numpy's public Generator and RandomState
    # calls; the raw words and the carried 32-bit half are numpy's own
    internals = ("has_uint32", "uinteger", "random_raw")
    found = [
        f"{path.relative_to(REPO)}: {name}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for name in internals
        if name in path.read_text()
    ]
    assert not found, f"src/ reads numpy generator internals: {found}"
