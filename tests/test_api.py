import importlib
import pkgutil

import cumulyap


def package_modules():
    return [
        importlib.import_module(f"cumulyap.{info.name}")
        for info in pkgutil.iter_modules(cumulyap.__path__)
        if info.name != "__main__"
    ]


def test_every_module_export_resolves():
    modules = package_modules()
    assert len(modules) >= 8
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
    assert len(modules) == 8
    assert public == set(cumulyap.__all__) | modules
