"""Package exports load on first use and resolve to their defining modules.

Every ``repro`` package re-exports names from its submodules through a
``{defining module: names}`` table (``repro._exports``), so these tests
pin the public surface itself: each ``__all__`` name is the defining
module's object, whatever was imported before it.
"""

import importlib
import json
import pkgutil
import types

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

#: The only ``__all__`` names whose value is a submodule.
MODULE_EXPORTS = {("repro.obs", "exporter"), ("repro.obs", "manifest")}

#: Run in a fresh interpreter after a ``MODULE_EXPORTS = ...`` line:
#: import every ``repro`` module first (which is what would rebind a name
#: that shadows its own submodule), then resolve every export.  Prints
#: the mismatches as JSON.
CHECK_EVERY_EXPORT = """
import importlib, json, pkgutil, sys, types
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
packages = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]
bad = []
for name in packages:
    package = sys.modules[name]
    for module, names in package._EXPORTS.items():
        for export in names:
            if getattr(package, export) is not getattr(sys.modules[module], export):
                bad.append(f"{name}.{export}")
    for export in package.__all__:
        value = getattr(package, export)
        if isinstance(value, types.ModuleType) and (name, export) not in MODULE_EXPORTS:
            bad.append(f"{name}.{export} is a module")
print(json.dumps(bad))
"""


def _package(name):
    return importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = _package(name)
    table_names = [export for names in package._EXPORTS.values() for export in names]
    assert len(table_names) == len(set(table_names)), "a name listed twice"
    assert set(table_names) <= set(package.__all__)
    for module, names in package._EXPORTS.items():
        for export in names:
            assert getattr(package, export) is getattr(importlib.import_module(module), export)
    for export in package.__all__:
        value = getattr(package, export)
        if isinstance(value, types.ModuleType):
            assert (name, export) in MODULE_EXPORTS
            assert value.__name__ == f"{name}.{export}"


def test_exports_survive_importing_every_submodule_first(fresh_python):
    code = f"MODULE_EXPORTS = {MODULE_EXPORTS!r}\n" + CHECK_EVERY_EXPORT
    assert json.loads(fresh_python("-c", code)) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = _package(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_attribute_raises_attribute_error(name):
    package = _package(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")
    assert getattr(package, "not.an.identifier", None) is None


def test_a_resolved_name_is_cached_in_the_package():
    from repro import core

    value = core.CsskAlphabet
    assert vars(core)["CsskAlphabet"] is value


@pytest.mark.parametrize("name", ["repro", "repro.sim"])
def test_star_import_binds_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = _package(name)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


def test_submodule_reached_only_by_attribute_resolves(fresh_python):
    out = fresh_python(
        "-c",
        "import sys, repro\n"
        "engine = repro.sim.engine\n"
        "protocol = repro.serve.protocol\n"
        "print(engine is sys.modules['repro.sim.engine'],"
        " protocol is sys.modules['repro.serve.protocol'])",
    )
    assert out.split() == ["True", "True"]
