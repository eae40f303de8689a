"""Lazy package exports: a package's public names import on first use.

Every ``repro`` package keeps a literal ``__all__`` and a table
``{defining module: names}`` of what it re-exports, and hands both to
this module from a module-level ``__getattr__``/``__dir__`` (PEP 562)::

    _EXPORTS = {"repro.core.cssk": ("CsskAlphabet", "DecoderDesign")}

    def __getattr__(name):
        return _exports.load(globals(), _EXPORTS, name)

    def __dir__():
        return _exports.listing(globals())

So ``import repro.sim.engine`` runs only the modules the engine imports,
not every module every package re-exports.  ``from repro.core import
CsskAlphabet`` imports ``repro.core.cssk`` and nothing else of
``repro.core``; the name is then cached in the package namespace, so
later lookups are plain attribute reads that never reach ``__getattr__``.
"""

from __future__ import annotations

import importlib


def load(namespace: dict, table: "dict[str, tuple[str, ...]]", name: str):
    """Import ``name`` for the package whose globals are ``namespace``.

    A name in ``table`` comes from its defining module; any other
    identifier is tried as a submodule (``import repro; repro.sim.engine``
    works).  The value is cached in ``namespace``.  A name that is
    neither raises the standard :class:`AttributeError`.
    """
    package = namespace["__name__"]
    for module, names in table.items():
        if name in names:
            value = getattr(importlib.import_module(module), name)
            break
    else:
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        if not name.isidentifier():
            raise missing
        try:
            value = importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{package}.{name}":
                raise
            raise missing from None
    namespace[name] = value
    return value


def listing(namespace: dict) -> "list[str]":
    """``dir(package)``: what is loaded so far plus every ``__all__`` name."""
    return sorted(set(namespace) | set(namespace.get("__all__", ())))
