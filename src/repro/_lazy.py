"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` declares which submodule defines each public
name; importing the package loads none of them.  A name's submodule is
imported on first attribute access (``from repro.x import name``
included) and the value is then stored in the package globals, so the
next access is a plain dict hit.  A process therefore loads only the
layers it runs (DESIGN.md §4, "Start-up").

A name equal to its submodule's name (``repro.mc.explore``) is bound
eagerly: the import system sets the
package attribute to the *module* when the submodule is first loaded,
so a lazy binding would depend on import order.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(namespace: Dict[str, Any], table: Dict[str, Sequence[str]]) -> None:
    """Install ``__all__``, ``__getattr__`` and ``__dir__`` into the
    package *namespace* (its ``globals()``) from *table*, which maps each
    submodule to the public names it defines."""
    package = namespace["__name__"]
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{where[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(where))

    namespace.update(__all__=list(where), __getattr__=__getattr__, __dir__=__dir__)
    for module, names in table.items():
        if module in names:
            __getattr__(module)
