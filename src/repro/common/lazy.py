"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that imports every submodule it re-exports makes
any import of the package load all of them: ``import repro.cli`` used to
load the OoO core, the memory hierarchy, the attacks and both serving
loops although a warm ``repro sweep`` runs none of them.  A package
built on :func:`lazy_exports` names each re-exported name once, beside
the module that defines it, and imports that module the first time the
name is read::

    __all__, __getattr__ = lazy_exports(globals(), {
        "repro.core.config": ("MI6Config",),
        "repro.core.processor": ("MI6Processor",),
    })

``from repro.core import MI6Config`` then imports only
:mod:`repro.core.config`, and the value is cached in the package's
namespace so later reads are plain attribute lookups.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """The ``__all__`` and ``__getattr__`` of a lazily exporting package.

    Args:
        namespace: The package's ``globals()``; each name is cached there
            once it has been resolved.
        table: Module path -> the names the package re-exports from it.
            A name may appear only once.
    """
    homes: Dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if name in homes:
                raise ValueError(f"{name!r} is re-exported from {homes[name]} and {module}")
            homes[name] = module
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    return sorted(homes), __getattr__
