"""Lazy re-exports for the package facades (PEP 562).

Each package ``__init__`` names its public values in a table from name
to the submodule that defines it, and installs the ``__getattr__`` that
:func:`lazy_exports` builds from it.  Importing a package then runs none
of its submodules: a name's submodule is imported on its first access,
and the value is cached in the package namespace, so later lookups never
reach ``__getattr__``.  A cold start compiles and executes only the
modules its path calls.

``src/`` modules import from the defining submodule, never through a
facade, so the static call graph (:mod:`repro.lint.graph`) keeps every
edge.
"""

from importlib import import_module
from typing import Any, Callable, Dict, MutableMapping, Optional


def lazy_exports(namespace: MutableMapping[str, Any],
                 exports: Dict[str, Optional[str]]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of the package whose globals are
    ``namespace``.  ``exports`` maps each public name to its submodule:
    ``"sub"`` re-exports ``sub.<name>``, ``"sub:attr"`` re-exports
    ``sub.attr`` under the new name, and ``None`` names the submodule
    itself.

    A name its submodule shares (``core.edf_rta.edf_rta``) is bound
    now: the first import of that submodule, from anywhere, would
    otherwise bind the submodule itself under the name."""
    package = namespace["__name__"]

    def resolve(name: str) -> Any:
        target = exports[name]
        if target is None:
            return import_module(f".{name}", package)
        submodule, _, attr = target.partition(":")
        return getattr(import_module(f".{submodule}", package), attr or name)

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = resolve(name)
        return value

    for name, target in exports.items():
        if target == name:
            namespace[name] = resolve(name)
    return __getattr__
