"""Lazy package exports (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
public names makes every import of one submodule run all of its siblings.
The packages here instead declare where each public name lives and install
:func:`lazy_exports`'s hook as their module ``__getattr__``: ``from
repro.core import fit_moments`` imports ``repro.core.moments_fit`` on first
use, and ``import repro.core.online`` runs no sibling it does not import
itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any]]:
    """The ``__all__`` and the module ``__getattr__`` of ``package``.

    ``exports`` maps each submodule's short name to the public names it
    provides; ``__all__`` lists them in that order.  A listed name imports
    its submodule when first looked up and is then stored on the package,
    so later lookups never reach the hook.  Any other name that is a
    submodule is imported, as ``import package.name`` would; anything else
    raises :class:`AttributeError`.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    return list(home), __getattr__
