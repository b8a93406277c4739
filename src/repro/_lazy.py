"""Package re-exports that import their module on first use.

A package ``__init__`` declares which of its modules defines each name it
re-exports; ``from repro.cache import CacheConfig`` then imports
``repro.cache.config`` alone.  A process that needs one name of a
package pays for that module, not the whole package — a process-mode
site child imports the site runtime and nothing else.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The module ``__getattr__``, ``__dir__`` and ``__all__`` of
    ``package``, whose ``exports`` map a relative module name (``".config"``)
    to the names re-exported from it.  A name is imported once and then
    kept in the package's namespace."""
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
