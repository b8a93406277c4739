"""Comparator systems: centralized single-site and file-server baselines."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".centralized": ("CentralizedRun", "run_centralized", "union_fetcher"),
    ".fileserver": ("FileServerBaseline", "FileServerCosts", "FileServerRun"),
})
