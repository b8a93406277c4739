"""Comparator systems: centralized single-site and file-server baselines."""

from .centralized import CentralizedRun, run_centralized, union_fetcher
from .fileserver import FileServerBaseline, FileServerCosts, FileServerRun

__all__ = [
    "CentralizedRun",
    "FileServerBaseline",
    "FileServerCosts",
    "FileServerRun",
    "run_centralized",
    "union_fetcher",
]
