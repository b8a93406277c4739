"""The repo's one wall-clock benchmark (see README.md beside this file).

``BENCHMARK.json`` at the repository root is the definition: workloads,
end-to-end metrics with their regression bounds, per-layer metrics and
the run length.  Everything here reads names, units and bounds from that
file, so the two cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parents[2]

# The driver runs the benchmark from a bare checkout with no PYTHONPATH;
# spawn-mode site processes inherit sys.path from this process.
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> Dict[str, Any]:
    """The benchmark definition (``BENCHMARK.json``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
