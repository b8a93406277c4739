"""Smoke tests: every shipped example must run clean end to end.

Examples are documentation that executes; these tests keep them honest
(broken imports, renamed APIs, changed semantics all surface here).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv=None, capsys=None):
    old_argv = sys.argv
    sys.argv = [name] + list(argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys=capsys)
        assert "3 documents found" in out
        assert "HyperFile: A Data Server for Documents" in out

    def test_software_engineering(self, capsys):
        out = run_example("software_engineering.py", capsys=capsys)
        assert "Quicksort Kernel" in out
        assert "Title 1:" in out
        assert "self-maintained" in out

    def test_digital_library(self, capsys):
        out = run_example("digital_library.py", capsys=capsys)
        assert "same answers after migration" in out
        assert "query still terminated cleanly" in out

    def test_lost_in_hyperspace(self, capsys):
        out = run_example("lost_in_hyperspace.py", capsys=capsys)
        assert "browsing user" in out and "querying user" in out
        assert "beats manual navigation" in out

    def test_paper_experiments(self, capsys):
        out = run_example("paper_experiments.py", argv=["1"], capsys=capsys)
        assert "Figure 4" in out
        assert "E5" in out
