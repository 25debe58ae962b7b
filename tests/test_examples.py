"""Smoke tests for the runnable scripts in ``examples/``.

The examples call the public API directly (and subclass the leg runner),
so a signature change there breaks them without failing any unit test.
Each runs here in a subprocess and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


@pytest.mark.parametrize("script", ["http_clients.py",
                                    "fault_tolerant_serving.py"])
def test_the_example_runs_to_exit_code_zero(script):
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    if script == "http_clients.py":  # the grid streams proven prefixes
        assert "[stream] ranks " in completed.stdout
        assert "(0 of" not in completed.stdout

