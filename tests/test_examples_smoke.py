"""Smoke tests: the fast examples must run clean end-to-end.

The slower examples (bspmm, mra) are exercised by their own application
tests; here we pin the quick ones that double as documentation.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST = [
    "quickstart.py",
    "sending_modes.py",
    "ptg_wavefront.py",
]


@pytest.mark.parametrize("script", FAST)
def test_example_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OK" in proc.stdout


def test_examples_directory_documented():
    readme = (EXAMPLES / "README.md").read_text()
    for script in EXAMPLES.glob("*.py"):
        assert script.name in readme, f"{script.name} missing from examples/README.md"
