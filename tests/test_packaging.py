"""The package metadata matches the code: ``setup.py`` names ``repro`` at
``repro.__version__``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_package_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = completed.stdout.split()
    assert lines[-2:] == ["repro", repro.__version__], completed.stdout
