"""Package metadata for the TASM reproduction (``repro``).

The package lives under ``src/``.  ``pip install -e .`` installs it editable;
the test suite runs without installing it, with ``PYTHONPATH=src``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    """``repro.__version__``, read from source so setup needs no numpy."""
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    match = re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description="TASM: a tile-based storage manager for video analytics",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
