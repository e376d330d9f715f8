"""Shared test setup.

The subprocess tests run ``python -m collapsewalk.cli`` with ``cwd`` set to a
temporary directory, where a relative ``PYTHONPATH=src`` finds nothing.  Put
the absolute ``src`` path first on ``PYTHONPATH`` so child processes import
this checkout's package from any working directory.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
