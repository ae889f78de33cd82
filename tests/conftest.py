import os
from pathlib import Path

# pyproject's `pythonpath = ["src"]` reaches only the pytest process; the
# tests that start `python -m mimobc.cli` or a demo script as a child
# process hand it the package through the inherited PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
