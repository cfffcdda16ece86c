"""Make ``src`` importable for the subprocesses some tests start, as the
``pythonpath`` setting in ``pyproject.toml`` does for pytest itself."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
