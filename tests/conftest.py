"""Make ``src`` importable for the subprocesses some tests start, as the
``pythonpath`` setting in ``pyproject.toml`` does for pytest itself, and
report the ``flipped_csv_cells`` property some tests record."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter):
    counts = [dict(r.user_properties)["flipped_csv_cells"]
              for r in terminalreporter.stats.get("passed", [])
              if "flipped_csv_cells" in dict(r.user_properties)]
    if counts:
        terminalreporter.write_line(
            f"{sum(counts)} %.12g CSV cells flipped in {len(counts)} "
            f"output comparisons within 1e-12")
