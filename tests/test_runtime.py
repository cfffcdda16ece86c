"""The runtime needs numpy and the standard library only: scipy is a test
dependency, never loaded by the package."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    code = "\n".join([
        "import sys",
        "import pytest",
        "from fermisim import cli",
        "for experiment in ('rb_s3', 'anticommutation_fig2d', 'fig5_2mode'):",
        "    assert cli.main(['run', '--experiment', experiment, '--noise',",
        "                     'paper', '--seed', '0', '--out',",
        f"                     {str(tmp_path)!r} + '/' + experiment]) == 0",
        "import fermisim.tomography as tomography",
        "with pytest.raises(AttributeError):",
        "    tomography.maximize",
        "loaded = [m for m in sys.modules",
        "          if m == 'scipy' or m.startswith('scipy.')]",
        "assert not loaded, sorted(loaded)[:5]",
        # perfbench's tracer wraps this one name; it alone reaches scipy
        "import scipy.optimize",
        "assert tomography.minimize is scipy.optimize.minimize",
    ])
    subprocess.run([sys.executable, "-c", code], check=True)


def _names(requirements):
    return [re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower()
            for r in requirements]


def test_runtime_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert _names(project["dependencies"]) == ["numpy"]
    assert "scipy" in _names(project["optional-dependencies"]["test"])
