"""The build script must run where only the declared build requirement
(setuptools) is installed, as in an isolated ``pip install .``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# numpy and Cython made unimportable, as in a fresh build environment
_NO_BUILD_EXTRAS = """
import runpy, sys
for name in ("numpy", "Cython", "Cython.Build"):
    sys.modules[name] = None
sys.argv = ["setup.py", "--name"]
runpy.run_path("setup.py", run_name="__main__")
"""


def test_setup_runs_without_numpy_or_cython():
    out = subprocess.run([sys.executable, "-c", _NO_BUILD_EXTRAS], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["tmotive"]
