"""The runtime dependency boundary: numpy and pyyaml only.

scipy serves the tests and the benchmark as an independent oracle; the
package itself must not load it.  The process pool of
``simulate.compare_controllers`` imports ``multiprocessing`` and
``concurrent.futures`` when it starts, so importing the package loads
neither.
"""
import os
import subprocess
import sys
from pathlib import Path

import koopmanhj

_PROBE = """
import importlib, sys
import koopmanhj
for name in koopmanhj._SUBMODULES + ("_commands",):
    importlib.import_module("koopmanhj." + name)
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent")))
"""


def test_importing_the_package_loads_no_scipy():
    """A fresh interpreter imports the package, every submodule and the
    command implementations, and has no scipy, ``multiprocessing`` or
    ``concurrent`` module loaded after."""
    src = str(Path(koopmanhj.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        cwd=src, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
