"""The benchmark harness still runs against the package.

The harness wraps package functions by name (bench/spans.py) and checks its
output checkers on small inputs (--self-check); a rename or removal in the
package shows up here rather than first in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_self_check_and_recorder_install():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    script = (
        "import trivalent.cli, spans\n"
        "r = spans.Recorder()\n"
        "r.install()\n"
        "r.uninstall()\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
