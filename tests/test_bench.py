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


def test_cold_build_spans(monkeypatch):
    """A cold GraphSpace(4) traced in process: the class build runs inside
    the classify span and the hub pass inside relation_rows, so the layer
    metrics split the 123 canonicalize calls between them: 98 listing the
    classes (the insertion candidates at k=2..4 and the two classes at k=1)
    and 25 contracting one edge per edge orbit of the 4 signed classes."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    import trivalent.cli  # the recorder wraps cli.main, so it must be loaded
    from trivalent.spaces import GraphSpace

    recorder = spans.Recorder()
    recorder.install()
    try:
        recorder.enabled = True
        space = GraphSpace(4)
        space.dimension()
        space.normal_form({})
    finally:
        recorder.enabled = False
        recorder.uninstall()
    metrics = spans.layer_metrics(recorder.spans, 1.0, 1.0)
    assert {name: metrics[name][0] for name in (
        "canon.canonicalize.calls",
        "canon.canonicalize.calls_classify",
        "canon.canonicalize.calls_relations",
        "spaces.classify.signed",
    )} == {
        "canon.canonicalize.calls": 123,
        "canon.canonicalize.calls_classify": 98,
        "canon.canonicalize.calls_relations": 25,
        "spaces.classify.signed": 4,
    }
