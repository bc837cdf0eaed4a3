"""The benchmark's tracer against the library it instruments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # bench/tracer.py wraps kernel moments, component tail masses and
    # validator and estimator functions by name, so a rename in the
    # library breaks traced benchmark runs and nothing else
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
